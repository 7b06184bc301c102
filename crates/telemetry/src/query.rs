//! Querying and asserting over traces.
//!
//! [`TraceQuery`] turns a recorded trace into checkable execution
//! invariants: *no activity was dispatched again after completing*,
//! *every dropped message was followed by a timeout or retry (never a
//! wrong answer)*, *A happened before B*, *an activity was retried
//! exactly N times*.  Checks return [`TraceViolation`] values;
//! [`TraceQuery::check_all`] checks every whole-trace invariant in one
//! walk over the log, and three single-invariant views read its answer.

use crate::event::{TraceEvent, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// A falsified trace invariant, carrying enough context to debug it.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceViolation {
    /// An activity saw a dispatch after it had already completed.
    DoubleDispatch {
        /// The offending activity.
        activity: String,
        /// Sequence number of the completion.
        completed_seq: u64,
        /// Sequence number of the later dispatch.
        redispatched_seq: u64,
    },
    /// A dropped message was never resolved by a timeout, a retry, or a
    /// correct answer.
    UnresolvedDrop {
        /// The dropped message id.
        message_id: u64,
        /// Sequence number of the drop.
        dropped_seq: u64,
    },
    /// A request was answered incorrectly (wrong answers under faults
    /// are never acceptable; only timeouts are).
    WrongAnswer {
        /// The answering agent.
        agent: String,
        /// Sequence number of the bad answer.
        seq: u64,
    },
    /// The expected ordering `first` before `second` did not hold.
    OrderViolated {
        /// Description of the event expected first.
        first: String,
        /// Description of the event expected second.
        second: String,
    },
    /// An activity's retry count differed from the expectation.
    RetryCountMismatch {
        /// The activity checked.
        activity: String,
        /// Retries expected.
        expected: usize,
        /// Retries observed.
        observed: usize,
    },
    /// A span endpoint was missing (activity never dispatched or never
    /// completed).
    MissingSpan {
        /// The activity whose span was requested.
        activity: String,
    },
    /// A container's breaker events form an illegal state-machine walk
    /// (e.g. `breaker.closed` without a preceding `breaker.half_open`).
    IllegalBreakerTransition {
        /// The container whose breaker misbehaved.
        container: String,
        /// State implied by the previous event (`"closed"` initially).
        from: String,
        /// State the offending event moved to.
        to: String,
        /// Sequence number of the offending event.
        seq: u64,
    },
    /// An activity was dispatched to a container while its breaker was
    /// open (quarantined containers must be excluded from matchmaking).
    DispatchWhileOpen {
        /// The quarantined container.
        container: String,
        /// Sequence number of the `breaker.opened` event.
        opened_seq: u64,
        /// Sequence number of the offending dispatch.
        dispatched_seq: u64,
    },
    /// Two same-tick admissions came out of order for the active
    /// admission policy (e.g. a lower-priority case ahead of a waiting
    /// higher-priority one, or a later deadline ahead of an earlier).
    AdmissionOrderViolated {
        /// Case admitted first.
        earlier: String,
        /// Case admitted after it, which the policy owed first pick.
        later: String,
        /// The tick both admissions landed on.
        tick: u64,
        /// What the policy ordering said (rendered comparison).
        detail: String,
    },
    /// A `transport.partitioned` event was never followed by a
    /// matching `transport.healed` for the same node pair.
    UnhealedPartition {
        /// One side of the partitioned pair.
        a: String,
        /// The other side of the partitioned pair.
        b: String,
        /// Sequence number of the unmatched `transport.partitioned`.
        opened_seq: u64,
    },
    /// A `transport.healed` event arrived for a node pair with no
    /// open partition.
    HealWithoutPartition {
        /// One side of the healed pair.
        a: String,
        /// The other side of the healed pair.
        b: String,
        /// Sequence number of the stray `transport.healed`.
        seq: u64,
    },
    /// More cases held reservations on a container than it has slots —
    /// the multi-case fair-contention invariant in trace form.
    DoubleBooking {
        /// The over-booked container.
        container: String,
        /// Cases holding a reservation at the moment of the violation.
        holders: Vec<String>,
        /// The container's slot capacity.
        capacity: usize,
        /// Sequence number of the over-booking reservation.
        seq: u64,
    },
    /// A content-addressed plan key ran GP more than once — the plan
    /// cache failed to share the work.
    DuplicatePlanRun {
        /// The offending plan key (32 hex digits).
        key: String,
        /// Sequence numbers of every `plan.cache_miss` for that key.
        miss_seqs: Vec<u64>,
    },
}

impl std::fmt::Display for TraceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceViolation::DoubleDispatch {
                activity,
                completed_seq,
                redispatched_seq,
            } => write!(
                f,
                "activity '{activity}' completed at seq {completed_seq} but was \
                 dispatched again at seq {redispatched_seq}"
            ),
            TraceViolation::UnresolvedDrop {
                message_id,
                dropped_seq,
            } => write!(
                f,
                "message {message_id} dropped at seq {dropped_seq} with no later \
                 timeout, retry, or answer"
            ),
            TraceViolation::WrongAnswer { agent, seq } => {
                write!(f, "agent '{agent}' returned a wrong answer at seq {seq}")
            }
            TraceViolation::OrderViolated { first, second } => {
                write!(f, "expected {first} before {second}, trace disagrees")
            }
            TraceViolation::RetryCountMismatch {
                activity,
                expected,
                observed,
            } => write!(
                f,
                "activity '{activity}': expected {expected} retries, observed {observed}"
            ),
            TraceViolation::MissingSpan { activity } => {
                write!(
                    f,
                    "activity '{activity}' has no complete dispatch→completion span"
                )
            }
            TraceViolation::IllegalBreakerTransition {
                container,
                from,
                to,
                seq,
            } => write!(
                f,
                "container '{container}': illegal breaker transition {from} → {to} \
                 at seq {seq}"
            ),
            TraceViolation::DispatchWhileOpen {
                container,
                opened_seq,
                dispatched_seq,
            } => write!(
                f,
                "container '{container}' breaker opened at seq {opened_seq} but took \
                 a dispatch at seq {dispatched_seq} before being readmitted"
            ),
            TraceViolation::AdmissionOrderViolated {
                earlier,
                later,
                tick,
                detail,
            } => write!(
                f,
                "tick {tick}: case '{earlier}' was admitted ahead of '{later}' \
                 against the admission policy ({detail})"
            ),
            TraceViolation::UnhealedPartition { a, b, opened_seq } => write!(
                f,
                "partition between '{a}' and '{b}' opened at seq {opened_seq} was \
                 never healed"
            ),
            TraceViolation::HealWithoutPartition { a, b, seq } => write!(
                f,
                "transport.healed for '{a}'/'{b}' at seq {seq} with no open partition"
            ),
            TraceViolation::DoubleBooking {
                container,
                holders,
                capacity,
                seq,
            } => write!(
                f,
                "container '{container}' ({capacity} slot(s)) held by [{}] at seq {seq} \
                 — double booking",
                holders.join(", ")
            ),
            TraceViolation::DuplicatePlanRun { key, miss_seqs } => write!(
                f,
                "plan key {key} ran GP {} times (plan.cache_miss at seqs {miss_seqs:?}) \
                 — at most one run per key expected",
                miss_seqs.len()
            ),
        }
    }
}

/// One `case.admitted` event flattened for policy-discipline checks.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRecord {
    /// Sequence number of the admission event.
    pub seq: u64,
    /// The admitted case's label.
    pub case: String,
    /// Scheduler tick the admission landed on.
    pub tick: u64,
    /// The policy's admission reason, when a non-FIFO policy stamped
    /// one.
    pub reason: Option<String>,
}

/// A read-only view over a trace with invariant checks.
#[derive(Debug, Clone)]
pub struct TraceQuery {
    records: Vec<TraceRecord>,
}

impl TraceQuery {
    /// Build a query over a snapshot of records (emission order).
    pub fn new(records: Vec<TraceRecord>) -> Self {
        TraceQuery { records }
    }

    /// The underlying records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records whose event satisfies `pred`, in order.
    pub fn filter<'a>(
        &'a self,
        mut pred: impl FnMut(&TraceEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceRecord> + 'a {
        self.records.iter().filter(move |r| pred(&r.event))
    }

    /// Sequence number of the first record matching `pred`.
    pub fn first_seq(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> Option<u64> {
        self.records.iter().find(|r| pred(&r.event)).map(|r| r.seq)
    }

    /// Count of records matching `pred`.
    pub fn count(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.event)).count()
    }

    /// The `seq` span of one activity: first dispatch to first
    /// completion (half-open, so `span.contains(&seq)` covers every
    /// event strictly between them plus the dispatch itself).
    pub fn span(&self, activity: &str) -> Result<Range<u64>, TraceViolation> {
        let start = self.first_seq(
            |e| matches!(e, TraceEvent::ActivityDispatched { activity: a, .. } if a == activity),
        );
        let end = self.first_seq(
            |e| matches!(e, TraceEvent::ActivityCompleted { activity: a, .. } if a == activity),
        );
        match (start, end) {
            (Some(s), Some(e)) if s <= e => Ok(s..e + 1),
            _ => Err(TraceViolation::MissingSpan {
                activity: activity.to_string(),
            }),
        }
    }

    /// Check: no activity is dispatched again after it completed —
    /// completion is final, and a `ReplanTriggered` does **not** reset
    /// it.  The one thing that does is a loop: a `Merge` node firing for
    /// the second time is an `ITERATIVE` back edge, and the body it
    /// leads into legitimately runs again.  A fiber recovered from the
    /// durable store is rebuilt silently with its completions behind it,
    /// so this is also the crash double-execution invariant: a merged
    /// kill → recover log must pass it like any other.  Checked per case
    /// scope, as in [`TraceQuery::check_all`]; the first such violation
    /// it reports.
    pub fn check_no_double_dispatch(&self) -> Result<(), TraceViolation> {
        self.first_of(|v| matches!(v, TraceViolation::DoubleDispatch { .. }))
    }

    /// Check: the first record matching `first` precedes the first
    /// record matching `second`.  `first_desc`/`second_desc` label the
    /// violation.
    pub fn check_happens_before(
        &self,
        first_desc: &str,
        first: impl FnMut(&TraceEvent) -> bool,
        second_desc: &str,
        second: impl FnMut(&TraceEvent) -> bool,
    ) -> Result<(), TraceViolation> {
        let violated = || TraceViolation::OrderViolated {
            first: first_desc.to_string(),
            second: second_desc.to_string(),
        };
        let a = self.first_seq(first).ok_or_else(violated)?;
        let b = self.first_seq(second).ok_or_else(violated)?;
        if a < b {
            Ok(())
        } else {
            Err(violated())
        }
    }

    /// Observed retry count for an activity: the number of
    /// `ActivityFailed` events it accumulated (each failure is followed
    /// by a dispatch of the next candidate or a replan).
    pub fn retry_count(&self, activity: &str) -> usize {
        self.count(|e| matches!(e, TraceEvent::ActivityFailed { activity: a, .. } if a == activity))
    }

    /// Check: `activity` was retried exactly `expected` times.
    pub fn check_retry_count(&self, activity: &str, expected: usize) -> Result<(), TraceViolation> {
        let observed = self.retry_count(activity);
        if observed == expected {
            Ok(())
        } else {
            Err(TraceViolation::RetryCountMismatch {
                activity: activity.to_string(),
                expected,
                observed,
            })
        }
    }

    /// Observed backoff-retry count for an activity: the number of
    /// `retry.scheduled` events the recovery layer emitted for it.
    pub fn retry_schedule_count(&self, activity: &str) -> usize {
        self.count(|e| matches!(e, TraceEvent::RetryScheduled { activity: a, .. } if a == activity))
    }

    /// Observed lease expiries for an activity.
    pub fn lease_expiry_count(&self, activity: &str) -> usize {
        self.count(|e| matches!(e, TraceEvent::LeaseExpired { activity: a, .. } if a == activity))
    }

    /// Check: every container's breaker events walk the state machine
    /// legally — `opened` only from closed or half-open, `half_open`
    /// only from open, `closed` only from half-open.  Checked per case
    /// scope, as in [`TraceQuery::check_all`]; the first such violation
    /// it reports.
    pub fn check_breaker_discipline(&self) -> Result<(), TraceViolation> {
        self.first_of(|v| matches!(v, TraceViolation::IllegalBreakerTransition { .. }))
    }

    /// Every `case.admitted` event in trace order, flattened.
    pub fn admissions(&self) -> Vec<AdmissionRecord> {
        self.records
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::CaseAdmitted { case, tick, reason } => Some(AdmissionRecord {
                    seq: r.seq,
                    case: case.to_string(),
                    tick: *tick,
                    reason: reason.clone(),
                }),
                _ => None,
            })
            .collect()
    }

    /// Case labels in admission order — the policy's observable output.
    pub fn admission_sequence(&self) -> Vec<String> {
        self.admissions().into_iter().map(|a| a.case).collect()
    }

    /// Check: admissions landing on one tick come out in non-increasing
    /// priority — a lower-priority case is never admitted ahead of a
    /// higher-priority one waiting at the same tick.  `priorities` maps
    /// case labels to their submitted priority; unlisted cases default
    /// to 0.  (When every case is submitted up front and none is
    /// refused, same-tick discipline extends to the whole sequence,
    /// since the whole queue is visible to the policy at every pick.)
    pub fn check_admission_priority(
        &self,
        priorities: &BTreeMap<String, i64>,
    ) -> Result<(), TraceViolation> {
        self.check_admission_order(|a| {
            let p = priorities.get(&a.case).copied().unwrap_or(0);
            // Negate so "later must not sort strictly smaller" means
            // "later must not have strictly higher priority".
            (-p, format!("priority={p}"))
        })
    }

    /// Check: admissions landing on one tick come out in earliest-
    /// deadline-first order.  `deadlines` maps case labels to their
    /// deadline tick; unlisted cases have no deadline and sort last.
    pub fn check_admission_deadlines(
        &self,
        deadlines: &BTreeMap<String, u64>,
    ) -> Result<(), TraceViolation> {
        self.check_admission_order(|a| {
            let d = deadlines.get(&a.case).copied();
            (
                d.unwrap_or(u64::MAX),
                match d {
                    Some(d) => format!("deadline={d}"),
                    None => "deadline=none".to_string(),
                },
            )
        })
    }

    /// Shared walk for the policy-discipline checks: `key` extracts a
    /// sort key (smaller admits first) and its rendering; any same-tick
    /// pair admitted in strictly descending-urgency order violates.
    fn check_admission_order<K: Ord>(
        &self,
        mut key: impl FnMut(&AdmissionRecord) -> (K, String),
    ) -> Result<(), TraceViolation> {
        let admissions = self.admissions();
        for pair in admissions.windows(2) {
            let (earlier, later) = (&pair[0], &pair[1]);
            if earlier.tick != later.tick {
                continue;
            }
            let (ek, edesc) = key(earlier);
            let (lk, ldesc) = key(later);
            if lk < ek {
                return Err(TraceViolation::AdmissionOrderViolated {
                    earlier: earlier.case.clone(),
                    later: later.case.clone(),
                    tick: earlier.tick,
                    detail: format!(
                        "'{}' has {}, '{}' has {}",
                        earlier.case, edesc, later.case, ldesc
                    ),
                });
            }
        }
        Ok(())
    }

    /// Number of `plan.cache_hit` events — planning requests served
    /// from the shared plan cache without a GP run.
    pub fn plan_cache_hits(&self) -> usize {
        self.count(|e| matches!(e, TraceEvent::PlanCacheHit { .. }))
    }

    /// Number of actual GP runs observed.
    ///
    /// With a plan cache installed, every real run announces itself with
    /// a `plan.cache_miss`, so runs are counted by misses (a fully warm
    /// trace with hits only correctly counts zero).  Without any cache
    /// events, a run is identified by its generation-0 `plan.generation`
    /// event instead — sound there because only real runs emit
    /// generation history when no cache is in play.
    pub fn plan_runs(&self) -> usize {
        let has_cache_events = self.records.iter().any(|r| r.event.plan_key().is_some());
        if has_cache_events {
            self.count(|e| matches!(e, TraceEvent::PlanCacheMiss { .. }))
        } else {
            self.count(|e| matches!(e, TraceEvent::PlanGeneration { generation: 0, .. }))
        }
    }

    /// Check: no content-addressed plan key ran GP more than once (each
    /// key may miss the cache at most once; all later same-key requests
    /// must hit).  The first such violation [`TraceQuery::check_all`]
    /// reports.
    pub fn check_plans_at_most_once_per_key(&self) -> Result<(), TraceViolation> {
        self.first_of(|v| matches!(v, TraceViolation::DuplicatePlanRun { .. }))
    }

    /// The first violation of one kind that [`TraceQuery::check_all`]
    /// reports (no capacities: only double booking reads them).
    fn first_of(&self, kind: fn(&TraceViolation) -> bool) -> Result<(), TraceViolation> {
        let violations = self.check_all(&BTreeMap::new()).err().unwrap_or_default();
        violations.into_iter().find(kind).map_or(Ok(()), Err)
    }

    /// Every whole-trace invariant in one walk over the log, keeping
    /// each invariant's first violation.
    ///
    /// Completions and breakers belong to one enactment, so double
    /// dispatch, breaker discipline and dispatch-while-open (no dispatch
    /// to a container between its `breaker.opened` and the next
    /// `half_open` / `closed`) hold per `case:<label>/` source scope;
    /// records outside any case scope form one scope of their own.  Over
    /// the whole log: drops resolved (no `RequestAnswered` is wrong, and
    /// each `MessageDropped` is followed by a timeout, a `MessageSent`
    /// retry or a correct answer), partition discipline (no heal without
    /// an open partition of the pair, and none left open once the trace
    /// reaches its heal tick), plans at most once per key, and no double
    /// booking (`slot.reserved` holders within `capacities`, unlisted
    /// containers holding one slot).  Violations come scope by scope in
    /// label order, then drops, partitions, plans and double booking.
    pub fn check_all(
        &self,
        capacities: &BTreeMap<String, usize>,
    ) -> Result<(), Vec<TraceViolation>> {
        let mut walk = Walk::default();
        for r in &self.records {
            walk.feed(r, capacities);
        }
        let violations = walk.finish();
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

/// What [`TraceQuery::check_all`]'s walk keeps for one case scope.
#[derive(Default)]
struct ScopeState<'a> {
    /// First completion seq per activity since the last loop back edge.
    completed: BTreeMap<&'a str, u64>,
    /// `Merge` nodes fired so far: a second firing is a back edge.
    entered: BTreeSet<&'a str>,
    /// Each container's breaker state (`"open"`, `"half_open"`,
    /// `"closed"`) and the seq of the event that set it.
    breakers: BTreeMap<&'a str, (&'static str, u64)>,
    double_dispatch: Option<TraceViolation>,
    breaker_walk: Option<TraceViolation>,
    dispatch_while_open: Option<TraceViolation>,
}

impl<'a> ScopeState<'a> {
    /// Move `container`'s breaker to `to`, keeping the first illegal move.
    fn breaker(&mut self, container: &'a str, to: &'static str, seq: u64) {
        let (from, _) = self
            .breakers
            .insert(container, (to, seq))
            .unwrap_or(("closed", 0));
        let legal = matches!(
            (from, to),
            ("closed" | "half_open", "open") | ("open", "half_open") | ("half_open", "closed")
        );
        if !legal {
            self.breaker_walk
                .get_or_insert_with(|| TraceViolation::IllegalBreakerTransition {
                    container: container.to_string(),
                    from: from.to_string(),
                    to: to.to_string(),
                    seq,
                });
        }
    }
}

/// The state of [`TraceQuery::check_all`]'s one walk: per-scope state
/// plus the whole-log invariants', each keeping its first violation.
#[derive(Default)]
struct Walk<'a> {
    scopes: BTreeMap<&'a str, ScopeState<'a>>,
    wrong_answer: Option<TraceViolation>,
    /// The first drop since the last record that resolves drops.
    pending_drop: Option<TraceViolation>,
    /// The latest tick the trace has reached.
    reached: u64,
    /// Open partitions by sorted node pair → (opening seq, heal tick).
    partitions: BTreeMap<(&'a str, &'a str), (u64, u64)>,
    stray_heal: Option<TraceViolation>,
    misses: BTreeMap<&'a str, Vec<u64>>,
    /// Cases holding a reservation, per container.
    holds: BTreeMap<&'a str, Vec<&'a str>>,
    double_booking: Option<TraceViolation>,
}

impl<'a> Walk<'a> {
    fn scope(&mut self, r: &'a TraceRecord) -> &mut ScopeState<'a> {
        let label = r
            .source
            .strip_prefix("case:")
            .and_then(|rest| rest.split_once('/'))
            .map_or("", |(label, _)| label);
        self.scopes.entry(label).or_default()
    }

    fn feed(&mut self, r: &'a TraceRecord, capacities: &BTreeMap<String, usize>) {
        let pair = |a: &'a str, b: &'a str| if a <= b { (a, b) } else { (b, a) };
        self.reached = self.reached.max(r.tick);
        match &r.event {
            TraceEvent::ActivityCompleted { activity, .. } => {
                self.scope(r).completed.entry(activity).or_insert(r.seq);
            }
            TraceEvent::TransitionFired { kind, node } if kind == "Merge" => {
                let scope = self.scope(r);
                if !scope.entered.insert(node) {
                    scope.completed.clear();
                }
            }
            TraceEvent::ActivityDispatched {
                activity,
                container,
                ..
            } => {
                let scope = self.scope(r);
                if let Some(&completed_seq) = scope.completed.get(activity.as_str()) {
                    scope
                        .double_dispatch
                        .get_or_insert_with(|| TraceViolation::DoubleDispatch {
                            activity: activity.clone(),
                            completed_seq,
                            redispatched_seq: r.seq,
                        });
                }
                if let Some(&("open", opened_seq)) = scope.breakers.get(container.as_str()) {
                    scope.dispatch_while_open.get_or_insert_with(|| {
                        TraceViolation::DispatchWhileOpen {
                            container: container.clone(),
                            opened_seq,
                            dispatched_seq: r.seq,
                        }
                    });
                }
            }
            TraceEvent::BreakerOpened { container, .. } => {
                self.scope(r).breaker(container, "open", r.seq)
            }
            TraceEvent::BreakerHalfOpen { container } => {
                self.scope(r).breaker(container, "half_open", r.seq)
            }
            TraceEvent::BreakerClosed { container } => {
                self.scope(r).breaker(container, "closed", r.seq)
            }
            TraceEvent::RequestAnswered {
                agent,
                correct: false,
            } => {
                self.wrong_answer
                    .get_or_insert_with(|| TraceViolation::WrongAnswer {
                        agent: agent.clone(),
                        seq: r.seq,
                    });
            }
            TraceEvent::MessageDropped { id, .. } => {
                self.pending_drop
                    .get_or_insert(TraceViolation::UnresolvedDrop {
                        message_id: *id,
                        dropped_seq: r.seq,
                    });
            }
            TraceEvent::RequestTimedOut { .. }
            | TraceEvent::MessageSent { .. }
            | TraceEvent::RequestAnswered { .. } => self.pending_drop = None,
            TraceEvent::TickStarted { tick } => self.reached = self.reached.max(*tick),
            TraceEvent::PartitionStarted { a, b, heal_tick } => {
                self.partitions.insert(pair(a, b), (r.seq, *heal_tick));
            }
            TraceEvent::PartitionHealed { a, b } => {
                let was_open = self.partitions.remove(&pair(a, b)).is_some();
                if !was_open {
                    self.stray_heal
                        .get_or_insert_with(|| TraceViolation::HealWithoutPartition {
                            a: a.clone(),
                            b: b.clone(),
                            seq: r.seq,
                        });
                }
            }
            TraceEvent::PlanCacheMiss { key } => self.misses.entry(key).or_default().push(r.seq),
            TraceEvent::SlotReserved { case, container } => {
                let holders = self.holds.entry(container).or_default();
                holders.push(case);
                let capacity = capacities.get(container.as_str()).copied().unwrap_or(1);
                if holders.len() > capacity {
                    self.double_booking
                        .get_or_insert_with(|| TraceViolation::DoubleBooking {
                            container: container.clone(),
                            holders: holders.iter().map(|h| h.to_string()).collect(),
                            capacity,
                            seq: r.seq,
                        });
                }
            }
            TraceEvent::SlotReleased { case, container } => {
                if let Some(holders) = self.holds.get_mut(container.as_str()) {
                    if let Some(pos) = holders.iter().position(|h| h == case) {
                        holders.remove(pos);
                    }
                }
            }
            _ => {}
        }
    }

    fn finish(self) -> Vec<TraceViolation> {
        let mut violations: Vec<TraceViolation> = (self.scopes.into_values())
            .flat_map(|s| [s.double_dispatch, s.breaker_walk, s.dispatch_while_open])
            .flatten()
            .collect();
        let reached = self.reached;
        let unhealed = self
            .partitions
            .into_iter()
            .find(|(_, (_, heal_tick))| *heal_tick <= reached)
            .map(
                |((a, b), (opened_seq, _))| TraceViolation::UnhealedPartition {
                    a: a.to_string(),
                    b: b.to_string(),
                    opened_seq,
                },
            );
        let duplicate_run = self
            .misses
            .into_iter()
            .find(|(_, seqs)| seqs.len() > 1)
            .map(|(key, miss_seqs)| TraceViolation::DuplicatePlanRun {
                key: key.to_string(),
                miss_seqs,
            });
        let whole_log = [
            self.wrong_answer.or(self.pending_drop),
            self.stray_heal.or(unhealed),
            duplicate_run,
            self.double_booking,
        ];
        violations.extend(whole_log.into_iter().flatten());
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `check_all` reports, unlisted containers holding one slot.
    fn violations(q: &TraceQuery) -> Vec<TraceViolation> {
        q.check_all(&BTreeMap::new()).err().unwrap_or_default()
    }

    fn rec(seq: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq,
            tick: 0,
            at_s: 0.0,
            source: "test".into(),
            event,
        }
    }

    fn dispatched(activity: &str) -> TraceEvent {
        TraceEvent::ActivityDispatched {
            activity: activity.into(),
            service: "svc".into(),
            container: "c".into(),
            attempt: 0,
        }
    }

    fn completed(activity: &str) -> TraceEvent {
        TraceEvent::ActivityCompleted {
            activity: activity.into(),
            service: "svc".into(),
            container: "c".into(),
            duration_s: 1.0,
            cost: 1.0,
        }
    }

    fn failed(activity: &str, attempt: usize) -> TraceEvent {
        TraceEvent::ActivityFailed {
            activity: activity.into(),
            service: "svc".into(),
            container: "c".into(),
            attempt,
        }
    }

    #[test]
    fn span_covers_dispatch_to_completion() {
        let q = TraceQuery::new(vec![
            rec(0, dispatched("A1")),
            rec(1, failed("A1", 0)),
            rec(2, completed("A1")),
        ]);
        assert_eq!(q.span("A1").unwrap(), 0..3);
        assert!(matches!(
            q.span("A2"),
            Err(TraceViolation::MissingSpan { .. })
        ));
    }

    #[test]
    fn double_dispatch_is_caught() {
        let ok = TraceQuery::new(vec![
            rec(0, dispatched("A1")),
            rec(1, failed("A1", 0)),
            rec(2, dispatched("A1")), // retry before completion: fine
            rec(3, completed("A1")),
        ]);
        assert_eq!(ok.check_no_double_dispatch(), Ok(()));

        let bad = TraceQuery::new(vec![
            rec(0, dispatched("A1")),
            rec(1, completed("A1")),
            rec(2, dispatched("A1")), // after completion: double dispatch
        ]);
        match bad.check_no_double_dispatch() {
            Err(TraceViolation::DoubleDispatch {
                activity,
                completed_seq,
                redispatched_seq,
            }) => {
                assert_eq!(activity, "A1");
                assert_eq!((completed_seq, redispatched_seq), (1, 2));
            }
            other => panic!("expected DoubleDispatch, got {other:?}"),
        }
    }

    #[test]
    fn a_loop_back_edge_lets_its_body_run_again() {
        let merge = |node: &str| TraceEvent::TransitionFired {
            kind: "Merge".into(),
            node: node.into(),
        };
        let looped = TraceQuery::new(vec![
            rec(0, merge("loop")), // loop entry
            rec(1, dispatched("A1")),
            rec(2, completed("A1")),
            rec(3, merge("loop")), // back edge: the body runs again
            rec(4, dispatched("A1")),
        ]);
        assert_eq!(looped.check_no_double_dispatch(), Ok(()));
        // A merge firing for the first time (a CHOICE's) resets nothing.
        let chosen = TraceQuery::new(vec![
            rec(0, completed("A1")),
            rec(1, merge("choice-end")),
            rec(2, dispatched("A1")),
        ]);
        assert!(chosen.check_no_double_dispatch().is_err());
    }

    #[test]
    fn a_partition_may_stay_open_only_until_its_heal_tick() {
        let cut = TraceEvent::PartitionStarted {
            a: "n1".into(),
            b: "n2".into(),
            heal_tick: 6,
        };
        let tick = |tick| TraceEvent::TickStarted { tick };
        // The run ended inside the window: nothing to heal yet.
        let short = TraceQuery::new(vec![rec(0, tick(2)), rec(1, cut.clone()), rec(2, tick(5))]);
        assert_eq!(violations(&short), []);
        // The run reached the heal tick and the window is still open.
        let late = TraceQuery::new(vec![rec(0, cut), rec(1, tick(6))]);
        assert!(matches!(
            violations(&late)[..],
            [TraceViolation::UnhealedPartition { opened_seq: 0, .. }]
        ));
        let stray = TraceQuery::new(vec![rec(
            0,
            TraceEvent::PartitionHealed {
                a: "n2".into(),
                b: "n1".into(),
            },
        )]);
        assert!(matches!(
            violations(&stray)[..],
            [TraceViolation::HealWithoutPartition { seq: 0, .. }]
        ));
    }

    #[test]
    fn check_all_scopes_enactments_per_case_and_collects_every_violation() {
        let from = |source: &str, seq, event| TraceRecord {
            source: source.into(),
            ..rec(seq, event)
        };
        // Two cases run the same activity and each trips its own
        // breaker on the same container: legal within either scope, and
        // the single-invariant views scope by case too.
        let fleet = TraceQuery::new(vec![
            from("case:a/enactor", 0, dispatched("A1")),
            from("case:a/enactor", 1, completed("A1")),
            from("case:b/enactor", 2, dispatched("A1")),
            from("case:a/recovery", 3, opened("c1")),
            from("case:b/recovery", 4, opened("c1")),
        ]);
        assert_eq!(fleet.check_no_double_dispatch(), Ok(()));
        assert_eq!(fleet.check_all(&BTreeMap::new()), Ok(()));

        // One case breaks two rules and the fleet double-books: all
        // three come back, scoped checks first.
        let bad = TraceQuery::new(vec![
            from("case:a/enactor", 0, completed("A1")),
            from("case:a/enactor", 1, dispatched("A1")),
            from("case:a/recovery", 2, half_open("c1")),
            from("case:a/enactor", 3, reserved("a", "c1")),
            from("case:b/enactor", 4, reserved("b", "c1")),
        ]);
        let violations = bad.check_all(&BTreeMap::new()).unwrap_err();
        assert!(matches!(
            violations[..],
            [
                TraceViolation::DoubleDispatch { .. },
                TraceViolation::IllegalBreakerTransition { .. },
                TraceViolation::DoubleBooking { .. },
            ]
        ));
    }

    #[test]
    fn unresolved_drop_and_wrong_answer_are_caught() {
        let dropped = TraceEvent::MessageDropped {
            id: 5,
            sender: "a".into(),
            receiver: "b".into(),
        };
        let unresolved = TraceQuery::new(vec![rec(0, dropped.clone())]);
        assert!(matches!(
            violations(&unresolved)[..],
            [TraceViolation::UnresolvedDrop { message_id: 5, .. }]
        ));

        let resolved = TraceQuery::new(vec![
            rec(0, dropped),
            rec(1, TraceEvent::RequestTimedOut { agent: "b".into() }),
        ]);
        assert_eq!(violations(&resolved), []);

        let wrong = TraceQuery::new(vec![rec(
            0,
            TraceEvent::RequestAnswered {
                agent: "b".into(),
                correct: false,
            },
        )]);
        assert!(matches!(
            violations(&wrong)[..],
            [TraceViolation::WrongAnswer { .. }]
        ));
    }

    #[test]
    fn happens_before_orders_first_matches() {
        let q = TraceQuery::new(vec![rec(0, dispatched("A1")), rec(1, completed("A1"))]);
        assert_eq!(
            q.check_happens_before(
                "dispatch",
                |e| matches!(e, TraceEvent::ActivityDispatched { .. }),
                "completion",
                |e| matches!(e, TraceEvent::ActivityCompleted { .. }),
            ),
            Ok(())
        );
        assert!(q
            .check_happens_before(
                "completion",
                |e| matches!(e, TraceEvent::ActivityCompleted { .. }),
                "dispatch",
                |e| matches!(e, TraceEvent::ActivityDispatched { .. }),
            )
            .is_err());
        // Missing events also violate the ordering.
        assert!(q
            .check_happens_before(
                "dispatch",
                |e| matches!(e, TraceEvent::ActivityDispatched { .. }),
                "replan",
                |e| matches!(e, TraceEvent::ReplanTriggered { .. }),
            )
            .is_err());
    }

    fn opened(container: &str) -> TraceEvent {
        TraceEvent::BreakerOpened {
            container: container.into(),
            consecutive_failures: 3,
            until_tick: 100,
        }
    }

    fn half_open(container: &str) -> TraceEvent {
        TraceEvent::BreakerHalfOpen {
            container: container.into(),
        }
    }

    fn closed(container: &str) -> TraceEvent {
        TraceEvent::BreakerClosed {
            container: container.into(),
        }
    }

    fn dispatched_on(activity: &str, container: &str) -> TraceEvent {
        TraceEvent::ActivityDispatched {
            activity: activity.into(),
            service: "svc".into(),
            container: container.into(),
            attempt: 0,
        }
    }

    #[test]
    fn breaker_discipline_accepts_legal_walks() {
        let q = TraceQuery::new(vec![
            rec(0, opened("c1")),
            rec(1, half_open("c1")),
            rec(2, opened("c1")), // failed probe reopens
            rec(3, half_open("c1")),
            rec(4, closed("c1")),
            rec(5, opened("c2")), // independent containers
        ]);
        assert_eq!(q.check_breaker_discipline(), Ok(()));
    }

    #[test]
    fn breaker_discipline_rejects_skipped_states() {
        // closed straight from open (no half-open probe) is illegal.
        let bad = TraceQuery::new(vec![rec(0, opened("c1")), rec(1, closed("c1"))]);
        match bad.check_breaker_discipline() {
            Err(TraceViolation::IllegalBreakerTransition {
                container,
                from,
                to,
                seq,
            }) => {
                assert_eq!(
                    (container.as_str(), from.as_str(), to.as_str()),
                    ("c1", "open", "closed")
                );
                assert_eq!(seq, 1);
            }
            other => panic!("expected IllegalBreakerTransition, got {other:?}"),
        }
        // half_open without a preceding open is illegal too.
        let bad = TraceQuery::new(vec![rec(0, half_open("c1"))]);
        assert!(bad.check_breaker_discipline().is_err());
    }

    #[test]
    fn dispatch_while_open_is_caught_and_cleared_by_readmission() {
        let bad = TraceQuery::new(vec![
            rec(0, opened("c1")),
            rec(1, dispatched_on("A1", "c1")),
        ]);
        assert!(matches!(
            violations(&bad)[..],
            [TraceViolation::DispatchWhileOpen {
                opened_seq: 0,
                dispatched_seq: 1,
                ..
            }]
        ));
        let ok = TraceQuery::new(vec![
            rec(0, opened("c1")),
            rec(1, dispatched_on("A1", "c2")), // other containers unaffected
            rec(2, half_open("c1")),
            rec(3, dispatched_on("A1", "c1")), // probe after readmission
        ]);
        assert_eq!(violations(&ok), []);
    }

    #[test]
    fn retry_schedule_and_lease_expiry_counts() {
        let q = TraceQuery::new(vec![
            rec(
                0,
                TraceEvent::RetryScheduled {
                    activity: "A1".into(),
                    service: "svc".into(),
                    container: "c1".into(),
                    attempt: 1,
                    backoff_ticks: 2,
                    resume_tick: 5,
                },
            ),
            rec(
                1,
                TraceEvent::LeaseExpired {
                    activity: "A1".into(),
                    container: "c1".into(),
                    lease_ticks: 30,
                    took_ticks: 90,
                },
            ),
            rec(
                2,
                TraceEvent::RetryScheduled {
                    activity: "A1".into(),
                    service: "svc".into(),
                    container: "c1".into(),
                    attempt: 2,
                    backoff_ticks: 4,
                    resume_tick: 99,
                },
            ),
        ]);
        assert_eq!(q.retry_schedule_count("A1"), 2);
        assert_eq!(q.retry_schedule_count("A2"), 0);
        assert_eq!(q.lease_expiry_count("A1"), 1);
    }

    fn reserved(case: &str, container: &str) -> TraceEvent {
        TraceEvent::SlotReserved {
            case: case.into(),
            container: container.into(),
        }
    }

    fn released(case: &str, container: &str) -> TraceEvent {
        TraceEvent::SlotReleased {
            case: case.into(),
            container: container.into(),
        }
    }

    #[test]
    fn double_booking_is_caught_against_capacities() {
        // One slot on c1 (the default): serialized holds are fine…
        let ok = TraceQuery::new(vec![
            rec(0, reserved("case-0", "c1")),
            rec(1, released("case-0", "c1")),
            rec(2, reserved("case-1", "c1")),
            rec(3, released("case-1", "c1")),
        ]);
        assert_eq!(violations(&ok), []);

        // …but two live holders on a single-slot container are not.
        let bad = TraceQuery::new(vec![
            rec(0, reserved("case-0", "c1")),
            rec(1, reserved("case-1", "c1")),
        ]);
        match &violations(&bad)[..] {
            [TraceViolation::DoubleBooking {
                container,
                holders,
                capacity,
                seq,
            }] => {
                assert_eq!(container, "c1");
                assert_eq!(holders, &["case-0".to_string(), "case-1".to_string()]);
                assert_eq!((*capacity, *seq), (1, 1));
            }
            other => panic!("expected DoubleBooking, got {other:?}"),
        }

        // A declared two-slot container admits both holders.
        let caps = BTreeMap::from([("c1".to_string(), 2)]);
        assert_eq!(bad.check_all(&caps), Ok(()));
        let msg = violations(&bad)[0].to_string();
        assert!(msg.contains("double booking"), "{msg}");
    }

    fn admitted(case: &str, tick: u64, reason: Option<&str>) -> TraceEvent {
        TraceEvent::CaseAdmitted {
            case: case.into(),
            tick,
            reason: reason.map(str::to_string),
        }
    }

    #[test]
    fn admissions_flatten_in_trace_order() {
        let q = TraceQuery::new(vec![
            rec(0, admitted("a", 0, None)),
            rec(1, dispatched("A1")),
            rec(2, admitted("b", 1, Some("priority=3"))),
        ]);
        let adm = q.admissions();
        assert_eq!(adm.len(), 2);
        assert_eq!(adm[0].case, "a");
        assert_eq!(adm[0].reason, None);
        assert_eq!(adm[1].tick, 1);
        assert_eq!(adm[1].reason.as_deref(), Some("priority=3"));
        assert_eq!(q.admission_sequence(), vec!["a".to_string(), "b".into()]);
    }

    #[test]
    fn admission_priority_discipline_is_same_tick_only() {
        let priorities = BTreeMap::from([("hi".to_string(), 5i64), ("lo".to_string(), 1)]);
        // Same tick, high first: fine.
        let ok = TraceQuery::new(vec![
            rec(0, admitted("hi", 0, None)),
            rec(1, admitted("lo", 0, None)),
        ]);
        assert_eq!(ok.check_admission_priority(&priorities), Ok(()));
        // Same tick, low first: violation.
        let bad = TraceQuery::new(vec![
            rec(0, admitted("lo", 0, None)),
            rec(1, admitted("hi", 0, None)),
        ]);
        match bad.check_admission_priority(&priorities) {
            Err(TraceViolation::AdmissionOrderViolated { earlier, later, .. }) => {
                assert_eq!((earlier.as_str(), later.as_str()), ("lo", "hi"));
            }
            other => panic!("expected AdmissionOrderViolated, got {other:?}"),
        }
        // Different ticks: a late-arriving high-priority case admitting
        // after an earlier low one is legal (it wasn't waiting yet).
        let staggered = TraceQuery::new(vec![
            rec(0, admitted("lo", 0, None)),
            rec(1, admitted("hi", 1, None)),
        ]);
        assert_eq!(staggered.check_admission_priority(&priorities), Ok(()));
    }

    #[test]
    fn admission_deadline_discipline_is_edf_with_none_last() {
        let deadlines = BTreeMap::from([("soon".to_string(), 10u64), ("late".to_string(), 90)]);
        let ok = TraceQuery::new(vec![
            rec(0, admitted("soon", 0, None)),
            rec(1, admitted("late", 0, None)),
            rec(2, admitted("never", 0, None)), // no deadline sorts last
        ]);
        assert_eq!(ok.check_admission_deadlines(&deadlines), Ok(()));
        let bad = TraceQuery::new(vec![
            rec(0, admitted("never", 0, None)),
            rec(1, admitted("soon", 0, None)),
        ]);
        let msg = bad
            .check_admission_deadlines(&deadlines)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("against the admission policy"), "{msg}");
    }

    #[test]
    fn retry_count_counts_failures() {
        let q = TraceQuery::new(vec![
            rec(0, dispatched("A1")),
            rec(1, failed("A1", 0)),
            rec(2, dispatched("A1")),
            rec(3, failed("A1", 1)),
            rec(4, dispatched("A1")),
            rec(5, completed("A1")),
        ]);
        assert_eq!(q.retry_count("A1"), 2);
        assert_eq!(q.check_retry_count("A1", 2), Ok(()));
        assert!(matches!(
            q.check_retry_count("A1", 1),
            Err(TraceViolation::RetryCountMismatch {
                expected: 1,
                observed: 2,
                ..
            })
        ));
    }

    fn generation0() -> TraceEvent {
        TraceEvent::PlanGeneration {
            generation: 0,
            best_overall: 1.0,
            mean_overall: 0.5,
            mean_size: 3.0,
        }
    }

    #[test]
    fn plan_cache_counters_and_run_counting() {
        // With cache events: runs are counted by misses, even when
        // replayed generation-0 events accompany every hit.
        let q = TraceQuery::new(vec![
            rec(0, TraceEvent::PlanCacheMiss { key: "k1".into() }),
            rec(1, generation0()),
            rec(2, TraceEvent::PlanCacheHit { key: "k1".into() }),
            rec(3, generation0()),
        ]);
        assert_eq!(q.plan_cache_hits(), 1);
        assert_eq!(q.plan_runs(), 1);
        assert_eq!(q.check_plans_at_most_once_per_key(), Ok(()));

        // Fully warm trace: hits only, zero actual runs.
        let warm = TraceQuery::new(vec![
            rec(0, TraceEvent::PlanCacheHit { key: "k1".into() }),
            rec(1, generation0()),
        ]);
        assert_eq!(warm.plan_runs(), 0);

        // No cache events: fall back to generation-0 counting.
        let uncached = TraceQuery::new(vec![rec(0, generation0()), rec(1, generation0())]);
        assert_eq!(uncached.plan_runs(), 2);
        assert_eq!(uncached.plan_cache_hits(), 0);
        assert_eq!(uncached.check_plans_at_most_once_per_key(), Ok(()));
    }

    #[test]
    fn duplicate_plan_runs_are_flagged_per_key() {
        let q = TraceQuery::new(vec![
            rec(0, TraceEvent::PlanCacheMiss { key: "k1".into() }),
            rec(1, TraceEvent::PlanCacheMiss { key: "k2".into() }),
            rec(2, TraceEvent::PlanCacheMiss { key: "k1".into() }),
        ]);
        assert_eq!(q.plan_runs(), 3);
        match q.check_plans_at_most_once_per_key() {
            Err(TraceViolation::DuplicatePlanRun { key, miss_seqs }) => {
                assert_eq!(key, "k1");
                assert_eq!(miss_seqs, vec![0, 2]);
            }
            other => panic!("expected DuplicatePlanRun, got {other:?}"),
        }
    }
}
