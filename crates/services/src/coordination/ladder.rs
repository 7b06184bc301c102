//! The dispatch ladder: how a [`CaseFiber`] turns one ready activity
//! into an execution, a capacity block, or the re-planning escalation.
//!
//! There is one loop, [`CaseFiber::run_activity`], and every fiber runs
//! it.  Each rung is active exactly when its part of the fiber's
//! [`RecoveryPolicy`](gridflow_recovery::RecoveryPolicy) is configured
//! and is a no-op otherwise:
//!
//! | rung | switched on by |
//! |---|---|
//! | monitoring probes feed the breakers; open breakers filter the candidates | `breaker: Some(_)` |
//! | retry the same candidate after a backoff | `retry.max_attempts > 1` |
//! | grant a lease; an execution that outlives it is a failure | `lease: Some(_)` |
//! | outcomes feed the breakers; an opened one abandons its candidate | `breaker: Some(_)` |
//! | fail over to the next candidate, then (`Err`) re-plan | always |
//!
//! So `RecoveryPolicy::disabled()` is the paper's §3.3 sequence and
//! nothing more: one try per ranked container, then re-plan.
//!
//! A step copies nothing it does not use.  The monitoring feed reads
//! each container's `up` flag in place; the ranking arrives from
//! [`rank_candidates`] as positions into `topology.containers`, every
//! one passed through the breaker filter in rank order; and a container
//! id is cloned only for a candidate the loop reaches.
//!
//! `attempt`, carried by `activity.dispatched`, `activity.failed` and
//! `retry.scheduled`, counts the *candidate slots passed or tried in
//! this step*: it starts at 0 and grows by one for every candidate that
//! was reserved away and for every dispatch, retries included.

use super::{ActivityExecution, CaseFiber, FiberStatus};
use crate::error::{Result, ServiceError};
use crate::matchmaking::{rank_candidates, MatchRequest};
use crate::monitoring::MonitoringService;
use crate::world::GridWorld;
use gridflow_recovery::{Admission, RecoveryManager};
use gridflow_telemetry::{Label, TraceEvent};
use std::ops::ControlFlow;

/// What one pass over the ladder came to (the `Err` of the surrounding
/// `Result` still means *every candidate failed* — the re-planning
/// escalation).
pub(super) enum ActivityOutcome {
    /// The activity executed and its outputs were applied.
    Completed,
    /// No candidate was even dispatched: every matched container was
    /// already reserved by another case this tick.
    Blocked {
        /// The candidate containers that were all reserved away, in
        /// rank order — the contention set a blocked re-step checks
        /// cheaply before re-ranking.
        taken: Vec<String>,
    },
}

/// Cached context from a step that returned [`FiberStatus::Blocked`].
///
/// While a fiber is blocked on reserved-away capacity nothing about its
/// own state changes — the ATN state, data state, and graph are exactly
/// as the blocking step left them — so the next step would choose the
/// same activity.  When the candidate ranking provably could not have
/// changed either and every ranked candidate is still fully booked, that
/// step skips the matchmake too and just reports the block again.  Every
/// observable emission is preserved: a still-blocked re-step produces
/// exactly the one `CaseBlocked` event the full path would.
///
/// Kept only when the policy configures no breaker: the monitoring feed
/// and the admission filter are the only rungs that change state (and
/// may emit trace events) on a step that dispatches nothing, so with
/// them on a blocked re-step must walk the whole ladder again.  Nor is
/// it in a [`FiberSlim`](super::FiberSlim): a restored fiber's first
/// step walks the ladder, blocks on the same candidates and caches them.
pub(super) struct PendingDispatch {
    /// The service the blocked activity resolves to.
    pub(super) service: Label,
    /// [`GridWorld::generation`] at the blocking step: candidate
    /// rankings are only reused while the generation is unchanged.
    generation: u64,
    /// The reserved-away candidate set, in rank order.
    taken: Vec<String>,
}

impl CaseFiber {
    /// Contention-only fast path: while the world's matchmaking
    /// generation is unchanged the blocking step's candidate ranking
    /// still stands, and if every ranked candidate is still fully
    /// booked the outcome is another block — one `CaseBlocked` event,
    /// nothing else, exactly like the full path.  `None` (and the cache
    /// cleared) when the step must walk the ladder.
    pub(super) fn still_blocked(&mut self, world: &GridWorld) -> Option<FiberStatus> {
        let pending = self.pending.take()?;
        let unchanged = world.reservations_enabled()
            && world.generation() == pending.generation
            && !pending.taken.is_empty()
            && pending.taken.iter().all(|c| world.free_slots(c) == 0);
        if !unchanged {
            return None;
        }
        let service = pending.service.clone();
        self.pending = Some(pending);
        Some(self.announce_blocked(service))
    }

    /// Record a capacity block: cache the dispatch context for the next
    /// step's contention check (with no breaker configured), announce
    /// `CaseBlocked`, and report [`FiberStatus::Blocked`].
    pub(super) fn note_blocked(
        &mut self,
        world: &GridWorld,
        service: Label,
        taken: Vec<String>,
    ) -> FiberStatus {
        if self.recovery.policy().breaker.is_none() {
            self.pending = Some(PendingDispatch {
                service: service.clone(),
                generation: world.generation(),
                taken,
            });
        }
        self.announce_blocked(service)
    }

    fn announce_blocked(&mut self, service: Label) -> FiberStatus {
        self.trace.emit(
            "enactor",
            TraceEvent::CaseBlocked {
                case: self.label.clone(),
                service: service.clone(),
            },
        );
        FiberStatus::Blocked { service }
    }

    /// Reserve a tick slot on `container` under the world's reservation
    /// protocol.  Always succeeds (and emits nothing) while the
    /// protocol is off, keeping single-case traces byte-identical.
    fn reserve(&mut self, world: &mut GridWorld, container: &str) -> bool {
        if !world.reservations_enabled() {
            return true;
        }
        if world.try_reserve(&self.label, container) {
            self.trace.emit(
                "enactor",
                TraceEvent::SlotReserved {
                    case: self.label.clone(),
                    container: container.to_owned(),
                },
            );
            true
        } else {
            false
        }
    }

    /// Try to execute one activity, applying outputs on success: the
    /// ladder of the module docs.  For each admitted candidate in rank
    /// order, up to `RetryPolicy::max_attempts` tries with seeded
    /// backoff between them; a candidate whose breaker opens mid-rung
    /// is abandoned (failover); a candidate admitted half-open gets
    /// exactly one probe try.  An execution that outlives its lease
    /// counts as a failure even though the world completed it — slow is
    /// the failure mode leases exist to catch.  Candidates whose
    /// reservation fails are skipped without dispatching; if *no*
    /// candidate could be dispatched and at least one was reserved
    /// away, the outcome is [`ActivityOutcome::Blocked`] — contention
    /// is not failure.
    pub(super) fn run_activity(
        &mut self,
        world: &mut GridWorld,
        service: &str,
        activity_id: &str,
    ) -> Result<ActivityOutcome> {
        // Monitoring feedback: let live probes open/half-open the
        // circuit breakers before matchmaking sees the candidates.
        MonitoringService.feed_recovery(world, &mut self.recovery);
        let candidates = admitted(world, service, &mut self.recovery)?;
        let tries = self.recovery.policy().retry.max_attempts.max(1);
        let mut attempt = 0usize;
        let mut dispatched = false;
        let mut taken: Vec<String> = Vec::new();
        for &pos in candidates.iter().take(self.config.max_candidates.max(1)) {
            let id = world.topology.containers[pos].id.clone();
            if !self.reserve(world, &id) {
                taken.push(id);
                attempt += 1;
                continue;
            }
            let container = id.as_str();
            for retry in 0..tries {
                let admission = self.recovery.admit(container);
                if admission == Admission::Reject {
                    // The breaker opened mid-rung: fail over.
                    break;
                }
                if retry > 0 {
                    // Backoff before the retry, in deterministic virtual
                    // ticks drawn from the seeded policy.
                    self.recovery
                        .schedule_retry(activity_id, service, container, attempt, retry);
                }
                self.recovery.grant_lease(activity_id, container);
                dispatched = true;
                self.trace.emit(
                    "enactor",
                    TraceEvent::ActivityDispatched {
                        activity: activity_id.to_owned(),
                        service: service.to_owned(),
                        container: container.to_owned(),
                        attempt,
                    },
                );
                match world.execute_service(service, container) {
                    Ok(record) => {
                        let took = self.recovery.note_execution_seconds(record.duration_s);
                        if !self.recovery.lease_expired(activity_id, container, took) {
                            self.recovery.record_success(container);
                            self.apply_success(world, service, activity_id, &record)?;
                            return Ok(ActivityOutcome::Completed);
                        }
                        // The work finished, but past its deadline: the
                        // coordinator already gave up on it.  The time
                        // and cost were still spent.
                        self.report.total_duration_s += record.duration_s;
                        self.report.total_cost += record.cost;
                        self.trace.advance_s(record.duration_s);
                    }
                    Err(_) => self.recovery.tick(1),
                }
                self.recovery.record_failure(container);
                self.report
                    .failed_attempts
                    .push((activity_id.to_owned(), container.to_owned()));
                self.trace.emit(
                    "enactor",
                    TraceEvent::ActivityFailed {
                        activity: activity_id.to_owned(),
                        service: service.to_owned(),
                        container: container.to_owned(),
                        attempt,
                    },
                );
                attempt += 1;
                // A half-open probe gets exactly one try.
                if admission == Admission::Probe {
                    break;
                }
            }
        }
        if !dispatched && !taken.is_empty() {
            return Ok(ActivityOutcome::Blocked { taken });
        }
        Err(ServiceError::ActivityFailed {
            activity: activity_id.to_owned(),
            service: service.to_owned(),
        })
    }

    /// Success bookkeeping: apply outputs, accrue totals, record the
    /// execution, advance the virtual clock, emit `ActivityCompleted`.
    fn apply_success(
        &mut self,
        world: &mut GridWorld,
        service: &str,
        activity_id: &str,
        record: &crate::ExecutionRecord,
    ) -> Result<()> {
        let produced = world.apply_outputs(service, &mut self.state)?;
        self.report.produced.extend(produced);
        self.report.total_duration_s += record.duration_s;
        self.report.total_cost += record.cost;
        self.report.executions.push(ActivityExecution {
            activity: activity_id.to_owned(),
            service: service.to_owned(),
            container: record.container.clone(),
            duration_s: record.duration_s,
            cost: record.cost,
        });
        // Advance the trace's virtual clock by the simulated execution
        // time, so `at_s` reads as cumulative virtual seconds.
        self.trace.advance_s(record.duration_s);
        self.trace.emit(
            "enactor",
            TraceEvent::ActivityCompleted {
                activity: activity_id.to_owned(),
                service: service.to_owned(),
                container: record.container.clone(),
                duration_s: record.duration_s,
                cost: record.cost,
            },
        );
        Ok(())
    }
}

/// The ranked candidates for `service` that their breakers admit, as
/// positions into `world.topology.containers`.  Every candidate passes
/// the filter, in rank order, before any is tried: an open breaker whose
/// cooldown has elapsed turns half-open here and is admitted as a probe,
/// so `breaker.half_open` events follow the ranking.  A quarantined
/// container is invisible to placement.  Unlike the ranking's own
/// "nothing qualifies" error, an all-quarantined result is `Ok(vec![])`:
/// the ladder treats it as "every candidate failed" and escalates.
fn admitted(
    world: &GridWorld,
    service: &str,
    recovery: &mut RecoveryManager,
) -> Result<Vec<usize>> {
    let mut admitted = Vec::new();
    rank_candidates(world, &MatchRequest::for_service(service), |c| {
        if recovery.is_admitted(&c.container) {
            admitted.push(c.container_pos);
        }
        ControlFlow::Continue(())
    })?;
    Ok(admitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matchmaking::matchmake;
    use crate::world::{OutputSpec, ServiceOffering};
    use gridflow_grid::GridTopology;
    use gridflow_recovery::{BreakerConfig, RecoveryPolicy};
    use gridflow_telemetry::{TraceHandle, TraceLog};

    /// `sites` generated containers, every one hosting `X`.
    fn world(sites: usize, seed: u64) -> GridWorld {
        let mut w = GridWorld::new(GridTopology::generate(sites, &["X".into()], seed));
        w.offer(ServiceOffering::new(
            "X",
            Vec::<String>::new(),
            vec![OutputSpec::plain("Out")],
        ));
        w
    }

    fn ids(w: &GridWorld, positions: &[usize]) -> Vec<String> {
        positions
            .iter()
            .map(|&p| w.topology.containers[p].id.clone())
            .collect()
    }

    /// The filter the ladder ran before it ranked by position: the owned
    /// ranking, then a `retain` over the breakers.
    fn cloning_filter(w: &GridWorld, recovery: &mut RecoveryManager) -> Result<Vec<String>> {
        let mut ranked = matchmake(w, &MatchRequest::for_service("X"))?;
        if recovery.policy().breaker.is_some() {
            ranked.retain(|m| recovery.is_admitted(&m.container));
        }
        Ok(ranked.into_iter().map(|m| m.container).collect())
    }

    #[test]
    fn quarantined_containers_are_filtered_from_matches() {
        let w = world(3, 1);
        let standard = || RecoveryManager::new(RecoveryPolicy::standard());
        let all = ids(&w, &admitted(&w, "X", &mut standard()).unwrap());
        assert_eq!(all.len(), 3);
        // Trip one breaker (threshold 3 under the standard policy).
        let out = all[1].clone();
        let mut recovery = standard();
        for _ in 0..3 {
            recovery.record_failure(&out);
        }
        let kept = ids(&w, &admitted(&w, "X", &mut recovery).unwrap());
        assert_eq!(kept.len(), 2);
        assert!(!kept.contains(&out));
        // Serve the cooldown: the filter itself moves the breaker to
        // half-open and readmits the container as a probe candidate.
        recovery.tick(1_000);
        assert_eq!(ids(&w, &admitted(&w, "X", &mut recovery).unwrap()), all);
        assert_eq!(recovery.admit(&out), Admission::Probe);
        // Quarantining everything yields an empty (not error) result.
        let mut all_out = standard();
        for c in &all {
            for _ in 0..3 {
                all_out.record_failure(c);
            }
        }
        assert!(admitted(&w, "X", &mut all_out).unwrap().is_empty());
    }

    #[test]
    fn the_admission_filter_emits_what_the_cloning_filter_did() {
        let policy = RecoveryPolicy {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                open_ticks: 10,
            }),
            ..RecoveryPolicy::standard()
        };
        let mut half_opened = 0;
        for seed in 0..16u64 {
            let mut w = world(10, seed);
            for i in (0..10).filter(|i| (i + seed) % 4 == 0) {
                let id = w.topology.containers[i as usize].id.clone();
                w.set_container_up(&id, false).unwrap();
            }
            // Breakers trip on a seeded subset at staggered clock
            // readings, so a pass finds some open, some past their
            // cooldown (half-open on admission) and some closed.
            let manager = |log: &TraceLog| {
                let mut m = RecoveryManager::with_trace_handle(
                    policy.clone(),
                    TraceHandle::from(log.clone()),
                );
                for (i, c) in w.topology.containers.iter().enumerate() {
                    if !(i as u64 * 7 + seed).is_multiple_of(3) {
                        m.record_failure(&c.id);
                        m.record_failure(&c.id);
                    }
                    m.tick(3);
                }
                m
            };
            let (old_log, new_log) = (TraceLog::new(), TraceLog::new());
            let (mut old, mut new) = (manager(&old_log), manager(&new_log));
            for _ in 0..4 {
                let expected = cloning_filter(&w, &mut old).ok();
                let got = admitted(&w, "X", &mut new).ok().map(|p| ids(&w, &p));
                assert_eq!(got, expected, "seed {seed}");
                assert_eq!(new.snapshot(), old.snapshot(), "seed {seed}");
                old.tick(4);
                new.tick(4);
            }
            assert_eq!(new_log.to_jsonl(), old_log.to_jsonl(), "seed {seed}");
            half_opened += new_log
                .records()
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::BreakerHalfOpen { .. }))
                .count();
        }
        assert!(
            half_opened > 16,
            "the sweep must exercise half-open admissions"
        );
    }
}
