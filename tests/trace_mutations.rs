//! Trace-mutation corpus for [`TraceQuery::check_all`].
//!
//! `trace_golden` shows that every pinned trace *passes* `check_all`;
//! this suite shows that the checker still *fails* each invariant the
//! right way.  It runs real fleets from `trace_golden`'s workloads,
//! applies one fixed mutation to the merged log (a record dropped,
//! duplicated, moved, added or flipped), and pins the exact list of
//! violations `check_all` returns: which invariants fire, in which
//! order, at which sequence numbers.  Mutated logs are renumbered, so
//! `seq` is always the record's position.  The pins were computed by an
//! earlier commit's checker; a rewrite of `check_all` leaves them alone.
//!
//! The engine's logs carry no agent-plane traffic, so the drop and
//! wrong-answer cases append the `message.dropped` / `message.sent` /
//! `request.answered` records the agent stack emits.

use gridflow_harness::workload::{
    cook_loss_churn_plan, dinner_recovery_workload, dinner_replan_workload, Workload,
};
use gridflow_harness::{
    BreakerConfig, FaultPlan, MultiCaseScenario, TraceEvent, TraceQuery, TraceRecord,
    TraceViolation,
};
use gridflow_services::PlanCacheHandle;
use gridflow_telemetry::Label;
use std::collections::{BTreeMap, BTreeSet};

/// A merged log and the slot capacities of the world it ran on.
struct Trace {
    records: Vec<TraceRecord>,
    capacities: BTreeMap<String, usize>,
}

impl Trace {
    fn run(
        plan: &FaultPlan,
        wl: &Workload,
        cases: usize,
        in_flight: usize,
        cache: Option<PlanCacheHandle>,
    ) -> Trace {
        let mut scenario = MultiCaseScenario::new(plan, wl, cases)
            .max_in_flight(in_flight)
            .traced();
        if let Some(cache) = cache {
            scenario = scenario.plan_cache(cache);
        }
        let log = scenario.run().trace.expect("traced");
        Trace {
            records: log.records(),
            capacities: wl.fresh_world(plan, 0).capacities().clone(),
        }
    }

    /// `check_all` over the log, renumbered so `seq` is the position.
    fn check(&self) -> Result<(), Vec<TraceViolation>> {
        let mut records = self.records.clone();
        for (seq, r) in records.iter_mut().enumerate() {
            r.seq = seq as u64;
        }
        TraceQuery::new(records).check_all(&self.capacities)
    }

    /// Position of the first record at or after `from` matching `pred`.
    fn find(&self, from: usize, pred: impl FnMut(&TraceRecord) -> bool) -> usize {
        from + self.records[from..]
            .iter()
            .position(pred)
            .expect("the trace holds the record the mutation needs")
    }

    /// Insert `event` at `at`, stamped like the record it displaces (or
    /// the last record, at the end).
    fn insert(&mut self, at: usize, source: &str, event: TraceEvent) {
        let like = &self.records[at.min(self.records.len() - 1)];
        let record = TraceRecord {
            source: source.into(),
            event,
            ..like.clone()
        };
        self.records.insert(at, record);
    }

    fn push(&mut self, source: &str, event: TraceEvent) {
        self.insert(self.records.len(), source, event);
    }

    /// Copy the record at `at` right after itself.
    fn duplicate(&mut self, at: usize) {
        let copy = self.records[at].clone();
        self.records.insert(at + 1, copy);
    }
}

/// The `case:<label>/` scope a record belongs to (`""` outside cases).
fn scope(r: &TraceRecord) -> &str {
    r.source
        .strip_prefix("case:")
        .and_then(|rest| rest.split_once('/'))
        .map_or("", |(label, _)| label)
}

/// `recovery-ladder-31`'s fleet with a hair-trigger breaker (one failure
/// opens it, one tick of cooldown), so the log walks every breaker
/// state: opened, half-open, closed.
fn ladder() -> Trace {
    let plan = FaultPlan::seeded(31)
        .failing_activities(0.3)
        .transient_failures();
    let mut wl = dinner_recovery_workload();
    wl.config.recovery.breaker = Some(BreakerConfig {
        failure_threshold: 1,
        open_ticks: 1,
    });
    Trace::run(&plan, &wl, 3, 2, None)
}

/// `partitioned-17`: one `coordinator`/`ac-h0` window, opened and healed.
fn partitioned() -> Trace {
    let plan =
        FaultPlan::seeded(17)
            .failing_activities(0.1)
            .partitioning("coordinator", "ac-h0", 2, 6);
    Trace::run(&plan, &dinner_recovery_workload(), 3, 3, None)
}

/// `churn-cached`: six cases replan one problem through a shared cache,
/// one `plan.cache_miss` and five hits.
fn churn_cached() -> Trace {
    Trace::run(
        &cook_loss_churn_plan(23),
        &dinner_replan_workload(11),
        6,
        6,
        Some(PlanCacheHandle::in_proc()),
    )
}

fn dropped(id: u64) -> TraceEvent {
    TraceEvent::MessageDropped {
        id,
        sender: "client".into(),
        receiver: "coordination".into(),
    }
}

fn sent(id: u64) -> TraceEvent {
    TraceEvent::MessageSent {
        id,
        performative: "request".into(),
        sender: "client".into(),
        receiver: "coordination".into(),
        in_reply_to: None,
    }
}

fn answered(correct: bool) -> TraceEvent {
    TraceEvent::RequestAnswered {
        agent: "coordination".into(),
        correct,
    }
}

fn is_half_open(r: &TraceRecord) -> bool {
    matches!(r.event, TraceEvent::BreakerHalfOpen { .. })
}

/// Drop the first `breaker.half_open`.
fn drop_half_open(t: &mut Trace) {
    let at = t.find(0, is_half_open);
    t.records.remove(at);
}

/// Dispatch the first completed activity of case `nth` (in completion
/// order) again, right after its completion.
fn redispatch(t: &mut Trace, nth: usize) {
    let mut cases = BTreeSet::new();
    let at = t.find(0, |r| {
        matches!(r.event, TraceEvent::ActivityCompleted { .. })
            && cases.insert(scope(r).to_string())
            && cases.len() == nth + 1
    });
    let TraceEvent::ActivityCompleted {
        activity,
        service,
        container,
        ..
    } = t.records[at].event.clone()
    else {
        unreachable!()
    };
    let source = t.records[at].source.clone();
    t.insert(
        at + 1,
        &source,
        TraceEvent::ActivityDispatched {
            activity,
            service,
            container,
            attempt: 0,
        },
    );
}

/// Move the dispatch that tripped the first breaker to go half-open to
/// just after its `breaker.opened`, inside the quarantine window.
fn move_dispatch_into_open_window(t: &mut Trace) {
    let half_open = t.find(0, is_half_open);
    let case = scope(&t.records[half_open]).to_string();
    let TraceEvent::BreakerHalfOpen { container } = t.records[half_open].event.clone() else {
        unreachable!()
    };
    let last_before = |at: usize, pred: &dyn Fn(&TraceEvent) -> bool| {
        t.records[..at]
            .iter()
            .rposition(|r| scope(r) == case && pred(&r.event))
            .expect("the breaker's history is in the trace")
    };
    let opened = last_before(
        half_open,
        &|e| matches!(e, TraceEvent::BreakerOpened { container: c, .. } if *c == container),
    );
    let tripped = last_before(
        opened,
        &|e| matches!(e, TraceEvent::ActivityDispatched { container: c, .. } if *c == container),
    );
    let dispatch = t.records.remove(tripped);
    t.records.insert(opened, dispatch);
}

/// Add a reservation by another case right after the first reservation
/// that fills its container.
fn overbook(t: &mut Trace) {
    let cases: Vec<Label> = t
        .records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::CaseAdmitted { case, .. } => Some(case.clone()),
            _ => None,
        })
        .collect();
    let mut holders: BTreeMap<String, Vec<Label>> = BTreeMap::new();
    let capacities = t.capacities.clone();
    let at = t.find(0, |r| match &r.event {
        TraceEvent::SlotReserved { case, container } => {
            let held = holders.entry(container.clone()).or_default();
            held.push(case.clone());
            held.len() == capacities.get(container).copied().unwrap_or(1)
        }
        TraceEvent::SlotReleased { case, container } => {
            let held = holders.entry(container.clone()).or_default();
            held.retain(|h| h != case);
            false
        }
        _ => false,
    });
    let TraceEvent::SlotReserved { case, container } = t.records[at].event.clone() else {
        unreachable!()
    };
    let intruder = cases
        .into_iter()
        .find(|c| *c != case)
        .expect("a second case");
    let source = format!("case:{intruder}/enactor");
    t.insert(
        at + 1,
        &source,
        TraceEvent::SlotReserved {
            case: intruder,
            container,
        },
    );
}

/// Assert the exact violations `check_all` reports, in its order.
fn pin(t: &Trace, expected: Vec<TraceViolation>) {
    assert_eq!(t.check(), Err(expected));
}

fn is_heal(r: &TraceRecord) -> bool {
    matches!(r.event, TraceEvent::PartitionHealed { .. })
}

#[test]
fn unmutated_traces_pass() {
    for (name, t) in [
        ("ladder", ladder()),
        ("partitioned", partitioned()),
        ("churn-cached", churn_cached()),
    ] {
        assert_eq!(t.check(), Ok(()), "{name}");
    }
}

#[test]
fn dropped_half_open() {
    let mut t = ladder();
    drop_half_open(&mut t);
    pin(
        &t,
        vec![TraceViolation::IllegalBreakerTransition {
            container: "ac-h1".into(),
            from: "open".into(),
            to: "closed".into(),
            seq: 43,
        }],
    );
}

#[test]
fn redispatched_completion() {
    let mut t = ladder();
    redispatch(&mut t, 0);
    pin(
        &t,
        vec![TraceViolation::DoubleDispatch {
            activity: "prep".into(),
            completed_seq: 34,
            redispatched_seq: 35,
        }],
    );
}

#[test]
fn dispatch_moved_into_open_window() {
    let mut t = ladder();
    move_dispatch_into_open_window(&mut t);
    pin(
        &t,
        vec![TraceViolation::DispatchWhileOpen {
            container: "ac-h1".into(),
            opened_seq: 28,
            dispatched_seq: 29,
        }],
    );
}

#[test]
fn reservation_on_a_full_container() {
    let mut t = ladder();
    overbook(&mut t);
    pin(
        &t,
        vec![TraceViolation::DoubleBooking {
            container: "ac-h1".into(),
            holders: vec!["dinner+recovery-0".into(), "dinner+recovery-1".into()],
            capacity: 1,
            seq: 7,
        }],
    );
}

#[test]
fn dropped_heal() {
    let mut t = partitioned();
    let at = t.find(0, is_heal);
    t.records.remove(at);
    pin(
        &t,
        vec![TraceViolation::UnhealedPartition {
            a: "ac-h0".into(),
            b: "coordinator".into(),
            opened_seq: 38,
        }],
    );
}

#[test]
fn stray_heal() {
    let mut t = partitioned();
    let at = t.find(0, is_heal);
    t.duplicate(at);
    pin(
        &t,
        vec![TraceViolation::HealWithoutPartition {
            a: "coordinator".into(),
            b: "ac-h0".into(),
            seq: 90,
        }],
    );
}

#[test]
fn duplicated_cache_miss() {
    let mut t = churn_cached();
    let at = t.find(0, |r| matches!(r.event, TraceEvent::PlanCacheMiss { .. }));
    t.duplicate(at);
    pin(
        &t,
        vec![TraceViolation::DuplicatePlanRun {
            key: "7b62319f50a56eb0e71376cbfa841a91".into(),
            miss_seqs: vec![35, 36],
        }],
    );
}

#[test]
fn unresolved_drop_appended() {
    let mut t = partitioned();
    t.push("transport", dropped(7));
    pin(
        &t,
        vec![TraceViolation::UnresolvedDrop {
            message_id: 7,
            dropped_seq: 90,
        }],
    );
}

#[test]
fn answer_flipped_to_wrong() {
    let mut t = partitioned();
    t.push("transport", dropped(7));
    t.push("client", answered(true));
    assert_eq!(t.check(), Ok(()), "a correct answer resolves the drop");
    let last = t.records.len() - 1;
    t.records[last].event = answered(false);
    pin(
        &t,
        vec![TraceViolation::WrongAnswer {
            agent: "coordination".into(),
            seq: 91,
        }],
    );
}

#[test]
fn combined_mutation_across_two_cases_and_three_whole_log_invariants() {
    let mut t = ladder();
    redispatch(&mut t, 1);
    drop_half_open(&mut t);
    overbook(&mut t);
    let heal = TraceEvent::PartitionHealed {
        a: "ac-h0".into(),
        b: "coordinator".into(),
    };
    t.insert(5, "transport", heal);
    t.push("transport", dropped(9));
    pin(
        &t,
        vec![
            TraceViolation::DoubleDispatch {
                activity: "prep".into(),
                completed_seq: 44,
                redispatched_seq: 45,
            },
            TraceViolation::IllegalBreakerTransition {
                container: "ac-h1".into(),
                from: "open".into(),
                to: "closed".into(),
                seq: 46,
            },
            TraceViolation::UnresolvedDrop {
                message_id: 9,
                dropped_seq: 92,
            },
            TraceViolation::HealWithoutPartition {
                a: "ac-h0".into(),
                b: "coordinator".into(),
                seq: 5,
            },
            TraceViolation::DoubleBooking {
                container: "ac-h1".into(),
                holders: vec!["dinner+recovery-0".into(), "dinner+recovery-1".into()],
                capacity: 1,
                seq: 8,
            },
        ],
    );
}

#[test]
fn the_first_drop_after_the_last_resolver_is_reported() {
    let mut t = partitioned();
    t.push("transport", dropped(1));
    t.push("transport", sent(2));
    t.push("transport", dropped(3));
    t.push("transport", dropped(4));
    pin(
        &t,
        vec![TraceViolation::UnresolvedDrop {
            message_id: 3,
            dropped_seq: 92,
        }],
    );
}
