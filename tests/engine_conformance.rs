//! Conformance suite for the multi-case enactment engine.
//!
//! The engine's contract has four planks:
//!
//! 1. **Replay determinism** — the scheduler is single-threaded and
//!    steps in a canonical order, so a given seed produces a
//!    *byte-identical* merged JSONL trace on every run.
//! 2. **Busy is not broken** — contention for container capacity blocks
//!    a case for a tick; it never fails it, and tick-scoped
//!    reservations guarantee no container slot is ever double-booked
//!    (provable from the merged trace alone).
//! 3. **Admission is a front door, not a trap** — a case no live
//!    container can serve is refused up front with a reason, and the
//!    rest of the fleet is unaffected.
//! 4. **Partitions are windows** — an engine-plane partition cuts the
//!    named containers for exactly `[from_tick, heal_tick)` and emits
//!    its boundary events once each.
//! 5. **A case does not know its fleet** — fresh data ids are minted
//!    from the case's own state, so what a case seals, what its goal
//!    ranges over and what a snapshot stores for it are the same in a
//!    fleet of any size.

use gridflow_engine::{CaseScheduler, CaseSpec, EngineConfig, EngineSnapshot};
use gridflow_harness::workload::{
    dinner_case_for_fleet, dinner_recovery_workload, dinner_workload, dinner_workload_scaled,
    DurationProfile, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario, TraceEvent, TraceLog, TraceQuery};
use gridflow_services::Enactor;
use gridflow_store::{MemStore, Store};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The query over a run's merged trace, which must keep every
/// whole-trace invariant ([`TraceQuery::check_all`]) against the
/// capacities of the world it ran on.
fn checked(plan: &FaultPlan, wl: &Workload, log: &TraceLog) -> TraceQuery {
    let q = TraceQuery::new(log.records());
    let world = wl.fresh_world(plan, 0);
    if let Err(violations) = q.check_all(world.capacities()) {
        panic!("{} under {plan:?}: {violations:?}", wl.name);
    }
    q
}

/// Enact `cases` copies of `wl` under `plan` twice, require the same
/// merged JSONL of both runs, and check on it what must hold of any
/// fleet whatever was done to it.
fn replayed_and_checked(plan: &FaultPlan, wl: &Workload, cases: usize, in_flight: usize) {
    let run = || {
        MultiCaseScenario::new(plan, wl, cases)
            .max_in_flight(in_flight)
            .traced()
            .run()
            .trace
            .expect("traced")
    };
    let log = run();
    let jsonl = log.to_jsonl();
    assert!(!jsonl.is_empty(), "{}: empty trace", wl.name);
    assert_eq!(jsonl, run().to_jsonl(), "{}: two runs diverged", wl.name);
    checked(plan, wl, &log);
}

// ------------------------------------------------------------------ 1

#[test]
fn merged_traces_replay_byte_identically() {
    // Activity failures make the schedule non-trivial (failed attempts,
    // failovers) and the admission queue forces cases to start late.
    let plan = FaultPlan::seeded(17).failing_activities(0.2);
    let wl = dinner_workload();
    let jsonl = || {
        let outcome = MultiCaseScenario::new(&plan, &wl, 5)
            .max_in_flight(3)
            .traced()
            .run();
        assert_eq!(outcome.engine.cases.len(), 5);
        let log = outcome.trace.expect("traced");
        checked(&plan, &wl, &log);
        log.to_jsonl()
    };
    let first = jsonl();
    assert!(!first.is_empty());
    assert_eq!(first, jsonl());
}

#[test]
fn differing_seeds_produce_differing_merged_traces() {
    let wl = dinner_workload();
    let jsonl_for = |seed: u64| {
        let plan = FaultPlan::seeded(seed).failing_activities(0.5);
        let outcome = MultiCaseScenario::new(&plan, &wl, 4).traced().run();
        let log = outcome.trace.expect("traced");
        checked(&plan, &wl, &log);
        log.to_jsonl()
    };
    assert_ne!(jsonl_for(100), jsonl_for(101));
}

// ------------------------------------------------------------------ 2

#[test]
fn contending_cases_block_without_double_booking_and_both_finish() {
    // Lose one `prep` host before the run: both cases need the single
    // surviving host in the same ticks, so one of them must spend at
    // least one tick blocked — and the trace must prove the slot was
    // never double-booked.
    let plan = FaultPlan::seeded(5).losing_node("ac-h1", 0);
    let wl = dinner_workload();
    let outcome = MultiCaseScenario::new(&plan, &wl, 2).traced().run();
    assert!(outcome.engine.all_succeeded(), "fleet failed");
    let blocked_total: u64 = outcome.engine.cases.iter().map(|c| c.blocked_ticks).sum();
    assert!(blocked_total >= 1, "no contention observed");

    // Every container in the dinner world has the default single slot.
    let q = checked(&plan, &wl, &outcome.trace.expect("traced"));
    // The blocked case announced itself, and blocking targeted `prep`.
    assert!(
        q.count(|e| matches!(
            e,
            TraceEvent::CaseBlocked { service, .. } if service == "prep"
        )) >= 1
    );
    // Reservations were released: grants and releases balance.
    let reserved = q.count(|e| matches!(e, TraceEvent::SlotReserved { .. }));
    let released = q.count(|e| matches!(e, TraceEvent::SlotReleased { .. }));
    assert_eq!(reserved, released, "leaked reservation holds");
    assert!(reserved >= 1);
}

#[test]
fn single_case_engine_run_matches_the_plain_enactor() {
    // One case, no contention: the engine is just a loop around the
    // fiber, so its report must equal the classic enactor's.
    let wl = dinner_workload();
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 1).run();
    let mut world = wl.fresh_world(&FaultPlan::default(), 0);
    let direct = Enactor::builder()
        .config(wl.config.clone())
        .build()
        .enact(&mut world, &wl.graph, &wl.case);
    assert_eq!(outcome.engine.cases[0].report, direct);
    assert!(direct.success);
}

// ------------------------------------------------------------------ 3

#[test]
fn unservable_cases_are_refused_at_admission_with_a_reason() {
    // Both `cook` hosts down: matchmaking cannot place `cook`, so the
    // case must be refused before any activity runs.
    let plan = FaultPlan::seeded(3)
        .losing_node("ac-h2", 0)
        .losing_node("ac-h3", 0);
    let wl = dinner_workload();
    let outcome = MultiCaseScenario::new(&plan, &wl, 2).traced().run();
    for case in &outcome.engine.cases {
        assert_eq!(case.admitted_tick, None);
        assert!(case.report.executions.is_empty());
        let reason = case.report.abort_reason.as_deref().unwrap_or("");
        assert!(
            reason.contains("admission refused") && reason.contains("cook"),
            "unhelpful refusal: {reason}"
        );
        assert_eq!(case.admitted_makespan_ticks(), None);
    }
    let q = checked(&plan, &wl, &outcome.trace.expect("traced"));
    assert_eq!(q.count(|e| matches!(e, TraceEvent::CaseRejected { .. })), 2);
}

#[test]
fn refused_cases_have_no_makespan_and_admitted_cases_do() {
    // One admissible case alongside the refusal scenario from above:
    // `admitted_makespan_ticks` is `None` for a case that never ran,
    // the inclusive tick span for one that did.
    let wl = dinner_workload();

    let refused = MultiCaseScenario::new(
        &FaultPlan::seeded(3)
            .losing_node("ac-h2", 0)
            .losing_node("ac-h3", 0),
        &wl,
        1,
    )
    .run();
    let case = &refused.engine.cases[0];
    assert_eq!(case.admitted_tick, None);
    assert_eq!(case.admitted_makespan_ticks(), None);

    let ran = MultiCaseScenario::new(&FaultPlan::default(), &wl, 1).run();
    let case = &ran.engine.cases[0];
    let admitted = case.admitted_tick.expect("clean case admits");
    let span = case.finished_tick - admitted + 1;
    assert_eq!(case.admitted_makespan_ticks(), Some(span));
    assert!(span >= 1);
}

#[test]
fn mid_schedule_node_loss_fails_over_without_failing_the_fleet() {
    // `cook` loses one of its two hosts once the fleet has executed a
    // few activities; the survivors absorb the load.
    let plan = FaultPlan::seeded(7).losing_node("ac-h2", 3);
    let wl = dinner_workload();
    let outcome = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
    assert!(outcome.engine.all_succeeded());
    let q = checked(&plan, &wl, &outcome.trace.expect("traced"));
    assert_eq!(
        q.count(|e| matches!(e, TraceEvent::NodeLost { container, .. } if container == "ac-h2")),
        1
    );
    // Post-loss cooking happened on the surviving host only.
    assert!(outcome
        .engine
        .cases
        .iter()
        .flat_map(|c| &c.report.executions)
        .filter(|e| e.service == "cook")
        .all(|e| e.container == "ac-h2" || e.container == "ac-h3"));
}

/// Submit `<label>-0` and `<label>-1`, two copies of `wl`'s case.
fn submit_pair(scheduler: &mut CaseScheduler, wl: &Workload, label: &str) {
    for i in 0..2 {
        scheduler.submit(CaseSpec {
            label: format!("{label}-{i}"),
            graph: wl.graph.clone(),
            case: wl.case.clone().into(),
            config: wl.config.clone(),
            hints: Default::default(),
        });
    }
}

#[test]
fn tick_budget_aborts_stragglers_instead_of_hanging() {
    let wl = dinner_workload();
    let mut scheduler = CaseScheduler::new(EngineConfig {
        max_ticks: 2,
        ..EngineConfig::default()
    });
    submit_pair(&mut scheduler, &wl, "budget");
    let mut world = wl.fresh_world(&FaultPlan::default(), 0);
    let outcome = scheduler.run(&mut world);
    assert_eq!(outcome.ticks, 2);
    assert_eq!(outcome.cases.len(), 2);
    for case in &outcome.cases {
        assert!(!case.report.success);
        assert!(case
            .report
            .abort_reason
            .as_deref()
            .unwrap_or("")
            .contains("tick budget exhausted"));
    }
}

#[test]
fn zero_capacity_hosts_block_every_live_case_every_tick_until_the_budget_abort() {
    // Every `prep` host is up but has no slots: admission (which asks
    // only for a live candidate) lets the fleet in, and from then on
    // each case finds every candidate booked on every tick.  Nothing
    // ever holds a reservation there, so nothing is ever released —
    // the block must still be announced and counted once per case per
    // tick, and only the tick budget ends the run.
    const MAX_TICKS: u64 = 6;
    let wl = dinner_workload();
    let log = TraceLog::new();
    let mut scheduler = CaseScheduler::new(EngineConfig {
        max_ticks: MAX_TICKS,
        ..EngineConfig::default()
    })
    .trace(Arc::new(log.clone()));
    submit_pair(&mut scheduler, &wl, "starved");
    let mut world = wl.fresh_world(&FaultPlan::default(), 0);
    for container in world.hosting_containers("prep") {
        world.set_capacity(&container, 0);
    }
    let outcome = scheduler.run(&mut world);
    assert_eq!(outcome.ticks, MAX_TICKS);
    assert_eq!(outcome.cases.len(), 2);
    for case in &outcome.cases {
        assert_eq!(case.admitted_tick, Some(0));
        assert_eq!(case.blocked_ticks, MAX_TICKS, "{}", case.label);
        assert!(case.report.executions.is_empty());
        let reason = case.report.abort_reason.as_deref().unwrap_or("");
        assert!(reason.contains("tick budget exhausted"), "{reason}");
    }
    let q = TraceQuery::new(log.records());
    assert_eq!(q.check_all(world.capacities()), Ok(()));
    assert_eq!(
        q.count(|e| matches!(e, TraceEvent::CaseBlocked { service, .. } if service == "prep")),
        2 * MAX_TICKS as usize
    );
    assert_eq!(q.count(|e| matches!(e, TraceEvent::SlotReserved { .. })), 0);
}

#[test]
fn engine_events_carry_case_labels_for_cross_case_queries() {
    let (plan, wl) = (FaultPlan::default(), dinner_workload());
    let outcome = MultiCaseScenario::new(&plan, &wl, 2).traced().run();
    let labelled: Vec<String> = checked(&plan, &wl, &outcome.trace.expect("traced"))
        .records()
        .iter()
        .filter_map(|r| r.event.case_label().map(str::to_owned))
        .collect();
    assert!(labelled.iter().any(|c| c == "dinner-0"));
    assert!(labelled.iter().any(|c| c == "dinner-1"));
}

// -------------------------------------------------------- partitions

#[test]
fn engine_partition_window_emits_boundaries() {
    // `ac-h4` hosts only `nuke`, the unused alternative cooker, so the
    // fleet's outcome is untouched — what's under test is the window's
    // bookkeeping.
    let plan = FaultPlan::seeded(5).partitioning("coordinator", "ac-h4", 1, 3);
    let wl = dinner_workload();
    let reference = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
    assert!(reference.engine.all_succeeded());
    let q = checked(&plan, &wl, &reference.trace.expect("traced"));
    assert_eq!(q.count(|e| e.label() == "transport.partitioned"), 1);
    assert_eq!(q.count(|e| e.label() == "transport.healed"), 1);
    assert_eq!(
        q.check_happens_before(
            "transport.partitioned",
            |e| e.label() == "transport.partitioned",
            "transport.healed",
            |e| e.label() == "transport.healed",
        ),
        Ok(())
    );
}

#[test]
fn recovery_fleet_rides_out_a_partition_heal_under_message_chaos() {
    // A recovery-ladder fleet rides out message chaos plus a partition
    // of one `prep` host that heals mid-run.
    let plan = FaultPlan::seeded(0)
        .failing_activities(0.1)
        .dropping(0.2)
        .delaying(0.2, 2)
        .duplicating(0.1)
        .reordering(0.15)
        .partitioning("coordinator", "ac-h0", 2, 5);
    let wl = dinner_recovery_workload();
    let outcome = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
    assert!(
        outcome.engine.all_succeeded(),
        "recovery fleet must complete across the partition window"
    );
    checked(&plan, &wl, &outcome.trace.expect("traced"));
}

/// 32-seed partition/chaos sweep: replay byte-identity and partition
/// discipline across randomized windows.  Run
/// with `cargo test -- --ignored nightly_partition_chaos_seed_sweep`.
#[test]
#[ignore = "nightly: 32-seed partition/chaos sweep"]
fn nightly_partition_chaos_seed_sweep() {
    let wl = dinner_recovery_workload();
    for seed in 0..32u64 {
        let from = seed % 5;
        let heal = from + 2 + seed % 3;
        let side = ["ac-h0", "ac-h4", "ac-h6"][(seed % 3) as usize];
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.15)
            .dropping(0.2)
            .delaying(0.15, 2)
            .reordering(0.1)
            .partitioning("coordinator", side, from, heal);
        let first = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
        let log = first.trace.expect("traced");
        // A fleet whose cases all abort before `heal` legitimately ends
        // with the window open, which the partition check allows.
        checked(&plan, &wl, &log);
        let replay = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
        assert_eq!(
            log.to_jsonl(),
            replay.trace.unwrap().to_jsonl(),
            "seed {seed}: replay diverged"
        );
    }
}

// ------------------------------------------------------ fleet invariance

#[test]
fn a_case_enacts_the_same_whatever_fleet_shares_its_world() {
    // Eight cases in flight at once on hosts with slots to spare: every
    // one seals what a lone enactment seals, data ids included.
    let plan = FaultPlan::default();
    let wl = dinner_workload_scaled(1, 8);
    let direct = Enactor::builder().config(wl.config.clone()).build().enact(
        &mut wl.fresh_world(&plan, 0),
        &wl.graph,
        &wl.case,
    );
    assert!(direct.success);
    let fleet = MultiCaseScenario::new(&plan, &wl, 8).max_in_flight(8).run();
    for case in &fleet.engine.cases {
        assert_eq!(case.blocked_ticks, 0, "{} was contended", case.label);
        assert_eq!(
            case.report.final_state, direct.final_state,
            "{}",
            case.label
        );
        assert_eq!(case.report.executions, direct.executions, "{}", case.label);
    }

    // So nothing that builds a case reads a fleet size...
    assert_eq!(dinner_case_for_fleet(1), dinner_case_for_fleet(100_000));
    let gen = WorkloadGen::new(7).shape(GraphShape::FanOutJoin);
    assert_eq!(
        gen.fleet(3).build().fingerprint(),
        gen.fleet(3000).build().fingerprint()
    );

    // ...and the blueprint table a snapshot carries does not grow with it.
    let blueprint_bytes = |cases: usize| {
        let mut wl = dinner_workload();
        wl.case = dinner_case_for_fleet(cases);
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        let outcome = MultiCaseScenario::new(&plan, &wl, cases)
            .max_in_flight(64)
            .store(store.clone(), 32)
            .run();
        assert!(outcome.engine.all_succeeded());
        checked(
            &plan,
            &wl,
            &outcome.trace.expect("store-bound runs are traced"),
        );
        let last = store.lock().unwrap().latest_snapshot().unwrap().unwrap();
        let image = EngineSnapshot::from_bytes(&last.state).unwrap();
        serde_json::to_string(&image.blueprints).unwrap().len()
    };
    assert_eq!(blueprint_bytes(64), blueprint_bytes(512));
}

// ------------------------------------------------- generated and chaos

/// The nightly chaos sweep: 32 seeds of fleets under node loss *and* a
/// partition window at once.
#[test]
#[ignore = "nightly: 32-seed node-loss + partition replay sweep"]
fn nightly_chaos_replay_seed_sweep() {
    for seed in 0..32u64 {
        let (wl, cases, in_flight) = if seed % 3 == 0 {
            (dinner_recovery_workload(), 3, 2)
        } else {
            (dinner_workload(), 4, 3)
        };
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.15)
            .losing_node(
                if seed % 2 == 0 { "ac-h1" } else { "ac-h4" },
                seed as usize % 5,
            )
            .partitioning(
                "coordinator",
                if seed % 2 == 0 { "ac-h2" } else { "ac-h0" },
                1 + seed % 3,
                4 + seed % 4,
            );
        replayed_and_checked(&plan, &wl, cases, in_flight);
    }
}

/// Strategy over the generator's taxonomy knobs, kept small enough
/// that each sampled workload enacts in milliseconds.
fn workload_gen() -> impl Strategy<Value = WorkloadGen> {
    (
        any::<u64>(),
        prop_oneof![
            Just(GraphShape::Linear),
            Just(GraphShape::FanOutJoin),
            Just(GraphShape::ChoiceDense),
            Just(GraphShape::Iterative),
        ],
        2usize..4,
        1usize..4,
        prop_oneof![
            Just(DurationProfile::DataStaged),
            Just(DurationProfile::ComputeBound),
        ],
        prop_oneof![Just(false), Just(true)],
    )
        .prop_map(|(seed, shape, width, depth, duration, hetero)| {
            WorkloadGen::new(seed)
                .shape(shape)
                .width(width)
                .depth(depth)
                .duration(duration)
                .heterogeneous_capacity(hetero)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The generator-driven sweep: for any sampled (seed, shape, width,
    /// depth, duration, capacity profile), a fleet of three replays
    /// byte-identically and its merged trace keeps the fleet invariants.
    #[test]
    fn generated_workloads_replay_byte_identically_and_keep_the_fleet_invariants(
        sample in workload_gen()
    ) {
        replayed_and_checked(&FaultPlan::default(), &sample.build(), 3, 2);
    }
}
