//! Differential equivalence suite: the event-driven scheduler core
//! against the legacy scan core.
//!
//! [`CoreSpec`] selects how a run executes — [`CoreSpec::Scan`] keeps
//! the old every-tick-rederive loop alive solely as an oracle.  For
//! every `(seed, workload, fleet shape)` both cores must produce
//! **byte-identical** merged JSONL traces — same events, same order,
//! same payloads — because the event core is an execution-strategy
//! change, not a semantics change.  Any divergence here is a bug in
//! the event core's wake/ready bookkeeping or the fiber's
//! cached-dispatch fast path.

use gridflow_engine::CoreSpec;
use gridflow_harness::workload::{
    dinner_recovery_workload, dinner_workload, DurationProfile, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario};
use proptest::prelude::*;

fn jsonl(
    plan: &FaultPlan,
    wl: &Workload,
    cases: usize,
    in_flight: usize,
    core: CoreSpec,
) -> String {
    MultiCaseScenario::new(plan, wl, cases)
        .max_in_flight(in_flight)
        .core(core)
        .traced()
        .run()
        .trace
        .expect("traced")
        .to_jsonl()
}

fn assert_cores_agree(plan: &FaultPlan, wl: &Workload, cases: usize, in_flight: usize, what: &str) {
    let event = jsonl(plan, wl, cases, in_flight, CoreSpec::Event);
    let scan = jsonl(plan, wl, cases, in_flight, CoreSpec::Scan);
    assert!(!event.is_empty(), "{what}: empty trace");
    assert_eq!(event, scan, "cores diverged on {what}");
}

/// The headline sweep: 32 seeds of flaky fleets with a queueing
/// admission cap, so every seed exercises late admission, failed
/// attempts, failovers, and capacity contention.
#[test]
fn thirty_two_seeds_of_flaky_fleets_trace_identically_on_both_cores() {
    let wl = dinner_workload();
    for seed in 0..32u64 {
        let plan = FaultPlan::seeded(seed).failing_activities(0.2);
        assert_cores_agree(&plan, &wl, 5, 3, &format!("flaky fleet, seed {seed}"));
    }
}

/// Clean fleets: no faults at all, pure capacity interleaving.
#[test]
fn clean_fleets_trace_identically_on_both_cores() {
    let wl = dinner_workload();
    for cases in [1, 2, 4, 8] {
        assert_cores_agree(
            &FaultPlan::default(),
            &wl,
            cases,
            4,
            &format!("clean fleet of {cases}"),
        );
    }
}

/// Sustained contention: one `prep` host is lost up front, so the whole
/// fleet funnels through the survivor and spends ticks blocked — the
/// exact path where the event core's capacity wait-sets and the fiber's
/// cached-dispatch re-check replace the scan core's full re-derivation.
#[test]
fn contended_fleets_trace_identically_on_both_cores() {
    let wl = dinner_workload();
    for seed in [5, 23, 41] {
        let plan = FaultPlan::seeded(seed).losing_node("ac-h1", 0);
        assert_cores_agree(&plan, &wl, 4, 4, &format!("contended fleet, seed {seed}"));
    }
}

/// Partition windows: a `prep` host is cut for `[2, 6)` mid-fleet and
/// then healed, so the topology flips down *and back up* while cases
/// are parked.  The heal is the interesting edge — the scan core
/// rederives readiness from scratch, the event core must wake exactly
/// the right waiters.
#[test]
fn partitioned_fleets_trace_identically_on_both_cores() {
    let wl = dinner_recovery_workload();
    for seed in [3, 17, 29] {
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.1)
            .partitioning("coordinator", "ac-h0", 2, 6);
        assert_cores_agree(&plan, &wl, 3, 3, &format!("partitioned fleet, seed {seed}"));
    }
}

/// Mid-schedule node loss: the world's topology mutates while cases are
/// parked, which must invalidate any cached dispatch (the generation
/// check) without perturbing the trace.
#[test]
fn mid_schedule_node_loss_traces_identically_on_both_cores() {
    let wl = dinner_workload();
    for seed in [7, 11, 29] {
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.1)
            .losing_node("ac-h2", 3);
        assert_cores_agree(&plan, &wl, 3, 3, &format!("node loss, seed {seed}"));
    }
}

/// The recovery ladder (retry/lease/breaker) runs inside the fiber's
/// full dispatch path on every step — recovery-enabled fibers must
/// never take the cached fast path, and the ladder's emissions must
/// land in the same ticks on both cores.
#[test]
fn recovery_ladder_fleets_trace_identically_on_both_cores() {
    let wl = dinner_recovery_workload();
    for seed in [2, 13, 31] {
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.3)
            .transient_failures();
        assert_cores_agree(&plan, &wl, 3, 2, &format!("recovery ladder, seed {seed}"));
    }
}

/// Admission refusals: with every `cook` host down the whole fleet is
/// refused at the front door; both cores must emit the same rejection
/// events and seal the same reports.
#[test]
fn refused_fleets_trace_identically_on_both_cores() {
    let wl = dinner_workload();
    let plan = FaultPlan::seeded(3)
        .losing_node("ac-h2", 0)
        .losing_node("ac-h3", 0);
    assert_cores_agree(&plan, &wl, 3, 2, "refused fleet");
}

/// The scan oracle is the one place [`EngineConfig::workers`] is still
/// read (it chunks the already-ordered step list), so pin that the
/// chunking cannot perturb the trace: scan at 8 workers == event.
///
/// [`EngineConfig::workers`]: gridflow_engine::EngineConfig::workers
#[test]
fn worker_counts_and_cores_compose_without_perturbing_the_trace() {
    let wl = dinner_workload();
    let plan = FaultPlan::seeded(17).failing_activities(0.2);
    let event = jsonl(&plan, &wl, 5, 3, CoreSpec::Event);
    let scan_w8 = MultiCaseScenario::new(&plan, &wl, 5)
        .max_in_flight(3)
        .core(CoreSpec::Scan)
        .workers(8)
        .traced()
        .run()
        .trace
        .expect("traced")
        .to_jsonl();
    assert_eq!(event, scan_w8, "scan@8 workers diverged from event");
}

/// The nightly chaos sweep: 32 seeds of fleets under node loss *and*
/// partition windows, the event core checked against the scan oracle's
/// bytes.
#[test]
#[ignore = "nightly: 32-seed core chaos equivalence sweep"]
fn nightly_core_chaos_seed_sweep() {
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
        assert_cores_agree(&plan, &wl, cases, in_flight, &format!("chaos, seed {seed}"));
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
                .fleet(3)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The generator-driven sweep: for any sampled (seed, shape, width,
    /// depth, duration, capacity profile), the event core and the scan
    /// oracle must produce byte-identical merged JSONL.
    #[test]
    fn generated_workloads_trace_identically_on_all_cores(gen in workload_gen()) {
        let wl = gen.build();
        let plan = FaultPlan::default();
        let event = jsonl(&plan, &wl, 3, 2, CoreSpec::Event);
        let scan = jsonl(&plan, &wl, 3, 2, CoreSpec::Scan);
        prop_assert!(!event.is_empty(), "{}: empty trace", wl.name);
        prop_assert_eq!(&event, &scan, "event vs scan diverged on {}", wl.name);
    }
}
