//! Golden conformance for the workload families.
//!
//! Two claims are pinned here:
//!
//! 1. **The virus-reconstruction case study enacts like the paper says
//!    it does.**  The Figs. 10–13 workflow's trace must show the
//!    happens-before edges of the pipeline (`POD` before `P3DR1`,
//!    `POR` before `PSF`), no double dispatch, the three-pass
//!    refinement trajectory (12.0 → 10.0 → 8.0 Å), and the `P3DR`
//!    fan-out actually fanning out — the three branches dispatch in
//!    the same tick when the virtual laboratory has three live `P3DR`
//!    hosts.
//! 2. **The generator is seed-deterministic.**  The same knobs produce
//!    a byte-identical [`Workload`] (via [`Workload::fingerprint`]);
//!    the merged traces they enact to are pinned in `trace_golden.rs`.
//!
//! [`Workload`]: gridflow_harness::workload::Workload
//! [`Workload::fingerprint`]: gridflow_harness::workload::Workload::fingerprint

use gridflow_harness::workload::{
    virus_reconstruction_workload, DurationProfile, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario, TraceEvent, TraceQuery};

fn traced_run(wl: &Workload, cases: usize) -> TraceQuery {
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), wl, cases)
        .traced()
        .run();
    assert!(
        outcome.engine.all_succeeded(),
        "{}: fleet did not succeed: {:?}",
        wl.name,
        outcome
            .engine
            .cases
            .iter()
            .map(|c| c.report.abort_reason.clone())
            .collect::<Vec<_>>()
    );
    let q = TraceQuery::new(outcome.trace.expect("traced").records());
    let world = wl.world_builder.build();
    assert_eq!(q.check_all(world.capacities()), Ok(()), "{}", wl.name);
    q
}

fn dispatched(activity: &'static str) -> impl FnMut(&TraceEvent) -> bool {
    move |e| matches!(e, TraceEvent::ActivityDispatched { activity: a, .. } if a == activity)
}

// ------------------------------------------------------- virus golden

#[test]
fn virus_trace_respects_the_pipelines_happens_before_edges() {
    let wl = virus_reconstruction_workload();
    let q = traced_run(&wl, 1);
    // The one-shot prefix runs exactly once; only the refinement loop's
    // body (POR, P3DR2/3/4, PSF) may legitimately re-dispatch, once per
    // pass.
    for activity in ["POD", "P3DR1"] {
        assert_eq!(
            q.count(|e| matches!(e,
                TraceEvent::ActivityDispatched { activity: a, .. } if a == activity)),
            1,
            "{activity} is outside the loop and must dispatch exactly once"
        );
    }
    assert_eq!(
        q.check_happens_before(
            "POD dispatched",
            dispatched("POD"),
            "P3DR1 dispatched",
            dispatched("P3DR1"),
        ),
        Ok(())
    );
    assert_eq!(
        q.check_happens_before(
            "POR dispatched",
            dispatched("POR"),
            "PSF dispatched",
            dispatched("PSF"),
        ),
        Ok(())
    );
    // The refinement loop drives resolution 12.0 → 10.0 → 8.0 Å: three
    // PSF passes, and (per loop pass) a full P3DR2/3/4 fan-out.
    let psf = q.count(
        |e| matches!(e, TraceEvent::ActivityCompleted { activity, .. } if activity == "PSF"),
    );
    assert_eq!(psf, 3, "12.0 → 8.0 Å at 2.0 Å per pass is three passes");
}

#[test]
fn virus_p3dr_fan_out_branches_dispatch_concurrently() {
    let wl = virus_reconstruction_workload();
    let q = traced_run(&wl, 1);
    // First dispatch tick of each fan-out branch.  The virtual lab has
    // three live P3DR hosts (purdue-sp2, sdsc-sp3, anl-backup), so the
    // FORK's branches must all go out in the same tick — serialized
    // branches would mean the engine ignored available capacity.
    let first_tick = |activity: &str| {
        q.records()
            .iter()
            .find(|r| {
                matches!(&r.event,
                    TraceEvent::ActivityDispatched { activity: a, .. } if a == activity)
            })
            .map(|r| r.tick)
            .unwrap_or_else(|| panic!("{activity} never dispatched"))
    };
    let (t2, t3, t4) = (
        first_tick("P3DR2"),
        first_tick("P3DR3"),
        first_tick("P3DR4"),
    );
    assert_eq!(t2, t3, "P3DR2 and P3DR3 should fan out in the same tick");
    assert_eq!(t2, t4, "P3DR2 and P3DR4 should fan out in the same tick");
}

// ------------------------------------------- generator determinism

#[test]
fn same_knobs_build_byte_identical_workloads() {
    for shape in GraphShape::ALL {
        for duration in [DurationProfile::DataStaged, DurationProfile::ComputeBound] {
            let build = || {
                WorkloadGen::new(42)
                    .shape(shape)
                    .width(3)
                    .depth(2)
                    .duration(duration)
                    .heterogeneous_capacity(true)
                    .build()
            };
            assert_eq!(
                build().fingerprint(),
                build().fingerprint(),
                "shape {shape:?} / {duration:?} not seed-deterministic"
            );
        }
    }
}

#[test]
fn distinct_seeds_reach_distinct_workloads() {
    let a = WorkloadGen::new(1).shape(GraphShape::ChoiceDense).build();
    let b = WorkloadGen::new(2).shape(GraphShape::ChoiceDense).build();
    assert_ne!(a.fingerprint(), b.fingerprint());
}
