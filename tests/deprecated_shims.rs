//! The compatibility contract for the configuration-surface redesign.
//!
//! The 0.6.0 consolidation replaced the engine's `scan_core: bool` flag
//! with the typed [`CoreSpec`] selector and folded the scenario's
//! engine-side knobs into one [`EngineSpec`].  The 0.5.0-era deprecated
//! free functions (`run_scenario_with_budget` and friends) and the
//! `Enactor::new`/`with_trace`/`with_trace_handle` shims are gone —
//! their call sites were ported to the builders.  What remains
//! deprecated is exactly one method, `MultiCaseScenario::scan_core`,
//! and this suite pins it (and the new consolidated spec surface) to
//! produce *byte-identical* results to its replacement, so downstream
//! code can migrate on its own schedule.

#![allow(deprecated)]

use gridflow_engine::{CaseHints, CoreSpec, PolicySpec};
use gridflow_harness::workload::dinner_workload;
use gridflow_harness::{EngineSpec, FaultPlan, MultiCaseScenario};
use gridflow_store::{merged_jsonl, MemStore, Store};
use std::sync::{Arc, Mutex};

/// The `scan_core()` shim must be exactly `.core(CoreSpec::Scan)`:
/// same outcomes, same merged trace bytes.
#[test]
fn scan_core_shim_matches_core_spec_scan() {
    let wl = dinner_workload();
    let plan = FaultPlan::seeded(19).failing_activities(0.3);
    let old = MultiCaseScenario::new(&plan, &wl, 4)
        .max_in_flight(2)
        .scan_core()
        .traced()
        .run();
    let new = MultiCaseScenario::new(&plan, &wl, 4)
        .max_in_flight(2)
        .core(CoreSpec::Scan)
        .traced()
        .run();
    assert_eq!(old.engine.cases, new.engine.cases);
    assert_eq!(
        old.trace.expect("traced").to_jsonl(),
        new.trace.expect("traced").to_jsonl()
    );
}

/// One [`EngineSpec`] must equal the same knobs applied through the
/// individual builder methods — outcome and trace bytes both.
#[test]
fn engine_spec_matches_the_individual_builder_methods() {
    let wl = dinner_workload();
    let plan = FaultPlan::seeded(7).failing_activities(0.2);
    let hints = |i: usize| CaseHints {
        priority: (i % 3) as i64,
        tenant: Some(if i.is_multiple_of(2) { "a" } else { "b" }.to_string()),
        deadline_tick: Some(50 - 5 * i as u64),
    };
    let spec = EngineSpec::default()
        .workers(8)
        .max_in_flight(3)
        .core(CoreSpec::Scan)
        .policy(PolicySpec::Priority);
    let consolidated = MultiCaseScenario::new(&plan, &wl, 5)
        .spec(spec)
        .case_hints(hints)
        .traced()
        .run();
    let chained = MultiCaseScenario::new(&plan, &wl, 5)
        .workers(8)
        .max_in_flight(3)
        .core(CoreSpec::Scan)
        .policy(PolicySpec::Priority)
        .case_hints(hints)
        .traced()
        .run();
    assert_eq!(consolidated.engine.cases, chained.engine.cases);
    assert_eq!(
        consolidated.trace.expect("traced").to_jsonl(),
        chained.trace.expect("traced").to_jsonl()
    );
}

/// The spec's store/kill knobs must behave exactly like the scenario's
/// own `store`/`kill_at` builders: same crash point, same durable
/// prefix, and a spec-configured recovery converges to the same log.
#[test]
fn engine_spec_store_and_kill_match_the_builder_methods() {
    let wl = dinner_workload();
    let plan = FaultPlan::seeded(11).failing_activities(0.2);

    let chained_store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    let chained = MultiCaseScenario::new(&plan, &wl, 4)
        .max_in_flight(2)
        .store(chained_store.clone(), 2)
        .kill_at(3)
        .run();

    let spec_store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    let spec = EngineSpec::default()
        .max_in_flight(2)
        .store(spec_store.clone(), 2)
        .kill_at(3);
    let consolidated = MultiCaseScenario::new(&plan, &wl, 4).spec(spec).run();

    assert!(chained.engine.killed && consolidated.engine.killed);
    let chained_prefix = merged_jsonl(&chained_store.lock().unwrap().replay_from(0).unwrap());
    let spec_prefix = merged_jsonl(&spec_store.lock().unwrap().replay_from(0).unwrap());
    assert_eq!(chained_prefix, spec_prefix, "durable prefixes diverged");

    // Recovery through the spec surface (kill cleared) converges.
    let recover_spec = EngineSpec::default()
        .max_in_flight(2)
        .store(spec_store.clone(), 2);
    let recovered = MultiCaseScenario::new(&plan, &wl, 4)
        .spec(recover_spec)
        .recover()
        .expect("spec-driven recovery");
    assert!(!recovered.engine.killed);
    assert!(recovered.engine.all_succeeded());
}

/// Applying a spec replaces engine-side knobs wholesale — a default
/// spec resets earlier builder calls, which is what makes a spec a
/// self-contained description of the run.
#[test]
fn engine_spec_resets_previously_set_knobs() {
    let wl = dinner_workload();
    let plan = FaultPlan::default();
    let reset = MultiCaseScenario::new(&plan, &wl, 3)
        .workers(8)
        .core(CoreSpec::Scan)
        .kill_at(1)
        .spec(EngineSpec::default())
        .traced()
        .run();
    let plain = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
    assert!(!reset.engine.killed, "default spec must clear kill_at");
    assert_eq!(reset.engine.cases, plain.engine.cases);
    assert_eq!(
        reset.trace.expect("traced").to_jsonl(),
        plain.trace.expect("traced").to_jsonl()
    );
}
