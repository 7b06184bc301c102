//! Crash and recover (§1: "Some of the computational tasks are long
//! lasting and require checkpointing"): a fleet of dinner cases is
//! journalled into a file-backed store, killed mid-run, and recovered
//! from disk by a fresh process image — the recovered run finishes the
//! fleet and the merged event log is byte-identical to an uninterrupted
//! run.  The store is the only checkpoint there is, at any fleet size:
//! pass `1` as the third argument for a lone case.
//!
//! ```sh
//! cargo run --example crash_recover            # default seed 7, kill at ticks/2
//! cargo run --example crash_recover -- 11 3    # seed 11, kill at tick 3
//! cargo run --example crash_recover -- 7 2 1   # seed 7, kill at tick 2, one case
//! ```

use gridflow_engine::PolicySpec;
use gridflow_harness::workload::{dinner_workload, Workload};
use gridflow_harness::{FaultPlan, MultiCaseScenario};
use gridflow_store::{merged_jsonl, FileStore, Store};
use std::sync::{Arc, Mutex};

fn fleet<'a>(plan: &'a FaultPlan, wl: &'a Workload, cases: usize) -> MultiCaseScenario<'a> {
    MultiCaseScenario::new(plan, wl, cases)
        .max_in_flight(2)
        .policy(PolicySpec::Fifo)
        .traced()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(7);
    let kill_arg: Option<u64> = args.next().and_then(|s| s.parse().ok());
    let cases: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let plan = FaultPlan::seeded(seed).failing_activities(0.2);
    let wl = dinner_workload();

    // --- The uninterrupted truth --------------------------------------
    let baseline = fleet(&plan, &wl, cases).run();
    let truth = baseline.trace.as_ref().expect("traced").to_jsonl();
    let kill = kill_arg.unwrap_or(baseline.engine.ticks / 2);
    println!(
        "baseline: {} cases over {} ticks ({} events); killing at tick {kill}",
        baseline.engine.cases.len(),
        baseline.engine.ticks,
        truth.lines().count(),
    );

    // --- Crash: journal to disk, die at the top of `kill` -------------
    let dir = std::env::temp_dir().join(format!("gridflow-crash-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    {
        let (store, _) = FileStore::open(&dir, 64).expect("open store");
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(store));
        let crashed = fleet(&plan, &wl, cases)
            .store(store.clone(), 2)
            .kill_at(kill)
            .run();
        assert!(crashed.engine.killed, "the kill tick must precede the end");
        let guard = store.lock().unwrap();
        println!(
            "crashed:  {} events and {} snapshot(s) survive on disk",
            guard.next_seq(),
            guard.snapshot_count(),
        );
    } // every handle dropped: the "process" is gone

    // --- Recover: a fresh process image reopens the directory ---------
    let (store, report) = FileStore::open(&dir, 64).expect("reopen store");
    assert!(!report.truncated, "a kill is clean: no torn tail");
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(store));
    let recovered = fleet(&plan, &wl, cases)
        .store(store.clone(), 2)
        .recover()
        .expect("recovery");
    assert!(!recovered.engine.killed);
    assert_eq!(recovered.engine.cases, baseline.engine.cases);
    println!(
        "recovered: {} cases over {} ticks",
        recovered.engine.cases.len(),
        recovered.engine.ticks,
    );

    // The store now holds the whole truth, byte-identical to the
    // uninterrupted run.
    let stored = merged_jsonl(&store.lock().unwrap().replay_from(0).expect("replay"));
    assert_eq!(stored, truth);
    println!("stored log byte-identical to the uninterrupted run ✓");
    let _ = std::fs::remove_dir_all(&dir);
}
