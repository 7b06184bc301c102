//! Checkpointing long-lasting tasks (§1: "Some of the computational
//! tasks are long lasting and require checkpointing"): run the virus
//! workflow with checkpoints, archive one with the persistent-storage
//! service, simulate a coordinator crash, and resume on a fresh
//! coordinator.
//!
//! ```sh
//! cargo run --example checkpoint_resume
//! ```

use gridflow::casestudy;
use gridflow::prelude::*;
use gridflow_services::storage::StorageService;
use gridflow_services::EnactmentCheckpoint;

fn main() {
    let graph = casestudy::process_description();
    let case = casestudy::case_description();
    let enactor = Enactor::builder().checkpoint_every(4).build();

    // --- First coordinator: runs, checkpointing as it goes -------------
    let mut world = casestudy::virtual_lab_world(0, 11);
    let report = enactor.enact(&mut world, &graph, &case);
    assert!(report.success);
    println!(
        "first run: {} executions, {} checkpoints captured",
        report.executions.len(),
        report.checkpoints.len()
    );

    // Archive the mid-run checkpoint (after 8 executions) as the storage
    // service would.
    let mid = report.checkpoints[1].clone();
    let mut storage = StorageService::new();
    let version = storage.put("checkpoint/3DSD", serde_json::to_value(&mid).unwrap());
    println!(
        "archived checkpoint v{version}: {} executions done, resolution so far: {:?}",
        mid.executions.len(),
        mid.state.property("D12", "Value")
    );

    // --- Crash!  A new coordinator picks the task up -------------------
    let doc = storage.get("checkpoint/3DSD").unwrap();
    let restored: EnactmentCheckpoint = serde_json::from_value(doc.body.clone()).unwrap();
    let mut fresh_world = casestudy::virtual_lab_world(0, 11);
    let resumed = enactor.resume(&mut fresh_world, restored, &case);
    assert!(resumed.success, "abort: {:?}", resumed.abort_reason);
    println!(
        "resumed run: {} total executions ({} new after the checkpoint)",
        resumed.executions.len(),
        resumed.executions.len() - mid.executions.len()
    );
    let resolution = resumed
        .final_state
        .property("D12", "Value")
        .and_then(|v| v.as_float())
        .unwrap();
    println!(
        "final resolution: {resolution:.1} Å (target ≤ {})",
        casestudy::TARGET_RESOLUTION
    );

    // The resumed run converges to the same final data state as the
    // uninterrupted one.
    assert_eq!(resumed.final_state, report.final_state);
    println!("final state identical to the uninterrupted run ✓");
}
