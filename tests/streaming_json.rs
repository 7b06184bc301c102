//! The durable encoders stream JSON text without building a `Value`
//! tree; the tree form of each value stays the reference.  The
//! per-shape proof lives beside the vendored serde's first user
//! (`crates/telemetry/tests/streaming_json.rs`); this suite holds the
//! composite values only a whole run produces.

use gridflow::casestudy;
use gridflow_engine::snapshot::EngineSnapshot;
use gridflow_harness::workload::dinner_workload;
use gridflow_harness::{FaultPlan, MultiCaseScenario};
use gridflow_planner::prelude::*;
use gridflow_store::{MemStore, Store};
use serde::Serialize;
use std::sync::{Arc, Mutex};

fn assert_streams_its_tree<T: Serialize>(value: &T) {
    assert_eq!(
        serde_json::to_string(value).unwrap(),
        value.to_json_value().to_string()
    );
}

#[test]
fn gp_results_stream_their_tree() {
    for seed in [1, 2] {
        let config = GpConfig {
            seed,
            population_size: 40,
            generations: 6,
            ..GpConfig::default()
        };
        assert_streams_its_tree(&GpPlanner::new(config, casestudy::planning_problem()).run());
    }
}

/// Every engine snapshot of a contended fleet, one per kill tick: the
/// payload the tick loop spliced, its plain re-encoding and each live
/// fiber equal their trees — among them fibers blocked mid-dispatch,
/// whose `pending` (and its skipped `taken`) only contention produces.
#[test]
fn snapshots_and_blocked_fibers_stream_their_tree() {
    let plan = FaultPlan::seeded(17).failing_activities(0.2);
    let workload = dinner_workload();
    let scenario = || MultiCaseScenario::new(&plan, &workload, 6).max_in_flight(4);
    let ticks = scenario().run().engine.ticks;
    let mut pending = 0;
    for kill in 1..ticks {
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        assert!(
            scenario()
                .store(store.clone(), 1)
                .kill_at(kill)
                .run()
                .engine
                .killed
        );
        let record = store.lock().unwrap().latest_snapshot().unwrap().unwrap();
        let image = EngineSnapshot::from_bytes(&record.state).unwrap();
        let tree = image.to_json_value().to_string();
        assert_eq!(
            std::str::from_utf8(&record.state).unwrap(),
            tree,
            "kill@{kill}"
        );
        assert_eq!(image.to_bytes(), tree.into_bytes(), "kill@{kill}");
        for slot in &image.live {
            assert_streams_its_tree(&slot.fiber);
            pending += usize::from(slot.fiber.pending.is_some());
        }
    }
    assert!(
        pending > 0,
        "no snapshot caught a fiber blocked mid-dispatch"
    );
}
