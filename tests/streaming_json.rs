//! The durable encoders stream JSON text, and its decoders read it back,
//! without building a `Value` tree; the tree form of each value stays
//! the reference.  The per-shape proofs live beside the vendored serde's
//! first user (`crates/telemetry/tests/streaming_json.rs` and
//! `reading_json.rs`); this suite holds the composite values only a
//! whole run produces.

use gridflow::casestudy;
use gridflow_engine::snapshot::EngineSnapshot;
use gridflow_harness::workload::dinner_workload;
use gridflow_harness::{FaultPlan, MultiCaseScenario};
use gridflow_planner::prelude::*;
use gridflow_store::record::{decode_record, Decoded, LogRecord, KIND_EVENT, SEGMENT_HEADER_LEN};
use gridflow_store::{FileStore, MemStore, Store};
use gridflow_telemetry::{Label, TraceEvent, TraceRecord};
use serde::{Deserialize, Serialize};
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

/// `text` read straight into a `T`, checked against `from_json_value`
/// over its parsed tree: the two must print the same.
fn read_as_its_tree<T: Serialize + Deserialize>(text: &str) -> T {
    let read: T = serde_json::from_str(text).unwrap();
    let tree = T::from_json_value(&serde::json_value::parse(text).unwrap()).unwrap();
    assert_eq!(serde_json::to_string(&read), serde_json::to_string(&tree));
    read
}

/// Every engine snapshot of a contended fleet, one per kill tick: the
/// payload the tick loop spliced, its plain re-encoding and each live
/// fiber equal their trees — among them fibers the tick before the
/// snapshot left blocked mid-dispatch, a state only contention produces.
/// Each payload also reads straight into the image its tree gives.
#[test]
fn snapshots_and_blocked_fibers_stream_their_tree() {
    let plan = FaultPlan::seeded(17).failing_activities(0.2);
    let workload = dinner_workload();
    let scenario = || MultiCaseScenario::new(&plan, &workload, 6).max_in_flight(4);
    let ticks = scenario().run().engine.ticks;
    let mut blocked_live = 0;
    for kill in 1..ticks {
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        let crashed = scenario().store(store.clone(), 1).kill_at(kill).run();
        assert!(crashed.engine.killed);
        let records = crashed.trace.expect("traced").records();
        let last_tick = records
            .iter()
            .rposition(|r| matches!(r.event, TraceEvent::TickStarted { .. }))
            .unwrap();
        let blocked: Vec<&Label> = records[last_tick..]
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::CaseBlocked { case, .. } => Some(case),
                _ => None,
            })
            .collect();
        let record = store.lock().unwrap().latest_snapshot().unwrap().unwrap();
        let image = EngineSnapshot::from_bytes(&record.state).unwrap();
        read_as_its_tree::<EngineSnapshot>(std::str::from_utf8(&record.state).unwrap());
        let tree = image.to_json_value().to_string();
        assert_eq!(
            std::str::from_utf8(&record.state).unwrap(),
            tree,
            "kill@{kill}"
        );
        assert_eq!(image.to_bytes(), tree.into_bytes(), "kill@{kill}");
        for slot in &image.live {
            assert_streams_its_tree(&slot.fiber);
            blocked_live += usize::from(blocked.contains(&&slot.fiber.label));
        }
    }
    assert!(
        blocked_live > 0,
        "no snapshot caught a fiber blocked mid-dispatch"
    );
}

/// Every record a `FileStore` of the same fleet holds, across several
/// segments: each event and each snapshot payload reads straight into
/// the value its tree gives, and the event into the record the store
/// decoded.
#[test]
fn file_store_records_read_as_their_tree() {
    let plan = FaultPlan::seeded(17).failing_activities(0.2);
    let workload = dinner_workload();
    let dir = std::env::temp_dir().join(format!("gridflow-reading-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, _) = FileStore::open(&dir, 16).unwrap();
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(store));
    let scenario = MultiCaseScenario::new(&plan, &workload, 6).max_in_flight(4);
    assert!(!scenario.store(store, 1).run().engine.killed);
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    segments.sort();
    let (mut events, mut snapshots) = (0, 0);
    for path in &segments {
        let bytes = std::fs::read(path).unwrap();
        let mut offset = SEGMENT_HEADER_LEN;
        while let Decoded::Record {
            record,
            next_offset,
        } = decode_record(&bytes, offset)
        {
            let body = &bytes[offset + 4..next_offset - 4];
            let text = std::str::from_utf8(&body[2..]);
            match record {
                LogRecord::Event(decoded) => {
                    assert_eq!(body[0], KIND_EVENT);
                    assert_eq!(read_as_its_tree::<TraceRecord>(text.unwrap()), decoded);
                    events += 1;
                }
                LogRecord::Snapshot(snapshot) => {
                    read_as_its_tree::<EngineSnapshot>(
                        std::str::from_utf8(&snapshot.state).unwrap(),
                    );
                    snapshots += 1;
                }
            }
            offset = next_offset;
        }
        assert_eq!(
            offset,
            bytes.len(),
            "{} ends in a torn record",
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(
        segments.len() > 2 && events > 0 && snapshots > 0,
        "{segments:?} {events} {snapshots}"
    );
}
