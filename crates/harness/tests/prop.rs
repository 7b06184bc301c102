//! Property-based tests for the fault-injection harness.

use gridflow_agents::{AclMessage, Performative, Transport};
use gridflow_harness::workload::dinner_workload;
use gridflow_harness::{
    FaultAction, FaultPlan, FaultyTransport, MultiCaseScenario, TraceQuery, VirtualClock,
};
use gridflow_store::{merged_jsonl, MemStore, Store};
use proptest::prelude::*;
use serde_json::json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0.0f64..0.4,
        0.0f64..0.3,
        0.0f64..0.3,
        1u64..6,
        0.0f64..0.3,
        prop::option::of((0u64..40, 1u64..40)),
    )
        .prop_map(|(seed, drop, dup, delay, ticks, reorder, cut)| {
            let plan = FaultPlan::seeded(seed)
                .dropping(drop)
                .duplicating(dup)
                .delaying(delay, ticks)
                .reordering(reorder);
            match cut {
                Some((from, len)) => plan.partitioning("a", "b", from, from + len),
                None => plan,
            }
        })
}

fn drive(plan: &FaultPlan, n: usize) -> (FaultyTransport, Vec<AclMessage>) {
    let t = FaultyTransport::new(plan.clone(), VirtualClock::new());
    let mut delivered = Vec::new();
    for i in 0..n {
        let m = AclMessage::new(Performative::Inform, "a", "b", "t", json!(i as u64));
        delivered.extend(t.intercept(m));
    }
    (t, delivered)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The transport's accounting balances: deliveries + duplicates −
    /// drops − still-held == messages out, for any plan.
    #[test]
    fn transport_conserves_messages(plan in fault_plan(), n in 1usize..120) {
        let (t, delivered) = drive(&plan, n);
        let schedule = t.schedule();
        prop_assert_eq!(schedule.len(), n, "one decision per message");
        let mut expected = 0usize;
        for e in &schedule {
            match e.action {
                FaultAction::Deliver => expected += 1,
                FaultAction::Drop | FaultAction::Partitioned => {}
                FaultAction::Duplicate => expected += 2,
                FaultAction::Delay { .. } => expected += 1, // held or released
                FaultAction::Reorder => expected += 1,      // swapped or drained
            }
        }
        prop_assert_eq!(delivered.len() + t.held_count() + t.swap_count(), expected);
        // Draining releases exactly the held remainder.
        prop_assert_eq!(t.drain().len() + delivered.len(), expected);
    }

    /// Same plan, same message sequence ⇒ same schedule and deliveries.
    #[test]
    fn transport_is_deterministic(plan in fault_plan(), n in 1usize..120) {
        let (t1, d1) = drive(&plan, n);
        let (t2, d2) = drive(&plan, n);
        prop_assert_eq!(t1.schedule(), t2.schedule());
        let c1: Vec<_> = d1.iter().map(|m| m.content.clone()).collect();
        let c2: Vec<_> = d2.iter().map(|m| m.content.clone()).collect();
        prop_assert_eq!(c1, c2);
    }

    /// A lone case is recoverable and replayable for arbitrary seeds,
    /// failure probabilities, kill ticks and snapshot cadences: the
    /// recovered outcome and the store's merged log are the
    /// uninterrupted run's, and the log passes every trace invariant.
    #[test]
    fn scenarios_recover_and_replay(
        seed in any::<u64>(),
        fail_prob in 0.0f64..0.6,
        kill in 0u64..6,
        snapshot_every in 0u64..3,
    ) {
        let plan = FaultPlan::seeded(seed).failing_activities(fail_prob);
        let wl = dinner_workload();
        let scenario = || MultiCaseScenario::new(&plan, &wl, 1);
        let baseline = scenario().traced().run();
        let jsonl = baseline.trace.as_ref().expect("traced").to_jsonl();
        prop_assert_eq!(&scenario().traced().run().trace.expect("traced").to_jsonl(), &jsonl);

        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        let crashed = scenario().store(store.clone(), snapshot_every).kill_at(kill).run();
        // A kill tick past the schedule's end never fires.
        let finished = if crashed.engine.killed {
            scenario().store(store.clone(), snapshot_every).recover().expect("recovery")
        } else {
            crashed
        };
        prop_assert_eq!(&finished.engine, &baseline.engine);
        let stored = store.lock().unwrap().replay_from(0).unwrap();
        prop_assert_eq!(merged_jsonl(&stored), jsonl);
        prop_assert_eq!(TraceQuery::new(stored).check_all(&BTreeMap::new()), Ok(()));
    }

    /// Fault plans survive the storage round trip (a replayed scenario
    /// can be reconstructed from an archived plan).
    #[test]
    fn fault_plans_round_trip(plan in fault_plan()) {
        let plan = plan.losing_node("ac-h2", 1).immunizing("information-1");
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, plan);
    }
}
