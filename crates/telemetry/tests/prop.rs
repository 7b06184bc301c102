//! Property-based tests for the telemetry layer: event/record serde
//! round trips, JSONL log round trips, and metrics consistency.

use gridflow_telemetry::{MetricsRegistry, TraceEvent, TraceLog, TraceRecord, TraceSink};
use proptest::prelude::*;

fn name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,8}".prop_map(|s| s)
}

fn event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            any::<u64>(),
            name(),
            name(),
            name(),
            any::<bool>(),
            any::<u64>()
        )
            .prop_map(
                |(id, performative, sender, receiver, has_reply, reply_id)| {
                    TraceEvent::MessageSent {
                        id,
                        performative,
                        sender,
                        receiver,
                        in_reply_to: has_reply.then_some(reply_id),
                    }
                }
            ),
        (any::<u64>(), name(), name()).prop_map(|(id, sender, receiver)| {
            TraceEvent::MessageDropped {
                id,
                sender,
                receiver,
            }
        }),
        (any::<u64>(), name(), name(), any::<u64>()).prop_map(
            |(id, sender, receiver, until_tick)| TraceEvent::MessageDelayed {
                id,
                sender,
                receiver,
                until_tick,
            }
        ),
        (name(), name(), name(), 0usize..8).prop_map(|(activity, service, container, attempt)| {
            TraceEvent::ActivityDispatched {
                activity,
                service,
                container,
                attempt,
            }
        }),
        (name(), name(), name(), 0.0f64..1.0e4, 0.0f64..1.0e4).prop_map(
            |(activity, service, container, duration_s, cost)| TraceEvent::ActivityCompleted {
                activity,
                service,
                container,
                duration_s,
                cost,
            }
        ),
        (name(), name()).prop_map(|(kind, node)| TraceEvent::TransitionFired { kind, node }),
        (
            name(),
            name(),
            prop::collection::vec(name(), 0..3),
            1usize..4
        )
            .prop_map(
                |(activity, service, excluded, round)| TraceEvent::ReplanTriggered {
                    activity,
                    service,
                    excluded,
                    round,
                }
            ),
        (any::<bool>(), any::<bool>()).prop_map(|(success, has_reason)| {
            TraceEvent::EnactmentFinished {
                success,
                abort_reason: has_reason.then(|| "all candidates failed".to_string()),
            }
        }),
    ]
}

fn record() -> impl Strategy<Value = TraceRecord> {
    (any::<u64>(), any::<u64>(), 0.0f64..1.0e6, name(), event()).prop_map(
        |(seq, tick, at_s, source, event)| TraceRecord {
            seq,
            tick,
            at_s,
            source: source.into(),
            event,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every event survives a JSON round trip exactly.
    #[test]
    fn event_serde_round_trip(e in event()) {
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, e);
    }

    /// A whole log survives the JSONL round trip, and serializing twice
    /// is byte-identical.
    #[test]
    fn log_jsonl_round_trip(events in prop::collection::vec(event(), 0..12)) {
        let log = TraceLog::new();
        for e in &events {
            log.emit("prop", e.clone());
        }
        let dump = log.to_jsonl();
        prop_assert_eq!(dump.clone(), log.to_jsonl(), "serialization must be stable");
        let back = TraceLog::from_jsonl(&dump).unwrap();
        prop_assert_eq!(back, log.records());
    }

    /// Each record contributes exactly 1 to its own label's counter:
    /// the registry's per-label counts equal a direct tally.
    #[test]
    fn metrics_counters_match_direct_tally(records in prop::collection::vec(record(), 0..24)) {
        let m = MetricsRegistry::from_trace(&records);
        let mut expected: std::collections::BTreeMap<&str, u64> = Default::default();
        for r in &records {
            *expected.entry(r.event.label()).or_insert(0) += 1;
        }
        for (label, count) in expected {
            prop_assert_eq!(m.counter(label), count, "label {}", label);
        }
        // Histogram observations equal completed-activity events.
        let completions = records
            .iter()
            .filter(|r| r.event.label() == "activity.completed")
            .count() as u64;
        let observed: u64 = m.histograms.values().map(|h| h.count).sum();
        prop_assert_eq!(observed, completions);
    }
}
