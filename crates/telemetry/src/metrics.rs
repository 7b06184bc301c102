//! Metrics derived from traces: counters and virtual-time histograms.
//!
//! A [`MetricsRegistry`] is built *from* a trace (never sampled live),
//! so it inherits the trace's determinism: identical seeds produce
//! identical registries.  Latency histograms bucket virtual durations —
//! the simulated `duration_s` carried by `ActivityCompleted` events —
//! not wall time.

use crate::event::{TraceEvent, TraceRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Fixed bucket upper bounds (virtual seconds) for latency histograms.
/// The last implicit bucket is `+inf`.
pub const LATENCY_BUCKETS_S: [f64; 8] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// A fixed-bucket histogram over virtual durations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Counts per bucket of [`LATENCY_BUCKETS_S`], plus one overflow
    /// bucket at the end.
    pub buckets: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (virtual seconds).
    pub sum_s: f64,
    /// Smallest observation.
    pub min_s: f64,
    /// Largest observation.
    pub max_s: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; LATENCY_BUCKETS_S.len() + 1],
            count: 0,
            sum_s: 0.0,
            min_s: f64::INFINITY,
            max_s: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Record one virtual duration.
    pub fn observe(&mut self, v: f64) {
        let idx = LATENCY_BUCKETS_S
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(LATENCY_BUCKETS_S.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_s += v;
        self.min_s = self.min_s.min(v);
        self.max_s = self.max_s.max(v);
    }
}

/// Counters and latency histograms aggregated from a trace.
///
/// Counter keys are event labels (`"message.dropped"`,
/// `"activity.completed"`, …) plus per-service derivatives
/// (`"service.cook.completed"`, `"service.cook.failed"`) and
/// per-transition-kind counts (`"transition.Fork"`).  Histogram keys
/// are `"latency.<service>"`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    /// Monotone event counters, keyed as described above.
    pub counters: BTreeMap<String, u64>,
    /// Virtual-time latency histograms per service.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Aggregate a registry from trace records.
    pub fn from_trace(records: &[TraceRecord]) -> Self {
        let mut m = MetricsRegistry::default();
        for r in records {
            m.count(r.event.label());
            match &r.event {
                TraceEvent::ActivityCompleted {
                    service,
                    duration_s,
                    ..
                } => {
                    m.count(&format!("service.{service}.completed"));
                    m.histograms
                        .entry(format!("latency.{service}"))
                        .or_default()
                        .observe(*duration_s);
                }
                TraceEvent::ActivityFailed { service, .. } => {
                    m.count(&format!("service.{service}.failed"));
                }
                TraceEvent::TransitionFired { kind, .. } => {
                    m.count(&format!("transition.{kind}"));
                }
                _ => {}
            }
        }
        m
    }

    fn count(&mut self, key: &str) {
        *self.counters.entry(key.to_string()).or_insert(0) += 1;
    }

    /// A counter's value (0 if never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// A latency histogram by service name, if any completions were
    /// observed for it.
    pub fn latency(&self, service: &str) -> Option<&Histogram> {
        self.histograms.get(&format!("latency.{service}"))
    }

    /// Fraction of sent messages that a fault decision touched
    /// (dropped, duplicated, or delayed); `0.0` when nothing was sent.
    pub fn message_fault_ratio(&self) -> f64 {
        let sent = self.counter("message.sent");
        if sent == 0 {
            return 0.0;
        }
        let faulted = self.counter("message.dropped")
            + self.counter("message.duplicated")
            + self.counter("message.delayed");
        faulted as f64 / sent as f64
    }

    /// A compact multi-line rendering (sorted keys, stable across runs)
    /// for logs and CI artifacts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k} = {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k}: count={} sum={:.3}s min={:.3}s max={:.3}s\n",
                h.count, h.sum_s, h.min_s, h.max_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq: 0,
            tick: 0,
            at_s: 0.0,
            source: "test".into(),
            event,
        }
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        h.observe(0.4);
        h.observe(3.0);
        h.observe(100.0);
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets[0], 1); // 0.4 <= 0.5
        assert_eq!(h.buckets[3], 1); // 3.0 <= 4.0
        assert_eq!(*h.buckets.last().unwrap(), 1); // overflow
        assert_eq!(h.min_s, 0.4);
        assert_eq!(h.max_s, 100.0);
        assert!((h.sum_s - 103.4).abs() < 1e-9);
    }

    #[test]
    fn registry_aggregates_counters_and_latency() {
        let recs = vec![
            rec(TraceEvent::ActivityCompleted {
                activity: "A1".into(),
                service: "cook".into(),
                container: "ac-h2".into(),
                duration_s: 2.0,
                cost: 1.0,
            }),
            rec(TraceEvent::ActivityFailed {
                activity: "A1".into(),
                service: "cook".into(),
                container: "ac-h3".into(),
                attempt: 0,
            }),
            rec(TraceEvent::TransitionFired {
                kind: "Fork".into(),
                node: "F1".into(),
            }),
        ];
        let m = MetricsRegistry::from_trace(&recs);
        assert_eq!(m.counter("activity.completed"), 1);
        assert_eq!(m.counter("service.cook.completed"), 1);
        assert_eq!(m.counter("service.cook.failed"), 1);
        assert_eq!(m.counter("transition.Fork"), 1);
        assert_eq!(m.latency("cook").unwrap().count, 1);
        assert!(m.latency("plate").is_none());
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn fault_ratio_counts_touched_messages() {
        let mk = |event| rec(event);
        let recs = vec![
            mk(TraceEvent::MessageSent {
                id: 1,
                performative: "request".into(),
                sender: "a".into(),
                receiver: "b".into(),
                in_reply_to: None,
            }),
            mk(TraceEvent::MessageSent {
                id: 2,
                performative: "request".into(),
                sender: "a".into(),
                receiver: "b".into(),
                in_reply_to: None,
            }),
            mk(TraceEvent::MessageDropped {
                id: 2,
                sender: "a".into(),
                receiver: "b".into(),
            }),
        ];
        let m = MetricsRegistry::from_trace(&recs);
        assert_eq!(m.message_fault_ratio(), 0.5);
        assert_eq!(MetricsRegistry::default().message_fault_ratio(), 0.0);
    }

    #[test]
    fn render_is_stable_and_sorted() {
        let recs = vec![rec(TraceEvent::TransitionFired {
            kind: "Join".into(),
            node: "J1".into(),
        })];
        let m = MetricsRegistry::from_trace(&recs);
        let text = m.render();
        assert!(text.contains("transition.Join = 1"));
        assert_eq!(text, MetricsRegistry::from_trace(&recs).render());
    }
}
