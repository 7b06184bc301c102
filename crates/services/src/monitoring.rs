//! The monitoring service: "Though the brokerage services make a best
//! effort to maintain accurate information regarding the state of
//! resources, such information may be obsolete.  Accurate information
//! about the status of a resource may be obtained using monitoring
//! services" (§2).
//!
//! Monitoring reads the live world; brokerage (see [`crate::brokerage`])
//! serves a cached snapshot that can go stale — the contrast the paper
//! draws.

use crate::world::GridWorld;
use gridflow_telemetry::{MetricsRegistry, TraceRecord};
use serde::{Deserialize, Serialize};

/// A live probe result for one container.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContainerStatus {
    /// Container id.
    pub container: String,
    /// Backing resource id.
    pub resource: String,
    /// Is it up right now?
    pub up: bool,
    /// Services it hosts.
    pub services: Vec<String>,
    /// Lifetime completed executions.
    pub completed: u64,
    /// Lifetime failed executions.
    pub failed: u64,
}

/// A live probe result for one resource.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceStatus {
    /// Resource id.
    pub resource: String,
    /// Equivalence class (brokerage grouping).
    pub class: String,
    /// Nodes busy on the market.
    pub load: u32,
    /// Total nodes.
    pub nodes: u32,
}

/// The monitoring service core (stateless: every call probes the live
/// world).
#[derive(Debug, Clone, Copy, Default)]
pub struct MonitoringService;

impl MonitoringService {
    /// Probe one container.
    pub fn probe_container(&self, world: &GridWorld, id: &str) -> Option<ContainerStatus> {
        world.topology.container(id).map(|c| ContainerStatus {
            container: c.id.clone(),
            resource: c.resource_id.clone(),
            up: c.up,
            services: c.services.clone(),
            completed: c.completed,
            failed: c.failed,
        })
    }

    /// Probe one resource (market load included).
    pub fn probe_resource(&self, world: &GridWorld, id: &str) -> Option<ResourceStatus> {
        let r = world.topology.resource(id)?;
        let load = world.market.offer(id).map(|o| o.load).unwrap_or(0);
        Some(ResourceStatus {
            resource: r.id.clone(),
            class: r.equivalence_class(),
            load,
            nodes: r.nodes,
        })
    }

    /// Fraction of containers currently up.
    pub fn availability(&self, world: &GridWorld) -> f64 {
        let total = world.topology.containers.len();
        if total == 0 {
            return 1.0;
        }
        let up = world.topology.containers.iter().filter(|c| c.up).count();
        up as f64 / total as f64
    }

    /// Probe every container, in topology order, and feed the up/down
    /// results into the recovery layer's circuit breakers — the paper's
    /// monitoring feedback driving rescheduling.  Down containers accrue
    /// breaker failures (quarantining them without wasting dispatches);
    /// open breakers whose cooldown has elapsed take the probe as their
    /// half-open trial, so a healthy container is readmitted here.  The
    /// sweep reads each container's `up` flag in place: it runs on every
    /// dispatch of a breaker-configured case, so it builds no
    /// [`ContainerStatus`].  Returns the number of containers probed:
    /// none under a policy with no breaker, which has nothing to feed.
    pub fn feed_recovery(
        &self,
        world: &GridWorld,
        recovery: &mut gridflow_recovery::RecoveryManager,
    ) -> usize {
        if recovery.policy().breaker.is_none() {
            return 0;
        }
        for c in &world.topology.containers {
            recovery.note_probe(&c.id, c.up);
        }
        world.topology.containers.len()
    }

    /// Fold an execution trace into counters and virtual-time latency
    /// histograms.  The registry inherits the trace's determinism:
    /// identical seeds → identical metrics.
    pub fn metrics_from_trace(&self, records: &[TraceRecord]) -> MetricsRegistry {
        MetricsRegistry::from_trace(records)
    }

    /// A live-state + execution-history summary: the availability probe
    /// (what is up *now*) alongside the metrics of what *happened* — the
    /// paper's monitoring/information-service pairing in one view.
    pub fn summary(&self, world: &GridWorld, records: &[TraceRecord]) -> MonitoringSummary {
        MonitoringSummary {
            availability: self.availability(world),
            metrics: self.metrics_from_trace(records),
        }
    }
}

/// Live availability plus trace-derived metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitoringSummary {
    /// Fraction of containers currently up.
    pub availability: f64,
    /// Counters and latency histograms folded from the trace.
    pub metrics: MetricsRegistry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_grid::GridTopology;

    fn world() -> GridWorld {
        GridWorld::new(GridTopology::generate(5, &["S".into()], 1))
    }

    #[test]
    fn probe_container_reports_live_state() {
        let mut w = world();
        let mon = MonitoringService;
        let id = w.topology.containers[0].id.clone();
        let before = mon.probe_container(&w, &id).unwrap();
        assert!(before.up);
        w.set_container_up(&id, false).unwrap();
        let after = mon.probe_container(&w, &id).unwrap();
        assert!(!after.up);
        assert!(mon.probe_container(&w, "ghost").is_none());
    }

    #[test]
    fn probe_all_and_availability() {
        let mut w = world();
        let mon = MonitoringService;
        assert!(w
            .topology
            .containers
            .iter()
            .all(|c| mon.probe_container(&w, &c.id).is_some_and(|s| s.up)));
        assert_eq!(mon.availability(&w), 1.0);
        let id = w.topology.containers[0].id.clone();
        w.set_container_up(&id, false).unwrap();
        assert!((mon.availability(&w) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn probe_resource_includes_market_load() {
        let mut w = world();
        let mon = MonitoringService;
        let rid = w.topology.resources[0].id.clone();
        let before = mon.probe_resource(&w, &rid).unwrap();
        assert_eq!(before.load, 0);
        let nodes = 1;
        w.market
            .acquire(nodes, f64::INFINITY, |o| o.resource.id == rid)
            .unwrap();
        let after = mon.probe_resource(&w, &rid).unwrap();
        assert_eq!(after.load, nodes);
    }

    #[test]
    fn empty_world_is_fully_available() {
        let w = GridWorld::new(GridTopology::generate(0, &[], 1));
        assert_eq!(MonitoringService.availability(&w), 1.0);
    }

    #[test]
    fn availability_tracks_partial_outages_down_to_zero_and_back() {
        let mut w = world();
        let mon = MonitoringService;
        let ids: Vec<String> = w.topology.containers.iter().map(|c| c.id.clone()).collect();
        // Take the containers down one by one: availability steps through
        // every fraction, never panicking mid-outage.
        for (downed, id) in ids.iter().enumerate() {
            w.set_container_up(id, false).unwrap();
            let expected = (ids.len() - downed - 1) as f64 / ids.len() as f64;
            assert!((mon.availability(&w) - expected).abs() < 1e-12);
        }
        assert_eq!(mon.availability(&w), 0.0);
        // Probes keep working during the blackout…
        assert!(ids
            .iter()
            .all(|id| mon.probe_container(&w, id).is_some_and(|s| !s.up)));
        // …and recovery is symmetric.
        w.set_container_up(&ids[0], true).unwrap();
        assert!((mon.availability(&w) - 1.0 / ids.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn probes_feed_breakers_down_to_quarantine_and_back_to_closed() {
        use gridflow_recovery::{Admission, BreakerConfig, RecoveryManager, RecoveryPolicy};
        let mut w = world();
        let mon = MonitoringService;
        let mut recovery = RecoveryManager::new(RecoveryPolicy {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                open_ticks: 5,
            }),
            ..RecoveryPolicy::standard()
        });
        let id = w.topology.containers[0].id.clone();
        // Healthy world: probes leave the breakers untouched.
        assert_eq!(mon.feed_recovery(&w, &mut recovery), 5);
        assert!(recovery.quarantined().is_empty());
        // A downed container accrues probe failures until quarantined.
        w.set_container_up(&id, false).unwrap();
        mon.feed_recovery(&w, &mut recovery);
        mon.feed_recovery(&w, &mut recovery);
        assert_eq!(recovery.admit(&id), Admission::Reject);
        // It recovers; once the cooldown elapses, the next probe is the
        // half-open trial and readmits it.
        w.set_container_up(&id, true).unwrap();
        recovery.tick(5);
        mon.feed_recovery(&w, &mut recovery);
        assert_eq!(recovery.admit(&id), Admission::Allow);
    }

    #[test]
    fn summary_pairs_degraded_availability_with_trace_metrics() {
        use gridflow_telemetry::TraceEvent;
        let mut w = world();
        let id = w.topology.containers[0].id.clone();
        w.set_container_up(&id, false).unwrap();
        let records = vec![TraceRecord {
            seq: 0,
            tick: 0,
            at_s: 0.0,
            source: "runner".into(),
            event: TraceEvent::NodeLost {
                container: id,
                after_executions: 0,
            },
        }];
        let summary = MonitoringService.summary(&w, &records);
        assert!((summary.availability - 0.8).abs() < 1e-12);
        assert_eq!(summary.metrics.counter("fault.node_lost"), 1);
    }
}
