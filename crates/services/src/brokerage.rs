//! The brokerage service: "Brokerage services maintain information about
//! classes of services offered by the environment, as well as past
//! performance data bases.  Though the brokerage services make a best
//! effort to maintain accurate information regarding the state of
//! resources, such information may be obsolete" (§2).
//!
//! Staleness is modelled explicitly: the broker serves a cached snapshot
//! taken at [`BrokerageService::refresh`] time; the live world may have
//! drifted since.  The re-planning flow of Fig. 3 therefore double-checks
//! candidate containers with the containers themselves.

use crate::world::{ExecutionRecord, GridWorld};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregate past-performance statistics for one (service, container)
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PerformanceStats {
    /// Successful executions.
    pub successes: u64,
    /// Failed executions.
    pub failures: u64,
    /// Mean duration of successful executions (seconds).
    pub mean_duration_s: f64,
}

impl PerformanceStats {
    fn record(&mut self, r: &ExecutionRecord) {
        if r.success {
            // Incremental mean over successes only.
            let n = self.successes as f64;
            self.mean_duration_s = (self.mean_duration_s * n + r.duration_s) / (n + 1.0);
            self.successes += 1;
        } else {
            self.failures += 1;
        }
    }
}

/// The brokerage service core.
#[derive(Debug, Clone, Default)]
pub struct BrokerageService {
    /// Snapshot: service name → container ids believed able to execute it.
    snapshot: BTreeMap<String, Vec<String>>,
    /// Snapshot: resource equivalence classes → resource ids.
    classes: BTreeMap<String, Vec<String>>,
    /// Past performance, keyed by (service, container).
    performance: BTreeMap<(String, String), PerformanceStats>,
    history_cursor: usize,
}

impl BrokerageService {
    /// An empty broker (refresh before first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a fresh snapshot of the world: service → executable
    /// containers, resource equivalence classes, and ingest any new
    /// history records into the performance database.
    pub fn refresh(&mut self, world: &GridWorld) {
        self.snapshot.clear();
        for offering in world.offerings.keys() {
            self.snapshot
                .insert(offering.clone(), world.executable_containers(offering));
        }
        self.classes.clear();
        for r in &world.topology.resources {
            self.classes
                .entry(r.equivalence_class())
                .or_default()
                .push(r.id.clone());
        }
        self.ingest_history(world);
    }

    /// Ingest history records added since the last refresh (performance
    /// data keeps flowing even when the availability snapshot is stale).
    pub fn ingest_history(&mut self, world: &GridWorld) {
        for r in &world.history[self.history_cursor.min(world.history.len())..] {
            self.performance
                .entry((r.service.clone(), r.container.clone()))
                .or_default()
                .record(r);
        }
        self.history_cursor = world.history.len();
    }

    /// Containers believed (as of the last refresh) able to execute
    /// `service` — step 2 of the Fig. 3 probe: "the planning service
    /// contacts the brokerage service to get a group of Application
    /// Containers that can possibly provide the execution of the
    /// activity".  May be stale.
    pub fn candidate_containers(&self, service: &str) -> Vec<String> {
        self.snapshot.get(service).cloned().unwrap_or_default()
    }

    /// The resource equivalence classes of the last snapshot.
    pub fn equivalence_classes(&self) -> &BTreeMap<String, Vec<String>> {
        &self.classes
    }

    /// Performance statistics for a (service, container) pair.
    pub fn performance(&self, service: &str, container: &str) -> PerformanceStats {
        self.performance
            .get(&(service.to_owned(), container.to_owned()))
            .copied()
            .unwrap_or_default()
    }

    /// Mean historical duration of `service` across containers, if known.
    /// Used for soft-deadline feasibility ("the search … must be
    /// complemented by the ability to access history information about
    /// the past execution of the task", §1).
    pub fn expected_duration(&self, service: &str) -> Option<f64> {
        let stats: Vec<&PerformanceStats> = self
            .performance
            .iter()
            .filter(|((s, _), p)| s == service && p.successes > 0)
            .map(|(_, p)| p)
            .collect();
        if stats.is_empty() {
            None
        } else {
            Some(stats.iter().map(|p| p.mean_duration_s).sum::<f64>() / stats.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{OutputSpec, ServiceOffering};
    use gridflow_grid::GridTopology;

    fn world() -> GridWorld {
        let mut w = GridWorld::new(GridTopology::generate(6, &["S".into()], 7));
        w.offer(ServiceOffering::new(
            "S",
            Vec::<String>::new(),
            vec![OutputSpec::plain("Out")],
        ));
        w
    }

    #[test]
    fn snapshot_lists_candidates_and_goes_stale() {
        let mut w = world();
        let mut broker = BrokerageService::new();
        broker.refresh(&w);
        let before = broker.candidate_containers("S");
        assert!(!before.is_empty());
        // The world drifts: a container dies. The broker still claims it.
        let victim = before[0].clone();
        w.set_container_up(&victim, false).unwrap();
        assert!(broker.candidate_containers("S").contains(&victim));
        // After a refresh the broker catches up.
        broker.refresh(&w);
        assert!(!broker.candidate_containers("S").contains(&victim));
    }

    #[test]
    fn unknown_service_has_no_candidates() {
        let w = world();
        let mut broker = BrokerageService::new();
        broker.refresh(&w);
        assert!(broker.candidate_containers("nope").is_empty());
    }

    #[test]
    fn performance_database_accumulates() {
        let mut w = world();
        let mut broker = BrokerageService::new();
        let c = w.executable_containers("S")[0].clone();
        w.execute_service("S", &c).unwrap();
        w.execute_service("S", &c).unwrap();
        broker.refresh(&w);
        let stats = broker.performance("S", &c);
        assert_eq!(stats.successes, 2);
        assert_eq!(stats.failures, 0);
        assert!(stats.mean_duration_s > 0.0);
        assert!(broker.expected_duration("S").is_some());
        assert!(broker.expected_duration("T").is_none());
    }

    #[test]
    fn failures_are_counted_apart_from_successes() {
        let mut w = world();
        w.failure = gridflow_grid::failure::FailureModel::new(1, 1.0);
        w.failures_are_persistent = false;
        let c = w.executable_containers("S")[0].clone();
        let _ = w.execute_service("S", &c);
        w.failure = gridflow_grid::failure::FailureModel::none();
        w.execute_service("S", &c).unwrap();
        let mut broker = BrokerageService::new();
        broker.refresh(&w);
        let stats = broker.performance("S", &c);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.successes, 1);
    }

    #[test]
    fn ingest_is_incremental_not_double_counting() {
        let mut w = world();
        let mut broker = BrokerageService::new();
        let c = w.executable_containers("S")[0].clone();
        w.execute_service("S", &c).unwrap();
        broker.refresh(&w);
        broker.refresh(&w); // second refresh must not re-ingest
        assert_eq!(broker.performance("S", &c).successes, 1);
    }

    #[test]
    fn equivalence_classes_cover_all_resources() {
        let w = world();
        let mut broker = BrokerageService::new();
        broker.refresh(&w);
        let total: usize = broker.equivalence_classes().values().map(Vec::len).sum();
        assert_eq!(total, w.topology.resources.len());
    }
}
