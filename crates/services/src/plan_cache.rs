//! Fleet-shared, content-addressed plan cache.
//!
//! GP planning is a pure function of `(GpConfig, PlanningProblem)` (see
//! `gridflow_planner::key`), so once any case in a fleet has planned a
//! given [`PlanKey`], every other same-key request — 511 identical-goal
//! siblings, or every case re-planning after a node loss — can reuse
//! the byte-identical result instead of re-running the search.
//!
//! The engine steps its fibers one at a time, so re-plans reach the
//! cache in canonical order: the first request for a key misses, runs
//! GP and publishes the plan, and every later one hits.  The handle is
//! cheap to clone and is shared fleet-wide: every `CaseFiber` holding a
//! clone sees every other case's plans.

use crate::error::ServiceError;
use crate::planning::PlanResponse;
use gridflow_planner::PlanKey;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// How one [`PlanCacheHandle::fetch_or_plan`] call resolved.
#[derive(Debug, Clone)]
pub enum PlanFetchOutcome {
    /// Served from the cache; no GP run.
    Hit(Arc<PlanResponse>),
    /// This caller ran GP; a success is now in the cache.
    Ran(Result<Arc<PlanResponse>, ServiceError>),
}

/// Monotonic counters kept by a [`PlanCacheHandle`] (cheap to read,
/// maintained without tracing — the bench reads these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that ran GP.
    pub misses: u64,
}

impl PlanCacheStats {
    /// Hit rate over all requests; 0 when nothing has been requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// The cached plans by key, and the counters.
#[derive(Default)]
struct Entries {
    plans: BTreeMap<PlanKey, Arc<PlanResponse>>,
    stats: PlanCacheStats,
}

/// A cloneable, fleet-shared plan cache.  Clones share everything.
#[derive(Clone, Default)]
pub struct PlanCacheHandle {
    entries: Arc<Mutex<Entries>>,
}

impl fmt::Debug for PlanCacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCacheHandle")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl PlanCacheHandle {
    /// A handle over a fresh, empty cache.
    pub fn in_proc() -> Self {
        Self::default()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.lock().plans.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.entries.lock().stats
    }

    /// Resolve `key`: a cached plan, or a fresh run of `run` whose
    /// success is published for every later request.  `run` executes
    /// outside the lock.
    pub fn fetch_or_plan(
        &self,
        key: PlanKey,
        run: impl FnOnce() -> Result<Arc<PlanResponse>, ServiceError>,
    ) -> PlanFetchOutcome {
        {
            let mut entries = self.entries.lock();
            if let Some(response) = entries.plans.get(&key).cloned() {
                entries.stats.hits += 1;
                return PlanFetchOutcome::Hit(response);
            }
            entries.stats.misses += 1;
        }
        let result = run();
        if let Ok(response) = &result {
            self.entries.lock().plans.insert(key, response.clone());
        }
        PlanFetchOutcome::Ran(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_plan::PlanNode;
    use gridflow_planner::prelude::*;
    use gridflow_process::ProcessGraph;

    fn key(n: u64) -> PlanKey {
        let cfg = GpConfig {
            seed: n,
            ..GpConfig::default()
        };
        let problem = PlanningProblem::builder().initial(["Raw"]).build();
        PlanKey::compute(&cfg, &problem, &[])
    }

    fn response() -> Arc<PlanResponse> {
        Arc::new(PlanResponse {
            tree: PlanNode::Sequential(vec![]),
            graph: ProcessGraph::new("plan"),
            fitness: Fitness {
                validity: 0.0,
                goal: 0.0,
                representation: 1.0,
                overall: 0.3,
                size: 1,
            },
            viable: false,
            history: vec![],
        })
    }

    #[test]
    fn fetch_runs_once_then_hits() {
        let handle = PlanCacheHandle::in_proc();
        let first = handle.fetch_or_plan(key(1), || Ok(response()));
        assert!(matches!(first, PlanFetchOutcome::Ran(Ok(_))));
        let second = handle.fetch_or_plan(key(1), || panic!("must not run again"));
        assert!(matches!(second, PlanFetchOutcome::Hit(_)));
        let stats = handle.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_runs_are_not_cached() {
        let handle = PlanCacheHandle::in_proc();
        let first = handle.fetch_or_plan(key(1), || Err(ServiceError::NoViablePlan("boom".into())));
        assert!(matches!(first, PlanFetchOutcome::Ran(Err(_))));
        assert!(handle.is_empty());
        // The key is retryable: the next caller runs GP afresh.
        let second = handle.fetch_or_plan(key(1), || Ok(response()));
        assert!(matches!(second, PlanFetchOutcome::Ran(Ok(_))));
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn clones_share_one_cache_and_fresh_handles_do_not() {
        let a = PlanCacheHandle::in_proc();
        let b = a.clone();
        let c = PlanCacheHandle::in_proc();
        a.fetch_or_plan(key(1), || Ok(response()));
        assert!(matches!(
            b.fetch_or_plan(key(1), || panic!("a clone must hit")),
            PlanFetchOutcome::Hit(_)
        ));
        assert_eq!((a.stats().hits, b.len(), c.len()), (1, 1, 0));
        assert!(format!("{a:?}").contains("PlanCacheHandle"));
    }
}
