//! Fleet-shared, content-addressed plan cache with single-flight
//! coalescing.
//!
//! GP planning is a pure function of `(GpConfig, PlanningProblem)` (see
//! `gridflow_planner::key`), so once any case in a fleet has planned a
//! given [`PlanKey`], every other same-key request — 511 identical-goal
//! siblings, or a storm of concurrent replans after a node loss — can
//! reuse the byte-identical result instead of re-running the search.
//!
//! Two mechanisms cooperate:
//!
//! * a [`PlanCache`] store (in-proc reference impl:
//!   [`InProcPlanCache`]) holding completed plans by content address;
//! * a **single-flight latch** on [`PlanCacheHandle`]: the first caller
//!   to miss on a key becomes the *leader* and runs GP outside the
//!   lock; later same-key callers subscribe to a `bounded(1)` broadcast
//!   channel and block until the leader publishes, so N concurrent cold
//!   requests run GP exactly once.
//!
//! The handle itself is cheap to clone and is shared fleet-wide: every
//! `CaseFiber` holding a clone sees every other case's plans.

use crate::error::ServiceError;
use crate::planning::PlanResponse;
use crossbeam_channel::{bounded, Sender};
use gridflow_planner::PlanKey;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Storage backend for completed plans, keyed by content address.
///
/// Implementations must be safe to share across threads; the reference
/// in-proc impl is a mutexed map, but the same trait admits an external
/// store (disk, network) without touching the planning layer.
pub trait PlanCache: Send + Sync {
    /// Fetch the cached plan for `key`, if present.
    fn get(&self, key: &PlanKey) -> Option<Arc<PlanResponse>>;
    /// Publish a completed plan under `key`.
    fn insert(&self, key: PlanKey, response: Arc<PlanResponse>);
    /// Number of cached plans.
    fn len(&self) -> usize;
    /// Is the cache empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The in-process reference [`PlanCache`]: a mutexed ordered map.
#[derive(Debug, Default)]
pub struct InProcPlanCache {
    entries: Mutex<BTreeMap<PlanKey, Arc<PlanResponse>>>,
}

impl PlanCache for InProcPlanCache {
    fn get(&self, key: &PlanKey) -> Option<Arc<PlanResponse>> {
        self.entries.lock().get(key).cloned()
    }

    fn insert(&self, key: PlanKey, response: Arc<PlanResponse>) {
        self.entries.lock().insert(key, response);
    }

    fn len(&self) -> usize {
        self.entries.lock().len()
    }
}

/// How one [`PlanCacheHandle::fetch_or_plan`] call resolved.
#[derive(Debug, Clone)]
pub enum PlanFetchOutcome {
    /// Served straight from the store; no GP run.
    Hit(Arc<PlanResponse>),
    /// This caller ran GP (cache miss, or a coalesce timeout forced an
    /// independent run); a success is now in the store.
    Ran(Result<Arc<PlanResponse>, ServiceError>),
    /// Another caller's in-flight same-key run was awaited and its
    /// result reused.
    Coalesced(Result<Arc<PlanResponse>, ServiceError>),
}

/// Monotonic counters kept by a [`PlanCacheHandle`] (cheap to read,
/// maintained without tracing — the bench reads these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Requests served from the store.
    pub hits: u64,
    /// Requests that ran GP.
    pub misses: u64,
    /// Requests that coalesced onto an in-flight run.
    pub coalesced: u64,
}

impl PlanCacheStats {
    /// Hit rate over all resolved requests (hits + coalesced count as
    /// avoided runs); 0 when nothing has been requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.coalesced;
        if total == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / total as f64
    }
}

#[derive(Default)]
struct Flight {
    waiters: Vec<Sender<Result<Arc<PlanResponse>, ServiceError>>>,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
}

/// A cloneable, fleet-shared handle bundling a [`PlanCache`] store with
/// the single-flight latch.  Clones share everything.
#[derive(Clone)]
pub struct PlanCacheHandle {
    store: Arc<dyn PlanCache>,
    flights: Arc<Mutex<BTreeMap<PlanKey, Flight>>>,
    counters: Arc<Counters>,
    /// Always [`Self::DEFAULT_WAIT`].  Still a field because the handle
    /// sits in every `CaseFiber`: its size is part of the fleet's
    /// allocation pattern, which the frozen benchmark's `peak_rss_mb`
    /// bounds (ROADMAP item 1).
    wait: Duration,
}

impl fmt::Debug for PlanCacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCacheHandle")
            .field("len", &self.store.len())
            .field("wait", &self.wait)
            .finish_non_exhaustive()
    }
}

impl Default for PlanCacheHandle {
    fn default() -> Self {
        Self::in_proc()
    }
}

impl PlanCacheHandle {
    /// Default patience for a coalescing caller awaiting an in-flight
    /// run before giving up and planning independently.
    pub const DEFAULT_WAIT: Duration = Duration::from_secs(30);

    /// A handle over the given store.
    pub fn new(store: Arc<dyn PlanCache>) -> Self {
        PlanCacheHandle {
            store,
            flights: Arc::new(Mutex::new(BTreeMap::new())),
            counters: Arc::new(Counters::default()),
            wait: Self::DEFAULT_WAIT,
        }
    }

    /// A handle over a fresh [`InProcPlanCache`].
    pub fn in_proc() -> Self {
        Self::new(Arc::new(InProcPlanCache::default()))
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Total callers currently parked across every open flight —
    /// lets race harnesses synchronize on "all followers are waiting"
    /// without knowing the key under contention.
    pub fn parked_waiters(&self) -> usize {
        self.flights.lock().values().map(|f| f.waiters.len()).sum()
    }

    /// Resolve `key`: store hit, coalesce onto an in-flight same-key
    /// run, or lead a fresh run of `run` (executed outside every lock so
    /// concurrent callers can subscribe).  Successful runs are published
    /// to the store and broadcast to every waiter.
    pub fn fetch_or_plan(
        &self,
        key: PlanKey,
        run: impl FnOnce() -> Result<Arc<PlanResponse>, ServiceError>,
    ) -> PlanFetchOutcome {
        let waiter = {
            let mut flights = self.flights.lock();
            // The store check lives under the flights lock so it is
            // atomic with the leader's publish-then-close-flight section
            // below: a request either sees the published plan, finds the
            // open flight, or becomes the leader — never none of those.
            if let Some(response) = self.store.get(&key) {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                return PlanFetchOutcome::Hit(response);
            }
            match flights.get_mut(&key) {
                Some(flight) => {
                    let (tx, rx) = bounded(1);
                    flight.waiters.push(tx);
                    Some(rx)
                }
                None => {
                    flights.insert(key, Flight::default());
                    None
                }
            }
        };

        if let Some(rx) = waiter {
            return match rx.recv_timeout(self.wait) {
                Ok(result) => {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    PlanFetchOutcome::Coalesced(result)
                }
                Err(_) => {
                    // The in-flight run never reported back in time;
                    // plan independently rather than deadlock.
                    self.counters.misses.fetch_add(1, Ordering::Relaxed);
                    let result = run();
                    if let Ok(response) = &result {
                        self.store.insert(key, response.clone());
                    }
                    PlanFetchOutcome::Ran(result)
                }
            };
        }

        // This caller leads the flight; run GP outside the lock.
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let result = run();
        let waiters = {
            let mut flights = self.flights.lock();
            if let Ok(response) = &result {
                self.store.insert(key, response.clone());
            }
            flights.remove(&key).map(|f| f.waiters).unwrap_or_default()
        };
        for tx in waiters {
            let _ = tx.send(result.clone());
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
    fn store_round_trips_and_counts() {
        let cache = InProcPlanCache::default();
        assert!(cache.is_empty());
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), response());
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn fetch_runs_once_then_hits() {
        let handle = PlanCacheHandle::in_proc();
        let first = handle.fetch_or_plan(key(1), || Ok(response()));
        assert!(matches!(first, PlanFetchOutcome::Ran(Ok(_))));
        let second = handle.fetch_or_plan(key(1), || panic!("must not run again"));
        assert!(matches!(second, PlanFetchOutcome::Hit(_)));
        let stats = handle.stats();
        assert_eq!((stats.misses, stats.hits, stats.coalesced), (1, 1, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_runs_are_not_cached() {
        let handle = PlanCacheHandle::in_proc();
        let first = handle.fetch_or_plan(key(1), || Err(ServiceError::NoViablePlan("boom".into())));
        assert!(matches!(first, PlanFetchOutcome::Ran(Err(_))));
        assert!(handle.is_empty());
        // The key is retryable: the next caller leads a fresh flight.
        let second = handle.fetch_or_plan(key(1), || Ok(response()));
        assert!(matches!(second, PlanFetchOutcome::Ran(Ok(_))));
        assert_eq!(handle.len(), 1);
    }

    #[test]
    fn concurrent_same_key_requests_coalesce_into_one_run() {
        let handle = PlanCacheHandle::in_proc();
        let k = key(7);
        let followers = 8;
        // The leader blocks inside its run until released, giving the
        // followers a deterministic window to subscribe.
        let (entered_tx, entered_rx) = bounded::<()>(0);
        let (release_tx, release_rx) = bounded::<()>(0);
        let runs = Arc::new(AtomicU64::new(0));

        std::thread::scope(|scope| {
            let leader = {
                let handle = handle.clone();
                let runs = Arc::clone(&runs);
                scope.spawn(move || {
                    handle.fetch_or_plan(k, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        Ok(response())
                    })
                })
            };
            entered_rx.recv().unwrap();

            let follower_handles: Vec<_> = (0..followers)
                .map(|_| {
                    let handle = handle.clone();
                    let runs = Arc::clone(&runs);
                    scope.spawn(move || {
                        handle.fetch_or_plan(k, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            Ok(response())
                        })
                    })
                })
                .collect();
            // Wait until every follower is parked on the flight, then
            // let the leader finish.
            while handle.parked_waiters() < followers {
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();

            assert!(matches!(
                leader.join().unwrap(),
                PlanFetchOutcome::Ran(Ok(_))
            ));
            for f in follower_handles {
                assert!(matches!(
                    f.join().unwrap(),
                    PlanFetchOutcome::Coalesced(Ok(_))
                ));
            }
        });

        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one GP run");
        let stats = handle.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.coalesced, followers as u64);
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
