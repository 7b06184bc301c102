//! The planning service core (§3.3): "The function of the planning
//! service in our framework is to generate valid process descriptions,
//! for the end users."
//!
//! A [`PlanRequest`] carries what the coordination service sends in
//! Fig. 2 — "1) the set of the initial data available to the end user,
//! 2) the goal of planning, and 3) other useful information" — plus, for
//! re-planning (Fig. 3), the data already produced and the activities
//! observed to be non-executable.

use crate::error::{Result, ServiceError};
use crate::plan_cache::{PlanCacheHandle, PlanFetchOutcome};
use crate::world::GridWorld;
use gridflow_plan::{canonicalize, tree_to_graph, PlanNode};
use gridflow_planner::prelude::*;
use gridflow_process::ProcessGraph;
use gridflow_telemetry::{TraceEvent, TraceHandle, TraceSink};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A planning (or re-planning) request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PlanRequest {
    /// Classifications of the initially available data.
    pub initial: Vec<String>,
    /// Goal specifications.
    pub goals: Vec<GoalSpec>,
    /// Re-planning: classifications already produced by the aborted
    /// enactment.
    pub produced: Vec<String>,
    /// Re-planning: service names to avoid.
    pub excluded: Vec<String>,
}

/// A produced plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanResponse {
    /// The winning plan tree (simplified and canonical).
    pub tree: PlanNode,
    /// The same plan lowered to activity/transition form, ready for
    /// enactment.
    pub graph: ProcessGraph,
    /// Fitness of the raw GP winner.
    pub fitness: Fitness,
    /// Whether the plan is perfect (valid everywhere, all goals met in
    /// simulation).  Imperfect plans are still returned — the
    /// coordination service decides whether to enact them.
    pub viable: bool,
    /// Per-generation statistics of the underlying run.
    pub history: Vec<GenerationStats>,
}

/// The planning service core.
#[derive(Debug, Clone, Default)]
pub struct PlanningService {
    /// GP configuration used for every request.
    pub config: GpConfig,
    /// Optional trace sink: per-generation GP statistics as events.
    trace: TraceHandle,
    /// Optional fleet-shared plan cache.
    cache: Option<PlanCacheHandle>,
}

impl PlanningService {
    /// A service with the given GP configuration.
    pub fn new(config: GpConfig) -> Self {
        PlanningService {
            config,
            trace: TraceHandle::none(),
            cache: None,
        }
    }

    /// Record a `PlanGeneration` event per GP generation into `sink`.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = TraceHandle::new(sink);
        self
    }

    /// Record through an existing (possibly empty) handle.
    pub fn with_trace_handle(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Serve same-key requests from this fleet-shared cache instead of
    /// re-running GP (builder form).
    pub fn with_plan_cache(mut self, cache: PlanCacheHandle) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Install a fleet-shared plan cache after construction.
    pub fn set_plan_cache(&mut self, cache: PlanCacheHandle) {
        self.cache = Some(cache);
    }

    /// The installed plan cache, if any.
    pub fn plan_cache(&self) -> Option<&PlanCacheHandle> {
        self.cache.as_ref()
    }

    /// Handle one (re-)planning request against the world's service
    /// catalog.
    ///
    /// With a plan cache installed, the request's [`PlanKey`] is
    /// resolved against it first: hits reuse the byte-identical cached
    /// plan (replaying its `plan.generation` history so traced runs stay
    /// conformant) and announce themselves with a `plan.cache_hit`
    /// event; misses emit `plan.cache_miss` and run GP exactly once per
    /// key fleet-wide.
    /// Without a cache the behavior (and trace) is unchanged.
    pub fn plan(&self, world: &GridWorld, request: &PlanRequest) -> Result<PlanResponse> {
        let mut initial = request.initial.clone();
        initial.extend(request.produced.iter().cloned());
        let problem = world
            .planning_problem(initial, request.goals.clone())
            .without_activities(request.excluded.iter().map(String::as_str));
        if problem.activities.is_empty() {
            return Err(ServiceError::NoViablePlan(
                "no activities remain after exclusions".into(),
            ));
        }
        let Some(cache) = &self.cache else {
            return self.run_gp(problem);
        };
        let key = PlanKey::compute(&self.config, &problem, &request.excluded);
        let outcome = cache.fetch_or_plan(key, || {
            // The miss announcement precedes the GP run so the
            // generation events that follow read as its body.
            self.trace
                .emit("planner", TraceEvent::PlanCacheMiss { key: key.hex() });
            self.run_gp(problem).map(Arc::new)
        });
        match outcome {
            PlanFetchOutcome::Hit(response) => {
                self.trace
                    .emit("planner", TraceEvent::PlanCacheHit { key: key.hex() });
                self.replay_history(&response);
                Ok((*response).clone())
            }
            PlanFetchOutcome::Ran(result) => result.map(|r| (*r).clone()),
        }
    }

    /// Run GP on the (post-exclusion) problem and package the winner.
    fn run_gp(&self, problem: PlanningProblem) -> Result<PlanResponse> {
        let result = GpPlanner::new(self.config, problem).run();
        if self.trace.is_installed() {
            for g in &result.history {
                self.trace.emit(
                    "planner",
                    TraceEvent::PlanGeneration {
                        generation: g.generation,
                        best_overall: g.best.overall,
                        mean_overall: g.mean_overall,
                        mean_size: g.mean_size,
                    },
                );
            }
        }
        let viable = result.best_fitness.is_perfect();
        // Export form: abstract (`true`-conditioned) loops unroll to the
        // single pass the fitness simulation evaluated, then simplify and
        // canonicalize.
        let tree = result
            .best
            .unroll_abstract_iteratives()
            .simplify()
            .map(|t| canonicalize(&t))
            .unwrap_or(PlanNode::Sequential(vec![]));
        let graph = tree_to_graph("plan", &tree)?;
        Ok(PlanResponse {
            tree,
            graph,
            fitness: result.best_fitness,
            viable,
            history: result.history,
        })
    }

    /// Re-emit a cached run's per-generation statistics, so a trace
    /// with a warm cache carries the same `plan.generation` events a
    /// cold run would have produced.
    fn replay_history(&self, response: &PlanResponse) {
        if self.trace.is_installed() {
            for g in &response.history {
                self.trace.emit(
                    "planner",
                    TraceEvent::PlanGeneration {
                        generation: g.generation,
                        best_overall: g.best.overall,
                        mean_overall: g.mean_overall,
                        mean_size: g.mean_size,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{OutputSpec, ServiceOffering};
    use gridflow_grid::GridTopology;

    fn world() -> GridWorld {
        let names: Vec<String> = ["prep", "cook", "plate"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut w = GridWorld::new(GridTopology::generate(4, &names, 5));
        w.offer(ServiceOffering::new(
            "prep",
            ["Raw"],
            vec![OutputSpec::plain("Prepped")],
        ));
        w.offer(ServiceOffering::new(
            "cook",
            ["Prepped"],
            vec![OutputSpec::plain("Cooked")],
        ));
        w.offer(ServiceOffering::new(
            "plate",
            ["Cooked"],
            vec![OutputSpec::plain("Plated")],
        ));
        w
    }

    fn planner() -> PlanningService {
        PlanningService::new(GpConfig {
            population_size: 80,
            generations: 25,
            seed: 3,
            ..GpConfig::default()
        })
    }

    fn request() -> PlanRequest {
        PlanRequest {
            initial: vec!["Raw".into()],
            goals: vec![GoalSpec {
                classification: "Plated".into(),
                min_count: 1,
            }],
            produced: vec![],
            excluded: vec![],
        }
    }

    #[test]
    fn plans_a_three_step_chain() {
        let response = planner().plan(&world(), &request()).unwrap();
        assert!(response.viable, "fitness {:?}", response.fitness);
        let acts = response.tree.activities();
        assert!(acts.contains(&"prep"));
        assert!(acts.contains(&"cook"));
        assert!(acts.contains(&"plate"));
        response.graph.validate().unwrap();
    }

    #[test]
    fn produced_data_is_credited() {
        let mut req = request();
        req.produced = vec!["Cooked".into()];
        let response = planner().plan(&world(), &req).unwrap();
        assert!(response.viable);
        // `plate` alone suffices once `Cooked` exists; a minimal plan
        // should not need all three services.
        assert!(response.tree.size() <= 4, "tree: {:?}", response.tree);
    }

    #[test]
    fn exclusions_are_honored() {
        let mut req = request();
        req.excluded = vec!["plate".into()];
        let response = planner().plan(&world(), &req).unwrap();
        assert!(!response.viable, "plating is the only path to Plated");
        assert!(!response.tree.activities().contains(&"plate"));
    }

    /// [`world`] plus a two-step detour around `cook`: `marinate`
    /// (Prepped → Marinated), then `grill` (Marinated → Cooked).
    fn world_with_detour() -> GridWorld {
        let mut w = world();
        w.offer(ServiceOffering::new(
            "marinate",
            ["Prepped"],
            vec![OutputSpec::plain("Marinated")],
        ));
        w.offer(ServiceOffering::new(
            "grill",
            ["Marinated"],
            vec![OutputSpec::plain("Cooked")],
        ));
        w
    }

    #[test]
    fn an_excluded_service_is_routed_around_through_a_detour() {
        let mut req = request();
        req.excluded = vec!["cook".into()];
        let response = planner().plan(&world_with_detour(), &req).unwrap();
        assert!(response.viable, "fitness {:?}", response.fitness);
        let acts = response.tree.activities();
        assert!(!acts.contains(&"cook"), "excluded service reused: {acts:?}");
        assert!(acts.contains(&"marinate") && acts.contains(&"grill"));
    }

    #[test]
    fn produced_data_combines_with_exclusions() {
        // `Marinated` was produced before the failure; only `grill` and
        // `plate` are needed now, even though `marinate` is excluded.
        let mut req = request();
        req.produced = vec!["Marinated".into()];
        req.excluded = vec!["cook".into(), "marinate".into()];
        let response = planner().plan(&world_with_detour(), &req).unwrap();
        assert!(response.viable, "fitness {:?}", response.fitness);
        let acts = response.tree.activities();
        assert!(acts.contains(&"grill"), "{acts:?}");
        assert!(!acts.contains(&"marinate") && !acts.contains(&"cook"));
    }

    #[test]
    fn excluding_everything_is_an_error() {
        let mut req = request();
        req.excluded = vec!["prep".into(), "cook".into(), "plate".into()];
        assert!(matches!(
            planner().plan(&world(), &req),
            Err(ServiceError::NoViablePlan(_))
        ));
    }

    #[test]
    fn cache_hit_returns_byte_identical_plan() {
        use crate::plan_cache::PlanCacheHandle;
        let cache = PlanCacheHandle::in_proc();
        let service = planner().with_plan_cache(cache.clone());
        let cold = service.plan(&world(), &request()).unwrap();
        assert_eq!(cache.len(), 1);
        let warm = service.plan(&world(), &request()).unwrap();
        assert_eq!(cold, warm, "cache hits must be byte-identical");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        // A semantically different request keys separately.
        let mut other = request();
        other.excluded = vec!["cook".into()];
        let _ = service.plan(&world(), &other).unwrap();
        assert_eq!(cache.len(), 2);
        // And an uncached service is oblivious to all of it.
        let uncached = planner().plan(&world(), &request()).unwrap();
        assert_eq!(uncached, cold);
    }

    #[test]
    fn cached_runs_replay_identical_trace_events() {
        use crate::plan_cache::PlanCacheHandle;
        use gridflow_telemetry::TraceLog;
        use std::sync::Arc;

        let record = |service: &PlanningService| -> Vec<gridflow_telemetry::TraceRecord> {
            let log = Arc::new(TraceLog::new());
            let traced = service.clone().with_trace(log.clone());
            traced.plan(&world(), &request()).unwrap();
            log.records()
        };

        let uncached = record(&planner());
        let cache = PlanCacheHandle::in_proc();
        let cached = planner().with_plan_cache(cache.clone());
        let cold = record(&cached);
        let warm = record(&cached);

        // Cold = one miss announcement + the verbatim uncached events;
        // warm = one hit announcement + the replayed history.
        assert_eq!(cold.len(), uncached.len() + 1);
        assert_eq!(warm.len(), uncached.len() + 1);
        assert_eq!(cold[0].event.label(), "plan.cache_miss");
        assert_eq!(warm[0].event.label(), "plan.cache_hit");
        assert_eq!(cold[0].event.plan_key(), warm[0].event.plan_key());
        for (i, u) in uncached.iter().enumerate() {
            assert_eq!(cold[i + 1].event, u.event);
            assert_eq!(warm[i + 1].event, u.event);
        }
    }

    #[test]
    fn response_graph_matches_tree() {
        let response = planner().plan(&world(), &request()).unwrap();
        let mut from_graph: Vec<String> = response
            .graph
            .end_user_activities()
            .map(|a| a.service.clone().unwrap())
            .collect();
        let mut from_tree: Vec<String> = response
            .tree
            .activities()
            .iter()
            .map(|s| s.to_string())
            .collect();
        from_graph.sort();
        from_tree.sort();
        assert_eq!(from_graph, from_tree);
    }
}
