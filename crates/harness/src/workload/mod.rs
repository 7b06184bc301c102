//! Canonical workloads the harness drives faults against.
//!
//! A [`Workload`] bundles everything one enactment needs — a world
//! builder (fresh state per run, so replays start identically), a
//! process graph, a case description, and an enactment configuration.
//! Three families live here:
//!
//! * the hand-built `dinner` family (this module), mirroring the
//!   coordination-service test fixture: each service hosted on two
//!   dedicated containers, with `nuke` as an alternative cooker so
//!   replanning has somewhere to go;
//! * the seeded generator ([`gen::WorkloadGen`]), which stamps out
//!   workloads along the Yu & Buyya taxonomy axes — graph shape, width,
//!   depth, duration profile, capacity heterogeneity;
//! * the paper's §4 case study ([`virus::virus_reconstruction_workload`]),
//!   the Figs. 10–13 virus-reconstruction workflow as an engine
//!   workload.

use crate::plan::FaultPlan;
use gridflow_grid::container::ApplicationContainer;
use gridflow_grid::failure::FailureModel;
use gridflow_grid::resource::{Resource, ResourceKind};
use gridflow_grid::GridTopology;
use gridflow_planner::prelude::GpConfig;
use gridflow_planner::GoalSpec;
use gridflow_process::lower::lower;
use gridflow_process::parser::parse_process;
use gridflow_process::{CaseDescription, Condition, DataItem, ProcessGraph};
use gridflow_recovery::RecoveryPolicy;
use gridflow_services::coordination::EnactmentConfig;
use gridflow_services::world::{GridWorld, OutputSpec, ServiceOffering, FRESH_ID_BASE};
use std::sync::Arc;

pub mod gen;
pub mod virus;

pub use gen::{DurationProfile, GraphShape, WorkloadGen};
pub use virus::virus_reconstruction_workload;

/// Builds a fresh [`GridWorld`] per run, so replays start identically.
///
/// Wraps either a plain `fn` (the hand-built workloads) or a captured
/// closure (generated workloads, whose topology and capacity profile
/// are derived from a seed at build time).  Cloning shares the builder;
/// every [`WorldBuilder::build`] call still returns an independent
/// world, so runs can't smuggle state between each other.
#[derive(Clone)]
pub struct WorldBuilder(Arc<dyn Fn() -> GridWorld + Send + Sync>);

impl WorldBuilder {
    /// Wrap a capturing builder closure.
    pub fn new(f: impl Fn() -> GridWorld + Send + Sync + 'static) -> Self {
        WorldBuilder(Arc::new(f))
    }

    /// Build a fresh world.
    pub fn build(&self) -> GridWorld {
        (self.0)()
    }
}

impl From<fn() -> GridWorld> for WorldBuilder {
    fn from(f: fn() -> GridWorld) -> Self {
        WorldBuilder(Arc::new(f))
    }
}

impl std::fmt::Debug for WorldBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WorldBuilder(..)")
    }
}

/// One fault-injection scenario's fixed inputs.
#[derive(Clone)]
pub struct Workload {
    /// Scenario name (for logs and failure messages).
    pub name: String,
    /// The workflow to enact.
    pub graph: ProcessGraph,
    /// The case driving it.
    pub case: CaseDescription,
    /// Enactment configuration.
    pub config: EnactmentConfig,
    /// Builds a fresh world (all containers up, no failure model).
    pub world_builder: WorldBuilder,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("graph", &self.graph.name)
            .finish()
    }
}

impl Workload {
    /// A fresh world with this plan's failure model and slowdowns
    /// installed.  `_phase` is read by nothing: a recovered run restores
    /// its world, failure stream included, from the durable store.  Kept
    /// only because `benchmark/src/{fleet,probes}.rs` pass it and that
    /// directory is frozen between benchmark-archetype PRs.
    pub fn fresh_world(&self, plan: &FaultPlan, _phase: usize) -> GridWorld {
        let mut world = self.world_builder.build();
        if plan.activity_failure_prob > 0.0 {
            world.failure = FailureModel::new(plan.seed, plan.activity_failure_prob);
            world.failures_are_persistent = plan.persistent_activity_failures;
        }
        for s in &plan.slow_containers {
            world.set_slowdown(&s.container, s.factor);
        }
        world
    }

    /// The same workload with the given recovery policy installed in the
    /// enactment configuration.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// A structural fingerprint of the workload: graph, case, and the
    /// built world's topology, catalog, and capacity overrides, all
    /// rendered deterministically.  Two workloads with equal
    /// fingerprints enact identically under equal plans — the
    /// seed-determinism tests compare these byte-for-byte.
    pub fn fingerprint(&self) -> String {
        let world = self.world_builder.build();
        let mut containers: Vec<String> = world
            .topology
            .containers
            .iter()
            .map(|c| {
                format!(
                    "{}@{} hosting {:?} capacity {}",
                    c.id,
                    c.resource_id,
                    c.services,
                    world.capacity_of(&c.id)
                )
            })
            .collect();
        containers.sort();
        let mut offerings: Vec<String> =
            world.offerings.values().map(|o| format!("{o:?}")).collect();
        offerings.sort();
        format!(
            "name: {}\ngraph: {:?}\ncase: {:?}\ncontainers: {containers:#?}\nofferings: {offerings:#?}\n",
            self.name, self.graph, self.case
        )
    }
}

/// Fresh ids a [`produced_goal`] ranges over (`D101..=D220`): room for a
/// re-planned case, whose GP winner may run more activities than the
/// original graph, and for generated shapes of up to 120 fresh outputs.
const FRESH_GOAL_WINDOW: usize = 120;

/// Goal condition "some item this case produced is classified
/// `classification`".  Fresh ids are case-local (see
/// [`GridWorld::apply_outputs`]): every case mints `D101`, `D102`, … from
/// its own data state, so one fixed window above [`FRESH_ID_BASE`]
/// serves the dinner family and the generated shapes alike, whatever
/// else shares the world.
fn produced_goal(classification: &str) -> Condition {
    (FRESH_ID_BASE + 1..=FRESH_ID_BASE + FRESH_GOAL_WINDOW)
        .map(|n| Condition::classified(format!("D{n}"), classification))
        .reduce(Condition::or)
        .expect("the goal window is not empty")
}

/// The dinner topology: each of `prep`, `cook`, `nuke`, `plate` hosted
/// on two dedicated containers (`ac-h0`…`ac-h7`), so failing one
/// service's hosts never disables another service.
pub fn dinner_topology() -> GridTopology {
    let mut resources = Vec::new();
    let mut containers = Vec::new();
    let hosting: [(&str, &[&str]); 8] = [
        ("h0", &["prep"]),
        ("h1", &["prep"]),
        ("h2", &["cook"]),
        ("h3", &["cook"]),
        ("h4", &["nuke"]),
        ("h5", &["nuke"]),
        ("h6", &["plate"]),
        ("h7", &["plate"]),
    ];
    for (i, (name, services)) in hosting.iter().enumerate() {
        resources.push(
            Resource::new(*name, ResourceKind::PcCluster)
                .with_nodes(4 + i as u32)
                .with_software(services.iter().map(|s| s.to_string())),
        );
        containers.push(
            ApplicationContainer::new(format!("ac-{name}"), *name)
                .hosting(services.iter().map(|s| s.to_string())),
        );
    }
    GridTopology {
        resources,
        containers,
    }
}

/// The dinner topology scaled out: `replicas` dedicated containers per
/// service instead of two, interleaved by service so consecutive
/// container positions mix all four services.  This is the fleet-bench
/// shape — enough capacity that the schedule is compute-bound rather
/// than contention-bound.
pub fn dinner_topology_scaled(replicas: usize) -> GridTopology {
    let services = ["prep", "cook", "nuke", "plate"];
    let mut resources = Vec::new();
    let mut containers = Vec::new();
    for replica in 0..replicas.max(1) {
        for (slot, service) in services.iter().enumerate() {
            let name = format!("{service}{replica}");
            resources.push(
                Resource::new(&name, ResourceKind::PcCluster)
                    .with_nodes(4 + slot as u32)
                    .with_software([service.to_string()]),
            );
            containers.push(
                ApplicationContainer::new(format!("ac-{name}"), &name)
                    .hosting([service.to_string()]),
            );
        }
    }
    GridTopology {
        resources,
        containers,
    }
}

/// The dinner workload over [`dinner_topology_scaled`].  `_fleet` is
/// read by nothing (see [`dinner_case_for_fleet`]).
pub fn dinner_workload_scaled(replicas: usize, _fleet: usize) -> Workload {
    let mut wl = dinner_workload();
    wl.name = format!("dinner-x{replicas}");
    wl.world_builder = WorldBuilder::new(move || {
        let mut w = GridWorld::new(dinner_topology_scaled(replicas));
        offer_dinner_services(&mut w);
        // Every fiber ranks candidates identically, so with the default
        // one slot per container a whole fleet funnels into the same few
        // top-ranked hosts each tick.  Give each replica a real slot
        // budget so the schedule is compute-bound (machine rebuilds,
        // candidate ranking) rather than reservation-bound.
        for service in ["prep", "cook", "nuke", "plate"] {
            for container in w.hosting_containers(service) {
                w.set_capacity(&container, 16);
            }
        }
        w
    });
    wl
}

/// Install the four dinner service offerings on a world.
fn offer_dinner_services(w: &mut GridWorld) {
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
        "nuke",
        ["Prepped"],
        vec![OutputSpec::plain("Cooked")],
    ));
    w.offer(ServiceOffering::new(
        "plate",
        ["Cooked"],
        vec![OutputSpec::plain("Plated")],
    ));
}

/// The dinner world: `prep → cook|nuke → plate` over [`dinner_topology`].
pub fn dinner_world() -> GridWorld {
    let mut w = GridWorld::new(dinner_topology());
    offer_dinner_services(&mut w);
    w
}

/// The dinner case: one `Raw` item, goal `Plated`.
pub fn dinner_case() -> CaseDescription {
    CaseDescription::new("dinner")
        .with_data("D1", DataItem::classified("Raw"))
        .with_goal("G1", produced_goal("Plated"))
}

/// [`dinner_case`].  `_fleet` is read by nothing: fresh ids are
/// case-local, so a case's goal does not depend on how many cases share
/// its world.  Kept, like the `fleet` argument of
/// [`dinner_workload_scaled`], [`dinner_replan_workload_scaled`] and
/// [`WorkloadGen::fleet`], only because `benchmark/src/` calls it and
/// that directory is frozen between benchmark-archetype PRs.
pub fn dinner_case_for_fleet(_fleet: usize) -> CaseDescription {
    dinner_case()
}

/// The linear dinner workflow `prep; cook; plate`.
pub fn dinner_graph() -> ProcessGraph {
    let ast = parse_process("BEGIN prep; cook; plate; END").expect("dinner source parses");
    lower("dinner", &ast).expect("dinner graph lowers")
}

/// The baseline workload: linear dinner, no replanning.
pub fn dinner_workload() -> Workload {
    Workload {
        name: "dinner".into(),
        graph: dinner_graph(),
        case: dinner_case(),
        config: EnactmentConfig::default(),
        world_builder: WorldBuilder::new(dinner_world),
    }
}

/// The dinner replanning configuration: escalate to a GP planner
/// (population 80 × 25 generations, seeded `gp_seed`) aiming at one
/// `Plated` item.
fn replan_config(gp_seed: u64) -> EnactmentConfig {
    EnactmentConfig {
        max_replans: 3,
        planning_goals: vec![GoalSpec {
            classification: "Plated".into(),
            min_count: 1,
        }],
        gp: GpConfig {
            population_size: 80,
            generations: 25,
            seed: gp_seed,
            ..GpConfig::default()
        },
        ..EnactmentConfig::default()
    }
}

/// The replanning workload: same dinner, but activity failure on every
/// candidate escalates to the GP planner (which can route `cook` →
/// `nuke`).
pub fn dinner_replan_workload(gp_seed: u64) -> Workload {
    let mut w = dinner_workload();
    w.name = "dinner+replan".into();
    w.config = replan_config(gp_seed);
    w
}

/// The replanning workload over [`dinner_topology_scaled`]: the scaled
/// dinner with the same escalate-to-GP configuration as
/// [`dinner_replan_workload`].  The planning goal is `Plated`, count 1,
/// so every case's replan of the same failure shares one [`PlanKey`].
/// `fleet` is read by nothing (see [`dinner_case_for_fleet`]).
///
/// [`PlanKey`]: gridflow_planner::PlanKey
pub fn dinner_replan_workload_scaled(replicas: usize, fleet: usize, gp_seed: u64) -> Workload {
    let mut w = dinner_workload_scaled(replicas, fleet);
    w.name = format!("dinner+replan-x{replicas}");
    w.config = replan_config(gp_seed);
    w
}

/// [`cook_loss_churn_plan`] for [`dinner_topology_scaled`]: every
/// `cook` replica (`ac-cook0` … `ac-cook{replicas-1}`) dies together
/// after the fleet's first activity execution.
pub fn cook_loss_churn_plan_scaled(replicas: usize, seed: u64) -> FaultPlan {
    (0..replicas.max(1)).fold(FaultPlan::seeded(seed), |p, i| {
        p.losing_node(format!("ac-cook{i}"), 1)
    })
}

/// The replan-under-churn fault plan: both `cook` hosts (`ac-h2`,
/// `ac-h3`) die together after the fleet's first activity execution —
/// every in-flight case has finished `prep` (or is about to) and must
/// escalate to the GP planner to reroute `cook` → `nuke`.
///
/// The loss fires after execution 1, not 0, so cases are admitted while
/// a cook host is still alive (a loss at admission would reject the
/// case outright as having no live candidate container).  Combined
/// with [`dinner_replan_workload`] and `max_in_flight >= fleet`, every
/// case replans the *same* content-addressed problem — goal `Plated`,
/// produced `["Prepped"]`, excluded `["cook"]` — which is the
/// worst-case stampede a fleet-shared plan cache exists to absorb.
pub fn cook_loss_churn_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .losing_node("ac-h2", 1)
        .losing_node("ac-h3", 1)
}

/// The recovery workload: the baseline dinner under the standard
/// escalation ladder (retries with backoff, 60-tick leases, circuit
/// breakers) — the configuration the `recovery_failover` acceptance
/// scenario drives.
pub fn dinner_recovery_workload() -> Workload {
    let mut w = dinner_workload();
    w.name = "dinner+recovery".into();
    w.config.recovery = RecoveryPolicy::standard();
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_services::coordination::Enactor;

    #[test]
    fn dinner_happy_path_succeeds() {
        let wl = dinner_workload();
        let mut world = wl.fresh_world(&FaultPlan::default(), 0);
        let report = Enactor::builder()
            .config(wl.config.clone())
            .build()
            .enact(&mut world, &wl.graph, &wl.case);
        assert!(report.success, "abort: {:?}", report.abort_reason);
        assert_eq!(report.executions.len(), 3);
    }

    #[test]
    fn fresh_world_installs_the_plan_failure_model() {
        let wl = dinner_workload();
        let plan = FaultPlan::seeded(3)
            .failing_activities(1.0)
            .transient_failures();
        let mut world = wl.fresh_world(&plan, 0);
        assert!(!world.failures_are_persistent);
        let c = world.executable_containers("prep")[0].clone();
        assert!(world.execute_service("prep", &c).is_err());
    }

    #[test]
    fn fresh_world_installs_scripted_slowdowns() {
        let wl = dinner_workload();
        let plan = FaultPlan::seeded(9).slowing_container("ac-h1", 50.0);
        let world = wl.fresh_world(&plan, 0);
        assert_eq!(world.slowdowns.get("ac-h1"), Some(&50.0));
        assert!(!world.slowdowns.contains_key("ac-h0"));
    }

    #[test]
    fn recovery_workload_survives_a_slow_container_where_baseline_stalls() {
        // One slow `prep` host, no other faults.  The baseline trusts
        // the slow success and pays the stretched duration; the recovery
        // workload leases it out and fails over to the healthy host.
        let plan = FaultPlan::seeded(1).slowing_container("ac-h1", 50.0);
        let base = dinner_workload();
        let mut w = base.fresh_world(&plan, 0);
        let slow = Enactor::builder()
            .config(base.config.clone())
            .build()
            .enact(&mut w, &base.graph, &base.case);
        assert!(slow.success);
        assert_eq!(slow.executions[0].container, "ac-h1");

        let rec = dinner_recovery_workload();
        let mut w = rec.fresh_world(&plan, 0);
        let report = Enactor::builder()
            .config(rec.config.clone())
            .build()
            .enact(&mut w, &rec.graph, &rec.case);
        assert!(report.success, "abort: {:?}", report.abort_reason);
        assert_eq!(report.executions[0].container, "ac-h0");
        assert!(report.failed_attempts.iter().all(|(_, c)| c == "ac-h1"));
    }

    #[test]
    fn topology_isolates_services_per_container_pair() {
        let w = dinner_world();
        for s in ["prep", "cook", "nuke", "plate"] {
            assert_eq!(w.hosting_containers(s).len(), 2, "service {s}");
        }
    }
}
