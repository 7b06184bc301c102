//! The shared grid world: topology, market, service catalog, execution
//! history, failure model, and a virtual clock.
//!
//! All core services observe (and some mutate) this state — the
//! monitoring service probes container status, the brokerage service
//! reads the (possibly stale) catalog and performance history, the
//! coordination service executes activities against it, the matchmaking
//! service ranks candidate resources from it.

use crate::error::{Result, ServiceError};
use crate::matchmaking::MatchIndex;
use gridflow_grid::failure::FailureModel;
use gridflow_grid::workload::{estimate, TaskDemand};
use gridflow_grid::{GridError, GridTopology, SpotMarket};
use gridflow_ontology::Value;
use gridflow_planner::{ActivitySpec, GoalSpec, PlanningProblem};
use gridflow_process::{DataItem, DataState};
use gridflow_telemetry::Label;
use parking_lot::Mutex;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One output a service execution produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputSpec {
    /// Classification of the produced data item.
    pub classification: String,
    /// Fixed data id to (re)write (e.g. the case study's resolution file
    /// `D10`); `None` produces a fresh `D<n>` id per execution.
    pub data_id: Option<String>,
    /// If set, the item carries a numeric `Value` property starting here…
    pub value_start: Option<f64>,
    /// …and each further execution *refines the existing item*: its
    /// `Value` decreases by this step (iterative refinement — resolution
    /// improves pass by pass).  The step is applied to the value found in
    /// the data state, so refinement survives snapshots and re-plans.
    pub value_step: f64,
}

impl OutputSpec {
    /// A plain output: fresh data item of the given classification.
    pub fn plain(classification: impl Into<String>) -> Self {
        OutputSpec {
            classification: classification.into(),
            data_id: None,
            value_start: None,
            value_step: 0.0,
        }
    }

    /// A refinement output: a fixed data item whose `Value` starts at
    /// `start` and decreases by `step` per execution.
    pub fn refining(
        classification: impl Into<String>,
        data_id: impl Into<String>,
        start: f64,
        step: f64,
    ) -> Self {
        OutputSpec {
            classification: classification.into(),
            data_id: Some(data_id.into()),
            value_start: Some(start),
            value_step: step,
        }
    }
}

/// One end-user computing service offered on the grid (the `Service`
/// ontology class: input/output conditions plus a computational profile).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceOffering {
    /// Service name (e.g. `P3DR`).
    pub name: String,
    /// Required input classifications (multiset, like C1–C8 of Fig. 13).
    pub inputs: Vec<String>,
    /// Outputs produced per execution.
    pub outputs: Vec<OutputSpec>,
    /// Computational profile for the cost model.
    pub demand: TaskDemand,
}

impl ServiceOffering {
    /// A new offering with a coarse-grain default demand.
    pub fn new<I, S>(name: impl Into<String>, inputs: I, outputs: Vec<OutputSpec>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let name = name.into();
        ServiceOffering {
            demand: TaskDemand::coarse(name.clone(), 100.0, 10.0),
            name,
            inputs: inputs.into_iter().map(Into::into).collect(),
            outputs,
        }
    }

    /// Override the computational profile (builder style).
    pub fn with_demand(mut self, demand: TaskDemand) -> Self {
        self.demand = demand;
        self
    }

    /// The planner-facing view of this offering.
    pub fn activity_spec(&self) -> ActivitySpec {
        ActivitySpec::new(
            self.name.clone(),
            self.inputs.clone(),
            self.outputs
                .iter()
                .map(|o| o.classification.clone())
                .collect::<Vec<_>>(),
        )
    }
}

/// One historical execution (the brokerage service's "past performance
/// data bases").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRecord {
    /// Service executed.
    pub service: String,
    /// Container it ran on.
    pub container: String,
    /// Resource backing the container.
    pub resource: String,
    /// Wall-clock duration in seconds (virtual).
    pub duration_s: f64,
    /// Market cost.
    pub cost: f64,
    /// Did it complete?
    pub success: bool,
    /// Virtual completion time (seconds since world start).
    pub at_s: f64,
}

/// Fresh data ids are `D<n>` with `n` above this base: the first item a
/// case produces is `D101`.  Ids at or below it are the case
/// description's own (`D1` … of Fig. 13).
pub const FRESH_ID_BASE: usize = 100;

/// The shared world.
#[derive(Debug)]
pub struct GridWorld {
    /// Sites and containers.
    pub topology: GridTopology,
    /// The spot market over the topology's resources.
    pub market: SpotMarket,
    /// The end-user service catalog.
    pub offerings: BTreeMap<String, ServiceOffering>,
    /// Stochastic failure model.
    pub failure: FailureModel,
    /// Execution history.
    pub history: Vec<ExecutionRecord>,
    /// Virtual clock in seconds.
    pub clock_s: f64,
    /// When a stochastic failure strikes, does the container stay down
    /// (until recovered) or was it transient?
    pub failures_are_persistent: bool,
    /// Per-container duration multipliers (> 1.0 = degraded): executions
    /// still *succeed* but take longer — the failure mode activity
    /// leases exist to catch.  Cost is unchanged (you pay for nodes, not
    /// for their sluggishness).
    pub slowdowns: BTreeMap<String, f64>,
    /// Is the tick-scoped reservation protocol active?  Off by default:
    /// single-case enactment paths behave (and trace) exactly as before.
    reservations_enabled: bool,
    /// Per-container slot capacities; containers not listed have one slot.
    capacities: BTreeMap<String, usize>,
    /// Live reservations: container → case labels holding a slot.
    holds: BTreeMap<String, Vec<Label>>,
    /// Monotone counter bumped on every matchmaking-visible mutation
    /// (container up/down flips, catalog changes).  Cached candidate
    /// rankings and fiber dispatch plans key their validity to it.
    generation: u64,
    /// Lazily (re)built candidate index for [`crate::matchmaking`];
    /// invalidated by generation mismatch.  Interior mutability keeps
    /// `matchmake(&GridWorld, …)`'s signature unchanged.
    pub(crate) match_index: Mutex<Option<MatchIndex>>,
}

impl GridWorld {
    /// Build a world over a topology with no offerings and no failures.
    pub fn new(topology: GridTopology) -> Self {
        let market = SpotMarket::new(topology.resources.iter().cloned());
        GridWorld {
            topology,
            market,
            offerings: BTreeMap::new(),
            failure: FailureModel::none(),
            history: Vec::new(),
            clock_s: 0.0,
            failures_are_persistent: true,
            slowdowns: BTreeMap::new(),
            reservations_enabled: false,
            capacities: BTreeMap::new(),
            holds: BTreeMap::new(),
            generation: 0,
            match_index: Mutex::new(None),
        }
    }

    /// The world's matchmaking generation: a monotone counter bumped by
    /// every mutation a [`crate::matchmaking::matchmake`] call could
    /// observe (container up/down flips, catalog changes).  Consumers
    /// caching candidate rankings compare generations to decide whether
    /// their cache is still valid.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record a matchmaking-visible mutation.  The world's own methods
    /// call this automatically; call it yourself after mutating the pub
    /// `topology`/`offerings` fields directly, so cached candidate
    /// rankings notice the change.
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    // ------------------------------------------------ slot reservations
    //
    // Tick-scoped container reservations back the multi-case engine's
    // fair-contention guarantee: within one scheduler tick, each
    // container admits at most `capacity_of` concurrent case holds.
    // The protocol is opt-in (`enable_reservations`) so every
    // single-case path keeps its byte-identical legacy behavior.

    /// Turn the reservation protocol on or off.  While off,
    /// [`GridWorld::try_reserve`] always succeeds without recording a
    /// hold.
    pub fn enable_reservations(&mut self, enabled: bool) {
        self.reservations_enabled = enabled;
        if !enabled {
            self.holds.clear();
        }
    }

    /// Is the reservation protocol active?
    pub fn reservations_enabled(&self) -> bool {
        self.reservations_enabled
    }

    /// Override a container's slot capacity (default: one slot).
    pub fn set_capacity(&mut self, container: &str, slots: usize) {
        self.capacities.insert(container.to_owned(), slots);
    }

    /// A container's slot capacity (1 unless overridden).
    pub fn capacity_of(&self, container: &str) -> usize {
        self.capacities.get(container).copied().unwrap_or(1)
    }

    /// The declared capacity overrides (for trace assertions).
    pub fn capacities(&self) -> &BTreeMap<String, usize> {
        &self.capacities
    }

    /// Try to reserve one slot on `container` for `case`.  Returns
    /// `true` (and records the hold) when a slot is free, `false` when
    /// the container is fully booked this tick.  Always `true` while
    /// the protocol is disabled.
    pub fn try_reserve(&mut self, case: &Label, container: &str) -> bool {
        if !self.reservations_enabled {
            return true;
        }
        let capacity = self.capacity_of(container);
        let holders = self.holds.entry(container.to_owned()).or_default();
        if holders.len() >= capacity {
            return false;
        }
        holders.push(case.clone());
        true
    }

    /// Number of slots currently held on `container`.
    pub fn reserved_count(&self, container: &str) -> usize {
        self.holds.get(container).map_or(0, Vec::len)
    }

    /// Slots still free on `container` this tick (capacity minus live
    /// holds) — the O(log n) admission check the scheduler's fast path
    /// uses instead of re-ranking candidates.
    pub fn free_slots(&self, container: &str) -> usize {
        self.capacity_of(container)
            .saturating_sub(self.reserved_count(container))
    }

    /// Release every hold, returning `container → holders` in
    /// deterministic (BTreeMap) order — the engine calls this at each
    /// tick boundary and emits one `slot.released` event per hold.
    pub fn drain_reservations(&mut self) -> BTreeMap<String, Vec<Label>> {
        let mut drained = std::mem::take(&mut self.holds);
        drained.retain(|_, holders| !holders.is_empty());
        drained
    }

    /// Degrade (or restore, with `factor <= 1.0`) a container: its
    /// executions take `factor ×` the estimated duration.
    pub fn set_slowdown(&mut self, container: &str, factor: f64) {
        self.slowdowns.insert(container.to_owned(), factor.max(0.0));
    }

    /// Register a service offering.
    pub fn offer(&mut self, offering: ServiceOffering) {
        self.offerings.insert(offering.name.clone(), offering);
        self.bump_generation();
    }

    /// Look up an offering.
    pub fn offering(&self, name: &str) -> Result<&ServiceOffering> {
        self.offerings
            .get(name)
            .ok_or_else(|| ServiceError::UnknownOffering(name.to_owned()))
    }

    /// Ids of containers currently able to execute `service`.
    pub fn executable_containers(&self, service: &str) -> Vec<String> {
        self.topology
            .containers
            .iter()
            .filter(|c| c.can_execute(service))
            .map(|c| c.id.clone())
            .collect()
    }

    /// Ids of all containers hosting `service`, up or down.
    pub fn hosting_containers(&self, service: &str) -> Vec<String> {
        self.topology
            .containers_hosting(service)
            .map(|c| c.id.clone())
            .collect()
    }

    /// Take a container down / bring it back.
    pub fn set_container_up(&mut self, container: &str, up: bool) -> Result<()> {
        let c = self
            .topology
            .containers
            .iter_mut()
            .find(|c| c.id == container)
            .ok_or_else(|| ServiceError::Grid(GridError::UnknownContainer(container.into())))?;
        let flipped = c.up != up;
        if up {
            c.recover();
        } else {
            c.fail();
        }
        if flipped {
            self.bump_generation();
        }
        Ok(())
    }

    /// Execute `service` on `container`, advancing the virtual clock and
    /// recording history.  On a stochastic failure the record is marked
    /// unsuccessful and (if `failures_are_persistent`) the container goes
    /// down.
    pub fn execute_service(
        &mut self,
        service: &str,
        container_id: &str,
    ) -> Result<ExecutionRecord> {
        let offering = self
            .offerings
            .get(service)
            .ok_or_else(|| ServiceError::UnknownOffering(service.to_owned()))?;
        let container = self
            .topology
            .containers
            .iter_mut()
            .find(|c| c.id == container_id)
            .ok_or_else(|| {
                ServiceError::Grid(GridError::UnknownContainer(container_id.to_owned()))
            })?;
        if !container.up {
            return Err(ServiceError::Grid(GridError::ContainerDown(
                container_id.to_owned(),
            )));
        }
        if !container.hosts(service) {
            return Err(ServiceError::Grid(GridError::ServiceNotHosted {
                container: container_id.to_owned(),
                service: service.to_owned(),
            }));
        }
        let resource = self
            .topology
            .resources
            .iter()
            .find(|r| r.id == container.resource_id)
            .ok_or_else(|| {
                ServiceError::Grid(GridError::UnknownResource(container.resource_id.clone()))
            })?;
        let est = estimate(&offering.demand, resource);
        let slowdown = self.slowdowns.get(container_id).copied().unwrap_or(1.0);
        let duration_s = est.duration_s * slowdown;
        let failed = self.failure.execution_fails(resource.reliability);
        let resource = resource.id.clone();
        let mut went_down = false;
        if failed {
            container.failed += 1;
            if self.failures_are_persistent {
                went_down = container.up;
                container.fail();
            }
        } else {
            container.completed += 1;
        }
        if went_down {
            self.bump_generation();
        }
        self.clock_s += duration_s;
        let record = ExecutionRecord {
            service: service.to_owned(),
            container: container_id.to_owned(),
            resource,
            duration_s,
            cost: est.cost,
            success: !failed,
            at_s: self.clock_s,
        };
        self.history.push(record.clone());
        if failed {
            return Err(ServiceError::Grid(GridError::ContainerDown(
                container_id.to_owned(),
            )));
        }
        Ok(record)
    }

    /// Apply the outputs of a successful `service` execution to a data
    /// state, returning the produced classifications.  Fresh ids are
    /// case-local: an output without a fixed id takes the first `D<n>`
    /// above [`FRESH_ID_BASE`] that `state` does not hold, so a case is
    /// handed the same ids whatever else runs on this world, before or
    /// after a snapshot restore.
    pub fn apply_outputs(&self, service: &str, state: &mut DataState) -> Result<Vec<String>> {
        let mut produced = Vec::new();
        for output in &self.offering(service)?.outputs {
            let id = match &output.data_id {
                Some(fixed) => fixed.clone(),
                None => (FRESH_ID_BASE + 1..)
                    .map(|n| format!("D{n}"))
                    .find(|id| !state.contains(id))
                    .expect("the id range is unbounded"),
            };
            let mut item = DataItem::classified(output.classification.clone());
            if let Some(start) = output.value_start {
                // Refinement is a function of the data state (not world
                // history): a fresh item starts at `start`; an existing
                // one improves by `value_step`.
                let next = match state.property(&id, "Value").and_then(Value::as_float) {
                    Some(current) => current - output.value_step,
                    None => start,
                };
                item.set("Value", Value::Float(next));
            }
            state.insert(id, item);
            produced.push(output.classification.clone());
        }
        Ok(produced)
    }

    /// Capture the world's mutable state as a serializable image.
    ///
    /// The image records only what a seeded rebuild cannot reproduce:
    /// container status counters, execution history, clocks, installed
    /// slowdowns/capacities, the matchmaking generation, and the failure
    /// model's draw position.  Static structure (topology shape,
    /// offerings, market) is *not* captured —
    /// [`GridWorld::restore_image`] expects to run against a world
    /// freshly rebuilt from the same `(plan, workload)` pair, which is
    /// the determinism bargain the whole harness rests on.
    ///
    /// Must be taken at a tick boundary: live reservation holds are
    /// tick-scoped (drained every tick) and are not captured.
    pub fn image(&self) -> WorldImage {
        WorldImage {
            containers: self
                .topology
                .containers
                .iter()
                .map(|c| ContainerImage {
                    id: c.id.clone(),
                    up: c.up,
                    completed: c.completed,
                    failed: c.failed,
                })
                .collect(),
            history: self.history.clone(),
            clock_s: self.clock_s,
            failures_are_persistent: self.failures_are_persistent,
            slowdowns: self.slowdowns.clone(),
            capacities: self.capacities.clone(),
            generation: self.generation,
            failure_draws: self.failure.draws(),
        }
    }

    /// Restore a captured [`WorldImage`] onto this world, which must be
    /// a fresh rebuild from the same `(plan, workload)` pair the image
    /// was captured under (same topology, same offerings, same failure
    /// seed).  The failure model is repositioned by replaying its draw
    /// count, so the post-restore outcome stream continues exactly
    /// where the captured run left off.
    pub fn restore_image(&mut self, image: &WorldImage) -> Result<()> {
        for ci in &image.containers {
            let c = self
                .topology
                .containers
                .iter_mut()
                .find(|c| c.id == ci.id)
                .ok_or_else(|| ServiceError::Grid(GridError::UnknownContainer(ci.id.clone())))?;
            c.up = ci.up;
            c.completed = ci.completed;
            c.failed = ci.failed;
        }
        self.history = image.history.clone();
        self.clock_s = image.clock_s;
        self.failures_are_persistent = image.failures_are_persistent;
        self.slowdowns = image.slowdowns.clone();
        self.capacities = image.capacities.clone();
        self.holds.clear();
        let already = self.failure.draws();
        self.failure
            .advance_draws(image.failure_draws.saturating_sub(already));
        // Restore the generation last (the mutations above must not
        // leak bumps) and drop any cached candidate index built
        // against pre-restore state.
        self.generation = image.generation;
        *self.match_index.lock() = None;
        Ok(())
    }

    /// The planning problem `P = {S_init, G, T}` this world induces for a
    /// given initial data set and goal list (`T` = the offering catalog).
    pub fn planning_problem(&self, initial: Vec<String>, goals: Vec<GoalSpec>) -> PlanningProblem {
        PlanningProblem {
            initial,
            goals,
            activities: self.offerings.values().map(|o| o.activity_spec()).collect(),
        }
    }
}

/// One container's mutable status inside a [`WorldImage`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContainerImage {
    /// Container id.
    pub id: String,
    /// Is it up?
    pub up: bool,
    /// Successful executions so far.
    pub completed: u64,
    /// Failed executions so far.
    pub failed: u64,
}

/// A serializable capture of a [`GridWorld`]'s mutable state, taken at
/// a tick boundary — the world's half of a durable engine snapshot.
/// See [`GridWorld::image`] for what is (and is not) captured.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorldImage {
    /// Mutable status of every container, in topology order.
    pub containers: Vec<ContainerImage>,
    /// Execution history.
    pub history: Vec<ExecutionRecord>,
    /// Virtual world clock, in seconds.
    pub clock_s: f64,
    /// Whether stochastic failures down their container.
    pub failures_are_persistent: bool,
    /// Installed per-container slowdown factors.
    pub slowdowns: BTreeMap<String, f64>,
    /// Per-container slot capacities.
    pub capacities: BTreeMap<String, usize>,
    /// Matchmaking generation counter.
    pub generation: u64,
    /// Failure-model draws consumed so far.
    pub failure_draws: u64,
}

/// Thread-safe handle used by agent wrappers.
pub type SharedWorld = Arc<RwLock<GridWorld>>;

/// Wrap a world for concurrent use.
pub fn share(world: GridWorld) -> SharedWorld {
    Arc::new(RwLock::new(world))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service_names() -> Vec<String> {
        vec!["POD".into(), "P3DR".into()]
    }

    fn world() -> GridWorld {
        let topo = GridTopology::generate(6, &service_names(), 42);
        let mut w = GridWorld::new(topo);
        w.offer(ServiceOffering::new(
            "POD",
            ["POD-Parameter", "2D Image"],
            vec![OutputSpec::plain("Orientation File")],
        ));
        w.offer(ServiceOffering::new(
            "P3DR",
            ["P3DR-Parameter", "2D Image", "Orientation File"],
            vec![OutputSpec::plain("3D Model")],
        ));
        w
    }

    #[test]
    fn world_images_round_trip_onto_a_fresh_rebuild() {
        let build = || {
            let mut w = world();
            w.failure = FailureModel::new(11, 0.2);
            w.set_capacity("c", 3);
            w
        };
        let mut original = build();
        let service = original.executable_containers("POD")[0].clone();
        for _ in 0..5 {
            let _ = original.execute_service("POD", &service);
        }
        original.set_slowdown(&service, 2.0);
        let image = original.image();

        let mut restored = build();
        restored.restore_image(&image).unwrap();
        assert_eq!(restored.image(), image);
        assert_eq!(restored.history, original.history);
        assert_eq!(restored.clock_s, original.clock_s);
        assert_eq!(restored.generation(), original.generation());
        assert_eq!(restored.failure.draws(), original.failure.draws());
        // The two worlds continue identically: same outcomes, same
        // clock advance, same history growth.
        for _ in 0..5 {
            let a = original.execute_service("POD", &service).is_ok();
            let b = restored.execute_service("POD", &service).is_ok();
            assert_eq!(a, b);
        }
        assert_eq!(restored.history, original.history);
        assert_eq!(restored.clock_s, original.clock_s);
        // The image itself serializes (it rides inside snapshots).
        let json = serde_json::to_string(&image).unwrap();
        let back: WorldImage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, image);
    }

    #[test]
    fn offerings_register_and_resolve() {
        let w = world();
        assert!(w.offering("POD").is_ok());
        assert!(matches!(
            w.offering("PSF"),
            Err(ServiceError::UnknownOffering(_))
        ));
    }

    #[test]
    fn executable_containers_reflect_hosting_and_status() {
        let mut w = world();
        let all = w.executable_containers("POD");
        assert!(!all.is_empty());
        let first = all[0].clone();
        w.set_container_up(&first, false).unwrap();
        let now = w.executable_containers("POD");
        assert_eq!(now.len(), all.len() - 1);
        assert_eq!(w.hosting_containers("POD").len(), all.len());
        w.set_container_up(&first, true).unwrap();
        assert_eq!(w.executable_containers("POD").len(), all.len());
    }

    #[test]
    fn execute_service_advances_clock_and_history() {
        let mut w = world();
        let container = w.executable_containers("POD")[0].clone();
        let record = w.execute_service("POD", &container).unwrap();
        assert!(record.success);
        assert!(record.duration_s > 0.0);
        assert_eq!(w.history.len(), 1);
        assert!((w.clock_s - record.duration_s).abs() < 1e-12);
    }

    #[test]
    fn slowdown_stretches_duration_but_not_cost() {
        let mut w = world();
        let container = w.executable_containers("POD")[0].clone();
        let baseline = w.execute_service("POD", &container).unwrap();
        w.set_slowdown(&container, 50.0);
        let slowed = w.execute_service("POD", &container).unwrap();
        assert!(slowed.success, "slow is degraded, not down");
        assert!((slowed.duration_s - baseline.duration_s * 50.0).abs() < 1e-9);
        assert_eq!(slowed.cost, baseline.cost);
        // Other containers are unaffected.
        let other = w
            .executable_containers("POD")
            .into_iter()
            .find(|c| *c != container)
            .expect("second candidate");
        let normal = w.execute_service("POD", &other).unwrap();
        assert!(normal.duration_s < slowed.duration_s);
    }

    #[test]
    fn execute_on_down_container_fails() {
        let mut w = world();
        let container = w.executable_containers("POD")[0].clone();
        w.set_container_up(&container, false).unwrap();
        let err = w.execute_service("POD", &container).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Grid(GridError::ContainerDown(_))
        ));
    }

    #[test]
    fn stochastic_failure_records_and_downs_container() {
        let mut w = world();
        w.failure = FailureModel::new(1, 1.0); // always fails
        let container = w.executable_containers("POD")[0].clone();
        let err = w.execute_service("POD", &container).unwrap_err();
        assert!(matches!(err, ServiceError::Grid(_)));
        assert_eq!(w.history.len(), 1);
        assert!(!w.history[0].success);
        assert!(!w.topology.container(&container).unwrap().up);
    }

    #[test]
    fn transient_failures_leave_container_up() {
        let mut w = world();
        w.failure = FailureModel::new(1, 1.0);
        w.failures_are_persistent = false;
        let container = w.executable_containers("POD")[0].clone();
        let _ = w.execute_service("POD", &container);
        assert!(w.topology.container(&container).unwrap().up);
    }

    #[test]
    fn apply_outputs_creates_fresh_and_fixed_items() {
        let mut w = world();
        w.offer(ServiceOffering::new(
            "PSF",
            ["3D Model"],
            vec![OutputSpec::refining("Resolution File", "D10", 12.0, 3.0)],
        ));
        let mut state = DataState::new();
        w.apply_outputs("POD", &mut state).unwrap();
        assert_eq!(state.len(), 1);
        let id = state.ids().next().unwrap().to_owned();
        assert!(id.starts_with('D'));

        // Refining output: fixed id, Value decreasing per execution.
        w.apply_outputs("PSF", &mut state).unwrap();
        assert_eq!(state.property("D10", "Value"), Some(&Value::Float(12.0)));
        w.apply_outputs("PSF", &mut state).unwrap();
        assert_eq!(state.property("D10", "Value"), Some(&Value::Float(9.0)));
        w.apply_outputs("PSF", &mut state).unwrap();
        assert_eq!(state.property("D10", "Value"), Some(&Value::Float(6.0)));
    }

    #[test]
    fn fresh_ids_are_minted_from_the_case_state_not_the_world() {
        let w = world();
        // Two cases served by one world both start at D101.
        let (mut a, mut b) = (DataState::new(), DataState::new());
        w.apply_outputs("POD", &mut a).unwrap();
        w.apply_outputs("POD", &mut b).unwrap();
        w.apply_outputs("P3DR", &mut a).unwrap();
        assert_eq!(a.ids().collect::<Vec<_>>(), ["D101", "D102"]);
        assert_eq!(b.ids().collect::<Vec<_>>(), ["D101"]);
        // A state that already holds fresh ids (a restored snapshot)
        // continues after them.
        let mut resumed = a.clone();
        w.apply_outputs("POD", &mut resumed).unwrap();
        assert_eq!(
            resumed.get("D103").and_then(DataItem::classification),
            Some("Orientation File")
        );
        assert_eq!(resumed.len(), 3);
    }

    #[test]
    fn reservations_are_opt_in_and_enforce_capacity() {
        let mut w = world();
        let [c0, c1, c2] = ["case-0", "case-1", "case-2"].map(Label::new);
        // Disabled (the default): everything "reserves", nothing is held.
        assert!(!w.reservations_enabled());
        assert!(w.try_reserve(&c0, "c1"));
        assert!(w.try_reserve(&c1, "c1"));
        assert_eq!(w.reserved_count("c1"), 0);

        w.enable_reservations(true);
        assert!(w.try_reserve(&c0, "c1"));
        assert!(!w.try_reserve(&c1, "c1"), "default capacity is 1");
        assert_eq!(w.reserved_count("c1"), 1);

        w.set_capacity("c2", 2);
        assert_eq!(w.capacity_of("c2"), 2);
        assert_eq!(w.capacity_of("c1"), 1);
        assert!(w.try_reserve(&c0, "c2"));
        assert!(w.try_reserve(&c1, "c2"));
        assert!(!w.try_reserve(&c2, "c2"));

        let drained = w.drain_reservations();
        assert_eq!(drained["c1"], vec!["case-0".to_string()]);
        assert_eq!(
            drained["c2"],
            vec!["case-0".to_string(), "case-1".to_string()]
        );
        assert_eq!(w.reserved_count("c1"), 0);
        assert!(w.try_reserve(&c1, "c1"), "slots free after drain");

        // Turning the protocol off clears any live holds.
        w.enable_reservations(false);
        assert_eq!(w.reserved_count("c1"), 0);
    }

    #[test]
    fn planning_problem_reflects_catalog() {
        let w = world();
        let p = w.planning_problem(
            vec!["POD-Parameter".into(), "2D Image".into()],
            vec![GoalSpec {
                classification: "3D Model".into(),
                min_count: 1,
            }],
        );
        assert_eq!(p.activities.len(), 2);
        assert!(p.activity("POD").is_some());
        assert_eq!(p.initial.len(), 2);
    }
}
