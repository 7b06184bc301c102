//! Seeded fault plans and the schedules they unfold into.
//!
//! A [`FaultPlan`] is the *entire* description of what goes wrong in a
//! simulated run: message-level faults (drop/duplicate/delay), Bernoulli
//! end-user activity failures (driving
//! [`gridflow_grid::failure::FailureModel`]), scripted node loss and
//! partitions.  Together with a workload it determines a run completely
//! — replaying the same `(seed, FaultPlan, workload)` triple reproduces
//! the same [`EnactmentReport`] byte for byte.  A process death is not
//! part of the plan: it is [`MultiCaseScenario::kill_at`], and what
//! survives it is what the durable store holds.
//!
//! [`MultiCaseScenario::kill_at`]: crate::MultiCaseScenario::kill_at
//!
//! [`EnactmentReport`]: gridflow_services::coordination::EnactmentReport

use serde::{Deserialize, Serialize};

/// What the fault-injecting transport decided for one intercepted
/// message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Delivered unchanged.
    Deliver,
    /// Swallowed: the receiver never sees it.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// Held back, released at the given tick.
    Delay {
        /// Tick at which the held message re-enters the stream.
        until_tick: u64,
    },
    /// Swapped with the next intercepted message: the classic adjacent
    /// reorder (the message arrives, but one slot late).
    Reorder,
    /// Dropped because an active node-pair partition separates sender
    /// and receiver.  Recorded without consuming a chaos draw, so
    /// enabling a partition never shifts the drop/duplicate/delay
    /// decision stream of the rest of the traffic.
    Partitioned,
}

/// One entry of a fault schedule: the decision taken at a tick for a
/// message between two agents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Tick at which the message was intercepted.
    pub tick: u64,
    /// Sending agent.
    pub sender: String,
    /// Receiving agent.
    pub receiver: String,
    /// The decision.
    pub action: FaultAction,
}

/// The unfolded decision log of a run — the evidence that two seeds
/// produced different (or identical) fault behaviour.
pub type FaultSchedule = Vec<FaultEvent>;

/// A scripted node loss: take `container` down once the world has
/// recorded `after_executions` execution attempts (0 = before the run
/// starts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeLoss {
    /// Container to take down.
    pub container: String,
    /// History length at which the loss strikes.
    pub after_executions: usize,
}

/// A scripted slowdown: multiply `container`'s execution durations by
/// `factor` for the whole run.  Executions still *succeed* — they just
/// take `factor`× as long, the degradation mode that activity leases
/// (not failure counters) exist to catch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Slowdown {
    /// Container whose executions stretch.
    pub container: String,
    /// Duration multiplier (≥ 0; cost is unaffected).
    pub factor: f64,
}

/// A scheduled node-pair partition: traffic between `a` and `b`
/// (either direction) is cut from `from_tick` until `heal_tick`, when
/// the link heals.  The same spec drives both planes: the
/// fault-injecting transport drops crossing messages in the window, and
/// the engine-plane hook takes the named container down and restores it
/// at the heal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// One side of the cut link.
    pub a: String,
    /// The other side.
    pub b: String,
    /// First tick at which the partition is active.
    pub from_tick: u64,
    /// Tick at which the link heals (exclusive end of the window).
    pub heal_tick: u64,
}

impl PartitionSpec {
    /// Is the partition active at `tick`?
    pub fn active_at(&self, tick: u64) -> bool {
        tick >= self.from_tick && tick < self.heal_tick
    }

    /// Does a message between `sender` and `receiver` cross this cut?
    pub fn severs(&self, sender: &str, receiver: &str) -> bool {
        (self.a == sender && self.b == receiver) || (self.a == receiver && self.b == sender)
    }
}

/// The complete, seeded description of everything that goes wrong in a
/// run.  `Default` is the null plan: nothing fails.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed: drives both the message-fault RNG and the activity
    /// failure model.
    pub seed: u64,
    /// Per-message probability of a drop.
    pub drop_prob: f64,
    /// Per-message probability of a duplicate.
    pub duplicate_prob: f64,
    /// Per-message probability of a delay.
    pub delay_prob: f64,
    /// How many ticks a delayed message is held (also the reorder
    /// window: messages sent in between overtake it).
    pub delay_ticks: u64,
    /// Per-message probability of an adjacent reorder (swap with the
    /// next intercepted message).
    pub reorder_prob: f64,
    /// Scheduled node-pair partitions with their heal ticks.
    pub partitions: Vec<PartitionSpec>,
    /// Bernoulli per-execution probability that an end-user activity
    /// fails on its container.
    pub activity_failure_prob: f64,
    /// Does an activity failure take the container down persistently?
    pub persistent_activity_failures: bool,
    /// Scripted node losses.
    pub node_loss: Vec<NodeLoss>,
    /// Scripted per-container slowdowns (installed into the world before
    /// the run).
    pub slow_containers: Vec<Slowdown>,
    /// Agents whose traffic is exempt from message faults (sender or
    /// receiver match), e.g. the information service during boot.
    pub immune_agents: Vec<String>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            delay_ticks: 3,
            reorder_prob: 0.0,
            partitions: Vec::new(),
            activity_failure_prob: 0.0,
            persistent_activity_failures: true,
            node_loss: Vec::new(),
            slow_containers: Vec::new(),
            immune_agents: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// The null plan under a given seed: nothing fails, but every
    /// stochastic component is seeded so faults can be switched on
    /// without changing anything else.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Builder: drop messages with probability `p`.
    pub fn dropping(mut self, p: f64) -> Self {
        self.drop_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: duplicate messages with probability `p`.
    pub fn duplicating(mut self, p: f64) -> Self {
        self.duplicate_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: delay messages with probability `p` for `ticks` ticks.
    pub fn delaying(mut self, p: f64, ticks: u64) -> Self {
        self.delay_prob = p.clamp(0.0, 1.0);
        self.delay_ticks = ticks;
        self
    }

    /// Builder: swap messages with their successor with probability `p`.
    pub fn reordering(mut self, p: f64) -> Self {
        self.reorder_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: cut the link between `a` and `b` from `from_tick`
    /// until it heals at `heal_tick`.
    pub fn partitioning(
        mut self,
        a: impl Into<String>,
        b: impl Into<String>,
        from_tick: u64,
        heal_tick: u64,
    ) -> Self {
        self.partitions.push(PartitionSpec {
            a: a.into(),
            b: b.into(),
            from_tick,
            heal_tick: heal_tick.max(from_tick),
        });
        self
    }

    /// Builder: end-user activity executions fail with probability `p`.
    pub fn failing_activities(mut self, p: f64) -> Self {
        self.activity_failure_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Builder: activity failures are transient (the container stays up).
    pub fn transient_failures(mut self) -> Self {
        self.persistent_activity_failures = false;
        self
    }

    /// Builder: script a node loss.
    pub fn losing_node(mut self, container: impl Into<String>, after_executions: usize) -> Self {
        self.node_loss.push(NodeLoss {
            container: container.into(),
            after_executions,
        });
        self
    }

    /// Builder: stretch a container's execution durations by `factor`.
    pub fn slowing_container(mut self, container: impl Into<String>, factor: f64) -> Self {
        self.slow_containers.push(Slowdown {
            container: container.into(),
            factor,
        });
        self
    }

    /// Builder: exempt an agent's traffic from message faults.
    pub fn immunizing(mut self, agent: impl Into<String>) -> Self {
        self.immune_agents.push(agent.into());
        self
    }

    /// Does the plan inject any *probabilistic* message-level faults
    /// (and hence consume one chaos draw per message)?  Scheduled
    /// partitions are deliberately excluded: they drop crossing
    /// messages without a draw, so the rest of the decision stream is
    /// unchanged by adding one.
    pub fn perturbs_messages(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.delay_prob > 0.0
            || self.reorder_prob > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_null() {
        let p = FaultPlan::default();
        assert!(!p.perturbs_messages());
        assert_eq!(p.activity_failure_prob, 0.0);
        assert!(p.node_loss.is_empty());
    }

    #[test]
    fn builders_clamp_probabilities() {
        let p = FaultPlan::seeded(7)
            .dropping(1.5)
            .duplicating(-0.2)
            .delaying(0.3, 5)
            .failing_activities(2.0);
        assert_eq!(p.drop_prob, 1.0);
        assert_eq!(p.duplicate_prob, 0.0);
        assert_eq!(p.delay_prob, 0.3);
        assert_eq!(p.delay_ticks, 5);
        assert_eq!(p.activity_failure_prob, 1.0);
        assert!(p.perturbs_messages());
    }

    #[test]
    fn partition_spec_window_and_pair_matching() {
        let p = FaultPlan::seeded(1).partitioning("node-a", "node-b", 5, 9);
        assert!(
            !p.perturbs_messages(),
            "partitions are scheduled, not drawn"
        );
        let spec = &p.partitions[0];
        assert!(!spec.active_at(4));
        assert!(spec.active_at(5));
        assert!(spec.active_at(8));
        assert!(!spec.active_at(9), "heal tick is exclusive");
        assert!(spec.severs("node-a", "node-b"));
        assert!(spec.severs("node-b", "node-a"));
        assert!(!spec.severs("node-a", "node-c"));
    }

    #[test]
    fn reordering_counts_as_message_perturbation() {
        assert!(FaultPlan::seeded(1).reordering(0.2).perturbs_messages());
        let clamped = FaultPlan::seeded(1).reordering(7.0);
        assert_eq!(clamped.reorder_prob, 1.0);
    }

    #[test]
    fn plans_round_trip_through_json() {
        let p = FaultPlan::seeded(42)
            .dropping(0.1)
            .reordering(0.05)
            .partitioning("ac-h1", "ac-h2", 4, 12)
            .losing_node("ac-h2", 3)
            .slowing_container("ac-h1", 50.0)
            .immunizing("information-1");
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn schedules_round_trip_through_json() {
        let schedule: FaultSchedule = vec![
            FaultEvent {
                tick: 0,
                sender: "a".into(),
                receiver: "b".into(),
                action: FaultAction::Deliver,
            },
            FaultEvent {
                tick: 1,
                sender: "b".into(),
                receiver: "a".into(),
                action: FaultAction::Delay { until_tick: 4 },
            },
        ];
        let json = serde_json::to_string(&schedule).unwrap();
        let back: FaultSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, schedule);
    }
}
