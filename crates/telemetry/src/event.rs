//! The typed event vocabulary of the telemetry layer.
//!
//! One [`TraceEvent`] describes one thing that *happened* somewhere in
//! the stack — a message routed (or dropped), an activity dispatched, a
//! flow-control transition fired, a re-plan installed, a fault
//! injected.  Events carry only simulation-derived data (virtual
//! durations, seeded decisions), never wall-clock readings, so a
//! serialized log replays byte-identically.

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An interned trace name: a record's source (`"enactor"`,
/// `"case:dinner-3/enactor"`, …), and the case and service names the
/// engine's per-tick events carry.
///
/// A merged multi-case trace repeats the same handful of source strings
/// hundreds of thousands of times; storing each record's source as an
/// owned `String` made every emission allocate.  `Label` wraps an
/// `Arc<str>` so the sink can intern each distinct source once and stamp
/// records with a reference-counted clone — no allocation on the hot
/// emit path.
///
/// The type is string-shaped everywhere it matters: it derefs to `str`,
/// compares against `&str`/`String`, displays as the bare string, and
/// serializes as a plain JSON string — so JSONL dumps are byte-identical
/// to the previous `String` representation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Arc<str>);

impl Label {
    /// Intern `s` as a label (one allocation; clones are free).
    pub fn new(s: &str) -> Self {
        Label(Arc::from(s))
    }

    /// The label's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl std::borrow::Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label(Arc::from(s))
    }
}

impl From<&String> for Label {
    fn from(s: &String) -> Self {
        Label::new(s)
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Label {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<Label> for str {
    fn eq(&self, other: &Label) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Label> for &str {
    fn eq(&self, other: &Label) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Label> for String {
    fn eq(&self, other: &Label) -> bool {
        self == other.as_str()
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::fmt::Debug for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&*self.0, f)
    }
}

impl Serialize for Label {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::String(self.0.to_string())
    }
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
    fn is_json_null(&self) -> bool {
        false
    }
}

impl Deserialize for Label {
    fn from_json_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        v.as_str()
            .map(Label::new)
            .ok_or_else(|| serde::Error::custom(format!("expected string label, got {v:?}")))
    }
    fn read_json(r: &mut serde::JsonReader<'_>) -> std::result::Result<Self, serde::Error> {
        Ok(Label::new(&r.str()?))
    }
}

/// One thing that happened during a run.
///
/// Grouped by emitting layer: the agent substrate (`Message*`,
/// `Request*`), the coordination enactor (`Enactment*`, `Activity*`,
/// `TransitionFired`, `Replan*`), the planning service
/// (`PlanGeneration`), and the scenario runner (`NodeLost`,
/// `Partition*`).
///
/// Serializes externally tagged — `{"MessageSent": {...}}` — the
/// vendored serde's (and serde's default) enum representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    // ------------------------------------------------ agent substrate
    /// A message entered the directory's delivery path.
    MessageSent {
        /// Message id (correlation anchor).
        id: u64,
        /// FIPA performative, rendered (`"request"`, `"inform"`, …).
        performative: String,
        /// Sending agent.
        sender: String,
        /// Receiving agent.
        receiver: String,
        /// For replies: the id of the message being answered.
        in_reply_to: Option<u64>,
    },
    /// A message reached its receiver's mailbox.
    MessageDelivered {
        /// Message id.
        id: u64,
        /// Receiving agent.
        receiver: String,
    },
    /// The fault-injecting transport swallowed a message.
    MessageDropped {
        /// Message id.
        id: u64,
        /// Sending agent.
        sender: String,
        /// Receiving agent.
        receiver: String,
    },
    /// The fault-injecting transport delivered a message twice.
    MessageDuplicated {
        /// Message id.
        id: u64,
        /// Sending agent.
        sender: String,
        /// Receiving agent.
        receiver: String,
    },
    /// The fault-injecting transport held a message back.
    MessageDelayed {
        /// Message id.
        id: u64,
        /// Sending agent.
        sender: String,
        /// Receiving agent.
        receiver: String,
        /// Tick at which the message re-enters the stream.
        until_tick: u64,
    },
    /// A previously delayed message re-entered the delivery stream.
    MessageReleased {
        /// Message id.
        id: u64,
        /// Receiving agent.
        receiver: String,
    },
    /// A synchronous request timed out (recorded by the driver that
    /// observed the timeout — cause sits next to effect in the log).
    RequestTimedOut {
        /// The agent that failed to answer in time.
        agent: String,
    },
    /// A synchronous request was answered.
    RequestAnswered {
        /// The answering agent.
        agent: String,
        /// Did the reply carry a correct result (driver-checked)?
        correct: bool,
    },

    // ------------------------------------------------ enactment
    /// An enactment began.
    EnactmentStarted {
        /// Workflow (process graph) name.
        workflow: String,
        /// Always `false`: a recovered fiber is rebuilt silently and
        /// nothing else resumes.  Kept because every pinned trace row
        /// carries the key.
        resumed: bool,
    },
    /// An activity was handed to a container for execution (one event
    /// per candidate attempt).
    ActivityDispatched {
        /// Activity id in the process graph.
        activity: String,
        /// Service executed.
        service: String,
        /// Candidate container.
        container: String,
        /// Attempt index within this execution (0 = first candidate).
        attempt: usize,
    },
    /// An activity execution succeeded.
    ActivityCompleted {
        /// Activity id.
        activity: String,
        /// Service executed.
        service: String,
        /// Container it ran on.
        container: String,
        /// Virtual duration (seconds).
        duration_s: f64,
        /// Market cost.
        cost: f64,
    },
    /// An activity execution failed on a container (the enactor retries
    /// the next candidate, so a `Failed` followed by a `Dispatched` for
    /// the same activity *is* the retry).
    ActivityFailed {
        /// Activity id.
        activity: String,
        /// Service executed.
        service: String,
        /// Container that failed.
        container: String,
        /// Attempt index within this execution.
        attempt: usize,
    },
    // ------------------------------------------------ recovery layer
    /// The recovery layer scheduled a backoff retry on the same
    /// candidate (the wait elapses on the virtual clock, never wall
    /// time).
    RetryScheduled {
        /// Activity id.
        activity: String,
        /// Service executed.
        service: String,
        /// Candidate container being retried.
        container: String,
        /// Attempt index the retry will carry.
        attempt: usize,
        /// Backoff length, in virtual ticks.
        backoff_ticks: u64,
        /// Recovery-clock tick at which the retry dispatches.
        resume_tick: u64,
    },
    /// A dispatched execution was granted a tick-deadline lease.
    LeaseGranted {
        /// Activity id.
        activity: String,
        /// Container executing it.
        container: String,
        /// Lease length, in virtual ticks.
        lease_ticks: u64,
        /// Recovery-clock tick at which the lease expires.
        deadline_tick: u64,
    },
    /// An execution outlived its lease: its result is discarded and the
    /// attempt counts as a failure.
    LeaseExpired {
        /// Activity id.
        activity: String,
        /// Container that overran.
        container: String,
        /// Lease length that was granted, in virtual ticks.
        lease_ticks: u64,
        /// Ticks the execution actually took.
        took_ticks: u64,
    },
    /// A container's circuit breaker tripped open: the container is
    /// quarantined from matchmaking until its cooldown elapses.
    BreakerOpened {
        /// Quarantined container.
        container: String,
        /// Consecutive failures that tripped it.
        consecutive_failures: usize,
        /// Recovery-clock tick at which the cooldown ends.
        until_tick: u64,
    },
    /// An open breaker served its cooldown and now admits one probe.
    BreakerHalfOpen {
        /// Probing container.
        container: String,
    },
    /// A half-open probe succeeded: the container is readmitted.
    BreakerClosed {
        /// Readmitted container.
        container: String,
    },

    /// A flow-control node of the ATN fired (Begin, End, Fork, Join,
    /// Choice, Merge — ITERATIVE loops lower to Choice/Merge pairs, so
    /// loop iterations show as repeated Merge/Choice firings).
    TransitionFired {
        /// Node kind (`"Fork"`, `"Join"`, `"Choice"`, `"Merge"`,
        /// `"Begin"`, `"End"`).
        kind: String,
        /// Node id in the process graph.
        node: String,
    },
    /// Every candidate failed for an activity and the enactor escalated
    /// to the planning service.
    ReplanTriggered {
        /// Activity whose failure triggered the escalation.
        activity: String,
        /// Its service.
        service: String,
        /// Services excluded from the new plan.
        excluded: Vec<String>,
        /// Re-planning round (1-based).
        round: usize,
    },
    /// The re-planned graph was installed (or rejected).
    ReplanInstalled {
        /// Was the fresh plan viable (perfect fitness)?
        viable: bool,
    },
    /// One GP generation completed inside the planning service.
    PlanGeneration {
        /// Generation index (0-based).
        generation: usize,
        /// Overall fitness of the generation's best individual.
        best_overall: f64,
        /// Mean overall fitness of the population.
        mean_overall: f64,
        /// Mean plan-tree size of the population.
        mean_size: f64,
    },
    /// A planning request was served from the shared plan cache: the GP
    /// run was skipped and the cached (byte-identical) plan reused.
    PlanCacheHit {
        /// Content-addressed plan key (32 lowercase hex digits).
        key: String,
    },
    /// A planning request missed the shared plan cache; a fresh GP run
    /// follows and its result will populate the cache.
    PlanCacheMiss {
        /// Content-addressed plan key (32 lowercase hex digits).
        key: String,
    },
    /// An enactment ended.
    EnactmentFinished {
        /// Did the workflow reach End with all case goals met?
        success: bool,
        /// Why it aborted, if it did.
        abort_reason: Option<String>,
    },

    // ------------------------------------------------ scenario runner
    /// A scripted node loss struck.
    NodeLost {
        /// Container taken down.
        container: String,
        /// Execution-history length at which the loss fired.
        after_executions: usize,
    },
    /// Free-form driver annotation (kept out of invariant checks).
    Custom {
        /// Short machine-matchable label.
        label: String,
        /// Human-readable detail.
        detail: String,
    },

    // ------------------------------------------------ multi-case engine
    /// The case scheduler began a new virtual tick.
    TickStarted {
        /// Scheduler tick index (0-based).
        tick: u64,
    },
    /// Admission control accepted a case into the running set.
    CaseAdmitted {
        /// The case's label in the scheduler.
        case: Label,
        /// Tick at which it was admitted.
        tick: u64,
        /// Why the admission policy picked this case now (e.g.
        /// `"priority=3"`), when a non-FIFO policy is active.  `None`
        /// under FIFO, and omitted from the serialized event so legacy
        /// FIFO traces stay byte-identical.
        #[serde(skip_serializing_if = "Option::is_none")]
        reason: Option<String>,
    },
    /// Admission control rejected a case outright (it never runs).
    CaseRejected {
        /// The case's label in the scheduler.
        case: Label,
        /// Why admission refused it.
        reason: String,
    },
    /// A case could not make progress this tick because every candidate
    /// container it matched was already reserved (busy ≠ broken: no
    /// failure is recorded, the case retries next tick).
    CaseBlocked {
        /// The blocked case's label.
        case: Label,
        /// The service it was trying to dispatch.
        service: Label,
    },
    /// A case left the running set with a final report.
    CaseCompleted {
        /// The case's label in the scheduler.
        case: Label,
        /// Did its enactment succeed?
        success: bool,
    },
    /// A case reserved a container slot for the current tick.
    SlotReserved {
        /// The reserving case's label.
        case: Label,
        /// The reserved container.
        container: String,
    },
    /// A tick-scoped container reservation was released.
    SlotReleased {
        /// The case that held the slot.
        case: Label,
        /// The released container.
        container: String,
    },

    // ------------------------------------------ transport substrate
    /// The chaos middleware held a message back so its successor would
    /// overtake it (an explicit swap, distinct from a tick delay).
    MessageReordered {
        /// Message id.
        id: u64,
        /// Sending agent.
        sender: String,
        /// Receiving agent.
        receiver: String,
    },
    /// A scheduled network partition opened between two endpoints:
    /// traffic crossing the pair is dropped until the heal.
    PartitionStarted {
        /// One side of the partitioned pair.
        a: String,
        /// The other side.
        b: String,
        /// Tick at which the partition is scheduled to heal.
        heal_tick: u64,
    },
    /// A scheduled network partition healed: traffic between the pair
    /// flows again.
    PartitionHealed {
        /// One side of the healed pair.
        a: String,
        /// The other side.
        b: String,
    },
}

impl TraceEvent {
    /// The activity id this event concerns, if any.
    pub fn activity(&self) -> Option<&str> {
        match self {
            TraceEvent::ActivityDispatched { activity, .. }
            | TraceEvent::ActivityCompleted { activity, .. }
            | TraceEvent::ActivityFailed { activity, .. }
            | TraceEvent::RetryScheduled { activity, .. }
            | TraceEvent::LeaseGranted { activity, .. }
            | TraceEvent::LeaseExpired { activity, .. }
            | TraceEvent::ReplanTriggered { activity, .. } => Some(activity),
            _ => None,
        }
    }

    /// The scheduler case label this event concerns, if any.
    pub fn case_label(&self) -> Option<&str> {
        match self {
            TraceEvent::CaseAdmitted { case, .. }
            | TraceEvent::CaseRejected { case, .. }
            | TraceEvent::CaseBlocked { case, .. }
            | TraceEvent::CaseCompleted { case, .. }
            | TraceEvent::SlotReserved { case, .. }
            | TraceEvent::SlotReleased { case, .. } => Some(case.as_str()),
            _ => None,
        }
    }

    /// The message id this event concerns, if any.
    pub fn message_id(&self) -> Option<u64> {
        match self {
            TraceEvent::MessageSent { id, .. }
            | TraceEvent::MessageDelivered { id, .. }
            | TraceEvent::MessageDropped { id, .. }
            | TraceEvent::MessageDuplicated { id, .. }
            | TraceEvent::MessageDelayed { id, .. }
            | TraceEvent::MessageReleased { id, .. }
            | TraceEvent::MessageReordered { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// The content-addressed plan key carried by the `plan.cache_hit` /
    /// `plan.cache_miss` events, if any.
    pub fn plan_key(&self) -> Option<&str> {
        match self {
            TraceEvent::PlanCacheHit { key } | TraceEvent::PlanCacheMiss { key } => Some(key),
            _ => None,
        }
    }

    /// A short stable label for the event kind (used as a metrics key
    /// component and in compact renderings).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEvent::MessageSent { .. } => "message.sent",
            TraceEvent::MessageDelivered { .. } => "message.delivered",
            TraceEvent::MessageDropped { .. } => "message.dropped",
            TraceEvent::MessageDuplicated { .. } => "message.duplicated",
            TraceEvent::MessageDelayed { .. } => "message.delayed",
            TraceEvent::MessageReleased { .. } => "message.released",
            TraceEvent::RequestTimedOut { .. } => "request.timeout",
            TraceEvent::RequestAnswered { .. } => "request.answered",
            TraceEvent::EnactmentStarted { .. } => "enactment.started",
            TraceEvent::ActivityDispatched { .. } => "activity.dispatched",
            TraceEvent::ActivityCompleted { .. } => "activity.completed",
            TraceEvent::ActivityFailed { .. } => "activity.failed",
            TraceEvent::RetryScheduled { .. } => "retry.scheduled",
            TraceEvent::LeaseGranted { .. } => "lease.granted",
            TraceEvent::LeaseExpired { .. } => "lease.expired",
            TraceEvent::BreakerOpened { .. } => "breaker.opened",
            TraceEvent::BreakerHalfOpen { .. } => "breaker.half_open",
            TraceEvent::BreakerClosed { .. } => "breaker.closed",
            TraceEvent::TransitionFired { .. } => "transition.fired",
            TraceEvent::ReplanTriggered { .. } => "replan.triggered",
            TraceEvent::ReplanInstalled { .. } => "replan.installed",
            TraceEvent::PlanGeneration { .. } => "plan.generation",
            TraceEvent::PlanCacheHit { .. } => "plan.cache_hit",
            TraceEvent::PlanCacheMiss { .. } => "plan.cache_miss",
            TraceEvent::EnactmentFinished { .. } => "enactment.finished",
            TraceEvent::NodeLost { .. } => "fault.node_lost",
            TraceEvent::Custom { .. } => "custom",
            TraceEvent::TickStarted { .. } => "engine.tick",
            TraceEvent::CaseAdmitted { .. } => "case.admitted",
            TraceEvent::CaseRejected { .. } => "case.rejected",
            TraceEvent::CaseBlocked { .. } => "case.blocked",
            TraceEvent::CaseCompleted { .. } => "case.completed",
            TraceEvent::SlotReserved { .. } => "slot.reserved",
            TraceEvent::SlotReleased { .. } => "slot.released",
            TraceEvent::MessageReordered { .. } => "message.reordered",
            TraceEvent::PartitionStarted { .. } => "transport.partitioned",
            TraceEvent::PartitionHealed { .. } => "transport.healed",
        }
    }

    /// Is this one of the fault-injection events (`MessageDropped`,
    /// `MessageDuplicated`, `MessageDelayed`, `MessageReordered`,
    /// `PartitionStarted`, `NodeLost`)?
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            TraceEvent::MessageDropped { .. }
                | TraceEvent::MessageDuplicated { .. }
                | TraceEvent::MessageDelayed { .. }
                | TraceEvent::MessageReordered { .. }
                | TraceEvent::PartitionStarted { .. }
                | TraceEvent::NodeLost { .. }
        )
    }
}

/// One record of a trace: an event plus its deterministic coordinates —
/// a per-log sequence number and the virtual-clock reading at emission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Position in the log (0-based, assigned by the sink).
    pub seq: u64,
    /// Virtual-clock tick at emission (one tick per intercepted
    /// message; 0 when no message traffic drives the clock).
    pub tick: u64,
    /// Virtual seconds at emission (advanced by simulated execution
    /// time, never wall time).
    pub at_s: f64,
    /// Emitting component (`"enactor"`, `"transport"`, `"runner"`,
    /// `"directory"`, `"planner"`, `"client"`, …), interned — see
    /// [`Label`].
    pub source: Label,
    /// The event itself.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_unique_per_variant() {
        let a = TraceEvent::MessageDropped {
            id: 1,
            sender: "a".into(),
            receiver: "b".into(),
        };
        let b = TraceEvent::ActivityCompleted {
            activity: "A1".into(),
            service: "cook".into(),
            container: "ac-h2".into(),
            duration_s: 1.0,
            cost: 2.0,
        };
        assert_eq!(a.label(), "message.dropped");
        assert_eq!(b.label(), "activity.completed");
        assert!(a.is_fault());
        assert!(!b.is_fault());
    }

    #[test]
    fn plan_cache_events_have_labels_and_key_accessor() {
        let key = "00000000000000000000000000000abc".to_string();
        let hit = TraceEvent::PlanCacheHit { key: key.clone() };
        let miss = TraceEvent::PlanCacheMiss { key: key.clone() };
        assert_eq!(hit.label(), "plan.cache_hit");
        assert_eq!(miss.label(), "plan.cache_miss");
        for e in [&hit, &miss] {
            assert_eq!(e.plan_key(), Some(key.as_str()));
            assert!(!e.is_fault());
            assert_eq!(e.activity(), None);
        }
        assert_eq!(
            TraceEvent::PlanGeneration {
                generation: 0,
                best_overall: 1.0,
                mean_overall: 0.5,
                mean_size: 3.0,
            }
            .plan_key(),
            None
        );
    }

    #[test]
    fn activity_and_message_accessors() {
        let e = TraceEvent::ActivityFailed {
            activity: "A1".into(),
            service: "cook".into(),
            container: "c".into(),
            attempt: 0,
        };
        assert_eq!(e.activity(), Some("A1"));
        assert_eq!(e.message_id(), None);
        let m = TraceEvent::MessageDelayed {
            id: 9,
            sender: "a".into(),
            receiver: "b".into(),
            until_tick: 12,
        };
        assert_eq!(m.message_id(), Some(9));
        assert_eq!(m.activity(), None);
    }

    #[test]
    fn recovery_events_have_labels_and_activity_accessors() {
        let r = TraceEvent::RetryScheduled {
            activity: "A2".into(),
            service: "cook".into(),
            container: "ac-h2".into(),
            attempt: 1,
            backoff_ticks: 4,
            resume_tick: 9,
        };
        assert_eq!(r.label(), "retry.scheduled");
        assert_eq!(r.activity(), Some("A2"));
        assert!(!r.is_fault());
        let l = TraceEvent::LeaseExpired {
            activity: "A2".into(),
            container: "ac-h2".into(),
            lease_ticks: 30,
            took_ticks: 150,
        };
        assert_eq!(l.label(), "lease.expired");
        assert_eq!(l.activity(), Some("A2"));
        let b = TraceEvent::BreakerOpened {
            container: "ac-h2".into(),
            consecutive_failures: 3,
            until_tick: 200,
        };
        assert_eq!(b.label(), "breaker.opened");
        assert_eq!(b.activity(), None);
        assert_eq!(
            TraceEvent::BreakerHalfOpen {
                container: "c".into()
            }
            .label(),
            "breaker.half_open"
        );
        assert_eq!(
            TraceEvent::BreakerClosed {
                container: "c".into()
            }
            .label(),
            "breaker.closed"
        );
    }

    #[test]
    fn engine_events_have_labels_and_case_accessors() {
        let t = TraceEvent::TickStarted { tick: 3 };
        assert_eq!(t.label(), "engine.tick");
        assert_eq!(t.case_label(), None);
        assert!(!t.is_fault());
        let r = TraceEvent::SlotReserved {
            case: "case-1".into(),
            container: "ac-h2".into(),
        };
        assert_eq!(r.label(), "slot.reserved");
        assert_eq!(r.case_label(), Some("case-1"));
        let b = TraceEvent::CaseBlocked {
            case: "case-1".into(),
            service: "cook".into(),
        };
        assert_eq!(b.label(), "case.blocked");
        assert_eq!(b.case_label(), Some("case-1"));
        let c = TraceEvent::CaseCompleted {
            case: "case-0".into(),
            success: true,
        };
        assert_eq!(c.label(), "case.completed");
        // Engine events round-trip through the externally tagged JSON
        // representation like every other variant.
        let json = serde_json::to_string(&r).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = TraceRecord {
            seq: 3,
            tick: 7,
            at_s: 1.25,
            source: "enactor".into(),
            event: TraceEvent::ReplanInstalled { viable: true },
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
