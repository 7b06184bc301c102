//! The dispatch ladder: how a [`CaseFiber`] turns one ready activity
//! into an execution, a capacity block, or the re-planning escalation.
//!
//! There is one loop, [`CaseFiber::run_activity`], and every fiber runs
//! it.  Each rung is active exactly when its part of the fiber's
//! [`RecoveryPolicy`](gridflow_recovery::RecoveryPolicy) is configured
//! and is a no-op otherwise:
//!
//! | rung | switched on by |
//! |---|---|
//! | monitoring probes feed the breakers; open breakers filter the candidates | `breaker: Some(_)` |
//! | retry the same candidate after a backoff | `retry.max_attempts > 1` |
//! | grant a lease; an execution that outlives it is a failure | `lease: Some(_)` |
//! | outcomes feed the breakers; an opened one abandons its candidate | `breaker: Some(_)` |
//! | fail over to the next candidate, then (`Err`) re-plan | always |
//!
//! So `RecoveryPolicy::disabled()` is the paper's §3.3 sequence and
//! nothing more: one try per ranked container, then re-plan.
//!
//! `attempt`, carried by `activity.dispatched`, `activity.failed` and
//! `retry.scheduled`, counts the *candidate slots passed or tried in
//! this step*: it starts at 0 and grows by one for every candidate that
//! was reserved away and for every dispatch, retries included.

use super::{ActivityExecution, CaseFiber, FiberStatus};
use crate::error::{Result, ServiceError};
use crate::matchmaking::{matchmake_admitted, MatchRequest};
use crate::monitoring::MonitoringService;
use crate::world::GridWorld;
use gridflow_recovery::Admission;
use gridflow_telemetry::TraceEvent;
use serde::{Deserialize, Serialize};

/// What one pass over the ladder came to (the `Err` of the surrounding
/// `Result` still means *every candidate failed* — the re-planning
/// escalation).
pub(super) enum ActivityOutcome {
    /// The activity executed and its outputs were applied.
    Completed,
    /// No candidate was even dispatched: every matched container was
    /// already reserved by another case this tick.
    Blocked {
        /// The candidate containers that were all reserved away, in
        /// rank order — the contention set a blocked re-step checks
        /// cheaply before re-ranking.
        taken: Vec<String>,
    },
}

/// Cached context from a step that returned [`FiberStatus::Blocked`].
///
/// While a fiber is blocked on reserved-away capacity nothing about its
/// own state changes — the ATN state, data state, and graph are exactly
/// as the blocking step left them — so the next step would choose the
/// same activity.  When the candidate ranking provably could not have
/// changed either and every ranked candidate is still fully booked, that
/// step skips the matchmake too and just reports the block again.  Every
/// observable emission is preserved: a still-blocked re-step produces
/// exactly the one `CaseBlocked` event the full path would.  Stored as
/// is in a [`FiberSlim`](super::FiberSlim), so a restored fiber resumes
/// the same way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingDispatch {
    /// The ready activity the blocking step chose.
    pub activity_id: String,
    /// The service it resolves to.
    pub service: String,
    /// [`GridWorld::generation`] at the blocking step: candidate
    /// rankings are only reused while the generation is unchanged.
    pub generation: u64,
    /// The reserved-away candidate set, in rank order.  `None` when the
    /// policy configures a breaker: the monitoring feed and the
    /// admission filter are the only rungs that change state (and may
    /// emit trace events) on a step that dispatches nothing, so with
    /// them on a blocked re-step must walk the whole ladder again.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub taken: Option<Vec<String>>,
}

impl CaseFiber {
    /// Contention-only fast path: while the world's matchmaking
    /// generation is unchanged the blocking step's candidate ranking
    /// still stands, and if every ranked candidate is still fully
    /// booked the outcome is another block — one `CaseBlocked` event,
    /// nothing else, exactly like the full path.  `None` (and the cache
    /// cleared) when the step must walk the ladder.
    pub(super) fn still_blocked(&mut self, world: &GridWorld) -> Option<FiberStatus> {
        let pending = self.pending.take()?;
        let taken = pending.taken.as_ref()?;
        let unchanged = world.reservations_enabled()
            && world.generation() == pending.generation
            && !taken.is_empty()
            && taken.iter().all(|c| world.free_slots(c) == 0);
        if !unchanged {
            return None;
        }
        let service = pending.service.clone();
        self.pending = Some(pending);
        Some(self.announce_blocked(service))
    }

    /// Record a capacity block: cache the dispatch context for the next
    /// step's contention check, announce `CaseBlocked`, and report
    /// [`FiberStatus::Blocked`].
    pub(super) fn note_blocked(
        &mut self,
        world: &GridWorld,
        activity_id: String,
        service: String,
        taken: Vec<String>,
    ) -> FiberStatus {
        let cacheable = self.recovery.policy().breaker.is_none();
        self.pending = Some(PendingDispatch {
            activity_id,
            service: service.clone(),
            generation: world.generation(),
            taken: cacheable.then_some(taken),
        });
        self.announce_blocked(service)
    }

    fn announce_blocked(&mut self, service: String) -> FiberStatus {
        self.trace.emit(
            "enactor",
            TraceEvent::CaseBlocked {
                case: self.label.clone(),
                service: service.clone(),
            },
        );
        FiberStatus::Blocked { service }
    }

    /// Reserve a tick slot on `container` under the world's reservation
    /// protocol.  Always succeeds (and emits nothing) while the
    /// protocol is off, keeping single-case traces byte-identical.
    fn reserve(&mut self, world: &mut GridWorld, container: &str) -> bool {
        if !world.reservations_enabled() {
            return true;
        }
        if world.try_reserve(&self.label, container) {
            self.trace.emit(
                "enactor",
                TraceEvent::SlotReserved {
                    case: self.label.clone(),
                    container: container.to_owned(),
                },
            );
            true
        } else {
            false
        }
    }

    /// Try to execute one activity, applying outputs on success: the
    /// ladder of the module docs.  For each admitted candidate in rank
    /// order, up to `RetryPolicy::max_attempts` tries with seeded
    /// backoff between them; a candidate whose breaker opens mid-rung
    /// is abandoned (failover); a candidate admitted half-open gets
    /// exactly one probe try.  An execution that outlives its lease
    /// counts as a failure even though the world completed it — slow is
    /// the failure mode leases exist to catch.  Candidates whose
    /// reservation fails are skipped without dispatching; if *no*
    /// candidate could be dispatched and at least one was reserved
    /// away, the outcome is [`ActivityOutcome::Blocked`] — contention
    /// is not failure.
    pub(super) fn run_activity(
        &mut self,
        world: &mut GridWorld,
        service: &str,
        activity_id: &str,
    ) -> Result<ActivityOutcome> {
        // Monitoring feedback: let live probes open/half-open the
        // circuit breakers before matchmaking sees the candidates.
        MonitoringService.feed_recovery(world, &mut self.recovery);
        let candidates = matchmake_admitted(
            world,
            &MatchRequest::for_service(service),
            &mut self.recovery,
        )?;
        let tries = self.recovery.policy().retry.max_attempts.max(1);
        let mut attempt = 0usize;
        let mut dispatched = false;
        let mut taken: Vec<String> = Vec::new();
        for candidate in candidates.iter().take(self.config.max_candidates.max(1)) {
            let container = candidate.container.as_str();
            if !self.reserve(world, container) {
                taken.push(container.to_owned());
                attempt += 1;
                continue;
            }
            for retry in 0..tries {
                let admission = self.recovery.admit(container);
                if admission == Admission::Reject {
                    // The breaker opened mid-rung: fail over.
                    break;
                }
                if retry > 0 {
                    // Backoff before the retry, in deterministic virtual
                    // ticks drawn from the seeded policy.
                    self.recovery
                        .schedule_retry(activity_id, service, container, attempt, retry);
                }
                self.recovery.grant_lease(activity_id, container);
                dispatched = true;
                self.trace.emit(
                    "enactor",
                    TraceEvent::ActivityDispatched {
                        activity: activity_id.to_owned(),
                        service: service.to_owned(),
                        container: container.to_owned(),
                        attempt,
                    },
                );
                match world.execute_service(service, container) {
                    Ok(record) => {
                        let took = self.recovery.note_execution_seconds(record.duration_s);
                        if !self.recovery.lease_expired(activity_id, container, took) {
                            self.recovery.record_success(container);
                            self.apply_success(world, service, activity_id, &record)?;
                            return Ok(ActivityOutcome::Completed);
                        }
                        // The work finished, but past its deadline: the
                        // coordinator already gave up on it.  The time
                        // and cost were still spent.
                        self.report.total_duration_s += record.duration_s;
                        self.report.total_cost += record.cost;
                        self.trace.advance_s(record.duration_s);
                    }
                    Err(_) => self.recovery.tick(1),
                }
                self.recovery.record_failure(container);
                self.report
                    .failed_attempts
                    .push((activity_id.to_owned(), container.to_owned()));
                self.trace.emit(
                    "enactor",
                    TraceEvent::ActivityFailed {
                        activity: activity_id.to_owned(),
                        service: service.to_owned(),
                        container: container.to_owned(),
                        attempt,
                    },
                );
                attempt += 1;
                // A half-open probe gets exactly one try.
                if admission == Admission::Probe {
                    break;
                }
            }
        }
        if !dispatched && !taken.is_empty() {
            return Ok(ActivityOutcome::Blocked { taken });
        }
        Err(ServiceError::ActivityFailed {
            activity: activity_id.to_owned(),
            service: service.to_owned(),
        })
    }

    /// Success bookkeeping: apply outputs, accrue totals, record the
    /// execution, advance the virtual clock, emit `ActivityCompleted`.
    fn apply_success(
        &mut self,
        world: &mut GridWorld,
        service: &str,
        activity_id: &str,
        record: &crate::ExecutionRecord,
    ) -> Result<()> {
        let produced = world.apply_outputs(service, &mut self.state)?;
        self.report.produced.extend(produced);
        self.report.total_duration_s += record.duration_s;
        self.report.total_cost += record.cost;
        self.report.executions.push(ActivityExecution {
            activity: activity_id.to_owned(),
            service: service.to_owned(),
            container: record.container.clone(),
            duration_s: record.duration_s,
            cost: record.cost,
        });
        // Advance the trace's virtual clock by the simulated execution
        // time, so `at_s` reads as cumulative virtual seconds.
        self.trace.advance_s(record.duration_s);
        self.trace.emit(
            "enactor",
            TraceEvent::ActivityCompleted {
                activity: activity_id.to_owned(),
                service: service.to_owned(),
                container: record.container.clone(),
                duration_s: record.duration_s,
                cost: record.cost,
            },
        );
        Ok(())
    }
}
