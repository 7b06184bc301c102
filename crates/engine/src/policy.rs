//! Admission policies for the case scheduler.
//!
//! Admission order is the one scheduling decision the engine makes that
//! is not dictated by the workflow itself, and it is exactly the axis
//! the Yu & Buyya taxonomy files under *scheduling / market-driven
//! architecture*: who gets into the running set first when capacity is
//! scarce.  The choice is a closed set, [`PolicySpec`].  Every tick,
//! while the running set has room, the scheduler asks the run's policy
//! for the next waiting case.  Everything else — matchmaking gates,
//! rotation-fair stepping, reservation drains — is unchanged, so two
//! runs under different policies differ *only* in admission order and
//! in the optional `reason` recorded on each `case.admitted` event.
//!
//! Determinism contract: a pick is a pure function of the waiting
//! queue and the run's admission history.  No clocks, no randomness —
//! the same submitted fleet admits in the same order on every run.
//! FIFO is the default and is byte-identical to the pre-policy engine:
//! it always picks the queue head with no reason, which is exactly the
//! old `pop_front`.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Scheduling metadata a case carries into admission.  All fields are
/// advisory: FIFO ignores them entirely, and each policy reads only the
/// axis it arbitrates.  Serializable so engine snapshots can persist
/// the hints of still-waiting cases.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CaseHints {
    /// Bigger is more urgent.  Read by [`PolicySpec::Priority`]; ties
    /// fall back to submission order.
    pub priority: i64,
    /// Accounting bucket for [`PolicySpec::FairShare`]; `None` pools
    /// the case into the `"default"` tenant.
    pub tenant: Option<String>,
    /// Absolute tick this case wants to finish by.  Read by
    /// [`PolicySpec::Deadline`]; `None` sorts after every real deadline.
    pub deadline_tick: Option<u64>,
}

impl CaseHints {
    /// Hints with the given priority, other fields defaulted.
    pub fn with_priority(priority: i64) -> Self {
        CaseHints {
            priority,
            ..Default::default()
        }
    }

    /// Hints with the given tenant, other fields defaulted.
    pub fn with_tenant(tenant: impl Into<String>) -> Self {
        CaseHints {
            tenant: Some(tenant.into()),
            ..Default::default()
        }
    }

    /// Hints with the given deadline tick, other fields defaulted.
    pub fn with_deadline(tick: u64) -> Self {
        CaseHints {
            deadline_tick: Some(tick),
            ..Default::default()
        }
    }

    /// The fair-share accounting bucket.
    fn tenant(&self) -> &str {
        self.tenant.as_deref().unwrap_or("default")
    }
}

/// Which admission policy a run uses.  Every policy breaks ties in
/// submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicySpec {
    /// First come, first served — the byte-identical default.
    #[default]
    Fifo,
    /// Highest [`CaseHints::priority`] first, so equal-priority cases
    /// degrade to FIFO and a starved high-priority case is never
    /// overtaken by a lower one arriving at the same tick.
    Priority,
    /// The waiting case whose tenant has the fewest admissions so far,
    /// so one tenant's burst cannot starve another's queue.
    FairShare,
    /// Earliest [`CaseHints::deadline_tick`] first; deadline-less cases
    /// sort after every real deadline.
    Deadline,
}

impl PolicySpec {
    /// Every spec, in canonical order (bench matrices iterate this).
    pub const ALL: [PolicySpec; 4] = [
        PolicySpec::Fifo,
        PolicySpec::Priority,
        PolicySpec::FairShare,
        PolicySpec::Deadline,
    ];

    /// The policy's stable identifier.
    pub fn name(&self) -> &'static str {
        match self {
            PolicySpec::Fifo => "fifo",
            PolicySpec::Priority => "priority",
            PolicySpec::FairShare => "fair_share",
            PolicySpec::Deadline => "deadline",
        }
    }

    /// Parse a spec from its [`name`](PolicySpec::name).
    pub fn parse(s: &str) -> Option<PolicySpec> {
        match s {
            "fifo" => Some(PolicySpec::Fifo),
            "priority" => Some(PolicySpec::Priority),
            "fair_share" | "fair-share" => Some(PolicySpec::FairShare),
            "deadline" | "edf" => Some(PolicySpec::Deadline),
            _ => None,
        }
    }
}

impl std::str::FromStr for PolicySpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicySpec::parse(s).ok_or_else(|| {
            format!("unknown admission policy `{s}` (expected fifo|priority|fair_share|deadline)")
        })
    }
}

/// The admission policy a run applies: its spec plus the history fair
/// share reads, the admissions so far per tenant.
#[derive(Debug)]
pub(crate) struct Policy {
    spec: PolicySpec,
    admitted: BTreeMap<String, u64>,
}

impl Policy {
    /// A fresh policy with empty history.
    pub(crate) fn new(spec: PolicySpec) -> Self {
        Policy {
            spec,
            admitted: BTreeMap::new(),
        }
    }

    /// `true` iff this is FIFO, which always picks the queue head with
    /// no reason.
    pub(crate) fn is_fifo(&self) -> bool {
        self.spec == PolicySpec::Fifo
    }

    /// The queue position to admit next and the reason recorded on its
    /// `case.admitted` event, or `None` when nothing waits.  `waiting`
    /// yields each waiting case's submission index and hints in queue
    /// order.
    pub(crate) fn next<'a>(
        &self,
        mut waiting: impl Iterator<Item = (usize, &'a CaseHints)>,
    ) -> Option<(usize, Option<String>)> {
        match self.spec {
            PolicySpec::Fifo => waiting.next().map(|_| (0, None)),
            PolicySpec::Priority => first_by(waiting, |h| Reverse(h.priority))
                .map(|(pos, h)| (pos, Some(format!("priority={}", h.priority)))),
            PolicySpec::FairShare => first_by(waiting, |h| self.share(h)).map(|(pos, h)| {
                let reason = format!(
                    "fair_share tenant={} admitted={}",
                    h.tenant(),
                    self.share(h)
                );
                (pos, Some(reason))
            }),
            PolicySpec::Deadline => {
                first_by(waiting, |h| h.deadline_tick.unwrap_or(u64::MAX)).map(|(pos, h)| {
                    let reason = match h.deadline_tick {
                        Some(d) => format!("deadline={d}"),
                        None => "deadline=none".to_string(),
                    };
                    (pos, Some(reason))
                })
            }
        }
    }

    /// The case with `hints` passed the admission gate and is now
    /// running.  A pick the gate rejects is never admitted and leaves
    /// the history alone.
    pub(crate) fn admitted(&mut self, hints: &CaseHints) {
        if self.spec == PolicySpec::FairShare {
            *self.admitted.entry(hints.tenant().to_owned()).or_insert(0) += 1;
        }
    }

    /// Admissions so far of `hints`' tenant.
    fn share(&self, hints: &CaseHints) -> u64 {
        self.admitted.get(hints.tenant()).copied().unwrap_or(0)
    }
}

/// The queue position and hints of the waiting case with the smallest
/// `key`, ties to the earlier submission.
fn first_by<'a, K: Ord>(
    waiting: impl Iterator<Item = (usize, &'a CaseHints)>,
    key: impl Fn(&CaseHints) -> K,
) -> Option<(usize, &'a CaseHints)> {
    waiting
        .enumerate()
        .min_by_key(|(_, (submitted, hints))| (key(hints), *submitted))
        .map(|(pos, (_, hints))| (pos, hints))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(policy: &Policy, hints: &[CaseHints]) -> Option<(usize, Option<String>)> {
        policy.next(hints.iter().enumerate())
    }

    #[test]
    fn fifo_always_picks_the_front_with_no_reason() {
        let hints = vec![CaseHints::with_priority(0), CaseHints::with_priority(9)];
        let p = Policy::new(PolicySpec::Fifo);
        assert_eq!(pick(&p, &hints), Some((0, None)));
        assert_eq!(pick(&p, &[]), None);
    }

    #[test]
    fn priority_picks_highest_and_breaks_ties_by_submission() {
        let hints = vec![
            CaseHints::with_priority(1),
            CaseHints::with_priority(5),
            CaseHints::with_priority(5),
        ];
        let p = Policy::new(PolicySpec::Priority);
        assert_eq!(
            pick(&p, &hints),
            Some((1, Some("priority=5".into()))),
            "first of the tied high-priority pair"
        );
    }

    #[test]
    fn fair_share_rotates_across_tenants() {
        let hints = vec![
            CaseHints::with_tenant("a"),
            CaseHints::with_tenant("a"),
            CaseHints::with_tenant("b"),
        ];
        let mut p = Policy::new(PolicySpec::FairShare);
        let (first, reason) = pick(&p, &hints).unwrap();
        assert_eq!(first, 0, "all shares zero: submission order");
        assert_eq!(reason.as_deref(), Some("fair_share tenant=a admitted=0"));
        p.admitted(&hints[first]);
        let (second, _) = pick(&p, &hints).unwrap();
        assert_eq!(second, 2, "tenant b owed after a's admission");
    }

    #[test]
    fn deadline_is_edf_with_none_sorting_last() {
        let hints = vec![
            CaseHints::default(),
            CaseHints::with_deadline(40),
            CaseHints::with_deadline(10),
        ];
        let p = Policy::new(PolicySpec::Deadline);
        assert_eq!(pick(&p, &hints), Some((2, Some("deadline=10".into()))));
        assert_eq!(
            pick(&p, &hints[..1]),
            Some((0, Some("deadline=none".into())))
        );
    }

    #[test]
    fn spec_round_trips_names() {
        for spec in PolicySpec::ALL {
            assert_eq!(PolicySpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(PolicySpec::parse("edf"), Some(PolicySpec::Deadline));
        assert_eq!(PolicySpec::parse("nope"), None);
    }
}
