//! The system state tracked during plan simulation.
//!
//! "S_init … include\[s\] all the initial data provided by an end user and
//! their specifications" (§3.2).  For planning purposes a data item is
//! characterized by its *classification* (the property every service
//! signature C1–C8 of Fig. 13 constrains), so the state of one flow of
//! execution is a multiset of classifications: how many distinct data
//! items of each kind exist.
//!
//! Over the simulator's dense classification ids a multiset is a row of
//! counts.  [`PlanningState`] holds one row per enumerated flow, back to
//! back in one buffer: forking a flow at a selective node is a slice
//! copy, and a state reused across evaluations allocates nothing.

use std::ops::Range;

/// An activity's signature over classification ids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Signature {
    /// Required inputs as `(classification, how many)` — a multiset: an
    /// activity listing `3D Model` twice needs two items.
    pub required: Vec<(usize, u32)>,
    /// The classification of each produced item.
    pub outputs: Vec<usize>,
}

/// The execution tally of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Flow {
    /// Valid activity executions in this flow.
    pub valid: usize,
    /// Total activity executions in this flow.
    pub executed: usize,
}

/// The multiset of data classifications of every enumerated flow.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct PlanningState {
    /// Classifications per row.
    width: usize,
    /// `flows.len()` rows of `width` counts.
    counts: Vec<u32>,
    flows: Vec<Flow>,
}

impl PlanningState {
    /// Restart as a single flow holding `initial[id]` items of each
    /// classification.
    pub fn reset(&mut self, initial: &[u32]) {
        self.width = initial.len();
        self.counts.clear();
        self.counts.extend_from_slice(initial);
        self.flows.clear();
        self.flows.push(Flow::default());
    }

    /// The tally of every flow, in enumeration order.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Number of items with this classification in `flow`.
    pub fn count(&self, flow: usize, classification: usize) -> u32 {
        self.counts[flow * self.width + classification]
    }

    /// Append a copy of `flow`.
    pub fn fork(&mut self, flow: usize) {
        let row = flow * self.width;
        self.counts.extend_from_within(row..row + self.width);
        self.flows.push(self.flows[flow]);
    }

    /// Execute one activity in every flow from `from` on.  Where the
    /// flow provides every required input the execution is valid and
    /// its outputs are applied (data is produced, never consumed — the
    /// paper's activities add to and modify the data pool); otherwise,
    /// or when the grid offers no such activity (`None`), it is invalid
    /// and the flow's state is unchanged.
    pub fn execute(&mut self, from: usize, activity: Option<&Signature>) {
        for (flow, tally) in self.flows.iter_mut().enumerate().skip(from) {
            let row = &mut self.counts[flow * self.width..(flow + 1) * self.width];
            tally.executed += 1;
            if let Some(activity) = activity {
                if activity.required.iter().all(|&(c, n)| row[c] >= n) {
                    tally.valid += 1;
                    for &c in &activity.outputs {
                        row[c] += 1;
                    }
                }
            }
        }
    }

    /// Replace the flows in `parents` by the forks enumerated behind
    /// them, of which at most the `cap` earliest are kept.
    pub fn retire(&mut self, parents: Range<usize>, cap: usize) {
        self.flows.truncate(parents.end + cap);
        self.counts.truncate(self.flows.len() * self.width);
        self.counts
            .drain(parents.start * self.width..parents.end * self.width);
        self.flows.drain(parents);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ids for the tests' classifications.
    const PARAM: usize = 0;
    const MODEL: usize = 1;
    const RESOLUTION: usize = 2;

    fn state(initial: [u32; 3]) -> PlanningState {
        let mut s = PlanningState::default();
        s.reset(&initial);
        s
    }

    #[test]
    fn multiset_counting() {
        let mut s = state([2, 1, 0]);
        assert_eq!(s.count(0, PARAM), 2);
        assert_eq!(s.count(0, MODEL), 1);
        assert_eq!(s.count(0, RESOLUTION), 0);
        assert_eq!(s.flows().len(), 1);
        // A fork is an independent copy; removing the original keeps it.
        s.fork(0);
        s.execute(
            1,
            Some(&Signature {
                required: vec![],
                outputs: vec![RESOLUTION],
            }),
        );
        assert_eq!((s.count(0, RESOLUTION), s.count(1, RESOLUTION)), (0, 1));
        s.retire(0..1, 8);
        assert_eq!(s.flows().len(), 1);
        assert_eq!((s.count(0, PARAM), s.count(0, RESOLUTION)), (2, 1));
    }

    #[test]
    fn inputs_respect_multiplicity() {
        let psf = Signature {
            required: vec![(PARAM, 1), (MODEL, 2)],
            outputs: vec![RESOLUTION],
        };
        let p3dr = Signature {
            required: vec![],
            outputs: vec![MODEL],
        };
        let mut s = state([1, 1, 0]);
        s.execute(0, Some(&psf));
        assert_eq!(
            (s.flows()[0].valid, s.count(0, RESOLUTION)),
            (0, 0),
            "one 3D Model must not satisfy a two-model input"
        );
        s.execute(0, Some(&p3dr));
        s.execute(0, Some(&psf));
        assert_eq!(s.flows()[0].valid, 2);
        assert_eq!(s.flows()[0].executed, 3);
        assert_eq!(s.count(0, RESOLUTION), 1);
    }

    #[test]
    fn outputs_accumulate() {
        let p3dr = Signature {
            required: vec![],
            outputs: vec![MODEL],
        };
        let mut s = state([0, 0, 0]);
        s.execute(0, Some(&p3dr));
        s.execute(0, Some(&p3dr));
        assert_eq!(s.count(0, MODEL), 2);
    }

    #[test]
    fn goal_satisfaction() {
        // Flows are judged one by one: only the fork that produced a
        // second resolution file holds two, and the cap keeps the earliest.
        let mut s = state([0, 0, 1]);
        s.fork(0);
        s.fork(0);
        s.fork(0);
        s.execute(
            3,
            Some(&Signature {
                required: vec![(RESOLUTION, 1)],
                outputs: vec![RESOLUTION],
            }),
        );
        let held: Vec<u32> = (0..4).map(|flow| s.count(flow, RESOLUTION)).collect();
        assert_eq!(held, [1, 1, 1, 2]);
        assert_eq!(s.count(3, MODEL), 0);
        s.retire(0..1, 2);
        assert_eq!(s.flows().len(), 2);
        assert_eq!((s.count(0, RESOLUTION), s.count(1, RESOLUTION)), (1, 1));
    }

    #[test]
    fn no_inputs_always_satisfied() {
        let mut s = PlanningState::default();
        s.reset(&[]);
        s.execute(0, Some(&Signature::default()));
        s.execute(0, None);
        assert_eq!(
            s.flows()[0],
            Flow {
                valid: 1,
                executed: 2
            }
        );
    }
}
