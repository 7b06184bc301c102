//! Case descriptions.
//!
//! "A case description provides additional information for a particular
//! instance of the process the user wishes to perform, e.g., it provides
//! the location of the actual data for the computation, additional
//! constraints, and conditions" (§2).  In Fig. 13 the case description
//! `CD-3DSD` names the initial data set `{D1 … D7}`, the goal result set
//! `{D12}`, and the constraint `Cons1` steering the refinement loop.

use crate::condition::Condition;
use crate::data::{DataItem, DataState};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A case description: the per-run instantiation of a process description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseDescription {
    /// Name (e.g. `CD-3DSD`).
    pub name: String,
    /// The initial data items available when enactment starts.
    pub initial_data: DataState,
    /// Goal specifications: conditions that must hold on the final data
    /// state.  Each has a label for reporting (e.g. `G1`).
    pub goals: Vec<(String, Condition)>,
    /// Named constraints (e.g. `Cons1`) that the coordination service
    /// consults; loop and choice conditions in the process description may
    /// reference the same data these constrain.
    pub constraints: BTreeMap<String, Condition>,
    /// Data ids the user designates as results.
    pub result_set: Vec<String>,
}

impl CaseDescription {
    /// An empty case description.
    pub fn new(name: impl Into<String>) -> Self {
        CaseDescription {
            name: name.into(),
            initial_data: DataState::new(),
            goals: Vec::new(),
            constraints: BTreeMap::new(),
            result_set: Vec::new(),
        }
    }

    /// Add an initial data item (builder style).
    pub fn with_data(mut self, id: impl Into<String>, item: DataItem) -> Self {
        self.initial_data.insert(id, item);
        self
    }

    /// Add a goal specification (builder style).
    pub fn with_goal(mut self, label: impl Into<String>, cond: Condition) -> Self {
        self.goals.push((label.into(), cond));
        self
    }

    /// Add a named constraint (builder style).
    pub fn with_constraint(mut self, name: impl Into<String>, cond: Condition) -> Self {
        self.constraints.insert(name.into(), cond);
        self
    }

    /// Designate a result data id (builder style).
    pub fn with_result(mut self, id: impl Into<String>) -> Self {
        self.result_set.push(id.into());
        self
    }

    /// How many of the goal specifications hold in `state`?
    pub fn satisfied_goals(&self, state: &DataState) -> usize {
        self.goals.iter().filter(|(_, c)| c.eval(state)).count()
    }

    /// Do all goal specifications hold in `state`?
    pub fn goals_met(&self, state: &DataState) -> bool {
        self.satisfied_goals(state) == self.goals.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::CompareOp;
    use gridflow_ontology::Value;

    fn case() -> CaseDescription {
        CaseDescription::new("CD-3DSD")
            .with_data("D1", DataItem::classified("POD-Parameter"))
            .with_data("D7", DataItem::classified("2D Image"))
            .with_goal("G1", Condition::classified("D12", "Resolution File"))
            .with_goal("G2", Condition::compare("D10", "Value", CompareOp::Le, 8.0))
            .with_constraint(
                "Cons1",
                Condition::classified("D10", "Resolution File").and(Condition::compare(
                    "D10",
                    "Value",
                    CompareOp::Gt,
                    8i64,
                )),
            )
            .with_result("D12")
    }

    #[test]
    fn builder_populates_fields() {
        let c = case();
        assert_eq!(c.initial_data.len(), 2);
        assert_eq!(c.goals.len(), 2);
        assert!(c.constraints.contains_key("Cons1"));
        assert_eq!(c.result_set, vec!["D12"]);
    }

    #[test]
    fn satisfied_goals_counts() {
        let c = case();
        let mut state = DataState::new();
        assert_eq!(c.satisfied_goals(&state), 0);
        state.insert("D12", DataItem::classified("Resolution File"));
        assert_eq!(c.satisfied_goals(&state), 1);
        state.insert(
            "D10",
            DataItem::classified("Resolution File").with("Value", Value::Float(7.5)),
        );
        assert_eq!(c.satisfied_goals(&state), 2);
        assert!(c.goals_met(&state));
    }

    #[test]
    fn no_goals_means_trivially_met() {
        let c = CaseDescription::new("empty");
        assert!(c.goals_met(&DataState::new()));
    }

    #[test]
    fn serde_round_trip() {
        let c = case();
        let json = serde_json::to_string(&c).unwrap();
        let back: CaseDescription = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn or_chain_goal_holds_only_for_a_watched_id_of_the_class() {
        // The dinner shape: any of D101..D140 classified "Plated".
        let chain = (101..=140)
            .map(|i| Condition::classified(format!("D{i}"), "Plated"))
            .reduce(Condition::or)
            .unwrap();
        let c = CaseDescription::new("dinner").with_goal("G", chain);
        let mut state = DataState::new();
        state.insert("D1", DataItem::classified("Raw"));
        assert!(!c.goals_met(&state));
        // An id outside the watched range does not satisfy it.
        state.insert("D999", DataItem::classified("Plated"));
        assert!(!c.goals_met(&state));
        // A watched id with the wrong class does not satisfy it.
        state.insert("D105", DataItem::classified("Raw"));
        assert!(!c.goals_met(&state));
        // A watched id with the right class does.
        state.insert("D117", DataItem::classified("Plated"));
        assert!(c.goals_met(&state));
    }
}
