//! Planning problems: `P = {S_init, G, T}` (§3.2), by hand or from Fig. 13.

use gridflow_ontology::{schema::classes, Instance, KnowledgeBase, OntologyError, Value};
use gridflow_process::{parser::parse_condition, CompareOp, Condition};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An end-user activity available to the planner (an element of `T`).
///
/// Preconditions and postconditions follow the shape of the service
/// signatures C1–C8 of Fig. 13: each input is a required data
/// *classification* (duplicates mean that many distinct items are needed —
/// PSF requires two `3D Model`s, one per reconstruction stream), and each
/// output is the classification of a data item the activity produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivitySpec {
    /// Service name (e.g. `P3DR`).
    pub name: String,
    /// Required input classifications (a multiset).
    pub inputs: Vec<String>,
    /// Produced output classifications.
    pub outputs: Vec<String>,
    /// Nominal cost of one execution (used by the grid scheduler; the
    /// planner itself ignores it).
    pub cost: f64,
}

impl ActivitySpec {
    /// A new activity with unit cost.
    pub fn new<I, O, S, T>(name: impl Into<String>, inputs: I, outputs: O) -> Self
    where
        I: IntoIterator<Item = S>,
        O: IntoIterator<Item = T>,
        S: Into<String>,
        T: Into<String>,
    {
        ActivitySpec {
            name: name.into(),
            inputs: inputs.into_iter().map(Into::into).collect(),
            outputs: outputs.into_iter().map(Into::into).collect(),
            cost: 1.0,
        }
    }

    /// Set the nominal cost (builder style).
    pub fn with_cost(mut self, cost: f64) -> Self {
        self.cost = cost;
        self
    }
}

/// One goal specification: at least `min_count` data items with the given
/// classification must exist in the final state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoalSpec {
    /// Required classification.
    pub classification: String,
    /// Minimum number of distinct items.
    pub min_count: usize,
}

/// A planning problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanningProblem {
    /// `S_init`: classifications of the initially available data items
    /// (a multiset).
    pub initial: Vec<String>,
    /// `G`: the goal specifications.
    pub goals: Vec<GoalSpec>,
    /// `T`: the end-user activities available in the grid.
    pub activities: Vec<ActivitySpec>,
}

impl PlanningProblem {
    /// Start building a problem.
    pub fn builder() -> PlanningProblemBuilder {
        PlanningProblemBuilder::default()
    }

    /// `P` as the knowledge base states it for `task` (Fig. 13): `S_init`
    /// classifies the task's `Data Set`, `G` counts its `Result Set` by
    /// classification, and `T` is every `Service`, by id, at unit cost,
    /// signed by its `Input` / `Output Condition`.  Services the task's
    /// process description uses come first, in its order: the GP draws
    /// terminals by index, so this order is part of every plan.
    pub fn from_kb(kb: &KnowledgeBase, task: &str) -> Result<PlanningProblem, OntologyError> {
        let task = lookup(kb, task)?;
        let classified = |slot| -> Result<Vec<String>, OntologyError> {
            let classify = |id: &str| {
                let class = lookup(kb, id)?.get_str("Classification").map(str::to_owned);
                class.ok_or_else(|| OntologyError::MissingRequiredSlot {
                    instance: id.to_owned(),
                    slot: "Classification".to_owned(),
                })
            };
            task.get_ref_list(slot).into_iter().map(classify).collect()
        };
        let mut problem = Self::builder().initial(classified("Data Set")?);
        let mut results = classified("Result Set")?;
        results.sort();
        for same in results.chunk_by(|a, b| a == b) {
            problem = problem.goal(&same[0], same.len());
        }
        let mut used = Vec::new();
        if let Some(process) = task.get_ref("Process Description") {
            for id in lookup(kb, process)?.get_ref_list("Activity Set") {
                used.extend(lookup(kb, id)?.get_str("Service Name"));
            }
        }
        let mut services: Vec<&Instance> = kb.instances_of(classes::SERVICE).collect();
        services.sort_by_key(|s| used.iter().position(|&u| u == s.id).unwrap_or(used.len()));
        for service in services {
            let (inputs, outputs) = (signature(service, "Input")?, signature(service, "Output")?);
            problem = problem.activity(ActivitySpec::new(&service.id, inputs, outputs));
        }
        Ok(problem.build())
    }

    /// Look up an activity by service name.
    pub fn activity(&self, name: &str) -> Option<&ActivitySpec> {
        self.activities.iter().find(|a| a.name == name)
    }

    /// A copy of the problem with the given activities removed from `T`
    /// (re-planning: "avoid reusing in the new plan those activities that
    /// prevent the previous plan from successful execution", §3.3).
    pub fn without_activities<'a, I: IntoIterator<Item = &'a str>>(&self, excluded: I) -> Self {
        let excluded: Vec<&str> = excluded.into_iter().collect();
        PlanningProblem {
            initial: self.initial.clone(),
            goals: self.goals.clone(),
            activities: self
                .activities
                .iter()
                .filter(|a| !excluded.contains(&a.name.as_str()))
                .cloned()
                .collect(),
        }
    }
}

/// The instance `id`, or `UnknownInstance`.
fn lookup<'k>(kb: &'k KnowledgeBase, id: &str) -> Result<&'k Instance, OntologyError> {
    kb.instance(id)
        .ok_or_else(|| OntologyError::UnknownInstance(id.to_owned()))
}

/// The classifications of `service`'s `{side} Data Set` variables, as the
/// `X.Classification = "…"` conjuncts of its `{side} Condition` state
/// them; a condition entry that is not a string states nothing.
fn signature(service: &Instance, side: &str) -> Result<Vec<String>, OntologyError> {
    let slot = format!("{side} Condition");
    let violation = |reason: String| OntologyError::FacetViolation {
        instance: service.id.clone(),
        slot: slot.clone(),
        reason,
    };
    let mut classified = BTreeMap::new();
    let texts = service.get_list(&slot).unwrap_or_default();
    for text in texts.iter().filter_map(Value::as_str) {
        // Fig. 13 labels each condition: `C1: …`.
        let body = match text.split_once(':') {
            Some((label, body)) if label.chars().all(char::is_alphanumeric) => body,
            _ => text,
        };
        let mut conjuncts = vec![parse_condition(body).map_err(|e| violation(e.to_string()))?];
        while let Some(conjunct) = conjuncts.pop() {
            match conjunct {
                Condition::And(a, b) => conjuncts.extend([*a, *b]),
                Condition::Compare {
                    data,
                    property,
                    op: CompareOp::Eq,
                    value: Value::Str(class),
                } if property == "Classification" => {
                    classified.insert(data, class);
                }
                other => return Err(violation(format!("`{other}` is not a classification"))),
            }
        }
    }
    let classify = |var: &Value| {
        let class = var.as_str().and_then(|var| classified.get(var)).cloned();
        class.ok_or_else(|| violation(format!("no conjunct classifies {var}")))
    };
    let variables = service.get_list(&format!("{side} Data Set"));
    variables.unwrap_or_default().iter().map(classify).collect()
}

/// Builder for [`PlanningProblem`].
#[derive(Debug, Default)]
pub struct PlanningProblemBuilder {
    initial: Vec<String>,
    goals: Vec<GoalSpec>,
    activities: Vec<ActivitySpec>,
}

impl PlanningProblemBuilder {
    /// Set the initial data classifications.
    pub fn initial<I, S>(mut self, classifications: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.initial
            .extend(classifications.into_iter().map(Into::into));
        self
    }

    /// Add a goal specification.
    pub fn goal(mut self, classification: impl Into<String>, min_count: usize) -> Self {
        self.goals.push(GoalSpec {
            classification: classification.into(),
            min_count,
        });
        self
    }

    /// Add an available activity.
    pub fn activity(mut self, spec: ActivitySpec) -> Self {
        self.activities.push(spec);
        self
    }

    /// Finish building.
    pub fn build(self) -> PlanningProblem {
        PlanningProblem {
            initial: self.initial,
            goals: self.goals,
            activities: self.activities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_problem() {
        let p = PlanningProblem::builder()
            .initial(["A", "A", "B"])
            .goal("C", 1)
            .activity(ActivitySpec::new("make-c", ["A", "B"], ["C"]))
            .build();
        assert_eq!(p.initial.len(), 3);
        assert_eq!(p.goals.len(), 1);
        assert!(p.activity("make-c").is_some());
        assert!(p.activity("nope").is_none());
    }

    #[test]
    fn without_activities_filters_t() {
        let p = PlanningProblem::builder()
            .activity(ActivitySpec::new("a", Vec::<String>::new(), ["X"]))
            .activity(ActivitySpec::new("b", Vec::<String>::new(), ["Y"]))
            .build();
        let filtered = p.without_activities(["a"]);
        assert_eq!(filtered.activities.len(), 1);
        assert_eq!(filtered.activities[0].name, "b");
        // Original untouched.
        assert_eq!(p.activities.len(), 2);
    }

    #[test]
    fn activity_cost_builder() {
        let a = ActivitySpec::new("x", ["I"], ["O"]).with_cost(12.5);
        assert_eq!(a.cost, 12.5);
        assert_eq!(ActivitySpec::new("y", ["I"], ["O"]).cost, 1.0);
    }

    #[test]
    fn serde_round_trip() {
        let p = PlanningProblem::builder()
            .initial(["A"])
            .goal("B", 2)
            .activity(ActivitySpec::new("t", ["A"], ["B"]))
            .build();
        let json = serde_json::to_string(&p).unwrap();
        let back: PlanningProblem = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
