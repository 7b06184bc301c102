//! `PlanningProblem::from_kb` on Fig. 13's knowledge base: the planner
//! plans with what the metainformation says, and refuses by name what it
//! cannot read.

use gridflow::casestudy::ontology_instances;
use gridflow::experiments::table1_config;
use gridflow_ontology::{KnowledgeBase, OntologyError, Value};
use gridflow_planner::{GpConfig, GpPlanner, PlanningProblem};

/// Fig. 13's knowledge base with one slot of one instance rewritten.
fn rewritten(id: &str, slot: &str, value: Value) -> KnowledgeBase {
    let mut kb = ontology_instances();
    kb.instance_mut(id)
        .expect("a Fig. 13 instance")
        .set(slot, value);
    kb
}

fn violation(instance: &str, slot: &str, reason: &str) -> OntologyError {
    OntologyError::FacetViolation {
        instance: instance.into(),
        slot: slot.into(),
        reason: reason.into(),
    }
}

/// The goal fitness of the Table 1 planner's best plan, at Table 2's
/// first seed, on the problem `kb` states for T1.
fn best_goal_fitness(kb: &KnowledgeBase) -> f64 {
    let problem = PlanningProblem::from_kb(kb, "T1").expect("T1 reads");
    let config = GpConfig {
        seed: 1,
        ..table1_config()
    };
    GpPlanner::new(config, problem).run().best_fitness.goal
}

/// Nothing in the knowledge base produces a `4D Model`, so once C7 asks
/// for one, no plan reaches the resolution file.
#[test]
fn c7_requiring_a_4d_model_puts_the_goal_out_of_reach() {
    let c7 = "C7: A.Classification = \"PSF-Parameter\" and B.Classification = \"4D Model\" \
              and C.Classification = \"3D Model\"";
    let kb = rewritten("PSF", "Input Condition", Value::str_list([c7]));
    let problem = PlanningProblem::from_kb(&kb, "T1").unwrap();
    let psf = problem.activity("PSF").unwrap();
    assert_eq!(psf.inputs, ["PSF-Parameter", "4D Model", "3D Model"]);

    assert_eq!(best_goal_fitness(&ontology_instances()), 1.0);
    assert_eq!(best_goal_fitness(&kb), 0.0);
}

#[test]
fn a_missing_task_or_data_item_is_an_unknown_instance() {
    let kb = ontology_instances();
    assert_eq!(
        PlanningProblem::from_kb(&kb, "T2"),
        Err(OntologyError::UnknownInstance("T2".into()))
    );
    let kb = rewritten("T1", "Data Set", Value::ref_list(["D1", "D99", "D7"]));
    assert_eq!(
        PlanningProblem::from_kb(&kb, "T1"),
        Err(OntologyError::UnknownInstance("D99".into()))
    );
}

#[test]
fn an_unparseable_condition_is_refused_with_the_parser_error() {
    let c1 = "C1: A.Classification = and B.Classification = \"2D Image\"";
    let kb = rewritten("POD", "Input Condition", Value::str_list([c1]));
    assert_eq!(
        PlanningProblem::from_kb(&kb, "T1"),
        Err(violation(
            "POD",
            "Input Condition",
            "parse error at byte 20: expected a literal, found and"
        ))
    );
}

#[test]
fn a_variable_no_conjunct_classifies_is_refused() {
    let kb = rewritten("POD", "Input Data Set", Value::str_list(["A", "B", "Z"]));
    assert_eq!(
        PlanningProblem::from_kb(&kb, "T1"),
        Err(violation(
            "POD",
            "Input Condition",
            "no conjunct classifies \"Z\""
        ))
    );
}

#[test]
fn a_disjunction_in_a_signature_is_refused() {
    let c4 = "C4: D.Classification = \"3D Model\" or D.Classification = \"2D Image\"";
    let kb = rewritten("P3DR", "Output Condition", Value::str_list([c4]));
    assert_eq!(
        PlanningProblem::from_kb(&kb, "T1"),
        Err(violation(
            "P3DR",
            "Output Condition",
            "`D.Classification = \"3D Model\" or D.Classification = \"2D Image\"` \
             is not a classification"
        ))
    );
}
