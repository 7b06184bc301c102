//! Workflow pattern builders: programmatic constructors for the
//! composition shapes the paper's §1 motivates ("iterative execution
//! with a number of cycles that cannot be pre-determined, concurrent
//! execution of coarse grain or fine grain computations, and multiple
//! choices").
//!
//! Each builder produces a [`ProcessAst`] (or statement) that lowers to a
//! well-formed graph; they compose freely:
//!
//! ```
//! use gridflow_process::patterns;
//! use gridflow_process::{lower::lower, Condition};
//!
//! // stage-in → (analysis ∥ rendering) → publish, retried while a
//! // quality condition fails:
//! let body = patterns::sequence([
//!     patterns::activity("stage-in"),
//!     patterns::fan_out(["analyze", "render"]),
//!     patterns::activity("publish"),
//! ]);
//! let ast = patterns::process([patterns::do_while(
//!     Condition::compare("Q", "Value", gridflow_process::CompareOp::Lt, 0.9),
//!     body,
//! )]);
//! lower("pipeline", &ast).unwrap().validate().unwrap();
//! ```

use crate::ast::{ProcessAst, Stmt};
use crate::condition::Condition;

/// One end-user activity.
pub fn activity(name: impl Into<String>) -> Stmt {
    Stmt::Activity(name.into())
}

/// A sequential pipeline of statements (helper for readability; a
/// statement list *is* a sequence).
pub fn sequence<I: IntoIterator<Item = Stmt>>(stages: I) -> Vec<Stmt> {
    stages.into_iter().collect()
}

/// Fan-out: run one activity per name concurrently and join
/// (scatter/gather over services).
pub fn fan_out<I, S>(names: I) -> Stmt
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    Stmt::Concurrent(names.into_iter().map(|n| vec![activity(n)]).collect())
}

/// Concurrent branches, each a full statement list.
pub fn concurrent<I: IntoIterator<Item = Vec<Stmt>>>(branches: I) -> Stmt {
    Stmt::Concurrent(branches.into_iter().collect())
}

/// A guarded multi-way choice; the final branch is the unguarded default.
pub fn choose<I: IntoIterator<Item = (Condition, Vec<Stmt>)>>(
    guarded: I,
    default: Vec<Stmt>,
) -> Stmt {
    let mut branches: Vec<(Condition, Vec<Stmt>)> = guarded.into_iter().collect();
    branches.push((Condition::True, default));
    Stmt::Selective(branches)
}

/// Do-while: execute the body, repeat while `cond` holds afterwards —
/// the Fig. 10 refinement-loop shape.
pub fn do_while<I: IntoIterator<Item = Stmt>>(cond: Condition, body: I) -> Stmt {
    Stmt::Iterative {
        cond,
        body: body.into_iter().collect(),
    }
}

/// Wrap a body as a full process description.
pub fn process<I: IntoIterator<Item = Stmt>>(body: I) -> ProcessAst {
    ProcessAst::new(body.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{DataItem, DataState};
    use crate::lower::lower;
    use crate::{AtnMachine, CompareOp};
    use gridflow_ontology::Value;

    fn validates(ast: &ProcessAst) -> crate::graph::ProcessGraph {
        let g = lower("pattern", ast).expect("lowers");
        g.validate().expect("valid");
        g
    }

    #[test]
    fn pipeline_with_fan_out() {
        let ast = process(sequence([
            activity("stage-in"),
            fan_out(["analyze", "render", "index"]),
            activity("publish"),
        ]));
        let g = validates(&ast);
        assert_eq!(g.end_user_activities().count(), 5);
        assert_eq!(ast.depth(), 2);
    }

    #[test]
    fn choose_falls_through_to_default() {
        let ast = process([choose(
            [
                (Condition::Exists("A".into()), vec![activity("on-a")]),
                (Condition::Exists("B".into()), vec![activity("on-b")]),
            ],
            vec![activity("fallback")],
        )]);
        let g = validates(&ast);
        let mut m = AtnMachine::new(&g).unwrap();
        m.start(&DataState::new()).unwrap();
        assert_eq!(m.ready(), &["fallback".to_owned()]);
        let state = DataState::new().with("B", DataItem::new());
        let mut m = AtnMachine::new(&g).unwrap();
        m.start(&state).unwrap();
        assert_eq!(m.ready(), &["on-b".to_owned()]);
    }

    #[test]
    fn do_while_loops_until_quality_reached() {
        let ast = process([do_while(
            Condition::compare("Q", "Value", CompareOp::Lt, 3i64),
            [activity("improve")],
        )]);
        let g = validates(&ast);
        let mut state = DataState::new().with("Q", DataItem::new().with("Value", Value::Int(0)));
        let mut m = AtnMachine::new(&g).unwrap();
        m.start(&state).unwrap();
        let mut rounds = 0;
        while let Some(id) = m.ready().first().cloned() {
            m.begin_activity(&id).unwrap();
            rounds += 1;
            state.set_property("Q", "Value", Value::Int(rounds));
            m.complete_activity(&id, &state).unwrap();
        }
        assert!(m.is_finished());
        assert_eq!(rounds, 3);
    }

    #[test]
    fn patterns_compose_and_round_trip() {
        let ast = process([do_while(
            Condition::Exists("retry".into()).negate(),
            sequence([
                activity("fetch"),
                choose(
                    [(
                        Condition::classified("D", "fresh"),
                        vec![fan_out(["parse", "validate"])],
                    )],
                    vec![activity("refresh")],
                ),
            ]),
        )]);
        let g = validates(&ast);
        let back = crate::recover::recover(&g).unwrap();
        assert_eq!(back, ast);
    }
}
