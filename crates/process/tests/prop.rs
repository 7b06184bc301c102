//! Property-based tests for the process-description language:
//! print→parse and lower→recover round trips, ATN progress, and condition
//! algebra.

use gridflow_ontology::Value;
use gridflow_process::condition::{CompareOp, Condition};
use gridflow_process::data::DataState;
use gridflow_process::lower::lower;
use gridflow_process::parser::{parse_condition, parse_process};
use gridflow_process::printer::print;
use gridflow_process::{AtnMachine, ProcessAst, Stmt};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn compare_op() -> impl Strategy<Value = CompareOp> {
    prop_oneof![
        Just(CompareOp::Lt),
        Just(CompareOp::Gt),
        Just(CompareOp::Eq),
        Just(CompareOp::Ne),
        Just(CompareOp::Le),
        Just(CompareOp::Ge),
    ]
}

/// Literal values whose `Display` form re-parses exactly (finite floats,
/// strings without quotes/backslashes).
fn literal() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-1.0e6f64..1.0e6).prop_map(Value::Float),
        "[A-Za-z0-9 _.-]{0,10}".prop_map(Value::str),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Data ids and property names that cannot collide with keywords.
fn data_id() -> impl Strategy<Value = String> {
    "D[0-9]{1,3}".prop_map(|s| s)
}

fn property_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Classification".to_owned()),
        Just("Size".to_owned()),
        Just("Value".to_owned()),
        Just("Location".to_owned()),
    ]
}

fn condition() -> impl Strategy<Value = Condition> {
    let atom = prop_oneof![
        Just(Condition::True),
        data_id().prop_map(Condition::Exists),
        (data_id(), property_name(), compare_op(), literal()).prop_map(
            |(data, property, op, value)| Condition::Compare {
                data,
                property,
                op,
                value,
            }
        ),
    ];
    atom.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Condition::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Condition::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|c| Condition::Not(Box::new(c))),
        ]
    })
}

fn activity_name() -> impl Strategy<Value = String> {
    "[A-Z][a-z0-9]{0,4}".prop_map(|s| s)
}

fn stmt() -> impl Strategy<Value = Stmt> {
    let leaf = activity_name().prop_map(Stmt::Activity);
    leaf.prop_recursive(3, 24, 4, |inner| {
        let body = prop::collection::vec(inner.clone(), 0..3);
        prop_oneof![
            prop::collection::vec(body.clone(), 2..4).prop_map(Stmt::Concurrent),
            prop::collection::vec((condition(), body.clone()), 2..4).prop_map(Stmt::Selective),
            (condition(), body).prop_map(|(cond, body)| Stmt::Iterative { cond, body }),
        ]
    })
}

fn process_ast() -> impl Strategy<Value = ProcessAst> {
    prop::collection::vec(stmt(), 0..5).prop_map(ProcessAst::new)
}

/// Loop-free ASTs (no Iterative), so enactment terminates in one pass.
fn loop_free_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = activity_name().prop_map(Stmt::Activity);
    leaf.prop_recursive(3, 24, 4, |inner| {
        let body = prop::collection::vec(inner.clone(), 0..3);
        prop_oneof![
            prop::collection::vec(body.clone(), 2..4).prop_map(Stmt::Concurrent),
            // Guard every branch with `true` so a branch is always viable.
            prop::collection::vec(body, 2..4).prop_map(|bodies| Stmt::Selective(
                bodies.into_iter().map(|b| (Condition::True, b)).collect()
            )),
        ]
    })
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pretty-printer's output re-parses to the identical AST.
    #[test]
    fn print_parse_round_trip(ast in process_ast()) {
        let text = print(&ast);
        let back = parse_process(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(back, ast);
    }

    /// Condition display re-parses to the identical condition (modulo
    /// `false` desugaring to `not true`, which the generator never emits).
    #[test]
    fn condition_display_round_trip(cond in condition()) {
        let text = cond.to_string();
        let back = parse_condition(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(back.to_string(), text);
    }

    /// Lowering then recovering reproduces the AST exactly.
    #[test]
    fn lower_recover_round_trip(ast in process_ast()) {
        let graph = lower("prop", &ast).unwrap();
        graph.validate().unwrap();
        let back = gridflow_process::recover::recover(&graph)
            .unwrap_or_else(|e| panic!("recover failed: {e}"));
        prop_assert_eq!(back, ast);
    }

    /// Lowering preserves the multiset of end-user activity (service)
    /// names.
    #[test]
    fn lowering_preserves_activity_multiset(ast in process_ast()) {
        let graph = lower("prop", &ast).unwrap();
        let mut from_graph: Vec<String> = graph
            .end_user_activities()
            .map(|a| a.service.clone().unwrap())
            .collect();
        let mut from_ast: Vec<String> =
            ast.activities().iter().map(|s| s.to_string()).collect();
        from_graph.sort();
        from_ast.sort();
        prop_assert_eq!(from_graph, from_ast);
    }

    /// On loop-free workflows the ATN machine always finishes, and it
    /// executes each selective block exactly once and each concurrent
    /// branch fully.
    #[test]
    fn atn_terminates_on_loop_free(body in prop::collection::vec(loop_free_stmt(), 0..4)) {
        let ast = ProcessAst::new(body);
        let graph = lower("prop", &ast).unwrap();
        let mut machine = AtnMachine::new(&graph).unwrap();
        let state = DataState::new();
        machine.start(&state).unwrap();
        let mut executed = 0usize;
        while let Some(id) = machine.ready().first().cloned() {
            machine.run_activity(&id, &state).unwrap();
            executed += 1;
            prop_assert!(executed <= graph.end_user_activities().count(),
                "executed more activities than exist in a loop-free flow");
        }
        prop_assert!(machine.is_finished());
    }

    /// The parser and lexer never panic on arbitrary input — they either
    /// produce an AST or a positioned error.
    #[test]
    fn parser_total_on_arbitrary_input(input in ".{0,200}") {
        let _ = parse_process(&input);
        let _ = parse_condition(&input);
    }

    /// The parser never panics on keyword-dense near-miss inputs either.
    #[test]
    fn parser_total_on_token_soup(words in prop::collection::vec(
        prop_oneof![
            Just("BEGIN"), Just("END"), Just("FORK"), Just("JOIN"),
            Just("CHOICE"), Just("MERGE"), Just("ITERATIVE"), Just("COND"),
            Just("{"), Just("}"), Just(";"), Just(","), Just("("), Just(")"),
            Just("A"), Just("and"), Just("or"), Just("true"), Just("D.X"),
            Just("<"), Just("="), Just("8"),
        ], 0..40)) {
        let soup = words.join(" ");
        let _ = parse_process(&soup);
    }

    /// Node count is invariant under print→parse and equals the number of
    /// statements plus nested constructs.
    #[test]
    fn node_count_stable_under_round_trip(ast in process_ast()) {
        let text = print(&ast);
        let back = parse_process(&text).unwrap();
        prop_assert_eq!(back.node_count(), ast.node_count());
        prop_assert_eq!(back.depth(), ast.depth());
    }
}
