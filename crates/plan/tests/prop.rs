//! Property-based tests for plan-tree conversions.

use gridflow_plan::{
    ast_to_tree, canonicalize, graph_to_tree, tree_to_ast, tree_to_graph, PlanNode,
};
use gridflow_process::Condition;
use proptest::prelude::*;

fn condition() -> impl Strategy<Value = Condition> {
    prop_oneof![
        Just(Condition::True),
        "D[0-9]{1,2}".prop_map(Condition::Exists),
        ("D[0-9]{1,2}", -100i64..100).prop_map(|(d, v)| Condition::compare(
            d,
            "Value",
            gridflow_process::CompareOp::Gt,
            v
        )),
    ]
}

/// Arbitrary plan trees, including degenerate shapes GP can produce
/// (empty controllers excluded — those are GP-invalid by §3.4.1).
fn plan_node() -> impl Strategy<Value = PlanNode> {
    let leaf = "[A-Z][a-z0-9]{0,3}".prop_map(PlanNode::Terminal);
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(PlanNode::Sequential),
            prop::collection::vec(inner.clone(), 2..4).prop_map(PlanNode::Concurrent),
            prop::collection::vec((condition(), inner.clone()), 2..4).prop_map(PlanNode::Selective),
            (condition(), prop::collection::vec(inner, 1..4))
                .prop_map(|(cond, body)| PlanNode::Iterative { cond, body }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AST→tree→AST is the identity.
    #[test]
    fn ast_tree_ast_identity(tree in plan_node()) {
        // Build the AST from a tree first so we have a valid AST source.
        let ast = tree_to_ast(&tree);
        let tree2 = ast_to_tree(&ast);
        prop_assert_eq!(tree_to_ast(&tree2), ast);
    }

    /// Canonicalization is idempotent.
    #[test]
    fn canonicalize_idempotent(tree in plan_node()) {
        let once = canonicalize(&tree);
        let twice = canonicalize(&once);
        prop_assert_eq!(once, twice);
    }

    /// Canonicalization preserves the activity sequence and never grows
    /// the tree.
    #[test]
    fn canonicalize_preserves_activities(tree in plan_node()) {
        let canon = canonicalize(&tree);
        prop_assert_eq!(canon.activities(), tree.activities());
        prop_assert!(canon.size() <= tree.size() + 1,
            "canonicalization grew the tree from {} to {}", tree.size(), canon.size());
    }

    /// Lowering a tree to a graph and recovering it yields the canonical
    /// form of the tree.
    #[test]
    fn graph_round_trip_is_canonicalization(tree in plan_node()) {
        let graph = tree_to_graph("prop", &tree).unwrap();
        graph.validate().unwrap();
        let back = graph_to_tree(&graph).unwrap();
        prop_assert_eq!(back, canonicalize(&tree));
    }

    /// The graph contains exactly the tree's terminal activities as
    /// end-user activities.
    #[test]
    fn graph_preserves_activity_multiset(tree in plan_node()) {
        let graph = tree_to_graph("prop", &tree).unwrap();
        let mut from_graph: Vec<String> = graph
            .end_user_activities()
            .map(|a| a.service.clone().unwrap())
            .collect();
        let mut from_tree: Vec<String> =
            tree.activities().iter().map(|s| s.to_string()).collect();
        from_graph.sort();
        from_tree.sort();
        prop_assert_eq!(from_graph, from_tree);
    }

    /// `simplify` preserves the activity multiset and never grows size.
    #[test]
    fn simplify_contracts(tree in plan_node()) {
        if let Some(s) = tree.simplify() {
            prop_assert!(s.size() <= tree.size());
            let mut a: Vec<&str> = s.activities();
            let mut b: Vec<&str> = tree.activities();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        } else {
            prop_assert!(tree.activities().is_empty());
        }
    }

    /// `node_at` enumerates exactly `size()` nodes.
    #[test]
    fn node_at_range_matches_size(tree in plan_node()) {
        let size = tree.size();
        prop_assert!(tree.node_at(size - 1).is_some());
        prop_assert!(tree.node_at(size).is_none());
    }

    /// `node_at_mut(i)` borrows the very node `node_at(i)` does, for every
    /// preorder index, under all four controller kinds.
    #[test]
    fn node_at_mut_addresses_the_same_node(tree in plan_node()) {
        let mut tree = tree;
        for idx in 0..tree.size() {
            let shared: *const PlanNode = tree.node_at(idx).unwrap();
            let exclusive: *const PlanNode = tree.node_at_mut(idx).unwrap();
            prop_assert_eq!(shared, exclusive, "index {}", idx);
        }
        let size = tree.size();
        prop_assert!(tree.node_at_mut(size).is_none());
    }

    /// `replace_at` at any valid index keeps the tree GP-valid and adjusts
    /// the size by the difference of the subtree sizes.
    #[test]
    fn replace_at_size_arithmetic(tree in plan_node(), idx in 0usize..64) {
        let size = tree.size();
        let idx = idx % size;
        let old_subtree_size = tree.node_at(idx).unwrap().size();
        let mut t = tree.clone();
        let old = t.replace_at(idx, PlanNode::terminal("Xrepl")).unwrap();
        prop_assert_eq!(old.size(), old_subtree_size);
        prop_assert_eq!(t.size(), size - old_subtree_size + 1);
        prop_assert!(t.is_gp_valid());
    }
}
