//! The plan-tree data structure of §3.4.1.

use gridflow_process::Condition;
use serde::{Deserialize, Serialize};

/// A node of a plan tree.
///
/// The paper's GP planner evolves these trees directly; conditions on
/// selective branches and iterative nodes are carried through conversions
/// but are treated abstractly during planning (the fitness simulation
/// enumerates every possible flow instead of evaluating them, §3.4.4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanNode {
    /// A leaf: one end-user activity, referenced by service name.
    Terminal(String),
    /// Children execute left to right; the block completes when the
    /// rightmost child completes.
    Sequential(Vec<PlanNode>),
    /// Children may execute concurrently (or sequentially in any order);
    /// the block completes when *all* children complete.  Corresponds to a
    /// Fork/Join pair.
    Concurrent(Vec<PlanNode>),
    /// Exactly one child executes, selected by the guard conditions.
    /// Corresponds to a Choice/Merge pair.
    Selective(Vec<(Condition, PlanNode)>),
    /// The children execute repeatedly (in order) while `cond` holds after
    /// each pass (do-while, matching the Fig. 10 loop).  Corresponds to a
    /// Merge-entry / Choice-exit loop.
    Iterative {
        /// Continue-looping condition.
        cond: Condition,
        /// Loop body, executed in order each pass.
        body: Vec<PlanNode>,
    },
}

impl PlanNode {
    /// A terminal node.
    pub fn terminal(name: impl Into<String>) -> Self {
        PlanNode::Terminal(name.into())
    }

    /// A selective node whose guards are all `true` (the form GP
    /// initialization produces: "every internal node is instantiated with
    /// a controller node" with no conditions attached yet).
    pub fn selective_unguarded<I: IntoIterator<Item = PlanNode>>(children: I) -> Self {
        PlanNode::Selective(children.into_iter().map(|c| (Condition::True, c)).collect())
    }

    /// The number of nodes in the tree — the paper's plan-tree *size*
    /// (terminal and controller nodes both count; `S_max` bounds this).
    pub fn size(&self) -> usize {
        1 + self.children().map(PlanNode::size).sum::<usize>()
    }

    /// Maximum depth (a terminal has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children().map(PlanNode::depth).max().unwrap_or(0)
    }

    /// Borrowed children, in order (guards dropped).
    pub fn children(&self) -> impl Iterator<Item = &PlanNode> {
        let (plain, guarded): (&[PlanNode], &[(Condition, PlanNode)]) = match self {
            PlanNode::Terminal(_) => (&[], &[]),
            PlanNode::Sequential(c)
            | PlanNode::Concurrent(c)
            | PlanNode::Iterative { body: c, .. } => (c, &[]),
            PlanNode::Selective(c) => (&[], c),
        };
        plain.iter().chain(guarded.iter().map(|(_, n)| n))
    }

    /// Every terminal activity name, in left-to-right order (duplicates
    /// preserved).
    pub fn activities(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_activities(&mut out);
        out
    }

    fn collect_activities<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            PlanNode::Terminal(name) => out.push(name),
            _ => {
                for c in self.children() {
                    c.collect_activities(out);
                }
            }
        }
    }

    /// Number of controller nodes by kind: `(sequential, concurrent,
    /// selective, iterative)`.
    pub fn controller_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        self.count_controllers(&mut counts);
        counts
    }

    fn count_controllers(&self, counts: &mut (usize, usize, usize, usize)) {
        match self {
            PlanNode::Terminal(_) => {}
            PlanNode::Sequential(_) => counts.0 += 1,
            PlanNode::Concurrent(_) => counts.1 += 1,
            PlanNode::Selective(_) => counts.2 += 1,
            PlanNode::Iterative { .. } => counts.3 += 1,
        }
        for c in self.children() {
            c.count_controllers(counts);
        }
    }

    /// GP structural validity (§3.4.1): every controller node "must have
    /// at least one child node".
    pub fn is_gp_valid(&self) -> bool {
        match self {
            PlanNode::Terminal(_) => true,
            _ => self.children().next().is_some() && self.children().all(PlanNode::is_gp_valid),
        }
    }

    /// Visit every node (preorder), returning the number visited.
    pub fn visit(&self, f: &mut impl FnMut(&PlanNode)) -> usize {
        f(self);
        1 + self.children().map(|c| c.visit(f)).sum::<usize>()
    }

    /// Borrow the node at preorder index `idx` (0 = this node).
    pub fn node_at(&self, idx: usize) -> Option<&PlanNode> {
        fn go<'a>(node: &'a PlanNode, idx: &mut usize) -> Option<&'a PlanNode> {
            if *idx == 0 {
                return Some(node);
            }
            *idx -= 1;
            node.children().find_map(|c| go(c, idx))
        }
        let mut idx = idx;
        go(self, &mut idx)
    }

    /// Mutably borrow the node at preorder index `idx`: the slot the
    /// genetic operators write a subtree into or swap one out of.
    pub fn node_at_mut(&mut self, idx: usize) -> Option<&mut PlanNode> {
        fn go<'a>(node: &'a mut PlanNode, idx: &mut usize) -> Option<&'a mut PlanNode> {
            if *idx == 0 {
                return Some(node);
            }
            *idx -= 1;
            let (plain, guarded): (&mut [PlanNode], &mut [(Condition, PlanNode)]) = match node {
                PlanNode::Terminal(_) => (&mut [], &mut []),
                PlanNode::Sequential(c)
                | PlanNode::Concurrent(c)
                | PlanNode::Iterative { body: c, .. } => (c, &mut []),
                PlanNode::Selective(c) => (&mut [], c),
            };
            plain
                .iter_mut()
                .chain(guarded.iter_mut().map(|(_, n)| n))
                .find_map(|c| go(c, idx))
        }
        let mut idx = idx;
        go(self, &mut idx)
    }

    /// Replace the node at preorder index `idx` with `replacement`,
    /// returning the subtree that was there.  Returns `None` (tree
    /// unchanged) if `idx` is out of range.
    pub fn replace_at(&mut self, idx: usize, replacement: PlanNode) -> Option<PlanNode> {
        self.node_at_mut(idx)
            .map(|slot| std::mem::replace(slot, replacement))
    }

    /// Replace every iterative node whose condition is the abstract
    /// `true` (as produced by GP initialization, where "conditions are
    /// treated abstractly") by a sequential node over its body — i.e. a
    /// single unrolling, which is exactly the semantics the planner's
    /// fitness simulation gave it.  Loops with concrete conditions (from
    /// a case description) are preserved.  Used when exporting a GP
    /// winner for enactment, where `ITERATIVE { COND { true } }` would
    /// never terminate.
    pub fn unroll_abstract_iteratives(&self) -> PlanNode {
        match self {
            PlanNode::Terminal(name) => PlanNode::Terminal(name.clone()),
            PlanNode::Sequential(c) => {
                PlanNode::Sequential(c.iter().map(Self::unroll_abstract_iteratives).collect())
            }
            PlanNode::Concurrent(c) => {
                PlanNode::Concurrent(c.iter().map(Self::unroll_abstract_iteratives).collect())
            }
            PlanNode::Selective(c) => PlanNode::Selective(
                c.iter()
                    .map(|(g, n)| (g.clone(), n.unroll_abstract_iteratives()))
                    .collect(),
            ),
            PlanNode::Iterative { cond, body } => {
                let body: Vec<PlanNode> =
                    body.iter().map(Self::unroll_abstract_iteratives).collect();
                if *cond == Condition::True {
                    PlanNode::Sequential(body)
                } else {
                    PlanNode::Iterative {
                        cond: cond.clone(),
                        body,
                    }
                }
            }
        }
    }

    /// Semantic simplification, mirroring the paper's representation-
    /// efficiency pressure (`f_r`): drops empty controllers, unwraps
    /// single-child concurrent/selective/sequential nodes, and flattens
    /// sequential-under-sequential.  Returns `None` if the node simplifies
    /// away entirely.
    pub fn simplify(&self) -> Option<PlanNode> {
        match self {
            PlanNode::Terminal(name) => Some(PlanNode::Terminal(name.clone())),
            PlanNode::Sequential(children) => {
                let mut out = Vec::new();
                for c in children {
                    match c.simplify() {
                        Some(PlanNode::Sequential(inner)) => out.extend(inner),
                        Some(node) => out.push(node),
                        None => {}
                    }
                }
                match out.len() {
                    0 => None,
                    1 => Some(out.pop().expect("len checked")),
                    _ => Some(PlanNode::Sequential(out)),
                }
            }
            PlanNode::Concurrent(children) => {
                let out: Vec<PlanNode> = children.iter().filter_map(|c| c.simplify()).collect();
                match out.len() {
                    0 => None,
                    1 => Some(out.into_iter().next().expect("len checked")),
                    _ => Some(PlanNode::Concurrent(out)),
                }
            }
            PlanNode::Selective(children) => {
                let out: Vec<(Condition, PlanNode)> = children
                    .iter()
                    .filter_map(|(g, c)| c.simplify().map(|n| (g.clone(), n)))
                    .collect();
                match out.len() {
                    0 => None,
                    1 => Some(out.into_iter().next().expect("len checked").1),
                    _ => Some(PlanNode::Selective(out)),
                }
            }
            PlanNode::Iterative { cond, body } => {
                let out: Vec<PlanNode> = body.iter().filter_map(|c| c.simplify()).collect();
                if out.is_empty() {
                    None
                } else {
                    Some(PlanNode::Iterative {
                        cond: cond.clone(),
                        body: out,
                    })
                }
            }
        }
    }
}

/// List `node` one line per tree node, `indent` per level, starting at
/// `depth`.  `guard` is what precedes an Iterative node's condition (`]`
/// closes it) and makes every Selective branch open with its
/// `[condition]`; `None` draws the tree unguarded, as Figs. 8–9 do.
pub fn tree_text(node: &PlanNode, indent: &str, depth: usize, guard: Option<&str>) -> String {
    let pad = indent.repeat(depth);
    let list = |children: &[PlanNode], depth| -> String {
        let lines = children.iter().map(|n| tree_text(n, indent, depth, guard));
        lines.collect()
    };
    match node {
        PlanNode::Terminal(name) => format!("{pad}{name}\n"),
        PlanNode::Sequential(c) => format!("{pad}Sequential\n{}", list(c, depth + 1)),
        PlanNode::Concurrent(c) => format!("{pad}Concurrent\n{}", list(c, depth + 1)),
        PlanNode::Selective(branches) => {
            let mut out = format!("{pad}Selective\n");
            for (cond, n) in branches {
                match guard {
                    Some(_) => {
                        out.push_str(&format!("{pad}{indent}[{cond}]\n"));
                        out.push_str(&tree_text(n, indent, depth + 2, guard));
                    }
                    None => out.push_str(&tree_text(n, indent, depth + 1, guard)),
                }
            }
            out
        }
        PlanNode::Iterative { cond, body } => {
            let cond = guard.map_or(String::new(), |open| format!("{open}{cond}]"));
            format!("{pad}Iterative{cond}\n{}", list(body, depth + 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan tree of Figure 11 (virus reconstruction).
    pub(crate) fn figure_11() -> PlanNode {
        PlanNode::Sequential(vec![
            PlanNode::terminal("POD"),
            PlanNode::terminal("P3DR"),
            PlanNode::Iterative {
                cond: Condition::True,
                body: vec![
                    PlanNode::terminal("POR"),
                    PlanNode::Concurrent(vec![
                        PlanNode::terminal("P3DR"),
                        PlanNode::terminal("P3DR"),
                        PlanNode::terminal("P3DR"),
                    ]),
                    PlanNode::terminal("PSF"),
                ],
            },
        ])
    }

    #[test]
    fn figure_11_has_ten_nodes() {
        // Sequential + POD + P3DR1 + Iterative + POR + Concurrent
        // + P3DR2 + P3DR3 + P3DR4 + PSF = 10.
        assert_eq!(figure_11().size(), 10);
    }

    #[test]
    fn depth_and_children() {
        let t = figure_11();
        assert_eq!(t.depth(), 4); // Sequential > Iterative > Concurrent > Terminal
        assert_eq!(t.children().count(), 3);
        assert_eq!(PlanNode::terminal("A").depth(), 1);
    }

    #[test]
    fn activities_in_order() {
        assert_eq!(
            figure_11().activities(),
            vec!["POD", "P3DR", "POR", "P3DR", "P3DR", "P3DR", "PSF"]
        );
    }

    #[test]
    fn controller_counts() {
        let (seq, con, sel, ite) = figure_11().controller_counts();
        assert_eq!((seq, con, sel, ite), (1, 1, 0, 1));
    }

    #[test]
    fn gp_validity_requires_children() {
        assert!(figure_11().is_gp_valid());
        assert!(!PlanNode::Sequential(vec![]).is_gp_valid());
        assert!(!PlanNode::Sequential(vec![PlanNode::Concurrent(vec![])]).is_gp_valid());
        assert!(PlanNode::terminal("A").is_gp_valid());
    }

    #[test]
    fn node_at_is_preorder() {
        let t = figure_11();
        assert_eq!(t.node_at(0), Some(&t));
        assert_eq!(t.node_at(1), Some(&PlanNode::terminal("POD")));
        assert_eq!(t.node_at(2), Some(&PlanNode::terminal("P3DR")));
        // 3 = Iterative, 4 = POR, 5 = Concurrent, 6..8 = P3DRs, 9 = PSF.
        assert!(matches!(t.node_at(3), Some(PlanNode::Iterative { .. })));
        assert_eq!(t.node_at(9), Some(&PlanNode::terminal("PSF")));
        assert_eq!(t.node_at(10), None);
    }

    #[test]
    fn replace_at_swaps_subtree() {
        let mut t = figure_11();
        let old = t.replace_at(5, PlanNode::terminal("X")).unwrap();
        assert!(matches!(old, PlanNode::Concurrent(_)));
        assert_eq!(t.size(), 10 - 4 + 1);
        assert!(t.activities().contains(&"X"));
        // Out-of-range replacement leaves the tree unchanged.
        let before = t.clone();
        assert!(t.replace_at(100, PlanNode::terminal("Y")).is_none());
        assert_eq!(t, before);
    }

    #[test]
    fn visit_counts_all_nodes() {
        let t = figure_11();
        let mut n = 0;
        let visited = t.visit(&mut |_| n += 1);
        assert_eq!(visited, 10);
        assert_eq!(n, 10);
    }

    #[test]
    fn simplify_unwraps_and_flattens() {
        // Sequential(Sequential(A, B), Concurrent(C)) →
        // Sequential(A, B, C)
        let t = PlanNode::Sequential(vec![
            PlanNode::Sequential(vec![PlanNode::terminal("A"), PlanNode::terminal("B")]),
            PlanNode::Concurrent(vec![PlanNode::terminal("C")]),
        ]);
        let s = t.simplify().unwrap();
        assert_eq!(
            s,
            PlanNode::Sequential(vec![
                PlanNode::terminal("A"),
                PlanNode::terminal("B"),
                PlanNode::terminal("C"),
            ])
        );
    }

    #[test]
    fn simplify_drops_empty_controllers() {
        assert_eq!(PlanNode::Sequential(vec![]).simplify(), None);
        assert_eq!(
            PlanNode::Concurrent(vec![PlanNode::Sequential(vec![])]).simplify(),
            None
        );
        let t = PlanNode::Selective(vec![(Condition::True, PlanNode::Sequential(vec![]))]);
        assert_eq!(t.simplify(), None);
    }

    #[test]
    fn simplify_preserves_activity_multiset() {
        let t = figure_11();
        let s = t.simplify().unwrap();
        assert_eq!(t.activities(), s.activities());
    }

    #[test]
    fn simplify_keeps_iterative_with_body() {
        let t = PlanNode::Iterative {
            cond: Condition::True,
            body: vec![PlanNode::terminal("A")],
        };
        assert_eq!(t.simplify(), Some(t.clone()));
        let empty = PlanNode::Iterative {
            cond: Condition::True,
            body: vec![PlanNode::Concurrent(vec![])],
        };
        assert_eq!(empty.simplify(), None);
    }

    #[test]
    fn unroll_replaces_true_loops_only() {
        let concrete = Condition::Exists("D10".into());
        let t = PlanNode::Sequential(vec![
            PlanNode::Iterative {
                cond: Condition::True,
                body: vec![PlanNode::terminal("A")],
            },
            PlanNode::Iterative {
                cond: concrete.clone(),
                body: vec![PlanNode::Iterative {
                    cond: Condition::True,
                    body: vec![PlanNode::terminal("B")],
                }],
            },
        ]);
        let u = t.unroll_abstract_iteratives();
        match &u {
            PlanNode::Sequential(children) => {
                assert!(matches!(children[0], PlanNode::Sequential(_)));
                match &children[1] {
                    PlanNode::Iterative { cond, body } => {
                        assert_eq!(*cond, concrete);
                        assert!(matches!(body[0], PlanNode::Sequential(_)));
                    }
                    other => panic!("expected concrete loop preserved, got {other:?}"),
                }
            }
            other => panic!("unexpected shape {other:?}"),
        }
        assert_eq!(u.activities(), t.activities());
    }

    #[test]
    fn selective_unguarded_builds_true_guards() {
        let t = PlanNode::selective_unguarded([PlanNode::terminal("A"), PlanNode::terminal("B")]);
        match t {
            PlanNode::Selective(children) => {
                assert_eq!(children.len(), 2);
                assert!(children.iter().all(|(g, _)| *g == Condition::True));
            }
            other => panic!("expected Selective, got {other:?}"),
        }
    }

    #[test]
    fn serde_round_trip() {
        let t = figure_11();
        let json = serde_json::to_string(&t).unwrap();
        let back: PlanNode = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
