//! # gridflow-plan
//!
//! Plan trees — the internal representation the paper's GP-based planner
//! evolves (§3.4.1) — and the conversions between plan trees and process
//! descriptions (Figures 4–7 and 11).
//!
//! A plan tree consists of *terminal nodes* (end-user activities, the
//! leaves) and *controller nodes* (internal nodes): **sequential**,
//! **concurrent**, **selective**, and **iterative**.  Controller nodes map
//! to the flow-control activities of the process description: a
//! sequential node to plain arrow sequencing, a concurrent node to a
//! Fork/Join pair, a selective node to a Choice/Merge pair, and an
//! iterative node to a loop (Merge-entry / Choice-exit).
//!
//! The conversions:
//!
//! * [`convert::ast_to_tree`] / [`convert::tree_to_ast`] — between plan
//!   trees and the structured AST of `gridflow-process` (exact round trip
//!   AST→tree→AST; tree→AST→tree is exact on *canonical* trees, see
//!   [`convert::canonicalize`]);
//! * [`convert::tree_to_graph`] / [`convert::graph_to_tree`] — composition
//!   with `gridflow_process::lower` / `recover`, giving the full Figure 10
//!   ⇄ Figure 11 conversion.

#![warn(missing_docs)]

pub mod convert;
pub mod tree;

pub use convert::{ast_to_tree, canonicalize, graph_to_tree, tree_to_ast, tree_to_graph};
pub use tree::{tree_text, PlanNode};
