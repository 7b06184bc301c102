//! # gridflow-process
//!
//! The process-description language (PDL) of the GridFlow reproduction of
//! *"Metainformation and Workflow Management for Solving Complex Problems
//! in Grid Environments"* (Yu et al., IPDPS 2004).
//!
//! The paper describes complex computations with a formalism "similar to
//! the one provided by Augmented Transition Networks (ATNs)" and gives a
//! BNF grammar for it (§2): a process description starts with `BEGIN`,
//! ends with `END`, and composes activities sequentially (`;`),
//! concurrently (`FORK … JOIN`), selectively (`CHOICE … MERGE`) and
//! iteratively (`ITERATIVE { COND … } { … }`), with a condition
//! sub-language over data properties (`<data>.<property> <op> <value>`).
//!
//! This crate provides:
//!
//! * [`ast`] — the structured form of a process description;
//! * [`lexer`] / [`parser`] — concrete syntax (documented in
//!   [`parser`]) faithful to the paper's grammar, with a pretty-printer
//!   ([`printer`]) such that print→parse is the identity;
//! * [`condition`] — the condition sub-language and its evaluator over a
//!   [`data::DataState`];
//! * [`graph`] — the flattened activity/transition graph of Figure 10,
//!   with the six flow-control activities (Begin, End, Choice, Fork,
//!   Join, Merge) and structural validation;
//! * [`lower`] — AST → graph lowering; [`recover`] — graph → AST
//!   structure recovery (the conversions of Figures 4–7);
//! * [`atn`] — the abstract ATN machine executed by the coordination
//!   service;
//! * [`case`] — case descriptions (initial data, goals, constraints);
//! * [`dot`] — Graphviz export used by the figure-regeneration binaries.

#![warn(missing_docs)]

pub mod ast;
pub mod atn;
pub mod case;
pub mod condition;
pub mod data;
pub mod dot;
pub mod error;
pub mod graph;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod patterns;
pub mod printer;
pub mod recover;

pub use ast::{ProcessAst, Stmt};
pub use atn::{AtnMachine, AtnSnapshot, AtnStatus, EnactmentEvent};
pub use case::CaseDescription;
pub use condition::{CompareOp, Condition};
pub use data::{DataItem, DataState};
pub use error::{ProcessError, Result};
pub use graph::{ActivityDecl, ActivityKind, ProcessGraph, Transition};
