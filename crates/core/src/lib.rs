//! # gridflow
//!
//! Metainformation and workflow management for solving complex problems
//! in grid environments — a full reproduction of Yu, Bai, Wang, Ji &
//! Marinescu (IPDPS 2004) as a Rust library.
//!
//! The facade crate ties the substrates together and hosts:
//!
//! * [`casestudy`] — §4's virtual laboratory for computational biology:
//!   the POD/P3DR/POR/PSF service catalog (signatures C1–C8 of Fig. 13),
//!   the process description of Fig. 10, the plan tree of Fig. 11, the
//!   ontology instances of Fig. 13, and a simulated grid hosting it all;
//! * [`experiments`] — §5's experiment: the Table 1 parameter settings
//!   and the Table 2 ten-run planning study, plus reusable sweep helpers
//!   for the ablation benches;
//! * [`lab`] — a high-level `VirtualLab` wrapper: build the world, plan,
//!   enact, re-plan in a few calls (see `examples/quickstart.rs`).
//!
//! Layer map (one crate per substrate the paper relies on):
//!
//! | crate | role |
//! |---|---|
//! | `gridflow-ontology` | frame-based knowledge bases (Protégé substitute) |
//! | `gridflow-process`  | the ATN-style process-description language |
//! | `gridflow-plan`     | plan trees and the Fig. 4–7 conversions |
//! | `gridflow-planner`  | the GP planner (§3.4) |
//! | `gridflow-agents`   | the multi-agent substrate (Jade substitute) |
//! | `gridflow-grid`     | the simulated heterogeneous grid |
//! | `gridflow-services` | the eleven core services of Fig. 1 |

#![warn(missing_docs)]

pub mod casestudy;
pub mod experiments;
pub mod lab;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::casestudy;
    pub use crate::experiments;
    pub use crate::lab::VirtualLab;
    pub use gridflow_agents::{AgentRuntime, Performative};
    pub use gridflow_grid::{GridTopology, Resource, ResourceKind};
    pub use gridflow_ontology::{Instance, KnowledgeBase, Query, SlotCond, Value};
    pub use gridflow_plan::{
        ast_to_tree, graph_to_tree, tree_text, tree_to_ast, tree_to_graph, PlanNode,
    };
    pub use gridflow_planner::prelude::*;
    pub use gridflow_process::{
        lower::lower, parser::parse_process, printer, recover::recover, AtnMachine,
        CaseDescription, Condition, DataItem, DataState, ProcessGraph,
    };
    pub use gridflow_services::{
        agents::boot_stack, coordination::EnactmentConfig, coordination::Enactor,
        matchmaking::matchmake, matchmaking::MatchRequest, planning::PlanningService, world::share,
        EnactmentReport, GridWorld, OutputSpec, ServiceOffering,
    };
}

pub use gridflow_agents as agents;
pub use gridflow_grid as grid;
pub use gridflow_ontology as ontology;
pub use gridflow_plan as plan;
pub use gridflow_planner as planner;
pub use gridflow_process as process;
pub use gridflow_services as services;
