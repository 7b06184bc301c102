//! §4's case study: a virtual laboratory for computational biology —
//! 3D reconstruction of virus structures from electron-microscopy data.
//!
//! The computation (Fig. 10): extract 2D virus projections, determine
//! initial orientations ab initio (**POD**), then iterate 3D
//! reconstruction (**P3DR**) and orientation refinement (**POR**),
//! correlating two independently reconstructed models (odd/even
//! projection streams) with **PSF** to measure the resolution; the loop
//! repeats while the resolution is worse than the target (Cons1).
//!
//! ## A note on data ids
//!
//! The paper's Fig. 13 is internally inconsistent (likely an artifact of
//! the proceedings scan): the constraint `Cons1` references
//! `D10.Classification = "Resolution File"` while the figure's own data
//! table classifies `D10` as a `3D Model` and `D12` (the PSF output and
//! the case's result set) as the resolution file.  We normalize to the
//! data table: **D12 is the resolution file**, `Cons1` references `D12`,
//! and the executable case study refines `D12.Value` (the resolution in
//! Å) on every PSF pass.

use gridflow_grid::container::ApplicationContainer;
use gridflow_grid::resource::{Resource, ResourceKind};
use gridflow_grid::workload::TaskDemand;
use gridflow_grid::GridTopology;
use gridflow_ontology::{schema, Instance, KnowledgeBase, Value};
use gridflow_plan::PlanNode;
use gridflow_planner::{GoalSpec, PlanningProblem};
use gridflow_process::{
    ActivityDecl, ActivityKind, CaseDescription, CompareOp, Condition, DataItem, ProcessGraph,
};
use gridflow_services::{GridWorld, OutputSpec, ServiceOffering};

/// Data classifications of the case study.
pub mod classifications {
    /// POD input parameters.
    pub const POD_PARAMETER: &str = "POD-Parameter";
    /// P3DR input parameters.
    pub const P3DR_PARAMETER: &str = "P3DR-Parameter";
    /// POR input parameters.
    pub const POR_PARAMETER: &str = "POR-Parameter";
    /// PSF input parameters.
    pub const PSF_PARAMETER: &str = "PSF-Parameter";
    /// The experimental 2D projections.
    pub const IMAGE_2D: &str = "2D Image";
    /// Orientation files (POD / POR outputs).
    pub const ORIENTATION: &str = "Orientation File";
    /// Electron-density maps (P3DR outputs).
    pub const MODEL_3D: &str = "3D Model";
    /// Resolution files (PSF output).
    pub const RESOLUTION: &str = "Resolution File";
}

use classifications::*;

/// Resolution (Å) PSF reports on its first pass.
pub const INITIAL_RESOLUTION: f64 = 12.0;
/// Resolution improvement per refinement pass (Å).
pub const RESOLUTION_STEP: f64 = 2.0;
/// The computation goal: resolution no worse than this (Å).
pub const TARGET_RESOLUTION: f64 = 8.0;

/// The four end-user services with the signatures of Fig. 13 (C1–C8) and
/// computational profiles mirroring §1's discussion (the reconstruction
/// codes are fine-grain parallel; POD and PSF are coarse-grain).
pub fn offerings() -> Vec<ServiceOffering> {
    vec![
        // C1: A = POD-Parameter, B = 2D Image → C2: C = Orientation File.
        ServiceOffering::new(
            "POD",
            [POD_PARAMETER, IMAGE_2D],
            vec![OutputSpec::plain(ORIENTATION)],
        )
        .with_demand(TaskDemand::coarse("POD", 400.0, 1_500.0)),
        // C3: P3DR-Parameter + 2D Image + Orientation File → C4: 3D Model.
        ServiceOffering::new(
            "P3DR",
            [P3DR_PARAMETER, IMAGE_2D, ORIENTATION],
            vec![OutputSpec::plain(MODEL_3D)],
        )
        .with_demand(TaskDemand::fine("P3DR", 2_000.0, 1_500.0)),
        // C5: POR-Parameter + 2D Image + Orientation File + 3D Model →
        // C6: Orientation File.
        ServiceOffering::new(
            "POR",
            [POR_PARAMETER, IMAGE_2D, ORIENTATION, MODEL_3D],
            vec![OutputSpec::plain(ORIENTATION)],
        )
        .with_demand(TaskDemand::fine("POR", 1_200.0, 1_500.0)),
        // C7: PSF-Parameter + two independent 3D Models → C8: Resolution
        // File.  The resolution item lives at the fixed id D12 and
        // improves by RESOLUTION_STEP Å per pass.
        ServiceOffering::new(
            "PSF",
            [PSF_PARAMETER, MODEL_3D, MODEL_3D],
            vec![OutputSpec::refining(
                RESOLUTION,
                "D12",
                INITIAL_RESOLUTION,
                RESOLUTION_STEP,
            )],
        )
        .with_demand(TaskDemand::coarse("PSF", 150.0, 200.0)),
    ]
}

/// The service names, in catalog order.
pub fn service_names() -> Vec<String> {
    offerings().into_iter().map(|o| o.name).collect()
}

/// Classifications of the initial data D1–D7 of Fig. 13.
pub fn initial_classifications() -> Vec<String> {
    vec![
        POD_PARAMETER.into(),  // D1
        P3DR_PARAMETER.into(), // D2
        P3DR_PARAMETER.into(), // D3
        P3DR_PARAMETER.into(), // D4
        POR_PARAMETER.into(),  // D5
        PSF_PARAMETER.into(),  // D6
        IMAGE_2D.into(),       // D7
    ]
}

/// The planning problem `P = {S_init, G, T}` of the §5 experiment:
/// initial data D1–D7, goal "a resolution file exists", and the four
/// services as `T`.
pub fn planning_problem() -> PlanningProblem {
    PlanningProblem {
        initial: initial_classifications(),
        goals: vec![GoalSpec {
            classification: RESOLUTION.into(),
            min_count: 1,
        }],
        activities: offerings()
            .iter()
            .map(ServiceOffering::activity_spec)
            .collect(),
    }
}

/// Cons1, normalized to D12 (see the module docs): continue the
/// refinement loop while the resolution file reports worse than 8 Å.
pub fn cons1() -> Condition {
    Condition::classified("D12", RESOLUTION).and(Condition::compare(
        "D12",
        "Value",
        CompareOp::Gt,
        TARGET_RESOLUTION,
    ))
}

/// The process description of Fig. 10: 7 end-user + 6 flow-control
/// activities, transitions TR1–TR15, with Cons1 guarding the loop-back
/// transition of the CHOICE.
pub fn process_description() -> ProcessGraph {
    let mut g = ProcessGraph::new("PD-3DSD");
    let add = |g: &mut ProcessGraph, decl: ActivityDecl| {
        g.add_activity(decl).expect("unique ids");
    };
    add(&mut g, ActivityDecl::flow("BEGIN", ActivityKind::Begin));
    add(&mut g, ActivityDecl::end_user("POD"));
    add(&mut g, ActivityDecl::end_user_with_service("P3DR1", "P3DR"));
    add(&mut g, ActivityDecl::flow("MERGE", ActivityKind::Merge));
    add(&mut g, ActivityDecl::end_user("POR"));
    add(&mut g, ActivityDecl::flow("FORK", ActivityKind::Fork));
    add(&mut g, ActivityDecl::end_user_with_service("P3DR2", "P3DR"));
    add(&mut g, ActivityDecl::end_user_with_service("P3DR3", "P3DR"));
    add(&mut g, ActivityDecl::end_user_with_service("P3DR4", "P3DR"));
    add(&mut g, ActivityDecl::flow("JOIN", ActivityKind::Join));
    add(&mut g, ActivityDecl::end_user("PSF"));
    add(&mut g, ActivityDecl::flow("CHOICE", ActivityKind::Choice));
    add(&mut g, ActivityDecl::flow("END", ActivityKind::End));

    let edges: [(&str, &str, Option<Condition>); 15] = [
        ("BEGIN", "POD", None),             // TR1
        ("POD", "P3DR1", None),             // TR2
        ("P3DR1", "MERGE", None),           // TR3
        ("MERGE", "POR", None),             // TR4
        ("POR", "FORK", None),              // TR5
        ("FORK", "P3DR2", None),            // TR6
        ("FORK", "P3DR3", None),            // TR7
        ("FORK", "P3DR4", None),            // TR8
        ("P3DR2", "JOIN", None),            // TR9
        ("P3DR3", "JOIN", None),            // TR10
        ("P3DR4", "JOIN", None),            // TR11
        ("JOIN", "PSF", None),              // TR12
        ("PSF", "CHOICE", None),            // TR13
        ("CHOICE", "MERGE", Some(cons1())), // TR14: refine further
        ("CHOICE", "END", None),            // TR15: goal resolution reached
    ];
    for (i, (src, dst, cond)) in edges.into_iter().enumerate() {
        g.add_transition_with_id(format!("TR{}", i + 1), src, dst, cond)
            .expect("valid endpoints");
    }
    g.validate().expect("Fig. 10 is well-formed");
    g
}

/// The plan tree of Fig. 11 (the structured form of Fig. 10).
pub fn plan_tree() -> PlanNode {
    PlanNode::Sequential(vec![
        PlanNode::terminal("POD"),
        PlanNode::terminal("P3DR"),
        PlanNode::Iterative {
            cond: cons1(),
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

/// The case description CD-3DSD of Fig. 13: initial data D1–D7, the goal
/// resolution, constraint Cons1, result set {D12}.
pub fn case_description() -> CaseDescription {
    CaseDescription::new("CD-3DSD")
        .with_data(
            "D1",
            DataItem::classified(POD_PARAMETER)
                .with("Format", Value::str("Text"))
                .with("Size", Value::Int(3_000)),
        )
        .with_data(
            "D2",
            DataItem::classified(P3DR_PARAMETER).with("Format", Value::str("Text")),
        )
        .with_data(
            "D3",
            DataItem::classified(P3DR_PARAMETER).with("Format", Value::str("Text")),
        )
        .with_data(
            "D4",
            DataItem::classified(P3DR_PARAMETER).with("Format", Value::str("Text")),
        )
        .with_data(
            "D5",
            DataItem::classified(POR_PARAMETER).with("Format", Value::str("Text")),
        )
        .with_data(
            "D6",
            DataItem::classified(PSF_PARAMETER).with("Format", Value::str("Text")),
        )
        .with_data(
            "D7",
            DataItem::classified(IMAGE_2D).with("Size", Value::Int(1_500_000_000)),
        )
        .with_goal("G1", Condition::classified("D12", RESOLUTION))
        .with_goal(
            "G2",
            Condition::compare("D12", "Value", CompareOp::Le, TARGET_RESOLUTION),
        )
        .with_constraint("Cons1", cons1())
        .with_result("D12")
}

/// A simulated grid hosting the virtual laboratory.
///
/// Deterministic core: two UCF PC clusters host the coarse-grain codes
/// (POD, PSF), two supercomputers host the fine-grain reconstruction and
/// refinement codes (P3DR, POR) — plus one cross-trained backup site and
/// `extra_sites` randomly generated sites for scale.
pub fn virtual_lab_world(extra_sites: usize, seed: u64) -> GridWorld {
    let mut resources = vec![
        Resource::new("ucf-cluster-1", ResourceKind::PcCluster)
            .with_nodes(64)
            .at("Orlando", "ucf.edu")
            .with_software(["POD", "PSF"])
            .with_reliability(0.97)
            .with_cost(0.4),
        Resource::new("ucf-cluster-2", ResourceKind::PcCluster)
            .with_nodes(32)
            .at("Orlando", "ucf.edu")
            .with_software(["POD", "PSF"])
            .with_reliability(0.93)
            .with_cost(0.3),
        Resource::new("purdue-sp2", ResourceKind::Supercomputer)
            .with_nodes(128)
            .at("West Lafayette", "purdue.edu")
            .with_software(["P3DR", "POR"])
            .with_reliability(0.99)
            .with_cost(1.5),
        Resource::new("sdsc-sp3", ResourceKind::Supercomputer)
            .with_nodes(256)
            .at("San Diego", "sdsc.edu")
            .with_software(["P3DR", "POR"])
            .with_reliability(0.995)
            .with_cost(2.0),
        Resource::new("anl-backup", ResourceKind::Supercomputer)
            .with_nodes(64)
            .at("Argonne", "anl.gov")
            .with_software(["POD", "P3DR", "POR", "PSF"])
            .with_reliability(0.9)
            .with_cost(1.0),
    ];
    let mut containers: Vec<ApplicationContainer> = resources
        .iter()
        .map(|r| {
            ApplicationContainer::new(format!("ac-{}", r.id), r.id.clone())
                .hosting(r.software.clone())
        })
        .collect();

    if extra_sites > 0 {
        let extra = GridTopology::generate(extra_sites, &service_names(), seed);
        for (i, mut r) in extra.resources.into_iter().enumerate() {
            r.id = format!("extra-{i}");
            resources.push(r);
        }
        for (i, mut c) in extra.containers.into_iter().enumerate() {
            c.id = format!("ac-extra-{i}");
            c.resource_id = format!("extra-{i}");
            containers.push(c);
        }
    }

    let mut world = GridWorld::new(GridTopology {
        resources,
        containers,
    });
    for offering in offerings() {
        world.offer(offering);
    }
    world
}

/// The ontology instances of Fig. 13: task T1, process description
/// PD-3DSD, case description CD-3DSD, activities A1–A13, transitions
/// TR1–TR15, data D1–D12, and the four service descriptions with their
/// input/output conditions C1–C8.
pub fn ontology_instances() -> KnowledgeBase {
    let mut kb = schema::grid_ontology_shell();
    kb.name = "3DSD".into();
    let c = schema::classes::ACTIVITY;

    // --- Data D1..D12 ------------------------------------------------
    let data: [(&str, &str, &str, Option<i64>); 12] = [
        ("D1", POD_PARAMETER, "User", Some(3_000)),
        ("D2", P3DR_PARAMETER, "User", None),
        ("D3", P3DR_PARAMETER, "User", None),
        ("D4", P3DR_PARAMETER, "User", None),
        ("D5", POR_PARAMETER, "User", None),
        ("D6", PSF_PARAMETER, "User", None),
        ("D7", IMAGE_2D, "User", Some(1_500_000_000)),
        ("D8", ORIENTATION, "POD, POR", None),
        ("D9", MODEL_3D, "P3DR1, P3DR4", None),
        ("D10", MODEL_3D, "P3DR2", None),
        ("D11", MODEL_3D, "P3DR3", None),
        ("D12", RESOLUTION, "PSF", None),
    ];
    for (id, classification, creator, size) in data {
        let mut inst = Instance::new(id, schema::classes::DATA)
            .with("Name", Value::str(id))
            .with("Classification", Value::str(classification))
            .with("Creator", Value::str(creator))
            .with(
                "Format",
                Value::str(if creator == "User" && classification != IMAGE_2D {
                    "Text"
                } else {
                    "Binary"
                }),
            );
        if let Some(size) = size {
            inst.set("Size", Value::Int(size));
        }
        kb.add_instance(inst).expect("valid data instance");
    }

    // --- Activities A1..A13 ------------------------------------------
    struct A {
        id: &'static str,
        name: &'static str,
        kind: &'static str,
        service: Option<&'static str>,
        inputs: &'static [&'static str],
        outputs: &'static [&'static str],
        constraint: Option<&'static str>,
    }
    let activities = [
        A {
            id: "A1",
            name: "BEGIN",
            kind: "Begin",
            service: None,
            inputs: &[],
            outputs: &[],
            constraint: None,
        },
        A {
            id: "A2",
            name: "POD",
            kind: "End-user",
            service: Some("POD"),
            inputs: &["D1", "D7"],
            outputs: &["D8"],
            constraint: None,
        },
        A {
            id: "A3",
            name: "P3DR1",
            kind: "End-user",
            service: Some("P3DR"),
            inputs: &["D2", "D7", "D8"],
            outputs: &["D9"],
            constraint: None,
        },
        A {
            id: "A4",
            name: "MERGE",
            kind: "Merge",
            service: None,
            inputs: &[],
            outputs: &[],
            constraint: None,
        },
        A {
            id: "A5",
            name: "POR",
            kind: "End-user",
            service: Some("POR"),
            inputs: &["D5", "D7", "D8", "D9"],
            outputs: &["D8"],
            constraint: None,
        },
        A {
            id: "A6",
            name: "FORK",
            kind: "Fork",
            service: None,
            inputs: &[],
            outputs: &[],
            constraint: None,
        },
        A {
            id: "A7",
            name: "P3DR2",
            kind: "End-user",
            service: Some("P3DR"),
            inputs: &["D3", "D7", "D8"],
            outputs: &["D10"],
            constraint: None,
        },
        A {
            id: "A8",
            name: "P3DR3",
            kind: "End-user",
            service: Some("P3DR"),
            inputs: &["D4", "D7", "D8"],
            outputs: &["D11"],
            constraint: None,
        },
        A {
            id: "A9",
            name: "P3DR4",
            kind: "End-user",
            service: Some("P3DR"),
            inputs: &["D2", "D7", "D8"],
            outputs: &["D9"],
            constraint: None,
        },
        A {
            id: "A10",
            name: "JOIN",
            kind: "Join",
            service: None,
            inputs: &[],
            outputs: &[],
            constraint: None,
        },
        A {
            id: "A11",
            name: "PSF",
            kind: "End-user",
            service: Some("PSF"),
            inputs: &["D6", "D10", "D11"],
            outputs: &["D12"],
            constraint: None,
        },
        A {
            id: "A12",
            name: "CHOICE",
            kind: "Choice",
            service: None,
            inputs: &[],
            outputs: &[],
            constraint: Some("Cons1"),
        },
        A {
            id: "A13",
            name: "END",
            kind: "End",
            service: None,
            inputs: &[],
            outputs: &[],
            constraint: None,
        },
    ];
    for a in &activities {
        let mut inst = Instance::new(a.id, c)
            .with("ID", Value::str(a.id))
            .with("Name", Value::str(a.name))
            .with("Task ID", Value::str("T1"))
            .with("Type", Value::str(a.kind));
        if let Some(service) = a.service {
            inst.set("Service Name", Value::str(service));
        }
        if !a.inputs.is_empty() {
            inst.set("Input Data Set", Value::ref_list(a.inputs.iter().copied()));
        }
        if !a.outputs.is_empty() {
            inst.set(
                "Output Data Set",
                Value::ref_list(a.outputs.iter().copied()),
            );
        }
        if let Some(cons) = a.constraint {
            inst.set("Constraint", Value::str(cons));
        }
        kb.add_instance(inst).expect("valid activity instance");
    }

    // --- Transitions TR1..TR15 ---------------------------------------
    let graph = process_description();
    // The graph uses activity *names*; the ontology uses A-ids.
    let aid = |name: &str| -> String {
        activities
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.id.to_owned())
            .expect("known activity")
    };
    for t in graph.transitions() {
        kb.add_instance(
            Instance::new(t.id.clone(), schema::classes::TRANSITION)
                .with("ID", Value::str(t.id.clone()))
                .with("Source Activity", Value::reference(aid(&t.source)))
                .with("Destination Activity", Value::reference(aid(&t.dest))),
        )
        .expect("valid transition instance");
    }

    // --- Service descriptions with C1..C8 -----------------------------
    type ServiceRow = (
        &'static str,
        &'static [&'static str],
        &'static str,
        &'static [&'static str],
        &'static str,
    );
    let services: [ServiceRow; 4] = [
        (
            "POD",
            &["A", "B"],
            "C1: A.Classification = \"POD-Parameter\" and B.Classification = \"2D Image\"",
            &["C"],
            "C2: C.Classification = \"Orientation File\"",
        ),
        (
            "P3DR",
            &["A", "B", "C"],
            "C3: A.Classification = \"P3DR-Parameter\" and B.Classification = \"2D Image\" and C.Classification = \"Orientation File\"",
            &["D"],
            "C4: D.Classification = \"3D Model\"",
        ),
        (
            "POR",
            &["A", "B", "C", "D"],
            "C5: A.Classification = \"POR-Parameter\" and B.Classification = \"2D Image\" and C.Classification = \"Orientation File\" and D.Classification = \"3D Model\"",
            &["E"],
            "C6: E.Classification = \"Orientation File\"",
        ),
        (
            "PSF",
            &["A", "B", "C"],
            "C7: A.Classification = \"PSF-Parameter\" and B.Classification = \"3D Model\" and C.Classification = \"3D Model\"",
            &["D"],
            "C8: D.Classification = \"Resolution File\"",
        ),
    ];
    for (name, inputs, in_cond, outputs, out_cond) in services {
        kb.add_instance(
            Instance::new(name, schema::classes::SERVICE)
                .with("Name", Value::str(name))
                .with("Type", Value::str("End-user"))
                .with("Input Data Set", Value::str_list(inputs.iter().copied()))
                .with("Input Condition", Value::str_list([in_cond]))
                .with("Output Data Set", Value::str_list(outputs.iter().copied()))
                .with("Output Condition", Value::str_list([out_cond])),
        )
        .expect("valid service instance");
    }

    // --- Process description, case description, task ------------------
    kb.add_instance(
        Instance::new("PD-3DSD", schema::classes::PROCESS_DESCRIPTION)
            .with("Name", Value::str("PD-3DSD"))
            .with(
                "Activity Set",
                Value::ref_list(activities.iter().map(|a| a.id)),
            )
            .with(
                "Transition Set",
                Value::ref_list((1..=15).map(|i| format!("TR{i}"))),
            )
            .with("Creator", Value::str("Planning Service")),
    )
    .expect("valid PD instance");
    kb.add_instance(
        Instance::new("CD-3DSD", schema::classes::CASE_DESCRIPTION)
            .with("Name", Value::str("CD-3DSD"))
            .with(
                "Initial Data Set",
                Value::ref_list((1..=7).map(|i| format!("D{i}"))),
            )
            .with("Result Set", Value::ref_list(["D12"]))
            .with(
                "Goal",
                Value::str(format!("D12.Value <= {TARGET_RESOLUTION}")),
            )
            .with(
                "Constraint",
                Value::str_list([format!("Cons1: {}", cons1())]),
            ),
    )
    .expect("valid CD instance");
    kb.add_instance(
        Instance::new("T1", schema::classes::TASK)
            .with("ID", Value::str("T1"))
            .with("Name", Value::str("3DSD"))
            .with("Owner", Value::str("UCF"))
            .with("Status", Value::str("Submitted"))
            .with(
                "Data Set",
                Value::ref_list((1..=7).map(|i| format!("D{i}"))),
            )
            .with("Result Set", Value::ref_list(["D12"]))
            .with("Case Description", Value::reference("CD-3DSD"))
            .with("Process Description", Value::reference("PD-3DSD"))
            .with("Need Planning", Value::Bool(true)),
    )
    .expect("valid task instance");

    kb
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_plan::{ast_to_tree, graph_to_tree};
    use gridflow_process::recover::recover;

    #[test]
    fn figure_10_has_13_activities_and_15_transitions() {
        let g = process_description();
        assert_eq!(g.activities().len(), 13);
        assert_eq!(g.transitions().len(), 15);
        assert_eq!(g.end_user_activities().count(), 7);
        // 6 flow-control activities.
        assert_eq!(
            g.activities()
                .iter()
                .filter(|a| a.kind.is_flow_control())
                .count(),
            6
        );
    }

    #[test]
    fn figure_10_recovers_to_figure_11_tree() {
        let g = process_description();
        let tree = graph_to_tree(&g).unwrap();
        assert_eq!(tree, plan_tree());
        assert_eq!(tree.size(), 10);
    }

    #[test]
    fn figure_11_tree_structure() {
        let tree = plan_tree();
        let (seq, con, sel, ite) = tree.controller_counts();
        assert_eq!((seq, con, sel, ite), (1, 1, 0, 1));
        assert_eq!(
            tree.activities(),
            vec!["POD", "P3DR", "POR", "P3DR", "P3DR", "P3DR", "PSF"]
        );
    }

    #[test]
    fn figure_10_structured_text_round_trips() {
        let g = process_description();
        let ast = recover(&g).unwrap();
        assert_eq!(ast_to_tree(&ast), plan_tree());
    }

    #[test]
    fn planning_problem_matches_the_paper() {
        let p = planning_problem();
        assert_eq!(p.initial.len(), 7);
        assert_eq!(p.activities.len(), 4);
        let psf = p.activity("PSF").unwrap();
        assert_eq!(
            psf.inputs.iter().filter(|c| *c == MODEL_3D).count(),
            2,
            "PSF correlates two independent models"
        );
    }

    #[test]
    fn figure_11_plan_is_perfect_under_the_fitness_of_section_3() {
        use gridflow_planner::{evaluate, FitnessWeights};
        let f = evaluate(
            &plan_tree(),
            &planning_problem(),
            40,
            FitnessWeights::default(),
            64,
        );
        assert_eq!(f.validity, 1.0, "{f:?}");
        assert_eq!(f.goal, 1.0, "{f:?}");
        assert_eq!(f.size, 10);
    }

    #[test]
    fn cons1_drives_the_refinement_loop() {
        let mut state = case_description().initial_data;
        assert!(!cons1().eval(&state), "no resolution file yet");
        state.insert(
            "D12",
            DataItem::classified(RESOLUTION).with("Value", Value::Float(12.0)),
        );
        assert!(cons1().eval(&state), "12 Å is worse than 8 Å → refine");
        state.set_property("D12", "Value", Value::Float(8.0));
        assert!(!cons1().eval(&state), "8 Å reaches the goal → stop");
    }

    #[test]
    fn case_description_fields() {
        let case = case_description();
        assert_eq!(case.initial_data.len(), 7);
        assert_eq!(case.goals.len(), 2);
        assert!(case.constraints.contains_key("Cons1"));
        assert_eq!(case.result_set, vec!["D12"]);
        assert!(!case.goals_met(&case.initial_data));
    }

    #[test]
    fn virtual_lab_hosts_every_service() {
        let world = virtual_lab_world(0, 1);
        for service in service_names() {
            assert!(
                !world.executable_containers(&service).is_empty(),
                "{service} unhosted"
            );
        }
        // Fine-grain codes run on fine-grain-capable interconnects.
        for container in world.executable_containers("P3DR") {
            let c = world.topology.container(&container).unwrap();
            let r = world.topology.resource(&c.resource_id).unwrap();
            assert!(
                r.hardware.suits_fine_grain() || r.id.starts_with("extra"),
                "P3DR on {}",
                r.id
            );
        }
    }

    #[test]
    fn virtual_lab_scales_with_extra_sites() {
        let small = virtual_lab_world(0, 1);
        let big = virtual_lab_world(10, 1);
        assert_eq!(
            big.topology.resources.len(),
            small.topology.resources.len() + 10
        );
        // Deterministic for a seed.
        let big2 = virtual_lab_world(10, 1);
        assert_eq!(big.topology, big2.topology);
    }

    #[test]
    fn figure_13_instances_validate_against_figure_12_schema() {
        let kb = ontology_instances();
        assert!(kb.validate_all().is_empty());
        // 12 data + 13 activities + 15 transitions + 4 services + PD + CD
        // + task = 47 instances.
        assert_eq!(kb.instance_count(), 47);
        assert!(kb.dangling_refs().is_empty(), "{:?}", kb.dangling_refs());
    }

    #[test]
    fn figure_13_key_instances() {
        let kb = ontology_instances();
        let t1 = kb.instance("T1").unwrap();
        assert_eq!(t1.get_ref("Process Description"), Some("PD-3DSD"));
        assert_eq!(t1.get_ref("Case Description"), Some("CD-3DSD"));
        let a12 = kb.instance("A12").unwrap();
        assert_eq!(a12.get_str("Constraint"), Some("Cons1"));
        assert_eq!(a12.get_str("Type"), Some("Choice"));
        let tr14 = kb.instance("TR14").unwrap();
        assert_eq!(tr14.get_ref("Source Activity"), Some("A12"));
        assert_eq!(tr14.get_ref("Destination Activity"), Some("A4"));
        let d12 = kb.instance("D12").unwrap();
        assert_eq!(d12.get_str("Classification"), Some(RESOLUTION));
        assert_eq!(kb.instances_of(schema::classes::SERVICE).count(), 4);
    }
}
