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
use gridflow_planner::{ActivitySpec, PlanningProblem};
use gridflow_process::{
    ActivityDecl, ActivityKind, CaseDescription, CompareOp, Condition, DataItem, ProcessGraph,
};
use gridflow_services::{GridWorld, OutputSpec, ServiceOffering};
use std::collections::BTreeMap;

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

/// The four end-user services of `T`, their signatures C1–C8 as
/// [`planning_problem`] reads them, plus what the knowledge base has no
/// slot for: computational profiles mirroring §1's discussion (the
/// reconstruction codes are fine-grain parallel; POD and PSF are
/// coarse-grain), and PSF's resolution file, which lives at the fixed id
/// D12 and improves by `RESOLUTION_STEP` Å per pass.
pub fn offerings() -> Vec<ServiceOffering> {
    let offer = |spec: ActivitySpec| {
        let refines = spec.name == "PSF";
        let outputs = spec.outputs.into_iter().map(|class| {
            if refines {
                OutputSpec::refining(class, "D12", INITIAL_RESOLUTION, RESOLUTION_STEP)
            } else {
                OutputSpec::plain(class)
            }
        });
        let offering = ServiceOffering::new(spec.name, spec.inputs, outputs.collect());
        let demand = match offering.name.as_str() {
            "POD" => TaskDemand::coarse("POD", 400.0, 1_500.0),
            "P3DR" => TaskDemand::fine("P3DR", 2_000.0, 1_500.0),
            "POR" => TaskDemand::fine("POR", 1_200.0, 1_500.0),
            "PSF" => TaskDemand::coarse("PSF", 150.0, 200.0),
            _ => return offering,
        };
        offering.with_demand(demand)
    };
    planning_problem()
        .activities
        .into_iter()
        .map(offer)
        .collect()
}

/// The planning problem `P = {S_init, G, T}` of the §5 experiment, read
/// from task T1 of Fig. 13: initial data D1–D7, goal "a resolution file
/// exists", and the four services as `T`.
pub fn planning_problem() -> PlanningProblem {
    PlanningProblem::from_kb(&ontology_instances(), "T1").expect("Fig. 13 states T1's problem")
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

    let offerings = offerings();
    if extra_sites > 0 {
        let names: Vec<String> = offerings.iter().map(|o| o.name.clone()).collect();
        let extra = GridTopology::generate(extra_sites, &names, seed);
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
    for offering in offerings {
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
    let mut instances = Vec::new();

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
        instances.push(inst);
    }

    // --- Activities A1..A13, in Fig. 10's order ------------------------
    // The graph names activities; the ontology numbers them.
    let graph = process_description();
    let activities = graph.activities().iter().enumerate();
    let aid: BTreeMap<&str, String> = activities
        .map(|(i, a)| (a.id.as_str(), format!("A{}", i + 1)))
        .collect();
    // What the graph does not carry: the data each end-user activity
    // reads and writes, and the name of the CHOICE's constraint.
    type Carried = (
        &'static [&'static str],
        &'static [&'static str],
        Option<&'static str>,
    );
    let carried: [(&str, Carried); 8] = [
        ("POD", (&["D1", "D7"], &["D8"], None)),
        ("P3DR1", (&["D2", "D7", "D8"], &["D9"], None)),
        ("POR", (&["D5", "D7", "D8", "D9"], &["D8"], None)),
        ("P3DR2", (&["D3", "D7", "D8"], &["D10"], None)),
        ("P3DR3", (&["D4", "D7", "D8"], &["D11"], None)),
        ("P3DR4", (&["D2", "D7", "D8"], &["D9"], None)),
        ("PSF", (&["D6", "D10", "D11"], &["D12"], None)),
        ("CHOICE", (&[], &[], Some("Cons1"))),
    ];
    for a in graph.activities() {
        let id = &aid[a.id.as_str()];
        let mut inst = Instance::new(id, schema::classes::ACTIVITY)
            .with("ID", Value::str(id))
            .with("Name", Value::str(&a.id))
            .with("Task ID", Value::str("T1"))
            .with("Type", Value::str(a.kind.ontology_type()));
        if let Some(service) = &a.service {
            inst.set("Service Name", Value::str(service));
        }
        let row = carried.iter().find(|(name, _)| *name == a.id);
        let (inputs, outputs, constraint) = row.map(|&(_, c)| c).unwrap_or_default();
        for (slot, items) in [("Input Data Set", inputs), ("Output Data Set", outputs)] {
            if !items.is_empty() {
                inst.set(slot, Value::ref_list(items.iter().copied()));
            }
        }
        if let Some(constraint) = constraint {
            inst.set("Constraint", Value::str(constraint));
        }
        instances.push(inst);
    }

    // --- Transitions TR1..TR15 ---------------------------------------
    for t in graph.transitions() {
        instances.push(
            Instance::new(t.id.clone(), schema::classes::TRANSITION)
                .with("ID", Value::str(t.id.clone()))
                .with("Source Activity", Value::reference(&aid[t.source.as_str()]))
                .with(
                    "Destination Activity",
                    Value::reference(&aid[t.dest.as_str()]),
                ),
        );
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
        instances.push(
            Instance::new(name, schema::classes::SERVICE)
                .with("Name", Value::str(name))
                .with("Type", Value::str("End-user"))
                .with("Input Data Set", Value::str_list(inputs.iter().copied()))
                .with("Input Condition", Value::str_list([in_cond]))
                .with("Output Data Set", Value::str_list(outputs.iter().copied()))
                .with("Output Condition", Value::str_list([out_cond])),
        );
    }

    // --- Process description, case description, task ------------------
    instances.push(
        Instance::new("PD-3DSD", schema::classes::PROCESS_DESCRIPTION)
            .with("Name", Value::str("PD-3DSD"))
            .with(
                "Activity Set",
                Value::ref_list(graph.activities().iter().map(|a| &aid[a.id.as_str()])),
            )
            .with(
                "Transition Set",
                Value::ref_list(graph.transitions().iter().map(|t| &t.id)),
            )
            .with("Creator", Value::str("Planning Service")),
    );
    instances.push(
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
    );
    instances.push(
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
    );

    for inst in instances {
        kb.add_instance(inst)
            .expect("Fig. 13's instances fit Fig. 12");
    }
    kb
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_plan::{ast_to_tree, graph_to_tree};
    use gridflow_planner::GoalSpec;
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
        for service in planning_problem().activities.into_iter().map(|a| a.name) {
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

    /// `P = {S_init, G, T}` of the §5 experiment, written out: D1–D7's
    /// classifications in order, one goal, and C1–C8 in catalog order.
    /// Table 2's bytes depend on the order of `T`.
    #[test]
    fn planning_problem_is_figure_13_written_out() {
        let spec = |name: &str, inputs: &[&str], output: &str| ActivitySpec {
            name: name.into(),
            inputs: inputs.iter().map(|&c| c.into()).collect(),
            outputs: vec![output.into()],
            cost: 1.0,
        };
        let expected = PlanningProblem {
            initial: [
                "POD-Parameter",
                "P3DR-Parameter",
                "P3DR-Parameter",
                "P3DR-Parameter",
                "POR-Parameter",
                "PSF-Parameter",
                "2D Image",
            ]
            .map(String::from)
            .into(),
            goals: vec![GoalSpec {
                classification: "Resolution File".into(),
                min_count: 1,
            }],
            activities: vec![
                spec("POD", &["POD-Parameter", "2D Image"], "Orientation File"),
                spec(
                    "P3DR",
                    &["P3DR-Parameter", "2D Image", "Orientation File"],
                    "3D Model",
                ),
                spec(
                    "POR",
                    &["POR-Parameter", "2D Image", "Orientation File", "3D Model"],
                    "Orientation File",
                ),
                spec(
                    "PSF",
                    &["PSF-Parameter", "3D Model", "3D Model"],
                    "Resolution File",
                ),
            ],
        };
        assert_eq!(planning_problem(), expected);
    }

    /// Each offering's signature, written out; PSF rewrites the
    /// resolution file D12, 12 Å first and 2 Å better per pass.
    #[test]
    fn offerings_carry_the_figure_13_signatures() {
        let signatures: Vec<(String, Vec<String>, Vec<OutputSpec>)> = offerings()
            .into_iter()
            .map(|o| (o.name, o.inputs, o.outputs))
            .collect();
        let row = |name: &str, inputs: &[&str], outputs: Vec<OutputSpec>| {
            let inputs = inputs.iter().map(|&c| c.to_owned()).collect();
            (name.to_owned(), inputs, outputs)
        };
        assert_eq!(
            signatures,
            vec![
                row(
                    "POD",
                    &["POD-Parameter", "2D Image"],
                    vec![OutputSpec::plain("Orientation File")]
                ),
                row(
                    "P3DR",
                    &["P3DR-Parameter", "2D Image", "Orientation File"],
                    vec![OutputSpec::plain("3D Model")]
                ),
                row(
                    "POR",
                    &["POR-Parameter", "2D Image", "Orientation File", "3D Model"],
                    vec![OutputSpec::plain("Orientation File")]
                ),
                row(
                    "PSF",
                    &["PSF-Parameter", "3D Model", "3D Model"],
                    vec![OutputSpec::refining("Resolution File", "D12", 12.0, 2.0)]
                ),
            ]
        );
    }

    /// The typed case description (whose D7 has no `Format`, where the
    /// knowledge base's D7 is `Binary`) names the same initial data and
    /// result set as CD-3DSD.
    #[test]
    fn case_description_agrees_with_cd_3dsd() {
        let (case, kb) = (case_description(), ontology_instances());
        let cd = kb.instance("CD-3DSD").unwrap();
        let typed: Vec<(&str, Option<&str>)> = case
            .initial_data
            .iter()
            .map(|(id, item)| (id, item.classification()))
            .collect();
        let stated: Vec<(&str, Option<&str>)> = cd
            .get_ref_list("Initial Data Set")
            .into_iter()
            .map(|id| (id, kb.instance(id).unwrap().get_str("Classification")))
            .collect();
        assert_eq!(typed, stated);
        assert_eq!(case.result_set, cd.get_ref_list("Result Set"));
    }
}
