//! Tables 1–2 and Figures 1–13, each regenerated as text.

use crate::{banner_text, outln, render_table};
use gridflow::casestudy;
use gridflow::prelude::*;
use gridflow_ontology::schema::{classes, grid_ontology_shell};
use gridflow_ontology::{Cardinality, ValueType};
use gridflow_planner::genetic::{crossover, mutate};
use gridflow_process::dot;
use gridflow_services::agents::{StackHandles, GRIDFLOW_ONTOLOGY};
use gridflow_services::information::Registration;
use gridflow_services::planning::PlanRequest;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::{json, Value};
use std::time::Duration;

/// **Table 1**: the GP parameter settings of the §5 experiment.
pub(crate) fn table1() -> String {
    format!(
        "{}{}\n(paper values: 200 / 20 / 0.7 / 0.001 / 40 / 0.2 / 0.5 — identical by construction)\n",
        banner_text("Table 1: parameter settings"),
        experiments::table1()
    )
}

/// **Table 2**: "We test the algorithm ten times and select the
/// individual with the highest fitness in the final generation as the
/// solution.  Then we calculate the average fitness, validity fitness,
/// goal fitness, and the size of solutions over ten runs."
pub(crate) fn table2() -> String {
    banner_text("Table 2: ten-run planning study on the virus case study")
        + &experiments::table2_report(10)
}

/// The Fig. 1 agent stack over `world`, its planning service at Table
/// 1's parameters with `seed`.
fn boot(world: GridWorld, seed: u64) -> (AgentRuntime, StackHandles) {
    let mut rt = AgentRuntime::new();
    let gp = GpConfig {
        seed,
        ..GpConfig::default()
    };
    let stack = boot_stack(
        &mut rt,
        share(world),
        PlanningService::new(gp),
        EnactmentConfig::default(),
    )
    .expect("stack boots");
    (rt, stack)
}

/// One request to `agent` in the GridFlow ontology; the reply's content.
fn ask(stack: &StackHandles, agent: &str, content: Value) -> Value {
    let reply = stack
        .client
        .request(agent, GRIDFLOW_ONTOLOGY, content, Duration::from_secs(300));
    reply.expect("the agent replies").content
}

/// What the coordination service sends in Figs. 2–3: the case study's
/// initial data and goal.
fn case_study_request() -> PlanRequest {
    let problem = casestudy::planning_problem();
    PlanRequest {
        initial: problem.initial,
        goals: problem.goals,
        produced: vec![],
        excluded: vec![],
    }
}

/// **Figure 1**: boot the core-service stack plus the application
/// containers over the virtual laboratory and list what the information
/// service knows — the architecture diagram, in registry form.
pub(crate) fn fig1_architecture() -> String {
    let mut out = banner_text("Figure 1: core and end-user services");
    let world = casestudy::virtual_lab_world(3, 1);
    let containers: Vec<Vec<String>> = world
        .topology
        .containers
        .iter()
        .map(|c| {
            vec![
                c.id.clone(),
                c.resource_id.clone(),
                c.services.join(", "),
                if c.up { "up" } else { "down" }.into(),
            ]
        })
        .collect();
    let (mut rt, stack) = boot(world, 1);

    // Matchmaking is invoked in-process by the coordination service (it
    // is a library call on the shared world); register its offering so
    // the Fig. 1 listing is complete.
    let matchmaking = Registration {
        name: "matchmaking-1".into(),
        service_type: "matchmaking".into(),
        location: "coordination-1 (in-process)".into(),
        description: "core matchmaking service".into(),
    };
    ask(
        &stack,
        &stack.information,
        json!({"action": "register", "registration": matchmaking}),
    );
    let listing = ask(&stack, &stack.information, json!({"action": "list"}));
    let regs: Vec<Registration> =
        serde_json::from_value(listing["services"].clone()).expect("parse");
    rt.shutdown();

    let mut core: Vec<&Registration> = regs
        .iter()
        .filter(|r| r.service_type != "application-container")
        .collect();
    core.sort_by(|a, b| a.service_type.cmp(&b.service_type));
    out += "core services (the paper's Fig. 1 left box + information service):\n";
    let rows: Vec<Vec<String>> = core
        .iter()
        .map(|r| vec![r.service_type.clone(), r.name.clone(), r.location.clone()])
        .collect();
    outln!(
        out,
        "{}",
        render_table(&["type", "agent", "location"], &rows)
    );

    out += "application containers hosting end-user services (right box):\n";
    let headers = ["container", "resource", "end-user services", "status"];
    outln!(out, "{}", render_table(&headers, &containers));
    out
}

/// **Figure 2**: "The interactions between the planning service and the
/// coordination service" — drive a planning-task specification through
/// the coordination agent and print the message exchange.
pub(crate) fn fig2_planning_flow() -> String {
    let mut out = banner_text("Figure 2: planning-request message flow");
    let (mut rt, stack) = boot(casestudy::virtual_lab_world(0, 2), 2);
    out += "user-interface        → coordination-1 : planning task specification\n";
    out += "  (S_init = D1..D7 classifications, G = {Resolution File ≥ 1})\n";
    out += "coordination-1        → planning-1     : 1. Planning task specification\n";
    let reply = ask(
        &stack,
        &stack.coordination,
        json!({"action": "plan_request", "request": case_study_request()}),
    );
    rt.shutdown();
    out += "planning-1            → coordination-1 : 2. plan\n";
    out += "coordination-1        → user-interface : plan relayed\n\n";
    outln!(
        out,
        "viable: {}   fitness: {}",
        reply["viable"],
        reply["fitness"]["overall"]
    );
    out += "\nthe plan, as a process description:\n\n";
    outln!(out, "{}", reply["process_text"].as_str().unwrap());
    out
}

/// **Figure 3**: "The flow of communications between the planning
/// service and other services during re-planning" — kill a service's
/// hosts, send a re-planning request, and print the probe trace
/// (information → brokerage → application containers).
pub(crate) fn fig3_replanning_flow() -> String {
    let mut out = banner_text("Figure 3: re-planning message flow");
    let mut world = casestudy::virtual_lab_world(0, 3);
    // The orientation-refinement hosts die (POR is optional for the
    // minimal plan, so re-planning can still succeed).
    for c in world.hosting_containers("POR") {
        world.set_container_up(&c, false).expect("known container");
        outln!(out, "✗ {c} (hosting POR) goes down");
    }
    let (mut rt, stack) = boot(world, 3);
    ask(&stack, &stack.brokerage, json!({"action": "refresh"}));

    out += "\ncoordination          → planning-1     : 1. planning task + non-executable activities [POR, PSF]\n";
    let reply = ask(
        &stack,
        &stack.planning,
        json!({
            "action": "replan",
            "request": case_study_request(),
            "nonexecutable": ["POR", "PSF"],
        }),
    );
    rt.shutdown();

    out += "\nprobe trace (steps 2–7 of the figure):\n";
    let trace: Vec<String> = serde_json::from_value(reply["probe_trace"].clone()).expect("trace");
    for (i, line) in trace.iter().enumerate() {
        outln!(out, "  {}. {line}", i + 2);
    }
    let excluded: Vec<String> =
        serde_json::from_value(reply["excluded"].clone()).expect("excluded");
    outln!(out, "\nexcluded after probing: {excluded:?}");
    outln!(
        out,
        "planning-1            → coordination   : 8. a new plan (viable = {})",
        reply["viable"]
    );
    outln!(
        out,
        "\nthe new plan:\n\n{}",
        reply["process_text"].as_str().unwrap()
    );
    out
}

/// **Figures 4–7**: the process-description ⇄ plan-tree conversions for
/// sequential, concurrent, selective, and iterative activities.  Each
/// figure prints the textual process description, the flattened graph
/// (activities + transitions), the converted plan tree, and the
/// round-trip check.
pub(crate) fn fig4to7_conversions() -> String {
    let mut out = banner_text("Figures 4–7: process description ⇄ plan tree conversions");
    for (figure, title, src) in [
        ("4", "sequential activities", "BEGIN A; B; C; END"),
        (
            "5",
            "concurrent activities (Fork/Join)",
            "BEGIN FORK { { A; }, { B; } } JOIN; END",
        ),
        (
            "6",
            "selective activities (Choice/Merge)",
            "BEGIN CHOICE { COND { D.Classification = \"ready\" } { A; }, COND { true } { B; } } MERGE; END",
        ),
        (
            "7",
            "iterative activities (loop)",
            "BEGIN ITERATIVE { COND { D.Value > 8.0 } } { A; B; }; END",
        ),
    ] {
        outln!(out, "---- Figure {figure}: {title} ----\n");
        let ast = parse_process(src).expect("parses");
        outln!(out, "(a) process description:\n{}", printer::print(&ast));
        let graph = lower(format!("fig{figure}"), &ast).expect("lowers");
        outln!(
            out,
            "    graph form: {} activities, {} transitions",
            graph.activities().len(),
            graph.transitions().len()
        );
        for t in graph.transitions() {
            match &t.condition {
                Some(c) => outln!(out, "      {}: {} → {}  [{}]", t.id, t.source, t.dest, c),
                None => outln!(out, "      {}: {} → {}", t.id, t.source, t.dest),
            }
        }
        let tree = ast_to_tree(&ast);
        outln!(out, "\n(b) plan tree ({} nodes):", tree.size());
        out.push_str(&tree_text(&tree, "  ", 1, Some(" [")));
        let recovered = graph_to_tree(&graph).expect("recovers");
        outln!(
            out,
            "\nround trip (graph → tree) reproduces the tree: {}\n",
            recovered == tree
        );
    }
    out
}

/// Fig. 8(a)'s parent 1 and Fig. 9(a)'s original:
/// Sequential(A, Selective(B, C), D).
fn figure_8_and_9_tree() -> PlanNode {
    let t = PlanNode::terminal;
    PlanNode::Sequential(vec![
        t("A"),
        PlanNode::selective_unguarded([t("B"), t("C")]),
        t("D"),
    ])
}

/// **Figure 8**: "An example of crossover performed on two plan trees" —
/// build the figure's two parents, cross them at a fixed seed, and show
/// parents and offspring.
pub(crate) fn fig8_crossover() -> String {
    let mut out = banner_text("Figure 8: crossover on plan trees");
    let t = PlanNode::terminal;
    let parent1 = figure_8_and_9_tree();
    // Fig. 8(a): parent 2 = Sequential(Concurrent(E, F), G).
    let parent2 = PlanNode::Sequential(vec![PlanNode::Concurrent(vec![t("E"), t("F")]), t("G")]);
    outln!(out, "(a) parents:\n\nparent 1 (size {}):", parent1.size());
    out.push_str(&tree_text(&parent1, "  ", 1, None));
    outln!(out, "\nparent 2 (size {}):", parent2.size());
    out.push_str(&tree_text(&parent2, "  ", 1, None));

    // Seed chosen so the exchanged subtrees are interior nodes, as in the
    // figure (the Selective subtree of parent 1 ↔ the Concurrent subtree
    // of parent 2).
    let (seed, child1, child2) = (0..200u64)
        .find_map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (mut c1, mut c2) = (parent1.clone(), parent2.clone());
            let interior = crossover(&mut c1, &mut c2, &mut rng, 40)
                && c1.controller_counts().1 > 0
                && c2.controller_counts().2 > 0;
            interior.then_some((seed, c1, c2))
        })
        .expect("an interior-node crossover exists");
    outln!(
        out,
        "\n(b)+(c) after crossover (seed {seed}; subtrees exchanged):"
    );
    outln!(out, "\nchild 1 (size {}):", child1.size());
    out.push_str(&tree_text(&child1, "  ", 1, None));
    outln!(out, "\nchild 2 (size {}):", child2.size());
    out.push_str(&tree_text(&child2, "  ", 1, None));
    outln!(
        out,
        "\ninvariant: sizes conserve ({} + {} = {} + {})",
        parent1.size(),
        parent2.size(),
        child1.size(),
        child2.size()
    );
    assert_eq!(
        parent1.size() + parent2.size(),
        child1.size() + child2.size()
    );
    out
}

/// **Figure 9**: "An example of mutation performed on a plan tree" — a
/// node is selected and its subtree is replaced by a randomly generated
/// tree.
pub(crate) fn fig9_mutation() -> String {
    let mut out = banner_text("Figure 9: mutation on a plan tree");
    let original = figure_8_and_9_tree();
    outln!(out, "(a) original tree (size {}):", original.size());
    out.push_str(&tree_text(&original, "  ", 1, None));

    let activities = ["E", "F", "G"].map(String::from);
    // Find a seed where mutation replaces an interior subtree (as the
    // figure shows the Selective being replaced).
    let (seed, applied, mutated) = (0..500u64)
        .find_map(|seed| {
            let mut tree = original.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let applied = mutate(&mut tree, &mut rng, 0.25, 40, 8, &activities);
            let replaced = applied >= 1 && tree.controller_counts().2 == 0 && tree != original;
            replaced.then_some((seed, applied, tree))
        })
        .expect("a selective-replacing mutation exists");
    outln!(
        out,
        "\n(b) after mutation (seed {seed}, {applied} node(s) mutated, size {}):",
        mutated.size()
    );
    out.push_str(&tree_text(&mutated, "  ", 1, None));
    out += "\nthe Selective subtree was replaced by a randomly generated tree,\n";
    outln!(
        out,
        "mirroring the figure; the size cap S_max = 40 was respected: {}",
        mutated.size() <= 40
    );
    assert!(mutated.is_gp_valid());
    out
}

/// **Figure 10**: the process description for the 3D reconstruction of
/// virus structures — printed as the activity/transition listing, the
/// structured text, and Graphviz DOT.
pub(crate) fn fig10_process_description() -> String {
    let mut out = banner_text("Figure 10: process description PD-3DSD");
    let graph = casestudy::process_description();
    let dash = || "—".to_owned();

    out += "activities:\n";
    let rows: Vec<Vec<String>> = graph
        .activities()
        .iter()
        .map(|a| {
            vec![
                a.id.clone(),
                a.kind.ontology_type().to_owned(),
                a.service.clone().unwrap_or_else(dash),
            ]
        })
        .collect();
    outln!(out, "{}", render_table(&["id", "type", "service"], &rows));

    out += "transitions:\n";
    let rows: Vec<Vec<String>> = graph
        .transitions()
        .iter()
        .map(|t| {
            vec![
                t.id.clone(),
                t.source.clone(),
                t.dest.clone(),
                t.condition.as_ref().map_or_else(dash, |c| c.to_string()),
            ]
        })
        .collect();
    let headers = ["id", "source", "destination", "condition"];
    outln!(out, "{}", render_table(&headers, &rows));

    let ast = recover(&graph).expect("Fig. 10 is structured");
    outln!(out, "structured (PDL) form:\n\n{}", printer::print(&ast));

    out += "Graphviz DOT (pipe into `dot -Tpng`):\n\n";
    outln!(out, "{}", dot::to_dot(&graph));
    out
}

/// **Figure 11**: "The corresponding plan tree to the process
/// description for the 3D reconstruction of virus structures" — derived
/// mechanically from the Fig. 10 graph and checked against the
/// hand-drawn tree.
pub(crate) fn fig11_plan_tree() -> String {
    let mut out = banner_text("Figure 11: the plan tree of PD-3DSD");
    let derived = graph_to_tree(&casestudy::process_description()).expect("structure recovery");
    out += "derived mechanically from the Fig. 10 graph:\n\n";
    out.push_str(&tree_text(&derived, "   ", 0, Some("   [continue while ")));

    let reference = casestudy::plan_tree();
    outln!(
        out,
        "\nmatches the hand-drawn Fig. 11 tree: {}",
        derived == reference
    );
    outln!(
        out,
        "size: {} nodes ({} terminals + {} controllers), depth {}",
        derived.size(),
        derived.activities().len(),
        derived.size() - derived.activities().len(),
        derived.depth()
    );
    let (seq, con, sel, ite) = derived.controller_counts();
    outln!(
        out,
        "controllers: {seq} sequential, {con} concurrent, {sel} selective, {ite} iterative"
    );
    assert_eq!(derived, reference);
    out
}

/// **Figure 12**: "Logic view of the ontology structure used by the
/// framework" — every class with its slots, plus the reference links
/// between classes.
pub(crate) fn fig12_ontology_structure() -> String {
    let mut out = banner_text("Figure 12: the grid ontology structure");
    let kb = grid_ontology_shell();
    let mut links = String::new();
    for class in kb.classes() {
        outln!(out, "┌─ {} — {}", class.name, class.doc);
        let slots = kb.effective_slots(&class.name).expect("class exists");
        let rows: Vec<Vec<String>> = slots
            .iter()
            .map(|s| {
                let kind = match (&s.facets.value_type, &s.facets.ref_class) {
                    (ValueType::Ref, Some(target)) => format!("→ {target}"),
                    (vt, _) => vt.to_string(),
                };
                let card = match s.facets.cardinality {
                    Cardinality::Single => "1",
                    Cardinality::Multiple => "*",
                };
                vec![
                    s.name.clone(),
                    kind,
                    card.to_owned(),
                    if s.facets.required { "required" } else { "" }.to_owned(),
                ]
            })
            .collect();
        for line in render_table(&["slot", "type", "card", ""], &rows).lines() {
            outln!(out, "│  {line}");
        }
        out += "└─\n";
        for slot in &slots {
            if let Some(target) = &slot.facets.ref_class {
                outln!(links, "  {} ─({})→ {}", class.name, slot.name, target);
            }
        }
    }
    out += "\nreference links between classes (the figure's arrows):\n";
    out + &links
}

/// **Figure 13**: "Instances of the ontologies used for enactment of the
/// process description in Figure 10" — the Task, ProcessDescription,
/// CaseDescription, Activity, Transition, Data, and Service instance
/// tables.
pub(crate) fn fig13_ontology_instances() -> String {
    let mut out = banner_text("Figure 13: ontology instances for task 3DSD");
    let kb = casestudy::ontology_instances();
    assert!(kb.validate_all().is_empty(), "instances must validate");

    let t1 = kb.instance("T1").expect("task");
    out += "Task:\n";
    let headers = [
        "ID",
        "Name",
        "Owner",
        "Process Description",
        "Case Description",
    ];
    let row = vec![
        t1.get_str("ID").unwrap().into(),
        t1.get_str("Name").unwrap().into(),
        t1.get_str("Owner").unwrap().into(),
        t1.get_ref("Process Description").unwrap().into(),
        t1.get_ref("Case Description").unwrap().into(),
    ];
    outln!(out, "{}", render_table(&headers, &[row]));

    let pd = kb.instance("PD-3DSD").expect("pd");
    out += "ProcessDescription PD-3DSD:\n";
    outln!(
        out,
        "  Activity Set:   {:?}",
        pd.get_ref_list("Activity Set")
    );
    outln!(
        out,
        "  Transition Set: {:?}\n",
        pd.get_ref_list("Transition Set")
    );
    let cd = kb.instance("CD-3DSD").expect("cd");
    out += "CaseDescription CD-3DSD:\n";
    outln!(
        out,
        "  Initial Data Set: {:?}",
        cd.get_ref_list("Initial Data Set")
    );
    outln!(out, "  Goal:             {}", cd.get_str("Goal").unwrap());
    outln!(
        out,
        "  Result Set:       {:?}\n",
        cd.get_ref_list("Result Set")
    );

    out += "Activities:\n";
    let rows: Vec<Vec<String>> = kb
        .instances_of(classes::ACTIVITY)
        .map(|a| {
            vec![
                a.get_str("ID").unwrap_or("").into(),
                a.get_str("Name").unwrap_or("").into(),
                a.get_str("Type").unwrap_or("").into(),
                a.get_str("Service Name").unwrap_or("—").into(),
                format!("{:?}", a.get_ref_list("Input Data Set")),
                format!("{:?}", a.get_ref_list("Output Data Set")),
                a.get_str("Constraint").unwrap_or("").into(),
            ]
        })
        .collect();
    let headers = [
        "ID",
        "Name",
        "Type",
        "Service",
        "Inputs",
        "Outputs",
        "Constraint",
    ];
    outln!(out, "{}", render_table(&headers, &rows));

    out += "Transitions:\n";
    let rows: Vec<Vec<String>> = kb
        .instances_of(classes::TRANSITION)
        .map(|t| {
            vec![
                t.get_str("ID").unwrap_or("").into(),
                t.get_ref("Source Activity").unwrap_or("").into(),
                t.get_ref("Destination Activity").unwrap_or("").into(),
            ]
        })
        .collect();
    let headers = ["ID", "Source Activity", "Destination Activity"];
    outln!(out, "{}", render_table(&headers, &rows));

    out += "Data:\n";
    let rows: Vec<Vec<String>> = kb
        .instances_of(classes::DATA)
        .map(|d| {
            vec![
                d.id.clone(),
                d.get_str("Creator").unwrap_or("").into(),
                d.get_int("Size").map(|s| s.to_string()).unwrap_or_default(),
                d.get_str("Classification").unwrap_or("").into(),
                d.get_str("Format").unwrap_or("").into(),
            ]
        })
        .collect();
    let headers = ["Name", "Creator", "Size", "Classification", "Format"];
    outln!(out, "{}", render_table(&headers, &rows));

    out += "Services (signatures C1–C8):\n";
    for s in kb.instances_of(classes::SERVICE) {
        outln!(out, "  {}:", s.id);
        for cond in s.get_list("Input Condition").unwrap_or(&[]) {
            outln!(out, "    in:  {}", cond.as_str().unwrap_or(""));
        }
        for cond in s.get_list("Output Condition").unwrap_or(&[]) {
            outln!(out, "    out: {}", cond.as_str().unwrap_or(""));
        }
    }
    out += "\nconstraint Cons1 (normalized to D12, see casestudy docs):\n";
    outln!(out, "  if ({}) then Merge else End", casestudy::cons1());
    outln!(
        out,
        "\ntotal: {} instances, 0 validation errors, 0 dangling references",
        kb.instance_count()
    );
    out
}
