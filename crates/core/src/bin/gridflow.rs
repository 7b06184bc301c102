//! `gridflow` — command-line front end to the GridFlow library.
//!
//! ```text
//! gridflow parse <file.pdl>         validate a process description
//! gridflow print <file.pdl>         canonical (pretty-printed) form
//! gridflow dot <file.pdl>           Graphviz DOT of the workflow graph
//! gridflow tree <file.pdl>          the corresponding plan tree
//! gridflow plan [seed]              GP-plan the virus case study
//! gridflow enact [<file.pdl>]       enact on the virtual laboratory
//!                                   (defaults to the Fig. 10 workflow)
//! gridflow table2 [runs]            run the §5 experiment
//! ```
//!
//! Files use the process-description language documented in
//! `gridflow_process::parser`; `-` reads from stdin.

use gridflow::experiments;
use gridflow::prelude::*;
use gridflow_process::dot;
use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "parse" => cmd_parse(rest),
        "print" => cmd_print(rest),
        "dot" => cmd_dot(rest),
        "tree" => cmd_tree(rest),
        "plan" => cmd_plan(rest),
        "enact" => cmd_enact(rest),
        "table2" => cmd_table2(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: gridflow <parse|print|dot|tree|plan|enact|table2|help> [args]
  parse <file.pdl>    validate a process description (`-` = stdin)
  print <file.pdl>    canonical pretty-printed form
  dot <file.pdl>      Graphviz DOT of the workflow graph
  tree <file.pdl>     the corresponding plan tree
  plan [seed]         GP-plan the virus case study (default seed 1)
  enact [file.pdl]    enact on the virtual lab (default: Fig. 10)
  table2 [runs]       run the §5 experiment (default 10 runs)";

fn read_source(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("missing <file.pdl> argument")?;
    if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buffer)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn parse_and_lower(
    args: &[String],
) -> Result<(gridflow_process::ProcessAst, ProcessGraph), String> {
    let source = read_source(args)?;
    let ast = parse_process(&source).map_err(|e| e.with_position(&source))?;
    let graph = lower("cli", &ast).map_err(|e| e.to_string())?;
    graph.validate().map_err(|e| e.to_string())?;
    Ok((ast, graph))
}

fn cmd_parse(args: &[String]) -> Result<(), String> {
    let (ast, graph) = parse_and_lower(args)?;
    println!(
        "valid: {} statements, {} AST nodes, depth {}",
        ast.body.len(),
        ast.node_count(),
        ast.depth()
    );
    println!(
        "graph: {} activities ({} end-user), {} transitions",
        graph.activities().len(),
        graph.end_user_activities().count(),
        graph.transitions().len()
    );
    Ok(())
}

fn cmd_print(args: &[String]) -> Result<(), String> {
    let (ast, _) = parse_and_lower(args)?;
    print!("{}", printer::print(&ast));
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let (_, graph) = parse_and_lower(args)?;
    print!("{}", dot::to_dot(&graph));
    Ok(())
}

fn cmd_tree(args: &[String]) -> Result<(), String> {
    let (ast, _) = parse_and_lower(args)?;
    let tree = ast_to_tree(&ast);
    print!("{}", tree_text(&tree, "  ", 0, Some(" [")));
    println!("\nsize {} / depth {}", tree.size(), tree.depth());
    Ok(())
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let seed: u64 = args
        .first()
        .map(|s| s.parse().map_err(|_| format!("bad seed `{s}`")))
        .transpose()?
        .unwrap_or(1);
    let lab = VirtualLab::new(0, seed);
    let plan = lab.plan().map_err(|e| e.to_string())?;
    println!(
        "fitness: overall {:.3} (validity {:.2}, goal {:.2}, size {})",
        plan.fitness.overall, plan.fitness.validity, plan.fitness.goal, plan.fitness.size
    );
    println!("viable: {}", plan.viable);
    print!("\n{}", printer::print(&tree_to_ast(&plan.tree)));
    Ok(())
}

fn cmd_enact(args: &[String]) -> Result<(), String> {
    let mut lab = VirtualLab::new(0, 1);
    let graph = if args.is_empty() {
        lab.figure_10()
    } else {
        let (_, graph) = parse_and_lower(args)?;
        graph
    };
    let report = lab.enact(&graph);
    println!("success: {}", report.success);
    if let Some(reason) = &report.abort_reason {
        println!("abort: {reason}");
    }
    for e in &report.executions {
        println!(
            "  {:<8} via {:<10} on {:<20} {:>8.1}s  {:>7.2}",
            e.service, e.activity, e.container, e.duration_s, e.cost
        );
    }
    println!(
        "total: {} executions, {:.1}s, cost {:.2}",
        report.executions.len(),
        report.total_duration_s,
        report.total_cost
    );
    if report.success {
        Ok(())
    } else {
        Err("enactment did not reach the case goals".into())
    }
}

fn cmd_table2(args: &[String]) -> Result<(), String> {
    let runs: usize = args
        .first()
        .map(|s| s.parse().map_err(|_| format!("bad run count `{s}`")))
        .transpose()?
        .unwrap_or(10);
    print!("{}", experiments::table2_report(runs));
    Ok(())
}
