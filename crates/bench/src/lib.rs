//! The paper's tables, figures and studies as functions returning text.
//!
//! [`ARTEFACTS`] is the one table of `(id, fn() -> String)`; the `repro`
//! binary prints or writes its entries (`cargo run --release -p
//! gridflow-bench --bin repro -- <id>|all|list [--out DIR]`) and
//! `tests/paper_golden.rs` compares each with `tests/paper_golden/<id>.txt`.
//!
//! | id | reproduces |
//! |---|---|
//! | `table1`, `table2` | Table 1 (GP parameter settings), Table 2 (ten-run planning study) |
//! | `fig1_architecture`, `fig2_planning_flow`, `fig3_replanning_flow` | Figs. 1–3 on the live agent stack |
//! | `fig4to7_conversions`, `fig8_crossover`, `fig9_mutation` | Figs. 4–9 (process ⇄ plan-tree conversions, GP operators) |
//! | `fig10_process_description`, `fig11_plan_tree` | Figs. 10–11 (the virus workflow and its plan tree) |
//! | `fig12_ontology_structure`, `fig13_ontology_instances` | Figs. 12–13 (ontology classes and instances) |
//! | `ablation_smax`, `ablation_population`, `ablation_operators`, `ablation_weights`, `scaling_activities`, `ablation_selection` | design-choice sweeps A1–A6 |
//! | `replanning_robustness` | enactment success vs. failure probability (A8) |
//! | `convergence`, `migration_costs`, `scalability_study` | supplementary studies |
//!
//! The other two binaries, `enactment_throughput` and
//! `planner_throughput`, write `BENCH_*.json` and are not artefacts.
//! Criterion benches (`cargo bench -p gridflow-bench`): `table2_planning`,
//! `enactment` (A7), `matchmaking` (A9), `ontology` (A10),
//! `representations`.

mod paper;
mod studies;

/// Append one formatted line to a `String`.
macro_rules! outln {
    ($out:expr) => { $out.push('\n') };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}
pub(crate) use outln;

/// An artefact: its id and the function that regenerates its text at
/// the documented seeds.
pub type Artefact = (&'static str, fn() -> String);

/// Every artefact, in the paper's order.
pub const ARTEFACTS: &[Artefact] = &[
    ("table1", paper::table1),
    ("table2", paper::table2),
    ("fig1_architecture", paper::fig1_architecture),
    ("fig2_planning_flow", paper::fig2_planning_flow),
    ("fig3_replanning_flow", paper::fig3_replanning_flow),
    ("fig4to7_conversions", paper::fig4to7_conversions),
    ("fig8_crossover", paper::fig8_crossover),
    ("fig9_mutation", paper::fig9_mutation),
    (
        "fig10_process_description",
        paper::fig10_process_description,
    ),
    ("fig11_plan_tree", paper::fig11_plan_tree),
    ("fig12_ontology_structure", paper::fig12_ontology_structure),
    ("fig13_ontology_instances", paper::fig13_ontology_instances),
    ("ablation_smax", studies::ablation_smax),
    ("ablation_population", studies::ablation_population),
    ("ablation_operators", studies::ablation_operators),
    ("ablation_weights", studies::ablation_weights),
    ("scaling_activities", studies::scaling_activities),
    ("ablation_selection", studies::ablation_selection),
    ("replanning_robustness", studies::replanning_robustness),
    ("convergence", studies::convergence),
    ("migration_costs", studies::migration_costs),
    ("scalability_study", studies::scalability_study),
];

/// Regenerate the artefact `id`; `None` when the table has no such entry.
pub fn artefact(id: &str) -> Option<String> {
    let (_, regenerate) = ARTEFACTS.iter().find(|(known, _)| *known == id)?;
    Some(regenerate())
}

/// Render a plain-text table: headers + rows, columns padded to fit.
/// Widths are measured in characters (not bytes), so the block-glyph
/// bars of [`bar`] align correctly.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let width_of = |s: &str| s.chars().count();
    let mut widths: Vec<usize> = headers.iter().map(|h| width_of(h)).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(width_of(cell));
        }
    }
    let pad = |out: &mut String, text: &str, width: usize| {
        out.push_str(text);
        for _ in width_of(text)..width {
            out.push(' ');
        }
        out.push_str("  ");
    };
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        pad(&mut out, h, widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        pad(&mut out, &"-".repeat(widths[i]), widths[i]);
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            pad(&mut out, cell, widths[i]);
        }
        out.push('\n');
    }
    out
}

/// Render a one-line ASCII bar of `value` against `max`, `width` chars.
pub(crate) fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64)
            .round()
            .clamp(0.0, width as f64) as usize
    } else {
        0
    };
    format!("{}{}", "█".repeat(filled), "·".repeat(width - filled))
}

/// Print [`banner_text`]: the two throughput binaries head their
/// sections with it.
pub fn banner(what: &str) {
    print!("{}", banner_text(what));
}

/// The banner every artefact opens with, a blank line after it.
pub(crate) fn banner_text(what: &str) -> String {
    format!(
        "================================================================\n\
         GridFlow reproduction — {what}\n\
         Yu, Bai, Wang, Ji, Marinescu: \"Metainformation and Workflow\n\
         Management for Solving Complex Problems in Grid Environments\"\n\
         (IPDPS 2004)\n\
         ================================================================\n\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["Parameter", "Value"],
            &[
                vec!["Population Size".into(), "200".into()],
                vec!["Smax".into(), "40".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Parameter"));
        assert!(lines[2].contains("200"));
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0.0, 1.0, 4), "····");
        assert_eq!(bar(1.0, 1.0, 4), "████");
        assert_eq!(bar(0.5, 1.0, 4), "██··");
        assert_eq!(bar(2.0, 0.0, 3), "···");
    }
}
