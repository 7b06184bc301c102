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
//! `planner_throughput`, write `BENCH_*.json` through [`report`] and are
//! not artefacts.  The scaling sweeps A7 (enactment vs. workflow depth
//! and width), A9 (matchmaking and brokerage vs. grid size) and A10
//! (ontology query vs. instance count) are `enactment_throughput`'s
//! `"scaling"` cell.

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

/// The one way the throughput binaries read, guard and write their
/// `BENCH_*.json` reports.
pub mod report {
    use serde_json::{Map, Value};
    use std::path::PathBuf;

    /// A guarded figure fails below this share of its committed value.
    pub const GUARD_FLOOR: f64 = 0.8;
    /// A guarded figure is the best of this many measurements: shared
    /// CI runners jitter wall-clock throughput far more than a real
    /// regression, and best-of-N strips the downward noise.
    pub const GUARD_MEASUREMENTS: usize = 3;

    /// The committed report, read once before anything is measured,
    /// and the cells this run has recorded.
    pub struct Report {
        path: PathBuf,
        committed: Map,
        cells: Map,
    }

    impl Report {
        /// Read the committed report at `path` (empty when unreadable).
        pub fn open(path: impl Into<PathBuf>) -> Report {
            let path = path.into();
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let committed = match serde_json::from_str(&text) {
                Ok(Value::Object(cells)) => cells,
                _ => Map::new(),
            };
            let cells = Map::new();
            Report {
                path,
                committed,
                cells,
            }
        }

        /// The committed report's `key` cell.
        pub fn committed(&self, key: &str) -> Option<&Value> {
            self.committed.get(key)
        }

        /// Record `cell` under `key` and print it as written.
        pub fn cell(&mut self, key: &str, cell: Value) {
            println!("{key}: {cell}\n");
            self.cells.insert(key.to_owned(), cell);
        }

        /// Write the recorded cells and, unchanged, every committed cell
        /// this run did not record (cells measured at earlier commits,
        /// the before half of a before/after pair).
        pub fn write(&self) {
            let mut report = self.committed.clone();
            report.extend(self.cells.clone());
            let text = serde_json::to_string_pretty(&Value::Object(report)).expect("serializes");
            std::fs::write(&self.path, text).expect("write the report");
            println!("wrote {}", self.path.display());
        }
    }

    /// The best-of-N regression guard on `what` (higher is better):
    /// `first` and [`GUARD_MEASUREMENTS`] − 1 calls of `remeasure`,
    /// failing below [`GUARD_FLOOR`] × `baseline`; without a baseline
    /// it only records.  Returns `false` on a failure.
    pub fn guard(
        what: &str,
        baseline: Option<f64>,
        first: f64,
        mut remeasure: impl FnMut() -> f64,
    ) -> bool {
        let Some(base) = baseline else {
            return gate(
                true,
                &format!("no committed baseline for {what}; recording only"),
            );
        };
        let measured = (1..GUARD_MEASUREMENTS).fold(first, |best, _| best.max(remeasure()));
        let floor = base * GUARD_FLOOR;
        let line = format!("{what}: {measured:.2} vs committed {base:.2} (floor {floor:.2})");
        gate(measured >= floor, &line)
    }

    /// Print `line` as a guard verdict, to stderr and marked failing
    /// unless `ok`.  Returns `ok`.
    pub fn gate(ok: bool, line: &str) -> bool {
        if ok {
            println!("guard: {line}");
        } else {
            eprintln!("guard: {line} — failing");
        }
        ok
    }
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
    fn report_carries_the_committed_cells_a_run_does_not_record() {
        let path =
            std::env::temp_dir().join(format!("gridflow-report-{}.json", std::process::id()));
        std::fs::write(&path, r#"{"kept": [1, {"commit": "abc"}], "measured": 1}"#).unwrap();
        let mut report = report::Report::open(&path);
        assert_eq!(report.committed("measured"), Some(&serde_json::json!(1)));
        report.cell("measured", serde_json::json!(2));
        report.cell("new", serde_json::json!("x"));
        report.write();
        let written: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let expected =
            serde_json::json!({"kept": [1, {"commit": "abc"}], "measured": 2, "new": "x"});
        assert_eq!(written, expected);
    }

    #[test]
    fn guard_keeps_the_best_of_n_and_fails_below_the_floor() {
        assert!(report::guard("x", Some(100.0), 70.0, || 85.0));
        assert!(!report::guard("x", Some(100.0), 70.0, || 75.0));
        assert!(report::guard("x", None, 1.0, || unreachable!(
            "no baseline, no re-measure"
        )));
        let mut calls = 0;
        report::guard("x", Some(1.0), 1.0, || {
            calls += 1;
            1.0
        });
        assert_eq!(calls, report::GUARD_MEASUREMENTS - 1);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0.0, 1.0, 4), "····");
        assert_eq!(bar(1.0, 1.0, 4), "████");
        assert_eq!(bar(0.5, 1.0, 4), "██··");
        assert_eq!(bar(2.0, 0.0, 3), "···");
    }
}
