//! Cross-commit anchor for the paper's reproduced tables and figures.
//!
//! `trace_golden` pins what the engine writes; this pins what the paper
//! shows: Tables 1–2, Figs. 1–13 and the A1–A8 / supplementary studies,
//! one row each, as the *text itself* under `tests/paper_golden/<id>.txt`
//! (0.7–7.8 KB each, ≈45 KB in all), so a re-pin shows its own diff in
//! the PR.  A change that claims "same artefacts" must leave the
//! directory alone; a change that moves one on purpose overwrites the
//! file with the new stdout and quotes the `git diff` in CHANGES.md.
//!
//! Each row spawns the artefact's binary at its documented seeds and
//! compares stdout byte for byte.  All 22 are deterministic, Figs. 1–3
//! (the threaded agent stack) included, except `scaling_activities`,
//! whose `time (8 runs)` wall-clock column is cut on both sides first.

use std::path::PathBuf;
use std::process::Command;

fn pinned(id: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/paper_golden")
        .join(format!("{id}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn stdout_of(exe: &str) -> String {
    let output = Command::new(exe).output().expect("artefact binary runs");
    assert!(
        output.status.success(),
        "{exe} exited with {}",
        output.status
    );
    String::from_utf8(output.stdout).expect("artefacts print UTF-8")
}

/// Fail with the first differing line (trailing newlines count).
fn assert_same_text(id: &str, pinned: &str, actual: &str) {
    let (mut want, mut got) = (pinned.split('\n'), actual.split('\n'));
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => return,
            (w, g) if w == g => {}
            (w, g) => panic!(
                "{id}: line {line} differs from tests/paper_golden/{id}.txt\n  pinned: {}\n  actual: {}",
                w.unwrap_or("<end of text>"),
                g.unwrap_or("<end of text>")
            ),
        }
    }
}

/// Cut the table column headed `time (8 runs)` (the header is ASCII, so
/// its byte offset is the column's character offset on every row).
fn without_time_column(text: &str) -> String {
    let mut cut = None;
    let lines: Vec<String> = text
        .split('\n')
        .map(|line| {
            if let Some(at) = line.find("time (8 runs)") {
                cut = Some(at);
            } else if line.is_empty() {
                cut = None;
            }
            match cut {
                Some(at) => line.chars().take(at).collect(),
                None => line.to_owned(),
            }
        })
        .collect();
    lines.join("\n")
}

macro_rules! artefacts {
    ($($id:ident)*) => {$(
        #[test]
        fn $id() {
            let id = stringify!($id);
            let (mut want, mut got) =
                (pinned(id), stdout_of(env!(concat!("CARGO_BIN_EXE_", stringify!($id)))));
            if id == "scaling_activities" {
                (want, got) = (without_time_column(&want), without_time_column(&got));
            }
            assert_same_text(id, &want, &got);
        }
    )*};
}

artefacts! {
    table1 table2
    fig1_architecture fig2_planning_flow fig3_replanning_flow fig4to7_conversions
    fig8_crossover fig9_mutation fig10_process_description fig11_plan_tree
    fig12_ontology_structure fig13_ontology_instances
    ablation_smax ablation_population ablation_operators ablation_weights
    scaling_activities ablation_selection replanning_robustness
    convergence migration_costs scalability_study
}

#[test]
fn the_column_cut_removes_the_clock_and_nothing_else() {
    let text = "head\n\n|T|  size  time (8 runs)  \n---  ----  -------------  \n4    █·    0.05s          \n\ntail time\n";
    assert_eq!(
        without_time_column(text),
        "head\n\n|T|  size  \n---  ----  \n4    █·    \n\ntail time\n"
    );
}
