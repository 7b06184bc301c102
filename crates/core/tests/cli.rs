//! The `gridflow` command line, driven as a process.

use gridflow::casestudy;
use gridflow_process::{printer, recover::recover};
use std::io::Write as _;
use std::process::{Command, Stdio};

/// Run `gridflow <args>` with `stdin` piped in; what it prints.
fn gridflow(args: &[&str], stdin: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gridflow"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("gridflow starts");
    let mut pipe = child.stdin.take().expect("stdin is piped");
    pipe.write_all(stdin.as_bytes())
        .expect("gridflow reads stdin");
    drop(pipe);
    let out = child.wait_with_output().expect("gridflow exits");
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

/// `gridflow tree` on Fig. 10's structured text lists Fig. 11, the loop
/// guard in brackets.
#[test]
fn tree_lists_the_figure_10_workflow() {
    let pdl = printer::print(&recover(&casestudy::process_description()).unwrap());
    assert_eq!(
        gridflow(&["tree", "-"], &pdl),
        "Sequential
  POD
  P3DR
  Iterative [D12.Classification = \"Resolution File\" and D12.Value > 8.0]
    POR
    Concurrent
      P3DR
      P3DR
      P3DR
    PSF

size 10 / depth 4
"
    );
}

/// A selective node lists each branch under its bracketed guard.
#[test]
fn tree_lists_each_choice_branch_under_its_guard() {
    let pdl = "BEGIN CHOICE { COND { D.Classification = \"ready\" } { A; }, COND { true } { B; C; } } MERGE; END";
    assert_eq!(
        gridflow(&["tree", "-"], pdl),
        "Sequential
  Selective
    [D.Classification = \"ready\"]
      A
    [true]
      Sequential
        B
        C

size 6 / depth 4
"
    );
}
