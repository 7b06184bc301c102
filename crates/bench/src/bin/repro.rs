//! `repro` — regenerate the paper's tables, figures and studies.
//!
//! ```text
//! repro list                  the artefact ids, one a line
//! repro <id> [--out DIR]      print one artefact, or write DIR/<id>.txt
//! repro all [--out DIR]       every artefact, in the paper's order
//! ```
//!
//! `repro all --out tests/paper_golden` re-pins `tests/paper_golden.rs`.

use gridflow_bench::ARTEFACTS;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, out_dir) = match args.as_slice() {
        [what] => (what.as_str(), None),
        [what, flag, dir] if flag == "--out" => (what.as_str(), Some(Path::new(dir))),
        _ => return fail("usage: repro <id>|all|list [--out DIR]"),
    };
    if what == "list" {
        ARTEFACTS.iter().for_each(|(id, _)| println!("{id}"));
        return ExitCode::SUCCESS;
    }
    let selected: Vec<_> = ARTEFACTS
        .iter()
        .filter(|(id, _)| what == "all" || what == *id)
        .collect();
    if selected.is_empty() {
        return fail(&format!("unknown artefact `{what}`"));
    }
    for (id, regenerate) in selected {
        let text = regenerate();
        let Some(dir) = out_dir else {
            print!("{text}");
            continue;
        };
        let path = dir.join(format!("{id}.txt"));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Report `message` and the ids that would have worked.
fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}\nartefacts:");
    ARTEFACTS.iter().for_each(|(id, _)| eprintln!("  {id}"));
    ExitCode::FAILURE
}
