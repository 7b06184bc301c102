//! The `suite` subcommand: every workload, each in a child process of
//! its own (so that `peak_rss_mb` is per workload), tracing off; then
//! one traced run per workload for the per-layer numbers.

use crate::compare;
use crate::run::write_json;
use crate::spec::{RUN_SECONDS, WORKLOADS};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The default seeds: 7, used while the benchmark was written, and 31,
/// which was not.
pub const DEFAULT_SEEDS: [u64; 2] = [7, 31];

pub struct SuiteArgs {
    pub quick: bool,
    pub twice: bool,
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    /// Directory for the result files and span dumps.
    pub out: Option<PathBuf>,
}

impl SuiteArgs {
    fn workloads(&self) -> Vec<&str> {
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|name| self.workload.as_deref().is_none_or(|only| only == *name))
            .collect()
    }

    fn seeds(&self) -> Vec<u64> {
        match (self.seed, self.quick) {
            (Some(seed), _) => vec![seed],
            (None, true) => vec![DEFAULT_SEEDS[0]],
            (None, false) => DEFAULT_SEEDS.to_vec(),
        }
    }

    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 0.5 } else { RUN_SECONDS as f64 })
    }
}

/// Run one child measurement and return its result object with the
/// per-rep samples folded in.
fn child(
    args: &SuiteArgs,
    workload: &str,
    seed: u64,
    trace: bool,
    scratch: &Path,
    spans: Option<&Path>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let samples = scratch.join(format!(
        "samples-{workload}-{seed}-{}.json",
        u8::from(trace)
    ));
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--samples")
        .arg(&samples);
    if args.quick {
        command.arg("--quick");
    }
    if let Some(path) = spans {
        command.arg("--spans").arg(path);
    }
    // The child's report goes to our stdout as it is produced; its last
    // line is parsed from the captured copy.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let mut result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() || result["correct"].as_bool() != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: run failed ({})",
            output.status
        ));
    }
    let samples_text =
        std::fs::read_to_string(&samples).map_err(|e| format!("{}: {e}", samples.display()))?;
    let _ = std::fs::remove_file(&samples);
    result["workload"] = json!(workload);
    result["seed"] = json!(seed);
    result["samples"] = serde_json::from_str(&samples_text).map_err(|e| e.to_string())?;
    Ok(result)
}

fn result_file(args: &SuiteArgs, runs: Vec<Value>) -> Value {
    json!({
        "benchmark": "gridflow-benchmark",
        "quick": args.quick,
        "seconds": args.seconds(),
        "cpus": std::thread::available_parallelism().map_or(1, usize::from),
        "runs": runs,
    })
}

/// Every selected (workload, seed) with tracing off.
fn end_to_end_pass(args: &SuiteArgs, scratch: &Path) -> Result<Value, String> {
    let mut runs = Vec::new();
    for workload in args.workloads() {
        for seed in args.seeds() {
            runs.push(child(args, workload, seed, false, scratch, None)?);
            println!();
        }
    }
    Ok(result_file(args, runs))
}

/// The `suite` subcommand; `Ok(false)` when `--twice` found a
/// disagreement.
pub fn main(args: &SuiteArgs) -> Result<bool, String> {
    if args.workloads().is_empty() {
        return Err(format!(
            "unknown workload `{}`",
            args.workload.as_deref().unwrap_or("")
        ));
    }
    // Children write their sample files here; each child has its own
    // pid-keyed store directory beside it.
    let scratch =
        crate::scratch::Scratch::in_checkout().map_err(|e| format!("benchmark/scratch: {e}"))?;
    let scratch_dir = scratch.subdir("suite");
    std::fs::create_dir_all(&scratch_dir).map_err(|e| e.to_string())?;

    let first = end_to_end_pass(args, &scratch_dir)?;
    if let Some(dir) = &args.out {
        write_json(&dir.join("end_to_end.json"), &first)?;
    }
    let mut agree = true;
    if args.twice {
        println!("---- second pass ----");
        let second = end_to_end_pass(args, &scratch_dir)?;
        if let Some(dir) = &args.out {
            write_json(&dir.join("end_to_end_second.json"), &second)?;
        }
        if args.quick {
            println!("--quick results are not compared");
        } else {
            agree = compare::report(&compare::compare(&first, &second)?);
        }
    }

    println!("---- traced pass ----");
    // Smoke runs trace one workload; a full run traces them all.
    let traced_workloads: Vec<&str> = if args.quick && args.workload.is_none() {
        vec![WORKLOADS[0].name]
    } else {
        args.workloads()
    };
    let seed = args.seeds()[0];
    let mut traced = Vec::new();
    for workload in traced_workloads {
        let spans = args
            .out
            .as_ref()
            .map(|dir| dir.join(format!("spans-{workload}.json")));
        traced.push(child(
            args,
            workload,
            seed,
            true,
            &scratch_dir,
            spans.as_deref(),
        )?);
        println!();
    }
    if let Some(dir) = &args.out {
        write_json(&dir.join("per_layer.json"), &result_file(args, traced))?;
        println!("results written to {}", dir.display());
    }
    Ok(agree)
}
