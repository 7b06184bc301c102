//! The GridFlow benchmark.
//!
//! ```sh
//! benchmark/run.sh                       # every workload, seeds 7 and 31, then a traced pass
//! benchmark/run.sh --quick               # smoke run, under a minute, results marked quick
//! benchmark/run.sh --twice               # two passes, compared against the bounds
//! benchmark/run.sh --workload plan-cold --seed 11
//! benchmark/run.sh --workload fleet-wide --seed 7 --seconds 10 --trace 0   # one measurement
//! benchmark/run.sh compare a.json b.json
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and how the timings are calibrated.

mod calib;
mod compare;
mod fleet;
mod probes;
mod run;
mod scratch;
mod spans;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  gridflow-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
                         [--quick] [--samples <file>] [--spans <file>]
  gridflow-benchmark suite [--quick] [--twice] [--workload <name>] [--seed <n>]
                         [--seconds <s>] [--out <dir>]
  gridflow-benchmark compare <a.json> <b.json>
  gridflow-benchmark spec";

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for {name}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?
            .ok_or_else(|| format!("{name} is required"))
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let flags = Flags(rest.to_vec());
    match command.as_str() {
        "run" => run::run(&run::RunArgs {
            workload: flags.required("--workload")?,
            seed: flags.required("--seed")?,
            seconds: flags.required("--seconds")?,
            trace: match flags.required::<u8>("--trace")? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            quick: flags.flag("--quick"),
            samples: flags.value("--samples").map(PathBuf::from),
            spans: flags.value("--spans").map(PathBuf::from),
        }),
        "suite" => suite::main(&suite::SuiteArgs {
            quick: flags.flag("--quick"),
            twice: flags.flag("--twice"),
            workload: flags.value("--workload").map(str::to_owned),
            seed: flags.parsed("--seed")?,
            seconds: flags.parsed("--seconds")?,
            out: flags.value("--out").map(PathBuf::from),
        }),
        "compare" => match rest {
            [a, b] => compare::main(a, b),
            _ => Err(USAGE.into()),
        },
        "spec" => {
            spec::validate()?;
            let text =
                serde_json::to_string_pretty(&spec::benchmark_json()).map_err(|e| e.to_string())?;
            println!("{text}");
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Everything, scratch directories included, is dropped inside
    // `dispatch` before the exit code is chosen.
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
