//! `compare <a.json> <b.json>`: two result files of the suite, metric by
//! metric.
//!
//! For every (end-to-end metric, workload, seed) present in both files
//! it prints both values, the difference as a share of `a` (the base),
//! and the metric's bound; it fails when any pair differs by more than
//! its bound in either direction, which is how `run.sh --twice` checks
//! that two runs of the same code agree.

use crate::spec::{self, Better};
use serde_json::Value;

/// One compared pair.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub seed: u64,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b - a) / a`.
    pub diff: f64,
    pub bound: f64,
    /// Did `b` move in the direction the metric calls worse?
    pub worse: bool,
    pub within: bool,
}

fn runs(file: &Value) -> Result<&Vec<Value>, String> {
    if file["quick"].as_bool() != Some(false) {
        return Err("a result file of a --quick run (or not a result file) is not compared".into());
    }
    file["runs"]
        .as_array()
        .ok_or_else(|| "no `runs` array".to_owned())
}

fn key(run: &Value) -> Option<(&str, u64)> {
    Some((run["workload"].as_str()?, run["seed"].as_u64()?))
}

/// Compare two parsed result files.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    let mut rows = Vec::new();
    for run_a in runs_a {
        let Some((workload, seed)) = key(run_a) else {
            return Err("a run without `workload` and `seed`".into());
        };
        let Some(run_b) = runs_b.iter().find(|r| key(r) == Some((workload, seed))) else {
            continue;
        };
        for metric in &spec::END_TO_END {
            let value = |run: &Value| run["metrics"][metric.name]["value"].as_f64();
            let (Some(va), Some(vb)) = (value(run_a), value(run_b)) else {
                return Err(format!(
                    "`{}` missing on {workload} seed {seed}",
                    metric.name
                ));
            };
            let diff = if va == 0.0 { 0.0 } else { (vb - va) / va };
            rows.push(Row {
                workload: workload.to_owned(),
                seed,
                metric: metric.name,
                a: va,
                b: vb,
                diff,
                bound: metric.bound,
                worse: match metric.better {
                    Better::Higher => vb < va,
                    Better::Lower => vb > va,
                },
                within: diff.abs() <= metric.bound,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no (workload, seed) pair".into());
    }
    Ok(rows)
}

/// Print the rows; `true` when every pair is within its bound.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:>4}  {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "seed", "metric", "a (base)", "b", "b vs a", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:>4}  {:<22} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
            r.workload,
            r.seed,
            r.metric,
            r.a,
            r.b,
            r.diff * 100.0,
            r.bound * 100.0,
            match (r.within, r.worse) {
                (true, _) => "ok",
                (false, true) => "WORSE",
                (false, false) => "DIFFERS",
            }
        );
    }
    let outside = rows.iter().filter(|r| !r.within).count();
    println!(
        "{} pairs compared, {outside} outside their bound",
        rows.len()
    );
    outside == 0
}

/// The `compare` subcommand.
pub fn main(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&load(a_path)?, &load(b_path)?)?;
    Ok(report(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn file(quick: bool, throughput: f64, rss: f64) -> Value {
        let metric = |value: f64, unit: &str| json!({"value": value, "unit": unit});
        json!({
            "quick": quick,
            "runs": [{
                "workload": "fleet-wide", "seed": 7,
                "metrics": {
                    "throughput_per_s": metric(throughput, "1/s"),
                    "latency_ms_p50": metric(2048.0 / throughput * 1e3, "ms"),
                    "success_share": metric(1.0, "share"),
                    "peak_rss_mb": metric(rss, "MB"),
                    "output_bytes_per_unit": metric(9000.0, "bytes"),
                    "setup_s": metric(0.5, "s"),
                },
            }],
        })
    }

    #[test]
    fn pairs_within_their_bounds_pass() {
        let rows = compare(&file(false, 7000.0, 100.0), &file(false, 6650.0, 104.0)).unwrap();
        assert_eq!(rows.len(), spec::END_TO_END.len());
        assert!(rows.iter().all(|r| r.within));
        let throughput = rows
            .iter()
            .find(|r| r.metric == "throughput_per_s")
            .unwrap();
        assert!((throughput.diff + 0.05).abs() < 1e-12 && throughput.worse);
        assert!(report(&rows));
    }

    #[test]
    fn a_pair_outside_its_bound_fails_in_either_direction() {
        for (b_throughput, worse) in [(5000.0, true), (9000.0, false)] {
            let rows = compare(
                &file(false, 7000.0, 100.0),
                &file(false, b_throughput, 100.0),
            )
            .unwrap();
            let row = rows
                .iter()
                .find(|r| r.metric == "throughput_per_s")
                .unwrap();
            assert!(!row.within);
            assert_eq!(row.worse, worse);
            assert!(!report(&rows));
        }
        let rows = compare(&file(false, 7000.0, 100.0), &file(false, 7000.0, 116.0)).unwrap();
        let rss = rows.iter().find(|r| r.metric == "peak_rss_mb").unwrap();
        assert!(!rss.within && rss.worse);
    }

    #[test]
    fn quick_files_and_disjoint_files_are_refused() {
        assert!(compare(&file(true, 1.0, 1.0), &file(false, 1.0, 1.0)).is_err());
        assert!(compare(&file(false, 1.0, 1.0), &file(true, 1.0, 1.0)).is_err());
        let mut other = file(false, 1.0, 1.0);
        other["runs"][0]["seed"] = json!(8);
        assert!(compare(&file(false, 1.0, 1.0), &other).is_err());
        assert!(compare(&json!({}), &file(false, 1.0, 1.0)).is_err());
    }
}
