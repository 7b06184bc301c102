//! One measurement of one workload: the `run` subcommand, which is also
//! what `BENCHMARK.json`'s command runs.
//!
//! With `--trace 0` it sets the workload up several times, discards one
//! warm-up rep, measures reps for `--seconds`, checks the outputs and
//! reports every end-to-end metric.  With `--trace 1` it alternates
//! plain and instrumented reps, runs the attribution ladder and the
//! layer probes, and reports every per-layer metric.  Either way the
//! last line of standard output is the result as one JSON object.

use crate::calib::{self, bracketed, Sample};
use crate::probes::{self, Metrics};
use crate::scratch::Scratch;
use crate::spans::{Recorder, RunSpans};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, percentile, percentile_supported, percentile_u64};
use crate::workloads::{self, Bench, Finish, Rep, RepShape, Scale};
use gridflow_telemetry::{TraceLog, TraceQuery};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run: at least `MIN_SETUPS`, then more while they are so
/// short that `SETUP_BUDGET_S` is not used up; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 0.5;
/// Fewest timed reps, however short the window.
const MIN_REPS: usize = 3;
/// Fewest `plan-cold` plans, so that p90 has ten samples beyond it.
const MIN_UNIT_SAMPLES: usize = 100;
/// Stop measuring here whatever the rules above say: a run must end
/// within 180 s.
const HARD_STOP_S: f64 = 120.0;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Write the per-rep samples here.
    pub samples: Option<PathBuf>,
    /// Write the span trees of the traced run here.
    pub spans: Option<PathBuf>,
}

fn sample_json(sample: &Sample) -> Value {
    json!({
        "wall_s": sample.wall_s, "calib_pre_s": sample.calib_pre_s,
        "calib_post_s": sample.calib_post_s, "host_factor": sample.host_factor(),
        "norm_s": sample.norm_s(),
    })
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn check_rep(rep: &Rep, first: &RepShape) -> Result<(), String> {
    if rep.failed > 0 {
        return Err(format!("{} of {} units failed", rep.failed, rep.units));
    }
    if !rep.same_shape(first) {
        return Err("a rep differs from the first in ticks, records or makespans".into());
    }
    Ok(())
}

/// A workload that times its units one by one (`plan-cold`) measures at
/// least [`MIN_UNIT_SAMPLES`] of them, smoke runs excepted.
fn min_unit_samples(first: &RepShape, quick: bool) -> usize {
    if !first.per_unit || quick {
        0
    } else {
        MIN_UNIT_SAMPLES
    }
}

/// Units attempted and failed over the timed reps.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

/// One rep between two calibration passes, counted into `tally`.
fn timed_rep(
    bench: &mut dyn Bench,
    recorder: Option<&Arc<Recorder>>,
    tally: &mut Tally,
) -> (Sample, Rep) {
    bench.prepare_rep();
    let (sample, rep) = bracketed(|| {
        let rep = bench.rep(recorder);
        (rep.wall_s, rep)
    });
    tally.attempted += rep.units;
    tally.failed += rep.failed + rep.imperfect;
    (sample, rep)
}

/// p50 and p99 of `values` under two names.
fn insert_percentiles(out: &mut Metrics, p50: &'static str, p99: &'static str, values: &[f64]) {
    out.insert(p50, percentile(values, 50.0));
    out.insert(p99, percentile(values, 99.0));
}

/// The window rule shared by both modes.
fn keep_measuring(
    begin: Instant,
    seconds: f64,
    reps: usize,
    cycle: usize,
    units: usize,
    min_units: usize,
) -> bool {
    let elapsed = begin.elapsed().as_secs_f64();
    if elapsed >= HARD_STOP_S {
        return false;
    }
    elapsed < seconds || reps < MIN_REPS || !reps.is_multiple_of(cycle) || units < min_units
}

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("  {name:<34} {value:>16.6} {unit}");
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::unit_of(name).expect("every reported metric is in the spec");
            // `{:?}` prints an f64 with all the digits needed to read it back.
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn write_text(path: &Path, text: String) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Write `value` pretty-printed, creating the directory if need be.
pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    write_text(
        path,
        serde_json::to_string_pretty(value).map_err(|e| e.to_string())?,
    )
}

/// Run one measurement; `Ok(true)` when every output check passed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    if !spec::is_workload(&args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    let scratch = Scratch::in_checkout().map_err(|e| format!("benchmark/scratch: {e}"))?;
    let scale = if args.quick {
        Scale::QUICK
    } else {
        Scale::FULL
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick { "  quick" } else { "" }
    );
    if args.trace {
        run_traced(args, scale, &scratch)
    } else {
        run_end_to_end(args, scale, &scratch)
    }
}

// ------------------------------------------------------------ end to end

fn run_end_to_end(args: &RunArgs, scale: Scale, scratch: &Scratch) -> Result<bool, String> {
    let mut setups: Vec<Sample> = Vec::new();
    let mut bench: Option<(Box<dyn Bench>, String)> = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS
            && setups.iter().map(|s| s.wall_s).sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(bench.take());
        let (sample, built) = bracketed(|| {
            let start = Instant::now();
            let built = workloads::build(&args.workload, args.seed, scale, scratch).map(|bench| {
                let inputs = bench.input_fingerprint();
                (bench, inputs)
            });
            (start.elapsed().as_secs_f64(), built)
        });
        bench = Some(built?);
        setups.push(sample);
    }
    let (mut bench, inputs) = bench.expect("MIN_SETUPS is positive");
    println!("inputs {inputs}  ({} set-ups)", setups.len());

    // The warm-up rep: discarded from the timings, kept as the
    // reference every later rep is compared with.
    bench.prepare_rep();
    let first = bench.rep(None);
    let (first, first_failed) = (first.shape(), first.failed);
    let mut failure =
        (first_failed > 0).then(|| format!("{first_failed} units failed in the warm-up rep"));

    let cycle = bench.reps_per_cycle();
    let mut samples: Vec<Sample> = Vec::new();
    let mut unit_norm_ms: Vec<f64> = Vec::new();
    let mut last: Option<Rep> = None;
    let mut tally = Tally::default();
    let begin = Instant::now();
    let min_units = min_unit_samples(&first, args.quick);
    while keep_measuring(
        begin,
        args.seconds,
        samples.len(),
        cycle,
        unit_norm_ms.len(),
        min_units,
    ) {
        // One rep's logs in memory at a time.
        drop(last.take());
        let (sample, rep) = timed_rep(bench.as_mut(), None, &mut tally);
        if failure.is_none() {
            failure = check_rep(&rep, &first).err();
        }
        let factor = sample.host_factor();
        unit_norm_ms.extend(rep.unit_wall_s.iter().map(|s| s / factor * 1e3));
        samples.push(sample);
        last = Some(rep);
    }
    let last = last.expect("MIN_REPS is positive");
    let Tally { attempted, failed } = tally;

    // Read before the output checks: they build a JSONL string per rep,
    // which is the benchmark's memory, not the program's.
    let peak_rss = peak_rss_mb()?;
    let timed_trace = last.trace_hash();
    let units_per_rep = last.units;
    drop(last);
    // One more rep, untimed: its outputs are checked in full, and its
    // trace bytes must equal the last timed rep's.
    bench.prepare_rep();
    let last = bench.rep(None);
    if failure.is_none() {
        failure = check_rep(&last, &first).err();
    }
    let finish = match bench.finish(&timed_trace, &last) {
        Ok(finish) => Some(finish),
        Err(e) => {
            failure.get_or_insert(e);
            None
        }
    };

    let norm: Vec<f64> = samples.iter().map(Sample::norm_s).collect();
    let raw: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let factors: Vec<f64> = samples.iter().map(Sample::host_factor).collect();
    let rep_s = median(&norm);
    let per_unit = !unit_norm_ms.is_empty();
    let latency_ms = if per_unit {
        median(&unit_norm_ms)
    } else {
        rep_s * 1e3
    };
    let setup_norm: Vec<f64> = setups.iter().map(Sample::norm_s).collect();
    let (output_bytes, output_units) = finish
        .as_ref()
        .map_or((0, 1), |f| (f.output_bytes, f.output_units.max(1)));

    let metrics: Vec<(&str, f64)> = vec![
        ("throughput_per_s", units_per_rep as f64 / rep_s),
        ("latency_ms_p50", latency_ms),
        (
            "success_share",
            1.0 - failed as f64 / attempted.max(1) as f64,
        ),
        ("peak_rss_mb", peak_rss),
        (
            "output_bytes_per_unit",
            output_bytes as f64 / output_units as f64,
        ),
        ("setup_s", median(&setup_norm)),
    ];
    debug_assert_eq!(metrics.len(), END_TO_END.len());

    println!(
        "reps {}  raw wall median {:.4} s  iqr {:.1} %  normalised median {:.4} s  iqr {:.1} %  host_factor median {:.3}",
        samples.len(),
        median(&raw),
        iqr_share(&raw) * 100.0,
        rep_s,
        iqr_share(&norm) * 100.0,
        median(&factors),
    );
    println!(
        "end-to-end metrics (timings normalised to a {} ms calibration kernel)",
        calib::REFERENCE_S * 1e3
    );
    for (name, value) in &metrics {
        print_metric(name, *value, spec::unit_of(name).unwrap_or(""));
    }
    println!("detail");
    print_metric(
        "setup_raw_s",
        median(&setups.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
        "s",
    );
    print_metric(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
    );
    if per_unit {
        print_metric("plans_per_s", last.units as f64 / rep_s, "1/s");
        print_metric("plan_ms_p50", latency_ms, "ms");
        if percentile_supported(unit_norm_ms.len(), 90.0) {
            print_metric("plan_ms_p90", percentile(&unit_norm_ms, 90.0), "ms");
        }
        print_metric("plan_samples", unit_norm_ms.len() as f64, "count");
    } else {
        print_metric("cases_per_s", last.units as f64 / rep_s, "1/s");
        print_metric("ticks", last.ticks as f64, "ticks");
        print_metric(
            "makespan_ticks_p50",
            percentile_u64(&last.makespans, 50.0) as f64,
            "ticks",
        );
        print_metric(
            "makespan_ticks_p99",
            percentile_u64(&last.makespans, 99.0) as f64,
            "ticks",
        );
        print_metric("blocked_ticks", last.blocked_ticks as f64, "ticks");
        print_metric("trace_records", last.records as f64, "count");
    }
    if let Some(Finish {
        output_fingerprint,
        details,
        ..
    }) = &finish
    {
        for (name, value, unit) in details {
            print_metric(name, *value, unit);
        }
        println!("outputs {output_fingerprint}");
    }

    if let Some(path) = &args.samples {
        write_json(
            path,
            &json!({
                "workload": args.workload, "seed": args.seed, "quick": args.quick,
                "reference_calibration_s": calib::REFERENCE_S,
                "setups": setups.iter().map(sample_json).collect::<Vec<_>>(),
                "reps": samples.iter().map(sample_json).collect::<Vec<_>>(),
                "unit_norm_ms": unit_norm_ms,
            }),
        )?;
    }
    if let Some(reason) = &failure {
        eprintln!("output check failed: {reason}");
    }
    println!(
        "{}",
        result_line(failure.is_none(), attempted, failed, &metrics)
    );
    Ok(failure.is_none())
}

// ---------------------------------------------------------------- traced

/// Counts read off the traces of one rep.
fn trace_counts(rep: &Rep, out: &mut Metrics) {
    let records = rep.logs.iter().flat_map(TraceLog::records).collect();
    let query = TraceQuery::new(records);
    let count = |label: &str| query.count(|e| e.label() == label) as f64;
    out.insert("recovery.retries", count("retry.scheduled"));
    out.insert("recovery.lease_expiries", count("lease.expired"));
    out.insert("recovery.breaker_opens", count("breaker.opened"));
    out.insert("recovery.replans", count("replan.triggered"));
    out.insert("services.plan_cache_hits", count("plan.cache_hit"));
    out.insert("services.plan_cache_misses", count("plan.cache_miss"));
    out.insert("services.plan_coalesced", count("plan.coalesced"));
}

fn run_traced(args: &RunArgs, scale: Scale, scratch: &Scratch) -> Result<bool, String> {
    let mut bench = workloads::build(&args.workload, args.seed, scale, scratch)?;
    println!("inputs {}", bench.input_fingerprint());
    let recorder = Recorder::new();
    let mut out = Metrics::new();

    // The instrumented path must be the program the end-to-end numbers
    // measured: same trace bytes as the plain path.
    bench.prepare_rep();
    let first_plain = bench.rep(None);
    let (first, first_failed, first_trace) = (
        first_plain.shape(),
        first_plain.failed,
        first_plain.trace_hash(),
    );
    drop(first_plain);
    let mut failure =
        (first_failed > 0).then(|| format!("{first_failed} units failed in the warm-up rep"));
    bench.prepare_rep();
    let first_traced = bench.rep(Some(&recorder));
    if failure.is_none() {
        failure = check_rep(&first_traced, &first).err();
    }
    if failure.is_none() && first_traced.trace_hash() != first_trace {
        failure = Some("the instrumented path and the harness path emit different traces".into());
    }
    drop(first_traced);

    let cycle = bench.reps_per_cycle();
    let per_unit = first.per_unit;
    let (mut plain, mut traced): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let mut unit_norm_ms = Vec::new();
    let mut tick_us = Vec::new();
    let (mut emit_s, mut emit_calls, mut self_s) = (Vec::new(), 0u64, Vec::new());
    let mut last: Option<Rep> = None;
    let mut tally = Tally::default();
    let begin = Instant::now();
    let min_units = min_unit_samples(&first, args.quick);
    while keep_measuring(
        begin,
        args.seconds,
        traced.len(),
        cycle,
        unit_norm_ms.len(),
        min_units,
    ) {
        let (sample, rep) = timed_rep(bench.as_mut(), None, &mut tally);
        plain.push(sample);
        drop(rep);

        let (sample, rep) = timed_rep(bench.as_mut(), Some(&recorder), &mut tally);
        if failure.is_none() {
            failure = check_rep(&rep, &first).err();
        }
        let factor = sample.host_factor();
        unit_norm_ms.extend(rep.unit_wall_s.iter().map(|s| s / factor * 1e3));
        if !per_unit {
            // Span times are normalised by their rep's host factor too.
            tick_us.extend(
                rep.spans
                    .iter()
                    .flat_map(|run| run.ticks.iter())
                    .map(|t| t.duration_ns() as f64 / 1e3 / factor),
            );
            emit_s.push(rep.spans.iter().map(RunSpans::emit_s).sum::<f64>() / factor);
            emit_calls += rep.spans.iter().map(RunSpans::emit_calls).sum::<u64>();
            self_s.push(rep.spans.iter().map(RunSpans::self_s).sum::<f64>() / factor);
        }
        traced.push(sample);
        last = Some(rep);
    }
    let last = last.expect("MIN_REPS is positive");
    let Tally { attempted, failed } = tally;

    let traced_norm: Vec<f64> = traced.iter().map(Sample::norm_s).collect();
    let plain_norm: Vec<f64> = plain.iter().map(Sample::norm_s).collect();
    out.insert(
        "bench.host_factor",
        median(&traced.iter().map(Sample::host_factor).collect::<Vec<_>>()),
    );
    out.insert(
        "bench.raw_wall_s",
        median(&traced.iter().map(|s| s.wall_s).collect::<Vec<_>>()),
    );
    out.insert("bench.rep_iqr_share", iqr_share(&traced_norm));
    out.insert(
        "bench.trace_overhead_share",
        median(&traced_norm) / median(&plain_norm) - 1.0,
    );

    if per_unit {
        out.insert("planner.plan_ms_p50", median(&unit_norm_ms));
        if percentile_supported(unit_norm_ms.len(), 90.0) {
            out.insert("planner.plan_ms_p90", percentile(&unit_norm_ms, 90.0));
        }
    } else {
        out.insert("engine.self_s", median(&self_s));
        out.insert("engine.ticks", last.ticks as f64);
        out.insert("engine.blocked_ticks", last.blocked_ticks as f64);
        insert_percentiles(
            &mut out,
            "engine.tick_us_p50",
            "engine.tick_us_p99",
            &tick_us,
        );
        let makespans: Vec<f64> = last.makespans.iter().map(|t| *t as f64).collect();
        insert_percentiles(
            &mut out,
            "engine.makespan_ticks_p50",
            "engine.makespan_ticks_p99",
            &makespans,
        );
        out.insert("telemetry.records", last.records as f64);
        out.insert(
            "telemetry.records_per_case",
            last.records as f64 / last.units.max(1) as f64,
        );
        out.insert("telemetry.emit_busy_s", median(&emit_s));
        out.insert(
            "telemetry.emit_ns",
            emit_s.iter().sum::<f64>() / emit_calls.max(1) as f64 * 1e9,
        );
        trace_counts(&last, &mut out);
    }

    let ladder_cases = scale.cases(probes::LADDER_CASES);
    let ladder_spans = probes::ladder(args.seed, ladder_cases, scratch, &mut out)?;
    probes::fixed_probes(args.seed, scale.cases(128), &mut out);
    {
        let (workload, plan) = bench.probe_inputs();
        probes::workload_probes(workload, plan, &|| bench.rebuild_probe_workload(), &mut out);
    }
    for (lo, hi) in [
        ("engine.run_untraced_s", "engine.run_traced_s"),
        ("engine.run_traced_s", "engine.run_memstore_s"),
    ] {
        if out[lo] > out[hi] {
            eprintln!(
                "note: {lo} ({:.4}) exceeds {hi} ({:.4}) in this run",
                out[lo], out[hi]
            );
        }
    }

    if let Err(e) = bench.finish(&first_trace, &last) {
        failure.get_or_insert(e);
    }

    println!(
        "reps {} plain + {} instrumented; a metric that reads 0 was not exercised by this workload",
        plain.len(),
        traced.len()
    );
    println!("per-layer metrics");
    let metrics: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|m| (m.name, out.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    for (name, value) in &metrics {
        print_metric(name, *value, spec::unit_of(name).unwrap_or(""));
    }

    if let Some(path) = &args.spans {
        // Thousands of tick objects: one line, not one line per field.
        let spans = json!({
                "workload": args.workload, "seed": args.seed, "quick": args.quick,
                "unit": "ns since the recorder was created",
                "last_instrumented_rep": last.spans.iter().map(RunSpans::to_json).collect::<Vec<_>>(),
                "ladder_filestore_run": ladder_spans.to_json(),
        });
        write_text(path, spans.to_string())?;
    }
    if let Some(path) = &args.samples {
        write_json(
            path,
            &json!({
                "workload": args.workload, "seed": args.seed, "quick": args.quick,
                "reference_calibration_s": calib::REFERENCE_S,
                "plain_reps": plain.iter().map(sample_json).collect::<Vec<_>>(),
                "instrumented_reps": traced.iter().map(sample_json).collect::<Vec<_>>(),
            }),
        )?;
    }
    if let Some(reason) = &failure {
        eprintln!("output check failed: {reason}");
    }
    println!(
        "{}",
        result_line(failure.is_none(), attempted, failed, &metrics)
    );
    Ok(failure.is_none())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys_and_full_digits() {
        let line = result_line(
            true,
            2048,
            0,
            &[("setup_s", 0.1 + 0.2), ("success_share", 1.0)],
        );
        let parsed: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&String> = parsed.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed["correct"], true);
        assert_eq!(parsed["attempted"].as_u64(), Some(2048));
        assert_eq!(
            parsed["metrics"]["setup_s"]["value"].as_f64(),
            Some(0.1 + 0.2)
        );
        assert_eq!(parsed["metrics"]["setup_s"]["unit"], "s");
        assert!(line.contains("0.30000000000000004"));
        assert!(line.contains("\"value\": 1.0"));
    }

    #[test]
    fn the_window_runs_whole_cycles_and_enough_samples() {
        let begin = Instant::now();
        // Window over (seconds = 0): stop only on a cycle boundary with
        // the minimum reps and, for per-unit workloads, 100 samples.
        assert!(keep_measuring(begin, 0.0, 2, 1, 0, 0));
        assert!(!keep_measuring(begin, 0.0, 3, 1, 0, 0));
        assert!(keep_measuring(begin, 0.0, 6, 4, 60, 0));
        assert!(keep_measuring(begin, 0.0, 8, 4, 80, 100));
        assert!(!keep_measuring(begin, 0.0, 12, 4, 120, 100));
        assert!(keep_measuring(begin, 60.0, 12, 4, 120, 100));
    }
}
