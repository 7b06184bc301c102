//! **Engine throughput — concurrent multi-case enactment.**
//!
//! Drive fleets of N ∈ {1, 8, 64, 512, 2048, 100000} dinner cases
//! through the `gridflow-engine` scheduler over one shared world and
//! report cases/sec (wall clock) plus the
//! p50/p99 virtual-tick makespan per case and the fleet's total
//! blocked ticks.  The 100k tier is sized out of CI via
//! `--max-cases 2048`.  Results land in `BENCH_enactment.json` in the
//! working directory.
//!
//! A second sweep drives the **workload × policy matrix**: the dinner
//! fixture, two generated taxonomy shapes (wide fan-out, choice-dense),
//! and the paper's virus-reconstruction case study, each under every
//! admission policy (FIFO, priority, fair-share, EDF).  Matrix cells
//! land in the same report under `"matrix"`; the legacy `"results"`
//! array keeps its schema (and the N=512/FIFO guard cell) untouched.
//!
//! A third sweep quantifies **durable-store overhead**: the N=512 fleet
//! traced only, journalled into a `MemStore` and into a `FileStore`
//! (snapshot cadence 32), as cases/sec under `"store"`; `"recover"` times
//! reopening, decoding and recovering that fleet killed near its end.
//! `"dispatch"` times the `fleet-wide` and `replan-churn` fleets of
//! `benchmark/`, where one dispatch ranks and probes many hosts, and
//! `"emit"` its traced `fleet-contended` fleet, where most records are
//! blocked re-steps, as cases/sec and trace records/sec.
//!
//! ```sh
//! cargo run --release --bin enactment_throughput
//! cargo run --release --bin enactment_throughput -- --max-cases 64   # CI smoke
//! cargo run --release --bin enactment_throughput -- --guard          # + regression gate
//! cargo run --release --bin enactment_throughput -- --matrix-cases 8 # shrink the matrix
//! ```
//!
//! `--guard` reads the committed `BENCH_enactment.json` *before*
//! overwriting it and exits non-zero if the headline point (N=512,
//! best of three measurements) regressed more than 20% in cases/sec
//! against it, or if this run's own `file ÷ trace-only` store ratio
//! fell below half the committed ratio — a same-run ratio, so the
//! machine the baseline came from cancels out.

use gridflow_bench::{banner, render_table};
use gridflow_engine::{
    CaseHints, CaseScheduler, CaseSpec, EngineConfig, EngineOutcome, EngineSnapshot, PolicySpec,
};
use gridflow_harness::workload::{
    cook_loss_churn_plan_scaled, dinner_replan_workload_scaled, dinner_workload,
    dinner_workload_scaled, virus_reconstruction_workload, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario, RecoveryPolicy};
use gridflow_services::PlanCacheHandle;
use gridflow_store::{FileStore, MemStore, Store};
use serde_json::json;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const FLEET_SIZES: [usize; 6] = [1, 8, 64, 512, 2048, 100_000];
/// The regression gate's reference point and tolerance.
const GUARD_CASES: u64 = 512;
const GUARD_FLOOR: f64 = 0.8;
/// Guard comparisons use the best of this many measurements of the
/// guard cell — shared CI runners jitter wall-clock throughput far
/// more than any real regression, and best-of-N strips the downward
/// noise without hiding a genuine slowdown.
const GUARD_MEASUREMENTS: usize = 3;
/// The store gate: this run's `file ÷ trace-only` cases/sec ratio may
/// not fall below this share of the committed report's ratio.
const GUARD_STORE_RATIO_FLOOR: f64 = 0.5;
/// Default fleet size per workload × policy matrix cell.
const MATRIX_CASES: usize = 32;
/// Fleet size and snapshot cadence for the durable-store overhead sweep.
const STORE_CASES: usize = 512;
const STORE_SNAPSHOT_EVERY: u64 = 32;
/// The recovery cell's kill point, in ticks before the end, and reps.
const RECOVER_KILL_BEFORE_END: u64 = 9;
const RECOVER_REPS: usize = 11;
const DISPATCH_REPS: usize = 7;
/// The emission cell: `benchmark/`'s `fleet-contended` fleet, and reps.
const EMIT_CASES: usize = 2048;
const EMIT_REPS: usize = 7;

/// Staggered hints so every non-FIFO policy visibly reorders the
/// fleet: alternating tenants, three priority classes, deadlines
/// running against submission order.
fn matrix_hints(i: usize) -> CaseHints {
    CaseHints {
        priority: (i % 3) as i64,
        tenant: Some(if i.is_multiple_of(2) {
            "a".into()
        } else {
            "b".into()
        }),
        deadline_tick: Some(1_000 - (i as u64 % 100) * 10),
    }
}

/// The matrix's workload axis.
fn matrix_workloads() -> Vec<(&'static str, Workload)> {
    vec![
        ("dinner", dinner_workload()),
        (
            "generated-wide",
            WorkloadGen::new(7)
                .shape(GraphShape::FanOutJoin)
                .width(3)
                .depth(2)
                .build(),
        ),
        (
            "generated-choice",
            WorkloadGen::new(7)
                .shape(GraphShape::ChoiceDense)
                .width(3)
                .depth(2)
                .build(),
        ),
        ("virus", virus_reconstruction_workload()),
    ]
}

/// One measurement of a headline-sweep cell: `fleet` dinner cases
/// through a raw `CaseScheduler`, returning the outcome and wall time.
fn measure_cell(wl: &Workload, plan: &FaultPlan, fleet: usize) -> (EngineOutcome, Duration) {
    let mut scheduler = CaseScheduler::new(EngineConfig {
        max_in_flight: 64,
        ..EngineConfig::default()
    });
    let case = Arc::new(wl.case.clone());
    for i in 0..fleet {
        scheduler.submit(CaseSpec {
            label: format!("dinner-{i}"),
            graph: wl.graph.clone(),
            case: case.clone(),
            config: wl.config.clone(),
            hints: Default::default(),
        });
    }
    let mut world = wl.fresh_world(plan, 0);
    let start = Instant::now();
    let outcome = scheduler.run(&mut world);
    let wall = start.elapsed();
    assert!(
        outcome.all_succeeded(),
        "fleet of {fleet} did not fully succeed"
    );
    (outcome, wall)
}

/// `run`'s result and its wall time in milliseconds.
fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = run();
    (start.elapsed().as_secs_f64() * 1e3, out)
}

fn percentile_ticks(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The committed baseline cases/sec for the guard point, if the report
/// has one.
fn baseline_cases_per_sec(report: &serde_json::Value) -> Option<f64> {
    report.get("results")?.as_array()?.iter().find_map(|r| {
        (r.get("cases")?.as_u64()? == GUARD_CASES)
            .then(|| r.get("cases_per_sec")?.as_f64())
            .flatten()
    })
}

/// `file ÷ trace-only` cases/sec over one report's `"store"` cells, if
/// both were measured at the guard's fleet size.
fn store_ratio(cells: &[serde_json::Value]) -> Option<f64> {
    let rate = |backend: &str| {
        cells.iter().find_map(|c| {
            (c.get("backend")?.as_str()? == backend && c.get("cases")?.as_u64()? == GUARD_CASES)
                .then(|| c.get("cases_per_sec")?.as_f64())
                .flatten()
        })
    };
    Some(rate("file")? / rate("trace-only")?)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_cases = args
        .iter()
        .position(|a| a == "--max-cases")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(usize::MAX);
    let guard = args.iter().any(|a| a == "--guard");
    let matrix_cases = args
        .iter()
        .position(|a| a == "--matrix-cases")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(MATRIX_CASES);

    let path = "BENCH_enactment.json";
    let committed: Option<serde_json::Value> = guard
        .then(|| std::fs::read_to_string(path).ok())
        .flatten()
        .and_then(|text| serde_json::from_str(&text).ok());
    let baseline = committed.as_ref().and_then(baseline_cases_per_sec);
    let baseline_store_ratio = committed
        .as_ref()
        .and_then(|report| store_ratio(report.get("store")?.as_array()?));

    banner("engine throughput: concurrent multi-case enactment");
    let wl = dinner_workload();
    let plan = FaultPlan::default();

    let mut rows = Vec::new();
    let mut results = Vec::new();
    let mut guard_measured: Option<f64> = None;
    for &fleet in FLEET_SIZES.iter().filter(|&&n| n <= max_cases) {
        let (outcome, wall) = measure_cell(&wl, &plan, fleet);

        // Percentiles over cases that actually ran; a refusal has no
        // makespan and must not be counted as an instant one.
        let mut makespans: Vec<u64> = outcome
            .cases
            .iter()
            .filter_map(|c| c.admitted_makespan_ticks())
            .collect();
        makespans.sort_unstable();
        let p50 = percentile_ticks(&makespans, 50.0);
        let p99 = percentile_ticks(&makespans, 99.0);
        let blocked: u64 = outcome.cases.iter().map(|c| c.blocked_ticks).sum();
        let cases_per_sec = fleet as f64 / wall.as_secs_f64().max(1e-9);
        if fleet as u64 == GUARD_CASES {
            guard_measured = Some(cases_per_sec);
        }

        rows.push(vec![
            fleet.to_string(),
            outcome.ticks.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{cases_per_sec:.0}"),
            p50.to_string(),
            p99.to_string(),
            blocked.to_string(),
        ]);
        results.push(json!({
            "cases": fleet,
            "ticks": outcome.ticks,
            "wall_ms": wall.as_secs_f64() * 1e3,
            "cases_per_sec": cases_per_sec,
            "p50_makespan_ticks": p50,
            "p99_makespan_ticks": p99,
            "blocked_ticks_total": blocked,
            "all_succeeded": true,
        }));
    }

    println!(
        "{}",
        render_table(
            &[
                "cases",
                "ticks",
                "wall ms",
                "cases/s",
                "p50 makespan",
                "p99 makespan",
                "blocked ticks",
            ],
            &rows,
        )
    );

    banner("workload x policy admission matrix");
    let mut matrix_rows = Vec::new();
    let mut matrix = Vec::new();
    for (name, wl) in matrix_workloads() {
        for policy in PolicySpec::ALL {
            let start = Instant::now();
            let outcome = MultiCaseScenario::new(&plan, &wl, matrix_cases)
                .max_in_flight(64)
                .policy(policy)
                .case_hints(matrix_hints)
                .run()
                .engine;
            let wall = start.elapsed();
            assert!(
                outcome.all_succeeded(),
                "matrix cell {name}/{} did not fully succeed",
                policy.name()
            );
            let mut makespans: Vec<u64> = outcome
                .cases
                .iter()
                .filter_map(|c| c.admitted_makespan_ticks())
                .collect();
            makespans.sort_unstable();
            let p50 = percentile_ticks(&makespans, 50.0);
            let p99 = percentile_ticks(&makespans, 99.0);
            let cases_per_sec = matrix_cases as f64 / wall.as_secs_f64().max(1e-9);
            matrix_rows.push(vec![
                name.to_string(),
                policy.name().to_string(),
                matrix_cases.to_string(),
                outcome.ticks.to_string(),
                format!("{:.1}", wall.as_secs_f64() * 1e3),
                format!("{cases_per_sec:.0}"),
                p50.to_string(),
                p99.to_string(),
            ]);
            matrix.push(json!({
                "workload": name,
                "policy": policy.name(),
                "cases": matrix_cases,
                "ticks": outcome.ticks,
                "wall_ms": wall.as_secs_f64() * 1e3,
                "cases_per_sec": cases_per_sec,
                "p50_makespan_ticks": p50,
                "p99_makespan_ticks": p99,
                "all_succeeded": true,
            }));
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "policy",
                "cases",
                "ticks",
                "wall ms",
                "cases/s",
                "p50 makespan",
                "p99 makespan",
            ],
            &matrix_rows,
        )
    );

    banner("durable store overhead");
    let store_cases = STORE_CASES.min(max_cases.max(1));
    let mut store_rows = Vec::new();
    let mut store_cells = Vec::new();
    for backend in ["trace-only", "memory", "file"] {
        let scenario = MultiCaseScenario::new(&plan, &wl, store_cases).max_in_flight(64);
        // The file cell journals into a throwaway directory, removed
        // after the measurement.
        let file_dir = (backend == "file").then(|| {
            std::env::temp_dir().join(format!("gridflow-bench-store-{}", std::process::id()))
        });
        let scenario = match backend {
            "trace-only" => scenario.traced(),
            "memory" => scenario.store(
                Arc::new(Mutex::new(MemStore::new())) as Arc<Mutex<dyn Store>>,
                STORE_SNAPSHOT_EVERY,
            ),
            _ => {
                let dir = file_dir.as_ref().expect("file cell has a dir");
                let _ = std::fs::remove_dir_all(dir);
                std::fs::create_dir_all(dir).expect("create bench store dir");
                let (fs, _) = FileStore::open(dir, 4096).expect("open bench store");
                scenario.store(
                    Arc::new(Mutex::new(fs)) as Arc<Mutex<dyn Store>>,
                    STORE_SNAPSHOT_EVERY,
                )
            }
        };
        let start = Instant::now();
        let outcome = scenario.run().engine;
        let wall = start.elapsed();
        if let Some(dir) = file_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        assert!(
            outcome.all_succeeded(),
            "store cell {backend} did not fully succeed"
        );
        let cases_per_sec = store_cases as f64 / wall.as_secs_f64().max(1e-9);
        store_rows.push(vec![
            backend.to_string(),
            store_cases.to_string(),
            outcome.ticks.to_string(),
            format!("{:.1}", wall.as_secs_f64() * 1e3),
            format!("{cases_per_sec:.0}"),
        ]);
        store_cells.push(json!({
            "backend": backend,
            "cases": store_cases,
            "snapshot_every": STORE_SNAPSHOT_EVERY,
            "ticks": outcome.ticks,
            "wall_ms": wall.as_secs_f64() * 1e3,
            "cases_per_sec": cases_per_sec,
            "all_succeeded": true,
        }));
    }
    println!(
        "{}",
        render_table(
            &["backend", "cases", "ticks", "wall ms", "cases/s"],
            &store_rows,
        )
    );

    banner("recovery from a killed store");
    // Each rep kills the fleet, then times trace-only / open / decode / restore.
    let scenario = || MultiCaseScenario::new(&plan, &wl, store_cases).max_in_flight(64);
    let kill_tick = scenario().run().engine.ticks - RECOVER_KILL_BEFORE_END;
    let dir = std::env::temp_dir().join(format!("gridflow-bench-kill-{}", std::process::id()));
    let open = || FileStore::create(&dir, 4096).expect("open bench store");
    let durable = |fs| scenario().store(Arc::new(Mutex::new(fs)), STORE_SNAPSHOT_EVERY);
    let mut reps = Vec::new();
    for _ in 0..RECOVER_REPS {
        let _ = std::fs::remove_dir_all(&dir);
        assert!(durable(open()).kill_at(kill_tick).run().engine.killed);
        let (trace_only, _) = timed(|| scenario().traced().run());
        let (open_ms, fs) = timed(open);
        let snapshot = fs.latest_snapshot().expect("valid").expect("kept");
        let (decode_ms, _) = timed(|| EngineSnapshot::from_bytes(&snapshot.state));
        let (restore_ms, _) = timed(|| durable(fs).recover().expect("recovers"));
        let ratio = (open_ms + restore_ms) / trace_only;
        reps.push([trace_only, open_ms, decode_ms, restore_ms, ratio]);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let median = |i: usize| {
        let mut v: Vec<f64> = reps.iter().map(|rep| rep[i]).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let recover = json!({"cases": store_cases, "kill_tick": kill_tick, "reps": RECOVER_REPS,
        "trace_only_ms": median(0), "open_ms": median(1), "decode_ms": median(2),
        "restore_ms": median(3), "recover_over_trace_only": median(4)});
    println!("{recover}\n");

    banner("dispatch over many hosts per service");
    // `benchmark/`'s fleet-wide and replan-churn fleets, 512 in flight.
    let churn = dinner_replan_workload_scaled(16, 512, 7).with_recovery(RecoveryPolicy::standard());
    let wide = (
        "fleet-wide",
        dinner_workload_scaled(64, 2048),
        FaultPlan::default(),
        2048,
    );
    let replan = (
        "replan-churn",
        churn,
        cook_loss_churn_plan_scaled(16, 7),
        512,
    );
    let mut dispatch = Vec::new();
    for (shape, wl, plan, cases) in [wide, replan] {
        let mut walls: Vec<f64> = (0..DISPATCH_REPS)
            .map(|_| {
                let run = MultiCaseScenario::new(&plan, &wl, cases).max_in_flight(512);
                let run = run.traced().plan_cache(PlanCacheHandle::in_proc());
                let (ms, out) = timed(|| run.run());
                assert!(out.engine.all_succeeded(), "{shape} did not fully succeed");
                ms
            })
            .collect();
        walls.sort_by(f64::total_cmp);
        let ms = walls[DISPATCH_REPS / 2];
        dispatch.push(json!({"shape": shape, "cases": cases, "max_in_flight": 512,
            "reps": DISPATCH_REPS, "wall_ms": ms, "cases_per_sec": cases as f64 / ms * 1e3}));
    }
    println!("{}\n", json!(dispatch));

    banner("trace emission on a contended fleet");
    // `benchmark/`'s fleet-contended: the 8-container world, 64 in
    // flight, timed with and without the trace in alternating reps.
    let contended = || MultiCaseScenario::new(&plan, &wl, EMIT_CASES).max_in_flight(64);
    let mut records = 0;
    let mut reps: Vec<[f64; 2]> = (0..EMIT_REPS)
        .map(|_| {
            let (untraced, _) = timed(|| contended().run());
            let (traced, out) = timed(|| contended().traced().run());
            assert!(out.engine.all_succeeded(), "fleet-contended failed");
            records = out.trace.map_or(0, |log| log.len());
            [traced, untraced]
        })
        .collect();
    let mut median = |i: usize| {
        reps.sort_by(|a, b| a[i].total_cmp(&b[i]));
        reps[EMIT_REPS / 2][i]
    };
    let (ms, untraced_ms) = (median(0), median(1));
    let emit = json!({"shape": "fleet-contended", "cases": EMIT_CASES, "max_in_flight": 64,
        "reps": EMIT_REPS, "records": records, "wall_ms": ms, "untraced_ms": untraced_ms,
        "cases_per_sec": EMIT_CASES as f64 / ms * 1e3,
        "records_per_sec": records as f64 / ms * 1e3});
    println!("{emit}\n");
    let measured_store_ratio = store_ratio(&store_cells);
    let report = json!({
        "bench": "enactment_throughput",
        "workload": wl.name,
        "engine": {"max_in_flight": 64, "enforce_reservations": true},
        "results": results,
        "matrix": matrix,
        "store": store_cells,
        "recover": recover,
        "dispatch": dispatch,
        "emit": emit,
    });
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializes"),
    )
    .expect("write BENCH_enactment.json");
    println!("wrote {path}");

    if guard {
        let Some(mut measured) = guard_measured else {
            eprintln!("guard: no N={GUARD_CASES} point was measured (--max-cases too low?)");
            std::process::exit(1);
        };
        // Best-of-N: re-measure the guard cell and keep the fastest
        // observation (see GUARD_MEASUREMENTS).
        for _ in 1..GUARD_MEASUREMENTS {
            let (_, wall) = measure_cell(&wl, &plan, GUARD_CASES as usize);
            measured = measured.max(GUARD_CASES as f64 / wall.as_secs_f64().max(1e-9));
        }
        match baseline {
            Some(base) => {
                let floor = base * GUARD_FLOOR;
                println!(
                    "guard: N={GUARD_CASES}: {measured:.0} cases/s \
                     vs committed baseline {base:.0} (floor {floor:.0})"
                );
                if measured < floor {
                    eprintln!("guard: throughput regressed more than 20% — failing");
                    std::process::exit(1);
                }
            }
            None => println!("guard: no committed baseline for the guard point; recording only"),
        }
        match (measured_store_ratio, baseline_store_ratio) {
            (Some(ratio), Some(base)) => {
                let floor = base * GUARD_STORE_RATIO_FLOOR;
                println!(
                    "guard: store file ÷ trace-only: {ratio:.3} this run \
                     vs committed {base:.3} (floor {floor:.3})"
                );
                if ratio < floor {
                    eprintln!("guard: the durable store's same-run cost ratio halved — failing");
                    std::process::exit(1);
                }
            }
            _ => println!("guard: no N={GUARD_CASES} store ratio on both sides; recording only"),
        }
    }
}
