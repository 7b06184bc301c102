//! **Engine throughput — concurrent multi-case enactment.**
//!
//! Writes `BENCH_enactment.json` in the working directory, one cell per
//! sweep, each printed as the JSON it is written as; committed cells
//! this run does not write are carried over unchanged.
//! - `"results"`: fleets of N ∈ {1, 8, 64, 512, 2048, 100000} dinner
//!   cases through the `gridflow-engine` scheduler over one shared
//!   world, as cases/sec (wall clock), p50/p99 virtual-tick makespan
//!   and total blocked ticks.  `--max-cases 2048` sizes the 100k tier
//!   out of CI.
//! - `"matrix"`: the dinner fixture, two generated shapes (wide
//!   fan-out, choice-dense) and the virus case study under every
//!   admission policy (FIFO, priority, fair-share, EDF).
//! - `"store"`: the N=512 fleet traced only, journalled into a
//!   `MemStore` and into a `FileStore` (snapshot cadence 32);
//!   `"recover"` times reopening, decoding and recovering that fleet
//!   killed near its end, never before its first snapshot.
//! - `"dispatch"`: `benchmark/`'s `fleet-wide` and `replan-churn`
//!   fleets, where one dispatch ranks and probes many hosts; `"emit"`
//!   its traced `fleet-contended` fleet, where most records are blocked
//!   re-steps, as cases/sec and trace records/sec.
//! - `"scaling"`: A7 (enactment vs. chain depth and fork width), A9
//!   (matchmaking and brokerage refresh vs. grid size) and A10 (a
//!   conjunctive ontology query vs. instance count), median µs per call.
//!
//! ```sh
//! cargo run --release --bin enactment_throughput
//! cargo run --release --bin enactment_throughput -- --max-cases 64   # CI smoke
//! cargo run --release --bin enactment_throughput -- --guard          # + regression gate
//! cargo run --release --bin enactment_throughput -- --matrix-cases 8 # shrink the matrix
//! ```
//!
//! `--guard` reads the committed report *before* overwriting it and
//! exits non-zero if the headline point (N=512, best of three
//! measurements) regressed more than 20% in cases/sec against it, if
//! this run's own `file ÷ trace-only` store ratio fell below half the
//! committed ratio, or if its `recover_over_trace_only` rose above twice
//! the committed one — same-run ratios, so the machine the baseline came
//! from cancels out.

use gridflow::casestudy;
use gridflow::prelude::{
    lower, matchmake, parse_process, CaseDescription, DataItem, Enactor, GridTopology, GridWorld,
    MatchRequest, OutputSpec, ProcessGraph, Resource, ResourceKind, ServiceOffering,
};
use gridflow_bench::report::{gate, guard, Report};
use gridflow_engine::{
    CaseHints, CaseScheduler, CaseSpec, EngineConfig, EngineOutcome, EngineSnapshot, PolicySpec,
};
use gridflow_grid::ApplicationContainer;
use gridflow_harness::workload::{
    cook_loss_churn_plan_scaled, dinner_replan_workload_scaled, dinner_workload,
    dinner_workload_scaled, virus_reconstruction_workload, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario, RecoveryPolicy};
use gridflow_ontology::{schema, Instance, KnowledgeBase, Query, SlotCond, Value};
use gridflow_services::brokerage::BrokerageService;
use gridflow_services::PlanCacheHandle;
use gridflow_store::{FileStore, MemStore, Store};
use serde_json::json;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const FLEET_SIZES: [usize; 6] = [1, 8, 64, 512, 2048, 100_000];
/// The regression gate's reference point.
const GUARD_CASES: u64 = 512;
/// The store gate: this run's `file ÷ trace-only` cases/sec ratio may
/// not fall below this share of the committed report's ratio.
const GUARD_STORE_RATIO_FLOOR: f64 = 0.5;
/// The recovery gate: this run's `recover_over_trace_only` may not
/// exceed this multiple of the committed report's.
const GUARD_RECOVER_RATIO_CEILING: f64 = 2.0;
/// Default fleet size per workload × policy matrix cell.
const MATRIX_CASES: usize = 32;
/// Fleet size and snapshot cadence for the durable-store overhead sweep.
const STORE_CASES: usize = 512;
const STORE_SNAPSHOT_EVERY: u64 = 32;
/// The recovery cell's kill point, in ticks before the end, and reps.
/// The kill never comes before the first snapshot.
const RECOVER_KILL_BEFORE_END: u64 = 9;
const RECOVER_REPS: usize = 11;
const DISPATCH_REPS: usize = 7;
/// The emission cell: `benchmark/`'s `fleet-contended` fleet, and reps.
const EMIT_CASES: usize = 2048;
const EMIT_REPS: usize = 7;
/// The scaling cell times each point in this many batches, each batch
/// repeating the call until it lasts at least `SCALING_BATCH`.
const SCALING_REPS: usize = 11;
const SCALING_BATCH: Duration = Duration::from_millis(2);

/// Staggered hints so every non-FIFO policy visibly reorders the
/// fleet: alternating tenants, three priority classes, deadlines
/// running against submission order.
fn matrix_hints(i: usize) -> CaseHints {
    CaseHints {
        priority: (i % 3) as i64,
        tenant: Some(["a", "b"][i % 2].into()),
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

/// p50 and p99 makespan over the cases that actually ran; a refusal
/// has no makespan and must not be counted as an instant one.
fn makespan_percentiles(outcome: &EngineOutcome) -> (u64, u64) {
    let mut sorted: Vec<u64> = outcome
        .cases
        .iter()
        .filter_map(|c| c.admitted_makespan_ticks())
        .collect();
    sorted.sort_unstable();
    let at = |pct: f64| {
        let rank = (pct / 100.0 * sorted.len().saturating_sub(1) as f64).round() as usize;
        sorted.get(rank).copied().unwrap_or(0)
    };
    (at(50.0), at(99.0))
}

/// The committed baseline cases/sec for the guard point, if the report
/// has one.
fn baseline_cases_per_sec(results: &serde_json::Value) -> Option<f64> {
    results.as_array()?.iter().find_map(|r| {
        (r.get("cases")?.as_u64()? == GUARD_CASES)
            .then(|| r.get("cases_per_sec")?.as_f64())
            .flatten()
    })
}

/// `file ÷ trace-only` cases/sec over one report's `"store"` cells, if
/// both were measured at the guard's fleet size.
fn store_ratio(cells: &serde_json::Value) -> Option<f64> {
    let rate = |backend: &str| {
        cells.as_array()?.iter().find_map(|c| {
            (c.get("backend")?.as_str()? == backend && c.get("cases")?.as_u64()? == GUARD_CASES)
                .then(|| c.get("cases_per_sec")?.as_f64())
                .flatten()
        })
    };
    Some(rate("file")? / rate("trace-only")?)
}

/// Median µs per call of `call`, over [`SCALING_REPS`] batches.
fn median_us(mut call: impl FnMut()) -> f64 {
    let mut batch = 1;
    while timed(|| (0..batch).for_each(|_| call())).0 < SCALING_BATCH.as_secs_f64() * 1e3 {
        batch *= 2;
    }
    let mut us: Vec<f64> = (0..SCALING_REPS)
        .map(|_| timed(|| (0..batch).for_each(|_| call())).0 * 1e3 / batch as f64)
        .collect();
    us.sort_by(f64::total_cmp);
    us[SCALING_REPS / 2]
}

/// A permissive world hosting services `s0`..`s15`, none with a
/// precondition, on four 32-node clusters.
fn permissive_world() -> GridWorld {
    let names: Vec<String> = (0..16).map(|i| format!("s{i}")).collect();
    let mut world = GridWorld::new(GridTopology {
        resources: (0..4)
            .map(|i| {
                Resource::new(format!("r{i}"), ResourceKind::PcCluster)
                    .with_nodes(32)
                    .with_software(names.clone())
            })
            .collect(),
        containers: (0..4)
            .map(|i| {
                ApplicationContainer::new(format!("ac{i}"), format!("r{i}")).hosting(names.clone())
            })
            .collect(),
    });
    for n in &names {
        world.offer(ServiceOffering::new(
            n.clone(),
            Vec::<String>::new(),
            vec![OutputSpec::plain(format!("{n}-out"))],
        ));
    }
    world
}

/// A process over the permissive world's services: a chain of `depth`
/// activities, or a FORK of `width` one-activity branches.
fn scaling_graph(fork: bool, n: usize) -> ProcessGraph {
    let source = if fork {
        let branches: Vec<String> = (0..n).map(|i| format!("{{ s{}; }}", i % 16)).collect();
        format!("BEGIN FORK {{ {} }} JOIN; END", branches.join(", "))
    } else {
        let body: String = (0..n).map(|i| format!("s{}; ", i % 16)).collect();
        format!("BEGIN {body} END")
    };
    lower("scaling", &parse_process(&source).expect("parses")).expect("lowers")
}

/// A knowledge base holding `n` `Data` instances, a third of them
/// `3D Model`s, sizes cycling through 0..99,000.
fn populated_kb(n: usize) -> KnowledgeBase {
    let mut kb = schema::grid_ontology_shell();
    for i in 0..n {
        kb.add_instance(
            Instance::new(format!("D{i}"), schema::classes::DATA)
                .with("Name", Value::str(format!("item-{i}")))
                .with("Size", Value::Int((i as i64 % 100) * 1000))
                .with(
                    "Classification",
                    Value::str(if i % 3 == 0 { "3D Model" } else { "2D Image" }),
                ),
        )
        .expect("valid instance");
    }
    kb
}

/// The A7 / A9 / A10 sweeps as one cell of median-µs points.
fn scaling_cell() -> serde_json::Value {
    let mut points = Vec::new();
    let mut time = |sweep: &str, size: usize, call: &mut dyn FnMut()| {
        points.push(json!({"sweep": sweep, "size": size, "median_us": median_us(call)}));
    };
    // A7: the coordination service's Enactor, a fresh world per call.
    let case = CaseDescription::new("bench").with_data("D1", DataItem::classified("seed"));
    for (sweep, fork, sizes) in [
        ("chain_depth", false, [4, 16, 64]),
        ("fork_width", true, [2, 8, 16]),
    ] {
        for n in sizes {
            let graph = scaling_graph(fork, n);
            time(sweep, n, &mut || {
                let report = Enactor::default().enact(&mut permissive_world(), &graph, &case);
                assert!(report.success, "{sweep} {n} did not succeed");
            });
        }
    }
    // A9: matchmaking with no and with every condition, and a
    // brokerage refresh, over the virtual lab grown to `sites`.
    let open = MatchRequest::for_service("P3DR");
    let strict = MatchRequest {
        require_fine_grain: true,
        min_reliability: 0.9,
        deadline_s: Some(1e6),
        budget: Some(1e9),
        ..open.clone()
    };
    for sites in [10, 100, 1000] {
        let world = casestudy::virtual_lab_world(sites, 42);
        time("matchmake_unconstrained", sites, &mut || {
            std::hint::black_box(matchmake(&world, &open).expect("P3DR is hosted").len());
        });
        time("matchmake_all_conditions", sites, &mut || {
            std::hint::black_box(matchmake(&world, &strict).map_or(0, |m| m.len()));
        });
        time("brokerage_refresh", sites, &mut || {
            let mut broker = BrokerageService::new();
            broker.refresh(&world);
            std::hint::black_box(broker.equivalence_classes().len());
        });
    }
    // A10: a conjunctive query over a growing knowledge base.
    let query = Query::And(vec![
        Query::cond(SlotCond::Eq(
            "Classification".into(),
            Value::str("3D Model"),
        )),
        Query::cond(SlotCond::Gt("Size".into(), Value::Int(50_000))),
    ]);
    for n in [100, 1_000, 10_000] {
        let kb = populated_kb(n);
        time("ontology_conjunctive_query", n, &mut || {
            std::hint::black_box(query.run(&kb, Some(schema::classes::DATA)).len());
        });
    }
    json!({"reps": SCALING_REPS, "points": points})
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str, default: usize| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(default)
    };
    let max_cases = arg("--max-cases", usize::MAX);
    let matrix_cases = arg("--matrix-cases", MATRIX_CASES);
    let guard_run = args.iter().any(|a| a == "--guard");

    let mut report = Report::open("BENCH_enactment.json");
    let baseline = report.committed("results").and_then(baseline_cases_per_sec);
    let baseline_store_ratio = report.committed("store").and_then(store_ratio);
    let baseline_recover_ratio = report
        .committed("recover")
        .and_then(|cell| cell.get("recover_over_trace_only")?.as_f64());
    let mut measured_recover_ratio = None;
    let wl = dinner_workload();
    let plan = FaultPlan::default();
    report.cell("bench", json!("enactment_throughput"));
    report.cell("workload", json!(wl.name));
    report.cell(
        "engine",
        json!({"max_in_flight": 64, "enforce_reservations": true}),
    );

    let mut results = Vec::new();
    let mut guard_measured: Option<f64> = None;
    for &fleet in FLEET_SIZES.iter().filter(|&&n| n <= max_cases) {
        let (outcome, wall) = measure_cell(&wl, &plan, fleet);
        let (p50, p99) = makespan_percentiles(&outcome);
        let blocked: u64 = outcome.cases.iter().map(|c| c.blocked_ticks).sum();
        let cases_per_sec = fleet as f64 / wall.as_secs_f64().max(1e-9);
        if fleet as u64 == GUARD_CASES {
            guard_measured = Some(cases_per_sec);
        }
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
    report.cell("results", json!(results));

    // The workload x policy admission matrix.
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
            let (p50, p99) = makespan_percentiles(&outcome);
            matrix.push(json!({
                "workload": name,
                "policy": policy.name(),
                "cases": matrix_cases,
                "ticks": outcome.ticks,
                "wall_ms": wall.as_secs_f64() * 1e3,
                "cases_per_sec": matrix_cases as f64 / wall.as_secs_f64().max(1e-9),
                "p50_makespan_ticks": p50,
                "p99_makespan_ticks": p99,
                "all_succeeded": true,
            }));
        }
    }
    report.cell("matrix", json!(matrix));

    // Durable store overhead; the file cell journals into a throwaway
    // directory, removed after the measurement.
    let store_cases = STORE_CASES.min(max_cases.max(1));
    let dir = std::env::temp_dir().join(format!("gridflow-bench-store-{}", std::process::id()));
    let mut store_cells = Vec::new();
    for backend in ["trace-only", "memory", "file"] {
        let scenario = MultiCaseScenario::new(&plan, &wl, store_cases).max_in_flight(64);
        let scenario = match backend {
            "trace-only" => scenario.traced(),
            "memory" => scenario.store(Arc::new(Mutex::new(MemStore::new())), STORE_SNAPSHOT_EVERY),
            _ => {
                let _ = std::fs::remove_dir_all(&dir);
                let fs = FileStore::create(&dir, 4096).expect("open bench store");
                scenario.store(Arc::new(Mutex::new(fs)), STORE_SNAPSHOT_EVERY)
            }
        };
        let (wall_ms, outcome) = timed(|| scenario.run().engine);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(outcome.all_succeeded(), "store cell {backend} failed");
        store_cells.push(json!({
            "backend": backend,
            "cases": store_cases,
            "snapshot_every": STORE_SNAPSHOT_EVERY,
            "ticks": outcome.ticks,
            "wall_ms": wall_ms,
            "cases_per_sec": store_cases as f64 / wall_ms * 1e3,
            "all_succeeded": true,
        }));
    }
    let store_cells = json!(store_cells);
    let measured_store_ratio = store_ratio(&store_cells);
    report.cell("store", store_cells);

    // Recovery from a killed store: each rep kills the fleet, then
    // times trace-only / open / decode / restore.
    let scenario = || MultiCaseScenario::new(&plan, &wl, store_cases).max_in_flight(64);
    let ticks = scenario().run().engine.ticks;
    let kill_tick = ticks
        .saturating_sub(RECOVER_KILL_BEFORE_END)
        .max(STORE_SNAPSHOT_EVERY);
    if kill_tick >= ticks {
        println!(
            "recover: skipped, the {store_cases}-case fleet ends at tick {ticks}, \
             before its first snapshot at tick {STORE_SNAPSHOT_EVERY}\n"
        );
    } else {
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
        measured_recover_ratio = Some(median(4));
        report.cell(
            "recover",
            json!({"cases": store_cases, "kill_tick": kill_tick, "reps": RECOVER_REPS,
                "trace_only_ms": median(0), "open_ms": median(1), "decode_ms": median(2),
                "restore_ms": median(3), "recover_over_trace_only": median(4)}),
        );
    }

    // Dispatch over many hosts per service: `benchmark/`'s fleet-wide
    // and replan-churn fleets, 512 in flight.
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
    report.cell("dispatch", json!(dispatch));

    // Trace emission on `benchmark/`'s fleet-contended: the
    // 8-container world, 64 in flight, timed with and without the
    // trace in alternating reps.
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
    report.cell(
        "emit",
        json!({"shape": "fleet-contended", "cases": EMIT_CASES, "max_in_flight": 64,
            "reps": EMIT_REPS, "records": records, "wall_ms": ms, "untraced_ms": untraced_ms,
            "cases_per_sec": EMIT_CASES as f64 / ms * 1e3,
            "records_per_sec": records as f64 / ms * 1e3}),
    );

    report.cell("scaling", scaling_cell());
    report.write();

    if guard_run {
        let Some(measured) = guard_measured else {
            eprintln!("guard: no N={GUARD_CASES} point was measured (--max-cases too low?)");
            std::process::exit(1);
        };
        let throughput = guard(
            &format!("N={GUARD_CASES} cases/s"),
            baseline,
            measured,
            || {
                let (_, wall) = measure_cell(&wl, &plan, GUARD_CASES as usize);
                GUARD_CASES as f64 / wall.as_secs_f64().max(1e-9)
            },
        );
        let store = match (measured_store_ratio, baseline_store_ratio) {
            (Some(ratio), Some(base)) => {
                let floor = base * GUARD_STORE_RATIO_FLOOR;
                gate(
                    ratio >= floor,
                    &format!(
                        "store file ÷ trace-only: {ratio:.3} this run \
                         vs committed {base:.3} (floor {floor:.3})"
                    ),
                )
            }
            _ => gate(
                true,
                &format!("no N={GUARD_CASES} store ratio on both sides; recording only"),
            ),
        };
        let recover = match (measured_recover_ratio, baseline_recover_ratio) {
            (Some(ratio), Some(base)) => {
                let ceiling = base * GUARD_RECOVER_RATIO_CEILING;
                gate(
                    ratio <= ceiling,
                    &format!(
                        "recover ÷ trace-only: {ratio:.3} this run \
                         vs committed {base:.3} (ceiling {ceiling:.3})"
                    ),
                )
            }
            _ => gate(true, "no recover ratio on both sides; recording only"),
        };
        if !(throughput && store && recover) {
            std::process::exit(1);
        }
    }
}
