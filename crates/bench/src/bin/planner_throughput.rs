//! **Planner throughput — GP search and the fleet-shared plan cache.**
//!
//! Four sweeps, reported into `BENCH_planner.json`:
//!
//! 1. **GP search throughput** — repeated full GP runs of the dinner
//!    planning problem (population 80 × 25 generations), reporting
//!    plans/sec and generations/sec.
//! 2. **The Table-1 cell** — the case-study problem at the paper's
//!    parameters (population 200 × 20 generations, what `plan-cold`
//!    runs), distinct seeds, single-threaded.
//! 3. **Cold vs warm fleet planning** — an identical-goal fleet of N
//!    planning requests, once with the cache disabled (N full GP runs)
//!    and once against a pre-warmed [`PlanCacheHandle`] (N content-
//!    addressed hits), reporting both wall times, the speedup, and the
//!    cache hit rate.
//! 4. **Fleet dedup** — the same fleet issued cold against one
//!    shared cache: the first request runs GP, the rest hit the entry
//!    it published.
//!
//! ```sh
//! cargo run --release --bin planner_throughput
//! cargo run --release --bin planner_throughput -- --plans 3 --fleet 16  # CI smoke
//! cargo run --release --bin planner_throughput -- --guard               # + regression gate
//! ```
//!
//! `--guard` reads the committed `BENCH_planner.json` *before*
//! overwriting it and exits non-zero if the headline point (GP
//! plans/sec, best of three measurements) regressed more than 20%
//! against it, or if the warm-cache fleet fails to beat the cold fleet
//! by at least 10× — the CI seam that keeps the plan cache's
//! fleet-scale claim honest.  Each cell is printed as the JSON it is
//! written as.  Committed cells this run does not write are carried
//! over unchanged: `table1_before` (the Table-1 cell at the commit
//! before the simulator was lowered to ids) and `thread_sweep`
//! (population 200 / 1,000 / 5,000 at `threads` 1 and 2 while a
//! threaded path still existed) cannot be measured again.

use gridflow::casestudy;
use gridflow_bench::report::{gate, guard, Report};
use gridflow_harness::workload::dinner_world;
use gridflow_planner::prelude::*;
use gridflow_services::{PlanCacheHandle, PlanRequest, PlanningService};
use serde_json::json;
use std::time::Instant;

/// The headline GP shape: the replanning workload's configuration.
const POPULATION: usize = 80;
const GENERATIONS: usize = 25;
const GP_SEED: u64 = 11;
/// Default GP runs per throughput cell / requests per fleet sweep.
const DEFAULT_PLANS: usize = 8;
const DEFAULT_FLEET: usize = 64;
/// The warm-cache fleet must beat the cold (cache-disabled) fleet by
/// at least this factor in wall time.
const WARM_SPEEDUP_MIN: f64 = 10.0;

fn gp_config() -> GpConfig {
    GpConfig {
        population_size: POPULATION,
        generations: GENERATIONS,
        seed: GP_SEED,
        ..GpConfig::default()
    }
}

/// The dinner planning request: one `Raw` item, goal one `Plated`.
fn dinner_request() -> PlanRequest {
    PlanRequest {
        initial: vec!["Raw".into()],
        goals: vec![GoalSpec {
            classification: "Plated".into(),
            min_count: 1,
        }],
        produced: vec![],
        excluded: vec![],
    }
}

/// One throughput measurement: `plans` full GP runs, returning
/// plans/sec.
fn measure_gp(plans: usize) -> f64 {
    let PlanRequest { initial, goals, .. } = dinner_request();
    let problem = dinner_world().planning_problem(initial, goals);
    let start = Instant::now();
    for _ in 0..plans {
        std::hint::black_box(GpPlanner::new(gp_config(), problem.clone()).run());
    }
    plans as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Median wall milliseconds per plan of the case-study problem at
/// Table 1's parameters over `seeds` distinct seeds.
fn measure_table1(seeds: usize) -> f64 {
    let problem = casestudy::planning_problem();
    let mut ms: Vec<f64> = (0..seeds as u64)
        .map(|seed| {
            let config = GpConfig {
                seed,
                ..GpConfig::default()
            };
            let planner = GpPlanner::new(config, problem.clone());
            let start = Instant::now();
            std::hint::black_box(planner.run());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// The committed baseline GP plans/sec, if the report on disk has one.
fn baseline_plans_per_sec(results: &serde_json::Value) -> Option<f64> {
    results.as_array()?.first()?.get("plans_per_sec")?.as_f64()
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
    let plans = arg("--plans", DEFAULT_PLANS).max(1);
    let fleet = arg("--fleet", DEFAULT_FLEET).max(2);
    let guard_run = args.iter().any(|a| a == "--guard");

    let mut report = Report::open("BENCH_planner.json");
    let baseline = report.committed("results").and_then(baseline_plans_per_sec);
    report.cell("bench", json!("planner_throughput"));
    report.cell(
        "gp",
        json!({"population_size": POPULATION, "generations": GENERATIONS, "seed": GP_SEED}),
    );

    let start = Instant::now();
    let plans_per_sec = measure_gp(plans);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    report.cell(
        "results",
        json!([{
            "population_size": POPULATION,
            "generations": GENERATIONS,
            "plans": plans,
            "wall_ms": wall_ms,
            "plans_per_sec": plans_per_sec,
            "generations_per_sec": plans_per_sec * GENERATIONS as f64,
        }]),
    );

    // The Table-1 cell: case study, population 200 x 20 generations.
    let seeds = 4 * plans;
    let table1_ms = measure_table1(seeds);
    report.cell(
        "table1",
        json!({
            "population_size": 200,
            "generations": 20,
            "seeds": seeds,
            "available_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()),
            "ms_per_plan_threads_1": table1_ms,
            "plans_per_sec_threads_1": 1e3 / table1_ms,
        }),
    );

    // Fleet planning: cold (cache disabled) vs warm (shared cache).
    let world = dinner_world();
    let request = dinner_request();
    let uncached = PlanningService::new(gp_config());
    let start = Instant::now();
    for _ in 0..fleet {
        uncached.plan(&world, &request).expect("cold plan");
    }
    let cold_wall = start.elapsed();

    let cache = PlanCacheHandle::in_proc();
    let cached = PlanningService::new(gp_config()).with_plan_cache(cache.clone());
    // Fleet dedup: the fleet issued cold against one shared
    // cache — request 0 runs GP, requests 1..N hit its entry.
    let start = Instant::now();
    for _ in 0..fleet {
        cached.plan(&world, &request).expect("dedup plan");
    }
    let dedup_wall = start.elapsed();
    let dedup_stats = cache.stats();
    assert_eq!(dedup_stats.misses, 1, "one GP run for the whole fleet");
    assert_eq!(dedup_stats.hits, (fleet - 1) as u64);

    // Warm: every request hits the already-published entry.
    let start = Instant::now();
    for _ in 0..fleet {
        cached.plan(&world, &request).expect("warm plan");
    }
    let warm_wall = start.elapsed();
    let warm_speedup = cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);
    report.cell(
        "fleet",
        json!({
            "cases": fleet,
            "cold_wall_ms": cold_wall.as_secs_f64() * 1e3,
            "dedup_wall_ms": dedup_wall.as_secs_f64() * 1e3,
            "warm_wall_ms": warm_wall.as_secs_f64() * 1e3,
            "warm_speedup": warm_speedup,
            "cache_hit_rate": cache.stats().hit_rate(),
            "cache_entries": cache.len(),
            "dedup_gp_runs": dedup_stats.misses,
        }),
    );
    report.write();

    if guard_run {
        let gp = guard("GP plans/s", baseline, plans_per_sec, || measure_gp(plans));
        let warm = gate(
            warm_speedup >= WARM_SPEEDUP_MIN,
            &format!("warm fleet {warm_speedup:.0}x faster than cold (gate {WARM_SPEEDUP_MIN}x)"),
        );
        if !(gp && warm) {
            std::process::exit(1);
        }
    }
}
