//! **Planner throughput — GP search and the fleet-shared plan cache.**
//!
//! Four sweeps, reported into `BENCH_planner.json`:
//!
//! 1. **GP search throughput** — repeated full GP runs of the dinner
//!    planning problem (population 80 × 25 generations), reporting
//!    plans/sec and generations/sec.
//! 2. **The Table-1 cell** — the case-study problem at the paper's
//!    parameters (population 200 × 20 generations, what `plan-cold`
//!    runs), distinct seeds, at `threads: 1` and at the default
//!    `threads: 0`, interleaved so both see the same machine.
//! 3. **Cold vs warm fleet planning** — an identical-goal fleet of N
//!    planning requests, once with the cache disabled (N full GP runs)
//!    and once against a pre-warmed [`PlanCacheHandle`] (N content-
//!    addressed hits), reporting both wall times, the speedup, and the
//!    cache hit rate.
//! 4. **Single-flight dedup** — the same fleet issued cold against one
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
//! against it, if the Table-1 cell at the default thread count runs
//! below 0.9× its own serial rate (the engine has no threaded path
//! since a sweep showed it costing more than it saved; this keeps one
//! from coming back unmeasured), or if the warm-cache fleet fails to
//! beat the cold fleet by at least 10× — the CI seam that keeps the
//! plan cache's fleet-scale claim honest.  The committed file's
//! `table1_before` and `thread_sweep` blocks — the Table-1 cell at the
//! commit before the simulator was lowered to ids, and population 200 /
//! 1,000 / 5,000 at `threads` 1 and 2 while a threaded path still
//! existed — cannot be measured again and are carried over unchanged.

use gridflow::casestudy;
use gridflow_bench::{banner, render_table};
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
/// The regression gate's tolerance and sampling.
const GUARD_FLOOR: f64 = 0.8;
const GUARD_MEASUREMENTS: usize = 3;
/// The warm-cache fleet must beat the cold (cache-disabled) fleet by
/// at least this factor in wall time.
const WARM_SPEEDUP_MIN: f64 = 10.0;
/// Same-run floor for Table-1 plans/sec at `threads: 0` over `threads: 1`.
const AUTO_OVER_SERIAL_MIN: f64 = 0.9;
/// Blocks of the committed report measured at earlier commits.
const CARRIED_OVER: [&str; 2] = ["table1_before", "thread_sweep"];

fn gp_config() -> GpConfig {
    GpConfig {
        population_size: POPULATION,
        generations: GENERATIONS,
        seed: GP_SEED,
        ..GpConfig::default()
    }
}

fn dinner_problem() -> PlanningProblem {
    dinner_world().planning_problem(
        vec!["Raw".into()],
        vec![GoalSpec {
            classification: "Plated".into(),
            min_count: 1,
        }],
    )
}

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
    let problem = dinner_problem();
    let start = Instant::now();
    for _ in 0..plans {
        std::hint::black_box(GpPlanner::new(gp_config(), problem.clone()).run());
    }
    plans as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Median wall milliseconds per plan of the case-study problem at
/// Table 1's parameters, one column per entry of `threads`: every seed
/// runs at every thread count back to back.
fn measure_table1(threads: &[usize], seeds: usize) -> Vec<f64> {
    let problem = casestudy::planning_problem();
    let mut ms: Vec<Vec<f64>> = vec![Vec::with_capacity(seeds); threads.len()];
    for seed in 0..seeds as u64 {
        for (column, &threads) in ms.iter_mut().zip(threads) {
            let config = GpConfig {
                seed,
                threads,
                ..GpConfig::default()
            };
            let planner = GpPlanner::new(config, problem.clone());
            let start = Instant::now();
            std::hint::black_box(planner.run());
            column.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    ms.into_iter()
        .map(|mut column| {
            column.sort_by(f64::total_cmp);
            column[column.len() / 2]
        })
        .collect()
}

/// The committed baseline GP plans/sec, if the report on disk has one.
fn baseline_plans_per_sec(report: &serde_json::Value) -> Option<f64> {
    report
        .get("results")?
        .as_array()?
        .first()?
        .get("plans_per_sec")?
        .as_f64()
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
    let guard = args.iter().any(|a| a == "--guard");

    let path = "BENCH_planner.json";
    let committed: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or_default();
    let baseline = guard.then(|| baseline_plans_per_sec(&committed)).flatten();

    banner("planner throughput: GP search");
    let start = Instant::now();
    let plans_per_sec = measure_gp(plans);
    let wall = start.elapsed();
    let generations_per_sec = plans_per_sec * GENERATIONS as f64;
    println!(
        "{}",
        render_table(
            &["plans", "wall ms", "plans/s", "generations/s"],
            &[vec![
                plans.to_string(),
                format!("{:.1}", wall.as_secs_f64() * 1e3),
                format!("{plans_per_sec:.2}"),
                format!("{generations_per_sec:.0}"),
            ]],
        )
    );
    let results = vec![json!({
        "population_size": POPULATION,
        "generations": GENERATIONS,
        "plans": plans,
        "wall_ms": wall.as_secs_f64() * 1e3,
        "plans_per_sec": plans_per_sec,
        "generations_per_sec": generations_per_sec,
    })];

    banner("Table-1 cell: case study, population 200 x 20 generations");
    let seeds = 4 * plans;
    let table1 = measure_table1(&[1, 0], seeds);
    let auto_over_serial = table1[0] / table1[1];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<Vec<String>> = ["1".to_string(), format!("0 ({cores} cores)")]
        .into_iter()
        .zip(&table1)
        .map(|(threads, ms)| {
            vec![
                threads,
                seeds.to_string(),
                format!("{ms:.2}"),
                format!("{:.1}", 1e3 / ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["threads", "seeds", "ms/plan p50", "plans/s"], &rows)
    );
    println!("auto / serial plans/s: {auto_over_serial:.2}");

    banner("fleet planning: cold (cache disabled) vs warm (shared cache)");
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
    // Single-flight dedup: the fleet issued cold against one shared
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
    let hit_rate = cache.stats().hit_rate();

    println!(
        "{}",
        render_table(
            &["fleet pass", "cases", "wall ms", "GP runs"],
            &[
                vec![
                    "cold (no cache)".into(),
                    fleet.to_string(),
                    format!("{:.1}", cold_wall.as_secs_f64() * 1e3),
                    fleet.to_string(),
                ],
                vec![
                    "cold (shared cache)".into(),
                    fleet.to_string(),
                    format!("{:.1}", dedup_wall.as_secs_f64() * 1e3),
                    "1".into(),
                ],
                vec![
                    "warm (shared cache)".into(),
                    fleet.to_string(),
                    format!("{:.1}", warm_wall.as_secs_f64() * 1e3),
                    "0".into(),
                ],
            ],
        )
    );
    println!("warm speedup over cold: {warm_speedup:.0}x; cache hit rate: {hit_rate:.4}");

    let mut report = json!({
        "bench": "planner_throughput",
        "gp": {"population_size": POPULATION, "generations": GENERATIONS, "seed": GP_SEED},
        "results": results,
        "table1": {
            "population_size": 200,
            "generations": 20,
            "seeds": seeds,
            "available_parallelism": cores,
            "ms_per_plan_threads_1": table1[0],
            "ms_per_plan_threads_auto": table1[1],
            "plans_per_sec_threads_1": 1e3 / table1[0],
            "plans_per_sec_threads_auto": 1e3 / table1[1],
            "auto_over_serial": auto_over_serial,
        },
        "fleet": {
            "cases": fleet,
            "cold_wall_ms": cold_wall.as_secs_f64() * 1e3,
            "dedup_wall_ms": dedup_wall.as_secs_f64() * 1e3,
            "warm_wall_ms": warm_wall.as_secs_f64() * 1e3,
            "warm_speedup": warm_speedup,
            "cache_hit_rate": hit_rate,
            "cache_entries": cache.len(),
            "dedup_gp_runs": dedup_stats.misses,
        },
    });
    for block in CARRIED_OVER {
        if let Some(rows) = committed.get(block) {
            report[block] = rows.clone();
        }
    }
    std::fs::write(
        path,
        serde_json::to_string_pretty(&report).expect("serializes"),
    )
    .expect("write BENCH_planner.json");
    println!("wrote {path}");

    if guard {
        let mut measured = plans_per_sec;
        // Best-of-N: shared CI runners jitter wall-clock throughput far
        // more than any real regression.
        for _ in 1..GUARD_MEASUREMENTS {
            measured = measured.max(measure_gp(plans));
        }
        match baseline {
            Some(base) => {
                let floor = base * GUARD_FLOOR;
                println!(
                    "guard: GP: {measured:.2} plans/s vs committed baseline \
                     {base:.2} (floor {floor:.2})"
                );
                if measured < floor {
                    eprintln!("guard: plans/sec regressed more than 20% — failing");
                    std::process::exit(1);
                }
            }
            None => println!("guard: no committed baseline for the guard point; recording only"),
        }
        println!(
            "guard: Table-1 auto / serial {auto_over_serial:.2} (gate {AUTO_OVER_SERIAL_MIN})"
        );
        if auto_over_serial < AUTO_OVER_SERIAL_MIN {
            eprintln!("guard: default thread count slower than serial — failing");
            std::process::exit(1);
        }
        println!(
            "guard: warm fleet {warm_speedup:.0}x faster than cold (gate {WARM_SPEEDUP_MIN}x)"
        );
        if warm_speedup < WARM_SPEEDUP_MIN {
            eprintln!("guard: warm-cache fleet speedup fell below {WARM_SPEEDUP_MIN}x — failing");
            std::process::exit(1);
        }
    }
}
