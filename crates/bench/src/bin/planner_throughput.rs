//! **Planner throughput — GP search and the fleet-shared plan cache.**
//!
//! Three sweeps, reported into `BENCH_planner.json`:
//!
//! 1. **GP search throughput** — repeated full GP runs of the dinner
//!    planning problem (population 80 × 25 generations), reporting
//!    plans/sec and generations/sec.
//! 2. **Cold vs warm fleet planning** — an identical-goal fleet of N
//!    planning requests, once with the cache disabled (N full GP runs)
//!    and once against a pre-warmed [`PlanCacheHandle`] (N content-
//!    addressed hits), reporting both wall times, the speedup, and the
//!    cache hit rate.
//! 3. **Single-flight dedup** — the same fleet issued cold against one
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
//! fleet-scale claim honest.

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

/// The committed baseline GP plans/sec, if the report on disk has one.
fn baseline_plans_per_sec(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let report: serde_json::Value = serde_json::from_str(&text).ok()?;
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
    let baseline = guard.then(|| baseline_plans_per_sec(path)).flatten();

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

    let report = json!({
        "bench": "planner_throughput",
        "gp": {"population_size": POPULATION, "generations": GENERATIONS, "seed": GP_SEED},
        "results": results,
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
            "guard: warm fleet {warm_speedup:.0}x faster than cold (gate {WARM_SPEEDUP_MIN}x)"
        );
        if warm_speedup < WARM_SPEEDUP_MIN {
            eprintln!("guard: warm-cache fleet speedup fell below {WARM_SPEEDUP_MIN}x — failing");
            std::process::exit(1);
        }
    }
}
