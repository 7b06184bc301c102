//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds.  `BENCHMARK.json` at the repository
//! root is `gridflow-benchmark spec` printed to a file; a unit test keeps
//! the two equal.

use serde_json::{json, Value};

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// A workload and the reason it is in the benchmark.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "fleet-contended",
        why: "2048 dinner cases, 64 in flight, 8 containers: blocked fibers, wait-sets, admission and trace emission do the work; store and planner idle",
    },
    WorkloadSpec {
        name: "fleet-wide",
        why: "2048 dinner cases, 512 in flight, 256 containers: hundreds of ready fibers per tick, so matchmaking, ATN advance and dispatch dominate",
    },
    WorkloadSpec {
        name: "shapes-policies",
        why: "seeded FORK/JOIN and CHOICE/MERGE shapes and the ITERATIVE Fig. 10 virus case under all four admission policies: process and engine::policy",
    },
    WorkloadSpec {
        name: "durable-journal",
        why: "512 contended cases journalled to a FileStore with a snapshot every 32 ticks: the write side of store and engine::snapshot",
    },
    WorkloadSpec {
        name: "crash-recover",
        why: "reopen a store killed 9 ticks before the end and recover the fleet: segment read, decode, snapshot hydrate, byte-verified overlap",
    },
    WorkloadSpec {
        name: "plan-cold",
        why: "GP planning of the case-study problem at Table 1 parameters, distinct seeds, no cache: only planner and plan run",
    },
    WorkloadSpec {
        name: "replan-churn",
        why: "512 cases lose every cook host and replan through PlanningService and a fresh plan cache: faults, recovery ladder, one miss and N-1 hits",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: reported on every workload, never 0, guarded by
/// `bound` (the share of the baseline median it may worsen by).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "success_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "output_bytes_per_unit",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by the traced run only, no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 84] = [
    lower("harness.workload_build_ms", "ms"),
    lower("harness.fresh_world_us", "us"),
    lower("process.parse_us", "us"),
    lower("process.lower_us", "us"),
    lower("process.atn_step_ns", "ns"),
    lower("process.atn_restore_ns", "ns"),
    lower("process.activities", "count"),
    lower("plan.tree_to_graph_us", "us"),
    lower("plan.graph_to_tree_us", "us"),
    lower("planner.plan_ms_p50", "ms"),
    lower("planner.plan_ms_p90", "ms"),
    lower("planner.generation_ms", "ms"),
    lower("planner.evaluations_per_plan", "count"),
    lower("planner.evaluate_us", "us"),
    lower("planner.simulate_us", "us"),
    lower("planner.plan_key_us", "us"),
    lower("planner.best_size_mean", "count"),
    higher("planner.best_fitness_mean", "score"),
    lower("ontology.query_us", "us"),
    lower("grid.containers", "count"),
    lower("grid.slots", "count"),
    lower("agents.frame_encode_ns", "ns"),
    lower("agents.frame_decode_ns", "ns"),
    lower("agents.tcp_ping_us_p50", "us"),
    lower("services.matchmake_us", "us"),
    lower("services.match_index_build_us", "us"),
    lower("services.enact_single_case_us", "us"),
    lower("services.plan_cold_ms", "ms"),
    lower("services.plan_warm_us", "us"),
    higher("services.plan_cache_hits", "count"),
    lower("services.plan_cache_misses", "count"),
    lower("services.plan_coalesced", "count"),
    lower("telemetry.records", "count"),
    lower("telemetry.records_per_case", "count"),
    lower("telemetry.emit_busy_s", "s"),
    lower("telemetry.emit_ns", "ns"),
    lower("telemetry.to_jsonl_ms", "ms"),
    lower("telemetry.from_jsonl_ms", "ms"),
    lower("telemetry.jsonl_bytes", "bytes"),
    lower("telemetry.invariants_ms", "ms"),
    lower("recovery.retries", "count"),
    lower("recovery.lease_expiries", "count"),
    lower("recovery.breaker_opens", "count"),
    lower("recovery.replans", "count"),
    lower("engine.run_untraced_s", "s"),
    lower("engine.run_traced_s", "s"),
    lower("engine.run_memstore_s", "s"),
    lower("engine.run_filestore_s", "s"),
    lower("engine.self_s", "s"),
    lower("engine.ticks", "count"),
    lower("engine.blocked_ticks", "count"),
    lower("engine.tick_us_p50", "us"),
    lower("engine.tick_us_p99", "us"),
    lower("engine.makespan_ticks_p50", "ticks"),
    lower("engine.makespan_ticks_p99", "ticks"),
    lower("engine.snapshot_tick_ms_p50", "ms"),
    lower("engine.snapshot_bytes", "bytes"),
    lower("engine.snapshot_encode_ms", "ms"),
    lower("engine.snapshot_decode_ms", "ms"),
    lower("engine.policy_fifo_s", "s"),
    lower("engine.policy_priority_s", "s"),
    lower("engine.policy_fair_share_s", "s"),
    lower("engine.policy_deadline_s", "s"),
    lower("engine.recover_restore_ms", "ms"),
    lower("store.append_busy_s", "s"),
    lower("store.append_calls", "count"),
    lower("store.records", "count"),
    lower("store.snapshot_busy_s", "s"),
    lower("store.snapshots", "count"),
    lower("store.mem_append_busy_s", "s"),
    lower("store.mem_snapshot_busy_s", "s"),
    lower("store.encode_event_ns", "ns"),
    lower("store.decode_record_ns", "ns"),
    lower("store.open_ms", "ms"),
    lower("store.replay_from_ms", "ms"),
    lower("store.latest_snapshot_ms", "ms"),
    lower("store.bytes_on_disk", "bytes"),
    lower("store.segments", "count"),
    lower("store.write_amp", "ratio"),
    lower("core.lab_solve_ms", "ms"),
    lower("bench.host_factor", "ratio"),
    lower("bench.raw_wall_s", "s"),
    lower("bench.rep_iqr_share", "share"),
    lower("bench.trace_overhead_share", "share"),
];

/// The unit of a metric by name, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The end-to-end metric of that name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Is `name` a workload of this benchmark?
pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

fn chars_ok(s: &str, extra: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// A name: 1..=64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && chars_ok(name, "_.-")
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// A unit: 1..=16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len()) && chars_ok(unit, "_/%.-")
}

/// Check the tables above against the limits of the benchmark contract.
pub fn validate() -> Result<(), String> {
    if !(2..=8).contains(&WORKLOADS.len()) {
        return Err(format!("{} workloads; 2 to 8 allowed", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        return Err(format!(
            "{} end-to-end metrics; 1 to 16 allowed",
            END_TO_END.len()
        ));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        return Err(format!(
            "{} per-layer metrics; 1 to 128 allowed",
            PER_LAYER.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let names = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!("invalid name `{name}`"));
        }
        if !seen.insert(name) {
            return Err(format!("name `{name}` is used twice"));
        }
    }
    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        if !valid_unit(unit) {
            return Err(format!("invalid unit `{unit}`"));
        }
    }
    for w in &WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "`why` of `{}` is not one line of at most 200 characters",
                w.name
            ));
        }
    }
    for m in &END_TO_END {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("bound of `{}` is outside (0, 0.25]", m.name));
        }
    }
    match end_to_end("setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => Ok(()),
        _ => Err("`setup_s` (s, lower) is required".into()),
    }
}

/// `BENCHMARK.json` as a value.
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.name(), "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.name()}))
        .collect();
    json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_meet_the_contract_limits() {
        validate().unwrap();
    }

    #[test]
    fn names_and_units_are_validated() {
        for good in ["a", "fleet-wide", "engine.tick_us_p99", "9lives", "A_b.c-d"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "-lead",
            ".lead",
            "has space",
            "slash/ed",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "%", "MB", "us"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn lookups_find_both_kinds_of_metric() {
        assert_eq!(unit_of("setup_s"), Some("s"));
        assert_eq!(unit_of("store.write_amp"), Some("ratio"));
        assert_eq!(unit_of("nope"), None);
        assert!(is_workload("plan-cold") && !is_workload("plan-warm"));
        assert_eq!(end_to_end("throughput_per_s").unwrap().bound, 0.20);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `gridflow-benchmark spec`"
        );
    }
}
