//! Conformance suite for the fleet-shared, content-addressed plan
//! cache.
//!
//! The cache's contract has two planks:
//!
//! 1. **Caching is a pure performance knob** — GP planning is a
//!    deterministic function of `(seed, problem)`, so a cache hit
//!    returns the byte-identical plan a fresh run would have produced.
//!    A warm-cache fleet trace differs from a cold one *only* in its
//!    deterministic `plan.cache_*` announcements, and with the cache
//!    disabled the trace is byte-identical to the legacy (pre-cache)
//!    one.
//! 2. **Fleet-scale dedup** — an identical-goal fleet of any size runs
//!    GP once per distinct key, provable from the merged trace alone:
//!    every trace produced here passes [`TraceQuery::check_all`], which
//!    includes `check_plans_at_most_once_per_key`.

use gridflow_harness::workload::{
    cook_loss_churn_plan, cook_loss_churn_plan_scaled, dinner_replan_workload,
    dinner_replan_workload_scaled,
};
use gridflow_harness::{MultiCaseScenario, TraceQuery, Workload};
use gridflow_services::PlanCacheHandle;
use gridflow_telemetry::{TraceEvent, TraceRecord};

/// The replan-under-churn scenario: a fleet of identical dinner cases
/// loses both `cook` hosts right after everyone has prepped, so every
/// case escalates to the GP planner with the same content-addressed
/// problem (goal `Plated`, produced `Prepped`, excluded `cook`).  The
/// merged trace is checked before it is returned.
fn churn_records(fleet: usize, cache: Option<&PlanCacheHandle>) -> Vec<TraceRecord> {
    let plan = cook_loss_churn_plan(23);
    let wl = dinner_replan_workload(11);
    let mut scenario = MultiCaseScenario::new(&plan, &wl, fleet)
        .max_in_flight(fleet)
        .traced();
    if let Some(cache) = cache {
        scenario = scenario.plan_cache(cache.clone());
    }
    let outcome = scenario.run();
    assert!(
        outcome.engine.all_succeeded(),
        "churn fleet failed: {:?}",
        outcome.engine.cases
    );
    checked(&wl, outcome.trace.expect("traced").records())
}

/// `records`, which must keep every whole-trace invariant against the
/// capacities of `wl`'s world.
fn checked(wl: &Workload, records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    let world = wl.world_builder.build();
    let q = TraceQuery::new(records.clone());
    assert_eq!(q.check_all(world.capacities()), Ok(()), "{}", wl.name);
    records
}

/// Strip `seq` so traces can be compared after filtering out records
/// (removal renumbers everything downstream).
fn essence(records: &[TraceRecord]) -> Vec<(u64, String, String, TraceEvent)> {
    records
        .iter()
        .map(|r| {
            (
                r.tick,
                format!("{}", r.at_s),
                r.source.to_string(),
                r.event.clone(),
            )
        })
        .collect()
}

// ------------------------------------------------------------------ 1

#[test]
fn warm_trace_differs_from_cold_only_in_cache_events() {
    const FLEET: usize = 6;
    let disabled = churn_records(FLEET, None);
    let cache = PlanCacheHandle::in_proc();
    let cold = churn_records(FLEET, Some(&cache));
    let warm = churn_records(FLEET, Some(&cache));

    // Cold: the first replan runs GP, the rest of the fleet hits
    // the entry it published.  Warm: everyone hits.
    let cold_q = TraceQuery::new(cold.clone());
    assert_eq!(cold_q.plan_runs(), 1);
    assert_eq!(cold_q.plan_cache_hits(), FLEET - 1);
    let warm_q = TraceQuery::new(warm.clone());
    assert_eq!(warm_q.plan_runs(), 0, "warm fleet must not run GP");
    assert_eq!(warm_q.plan_cache_hits(), FLEET);

    // Warm vs cold: byte-identical except the deterministic
    // `plan.cache_*` records (the cold leader's miss reads as a hit
    // when the fleet starts warm).
    assert_eq!(cold.len(), warm.len());
    for (c, w) in cold.iter().zip(&warm) {
        if c == w {
            continue;
        }
        assert!(
            c.event.label().starts_with("plan.cache_"),
            "non-cache divergence at seq {}: {c:?} vs {w:?}",
            c.seq
        );
        assert_eq!(c.event.plan_key(), w.event.plan_key());
        assert_eq!((c.seq, c.tick, &c.source), (w.seq, w.tick, &w.source));
    }

    // Cache disabled: zero new events — the trace is the cold one
    // with its cache announcements filtered out.
    assert!(essence(&disabled)
        .iter()
        .all(|(_, _, _, e)| e.plan_key().is_none()));
    let cold_sans_cache: Vec<_> = essence(&cold)
        .into_iter()
        .filter(|(_, _, _, e)| e.plan_key().is_none())
        .collect();
    assert_eq!(essence(&disabled), cold_sans_cache);
}

// ------------------------------------------------------------------ 2

#[test]
fn identical_goal_fleet_of_512_plans_exactly_once() {
    const FLEET: usize = 512;
    const REPLICAS: usize = 32; // 32 replicas × capacity 16 = 512 slots
    let plan = cook_loss_churn_plan_scaled(REPLICAS, 29);
    let mut wl: Workload = dinner_replan_workload_scaled(REPLICAS, FLEET, 7);
    // The fleet plans once; keep that single GP run small so the test
    // measures dedup, not search effort.
    wl.config.gp.population_size = 40;
    wl.config.gp.generations = 10;
    let cache = PlanCacheHandle::in_proc();
    let outcome = MultiCaseScenario::new(&plan, &wl, FLEET)
        .max_in_flight(FLEET)
        .plan_cache(cache.clone())
        .traced()
        .run();
    assert!(
        outcome.engine.all_succeeded(),
        "fleet failed: {:?}",
        outcome
            .engine
            .cases
            .iter()
            .filter(|c| !c.report.success)
            .take(3)
            .collect::<Vec<_>>()
    );
    let q = TraceQuery::new(checked(&wl, outcome.trace.expect("traced").records()));
    assert_eq!(q.plan_runs(), 1, "512 identical replans must share 1 run");
    assert_eq!(q.plan_cache_hits(), FLEET - 1);
    assert_eq!(cache.len(), 1, "one content-addressed entry");
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, (FLEET - 1) as u64));
    assert!(stats.hit_rate() > 0.99, "hit rate {}", stats.hit_rate());
}

// ------------------------------------------------------------------ sanity

#[test]
fn disabled_cache_fleet_still_replans_per_case() {
    // Without a cache every case runs its own GP — the legacy behavior
    // the cache exists to collapse.  `plan_runs` falls back to counting
    // generation-zero events when no cache events exist.
    let records = churn_records(3, None);
    let q = TraceQuery::new(records);
    assert_eq!(q.plan_runs(), 3);
    assert_eq!(q.plan_cache_hits(), 0);
}
