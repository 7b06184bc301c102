//! Cross-commit trace anchor.
//!
//! Every other byte-identity suite in the repo compares two runs of the
//! *same* build (first vs second, crashed vs uninterrupted, warm vs
//! cold), so none of them can tell whether a refactor moved the trace.
//! This one can: it pins the record count and FNV-1a of the merged
//! JSONL of the engine's scenario shapes — flaky, clean, contended,
//! partitioned, node loss, recovery ladder, refusal, chaos, virus,
//! generated, plan churn (with and without breakers), kill→recover,
//! fleets of one (flaky, replan churn, recovery ladder), one fleet under
//! each admission policy, and that fleet killed and recovered under fair
//! share — to values computed by an earlier commit.
//! Every row also passes [`TraceQuery::check_all`].  A
//! change that claims "same behaviour" must leave the table alone; a
//! change that moves bytes on purpose regenerates the affected rows with
//!
//! ```text
//! cargo test -p gridflow-harness --test trace_golden -- --ignored --nocapture print_goldens
//! ```
//!
//! and says in CHANGES.md which rows moved and why.  To show *what*
//! moved, dump every pinned trace and the snapshot payload on both
//! commits and diff the two directories:
//!
//! ```text
//! cargo test -p gridflow-harness --test trace_golden -- --ignored dump_goldens
//! ls target/tmp/trace_golden/        # <row>.jsonl, kill-recover.snapshot.json
//! scripts/golden-diff.sh <parent's dump> <this commit's dump>
//! ```

use gridflow_engine::{CaseHints, EngineSnapshot, PolicySpec};
use gridflow_harness::workload::{
    cook_loss_churn_plan, cook_loss_churn_plan_scaled, dinner_recovery_workload,
    dinner_replan_workload, dinner_replan_workload_scaled, dinner_workload,
    virus_reconstruction_workload, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario, RecoveryPolicy, TraceQuery, TraceRecord};
use gridflow_services::PlanCacheHandle;
use gridflow_store::{fnv1a64, merged_jsonl, MemStore, Store};
use std::sync::{Arc, Mutex};

/// `(scenario, record count, fnv1a64(merged JSONL))`.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("flaky-0", 91, 0x45296ec9e5febc81),
    ("flaky-1", 108, 0x5e9dacd9917efd9e),
    ("flaky-2", 92, 0x8e0d5608ff7edc25),
    ("flaky-3", 95, 0xface3e3fd5ee5af9),
    ("flaky-4", 111, 0x1d10b90ca453baa3),
    ("flaky-5", 64, 0x2f2ad153986a23a8),
    ("flaky-6", 111, 0xf657c403aa0126a2),
    ("flaky-7", 106, 0xf81478e2d64bdd15),
    ("flaky-8", 110, 0x05bae2fd14f50586),
    ("flaky-9", 68, 0x3c32e004023cbce0),
    ("flaky-10", 53, 0x4776825ebc273487),
    ("flaky-11", 100, 0x4a34b73fc0246c62),
    ("flaky-12", 110, 0xd8496584c7602944),
    ("flaky-13", 72, 0x8e9cb819ef4bc8b3),
    ("flaky-14", 71, 0x8dbecab60ce43204),
    ("flaky-15", 111, 0x920baa641b827246),
    ("flaky-16", 100, 0x4a34b73fc0246c62),
    ("flaky-17", 111, 0xc8c3b3a367a85df9),
    ("flaky-18", 91, 0x45296ec9e5febc81),
    ("flaky-19", 72, 0x6d5f7266bd62ef22),
    ("flaky-20", 68, 0xe04f35c658767de7),
    ("flaky-21", 106, 0x8a77cc63c4fc40b3),
    ("flaky-22", 66, 0xe5bf7b38073e3c19),
    ("flaky-23", 99, 0x58284befede86b3e),
    ("flaky-24", 99, 0x4f7a3ec6bf7c088b),
    ("flaky-25", 92, 0x8e0d5608ff7edc25),
    ("flaky-26", 69, 0x8061a1409f37f3df),
    ("flaky-27", 61, 0xf462ba153f79c826),
    ("flaky-28", 74, 0x4a395f5c4f64fad1),
    ("flaky-29", 81, 0x3304215cb60bba62),
    ("flaky-30", 111, 0x16d046c78ec476ac),
    ("flaky-31", 31, 0x7a52b2bef9fa0f52),
    ("clean-1", 23, 0x4b8639238381c283),
    ("clean-2", 41, 0x2b98c813e720dce8),
    ("clean-4", 80, 0x7fdbf97ec0901c23),
    ("clean-8", 156, 0xc7f6e30ebfcd836b),
    ("contended-5", 87, 0xcbe36016fc03a971),
    ("partitioned-3", 85, 0xfc58b83033a9417f),
    ("partitioned-17", 90, 0xd6f10bb083c6fd7c),
    ("partitioned-29", 71, 0x4e139066147b8c12),
    ("node-loss-7", 62, 0x0811faa259d83b11),
    ("recovery-ladder-2", 84, 0x10dd4d52bfa5a663),
    ("recovery-ladder-13", 80, 0x46117efc60229c10),
    ("recovery-ladder-31", 99, 0xc164c4fe70026cd5),
    ("refused", 12, 0x5bc733276ab30363),
    ("chaos-0", 80, 0xf3e9532088e57a46),
    ("chaos-1", 57, 0x0220fe00e7d18a4b),
    ("chaos-2", 43, 0x881542890c6a01b8),
    ("chaos-3", 91, 0x7f93cb606e85de4a),
    ("chaos-4", 85, 0xac2d7ae04781c634),
    ("chaos-5", 64, 0xe8ed0d03494aad44),
    ("chaos-6", 72, 0x17fb79a8edfc9d7d),
    ("chaos-7", 85, 0xeab4ed319e486439),
    ("virus", 191, 0x0b0999b5d90b538e),
    ("generated-linear", 49, 0x3201290c334465d1),
    ("generated-fanout", 117, 0x01142de9c60ac05d),
    ("generated-choice", 61, 0xace7edbb62b7f4a6),
    ("generated-iterative", 89, 0x6c3cc2c30b02ca0b),
    ("churn-uncached", 292, 0x679fb1e9277c5e7a),
    ("churn-cached", 298, 0xcd0db35dc90a36f8),
    ("churn-breakers", 1899, 0x0c1df8076e3775ef),
    ("kill-recover", 81, 0x15465189e1629183),
    ("one-crash-0", 23, 0x4b8639238381c283),
    ("one-crash-1", 31, 0xc5716d2993eeed07),
    ("one-crash-2", 27, 0x0fd441fda4e00221),
    ("one-crash-3", 23, 0x4b8639238381c283),
    ("one-crash-4", 27, 0xef86cde35c360da5),
    ("one-crash-5", 27, 0xef86cde35c360da5),
    ("one-crash-6", 23, 0x4b8639238381c283),
    ("one-crash-7", 23, 0x4b8639238381c283),
    ("one-churn", 54, 0x32a6d3418a558800),
    ("one-ladder", 30, 0xcf1cdd440150d28d),
    ("policy-fifo", 234, 0x8ab8ea5e7a4189c8),
    ("policy-priority", 234, 0x8078203ee4805803),
    ("policy-fair_share", 234, 0xd520e1a1ae9b2b89),
    ("policy-deadline", 234, 0x4113c576876525b5),
    ("fair-share-kill-recover", 234, 0xd520e1a1ae9b2b89),
];

/// `(payload bytes, fnv1a64(payload))` of the snapshot the kill→recover
/// scenario recovers from: the latest one the crashed run left in the
/// store (tick 6: two cases finished, two live mid-run on one interned
/// blueprint, none waiting), so the pin covers `FiberSlim`'s format.
const GOLDEN_SNAPSHOT: (usize, u64) = (20116, 0xbe662ef9608823a3);

fn jsonl(plan: &FaultPlan, wl: &Workload, cases: usize, in_flight: usize) -> String {
    let log = MultiCaseScenario::new(plan, wl, cases)
        .max_in_flight(in_flight)
        .traced()
        .run()
        .trace
        .expect("traced");
    check(plan, wl, log.records());
    log.to_jsonl()
}

/// Every whole-trace invariant over a pinned trace, against the
/// capacities of the world it ran on.
fn check(plan: &FaultPlan, wl: &Workload, records: Vec<TraceRecord>) {
    let world = wl.fresh_world(plan, 0);
    if let Err(violations) = TraceQuery::new(records).check_all(world.capacities()) {
        panic!("{} under {plan:?}: {violations:?}", wl.name);
    }
}

/// The churn fleet of `plan_cache_conformance`: six dinner cases lose
/// both `cook` hosts and replan the same content-addressed problem.
fn churn(cache: Option<PlanCacheHandle>) -> String {
    let plan = cook_loss_churn_plan(23);
    let wl = dinner_replan_workload(11);
    let mut scenario = MultiCaseScenario::new(&plan, &wl, 6)
        .max_in_flight(6)
        .traced();
    if let Some(cache) = cache {
        scenario = scenario.plan_cache(cache);
    }
    let log = scenario.run().trace.expect("traced");
    check(&plan, &wl, log.records());
    log.to_jsonl()
}

/// The churn fleet under the standard ladder on the scaled dinner: 32
/// cases, all in flight, lose every one of four 16-slot `cook` hosts and
/// replan through a shared cache, with a breaker on every container —
/// the shape the monitoring sweep and the breaker admission filter see
/// most of.
fn churn_breakers() -> String {
    let plan = cook_loss_churn_plan_scaled(4, 23);
    let wl = dinner_replan_workload_scaled(4, 32, 7).with_recovery(RecoveryPolicy::standard());
    let log = MultiCaseScenario::new(&plan, &wl, 32)
        .max_in_flight(32)
        .traced()
        .plan_cache(PlanCacheHandle::in_proc())
        .run()
        .trace
        .expect("traced");
    check(&plan, &wl, log.records());
    log.to_jsonl()
}

/// Kill a flaky fleet mid-run, recover it from the same store, and
/// return the store's merged log plus the payload of the snapshot the
/// recovery started from.
fn kill_recover() -> (String, Vec<u8>) {
    let plan = FaultPlan::seeded(7).failing_activities(0.2);
    let wl = dinner_workload();
    let scenario = || MultiCaseScenario::new(&plan, &wl, 4).max_in_flight(2);
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    let crashed = scenario().store(store.clone(), 2).kill_at(7).run();
    assert!(crashed.engine.killed, "the run should have been killed");
    let snapshot = store
        .lock()
        .unwrap()
        .latest_snapshot()
        .unwrap()
        .expect("the crashed run snapshots before the kill tick");
    let recovered = scenario()
        .store(store.clone(), 2)
        .recover()
        .expect("recovery succeeds");
    assert!(!recovered.engine.killed);
    let stored = store.lock().unwrap().replay_from(0).unwrap();
    let merged = merged_jsonl(&stored);
    check(&plan, &wl, stored);
    (merged, snapshot.state)
}

/// Hints that set the four policies apart on one fleet: priorities
/// staggered mod 4, tenant `b` for the first eight cases and `a` after,
/// and a deadline falling with the index except on every third case,
/// which has none.
fn staggered_hints(i: usize) -> CaseHints {
    CaseHints {
        priority: (i % 4) as i64,
        tenant: Some(if i < 8 { "b" } else { "a" }.to_string()),
        deadline_tick: (i % 3 != 2).then(|| 90 - 5 * i as u64),
    }
}

/// Twelve flaky dinner cases with [`staggered_hints`], four in flight,
/// admitted under `policy`.
fn policy_fleet<'a>(
    plan: &'a FaultPlan,
    wl: &'a Workload,
    policy: PolicySpec,
) -> MultiCaseScenario<'a> {
    MultiCaseScenario::new(plan, wl, 12)
        .max_in_flight(4)
        .policy(policy)
        .case_hints(staggered_hints)
}

/// [`policy_fleet`]'s trace.  FIFO admits in submission order with no
/// reason; every other policy reorders the admissions and stamps each
/// with its reason.
fn policy_row(policy: PolicySpec) -> String {
    let plan = FaultPlan::seeded(19).failing_activities(0.1);
    let wl = dinner_workload();
    let log = policy_fleet(&plan, &wl, policy)
        .traced()
        .run()
        .trace
        .expect("traced");
    let admissions = TraceQuery::new(log.records()).admissions();
    let submitted: Vec<String> = (0..12).map(|i| format!("{}-{i}", wl.name)).collect();
    let order: Vec<String> = admissions.iter().map(|a| a.case.clone()).collect();
    let fifo = policy == PolicySpec::Fifo;
    assert_eq!(order == submitted, fifo, "{}: {order:?}", policy.name());
    assert!(
        admissions.iter().all(|a| a.reason.is_none() == fifo),
        "{}: {admissions:?}",
        policy.name()
    );
    check(&plan, &wl, log.records());
    log.to_jsonl()
}

/// Kill [`policy_fleet`] under fair share once some cases are admitted
/// and others still wait, and recover it: the merged log pins how
/// recovery replays the snapshot's admissions into the tenant counts.
fn fair_share_kill_recover() -> String {
    let plan = FaultPlan::seeded(19).failing_activities(0.1);
    let wl = dinner_workload();
    let scenario = || policy_fleet(&plan, &wl, PolicySpec::FairShare);
    let uninterrupted = scenario().traced().run().trace.expect("traced");
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    let crashed = scenario().store(store.clone(), 3).kill_at(8).run();
    assert!(crashed.engine.killed, "the run should have been killed");
    let snapshot = store
        .lock()
        .unwrap()
        .latest_snapshot()
        .unwrap()
        .expect("the crashed run snapshots before the kill tick");
    let image = EngineSnapshot::from_bytes(&snapshot.state).expect("the payload decodes");
    assert!(
        !image.admissions.is_empty() && !image.waiting.is_empty(),
        "the snapshot holds admissions and waiting cases"
    );
    scenario()
        .store(store.clone(), 3)
        .recover()
        .expect("recovery succeeds");
    let stored = store.lock().unwrap().replay_from(0).unwrap();
    let merged = merged_jsonl(&stored);
    assert_eq!(merged, uninterrupted.to_jsonl());
    check(&plan, &wl, stored);
    merged
}

/// Every pinned scenario's merged JSONL, in table order, and the
/// kill→recover snapshot payload.
fn traces() -> (Vec<(String, String)>, Vec<u8>) {
    let dinner = dinner_workload();
    let recovery = dinner_recovery_workload();
    let mut out: Vec<(String, String)> = Vec::new();
    for seed in 0..32u64 {
        let plan = FaultPlan::seeded(seed).failing_activities(0.2);
        out.push((format!("flaky-{seed}"), jsonl(&plan, &dinner, 5, 3)));
    }
    for cases in [1, 2, 4, 8] {
        out.push((
            format!("clean-{cases}"),
            jsonl(&FaultPlan::default(), &dinner, cases, 4),
        ));
    }
    out.push((
        "contended-5".into(),
        jsonl(&FaultPlan::seeded(5).losing_node("ac-h1", 0), &dinner, 4, 4),
    ));
    for seed in [3, 17, 29] {
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.1)
            .partitioning("coordinator", "ac-h0", 2, 6);
        out.push((format!("partitioned-{seed}"), jsonl(&plan, &recovery, 3, 3)));
    }
    out.push((
        "node-loss-7".into(),
        jsonl(
            &FaultPlan::seeded(7)
                .failing_activities(0.1)
                .losing_node("ac-h2", 3),
            &dinner,
            3,
            3,
        ),
    ));
    for seed in [2, 13, 31] {
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.3)
            .transient_failures();
        out.push((
            format!("recovery-ladder-{seed}"),
            jsonl(&plan, &recovery, 3, 2),
        ));
    }
    out.push((
        "refused".into(),
        jsonl(
            &FaultPlan::seeded(3)
                .losing_node("ac-h2", 0)
                .losing_node("ac-h3", 0),
            &dinner,
            3,
            2,
        ),
    ));
    // The nightly chaos sweep's plan recipe (node loss and a partition
    // window together), first eight seeds.
    for seed in 0..8u64 {
        let (wl, cases, in_flight) = if seed % 3 == 0 {
            (&recovery, 3, 2)
        } else {
            (&dinner, 4, 3)
        };
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.15)
            .losing_node(
                if seed % 2 == 0 { "ac-h1" } else { "ac-h4" },
                seed as usize % 5,
            )
            .partitioning(
                "coordinator",
                if seed % 2 == 0 { "ac-h2" } else { "ac-h0" },
                1 + seed % 3,
                4 + seed % 4,
            );
        out.push((format!("chaos-{seed}"), jsonl(&plan, wl, cases, in_flight)));
    }
    out.push((
        "virus".into(),
        jsonl(
            &FaultPlan::default(),
            &virus_reconstruction_workload(),
            2,
            16,
        ),
    ));
    for shape in GraphShape::ALL {
        let wl = WorkloadGen::new(42)
            .shape(shape)
            .width(3)
            .depth(2)
            .heterogeneous_capacity(true)
            .build();
        out.push((
            format!("generated-{}", shape.name()),
            jsonl(&FaultPlan::default(), &wl, 3, 2),
        ));
    }
    out.push(("churn-uncached".into(), churn(None)));
    out.push((
        "churn-cached".into(),
        churn(Some(PlanCacheHandle::in_proc())),
    ));
    out.push(("churn-breakers".into(), churn_breakers()));
    let (merged, snapshot) = kill_recover();
    out.push(("kill-recover".into(), merged));
    // A lone case is a fleet of one.
    for (name, plan, wl) in fleet_of_one_plans() {
        out.push((name, jsonl(&plan, &wl, 1, 1)));
    }
    for policy in PolicySpec::ALL {
        out.push((format!("policy-{}", policy.name()), policy_row(policy)));
    }
    out.push(("fair-share-kill-recover".into(), fair_share_kill_recover()));
    (out, snapshot)
}

/// The fleet-of-one plans: the flaky dinner (eight seeds), the replan
/// churn and the recovery ladder.  `tests/store_crash_replay.rs` kills
/// the same ten at every tick.
fn fleet_of_one_plans() -> Vec<(String, FaultPlan, Workload)> {
    let mut out: Vec<(String, FaultPlan, Workload)> = (0..8u64)
        .map(|seed| {
            (
                format!("one-crash-{seed}"),
                FaultPlan::seeded(seed).failing_activities(0.2),
                dinner_workload(),
            )
        })
        .collect();
    out.push((
        "one-churn".into(),
        cook_loss_churn_plan(23),
        dinner_replan_workload(11),
    ));
    out.push((
        "one-ladder".into(),
        FaultPlan::seeded(2)
            .failing_activities(0.3)
            .transient_failures(),
        dinner_recovery_workload(),
    ));
    out
}

/// Compare `(name, jsonl)` rows against a pinned table, listing every
/// row that moved.
fn check_rows(rows: &[(String, String)], golden: &[(&str, usize, u64)], moved: &mut Vec<String>) {
    assert_eq!(rows.len(), golden.len(), "scenario list and table differ");
    for ((name, jsonl), &(golden_name, records, hash)) in rows.iter().zip(golden) {
        assert_eq!(name, golden_name, "scenario order and table order differ");
        let got = (jsonl.lines().count(), fnv1a64(jsonl.as_bytes()));
        if got != (records, hash) {
            moved.push(format!(
                "{name}: pinned ({records}, {hash:#018x}), got ({}, {:#018x})",
                got.0, got.1
            ));
        }
    }
}

fn print_rows(table: &str, rows: &[(String, String)]) {
    println!("const {table}: &[(&str, usize, u64)] = &[");
    for (name, jsonl) in rows {
        println!(
            "    ({name:?}, {}, {:#018x}),",
            jsonl.lines().count(),
            fnv1a64(jsonl.as_bytes())
        );
    }
    println!("];");
}

#[test]
fn traces_match_the_pinned_goldens() {
    let (traces, snapshot) = traces();
    let mut moved = Vec::new();
    check_rows(&traces, GOLDEN, &mut moved);
    let got = (snapshot.len(), fnv1a64(&snapshot));
    if got != GOLDEN_SNAPSHOT {
        moved.push(format!(
            "kill-recover snapshot payload: pinned ({}, {:#018x}), got ({}, {:#018x})",
            GOLDEN_SNAPSHOT.0, GOLDEN_SNAPSHOT.1, got.0, got.1
        ));
    }
    assert!(
        moved.is_empty(),
        "the trace moved across commits:\n{}",
        moved.join("\n")
    );
}

#[test]
#[ignore = "regenerates the golden tables; paste its output over the GOLDEN* constants"]
fn print_goldens() {
    let (traces, snapshot) = traces();
    print_rows("GOLDEN", &traces);
    println!(
        "const GOLDEN_SNAPSHOT: (usize, u64) = ({}, {:#018x});",
        snapshot.len(),
        fnv1a64(&snapshot)
    );
}

#[test]
#[ignore = "writes every pinned trace and the snapshot payload under target/tmp/trace_golden"]
fn dump_goldens() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_golden");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the dump directory is creatable");
    let write = |file: String, bytes: &[u8]| {
        std::fs::write(dir.join(file), bytes).expect("the dump directory is writable")
    };
    let (traces, snapshot) = traces();
    for (name, jsonl) in &traces {
        write(format!("{name}.jsonl"), jsonl.as_bytes());
    }
    write("kill-recover.snapshot.json".into(), &snapshot);
    println!("dumped to {}", dir.display());
}
