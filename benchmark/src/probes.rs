//! Direct probes: each layer's public functions timed on their own.
//!
//! The probes with a `workload` argument take their inputs from the
//! workload under test (its graph, case and world); the others run on
//! fixed inputs — the paper's case study, the dinner planning problem —
//! and read the same on every workload.  Every probe goes through `pub`
//! items only; see the README for the ones that had to be left out.

use crate::calib::bracketed;
use crate::fleet::{staggered_hints, Fleet, SharedStore};
use crate::scratch::Scratch;
use crate::spans::{Recorder, RunSpans, TimedStore};
use crate::stats::median;
use crate::workloads::{copy_dir, dir_bytes, segment_count};
use gridflow::casestudy;
use gridflow::experiments::table1_config;
use gridflow::lab::VirtualLab;
use gridflow_agents::wire::{encode_frame, read_frame};
use gridflow_agents::{
    AclMessage, Directory, Frame, NodeServer, Performative, RetryCfg, TcpChannel,
};
use gridflow_engine::{EngineSnapshot, PolicySpec};
use gridflow_harness::workload::{
    dinner_case_for_fleet, dinner_workload, dinner_world, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::FaultPlan;
use gridflow_ontology::query::{Query, SlotCond};
use gridflow_ontology::Value as OntologyValue;
use gridflow_plan::{graph_to_tree, tree_to_graph};
use gridflow_planner::evaluate;
use gridflow_planner::prelude::{simulate, GoalSpec, GpConfig, GpPlanner, PlanKey};
use gridflow_process::lower::lower;
use gridflow_process::parser::parse_process;
use gridflow_process::printer::print;
use gridflow_process::recover::recover;
use gridflow_process::AtnMachine;
use gridflow_services::matchmaking::matchmake;
use gridflow_services::{
    Enactor, MatchIndex, MatchRequest, PlanCacheHandle, PlanRequest, PlanningService,
};
use gridflow_store::record::{decode_record, encode_event, Decoded};
use gridflow_store::{FileStore, MemStore, Store};
use gridflow_telemetry::{TraceLog, TraceQuery};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How long a micro-probe samples.
const PROBE_BUDGET: Duration = Duration::from_millis(60);
/// Fleet size of the attribution ladder (÷ the quick divisor).
pub const LADDER_CASES: usize = 512;
/// Passes over the ladder; each rung reports its median.
const LADDER_PASSES: usize = 3;

/// Median normalised seconds per call of `f`.  Calls are sampled in
/// batches sized so that a batch outlasts the clock's resolution by far,
/// and the whole probe sits between two calibration passes like a rep.
fn per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let once = {
        let start = Instant::now();
        black_box(f());
        start.elapsed().as_secs_f64().max(1e-9)
    };
    let batch = ((200e-6 / once).ceil() as usize).clamp(1, 100_000);
    let (sample, ()) = bracketed(|| {
        let mut samples = Vec::new();
        let begin = Instant::now();
        while samples.len() < 5 || begin.elapsed() < PROBE_BUDGET {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(start.elapsed().as_secs_f64() / batch as f64);
        }
        (median(&samples), ())
    });
    sample.norm_s()
}

/// Normalised seconds of one call of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let (sample, value) = bracketed(|| {
        let start = Instant::now();
        let value = f();
        (start.elapsed().as_secs_f64(), value)
    });
    (sample.norm_s(), value)
}

// ------------------------------------------------- on the workload's inputs

/// `harness`, `process`, `grid` and `services` probes on the inputs of
/// the workload under test.
pub fn workload_probes(
    workload: &Workload,
    plan: &FaultPlan,
    rebuild: &dyn Fn() -> Workload,
    out: &mut Metrics,
) {
    out.insert("harness.workload_build_ms", per_call(rebuild) * 1e3);
    out.insert(
        "harness.fresh_world_us",
        per_call(|| workload.fresh_world(plan, 0)) * 1e6,
    );

    let graph = &workload.graph;
    // The graph's own source text, recovered through Figs. 4-7; a graph
    // that is not block-structured falls back to the dinner source.
    let source = recover(graph)
        .map(|ast| print(&ast))
        .unwrap_or_else(|_| "BEGIN prep; cook; plate; END".to_owned());
    out.insert(
        "process.parse_us",
        per_call(|| parse_process(&source)) * 1e6,
    );
    if let Ok(ast) = parse_process(&source) {
        out.insert("process.lower_us", per_call(|| lower("probe", &ast)) * 1e6);
    }
    out.insert("process.activities", graph.activities().len() as f64);

    // Token game over the initial data state: conditions that need data
    // a service would have produced end the walk early, so the figure is
    // per step taken, construction and start included.
    let state = &workload.case.initial_data;
    let walk = || {
        let mut steps = 1usize;
        let Ok(mut machine) = AtnMachine::new(graph) else {
            return steps;
        };
        if machine.start(state).is_err() {
            return steps;
        }
        while let Some(id) = machine.ready().first().cloned() {
            if steps >= 256 || machine.run_activity(&id, state).is_err() {
                break;
            }
            steps += 1;
        }
        steps
    };
    let steps = walk();
    out.insert("process.atn_step_ns", per_call(walk) / steps as f64 * 1e9);
    if let Ok(mut machine) = AtnMachine::new(graph) {
        if machine.start(state).is_ok() {
            let snapshot = machine.snapshot();
            // The clone stands for the engine handing the image over by value.
            out.insert(
                "process.atn_restore_ns",
                per_call(|| AtnMachine::restore(graph, snapshot.clone()).is_ok()) * 1e9,
            );
        }
    }

    let world = workload.fresh_world(plan, 0);
    out.insert("grid.containers", world.topology.containers.len() as f64);
    out.insert(
        "grid.slots",
        world
            .topology
            .containers
            .iter()
            .map(|c| world.capacity_of(&c.id))
            .sum::<usize>() as f64,
    );
    let requests: Vec<MatchRequest> = graph
        .end_user_activities()
        .filter_map(|a| a.service.clone())
        .filter(|s| world.offering(s).is_ok())
        .map(MatchRequest::for_service)
        .collect();
    if !requests.is_empty() {
        let all = per_call(|| {
            requests
                .iter()
                .map(|r| matchmake(&world, r).map_or(0, |m| m.len()))
                .sum::<usize>()
        });
        out.insert("services.matchmake_us", all / requests.len() as f64 * 1e6);
    }
    out.insert(
        "services.match_index_build_us",
        per_call(|| MatchIndex::build(&world)) * 1e6,
    );

    // One case on a private world: fleet time ÷ N minus this is what the
    // engine adds per case.
    let (sample, ()) = bracketed(|| {
        let mut samples = Vec::new();
        let begin = Instant::now();
        while samples.len() < 5 || begin.elapsed() < PROBE_BUDGET {
            let mut private = workload.fresh_world(plan, 0);
            let enactor = Enactor::builder().config(workload.config.clone()).build();
            let start = Instant::now();
            black_box(enactor.enact(&mut private, graph, &workload.case));
            samples.push(start.elapsed().as_secs_f64());
        }
        (median(&samples), ())
    });
    out.insert("services.enact_single_case_us", sample.norm_s() * 1e6);
}

// ------------------------------------------------------------ fixed inputs

fn plan_probes(out: &mut Metrics) {
    let graph = casestudy::process_description();
    if let Ok(tree) = graph_to_tree(&graph) {
        out.insert(
            "plan.graph_to_tree_us",
            per_call(|| graph_to_tree(&graph)) * 1e6,
        );
        out.insert(
            "plan.tree_to_graph_us",
            per_call(|| tree_to_graph("probe", &tree)) * 1e6,
        );
    }
}

fn planner_probes(out: &mut Metrics) {
    const PLANS: u64 = 6;
    let problem = casestudy::planning_problem();
    let config = |seed| GpConfig {
        seed,
        threads: 1,
        ..table1_config()
    };
    let mut generation_s = Vec::new();
    let mut evaluations = 0.0;
    let mut sizes = 0.0;
    let mut fitness = 0.0;
    let mut best = None;
    for seed in 0..PLANS {
        let planner = GpPlanner::new(config(seed), problem.clone());
        let (s, result) = timed(|| planner.run());
        generation_s.push(s / result.history.len().max(1) as f64);
        evaluations += result.evaluations as f64;
        sizes += result.best_fitness.size as f64;
        fitness += result.best_fitness.overall;
        best = Some(result.best);
    }
    out.insert("planner.generation_ms", median(&generation_s) * 1e3);
    out.insert("planner.evaluations_per_plan", evaluations / PLANS as f64);
    out.insert("planner.best_size_mean", sizes / PLANS as f64);
    out.insert("planner.best_fitness_mean", fitness / PLANS as f64);
    let best = best.expect("at least one plan ran");
    let cfg = config(0);
    out.insert(
        "planner.evaluate_us",
        per_call(|| evaluate(&best, &problem, cfg.smax, cfg.weights, cfg.flow_cap)) * 1e6,
    );
    out.insert(
        "planner.simulate_us",
        per_call(|| simulate(&best, &problem)) * 1e6,
    );
    out.insert(
        "planner.plan_key_us",
        per_call(|| PlanKey::compute(&cfg, &problem, &[])) * 1e6,
    );
}

fn ontology_probe(out: &mut Metrics) {
    let kb = casestudy::ontology_instances();
    let query = Query::And(vec![
        Query::cond(SlotCond::Eq(
            "Classification".into(),
            OntologyValue::str("3D Model"),
        )),
        Query::cond(SlotCond::Gt("Size".into(), OntologyValue::Int(50_000))),
    ]);
    out.insert(
        "ontology.query_us",
        per_call(|| query.run(&kb, None).len()) * 1e6,
    );
}

fn agents_probes(out: &mut Metrics) {
    let frame = Frame::Deliver(AclMessage::new(
        Performative::Request,
        "coordination",
        "planning",
        "gridflow",
        serde_json::json!({"case": "dinner-17", "goals": ["Plated"], "excluded": ["cook"]}),
    ));
    out.insert(
        "agents.frame_encode_ns",
        per_call(|| encode_frame(&frame)) * 1e9,
    );
    if let Ok(bytes) = encode_frame(&frame) {
        out.insert(
            "agents.frame_decode_ns",
            per_call(|| read_frame(&mut bytes.as_slice()).is_ok()) * 1e9,
        );
    }
    // Loopback only.  A sandbox without loopback leaves the metric at 0.
    match NodeServer::serve("127.0.0.1:0", Directory::new()) {
        Ok(mut server) => {
            let channel = TcpChannel::new(
                server.local_addr().to_string(),
                Duration::from_secs(1),
                RetryCfg::default(),
            );
            let (sample, pings) = bracketed(|| {
                let pings: Vec<f64> = (0..200)
                    .filter_map(|_| channel.ping().ok())
                    .map(|d| d.as_secs_f64())
                    .collect();
                (median(&pings), pings)
            });
            drop(channel);
            server.shutdown();
            if !pings.is_empty() {
                out.insert("agents.tcp_ping_us_p50", sample.norm_s() * 1e6);
            }
        }
        Err(e) => eprintln!("agents.tcp_ping_us_p50 not measured: {e}"),
    }
}

fn planning_service_probes(out: &mut Metrics) {
    let world = dinner_world();
    let request = PlanRequest {
        initial: vec!["Raw".into()],
        goals: vec![GoalSpec {
            classification: "Plated".into(),
            min_count: 1,
        }],
        produced: vec![],
        excluded: vec![],
    };
    // The replanning workload's GP shape.
    let config = GpConfig {
        population_size: 80,
        generations: 25,
        seed: 11,
        threads: 1,
        ..GpConfig::default()
    };
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..3 {
        let service = PlanningService::new(config).with_plan_cache(PlanCacheHandle::in_proc());
        cold.push(timed(|| service.plan(&world, &request).is_ok()).0);
        warm.push(per_call(|| service.plan(&world, &request).is_ok()));
    }
    out.insert("services.plan_cold_ms", median(&cold) * 1e3);
    out.insert("services.plan_warm_us", median(&warm) * 1e6);
}

fn lab_probe(out: &mut Metrics) {
    let mut samples = Vec::new();
    for _ in 0..2 {
        let mut lab = VirtualLab::new(0, 7);
        lab.gp.threads = 1;
        lab.enactment.gp.threads = 1;
        samples.push(timed(|| lab.solve().is_ok()).0);
    }
    out.insert("core.lab_solve_ms", median(&samples) * 1e3);
}

fn policy_probes(seed: u64, cases: usize, out: &mut Metrics) {
    let workload = WorkloadGen::new(seed)
        .shape(GraphShape::FanOutJoin)
        .width(3)
        .depth(2)
        .fleet(cases)
        .build();
    let plan = FaultPlan::seeded(seed);
    for (policy, name) in PolicySpec::ALL.into_iter().zip([
        "engine.policy_fifo_s",
        "engine.policy_priority_s",
        "engine.policy_fair_share_s",
        "engine.policy_deadline_s",
    ]) {
        let mut fleet = Fleet::new(&plan, &workload, cases, 64);
        fleet.policy = policy;
        fleet.hints = Some(staggered_hints);
        let samples: Vec<f64> = (0..5)
            .map(|_| timed(|| fleet.run(true, None, None)).0)
            .collect();
        out.insert(name, median(&samples));
    }
}

// ------------------------------------------------------------- the ladder

/// The N=512 attribution ladder: the contended dinner untraced, traced,
/// journalled to a `MemStore`, journalled to a `FileStore`.  Successive
/// differences are the cost of tracing, of the engine-side journal and
/// snapshot work, and of file I/O.  The store rungs run behind
/// [`TimedStore`] (two clock reads per store call, a few hundred calls),
/// which also yields the `store.*` busy times; the file rung's directory
/// then serves the read-side probes.
///
/// Returns the file rung's spans, for the span dump.
pub fn ladder(
    seed: u64,
    cases: usize,
    scratch: &Scratch,
    out: &mut Metrics,
) -> Result<RunSpans, String> {
    let plan = FaultPlan::seeded(seed);
    let mut workload = dinner_workload();
    workload.case = dinner_case_for_fleet(cases);
    let fleet = Fleet::new(&plan, &workload, cases, 64);
    let recorder = Recorder::new();

    let mut rungs: [Vec<f64>; 4] = Default::default();
    let mut mem_busy = (Vec::new(), Vec::new());
    // The last pass's traced log, file-rung spans, their host factor,
    // and the store directory.
    let mut kept: Option<(TraceLog, RunSpans, f64, std::path::PathBuf)> = None;
    for _ in 0..LADDER_PASSES {
        rungs[0].push(timed(|| fleet.run(false, None, None)).0);
        let (s, (_, log)) = timed(|| fleet.run(true, None, None));
        rungs[1].push(s);
        let log = log.expect("traced");

        let (sample, spans) = bracketed(|| {
            let mem: SharedStore = Arc::new(Mutex::new(TimedStore::new(
                MemStore::new(),
                recorder.clone(),
            )));
            recorder.begin_run();
            fleet.run(true, Some(mem), None);
            let spans = recorder.end_run();
            (spans.duration_s(), spans)
        });
        rungs[2].push(sample.norm_s());
        mem_busy
            .0
            .push(spans.store_busy_s(false) / sample.host_factor());
        mem_busy
            .1
            .push(spans.store_busy_s(true) / sample.host_factor());

        let dir = scratch.subdir("ladder");
        let (sample, (spans, outcome)) = bracketed(|| {
            recorder.begin_run();
            let (store, _) = FileStore::open(&dir, 4096).expect("fresh store opens");
            let file: SharedStore = Arc::new(Mutex::new(TimedStore::new(store, recorder.clone())));
            let (outcome, _) = fleet.run(true, Some(file), Some(recorder.clone()));
            let spans = recorder.end_run();
            (spans.duration_s(), (spans, outcome))
        });
        rungs[3].push(sample.norm_s());
        if !outcome.all_succeeded() {
            return Err("a ladder run did not fully succeed".into());
        }
        if let Some((_, _, _, old)) = kept.replace((log, spans, sample.host_factor(), dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    for (samples, name) in rungs.iter().zip([
        "engine.run_untraced_s",
        "engine.run_traced_s",
        "engine.run_memstore_s",
        "engine.run_filestore_s",
    ]) {
        out.insert(name, median(samples));
    }
    out.insert("store.mem_append_busy_s", median(&mem_busy.0));
    out.insert("store.mem_snapshot_busy_s", median(&mem_busy.1));

    let (log, spans, factor, dir) = kept.expect("the ladder ran");
    out.insert("store.append_busy_s", spans.store_busy_s(false) / factor);
    out.insert("store.append_calls", spans.store_call_count(false) as f64);
    out.insert("store.records", spans.store_size(false) as f64);
    out.insert("store.snapshot_busy_s", spans.store_busy_s(true) / factor);
    out.insert("store.snapshots", spans.store_call_count(true) as f64);
    let snapshots = spans.store_call_count(true).max(1);
    out.insert(
        "engine.snapshot_bytes",
        (spans.store_size(true) / snapshots) as f64,
    );
    let snapshot_ticks: Vec<f64> = spans
        .ticks
        .iter()
        .filter(|t| t.has_snapshot())
        .map(|t| t.duration_ns() as f64 / 1e6 / factor)
        .collect();
    out.insert("engine.snapshot_tick_ms_p50", median(&snapshot_ticks));

    telemetry_probes(&log, out);
    store_read_probes(&fleet, &log, &dir, scratch, out)?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(spans)
}

fn telemetry_probes(log: &TraceLog, out: &mut Metrics) {
    let (s, jsonl) = timed(|| log.to_jsonl());
    out.insert("telemetry.to_jsonl_ms", s * 1e3);
    out.insert("telemetry.jsonl_bytes", jsonl.len() as f64);
    out.insert(
        "telemetry.from_jsonl_ms",
        timed(|| TraceLog::from_jsonl(&jsonl).is_ok()).0 * 1e3,
    );
    let records = log.records();
    let (s, clean) = timed(|| {
        let query = TraceQuery::new(records);
        query.check_no_double_dispatch().is_ok()
            && query.check_breaker_discipline().is_ok()
            && query.check_plans_at_most_once_per_key().is_ok()
    });
    black_box(clean);
    out.insert("telemetry.invariants_ms", s * 1e3);
}

fn store_read_probes(
    fleet: &Fleet<'_>,
    log: &TraceLog,
    dir: &std::path::Path,
    scratch: &Scratch,
    out: &mut Metrics,
) -> Result<(), String> {
    let sample: Vec<_> = log.records().into_iter().take(2_000).collect();
    let encoded: Vec<Vec<u8>> = sample.iter().map(encode_event).collect();
    out.insert(
        "store.encode_event_ns",
        per_call(|| sample.iter().map(|r| encode_event(r).len()).sum::<usize>())
            / sample.len() as f64
            * 1e9,
    );
    out.insert(
        "store.decode_record_ns",
        per_call(|| {
            encoded
                .iter()
                .filter(|b| matches!(decode_record(b, 0), Decoded::Record { .. }))
                .count()
        }) / encoded.len() as f64
            * 1e9,
    );

    let on_disk = dir_bytes(dir);
    out.insert("store.bytes_on_disk", on_disk as f64);
    out.insert("store.segments", segment_count(dir) as f64);
    if let Some(jsonl_bytes) = out.get("telemetry.jsonl_bytes").copied() {
        out.insert("store.write_amp", on_disk as f64 / jsonl_bytes.max(1.0));
    }

    let open = || FileStore::open(dir, 4096).map_err(|e| format!("reopen the ladder store: {e}"));
    let mut open_s = Vec::new();
    for _ in 0..3 {
        open_s.push(timed(open).0);
    }
    out.insert("store.open_ms", median(&open_s) * 1e3);
    let (store, _) = open()?;
    out.insert(
        "store.replay_from_ms",
        timed(|| store.replay_from(0).map(|r| r.len())).0 * 1e3,
    );
    let (s, snapshot) = timed(|| store.latest_snapshot());
    out.insert("store.latest_snapshot_ms", s * 1e3);
    if let Ok(Some(record)) = snapshot {
        let (s, image) = timed(|| EngineSnapshot::from_bytes(&record.state));
        out.insert("engine.snapshot_decode_ms", s * 1e3);
        if let Ok(image) = image {
            out.insert(
                "engine.snapshot_encode_ms",
                per_call(|| image.to_bytes().len()) * 1e3,
            );
        }
    }
    drop(store);

    // Recovery from the finished store: restore the last snapshot and
    // re-prove the few ticks after it.  Opening is `store.open_ms`; this
    // is everything after it.
    let copy = scratch.subdir("ladder-recover");
    copy_dir(dir, &copy).map_err(|e| format!("copy the ladder store: {e}"))?;
    let (store, _) = FileStore::open(&copy, 4096).map_err(|e| e.to_string())?;
    let shared: SharedStore = Arc::new(Mutex::new(store));
    let (s, recovered) = timed(|| fleet.recover(shared, None));
    recovered.map_err(|e| format!("recover the ladder store: {e}"))?;
    out.insert("engine.recover_restore_ms", s * 1e3);
    let _ = std::fs::remove_dir_all(copy);
    Ok(())
}

/// Every probe on fixed inputs.
pub fn fixed_probes(seed: u64, policy_cases: usize, out: &mut Metrics) {
    plan_probes(out);
    planner_probes(out);
    ontology_probe(out);
    agents_probes(out);
    planning_service_probes(out);
    lab_probe(out);
    policy_probes(seed, policy_cases, out);
}
