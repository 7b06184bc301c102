//! The seven workloads.
//!
//! Every enactment workload is a closed batch: N cases submitted up
//! front, `max_in_flight` of them enacting at once, one process, one
//! thread.  Building a workload is its set-up (input generation, the
//! reference run its output check compares against, the killed run of
//! `crash-recover`); `rep` does the measured work on fresh state — a
//! fresh scheduler, world, trace log and store every time — and times
//! it itself, because some reps have an untimed part.
//!
//! `rep(None)` goes through `MultiCaseScenario`, the path a user of the
//! harness takes.  `rep(Some(recorder))` is the same work assembled in
//! [`crate::fleet`] with the timing shims of [`crate::spans`] around it.

use crate::fleet::{failed_cases, makespans, staggered_hints, Fleet, SharedStore, SNAPSHOT_EVERY};
use crate::scratch::Scratch;
use crate::spans::{Recorder, RunSpans, TimedStore};
use gridflow::casestudy;
use gridflow::experiments::table1_config;
use gridflow_engine::{EngineOutcome, PolicySpec};
use gridflow_harness::workload::{
    cook_loss_churn_plan_scaled, dinner_case_for_fleet, dinner_replan_workload_scaled,
    dinner_workload, dinner_workload_scaled, virus_reconstruction_workload, GraphShape, Workload,
    WorkloadGen,
};
use gridflow_harness::{FaultPlan, RecoveryPolicy};
use gridflow_planner::prelude::{GpConfig, GpPlanner, GpResult};
use gridflow_services::PlanCacheHandle;
use gridflow_store::{merged_jsonl, FileStore};
use gridflow_telemetry::{TraceLog, TraceQuery, TraceRecord};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Records per `FileStore` segment, as in `enactment_throughput`.
const RECORDS_PER_SEGMENT: usize = 4096;
/// How many ticks before its end the `crash-recover` run is killed.
const KILL_TICKS_BEFORE_END: u64 = 9;
/// Plans per `plan-cold` rep; one host calibration covers a batch.
const PLANS_PER_BATCH: usize = 10;
/// Distinct seeds `plan-cold` cycles through.
const PLAN_SEEDS: usize = 80;
/// GP seed of `replan-churn`.  Fixed: the plan GP finds decides how many
/// activities every replanned case runs (2 to 4 at different seeds), so
/// a seed-dependent plan would make one seed's fleet 40 % slower than
/// another's.
const REPLAN_GP_SEED: u64 = 7;

/// Full size, or `--quick` (fleets ÷ 8, for smoke runs).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    divisor: usize,
}

impl Scale {
    pub const FULL: Scale = Scale { divisor: 1 };
    pub const QUICK: Scale = Scale { divisor: 8 };

    /// `full` cases (or seeds) at this scale.
    pub fn cases(self, full: usize) -> usize {
        (full / self.divisor).max(1)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a/64 continued from `hash` over `bytes`.
fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a/64 of `bytes`, as 16 hex digits: the printed form of a
/// fingerprint.
pub fn hash_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(FNV_OFFSET, bytes))
}

/// What one rep did.
#[derive(Default)]
pub struct Rep {
    /// Seconds of the timed region.
    pub wall_s: f64,
    /// Seconds of each unit, where the workload times units one by one
    /// (`plan-cold`); empty elsewhere.
    pub unit_wall_s: Vec<f64>,
    /// Work units attempted: cases, or plans.
    pub units: usize,
    /// Cases that failed, were refused or aborted, or are missing from
    /// the outcome.  Any of these makes the run incorrect.
    pub failed: usize,
    /// Plans whose best individual is not `is_perfect()`.  GP promises
    /// no perfect plan, so these count against `success_share` without
    /// making the run incorrect.
    pub imperfect: usize,
    pub ticks: u64,
    pub blocked_ticks: u64,
    /// Sorted makespans in virtual ticks.
    pub makespans: Vec<u64>,
    /// Trace records emitted.
    pub records: usize,
    /// The run's logs, for the output checks.
    pub logs: Vec<TraceLog>,
    /// The run's store, for the output checks.
    pub store: Option<SharedStore>,
    /// One span tree per engine run, when traced.
    pub spans: Vec<RunSpans>,
}

impl Rep {
    fn absorb(&mut self, cases: usize, outcome: &EngineOutcome, log: Option<TraceLog>) {
        self.units += cases;
        // A case missing from the outcome failed too.
        self.failed += cases - (outcome.cases.len().min(cases) - failed_cases(outcome));
        self.ticks += outcome.ticks;
        self.blocked_ticks += outcome.cases.iter().map(|c| c.blocked_ticks).sum::<u64>();
        self.makespans.extend(makespans(outcome));
        self.makespans.sort_unstable();
        if let Some(log) = log {
            self.records += log.len();
            self.logs.push(log);
        }
    }

    /// The merged trace bytes of every run of the rep.
    pub fn jsonl(&self) -> String {
        self.logs.iter().map(TraceLog::to_jsonl).collect()
    }

    /// Fingerprint and length of the rep's merged trace bytes, one log's
    /// JSONL in memory at a time.
    pub fn trace_digest(&self) -> (String, u64) {
        let mut hash = FNV_OFFSET;
        let mut bytes = 0u64;
        for log in &self.logs {
            let jsonl = log.to_jsonl();
            hash = fnv1a64(hash, jsonl.as_bytes());
            bytes += jsonl.len() as u64;
        }
        (format!("{hash:016x}"), bytes)
    }

    /// The fingerprint alone.
    pub fn trace_hash(&self) -> String {
        self.trace_digest().0
    }

    /// What is kept of the warm-up rep once its logs are dropped.
    pub fn shape(&self) -> RepShape {
        RepShape {
            units: self.units,
            per_unit: !self.unit_wall_s.is_empty(),
            ticks: self.ticks,
            records: self.records,
            makespans: self.makespans.clone(),
        }
    }

    /// The cheap per-rep equality: counts and virtual time.
    pub fn same_shape(&self, other: &RepShape) -> bool {
        self.units == other.units
            && self.ticks == other.ticks
            && self.records == other.records
            && self.makespans == other.makespans
    }
}

/// Counts and virtual time of the warm-up rep, which every later rep
/// must repeat.  Cheap to keep, so that a run holds one rep's logs at a
/// time and `peak_rss_mb` is one rep's memory.
pub struct RepShape {
    pub units: usize,
    /// Does the workload time its units one by one?
    pub per_unit: bool,
    pub ticks: u64,
    pub records: usize,
    pub makespans: Vec<u64>,
}

/// What the output checks found.
pub struct Finish {
    /// Fingerprint of the outputs (trace bytes, or plan trees).
    pub output_fingerprint: String,
    /// Bytes of the run's persistent output: the store directory on the
    /// durable workloads, the merged JSONL trace on the other fleets,
    /// the serialized `GpResult`s on `plan-cold`.
    pub output_bytes: u64,
    /// The units (cases, plans) those bytes are the output of.
    pub output_units: usize,
    /// Extra lines for the report (`name`, value, unit).
    pub details: Vec<(&'static str, f64, &'static str)>,
}

/// A built workload.
pub trait Bench {
    /// Fingerprint of the generated inputs.
    fn input_fingerprint(&self) -> String;
    /// Reps that make one pass over the inputs (1 unless the workload
    /// cycles through several input sets).
    fn reps_per_cycle(&self) -> usize {
        1
    }
    /// Untimed work a rep needs done first (clearing the last rep's
    /// store directory, copying the killed store); kept out of `rep` so
    /// that the calibration passes sit right next to the timed region.
    fn prepare_rep(&mut self) {}
    /// One rep on fresh state.
    fn rep(&mut self, recorder: Option<&Arc<Recorder>>) -> Rep;
    /// Output checks over a final rep, given the [`Rep::trace_hash`] of
    /// an earlier one.
    fn finish(&mut self, earlier_trace: &str, last: &Rep) -> Result<Finish, String>;
    /// The harness workload and fault plan whose graph and world the
    /// layer probes use.
    fn probe_inputs(&self) -> (&Workload, &FaultPlan);
    /// Build that workload again (what `harness.workload_build_ms` times).
    fn rebuild_probe_workload(&self) -> Workload;
}

/// Build (set up) a workload by name.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    scratch: &Scratch,
) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "fleet-contended" => Box::new(Cells::contended(seed, scale.cases(2048))),
        "fleet-wide" => Box::new(Cells::wide(seed, scale.cases(2048))),
        "shapes-policies" => Box::new(Cells::shapes_policies(seed, scale.cases(128))),
        "replan-churn" => Box::new(Cells::replan_churn(seed, scale.cases(512))),
        "durable-journal" => Box::new(Durable::new(seed, scale.cases(512), scratch)),
        "crash-recover" => Box::new(Recover::new(seed, scale.cases(512), scratch)?),
        "plan-cold" => Box::new(PlanCold::new(seed, scale.cases(PLAN_SEEDS))),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

// ---------------------------------------------------------------- fleets

struct Cell {
    workload: usize,
    policy: PolicySpec,
}

/// One or more fleets enacted back to back, trace only.
struct Cells {
    plan: FaultPlan,
    /// Builds `workloads[0]`.
    rebuild: Box<dyn Fn() -> Workload>,
    workloads: Vec<Workload>,
    cells: Vec<Cell>,
    cases: usize,
    max_in_flight: usize,
    staggered: bool,
    /// A fresh plan cache per rep, and the replan invariants in `finish`.
    replanning: bool,
}

impl Cells {
    fn single(
        plan: FaultPlan,
        rebuild: impl Fn() -> Workload + 'static,
        cases: usize,
        max_in_flight: usize,
    ) -> Self {
        Cells {
            plan,
            workloads: vec![rebuild()],
            rebuild: Box::new(rebuild),
            cells: vec![Cell {
                workload: 0,
                policy: PolicySpec::Fifo,
            }],
            cases,
            max_in_flight,
            staggered: false,
            replanning: false,
        }
    }

    fn contended(seed: u64, cases: usize) -> Self {
        Cells::single(
            FaultPlan::seeded(seed),
            move || contended_dinner(cases),
            cases,
            64,
        )
    }

    fn wide(seed: u64, cases: usize) -> Self {
        Cells::single(
            FaultPlan::seeded(seed),
            move || dinner_workload_scaled(64, cases),
            cases,
            512.min(cases),
        )
    }

    fn shapes_policies(seed: u64, cases: usize) -> Self {
        let generated = move |shape| {
            WorkloadGen::new(seed)
                .shape(shape)
                .width(3)
                .depth(2)
                .fleet(cases)
                .build()
        };
        let workloads = vec![
            generated(GraphShape::FanOutJoin),
            generated(GraphShape::ChoiceDense),
            // ITERATIVE comes from Fig. 10 below.  The generated iterative
            // shape draws 2 to 4 loop passes from the seed, which moved
            // this workload's cost by 9 % from seed to seed.
            virus_reconstruction_workload(),
        ];
        let cells = (0..workloads.len())
            .flat_map(|workload| PolicySpec::ALL.map(|policy| Cell { workload, policy }))
            .collect();
        Cells {
            plan: FaultPlan::seeded(seed),
            rebuild: Box::new(move || generated(GraphShape::FanOutJoin)),
            workloads,
            cells,
            cases,
            max_in_flight: 64,
            staggered: true,
            replanning: false,
        }
    }

    fn replan_churn(seed: u64, cases: usize) -> Self {
        let rebuild = move || {
            let mut workload = dinner_replan_workload_scaled(16, cases, REPLAN_GP_SEED)
                .with_recovery(RecoveryPolicy::standard());
            // One thread, like everything else here.
            workload.config.gp.threads = 1;
            workload
        };
        let mut cells = Cells::single(cook_loss_churn_plan_scaled(16, seed), rebuild, cases, cases);
        cells.replanning = true;
        cells
    }

    fn fleet(&self, cell: &Cell, cache: Option<PlanCacheHandle>) -> Fleet<'_> {
        let mut fleet = Fleet::new(
            &self.plan,
            &self.workloads[cell.workload],
            self.cases,
            self.max_in_flight,
        );
        fleet.policy = cell.policy;
        fleet.hints = self.staggered.then_some(staggered_hints as fn(usize) -> _);
        fleet.plan_cache = cache;
        fleet
    }
}

/// The contended dinner: the 8-container dinner world with the goal
/// range sized for the fleet.
fn contended_dinner(cases: usize) -> Workload {
    let mut workload = dinner_workload();
    workload.case = dinner_case_for_fleet(cases);
    workload
}

impl Bench for Cells {
    fn input_fingerprint(&self) -> String {
        let all: String = self.workloads.iter().map(Workload::fingerprint).collect();
        hash_hex(format!("{all}{:?}", self.plan).as_bytes())
    }

    fn rep(&mut self, recorder: Option<&Arc<Recorder>>) -> Rep {
        let mut rep = Rep::default();
        let start = Instant::now();
        for cell in &self.cells {
            let cache = self.replanning.then(PlanCacheHandle::in_proc);
            let fleet = self.fleet(cell, cache);
            let (outcome, log) = match recorder {
                None => {
                    let outcome = fleet.scenario().run();
                    (outcome.engine, outcome.trace)
                }
                Some(rec) => {
                    rec.begin_run();
                    let (outcome, log) = fleet.run(true, None, Some(rec.clone()));
                    rep.spans.push(rec.end_run());
                    (outcome, log)
                }
            };
            rep.absorb(self.cases, &outcome, log);
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        rep
    }

    fn finish(&mut self, earlier_trace: &str, last: &Rep) -> Result<Finish, String> {
        let (output_fingerprint, output_bytes) = last.trace_digest();
        if earlier_trace != output_fingerprint {
            return Err("two reps emitted different trace bytes".into());
        }
        let mut details = Vec::new();
        if self.replanning {
            let records: Vec<TraceRecord> = last.logs.iter().flat_map(TraceLog::records).collect();
            // A fiber owns its breakers and its activities, so those two
            // state machines are checked per case; planning at most once
            // per key is a property of the whole fleet.
            let mut per_case: BTreeMap<String, Vec<TraceRecord>> = BTreeMap::new();
            for record in &records {
                if let Some((case, _)) = record.source.split_once('/') {
                    per_case
                        .entry(case.to_owned())
                        .or_default()
                        .push(record.clone());
                }
            }
            let query = TraceQuery::new(records);
            query
                .check_plans_at_most_once_per_key()
                .and_then(|()| {
                    per_case.into_values().try_for_each(|case| {
                        let case = TraceQuery::new(case);
                        case.check_breaker_discipline()?;
                        case.check_no_double_dispatch()
                    })
                })
                .map_err(|v| format!("trace invariant violated: {v:?}"))?;
            details.push(("gp_runs", query.plan_runs() as f64, "count"));
            details.push(("plan_cache_hits", query.plan_cache_hits() as f64, "count"));
        }
        Ok(Finish {
            output_fingerprint,
            output_bytes,
            output_units: last.units,
            details,
        })
    }

    fn probe_inputs(&self) -> (&Workload, &FaultPlan) {
        (&self.workloads[0], &self.plan)
    }

    fn rebuild_probe_workload(&self) -> Workload {
        (self.rebuild)()
    }
}

// --------------------------------------------------------------- durable

fn open_store(dir: &Path) -> Result<FileStore, String> {
    FileStore::open(dir, RECORDS_PER_SEGMENT)
        .map(|(store, _)| store)
        .map_err(|e| format!("open store in {}: {e}", dir.display()))
}

fn share(store: FileStore, recorder: Option<&Arc<Recorder>>) -> SharedStore {
    match recorder {
        Some(rec) => Arc::new(Mutex::new(TimedStore::new(store, rec.clone()))),
        None => Arc::new(Mutex::new(store)),
    }
}

/// Bytes of the files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Does the store hold exactly `reference`, the uninterrupted trace?
fn check_store_equals(store: &SharedStore, reference: &str) -> Result<(), String> {
    let events = store
        .lock()
        .expect("store mutex poisoned")
        .replay_from(0)
        .map_err(|e| format!("replay_from(0): {e}"))?;
    if merged_jsonl(&events) == reference {
        Ok(())
    } else {
        Err("the stored log differs from the uninterrupted trace-only run".into())
    }
}

/// The contended dinner journalled through a `FileStore`.
struct Durable {
    plan: FaultPlan,
    workload: Workload,
    cases: usize,
    /// `to_jsonl()` of the same fleet run trace-only, and its tick count.
    reference: String,
    reference_ticks: u64,
    scratch: Scratch,
    dir: Option<PathBuf>,
}

impl Durable {
    fn new(seed: u64, cases: usize, scratch: &Scratch) -> Self {
        let plan = FaultPlan::seeded(seed);
        let workload = contended_dinner(cases);
        let outcome = Fleet::new(&plan, &workload, cases, 64).scenario().run();
        let reference = outcome.trace.expect("traced").to_jsonl();
        let reference_ticks = outcome.engine.ticks;
        Durable {
            plan,
            workload,
            cases,
            reference,
            reference_ticks,
            scratch: scratch.clone(),
            dir: None,
        }
    }

    fn fleet(&self) -> Fleet<'_> {
        Fleet::new(&self.plan, &self.workload, self.cases, 64)
    }
}

impl Bench for Durable {
    fn input_fingerprint(&self) -> String {
        hash_hex(self.workload.fingerprint().as_bytes())
    }

    fn prepare_rep(&mut self) {
        if let Some(old) = self.dir.take() {
            let _ = std::fs::remove_dir_all(old);
        }
    }

    fn rep(&mut self, recorder: Option<&Arc<Recorder>>) -> Rep {
        let dir = self.scratch.subdir("journal");
        let mut rep = Rep::default();
        let start = Instant::now();
        let store = share(open_store(&dir).expect("fresh store opens"), recorder);
        let (outcome, log) = match recorder {
            None => {
                let outcome = self
                    .fleet()
                    .scenario()
                    .store(store.clone(), SNAPSHOT_EVERY)
                    .run();
                (outcome.engine, outcome.trace)
            }
            Some(rec) => {
                rec.begin_run();
                let (outcome, log) = self
                    .fleet()
                    .run(true, Some(store.clone()), Some(rec.clone()));
                rep.spans.push(rec.end_run());
                (outcome, log)
            }
        };
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.absorb(self.cases, &outcome, log);
        rep.store = Some(store);
        self.dir = Some(dir);
        rep
    }

    fn finish(&mut self, _earlier_trace: &str, last: &Rep) -> Result<Finish, String> {
        if last.jsonl() != self.reference {
            return Err("the journalled run's trace differs from the trace-only run".into());
        }
        check_store_equals(
            last.store.as_ref().expect("rep keeps its store"),
            &self.reference,
        )?;
        let dir = self.dir.as_ref().expect("rep keeps its directory");
        Ok(Finish {
            output_fingerprint: hash_hex(self.reference.as_bytes()),
            output_bytes: dir_bytes(dir),
            output_units: last.units,
            details: vec![("store_segments", segment_count(dir) as f64, "count")],
        })
    }

    fn probe_inputs(&self) -> (&Workload, &FaultPlan) {
        (&self.workload, &self.plan)
    }

    fn rebuild_probe_workload(&self) -> Workload {
        contended_dinner(self.cases)
    }
}

/// Segment files in a store directory.
pub fn segment_count(dir: &Path) -> usize {
    std::fs::read_dir(dir).map(|e| e.count()).unwrap_or(0)
}

// --------------------------------------------------------------- recover

/// Recovery of a journalled fleet killed shortly before its end.
struct Recover {
    inner: Durable,
    /// The store directory the killed run left behind.
    killed: PathBuf,
    kill_tick: u64,
}

impl Recover {
    fn new(seed: u64, cases: usize, scratch: &Scratch) -> Result<Self, String> {
        let inner = Durable::new(seed, cases, scratch);
        let kill_tick = inner
            .reference_ticks
            .saturating_sub(KILL_TICKS_BEFORE_END)
            .max(1);
        let killed = scratch.subdir("killed");
        let store = share(open_store(&killed)?, None);
        let outcome = inner
            .fleet()
            .scenario()
            .store(store, SNAPSHOT_EVERY)
            .kill_at(kill_tick)
            .run();
        if !outcome.engine.killed {
            return Err(format!("the run ended before its kill tick {kill_tick}"));
        }
        Ok(Recover {
            inner,
            killed,
            kill_tick,
        })
    }
}

/// Copy the files directly in `from` into a new directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

impl Bench for Recover {
    fn input_fingerprint(&self) -> String {
        self.inner.input_fingerprint()
    }

    fn prepare_rep(&mut self) {
        self.inner.prepare_rep();
        let dir = self.inner.scratch.subdir("recover");
        copy_dir(&self.killed, &dir).expect("copy the killed store");
        self.inner.dir = Some(dir);
    }

    fn rep(&mut self, recorder: Option<&Arc<Recorder>>) -> Rep {
        let dir = self
            .inner
            .dir
            .clone()
            .expect("prepare_rep copied the killed store");
        let mut rep = Rep::default();
        let start = Instant::now();
        let store = share(open_store(&dir).expect("killed store reopens"), recorder);
        let (outcome, log) = match recorder {
            None => {
                let outcome = self
                    .inner
                    .fleet()
                    .scenario()
                    .store(store.clone(), SNAPSHOT_EVERY)
                    .recover()
                    .expect("the killed fleet recovers");
                (outcome.engine, outcome.trace)
            }
            Some(rec) => {
                rec.begin_run();
                let (outcome, log) = self
                    .inner
                    .fleet()
                    .recover(store.clone(), Some(rec.clone()))
                    .expect("the killed fleet recovers");
                rep.spans.push(rec.end_run());
                (outcome, Some(log))
            }
        };
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.absorb(self.inner.cases, &outcome, log);
        rep.store = Some(store);
        rep
    }

    fn finish(&mut self, earlier_trace: &str, last: &Rep) -> Result<Finish, String> {
        if earlier_trace != last.trace_hash() {
            return Err("two recoveries emitted different trace bytes".into());
        }
        check_store_equals(
            last.store.as_ref().expect("rep keeps its store"),
            &self.inner.reference,
        )?;
        let dir = self.inner.dir.as_ref().expect("rep keeps its directory");
        Ok(Finish {
            output_fingerprint: hash_hex(self.inner.reference.as_bytes()),
            output_bytes: dir_bytes(dir),
            output_units: last.units,
            details: vec![
                ("kill_tick", self.kill_tick as f64, "ticks"),
                (
                    "killed_store_bytes",
                    dir_bytes(&self.killed) as f64,
                    "bytes",
                ),
            ],
        })
    }

    fn probe_inputs(&self) -> (&Workload, &FaultPlan) {
        self.inner.probe_inputs()
    }

    fn rebuild_probe_workload(&self) -> Workload {
        self.inner.rebuild_probe_workload()
    }
}

// ------------------------------------------------------------- plan-cold

/// What one GP run produced, reduced to what is compared and reported.
#[derive(Clone, PartialEq)]
struct PlanOutcome {
    /// The whole `GpResult` serialized: what a planning request returns.
    result_json: String,
    fitness: f64,
    size: usize,
    perfect: bool,
    evaluations: usize,
    generations: usize,
}

impl PlanOutcome {
    fn of(result: &GpResult) -> Self {
        PlanOutcome {
            result_json: serde_json::to_string(result).expect("GP results serialize"),
            fitness: result.best_fitness.overall,
            size: result.best_fitness.size,
            perfect: result.best_fitness.is_perfect(),
            evaluations: result.evaluations,
            generations: result.history.len(),
        }
    }
}

/// Cold GP planning of the case-study problem: Table 2's experiment at
/// Table 1's parameters, one distinct seed per plan, no cache.
struct PlanCold {
    seed_base: u64,
    next: usize,
    /// The first outcome seen per seed slot; later cycles must repeat it.
    outcomes: Vec<Option<PlanOutcome>>,
    diverged: bool,
    probe: Workload,
    no_faults: FaultPlan,
}

impl PlanCold {
    fn new(seed: u64, seeds: usize) -> Self {
        PlanCold {
            seed_base: seed.wrapping_mul(1_000),
            next: 0,
            outcomes: vec![None; seeds.next_multiple_of(PLANS_PER_BATCH)],
            diverged: false,
            probe: virus_reconstruction_workload(),
            no_faults: FaultPlan::default(),
        }
    }

    fn config(&self, slot: usize) -> GpConfig {
        GpConfig {
            seed: self.seed_base.wrapping_add(slot as u64),
            threads: 1,
            ..table1_config()
        }
    }
}

impl Bench for PlanCold {
    fn input_fingerprint(&self) -> String {
        hash_hex(
            format!(
                "{:?}{:?}{}",
                casestudy::planning_problem(),
                self.config(0),
                self.outcomes.len()
            )
            .as_bytes(),
        )
    }

    fn reps_per_cycle(&self) -> usize {
        self.outcomes.len() / PLANS_PER_BATCH
    }

    fn rep(&mut self, recorder: Option<&Arc<Recorder>>) -> Rep {
        let problem = casestudy::planning_problem();
        let mut rep = Rep::default();
        if let Some(rec) = recorder {
            rec.begin_run();
        }
        let start = Instant::now();
        for _ in 0..PLANS_PER_BATCH {
            let slot = self.next % self.outcomes.len();
            self.next += 1;
            if let Some(rec) = recorder {
                // One "tick" span per plan, numbered by its seed slot.
                rec.tick(slot as u64);
            }
            let planner = GpPlanner::new(self.config(slot), problem.clone());
            let plan_start = Instant::now();
            let result = std::hint::black_box(planner.run());
            rep.unit_wall_s.push(plan_start.elapsed().as_secs_f64());
            let outcome = PlanOutcome::of(&result);
            rep.units += 1;
            rep.imperfect += usize::from(!outcome.perfect);
            match &self.outcomes[slot] {
                Some(seen) => self.diverged |= *seen != outcome,
                None => self.outcomes[slot] = Some(outcome),
            }
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        if let Some(rec) = recorder {
            rep.spans.push(rec.end_run());
        }
        rep
    }

    fn finish(&mut self, _earlier_trace: &str, _last: &Rep) -> Result<Finish, String> {
        if self.diverged {
            return Err("a seed planned twice produced two different plans".into());
        }
        let seen: Vec<&PlanOutcome> = self.outcomes.iter().flatten().collect();
        if seen.is_empty() {
            return Err("no plan was produced".into());
        }
        let n = seen.len() as f64;
        let mean = |f: &dyn Fn(&PlanOutcome) -> f64| seen.iter().map(|o| f(o)).sum::<f64>() / n;
        let results: String = seen.iter().map(|o| o.result_json.as_str()).collect();
        Ok(Finish {
            output_fingerprint: hash_hex(results.as_bytes()),
            output_bytes: results.len() as u64,
            output_units: seen.len(),
            details: vec![
                ("plan_seeds", n, "count"),
                (
                    "plans_perfect_share",
                    mean(&|o| f64::from(u8::from(o.perfect))),
                    "share",
                ),
                ("plan_fitness_mean", mean(&|o| o.fitness), "score"),
                ("plan_size_mean", mean(&|o| o.size as f64), "count"),
                ("plan_evaluations", mean(&|o| o.evaluations as f64), "count"),
                ("plan_generations", mean(&|o| o.generations as f64), "count"),
            ],
        })
    }

    fn probe_inputs(&self) -> (&Workload, &FaultPlan) {
        (&self.probe, &self.no_faults)
    }

    fn rebuild_probe_workload(&self) -> Workload {
        virus_reconstruction_workload()
    }
}
