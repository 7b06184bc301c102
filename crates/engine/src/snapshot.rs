//! Serializable images of the scheduler's loop state.
//!
//! [`EngineSnapshot`] is what a [`SnapshotRecord`] payload holds: the
//! scheduler state at a tick boundary that recovery cannot re-derive —
//! waiting queue, live fibers (as [`FiberSlim`]s), finished outcomes,
//! the fair-share policy's per-tenant admission counts, and the
//! [`WorldImage`] of the shared substrate.  Restoring one onto a fresh
//! world and a journal reseeded at the snapshot's sequence number
//! reproduces the crashed run's remaining trace byte-for-byte.
//!
//! [`SnapshotRecord`]: gridflow_store::SnapshotRecord

use crate::policy::{CaseHints, Policy, PolicySpec};
use crate::scheduler::CaseOutcome;
use gridflow_process::{CaseDescription, ProcessGraph};
pub use gridflow_services::FiberSlim;
use gridflow_services::{CaseFiber, EnactmentConfig, WorldImage};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One distinct (graph, case description, config) triple, stored once
/// per snapshot and referenced by index from [`WaitingImage`].
///
/// Fleet members share their blueprint (the scheduler's `submit` path
/// hands every case the same `Arc<CaseDescription>`), so without this
/// pool a snapshot would embed one full copy of the workload per
/// waiting case — quadratic in fleet size, and the dominant snapshot
/// cost for large fleets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseBlueprint {
    /// The workflow to enact.
    pub graph: ProcessGraph,
    /// Owned copy of the shared case description.
    pub case: CaseDescription,
    /// Per-case enactment configuration.
    pub config: EnactmentConfig,
}

/// A blueprint pool under construction during snapshot capture.
#[derive(Debug, Default)]
pub(crate) struct BlueprintPool {
    /// The snapshot's blueprint table, in interning order.
    pub(crate) entries: Vec<CaseBlueprint>,
    // Capture-time identity fast path: the `Arc<CaseDescription>`
    // pointer each entry was first captured from.  Specs and fibers
    // sharing that Arc still have their graph/config compared — the
    // pointer only short-circuits the description comparison.
    sources: Vec<*const CaseDescription>,
}

impl BlueprintPool {
    /// Capture a live fiber with its blueprint-shaped bulk (graph,
    /// case, config) interned by borrowing it.  A re-planned fiber's
    /// graph differs from its submission blueprint and simply interns
    /// as a further pool entry.
    pub(crate) fn slim(&mut self, fiber: &CaseFiber) -> FiberSlim {
        let (graph, case, config) = fiber.blueprint();
        fiber.slim(self.intern(graph, case, config))
    }

    /// Intern a (graph, case, config) blueprint, returning its pool
    /// index.
    pub(crate) fn intern(
        &mut self,
        graph: &ProcessGraph,
        case: &Arc<CaseDescription>,
        config: &EnactmentConfig,
    ) -> usize {
        let ptr = Arc::as_ptr(case);
        if let Some(found) = (0..self.entries.len()).find(|&i| {
            let b = &self.entries[i];
            b.graph == *graph && b.config == *config && (self.sources[i] == ptr || b.case == **case)
        }) {
            return found;
        }
        self.entries.push(CaseBlueprint {
            graph: graph.clone(),
            case: (**case).clone(),
            config: config.clone(),
        });
        self.sources.push(ptr);
        self.entries.len() - 1
    }
}

/// One still-waiting case: its submission index, identity, and a
/// reference into the snapshot's blueprint pool.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WaitingImage {
    /// Submission index (position in the original submit order).
    pub index: usize,
    /// The case's scheduler label.
    pub label: String,
    /// Scheduling hints.
    pub hints: CaseHints,
    /// Index into [`EngineSnapshot::blueprints`].
    pub blueprint: usize,
}

/// One live fiber with its scheduler accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotImage {
    /// Submission index.
    pub index: usize,
    /// Tick at which the case was admitted.
    pub admitted_tick: u64,
    /// Ticks spent blocked on reserved-away capacity so far.
    pub blocked_ticks: u64,
    /// The fiber's mid-enactment image, blueprint bulk interned.
    pub fiber: FiberSlim,
}

/// One already-finished case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FinishedImage {
    /// Submission index.
    pub index: usize,
    /// The sealed outcome.
    pub outcome: CaseOutcome,
}

/// An entry of a pre-8 payload's admission log: only its tenant counts.
#[derive(Deserialize)]
struct LoggedAdmission {
    hints: CaseHints,
}

/// A pre-8 payload's admission log, folded into fair share's counts.
fn tenant_counts(log: Vec<LoggedAdmission>) -> BTreeMap<String, u64> {
    let mut fair = Policy::new(PolicySpec::FairShare, BTreeMap::new());
    log.iter().for_each(|a| fair.admitted(&a.hints));
    fair.tenants().clone()
}

/// Engine-snapshot schema version written by this build.
///
/// Version 8 stores only what recovery cannot re-derive: fair-share
/// tenant counts, not the admission log; no live fiber's `flow_base`
/// (its ATN counts), `done` (a live fiber is not done) or `pending` (its
/// first step walks the ladder again); and no `replan` switch
/// (`max_replans: 0` is off).  Older payloads keep restoring: version 1
/// carries no `version` key (it defaults to `1`); versions 1–7 kept the
/// admission log, folded into tenant counts, the `replan` switch, whose
/// `false` reads as `max_replans: 0`, and those three fiber fields;
/// versions 1–6 a `recovery.enabled` switch in every config with
/// per-activity `attempts` and an always-empty `pending_backoffs` list
/// in every fiber's recovery state; versions 1–5 a `checkpoints` list in
/// every report (empty whenever the pre-4 refusal below lets the payload
/// through); versions 1–4 the world-global fresh-id counter
/// (`world.data_counter`); versions 1–3 each fiber's checkpoint cadence
/// (`since_checkpoint`, `prime_flow_base`, `checkpoint_every` in its
/// config); and versions 1–2 which scheduler core wrote them (`core`)
/// and that core's hints (`freed`, `last_generation`, a `blockers` list
/// on parked live slots).  The other removed keys are ignored: this
/// store is the only checkpoint there is, fresh ids come from each
/// case's own data state (no trace event carries a data id, and a
/// restored payload brings the blueprint goal its cases were submitted
/// under), and the ladder's rungs follow from the policy's parts.  Five
/// payloads are refused: a `core` other than `"Event"` names a loop
/// this build does not have; a pre-4 blueprint whose `checkpoint_every`
/// is set means the journal has `checkpoint.captured` records this
/// build would not regenerate; a pre-7 blueprint whose
/// `recovery.enabled` disagrees with what its retry, lease and breaker
/// parts derive would run a different ladder here; a pre-7 blueprint
/// that configures any of those parts numbered the `attempt`s in its
/// journal as this build does not (a candidate that was reserved away
/// now counts); and a *newer* schema than this build's cannot be
/// understood.
pub const ENGINE_SNAPSHOT_VERSION: u32 = 8;

/// The scheduler's complete loop state at a tick boundary.
#[derive(Debug, Clone, Default)]
pub struct EngineSnapshot {
    /// Snapshot schema version (see [`ENGINE_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// First tick the restored loop will execute.
    pub next_tick: u64,
    /// The distinct blueprints waiting cases and live fibers reference.
    pub blueprints: Vec<CaseBlueprint>,
    /// Waiting queue, in queue order.
    pub waiting: Vec<WaitingImage>,
    /// Live fibers, in live-list order (stepping rotation depends on
    /// this order, so it is preserved exactly).
    pub live: Vec<SlotImage>,
    /// Finished cases so far.
    pub finished: Vec<FinishedImage>,
    /// Fair-share admissions so far per tenant (empty under other policies).
    pub tenants: BTreeMap<String, u64>,
    /// The shared substrate's state image.
    pub world: WorldImage,
}

// Hand-written serde: version 1 payloads predate the `version` key, so
// deserialization must default it instead of erroring, and must make
// the refusals `ENGINE_SNAPSHOT_VERSION` documents.  The tree
// form is the reference the streamed payload is tested against.
impl Serialize for EngineSnapshot {
    fn to_json_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("version".to_string(), self.version.to_json_value());
        m.insert("next_tick".to_string(), self.next_tick.to_json_value());
        m.insert("blueprints".to_string(), self.blueprints.to_json_value());
        m.insert("waiting".to_string(), self.waiting.to_json_value());
        m.insert("live".to_string(), self.live.to_json_value());
        m.insert("finished".to_string(), self.finished.to_json_value());
        m.insert("tenants".to_string(), self.tenants.to_json_value());
        m.insert("world".to_string(), self.world.to_json_value());
        serde::Value::Object(m)
    }

    fn write_json(&self, out: &mut String) {
        self.write_payload(out, |out| self.finished.write_json(out));
    }
}

impl Deserialize for EngineSnapshot {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_object().ok_or_else(|| {
            serde::Error::custom(format!(
                "expected object for struct EngineSnapshot, got {v:?}"
            ))
        })?;
        let version = match obj.get("version") {
            Some(v) => u32::from_json_value(v)
                .map_err(|e| serde::Error::custom(format!("field `version`: {e}")))?,
            None => 1,
        };
        if version > ENGINE_SNAPSHOT_VERSION {
            return Err(serde::Error::custom(format!(
                "engine snapshot version {version} is newer than this \
                 build's {ENGINE_SNAPSHOT_VERSION}"
            )));
        }
        if let Some(core) = obj.get("core").filter(|c| c.as_str() != Some("Event")) {
            return Err(serde::Error::custom(format!(
                "field `core`: {core} names a scheduler core this build does not have"
            )));
        }
        let checkpointed = |b: &serde::Value| !b["config"]["checkpoint_every"].is_null();
        let blueprints = v["blueprints"].as_array();
        if version < 4 && blueprints.is_some_and(|b| b.iter().any(checkpointed)) {
            return Err(serde::Error::custom(format!(
                "engine snapshot version {version} checkpointed its cases: its journal \
                 has `checkpoint.captured` records this build cannot regenerate"
            )));
        }
        let pre_ladder_merge = blueprints.into_iter().flatten().filter(|_| version < 7);
        for policy in pre_ladder_merge.map(|b| &b["config"]["recovery"]) {
            let enabled = policy["enabled"].as_bool() == Some(true);
            let configured = policy["retry"]["max_attempts"].as_u64() > Some(1)
                || !policy["lease"].is_null()
                || !policy["breaker"].is_null();
            if enabled != configured {
                return Err(serde::Error::custom(format!(
                    "engine snapshot version {version} stored `recovery.enabled`: {enabled} \
                     over retry, lease and breaker parts that derive {configured}: this \
                     build would run a different ladder"
                )));
            }
            if configured {
                return Err(serde::Error::custom(format!(
                    "engine snapshot version {version} ran the recovery ladder: its journal \
                     numbers dispatch `attempt`s as this build does not"
                )));
            }
        }
        let mut image = EngineSnapshot {
            version,
            next_tick: serde::__field(obj, "next_tick", "EngineSnapshot")?,
            blueprints: serde::__field(obj, "blueprints", "EngineSnapshot")?,
            waiting: serde::__field(obj, "waiting", "EngineSnapshot")?,
            live: serde::__field(obj, "live", "EngineSnapshot")?,
            finished: serde::__field(obj, "finished", "EngineSnapshot")?,
            tenants: match version {
                8.. => serde::__field(obj, "tenants", "EngineSnapshot")?,
                _ => tenant_counts(serde::__field(obj, "admissions", "EngineSnapshot")?),
            },
            world: serde::__field(obj, "world", "EngineSnapshot")?,
        };
        // Versions 1–7 switched re-planning off with `replan: false`.
        let trees = blueprints.into_iter().flatten();
        for (b, tree) in image.blueprints.iter_mut().zip(trees) {
            if version < 8 && tree["config"]["replan"].as_bool() == Some(false) {
                b.config.max_replans = 0;
            }
        }
        Ok(image)
    }

    /// A payload as this build writes it — its eight keys, each once, in
    /// byte order, `version` current — is read straight into the image.
    /// Any other (another `version`, a `core` key, text the direct read
    /// refuses) is read again as a tree, so every refusal and its message
    /// are the tree form's.
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        let (start, mut image, mut keys) = (r.offset(), Self::default(), Vec::new());
        let direct = r.object(|r, key| {
            match &*key {
                "blueprints" => image.blueprints = Deserialize::read_json(r)?,
                "finished" => image.finished = Deserialize::read_json(r)?,
                "live" => image.live = Deserialize::read_json(r)?,
                "next_tick" => image.next_tick = Deserialize::read_json(r)?,
                "tenants" => image.tenants = Deserialize::read_json(r)?,
                "version" => image.version = Deserialize::read_json(r)?,
                "waiting" => image.waiting = Deserialize::read_json(r)?,
                "world" => image.world = Deserialize::read_json(r)?,
                _ => return Err(serde::Error::custom("not a key this build writes")),
            }
            keys.push(key);
            Ok(())
        });
        let as_written = keys.len() == 8 && keys.windows(2).all(|w| w[0] < w[1]);
        if direct.is_ok() && as_written && image.version == ENGINE_SNAPSHOT_VERSION {
            return Ok(image);
        }
        r.rewind(start);
        Self::from_json_value(&r.value()?)
    }
}

impl EngineSnapshot {
    /// The one payload writer: the fields in key order (the order the
    /// tree form prints them in), with `finished` writing the
    /// `finished` array wherever it keeps it.
    fn write_payload(&self, out: &mut String, finished: impl FnOnce(&mut String)) {
        out.push_str("{\"blueprints\":");
        self.blueprints.write_json(out);
        out.push_str(",\"finished\":");
        finished(out);
        out.push_str(",\"live\":");
        self.live.write_json(out);
        out.push_str(",\"next_tick\":");
        self.next_tick.write_json(out);
        out.push_str(",\"tenants\":");
        self.tenants.write_json(out);
        out.push_str(",\"version\":");
        self.version.write_json(out);
        out.push_str(",\"waiting\":");
        self.waiting.write_json(out);
        out.push_str(",\"world\":");
        self.world.write_json(out);
        out.push('}');
    }

    /// Serialize for a snapshot record's opaque payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        self.write_json(&mut out);
        out.into_bytes()
    }

    /// [`to_bytes`](Self::to_bytes) for the tick loop, which keeps
    /// every sealed [`FinishedImage`] already encoded: `self.finished`
    /// must be empty, and `finished` is spliced in where its encoding
    /// belongs, so outcomes are not cloned and re-encoded at every
    /// cadence tick.  The buffer starts a quarter above `previous_len`,
    /// the loop's last payload, which a late snapshot outgrows by less;
    /// the slack is given back, so a stored payload is held at its size.
    pub(crate) fn to_bytes_with_finished(
        &self,
        finished: &[String],
        previous_len: usize,
    ) -> Vec<u8> {
        debug_assert!(self.finished.is_empty());
        let mut out = String::with_capacity(previous_len + previous_len / 4);
        self.write_payload(&mut out, |out| {
            out.push('[');
            for (i, image) in finished.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(image);
            }
            out.push(']');
        });
        out.shrink_to_fit();
        out.into_bytes()
    }

    /// Deserialize a snapshot record's payload.  Older payloads restore
    /// and five kinds are refused; see [`ENGINE_SNAPSHOT_VERSION`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{CaseScheduler, CaseSpec, EngineConfig, EngineOutcome, StoreBinding};
    use gridflow_process::{lower::lower, parser::parse_process, Condition, DataItem};
    use gridflow_services::{GridWorld, OutputSpec, ServiceOffering};
    use gridflow_store::{MemStore, SnapshotRecord, Store, StoreError, StoreResult};
    use gridflow_telemetry::{FrozenClock, TraceLog};
    use std::sync::Mutex;

    /// One container per service of a two-step workflow.  Built from
    /// JSON because this crate does not depend on `gridflow-grid`.
    fn world() -> GridWorld {
        let node = |service: &str| {
            (
                format!(
                    r#"{{"id":"ac-{service}","resource_id":"{service}","services":["{service}"],
                        "up":true,"completed":0,"failed":0}}"#
                ),
                format!(
                    r#"{{"id":"{service}","kind":"PcCluster","nodes":1,"location":"unknown",
                        "domain":"default","reliability":1.0,"cost_per_cpu_hour":1.0,
                        "software":[],"hardware":{{"arch":"x86","cpu_ghz":2.4,"memory_mb":1024,
                        "bandwidth_mbps":100.0,"latency_us":150.0}}}}"#
                ),
            )
        };
        let (c0, r0) = node("prep");
        let (c1, r1) = node("cook");
        let topology = format!(r#"{{"containers":[{c0},{c1}],"resources":[{r0},{r1}]}}"#);
        let mut w = GridWorld::new(serde_json::from_str(&topology).expect("topology decodes"));
        w.offer(ServiceOffering::new(
            "prep",
            ["Raw"],
            vec![OutputSpec::plain("Prepped")],
        ));
        w.offer(ServiceOffering::new(
            "cook",
            ["Prepped"],
            vec![OutputSpec::plain("Cooked")],
        ));
        w
    }

    /// The two-step workflow and its case.
    fn meal() -> (ProcessGraph, Arc<CaseDescription>) {
        let graph = lower("meal", &parse_process("BEGIN prep; cook; END").unwrap()).unwrap();
        let goal = (102..=108)
            .map(|i| Condition::classified(format!("D{i}"), "Cooked"))
            .fold(Condition::classified("D101", "Cooked"), Condition::or);
        let case = CaseDescription::new("meal")
            .with_data("D1", DataItem::classified("Raw"))
            .with_goal("G1", goal);
        (graph, Arc::new(case))
    }

    /// A scheduler over a fleet of `cases` admitted one at a time, bound
    /// to `store` and journalling into `journal`.
    fn scheduler(
        cases: usize,
        store: Arc<Mutex<dyn Store>>,
        journal: TraceLog,
        kill_at: Option<u64>,
    ) -> CaseScheduler {
        let mut scheduler = CaseScheduler::new(EngineConfig {
            max_in_flight: 1,
            store: Some(StoreBinding {
                store,
                journal: journal.clone(),
                snapshot_every: 1,
            }),
            kill_at,
            ..EngineConfig::default()
        })
        .trace(Arc::new(journal));
        let (graph, case) = meal();
        for i in 0..cases {
            scheduler.submit(CaseSpec {
                label: format!("meal-{i}"),
                graph: graph.clone(),
                case: case.clone(),
                config: EnactmentConfig::default(),
                hints: CaseHints::default(),
            });
        }
        scheduler
    }

    /// The latest snapshot of a run killed at tick 1: `meal-0` is live
    /// mid-workflow, `meal-1` still waits.
    fn captured() -> SnapshotRecord {
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        let outcome = scheduler(2, store.clone(), TraceLog::new(), Some(1)).run(&mut world());
        assert!(outcome.killed);
        let record = store.lock().unwrap().latest_snapshot().unwrap().unwrap();
        let image = EngineSnapshot::from_bytes(&record.state).unwrap();
        assert_eq!((image.live.len(), image.waiting.len()), (1, 1));
        record
    }

    /// Recover from a store holding only `record` with its payload
    /// replaced by `payload`.
    fn recover_from(record: &SnapshotRecord, payload: Vec<u8>) -> StoreResult<EngineOutcome> {
        recover_onto(record, payload, |_, _| {}).0
    }

    /// [`recover_from`] with `on_tick` called at the top of every
    /// recovered tick, and the journal the recovered run wrote.
    fn recover_onto(
        record: &SnapshotRecord,
        payload: Vec<u8>,
        on_tick: impl FnMut(u64, &mut GridWorld),
    ) -> (StoreResult<EngineOutcome>, TraceLog) {
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        let stored = store.lock().unwrap().snapshot(SnapshotRecord::new(
            record.next_tick,
            record.journal_seq,
            record.clock_ticks,
            record.clock_s,
            payload,
        ));
        let journal = TraceLog::resuming(record.journal_seq, Arc::new(FrozenClock));
        let outcome = stored.and_then(|()| {
            scheduler(2, store, journal.clone(), None).recover(&mut world(), on_tick)
        });
        (outcome, journal)
    }

    /// `payload` with `edit` applied to its top-level JSON object.
    fn edited(payload: &[u8], edit: impl FnOnce(&mut serde_json::Map)) -> Vec<u8> {
        let mut value: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(payload).unwrap()).unwrap();
        edit(value.as_object_mut().unwrap());
        serde_json::to_string(&value).unwrap().into_bytes()
    }

    #[test]
    fn event_core_payloads_round_trip_byte_for_byte() {
        let record = captured();
        let image = EngineSnapshot::from_bytes(&record.state).unwrap();
        assert_eq!(image.version, 8);
        assert_eq!(image.to_bytes(), record.state);
        // Nothing a removed scheduler core, the single-case checkpoint
        // mechanism, the world-global id counter, the recovery switch or
        // what recovery re-derives is written any more.
        let text = std::str::from_utf8(&record.state).unwrap();
        for key in [
            "core",
            "freed",
            "last_generation",
            "blockers",
            "since_checkpoint",
            "prime_flow_base",
            "checkpoint_every",
            "checkpoints",
            "data_counter",
            "enabled",
            "attempts",
            "pending_backoffs",
            "admissions",
            "flow_base",
            "done",
            "pending",
            "replan",
        ] {
            assert!(!text.contains(&format!(r#""{key}":"#)), "{key} written");
        }
    }

    /// The payload the tick loop wrote equals the plain encoding of
    /// the fully-populated snapshot it decodes to, and both equal the
    /// printed tree, the reference neither goes through.
    fn assert_spliced_is_plain(record: &SnapshotRecord) -> EngineSnapshot {
        let image = EngineSnapshot::from_bytes(&record.state).unwrap();
        let tree = image.to_json_value().to_string();
        assert_eq!(std::str::from_utf8(&record.state).unwrap(), tree);
        assert_eq!(image.to_bytes(), tree.into_bytes());
        image
    }

    #[test]
    fn spliced_payloads_equal_the_plain_encoding_byte_for_byte() {
        // Three cases admitted one at a time, a snapshot every tick.
        let run = |store: &Arc<Mutex<dyn Store>>, journal: TraceLog, kill_at: u64| {
            scheduler(3, store.clone(), journal, Some(kill_at))
        };
        let latest = |store: &Arc<Mutex<dyn Store>>| {
            store.lock().unwrap().latest_snapshot().unwrap().unwrap()
        };
        // Mid-run: one case finished, one live, one waiting.
        let mid = (1..32)
            .find(|&tick| {
                let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
                assert!(run(&store, TraceLog::new(), tick).run(&mut world()).killed);
                let image = assert_spliced_is_plain(&latest(&store));
                (image.waiting.len(), image.live.len(), image.finished.len()) == (1, 1, 1)
            })
            .expect("some tick has a waiting, a live and a finished case");

        // The first snapshot after a recover is taken with the outcome
        // cache rebuilt from the restored state; it must be the snapshot
        // an uninterrupted run takes at that tick.
        let crashed: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        run(&crashed, TraceLog::new(), mid).run(&mut world());
        let journal = TraceLog::resuming(latest(&crashed).journal_seq, Arc::new(FrozenClock));
        let outcome = run(&crashed, journal, mid + 1).recover(&mut world(), |_, _| {});
        assert!(outcome.unwrap().killed);
        let after = latest(&crashed);
        assert_eq!(after.next_tick, mid + 1);
        let image = assert_spliced_is_plain(&after);
        assert_eq!(image.finished.len(), 1);
        let straight: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        run(&straight, TraceLog::new(), mid + 1).run(&mut world());
        assert_eq!(after, latest(&straight));

        // Empty state: nothing waiting, live or finished.
        let empty = EngineSnapshot {
            blueprints: Vec::new(),
            waiting: Vec::new(),
            live: Vec::new(),
            finished: Vec::new(),
            tenants: BTreeMap::new(),
            ..image
        };
        assert_eq!(empty.to_bytes_with_finished(&[], 0), empty.to_bytes());
        assert_eq!(
            empty.to_bytes(),
            empty.to_json_value().to_string().into_bytes()
        );
    }

    fn json(text: &str) -> serde_json::Value {
        serde_json::from_str(text).unwrap()
    }

    /// The object under `key`.
    fn object_at<'a>(obj: &'a mut serde_json::Map, key: &str) -> &'a mut serde_json::Map {
        obj.get_mut(key).unwrap().as_object_mut().unwrap()
    }

    /// The live slot of a payload's top-level object.
    fn live_slot(obj: &mut serde_json::Map) -> &mut serde_json::Map {
        let slot = &mut obj.get_mut("live").unwrap().as_array_mut().unwrap()[0];
        slot.as_object_mut().unwrap()
    }

    /// Set `key` in every blueprint's config.
    fn set_config(obj: &mut serde_json::Map, key: &str, value: &str) {
        for blueprint in obj.get_mut("blueprints").unwrap().as_array_mut().unwrap() {
            object_at(blueprint.as_object_mut().unwrap(), "config").insert(key.into(), json(value));
        }
    }

    /// Set `key` in every blueprint's recovery policy.
    fn set_policy(obj: &mut serde_json::Map, key: &str, value: &str) {
        for blueprint in obj.get_mut("blueprints").unwrap().as_array_mut().unwrap() {
            let config = object_at(blueprint.as_object_mut().unwrap(), "config");
            object_at(config, "recovery").insert(key.into(), json(value));
        }
    }

    /// `payload` as a version-7 build wrote it: the admission log of
    /// `meal-0` in place of the tenant counts, the live fiber's
    /// flow-transition baseline and `done` flag, and the re-planning
    /// switch (off) in the blueprint configs beside three replans only
    /// the switch forbids.
    fn as_v7(payload: &[u8]) -> Vec<u8> {
        edited(payload, |obj| {
            obj.insert("version".into(), json("7"));
            obj.remove("tenants");
            obj.entry("admissions".into()).or_insert_with(|| {
                json(r#"[{"submitted":0,"label":"meal-0","hints":{"priority":0}}]"#)
            });
            let fiber = object_at(live_slot(obj), "fiber");
            fiber
                .entry("flow_base".into())
                .or_insert_with(|| json(r#"{"BEGIN":1}"#));
            fiber.insert("done".into(), json("false"));
            set_config(obj, "replan", "false");
            set_config(obj, "max_replans", "3");
        })
    }

    /// `payload` as a version-6 build wrote it: the version-7 shape plus
    /// the recovery switch (off) in the blueprint configs, and the
    /// attempt counters and the always-empty backoff list in the live
    /// fiber's recovery state.
    fn as_v6(payload: &[u8]) -> Vec<u8> {
        edited(&as_v7(payload), |obj| {
            obj.insert("version".into(), json("6"));
            set_policy(obj, "enabled", "false");
            let recovery = object_at(object_at(live_slot(obj), "fiber"), "recovery");
            recovery.insert("attempts".into(), json("{}"));
            recovery.insert("pending_backoffs".into(), json("[]"));
        })
    }

    /// `payload` as a version-5 build wrote it: the version-6 shape plus
    /// an always-empty `checkpoints` list in the live fiber's report.
    fn as_v5(payload: &[u8]) -> Vec<u8> {
        edited(&as_v6(payload), |obj| {
            obj.insert("version".into(), json("5"));
            let report = object_at(object_at(live_slot(obj), "fiber"), "report");
            report.insert("checkpoints".into(), json("[]"));
        })
    }

    /// `payload` as a version-4 build wrote it: the version-5 shape
    /// plus the world's fresh-id counter, after the one item `meal-0`
    /// has produced.
    fn as_v4(payload: &[u8]) -> Vec<u8> {
        edited(&as_v5(payload), |obj| {
            obj.insert("version".into(), json("4"));
            object_at(obj, "world").insert("data_counter".into(), json("101"));
        })
    }

    /// `payload` as a version-3 build wrote it: the version-4 shape
    /// plus the checkpoint cadence (unset) in the blueprint configs, its
    /// counter and the resume flag on the live fiber.
    fn as_v3(payload: &[u8]) -> Vec<u8> {
        edited(&as_v4(payload), |obj| {
            obj.insert("version".into(), json("3"));
            set_config(obj, "checkpoint_every", "null");
            let fiber = object_at(live_slot(obj), "fiber");
            fiber.insert("since_checkpoint".into(), json("0"));
            fiber.insert("prime_flow_base".into(), json("false"));
        })
    }

    /// `payload` as a version-2 build wrote it: the version-3 shape
    /// plus the `core` that ran, its wake hints, and a `blockers` list
    /// on the live slot.
    fn as_v2(payload: &[u8]) -> Vec<u8> {
        edited(&as_v3(payload), |obj| {
            obj.insert("version".into(), json("2"));
            obj.insert("core".into(), json(r#""Event""#));
            obj.insert("freed".into(), json(r#"["ac-prep"]"#));
            obj.insert("last_generation".into(), json("2"));
            live_slot(obj).insert("blockers".into(), json(r#"["ac-cook"]"#));
        })
    }

    #[test]
    fn older_payload_shapes_still_restore() {
        let record = captured();
        let baseline = recover_from(&record, record.state.clone()).unwrap();
        assert!(baseline.all_succeeded() && baseline.cases.len() == 2);

        // Version 7: the admission log folds into the tenant counts, the
        // fiber's transition baseline and `done` are present and ignored,
        // and `replan: false` forbids the replans `max_replans` allows.
        let v7 = as_v7(&record.state);
        let text = std::str::from_utf8(&v7).unwrap();
        for key in [
            r#""version":7"#,
            r#""admissions":[{"#,
            r#""flow_base":{"BEGIN":1}"#,
            r#""done":false"#,
            r#""replan":false"#,
            r#""max_replans":3"#,
        ] {
            assert!(text.contains(key), "{key} missing from the v7 shape");
        }
        assert!(!text.contains(r#""tenants":"#));
        assert_eq!(EngineSnapshot::from_bytes(&v7).unwrap().version, 7);
        assert_eq!(recover_from(&record, v7).unwrap(), baseline);
        // With `cook`'s one host down, `meal-0` finds no candidate for
        // `cook` and escalates: the switch on re-plans, the switch off
        // aborts, and `meal-1` is refused admission either way.
        let on_a_failing_world = |replan: &str| {
            let payload = edited(&as_v7(&record.state), |obj| {
                set_config(obj, "replan", replan)
            });
            let (outcome, journal) = recover_onto(&record, payload, |_, w| {
                w.set_container_up("ac-cook", false).unwrap();
            });
            let outcome = outcome.unwrap();
            assert!(outcome.cases.iter().all(|c| !c.report.success));
            let replans = journal
                .records()
                .iter()
                .filter(|r| r.event.label() == "replan.triggered")
                .count();
            (outcome.cases[0].report.replans, replans)
        };
        assert!(on_a_failing_world("true").1 > 0);
        assert_eq!(on_a_failing_world("false"), (0, 0));

        // Version 6: the recovery switch, the attempt counters and the
        // backoff list are present and ignored.
        let v6 = as_v6(&record.state);
        let text = std::str::from_utf8(&v6).unwrap();
        for key in [
            r#""version":6"#,
            r#""enabled":false"#,
            r#""attempts":{}"#,
            r#""pending_backoffs":[]"#,
        ] {
            assert!(text.contains(key), "{key} missing from the v6 shape");
        }
        assert_eq!(EngineSnapshot::from_bytes(&v6).unwrap().version, 6);
        assert_eq!(recover_from(&record, v6).unwrap(), baseline);

        // Version 5: the report's checkpoint list is present and ignored.
        let v5 = as_v5(&record.state);
        let text = std::str::from_utf8(&v5).unwrap();
        for key in [r#""version":5"#, r#""checkpoints":[]"#] {
            assert!(text.contains(key), "{key} missing from the v5 shape");
        }
        assert_eq!(EngineSnapshot::from_bytes(&v5).unwrap().version, 5);
        assert_eq!(recover_from(&record, v5).unwrap(), baseline);

        // Version 4: the world's id counter is present and ignored.
        let v4 = as_v4(&record.state);
        let text = std::str::from_utf8(&v4).unwrap();
        for key in [
            r#""version":4"#,
            r#""checkpoints":[]"#,
            r#""data_counter":101"#,
        ] {
            assert!(text.contains(key), "{key} missing from the v4 shape");
        }
        assert_eq!(EngineSnapshot::from_bytes(&v4).unwrap().version, 4);
        assert_eq!(recover_from(&record, v4).unwrap(), baseline);

        // Version 3: the checkpoint cadence keys are present and
        // ignored; no checkpoint was captured.
        let v3 = as_v3(&record.state);
        let text = std::str::from_utf8(&v3).unwrap();
        for key in [
            r#""version":3"#,
            r#""since_checkpoint":0"#,
            r#""prime_flow_base":false"#,
            r#""checkpoint_every":null"#,
            r#""checkpoints":[]"#,
            r#""data_counter":101"#,
        ] {
            assert!(text.contains(key), "{key} missing from the v3 shape");
        }
        assert_eq!(EngineSnapshot::from_bytes(&v3).unwrap().version, 3);
        assert_eq!(recover_from(&record, v3).unwrap(), baseline);

        // Version 2: the removed keys are present and ignored.
        let v2 = as_v2(&record.state);
        let text = std::str::from_utf8(&v2).unwrap();
        for key in [
            r#""version":2"#,
            r#""core":"Event""#,
            r#""freed":["ac-prep"]"#,
            r#""last_generation":2"#,
            r#""blockers":["ac-cook"]"#,
        ] {
            assert!(text.contains(key), "{key} missing from the v2 shape");
        }
        assert_eq!(EngineSnapshot::from_bytes(&v2).unwrap().version, 2);
        assert_eq!(recover_from(&record, v2.clone()).unwrap(), baseline);

        // Version 1: the same state with neither `version` nor `core`.
        let v1 = edited(&v2, |obj| {
            obj.remove("version");
            obj.remove("core");
        });
        assert_eq!(EngineSnapshot::from_bytes(&v1).unwrap().version, 1);
        assert_eq!(recover_from(&record, v1).unwrap(), baseline);

        // Version 2 as the sharded core wrote it: a `shard` stamp on
        // each live slot.  Unknown keys are ignored.
        let stamped = edited(&v2, |obj| {
            live_slot(obj).insert("shard".into(), json("3"));
        });
        assert!(std::str::from_utf8(&stamped)
            .unwrap()
            .contains(r#""shard":3"#));
        assert_eq!(recover_from(&record, stamped).unwrap(), baseline);
    }

    /// `v` as JSON text with every object's keys in reverse order.
    fn reversed_keys(v: &serde_json::Value) -> String {
        let list = |items: Vec<String>| items.join(",");
        match v {
            serde_json::Value::Object(map) => format!(
                "{{{}}}",
                list(
                    map.iter()
                        .rev()
                        .map(|(k, v)| format!(
                            "{}:{}",
                            serde_json::Value::from(k.as_str()),
                            reversed_keys(v)
                        ))
                        .collect()
                )
            ),
            serde_json::Value::Array(items) => {
                format!("[{}]", list(items.iter().map(reversed_keys).collect()))
            }
            scalar => scalar.to_string(),
        }
    }

    /// A current-version payload read straight into an image and read
    /// as a tree gives one image: as written, and with every object's
    /// keys reversed, an unknown key or a `core` key, which the direct
    /// read hands to the tree form.  Its refusals are the tree form's.
    #[test]
    fn current_payloads_read_directly_into_the_image_their_tree_gives() {
        let record = captured();
        let text = |payload: &[u8]| std::str::from_utf8(payload).unwrap().to_owned();
        let reversed = reversed_keys(&json(&text(&record.state))).into_bytes();
        assert_ne!(reversed, record.state);
        let unknown = edited(&record.state, |obj| {
            obj.insert("zz".into(), json(r#"[1,{"a":null}]"#));
        });
        let core = edited(&record.state, |obj| {
            obj.insert("core".into(), json(r#""Event""#));
        });
        for payload in [record.state.clone(), reversed, unknown, core] {
            let read = EngineSnapshot::from_bytes(&payload).unwrap();
            let tree = EngineSnapshot::from_json_value(&json(&text(&payload))).unwrap();
            assert_eq!(read.to_bytes(), tree.to_bytes());
            assert_eq!(read.to_bytes(), record.state);
        }
        // Any other `core`, even `null`, and a missing key are refused.
        for core in [r#""Scan""#, "null"] {
            let refused = edited(&record.state, |obj| {
                obj.insert("core".into(), json(core));
            });
            let why = EngineSnapshot::from_bytes(&refused).unwrap_err();
            assert!(why.starts_with("field `core`"), "{why}");
        }
        for key in ["finished", "world"] {
            let cut = edited(&record.state, |obj| {
                obj.remove(key);
            });
            let why = EngineSnapshot::from_bytes(&cut).unwrap_err();
            assert!(why.starts_with(&format!("missing field `{key}`")), "{why}");
        }
    }

    #[test]
    fn recovering_with_no_store_bound_is_a_typed_error() {
        let mut unbound = CaseScheduler::new(EngineConfig::default());
        let refused = unbound.recover(&mut world(), |_, _| {});
        assert_eq!(refused, Err(StoreError::NotBound));
    }

    #[test]
    fn unknown_cores_and_newer_versions_are_refused_not_panicked_on() {
        let record = captured();
        let with_core = |core: &str| {
            let core = serde_json::from_str(core).unwrap();
            edited(&as_v2(&record.state), |obj| {
                obj.insert("core".into(), core);
            })
        };
        // A version-3 run checkpointing every activity: its journal
        // holds `checkpoint.captured` records this build would not
        // re-emit, so recovery must refuse before re-executing —
        // whether the snapshot was taken before the first capture...
        let cadenced = edited(&as_v3(&record.state), |obj| {
            set_config(obj, "checkpoint_every", "1")
        });
        // ...or after the live fiber checkpointed past `prep` (the
        // entry is abbreviated: the cadence decides the refusal before
        // any report is decoded).
        let checkpointed = edited(&cadenced, |obj| {
            let report = object_at(object_at(live_slot(obj), "fiber"), "report");
            report.insert("checkpoints".into(), json(r#"[{"version":1,"replans":0}]"#));
        });
        // A version-6 fleet that ran the ladder numbered its `attempt`s
        // without the reserved-away candidates: the overlap this build
        // regenerates could differ from the journal's, so recovery
        // refuses before re-executing — whichever part switched a rung
        // on...
        let ladder = |key: &str, value: &str| {
            edited(&as_v6(&record.state), |obj| {
                set_policy(obj, "enabled", "true");
                set_policy(obj, key, value);
            })
        };
        // ...and a switch that disagrees with the parts (on over
        // nothing, off over a lease) would select a different loop.
        let switched_on = edited(&as_v6(&record.state), |obj| {
            set_policy(obj, "enabled", "true");
        });
        let switched_off = edited(&as_v6(&record.state), |obj| {
            set_policy(obj, "lease", r#"{"lease_ticks":60}"#);
        });
        let refusals = [
            (with_core(r#"{"Sharded":{"shards":4}}"#), "field `core`"),
            (with_core(r#""Scan""#), "field `core`"),
            (
                edited(&record.state, |obj| {
                    obj.insert("version".into(), json("9"));
                }),
                "version 9 is newer",
            ),
            (cadenced, "version 3 checkpointed its cases"),
            (checkpointed, "version 3 checkpointed its cases"),
            (
                ladder("lease", r#"{"lease_ticks":60}"#),
                "version 6 ran the recovery ladder",
            ),
            (
                ladder("breaker", r#"{"failure_threshold":3,"open_ticks":120}"#),
                "version 6 ran the recovery ladder",
            ),
            // (abbreviated: the refusal is decided before the policy is
            // decoded)
            (
                ladder("retry", r#"{"max_attempts":3}"#),
                "version 6 ran the recovery ladder",
            ),
            (switched_on, "`recovery.enabled`: true"),
            (switched_off, "`recovery.enabled`: false"),
        ];
        for (payload, names) in refusals {
            let decode = EngineSnapshot::from_bytes(&payload).unwrap_err();
            assert!(decode.contains(names), "{decode}");
            match recover_from(&record, payload) {
                Err(StoreError::Corrupt(why)) => assert!(why.contains(names), "{why}"),
                other => panic!("expected StoreError::Corrupt, got {other:?}"),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Decode fuzzing: a payload is bytes from a disk, so nothing in
        /// them may panic the decoder.
        #[test]
        fn arbitrary_payload_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let _ = EngineSnapshot::from_bytes(&bytes);
        }

        /// A flipped bit is refused or decodes to a different state.  It
        /// can go unnoticed in one place only: the name of a key that
        /// held `null`, which decodes to the `None` the unknown key
        /// leaves behind.
        #[test]
        fn a_flipped_payload_bit_is_an_error_or_a_different_snapshot(bit_pick in 0usize..1_000_000) {
            let original = captured().state;
            let mut payload = original.clone();
            let bit = bit_pick % (payload.len() * 8);
            payload[bit / 8] ^= 1 << (bit % 8);
            let same_state = EngineSnapshot::from_bytes(&payload)
                .is_ok_and(|image| image.to_bytes() == original);
            if same_state {
                let without_nulls = |bytes: &[u8]| {
                    let mut tree = json(std::str::from_utf8(bytes).unwrap());
                    strip_nulls(&mut tree);
                    tree
                };
                proptest::prop_assert_eq!(
                    without_nulls(&payload),
                    without_nulls(&original),
                    "bit {} went unnoticed",
                    bit
                );
            }
        }
    }

    /// Remove every `null`-valued entry of every object under `tree`.
    fn strip_nulls(tree: &mut serde_json::Value) {
        if let Some(items) = tree.as_array_mut() {
            items.iter_mut().for_each(strip_nulls);
        } else if let Some(obj) = tree.as_object_mut() {
            obj.retain(|_, value| !value.is_null());
            obj.values_mut().for_each(strip_nulls);
        }
    }
}
