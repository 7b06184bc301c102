//! Property-based tests for the service layer: scheduling bounds,
//! storage versioning, enactment accounting, and tracker validity.

use gridflow_grid::container::ApplicationContainer;
use gridflow_grid::resource::{Resource, ResourceKind};
use gridflow_grid::GridTopology;
use gridflow_process::{lower::lower, parser::parse_process, CaseDescription, DataItem};
use gridflow_services::coordination::{
    CaseFiber, EnactmentConfig, Enactor, FiberSlim, FiberStatus,
};
use gridflow_services::scheduling::schedule;
use gridflow_services::storage::StorageService;
use gridflow_services::tracker::track_enactment;
use gridflow_services::world::{GridWorld, OutputSpec, ServiceOffering};
use gridflow_telemetry::TraceHandle;
use proptest::prelude::*;
use serde_json::json;

/// A world with `n_resources` uniform hosts all hosting `services`.
fn uniform_world(n_resources: usize, services: &[String]) -> GridWorld {
    let resources: Vec<Resource> = (0..n_resources)
        .map(|i| {
            Resource::new(format!("r{i}"), ResourceKind::PcCluster)
                .with_nodes(8 + i as u32)
                .with_software(services.to_vec())
        })
        .collect();
    let containers: Vec<ApplicationContainer> = (0..n_resources)
        .map(|i| {
            ApplicationContainer::new(format!("ac{i}"), format!("r{i}")).hosting(services.to_vec())
        })
        .collect();
    let mut world = GridWorld::new(GridTopology {
        resources,
        containers,
    });
    for (i, s) in services.iter().enumerate() {
        world.offer(
            ServiceOffering::new(
                s.clone(),
                Vec::<String>::new(),
                vec![OutputSpec::plain("out")],
            )
            .with_demand(gridflow_grid::TaskDemand::coarse(
                s.clone(),
                50.0 * (i + 1) as f64,
                1.0,
            )),
        );
    }
    world
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scheduling bounds: makespan is at least the longest single job's
    /// best duration and at most the serial sum; per-resource queues
    /// never overlap.
    #[test]
    fn scheduling_bounds(n_resources in 1usize..5, job_picks in prop::collection::vec(0usize..3, 1..12)) {
        let services: Vec<String> = vec!["s0".into(), "s1".into(), "s2".into()];
        let world = uniform_world(n_resources, &services);
        let jobs: Vec<String> = job_picks.iter().map(|&i| services[i].clone()).collect();
        let (sched, skipped) = schedule(&world, &jobs).unwrap();
        prop_assert!(skipped.is_empty());
        prop_assert_eq!(sched.placements.len(), jobs.len());
        let serial: f64 = sched.placements.iter().map(|p| p.duration_s).sum();
        let longest: f64 = sched
            .placements
            .iter()
            .map(|p| p.duration_s)
            .fold(0.0, f64::max);
        prop_assert!(sched.makespan_s <= serial + 1e-9);
        prop_assert!(sched.makespan_s >= longest - 1e-9);
        // No overlap per resource.
        let mut by_resource: std::collections::BTreeMap<&str, Vec<(f64, f64)>> =
            std::collections::BTreeMap::new();
        for p in &sched.placements {
            by_resource
                .entry(p.resource.as_str())
                .or_default()
                .push((p.start_s, p.start_s + p.duration_s));
        }
        for (_, mut spans) in by_resource {
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in spans.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0 + 1e-9);
            }
        }
    }

    /// Storage versioning: N puts produce versions 1..=N, the latest get
    /// returns the last body, and every historical version stays intact.
    #[test]
    fn storage_versions_are_dense(bodies in prop::collection::vec(any::<i64>(), 1..20)) {
        let mut store = StorageService::new();
        for (i, body) in bodies.iter().enumerate() {
            let v = store.put("k", json!(body));
            prop_assert_eq!(v, i as u64 + 1);
        }
        prop_assert_eq!(store.version_count("k"), bodies.len() as u64);
        prop_assert_eq!(&store.get("k").unwrap().body, &json!(bodies.last().unwrap()));
        for (i, body) in bodies.iter().enumerate() {
            prop_assert_eq!(
                &store.get_version("k", i as u64 + 1).unwrap().body,
                &json!(body)
            );
        }
        // Snapshot/restore preserves the whole history.
        let snap = store.snapshot().unwrap();
        prop_assert_eq!(StorageService::restore(&snap).unwrap(), store);
    }

    /// Checkpoint/resume equivalence: a fiber captured after any number
    /// of steps — its [`FiberSlim`] through JSON, the world through its
    /// image onto a fresh one, as the engine's store carries them —
    /// resumes to the uninterrupted run's report.
    #[test]
    fn any_checkpoint_resumes_to_the_same_outcome(picks in prop::collection::vec(0usize..3, 2..8)) {
        let services: Vec<String> = vec!["s0".into(), "s1".into(), "s2".into()];
        let body: String = picks.iter().map(|&i| format!("s{i}; ")).collect();
        let graph = lower("chain", &parse_process(&format!("BEGIN {body} END")).unwrap()).unwrap();
        let case = CaseDescription::new("prop").with_data("D1", DataItem::classified("seed"));
        let full = Enactor::default().enact(&mut uniform_world(3, &services), &graph, &case);
        prop_assert!(full.success);
        for steps in 1..=picks.len() {
            let mut world = uniform_world(3, &services);
            let mut crashed = CaseFiber::new(
                EnactmentConfig::default(),
                TraceHandle::none(),
                &graph,
                case.clone(),
                "chain",
            );
            for _ in 0..steps {
                prop_assert_eq!(crashed.step(&mut world), FiberStatus::Progressed);
            }
            let archived = serde_json::to_string(&crashed.slim(0)).unwrap();
            let image: FiberSlim = serde_json::from_str(&archived).unwrap();
            prop_assert_eq!(image.report.executions.len(), steps);
            let mut fresh = uniform_world(3, &services);
            fresh.restore_image(&world.image()).unwrap();
            let (graph, case, config) = crashed.blueprint();
            let mut resumed = CaseFiber::from_slim(
                image,
                graph.clone(),
                case.clone(),
                config.clone(),
                TraceHandle::none(),
            );
            while resumed.step(&mut fresh) != FiberStatus::Finished {}
            prop_assert_eq!(resumed.report(), &full);
        }
    }

    /// Enactment accounting: for any sequential chain over a permissive
    /// world, the report's totals equal the world's history, every
    /// execution succeeds, and the tracker produces a valid ontology.
    #[test]
    fn enactment_accounting_and_tracking(picks in prop::collection::vec(0usize..3, 1..10)) {
        let services: Vec<String> = vec!["s0".into(), "s1".into(), "s2".into()];
        let mut world = uniform_world(3, &services);
        let body: String = picks.iter().map(|&i| format!("s{i}; ")).collect();
        let graph = lower("chain", &parse_process(&format!("BEGIN {body} END")).unwrap()).unwrap();
        let case = CaseDescription::new("prop").with_data("D1", DataItem::classified("seed"));
        let report = Enactor::default().enact(&mut world, &graph, &case);
        prop_assert!(report.success);
        prop_assert_eq!(report.executions.len(), picks.len());
        let world_total: f64 = world.history.iter().map(|r| r.duration_s).sum();
        prop_assert!((world_total - report.total_duration_s).abs() < 1e-6);
        prop_assert!(world.history.iter().all(|r| r.success));

        let kb = track_enactment("T1", &graph, &case, &report, "coordination-1").unwrap();
        prop_assert!(kb.validate_all().is_empty());
        prop_assert!(kb.dangling_refs().is_empty());
        // The task completed and references everything it should.
        let task = kb.instance("T1").unwrap();
        prop_assert_eq!(task.get_str("Status"), Some("Completed"));
    }
}
