//! The monitoring sweep feeds the circuit breakers in place.  Its
//! reference is the loop it replaced: probe each container with
//! `probe_container`, in topology order, and feed the status each probe
//! reports.  Over seeded sequences of up/down flips, recovery-clock
//! advances and execution outcomes, the two must leave equal
//! `RecoveryState`s and emit equal event streams.
//!
//! `PROPTEST_SEED=<n>` draws another sample.

use gridflow_grid::GridTopology;
use gridflow_recovery::{BreakerConfig, RecoveryManager, RecoveryPolicy};
use gridflow_services::monitoring::MonitoringService;
use gridflow_services::world::GridWorld;
use gridflow_telemetry::{TraceHandle, TraceLog};
use proptest::prelude::*;

/// One thing that can happen between two sweeps.
#[derive(Debug, Clone)]
enum Step {
    /// Flip container `i % n` up or down.
    Flip(usize),
    /// Advance the recovery clock.
    Advance(u64),
    /// An execution on container `i % n` failed.
    Fail(usize),
    /// An execution on container `i % n` succeeded.
    Succeed(usize),
    /// Sweep every container.
    Feed,
}

fn step() -> Sampler<Step> {
    prop_oneof![
        (0..16usize).prop_map(Step::Flip),
        (0..40u64).prop_map(Step::Advance),
        (0..16usize).prop_map(Step::Fail),
        (0..16usize).prop_map(Step::Succeed),
        Just(Step::Feed),
        Just(Step::Feed),
    ]
}

/// The per-container loop the in-place sweep replaced.
fn probe_loop(world: &GridWorld, recovery: &mut RecoveryManager) -> usize {
    if recovery.policy().breaker.is_none() {
        return 0;
    }
    let mut fed = 0;
    for c in &world.topology.containers {
        let status = MonitoringService
            .probe_container(world, &c.id)
            .expect("every listed container probes");
        recovery.note_probe(&status.container, status.up);
        fed += 1;
    }
    fed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_in_place_sweep_feeds_what_the_probe_loop_did(
        sites in 1..9usize,
        topology_seed in 0..1_000u64,
        threshold in 1..4usize,
        open_ticks in 0..30u64,
        breaker in 0..5u8,
        steps in prop::collection::vec(step(), 1..80),
    ) {
        let mut world = GridWorld::new(GridTopology::generate(sites, &["S".into()], topology_seed));
        let policy = RecoveryPolicy {
            // One case in five runs without a breaker: nothing to feed.
            breaker: (breaker > 0).then_some(BreakerConfig { failure_threshold: threshold, open_ticks }),
            ..RecoveryPolicy::standard()
        };
        let (swept_log, looped_log) = (TraceLog::new(), TraceLog::new());
        let mut swept = RecoveryManager::with_trace_handle(policy.clone(), TraceHandle::from(swept_log.clone()));
        let mut looped = RecoveryManager::with_trace_handle(policy, TraceHandle::from(looped_log.clone()));
        let id = |world: &GridWorld, i: usize| world.topology.containers[i % sites].id.clone();
        for step in &steps {
            match *step {
                Step::Flip(i) => {
                    let c = &world.topology.containers[i % sites];
                    let (c, up) = (c.id.clone(), c.up);
                    world.set_container_up(&c, !up).unwrap();
                }
                Step::Advance(ticks) => {
                    swept.tick(ticks);
                    looped.tick(ticks);
                }
                Step::Fail(i) => {
                    swept.record_failure(&id(&world, i));
                    looped.record_failure(&id(&world, i));
                }
                Step::Succeed(i) => {
                    swept.record_success(&id(&world, i));
                    looped.record_success(&id(&world, i));
                }
                Step::Feed => {
                    prop_assert_eq!(
                        MonitoringService.feed_recovery(&world, &mut swept),
                        probe_loop(&world, &mut looped)
                    );
                }
            }
            prop_assert_eq!(swept.snapshot(), looped.snapshot());
        }
        prop_assert_eq!(swept_log.to_jsonl(), looped_log.to_jsonl());
    }
}
