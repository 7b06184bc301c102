//! The simulation service: "Simulation services are necessary to study
//! the scalability of the system and they are also useful for end-users
//! to simulate an experiment before actually conducting it" (§2).
//!
//! [`predict`] dry-runs a process description against the world, which
//! it only reads, with a discrete-event engine: ready activities start
//! concurrently (the real enactor serializes; the prediction exploits
//! Fork parallelism), no failures strike, and every activity runs on
//! its best-matching container.  The result is the parallel makespan and total cost the
//! enactment would achieve in the fault-free case.

use crate::error::{Result, ServiceError};
use crate::matchmaking::{matchmake, MatchRequest};
use crate::world::GridWorld;
use gridflow_grid::{Event, SimEngine};
use gridflow_process::{AtnMachine, CaseDescription, ProcessGraph};
use serde::{Deserialize, Serialize};

/// A simulated-enactment prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Parallel makespan (seconds).
    pub makespan_s: f64,
    /// Total cost across all executions.
    pub total_cost: f64,
    /// Number of activity executions.
    pub executions: usize,
    /// Activity → container placements chosen.
    pub placements: Vec<(String, String)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Completion {
    activity: String,
}

/// Predict one enactment of `graph` under `case`.
///
/// The caller's world is untouched: prediction only matchmakes against
/// it and derives outputs into its own data state (the paper's point —
/// simulate *before* conducting).
pub fn predict(
    world: &GridWorld,
    graph: &ProcessGraph,
    case: &CaseDescription,
    max_events: u64,
) -> Result<Prediction> {
    let mut machine = AtnMachine::new(graph)?;
    let mut state = case.initial_data.clone();
    machine.start(&state)?;

    let mut engine: SimEngine<Completion> = SimEngine::new();
    let mut prediction = Prediction {
        makespan_s: 0.0,
        total_cost: 0.0,
        executions: 0,
        placements: Vec::new(),
    };

    // Helper: launch every currently ready activity.
    let launch = |machine: &mut AtnMachine,
                  engine: &mut SimEngine<Completion>,
                  world: &GridWorld,
                  prediction: &mut Prediction|
     -> Result<()> {
        while let Some(activity) = machine.ready().first().cloned() {
            machine.begin_activity(&activity)?;
            let service = graph
                .activity(&activity)
                .and_then(|a| a.service.clone())
                .unwrap_or_else(|| activity.clone());
            let best = matchmake(world, &MatchRequest::for_service(&service))?
                .into_iter()
                .next()
                .expect("matchmake returns at least one match");
            prediction.total_cost += best.cost;
            prediction.executions += 1;
            prediction
                .placements
                .push((activity.clone(), best.container.clone()));
            // Micro-second resolution clock.
            engine.schedule_in((best.duration_s * 1e6) as u64, Completion { activity });
        }
        Ok(())
    };

    launch(&mut machine, &mut engine, world, &mut prediction)?;
    let mut events = 0u64;
    while let Some(Event { time, payload, .. }) = engine.next() {
        events += 1;
        if events > max_events {
            return Err(ServiceError::BadRequest(format!(
                "prediction exceeded {max_events} events (unbounded loop?)"
            )));
        }
        let service = graph
            .activity(&payload.activity)
            .and_then(|a| a.service.clone())
            .unwrap_or_else(|| payload.activity.clone());
        world.apply_outputs(&service, &mut state)?;
        machine.complete_activity(&payload.activity, &state)?;
        prediction.makespan_s = time as f64 / 1e6;
        launch(&mut machine, &mut engine, world, &mut prediction)?;
    }
    if !machine.is_finished() {
        return Err(ServiceError::BadRequest(
            "prediction stalled before reaching End".into(),
        ));
    }
    Ok(prediction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordination::Enactor;
    use crate::world::{OutputSpec, ServiceOffering};
    use gridflow_grid::GridTopology;
    use gridflow_process::{lower::lower, parser::parse_process, DataItem};

    fn names() -> Vec<String> {
        vec!["a".into(), "b".into(), "c".into()]
    }

    fn world() -> GridWorld {
        let mut w = GridWorld::new(GridTopology::generate(6, &names(), 9));
        for n in ["a", "b", "c"] {
            w.offer(ServiceOffering::new(
                n,
                Vec::<String>::new(),
                vec![OutputSpec::plain(format!("{n}-out"))],
            ));
        }
        w
    }

    fn case() -> CaseDescription {
        CaseDescription::new("sim").with_data("D1", DataItem::classified("Seed"))
    }

    #[test]
    fn sequential_makespan_is_sum_of_durations() {
        let w = world();
        let g = lower("seq", &parse_process("BEGIN a; b; END").unwrap()).unwrap();
        let p = predict(&w, &g, &case(), 1000).unwrap();
        assert_eq!(p.executions, 2);
        assert!(p.makespan_s > 0.0);
    }

    #[test]
    fn fork_runs_branches_in_parallel() {
        let w = world();
        let seq = lower("seq", &parse_process("BEGIN a; b; END").unwrap()).unwrap();
        let par = lower(
            "par",
            &parse_process("BEGIN FORK { { a; }, { b; } } JOIN; END").unwrap(),
        )
        .unwrap();
        let p_seq = predict(&w, &seq, &case(), 1000).unwrap();
        let p_par = predict(&w, &par, &case(), 1000).unwrap();
        assert!(
            p_par.makespan_s < p_seq.makespan_s,
            "parallel {} !< sequential {}",
            p_par.makespan_s,
            p_seq.makespan_s
        );
        // Same work, same cost.
        assert_eq!(p_par.executions, p_seq.executions);
    }

    #[test]
    fn prediction_does_not_mutate_the_world() {
        let w = world();
        let g = lower("seq", &parse_process("BEGIN a; b; c; END").unwrap()).unwrap();
        let before_history = w.history.len();
        let before_clock = w.clock_s;
        predict(&w, &g, &case(), 1000).unwrap();
        assert_eq!(w.history.len(), before_history);
        assert_eq!(w.clock_s, before_clock);
    }

    #[test]
    fn prediction_is_no_slower_than_the_serial_enactor() {
        let mut w = world();
        let g = lower(
            "par",
            &parse_process("BEGIN FORK { { a; }, { b; }, { c; } } JOIN; END").unwrap(),
        )
        .unwrap();
        let p = predict(&w, &g, &case(), 1000).unwrap();
        let report = Enactor::default().enact(&mut w, &g, &case());
        assert!(report.abort_reason.is_none(), "{:?}", report.abort_reason);
        assert!(p.makespan_s <= report.total_duration_s + 1e-9);
    }

    #[test]
    fn runaway_loops_hit_the_event_cap() {
        let w = world();
        let g = lower(
            "loop",
            &parse_process("BEGIN ITERATIVE { COND { D1.Classification = \"Seed\" } } { a; }; END")
                .unwrap(),
        )
        .unwrap();
        let err = predict(&w, &g, &case(), 20).unwrap_err();
        assert!(err.to_string().contains("events"));
    }
}
