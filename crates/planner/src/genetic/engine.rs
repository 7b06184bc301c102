//! The GP main loop (§3.4.6):
//!
//! ```text
//! 1. Initialize population;
//! 2. While some stopping conditions are not met, do
//!    (a) Evaluate the current population;
//!    (b) Select the individuals and form a new population;
//!    (c) Crossover;
//!    (d) Mutate;
//! 3. Select a plan that has the highest fitness as the final solution.
//! ```
//!
//! Everything runs on the calling thread: initialization, selection and
//! the genetic operators draw from a single seeded RNG and fitness
//! evaluation is a pure function, so a run is fully determined by its
//! `(config.seed, problem)` pair.  Evaluation is embarrassingly parallel,
//! but against the lowered problem (see [`crate::simulate`]) a
//! 200-individual generation is ≈0.2 ms of it: measured at populations
//! 200 / 1,000 / 5,000, two scoped threads per generation gave 0.87× /
//! 0.96× / 1.07× of serial plans/s (`BENCH_planner.json`,
//! `thread_sweep`), so there is no threaded path.

use crate::fitness::Fitness;
use crate::genetic::config::GpConfig;
use crate::genetic::init::random_tree;
use crate::genetic::ops::{crossover, mutate};
use crate::problem::PlanningProblem;
use crate::simulate::Simulator;
use crate::state::PlanningState;
use gridflow_plan::PlanNode;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Per-generation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation index (0-based).
    pub generation: usize,
    /// Fitness of the generation's best individual.
    pub best: Fitness,
    /// Mean overall fitness of the population.
    pub mean_overall: f64,
    /// Mean plan-tree size of the population.
    pub mean_size: f64,
}

/// Result of a GP run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpResult {
    /// The highest-fitness plan of the final evaluated generation (the
    /// paper's step 3).
    pub best: PlanNode,
    /// Its fitness.
    pub best_fitness: Fitness,
    /// The best plan seen in *any* generation (may differ from `best`
    /// when later generations drift).
    pub best_ever: PlanNode,
    /// Its fitness.
    pub best_ever_fitness: Fitness,
    /// Per-generation statistics, in order.
    pub history: Vec<GenerationStats>,
    /// Total fitness evaluations performed.
    pub evaluations: usize,
}

/// The GP planner: a configuration plus a problem, lowered to ids once
/// for every evaluation of the run.
#[derive(Debug, Clone)]
pub struct GpPlanner {
    config: GpConfig,
    simulator: Simulator,
}

impl GpPlanner {
    /// Create a planner; panics on an invalid configuration (configs are
    /// developer inputs, not runtime data).
    pub fn new(config: GpConfig, problem: PlanningProblem) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid GP configuration: {msg}");
        }
        GpPlanner {
            config,
            simulator: Simulator::new(&problem),
        }
    }

    /// Run the GP to completion.
    pub fn run(&self) -> GpResult {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let cfg = &self.config;
        let activity_names = self.simulator.activity_names();
        let mut population: Vec<PlanNode> = (0..cfg.population_size)
            .map(|_| {
                let size = rng.gen_range(1..=cfg.init_max_size);
                random_tree(&mut rng, size, activity_names)
            })
            .collect();

        let mut history = Vec::with_capacity(cfg.generations);
        let mut evaluations = 0usize;
        let mut best_ever: Option<(PlanNode, Fitness)> = None;
        let mut final_best: Option<(PlanNode, Fitness)> = None;

        for generation in 0..cfg.generations.max(1) {
            let fitnesses = self.evaluate_population(&population);
            evaluations += fitnesses.len();

            let (best_idx, best_fit) = fitnesses
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.overall.total_cmp(&b.1.overall))
                .map(|(i, f)| (i, *f))
                .expect("population is non-empty");
            let mean_overall =
                fitnesses.iter().map(|f| f.overall).sum::<f64>() / fitnesses.len() as f64;
            let mean_size =
                fitnesses.iter().map(|f| f.size as f64).sum::<f64>() / fitnesses.len() as f64;
            history.push(GenerationStats {
                generation,
                best: best_fit,
                mean_overall,
                mean_size,
            });
            if best_ever
                .as_ref()
                .map(|(_, f)| best_fit.overall > f.overall)
                .unwrap_or(true)
            {
                best_ever = Some((population[best_idx].clone(), best_fit));
            }
            final_best = Some((population[best_idx].clone(), best_fit));

            let stop = cfg.early_stop_on_perfect && best_fit.is_perfect();
            if generation + 1 == cfg.generations.max(1) || stop {
                break;
            }

            // Elitism: remember the top-k before selection disturbs them.
            let elites: Vec<PlanNode> = if cfg.elitism > 0 {
                let mut ranked: Vec<usize> = (0..population.len()).collect();
                ranked.sort_by(|&a, &b| fitnesses[b].overall.total_cmp(&fitnesses[a].overall));
                ranked
                    .into_iter()
                    .take(cfg.elitism)
                    .map(|i| population[i].clone())
                    .collect()
            } else {
                Vec::new()
            };

            // (b) Tournament selection with replacement.
            let mut next: Vec<PlanNode> = Vec::with_capacity(cfg.population_size);
            for _ in 0..cfg.population_size {
                let winner = (0..cfg.tournament_size)
                    .map(|_| rng.gen_range(0..population.len()))
                    .max_by(|&a, &b| fitnesses[a].overall.total_cmp(&fitnesses[b].overall))
                    .expect("tournament_size >= 1");
                next.push(population[winner].clone());
            }

            // (c) Crossover over consecutive pairs.
            for pair in next.chunks_exact_mut(2) {
                if rng.gen_bool(cfg.crossover_rate) {
                    let (a, b) = pair.split_at_mut(1);
                    crossover(&mut a[0], &mut b[0], &mut rng, cfg.smax);
                }
            }

            // (d) Mutation.
            for individual in &mut next {
                mutate(
                    individual,
                    &mut rng,
                    cfg.mutation_rate,
                    cfg.smax,
                    cfg.init_max_size,
                    activity_names,
                );
            }

            // Re-seat the elites unchanged.
            for (slot, elite) in next.iter_mut().zip(elites) {
                *slot = elite;
            }

            population = next;
        }

        let (best, best_fitness) = final_best.expect("at least one generation ran");
        let (best_ever, best_ever_fitness) = best_ever.expect("at least one generation ran");
        GpResult {
            best,
            best_fitness,
            best_ever,
            best_ever_fitness,
            history,
            evaluations,
        }
    }

    /// (a) Evaluate the whole population against the lowered problem,
    /// sharing one simulation state.
    fn evaluate_population(&self, population: &[PlanNode]) -> Vec<Fitness> {
        let cfg = &self.config;
        let mut state = PlanningState::default();
        population
            .iter()
            .map(|t| {
                let outcome = self.simulator.run(t, cfg.flow_cap, &mut state);
                Fitness::of(outcome, t.size(), cfg.smax, cfg.weights)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ActivitySpec;

    fn chain_problem() -> PlanningProblem {
        PlanningProblem::builder()
            .initial(["Raw"])
            .goal("Final", 1)
            .activity(ActivitySpec::new("step1", ["Raw"], ["Mid"]))
            .activity(ActivitySpec::new("step2", ["Mid"], ["Final"]))
            .activity(ActivitySpec::new("distractor", ["Other"], ["Noise"]))
            .build()
    }

    fn small_config(seed: u64) -> GpConfig {
        GpConfig {
            population_size: 60,
            generations: 15,
            seed,
            ..GpConfig::default()
        }
    }

    #[test]
    fn solves_a_two_step_chain() {
        let result = GpPlanner::new(small_config(1), chain_problem()).run();
        assert!(
            result.best_fitness.is_perfect(),
            "expected a perfect plan, got {:?}",
            result.best_fitness
        );
        // The ideal plan is Sequential(step1, step2): size 3.
        assert!(result.best_fitness.size <= 10);
    }

    #[test]
    fn is_deterministic_for_a_seed() {
        let r1 = GpPlanner::new(small_config(7), chain_problem()).run();
        let r2 = GpPlanner::new(small_config(7), chain_problem()).run();
        assert_eq!(r1.best, r2.best);
        assert_eq!(r1.history, r2.history);
        // And the ignored thread count must not change the outcome.
        let mut cfg = small_config(7);
        cfg.threads = 1;
        let r3 = GpPlanner::new(cfg, chain_problem()).run();
        assert_eq!(r1.best, r3.best);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let r1 = GpPlanner::new(small_config(1), chain_problem()).run();
        let r2 = GpPlanner::new(small_config(2), chain_problem()).run();
        // Histories almost surely differ (same best is fine).
        assert_ne!(r1.history, r2.history);
    }

    #[test]
    fn history_length_matches_generations() {
        let result = GpPlanner::new(small_config(3), chain_problem()).run();
        assert_eq!(result.history.len(), 15);
        assert_eq!(result.evaluations, 60 * 15);
        for w in result.history.windows(2) {
            assert_eq!(w[1].generation, w[0].generation + 1);
        }
    }

    #[test]
    fn early_stop_trims_the_run() {
        let mut cfg = small_config(4);
        cfg.early_stop_on_perfect = true;
        cfg.generations = 50;
        let result = GpPlanner::new(cfg, chain_problem()).run();
        assert!(result.best_fitness.is_perfect());
        assert!(result.history.len() <= 50);
    }

    #[test]
    fn best_ever_is_at_least_final_best() {
        let result = GpPlanner::new(small_config(5), chain_problem()).run();
        assert!(result.best_ever_fitness.overall >= result.best_fitness.overall - 1e-12);
    }

    #[test]
    fn all_population_sizes_respect_smax() {
        let mut cfg = small_config(6);
        cfg.smax = 12;
        cfg.init_max_size = 12;
        let result = GpPlanner::new(cfg, chain_problem()).run();
        assert!(result.best_fitness.size <= 12);
        for g in &result.history {
            assert!(g.mean_size <= 12.0 + 1e-9);
        }
    }

    #[test]
    fn unsolvable_problem_keeps_goal_fitness_at_zero() {
        let problem = PlanningProblem::builder()
            .initial(["Raw"])
            .goal("Unreachable", 1)
            .activity(ActivitySpec::new("step1", ["Raw"], ["Mid"]))
            .build();
        let result = GpPlanner::new(small_config(8), problem).run();
        assert_eq!(result.best_fitness.goal, 0.0);
        // But valid small plans still score on f_v and f_r.
        assert!(result.best_fitness.overall > 0.0);
    }

    #[test]
    fn elitism_makes_best_fitness_monotone() {
        let cfg = GpConfig {
            elitism: 2,
            ..small_config(12)
        };
        let result = GpPlanner::new(cfg, chain_problem()).run();
        for w in result.history.windows(2) {
            assert!(
                w[1].best.overall >= w[0].best.overall - 1e-12,
                "elitism must never lose the best: {:?} then {:?}",
                w[0].best,
                w[1].best
            );
        }
        // And the final answer equals the best ever seen.
        assert!((result.best_fitness.overall - result.best_ever_fitness.overall).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid GP configuration")]
    fn invalid_config_panics() {
        let cfg = GpConfig {
            population_size: 0,
            ..GpConfig::default()
        };
        let _ = GpPlanner::new(cfg, chain_problem());
    }
}
