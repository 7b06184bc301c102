//! Property-based tests for the GP planner core.

use gridflow_planner::genetic::{crossover, mutate, random_tree};
use gridflow_planner::prelude::*;
use gridflow_planner::{evaluate, FitnessWeights};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn sample_problem() -> PlanningProblem {
    PlanningProblem::builder()
        .initial(["Raw", "Raw", "Param"])
        .goal("Final", 1)
        .goal("Aux", 1)
        .activity(ActivitySpec::new("prep", ["Raw"], ["Mid"]))
        .activity(ActivitySpec::new("finish", ["Mid", "Param"], ["Final"]))
        .activity(ActivitySpec::new("side", ["Raw"], ["Aux"]))
        .build()
}

fn names(problem: &PlanningProblem) -> Vec<String> {
    problem.activities.iter().map(|a| a.name.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fitness components are always within [0, 1], and overall fitness
    /// respects the weighted combination.
    #[test]
    fn fitness_bounds(seed in any::<u64>(), size in 1usize..40) {
        let problem = sample_problem();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tree = random_tree(&mut rng, size, &names(&problem));
        let w = FitnessWeights::default();
        let f = evaluate(&tree, &problem, 40, w, 64);
        prop_assert!((0.0..=1.0).contains(&f.validity), "{f:?}");
        prop_assert!((0.0..=1.0).contains(&f.goal), "{f:?}");
        prop_assert!((0.0..=1.0).contains(&f.representation), "{f:?}");
        let combined = w.validity * f.validity + w.goal * f.goal
            + w.representation * f.representation;
        prop_assert!((f.overall - combined).abs() < 1e-12);
        prop_assert_eq!(f.size, tree.size());
    }

    /// Simulation is a pure function of (tree, problem).
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>(), size in 1usize..30) {
        let problem = sample_problem();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tree = random_tree(&mut rng, size, &names(&problem));
        let a = simulate(&tree, &problem);
        let b = simulate(&tree, &problem);
        prop_assert_eq!(a, b);
    }

    /// Crossover conserves node counts and never exceeds S_max; refused,
    /// it leaves both parents untouched; either way it draws twice.
    #[test]
    fn crossover_invariants(seed in any::<u64>(), sa in 1usize..25, sb in 1usize..25) {
        let problem = sample_problem();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = random_tree(&mut rng, sa, &names(&problem));
        let mut b = random_tree(&mut rng, sb, &names(&problem));
        let parents = (a.clone(), b.clone());
        let mut two_draws = rng.clone();
        two_draws.gen_range(0..sa);
        two_draws.gen_range(0..sb);
        if crossover(&mut a, &mut b, &mut rng, 30) {
            prop_assert_eq!(a.size() + b.size(), sa + sb);
            prop_assert!(a.size() <= 30 && b.size() <= 30);
            prop_assert!(a.is_gp_valid() && b.is_gp_valid());
        } else {
            prop_assert_eq!((a, b), parents);
        }
        prop_assert_eq!(rng, two_draws);
    }

    /// Mutation keeps trees GP-valid and within S_max at any rate.
    #[test]
    fn mutation_invariants(seed in any::<u64>(), size in 1usize..35, rate in 0.0f64..1.0) {
        let problem = sample_problem();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut tree = random_tree(&mut rng, size, &names(&problem));
        mutate(&mut tree, &mut rng, rate, 35, 10, &names(&problem));
        prop_assert!(tree.size() <= 35);
        prop_assert!(tree.is_gp_valid());
    }

    /// Adding a distractor activity to T never hurts the achievable
    /// fitness of a fixed plan (fitness depends only on used activities).
    #[test]
    fn fitness_invariant_to_unused_activities(seed in any::<u64>(), size in 1usize..20) {
        let problem = sample_problem();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let tree = random_tree(&mut rng, size, &names(&problem));
        let mut bigger = problem.clone();
        bigger.activities.push(ActivitySpec::new("unused", ["Nope"], ["Never"]));
        let f1 = evaluate(&tree, &problem, 40, FitnessWeights::default(), 64);
        let f2 = evaluate(&tree, &bigger, 40, FitnessWeights::default(), 64);
        prop_assert_eq!(f1, f2);
    }

    /// A GP run is reproducible from its seed, and the ignored `threads`
    /// knob cannot change it: the same `(seed, problem)` yields an
    /// identical `GpResult` across `threads ∈ {1, 2, 8}`.
    #[test]
    fn gp_run_reproducible(seed in any::<u64>()) {
        let cfg = GpConfig {
            population_size: 64,
            generations: 4,
            seed,
            ..GpConfig::default()
        };
        let reference = GpPlanner::new(cfg, sample_problem()).run();
        let rerun = GpPlanner::new(cfg, sample_problem()).run();
        prop_assert_eq!(&reference, &rerun);
        for threads in [1usize, 2, 8] {
            let variant = GpConfig { threads, ..cfg };
            let r = GpPlanner::new(variant, sample_problem()).run();
            prop_assert_eq!(&reference, &r);
        }
    }
}
