//! §5's experiment and reusable sweep helpers.
//!
//! "We test the planning algorithm using the computational biology
//! described in Section 4 as test case.  Table 1 shows the parameter
//! settings used in the experiment.  We test the algorithm ten times and
//! select the individual with the highest fitness in the final
//! generation as the solution.  Then we calculate the average fitness,
//! validity fitness, goal fitness, and the size of solutions over ten
//! runs, shown in Table 2."

use crate::casestudy;
use gridflow_planner::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The paper's Table 1 parameter settings.
pub fn table1_config() -> GpConfig {
    GpConfig::default() // Table 1 *is* the default configuration.
}

/// Render Table 1 as the paper prints it.
pub fn table1() -> String {
    let c = table1_config();
    let rows = [
        ("Population Size", format!("{}", c.population_size)),
        ("Number of Generation", format!("{}", c.generations)),
        ("Crossover Rate", format!("{}", c.crossover_rate)),
        ("Mutation Rate", format!("{}", c.mutation_rate)),
        ("Smax", format!("{}", c.smax)),
        ("wv", format!("{}", c.weights.validity)),
        ("wg", format!("{}", c.weights.goal)),
    ];
    let mut out = String::from("Table 1. Parameter Settings in the experiments.\n");
    out.push_str(&format!("{:<24} {:>8}\n", "Parameters", "Values"));
    out.push_str(&format!("{:-<24} {:->8}\n", "", ""));
    for (name, value) in rows {
        out.push_str(&format!("{name:<24} {value:>8}\n"));
    }
    out
}

/// Statistics of one planning run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunStat {
    /// Seed used.
    pub seed: u64,
    /// Best-of-final-generation fitness.
    pub fitness: Fitness,
    /// Fitness of the best plan of *any* generation — the ablation the
    /// success-rate rows report; the paper (and `fitness`) read the final
    /// generation.
    pub best_ever: Fitness,
}

/// The Table 2 aggregate over N runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Result {
    /// Per-run best solutions.
    pub runs: Vec<RunStat>,
    /// Average overall fitness of the best solutions.
    pub avg_fitness: f64,
    /// Average validity fitness.
    pub avg_validity: f64,
    /// Average goal fitness.
    pub avg_goal: f64,
    /// Average plan-tree size.
    pub avg_size: f64,
}

impl Table2Result {
    /// How many runs solve the problem (f_v = f_g = 1)?
    pub fn perfect(&self) -> usize {
        self.runs.len() - self.imperfect().count()
    }

    /// The runs whose final-generation best is not a perfect plan.
    pub fn imperfect(&self) -> impl Iterator<Item = &RunStat> {
        self.runs.iter().filter(|r| !r.fitness.is_perfect())
    }
}

/// The Wilson score interval at 95 % for `successes` out of `n` trials.
pub fn wilson_95(successes: usize, n: usize) -> (f64, f64) {
    let (n, z2) = (n as f64, 1.96f64 * 1.96);
    let p = successes as f64 / n;
    let centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
    let half = (z2 * (p * (1.0 - p) / n + z2 / (4.0 * n * n))).sqrt() / (1.0 + z2 / n);
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

impl fmt::Display for Table2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2. Experiment results collected from the best solutions of {} runs.",
            self.runs.len()
        )?;
        writeln!(
            f,
            "{:<28} {:>8}",
            "Average Fitness",
            format_num(self.avg_fitness)
        )?;
        writeln!(
            f,
            "{:<28} {:>8}",
            "Average Validity Fitness",
            format_num(self.avg_validity)
        )?;
        writeln!(
            f,
            "{:<28} {:>8}",
            "Average Goal Fitness",
            format_num(self.avg_goal)
        )?;
        writeln!(
            f,
            "{:<28} {:>8}",
            "Average Size of solutions",
            format_num(self.avg_size)
        )?;
        // The success rate the averages hide, with what the failures lost.
        let n = self.runs.len();
        let imperfect: Vec<&RunStat> = self.imperfect().collect();
        let (low, high) = wilson_95(n - imperfect.len(), n);
        writeln!(
            f,
            "{:<28} {:>8}  (Wilson 95%: {low:.3}-{high:.3})",
            "Perfect plans (f_v = f_g = 1)",
            format!("{}/{n}", n - imperfect.len())
        )?;
        for run in &imperfect {
            let Fitness { validity, goal, .. } = run.fitness;
            writeln!(
                f,
                "  seed {}: f_v {validity:.3}, f_g {goal:.3}; best-ever plan perfect: {}",
                run.seed,
                run.best_ever.is_perfect()
            )?;
        }
        if !imperfect.is_empty() {
            let short =
                |of: fn(&Fitness) -> f64| imperfect.iter().filter(|r| of(&r.fitness) < 1.0).count();
            writeln!(
                f,
                "  short on f_v: {}, on f_g: {}; closed by returning the best-ever plan: {}",
                short(|x| x.validity),
                short(|x| x.goal),
                imperfect
                    .iter()
                    .filter(|r| r.best_ever.is_perfect())
                    .count()
            )?;
        }
        Ok(())
    }
}

fn format_num(x: f64) -> String {
    format!("{x:.3}")
}

/// Run the §5 experiment: `runs` seeded GP runs on the case-study
/// planning problem with `config` (seed is varied per run: `config.seed +
/// run index`).
pub fn table2(config: GpConfig, runs: usize) -> Table2Result {
    table2_on(&casestudy::planning_problem(), config, runs)
}

/// The §5 experiment as text, at Table 1's parameters and seeds
/// 1..=`runs`: every run's best solution, the Table 2 aggregate with its
/// success rate, the paper's row, and the shape check.  `gridflow table2
/// [runs]` and `repro table2` both print exactly this.
pub fn table2_report(runs: usize) -> String {
    let config = GpConfig {
        seed: 1,
        ..table1_config()
    };
    let result = table2(config, runs);
    // Columns as wide as their widest cell, two spaces apart.
    let digits = result.runs.len().to_string().len();
    let (run_w, seed_w) = (digits.max(3), digits.max(4));
    let mut out = String::from("per-run best solutions:\n");
    out.push_str(&format!(
        "{:<run_w$}  {:<seed_w$}  fitness  f_v   f_g   size  \n",
        "run", "seed"
    ));
    out.push_str(&format!(
        "{:-<run_w$}  {:-<seed_w$}  -------  ----  ----  ----  \n",
        "", ""
    ));
    for (i, r) in result.runs.iter().enumerate() {
        let f = r.fitness;
        out.push_str(&format!(
            "{:<run_w$}  {:<seed_w$}  {:<7.3}  {:<4.2}  {:<4.2}  {:<4}  \n",
            i + 1,
            r.seed,
            f.overall,
            f.validity,
            f.goal,
            f.size
        ));
    }
    out.push_str(&format!("\n{result}\npaper reports (Table 2):\n"));
    for (name, value) in [
        ("Average Fitness", "0.928"),
        ("Average Validity Fitness", "1.0"),
        ("Average Goal Fitness", "1.0"),
        ("Average Size of solutions", "9.7"),
    ] {
        out.push_str(&format!("{name:<28} {value:>8}\n"));
    }
    out.push_str(&format!(
        "\nshape check: every run perfect = {}, avg fitness in (0.9, 1.0) = {}\n",
        result.perfect() == result.runs.len(),
        result.avg_fitness > 0.9 && result.avg_fitness < 1.0
    ));
    out
}

/// The same aggregation over an arbitrary problem (used by the ablation
/// benches).
pub fn table2_on(problem: &PlanningProblem, config: GpConfig, runs: usize) -> Table2Result {
    let runs: Vec<RunStat> = (0..runs.max(1) as u64)
        .map(|i| {
            let cfg = GpConfig {
                seed: config.seed.wrapping_add(i),
                ..config
            };
            let result = GpPlanner::new(cfg, problem.clone()).run();
            RunStat {
                seed: cfg.seed,
                fitness: result.best_fitness,
                best_ever: result.best_ever_fitness,
            }
        })
        .collect();
    let n = runs.len() as f64;
    Table2Result {
        avg_fitness: runs.iter().map(|r| r.fitness.overall).sum::<f64>() / n,
        avg_validity: runs.iter().map(|r| r.fitness.validity).sum::<f64>() / n,
        avg_goal: runs.iter().map(|r| r.fitness.goal).sum::<f64>() / n,
        avg_size: runs.iter().map(|r| r.fitness.size as f64).sum::<f64>() / n,
        runs,
    }
}

/// One point of a parameter sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter's value, as a label.
    pub label: String,
    /// Aggregate over the runs at this point.
    pub result: Table2Result,
}

/// Sweep a GP parameter: for each `(label, config)` pair run the Table-2
/// aggregation and collect the series (the ablation benches print these
/// as the paper would a figure).
pub fn sweep<I>(problem: &PlanningProblem, points: I, runs: usize) -> Vec<SweepPoint>
where
    I: IntoIterator<Item = (String, GpConfig)>,
{
    points
        .into_iter()
        .map(|(label, config)| SweepPoint {
            label,
            result: table2_on(problem, config, runs),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_prints_the_papers_settings() {
        let t = table1();
        assert!(t.contains("Population Size"));
        assert!(t.contains("200"));
        assert!(t.contains("0.7"));
        assert!(t.contains("0.001"));
        assert!(t.contains("40"));
        assert!(t.contains("0.2"));
        assert!(t.contains("0.5"));
    }

    /// A scaled-down Table 2 (3 runs, smaller population) — the full-size
    /// reproduction runs in the bench harness.
    #[test]
    fn table2_small_scale_solves_the_case_study() {
        let config = GpConfig {
            population_size: 100,
            generations: 20,
            seed: 40,
            ..GpConfig::default()
        };
        let result = table2(config, 3);
        assert_eq!(result.runs.len(), 3);
        assert!(
            result.avg_goal > 0.99,
            "expected consistently solved runs: {result}"
        );
        assert!(result.avg_validity > 0.99, "{result}");
        assert!(result.avg_size < 20.0, "{result}");
        assert!(
            result.avg_fitness > 0.85 && result.avg_fitness < 1.0,
            "{result}"
        );
        let rendered = result.to_string();
        assert!(rendered.contains("Average Fitness"));
        assert!(rendered.contains("Average Size of solutions"));
    }

    #[test]
    fn wilson_interval_brackets_the_observed_rate() {
        let (low, high) = wilson_95(987, 1000);
        assert!((low - 0.978).abs() < 1e-3 && (high - 0.992).abs() < 1e-3);
        assert_eq!(wilson_95(10, 10).1, 1.0);
        assert!(
            wilson_95(10, 10).0 < 0.73,
            "10/10 bounds the rate only loosely"
        );
    }

    #[test]
    fn display_names_the_term_each_imperfect_run_lost() {
        let perfect = Fitness {
            validity: 1.0,
            goal: 1.0,
            representation: 0.8,
            overall: 0.94,
            size: 8,
        };
        let lost_goal = Fitness {
            goal: 0.0,
            ..perfect
        };
        let run = |seed, fitness| RunStat {
            seed,
            fitness,
            best_ever: perfect,
        };
        let result = Table2Result {
            runs: vec![run(1, perfect), run(2, lost_goal), run(3, perfect)],
            avg_fitness: 0.0,
            avg_validity: 0.0,
            avg_goal: 0.0,
            avg_size: 0.0,
        };
        let rendered = result.to_string();
        assert!(rendered.contains("2/3"), "{rendered}");
        assert!(rendered.contains("seed 2: f_v 1.000, f_g 0.000; best-ever plan perfect: true"));
        assert!(rendered
            .contains("short on f_v: 0, on f_g: 1; closed by returning the best-ever plan: 1"));
    }

    #[test]
    fn table2_is_deterministic() {
        let config = GpConfig {
            population_size: 40,
            generations: 5,
            seed: 9,
            ..GpConfig::default()
        };
        assert_eq!(table2(config, 2), table2(config, 2));
    }

    #[test]
    fn sweep_produces_one_point_per_config() {
        let problem = casestudy::planning_problem();
        let base = GpConfig {
            population_size: 30,
            generations: 5,
            ..GpConfig::default()
        };
        let points = sweep(
            &problem,
            [10usize, 20].into_iter().map(|smax| {
                (
                    format!("smax={smax}"),
                    GpConfig {
                        smax,
                        init_max_size: smax.min(base.init_max_size),
                        ..base
                    },
                )
            }),
            2,
        );
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].label, "smax=10");
    }
}
