//! # gridflow-planner
//!
//! The Genetic-Programming-based planner of §3 of the paper.
//!
//! A planning problem is the 3-tuple `P = {S_init, G, T}` (§3.2): an
//! initial state (the data the end user provides, described by their
//! specifications), a goal specification (the data expected from the
//! computation), and the complete set of end-user activities available in
//! the grid.  The planner evolves *plan trees* (`gridflow-plan`) under a
//! size cap `S_max` with subtree crossover, subtree-replacement mutation,
//! and tournament selection, scoring each candidate with the three-part
//! fitness of §3.4.4:
//!
//! * `f_v` — plan validity: the fraction of executed activities whose
//!   preconditions held when they ran, measured by simulating the plan
//!   (enumerating each possible flow through selective nodes);
//! * `f_g` — goal fitness: the fraction of goal specifications the final
//!   state satisfies, averaged over the enumerated flows;
//! * `f_r` — representation efficiency: `1 − size/S_max`;
//!
//! combined as `f = w_v·f_v + w_g·f_g + w_r·f_r` (Eq. 4).
//!
//! Re-planning (§3.3) is planning with a set of *excluded* activities —
//! those observed to be non-executable in the runtime environment.
//!
//! ```
//! use gridflow_planner::prelude::*;
//!
//! let problem = PlanningProblem::builder()
//!     .initial(["Raw"])
//!     .goal("Cooked", 1)
//!     .activity(ActivitySpec::new("Cook", ["Raw"], ["Cooked"]))
//!     .build();
//! let config = GpConfig { population_size: 50, generations: 10, seed: 7, ..GpConfig::default() };
//! let result = GpPlanner::new(config, problem).run();
//! assert!(result.best_fitness.goal >= 1.0);
//! ```

#![warn(missing_docs)]

pub mod fitness;
pub mod genetic;
pub mod key;
pub mod problem;
pub mod replan;
pub mod simulate;
mod state;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::fitness::{Fitness, FitnessWeights};
    pub use crate::genetic::{GenerationStats, GpConfig, GpPlanner, GpResult};
    pub use crate::key::{PlanKey, StableHasher};
    pub use crate::problem::{ActivitySpec, GoalSpec, PlanningProblem};
    pub use crate::replan::{replan, ReplanRequest};
    pub use crate::simulate::{simulate, SimOutcome};
}

pub use fitness::{evaluate, Fitness, FitnessWeights};
pub use genetic::{GpConfig, GpPlanner, GpResult};
pub use key::{PlanKey, StableHasher};
pub use problem::{ActivitySpec, GoalSpec, PlanningProblem};
