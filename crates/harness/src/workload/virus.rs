//! The paper's §4 case study as an engine workload.
//!
//! [`virus_reconstruction_workload`] packages the Figs. 10–13
//! virus-reconstruction pipeline — `POD` classifying the micrograph,
//! a four-way `P3DR` fan-out refining the 3D model, and the
//! `POR`/`PSF` refinement loop driving resolution from 12.0 Å down to
//! the 8.0 Å target — together with the virtual-laboratory grid world
//! (UCF clusters, Purdue/SDSC supercomputers, the ANL fallback site).
//!
//! The process graph, case description, offerings, and world all come
//! from `gridflow::casestudy`, the single source of truth for the
//! paper's scenario; this module only adapts them to the harness's
//! [`Workload`] shape so the engine, the fault harness, and the bench
//! matrix can drive the real thing instead of a toy.

use super::{Workload, WorldBuilder};
use gridflow::casestudy;
use gridflow_services::coordination::EnactmentConfig;

/// Seed for the virtual laboratory's deterministic site layout.
const WORLD_SEED: u64 = 7;

/// The paper's virus-reconstruction workflow (Figs. 10–13) over the
/// virtual-laboratory world.
///
/// The enactment is deterministic: the default [`EnactmentConfig`]
/// drives three `POR → PSF` refinement passes (12.0 → 10.0 → 8.0 Å)
/// after the `P3DR` fan-out joins, exactly the trajectory the paper
/// narrates.
pub fn virus_reconstruction_workload() -> Workload {
    Workload {
        name: "virus".to_string(),
        graph: casestudy::process_description(),
        case: casestudy::case_description(),
        config: EnactmentConfig::default(),
        world_builder: WorldBuilder::new(|| casestudy::virtual_lab_world(0, WORLD_SEED)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::MultiCaseScenario;

    #[test]
    fn virus_workload_enacts_to_target_resolution() {
        let wl = virus_reconstruction_workload();
        let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 1).run();
        assert!(
            outcome.engine.all_succeeded(),
            "virus case aborted: {:?}",
            outcome.engine.cases[0].report.abort_reason
        );
        let report = &outcome.engine.cases[0].report;
        let psf_passes = report
            .executions
            .iter()
            .filter(|e| e.service == "PSF")
            .count();
        assert_eq!(psf_passes, 3, "12.0 → 8.0 Å at 2.0 Å/pass is 3 passes");
    }
}
