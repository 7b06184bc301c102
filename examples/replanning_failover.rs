//! Re-planning under failures (§3.3 / Fig. 3): enact a workflow, lose the
//! containers that host one of its services mid-grid, and watch the
//! coordination service escalate to the planning service, which avoids
//! the dead service in the new plan.
//!
//! ```sh
//! cargo run --example replanning_failover
//! ```

use gridflow::prelude::*;
use gridflow_grid::container::ApplicationContainer;
use gridflow_grid::resource::{Resource, ResourceKind};
use gridflow_grid::GridTopology;

/// A world with two routes to the goal: `express` (one hop) and a
/// two-hop detour (`stage` + `deliver`), each hosted on dedicated sites.
fn build_world() -> GridWorld {
    let sites: [(&str, &[&str]); 4] = [
        ("site-express-1", &["express"]),
        ("site-express-2", &["express"]),
        ("site-stage", &["stage"]),
        ("site-deliver", &["deliver"]),
    ];
    let resources: Vec<Resource> = sites
        .iter()
        .map(|(id, sw)| {
            Resource::new(*id, ResourceKind::PcCluster)
                .with_nodes(16)
                .with_software(sw.iter().map(|s| s.to_string()))
        })
        .collect();
    let containers: Vec<ApplicationContainer> = sites
        .iter()
        .map(|(id, sw)| {
            ApplicationContainer::new(format!("ac-{id}"), *id)
                .hosting(sw.iter().map(|s| s.to_string()))
        })
        .collect();
    let mut world = GridWorld::new(GridTopology {
        resources,
        containers,
    });
    world.offer(ServiceOffering::new(
        "express",
        ["Package"],
        vec![OutputSpec::plain("Delivered")],
    ));
    world.offer(ServiceOffering::new(
        "stage",
        ["Package"],
        vec![OutputSpec::plain("Staged")],
    ));
    world.offer(ServiceOffering::new(
        "deliver",
        ["Staged"],
        vec![OutputSpec::plain("Delivered")],
    ));
    world
}

fn main() {
    let mut world = build_world();

    // The user's original plan uses the express route.
    let ast = parse_process("BEGIN express; END").expect("parses");
    let graph = lower("delivery", &ast).expect("lowers");

    // Both express sites die before enactment (hot-spot outage).
    for container in world.hosting_containers("express") {
        world
            .set_container_up(&container, false)
            .expect("known container");
        println!("✗ container {container} went down");
    }

    let goal_ids: Vec<String> = (101..=120).map(|i| format!("D{i}")).collect();
    let delivered_somewhere = goal_ids.iter().skip(1).fold(
        Condition::classified(goal_ids[0].clone(), "Delivered"),
        |acc, id| acc.or(Condition::classified(id.clone(), "Delivered")),
    );
    let case = CaseDescription::new("delivery-run")
        .with_data("D1", DataItem::classified("Package"))
        .with_goal("G1", delivered_somewhere);

    // Without re-planning: the enactment aborts.
    let report = Enactor::default().enact(
        &mut world.clone_for_simulation_with_failures(),
        &graph,
        &case,
    );
    println!(
        "\nwithout re-planning: success={} abort={:?}",
        report.success, report.abort_reason
    );
    assert!(!report.success);

    // With re-planning: the planning service avoids `express` and routes
    // through stage → deliver.
    let config = EnactmentConfig {
        max_replans: 3,
        planning_goals: vec![GoalSpec {
            classification: "Delivered".into(),
            min_count: 1,
        }],
        gp: GpConfig {
            population_size: 80,
            generations: 25,
            seed: 5,
            ..GpConfig::default()
        },
        ..EnactmentConfig::default()
    };
    let report = Enactor::builder()
        .config(config)
        .build()
        .enact(&mut world, &graph, &case);
    println!(
        "with re-planning:    success={} replans={} route={:?}",
        report.success,
        report.replans,
        report
            .executions
            .iter()
            .map(|e| e.service.as_str())
            .collect::<Vec<_>>()
    );
    assert!(report.success);
    assert!(report.replans >= 1);
    assert!(report.executions.iter().any(|e| e.service == "deliver"));
}

/// Helper so the "without replanning" run starts from the same failed
/// world without consuming it.
trait CloneWorld {
    fn clone_for_simulation_with_failures(&self) -> GridWorld;
}

impl CloneWorld for GridWorld {
    fn clone_for_simulation_with_failures(&self) -> GridWorld {
        let mut clone = GridWorld::new(self.topology.clone());
        for offering in self.offerings.values() {
            clone.offer(offering.clone());
        }
        clone
    }
}
