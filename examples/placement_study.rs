//! Placement study: the paper's "small, strategically distributed, number
//! of highly attack-resilient components" claim, with deployment costs.
//!
//! ```text
//! cargo run --release --example placement_study
//! ```

use diversify::attack::campaign::{CampaignConfig, ThreatModel};
use diversify::core::exec::{campaign_plan, Executor};
use diversify::core::runner::measure_configuration_with;
use diversify::diversity::metrics::deployment_cost;
use diversify::diversity::placement::{apply_placement, PlacementStrategy};
use diversify::scada::components::ComponentProfile;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};

fn measure(strategy: PlacementStrategy) -> (f64, f64) {
    let mut net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    apply_placement(&mut net, strategy, ComponentProfile::hardened());
    let cost = deployment_cost(&net, 2.0, 5.0);
    let m = measure_configuration_with(
        &net,
        &ThreatModel::stuxnet_like(),
        CampaignConfig {
            max_ticks: 24 * 30,
            detection_stops_attack: false,
        },
        &campaign_plan(2, 30, 99),
        Executor::default(),
    );
    (m.summary.p_success, cost)
}

fn main() {
    println!("{:<28} {:>8} {:>10}", "placement", "P_SA", "cost");
    let (p, c) = measure(PlacementStrategy::None);
    println!("{:<28} {p:>8.3} {c:>10.1}", "none (monoculture)");
    for k in [1usize, 2, 3, 4, 6] {
        let (pr, cr) = measure(PlacementStrategy::Random { k, seed: 7 });
        println!("{:<28} {pr:>8.3} {cr:>10.1}", format!("random k={k}"));
        let (ps, cs) = measure(PlacementStrategy::Strategic { k });
        println!("{:<28} {ps:>8.3} {cs:>10.1}", format!("strategic k={k}"));
    }
    println!();
    println!("expected shape: strategic placement reaches a given P_SA reduction");
    println!("with fewer hardened nodes (lower cost) than random placement.");
}
