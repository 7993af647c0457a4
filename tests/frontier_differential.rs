//! Differential oracle for the event-driven frontier engine.
//!
//! The PR 6 tentpole rebuilt the campaign tick loop around an infection
//! frontier so a tick costs O(frontier) instead of O(nodes). The dense
//! reference sweep (`CampaignSimulator::run_reference`) was kept as the
//! semantic oracle: for every network, threat model and seed, the
//! frontier engine must be **bit-identical** to it — same outcome, same
//! per-tick ratio curve, same scalar stats. This suite checks that over
//! the hand-built SCoPE network and randomized generated fleets.

use diversify::attack::campaign::{AttackGoal, CampaignConfig, CampaignSimulator, ThreatModel};
use diversify::scada::fleet::{FleetConfig, FleetSystem};
use diversify::scada::network::ScadaNetwork;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use proptest::prelude::*;

fn scope_network() -> ScadaNetwork {
    ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone()
}

fn threat_for(kind: u8) -> ThreatModel {
    match kind % 3 {
        0 => ThreatModel::stuxnet_like(),
        1 => ThreatModel::duqu_like(),
        _ => ThreatModel::flame_like(),
    }
}

/// Asserts frontier ≡ dense reference ≡ materializing path for one
/// (network, threat, config) triple across the given seeds.
fn assert_paths_agree(
    net: &ScadaNetwork,
    threat: ThreatModel,
    config: CampaignConfig,
    seeds: &[u64],
) {
    let sim = CampaignSimulator::new(net, threat, config);
    let mut ws = sim.workspace();
    for &seed in seeds {
        let reference = sim.run_reference(seed);
        let outcome = sim.run(seed);
        assert_eq!(outcome, reference, "run != run_reference at seed {seed}");
        let stats = sim.run_into(&mut ws, seed);
        assert_eq!(
            stats,
            reference.stats(),
            "run_into != reference at seed {seed}"
        );
    }
}

/// With `detection_stops_attack`, a detection inside the drained tail
/// halts the replication there, so both settings are covered. The
/// half-year exfiltration window keeps the goal out of reach long after
/// SCoPE has drained, so detection lands in the drained tail before the
/// goal and the halt changes the trajectory.
#[test]
fn frontier_matches_reference_on_scope_network() {
    let net = scope_network();
    let slow_exfiltration = ThreatModel {
        goal: AttackGoal::Exfiltrate { ticks: 24 * 180 },
        ..ThreatModel::duqu_like()
    };
    for detection_stops_attack in [false, true] {
        let config = CampaignConfig {
            detection_stops_attack,
            ..CampaignConfig::default()
        };
        for threat in [
            ThreatModel::stuxnet_like(),
            ThreatModel::duqu_like(),
            ThreatModel::flame_like(),
            slow_exfiltration.clone(),
        ] {
            assert_paths_agree(&net, threat, config, &(0..20).collect::<Vec<_>>());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frontier ≡ reference on randomized plant families: plant count,
    /// substation fan-out, PLC density and the generator seed all vary,
    /// so the fleets range from a single sparse plant (~30 nodes) to a
    /// few hundred nodes with redundant gateway links.
    #[test]
    fn frontier_matches_reference_on_random_fleets(
        plants in 1usize..4,
        substations in 1usize..6,
        plcs in 1usize..6,
        offices in 1usize..4,
        fleet_seed in any::<u64>(),
        threat_kind in 0u8..3,
        campaign_seed in any::<u64>(),
        detection_stops_attack in any::<bool>(),
    ) {
        let config = FleetConfig {
            plants,
            substations_per_plant: substations,
            plcs_per_substation: plcs,
            offices_per_plant: offices,
            seed: fleet_seed,
            ..FleetConfig::default()
        };
        let fleet = FleetSystem::build(&config);
        let campaign = CampaignConfig {
            max_ticks: 24 * 10,
            detection_stops_attack,
        };
        assert_paths_agree(
            fleet.network(),
            threat_for(threat_kind),
            campaign,
            &[campaign_seed, campaign_seed.wrapping_add(1)],
        );
    }
}
