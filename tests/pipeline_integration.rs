//! Cross-crate integration: the full three-step pipeline and the claims
//! it must reproduce.

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::{CampaignConfig, ThreatModel};
use diversify::core::exec::{campaign_plan, Executor};
use diversify::core::pipeline::{Pipeline, PipelineConfig};
use diversify::core::runner::measure_configuration_with;
use diversify::diversity::config::DiversityConfig;
use diversify::diversity::placement::{apply_placement, PlacementStrategy};
use diversify::scada::components::ComponentProfile;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};

fn small_pipeline() -> PipelineConfig {
    PipelineConfig {
        batches: 2,
        batch_size: 6,
        campaign: CampaignConfig {
            max_ticks: 24 * 14,
            detection_stops_attack: false,
        },
        ..PipelineConfig::default()
    }
}

#[test]
fn pipeline_produces_complete_report() {
    let report = Pipeline::new(small_pipeline()).run();
    // Step 2: 16 runs of a 2^(6-2) design, each measured.
    assert_eq!(report.doe.design.runs(), 16);
    assert!(report.doe.design.is_orthogonal());
    assert_eq!(report.doe.measurements.len(), 16);
    // Step 3: six ranked component classes with variance shares in [0,1].
    assert_eq!(report.assessment.ranking.len(), 6);
    for (_, v) in &report.assessment.ranking {
        assert!((0.0..=1.0).contains(v));
    }
    // Ranking is sorted descending.
    for w in report.assessment.ranking.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
}

#[test]
fn anova_decomposition_is_consistent() {
    let report = Pipeline::new(small_pipeline()).run();
    let anova = &report.assessment.anova_p_success;
    let effects_ss: f64 = anova.rows.iter().map(|r| r.sum_sq).sum();
    // Effects + error never exceed the total sum of squares.
    assert!(
        effects_ss <= anova.ss_total + 1e-9,
        "SS decomposition exceeded total: {effects_ss} > {}",
        anova.ss_total
    );
}

#[test]
fn diversity_lowers_success_probability() {
    // The headline claim: diversified configuration dominates the
    // monoculture on P_SA. The horizon is bounded (36 h): with unbounded
    // persistence everything eventually falls, and the paper's argument is
    // precisely about raising attacker *effort and time*.
    let campaign = CampaignConfig {
        max_ticks: 36,
        detection_stops_attack: false,
    };
    let threat = ThreatModel::stuxnet_like();
    let p_for = |cfg: &DiversityConfig, seed: u64| {
        let mut net = ScopeSystem::build(&ScopeConfig::default())
            .network()
            .clone();
        cfg.apply(&mut net);
        measure_configuration_with(
            &net,
            &threat,
            campaign,
            &campaign_plan(2, 40, seed),
            Executor::default(),
        )
        .summary
        .p_success
    };
    let mono = p_for(&DiversityConfig::monoculture(), 5);
    let diverse = p_for(&DiversityConfig::full_rotation(), 5);
    assert!(
        diverse < mono - 0.05,
        "diversity must lower P_SA: diverse {diverse} vs mono {mono}"
    );
}

#[test]
fn strategic_placement_beats_random_at_small_k() {
    // The paper's preliminary sensitivity-analysis claim, averaged over
    // seeds to suppress Monte-Carlo noise.
    let campaign = CampaignConfig {
        max_ticks: 24 * 14,
        detection_stops_attack: false,
    };
    let threat = ThreatModel::stuxnet_like();
    let measure = |strategy: PlacementStrategy, seed: u64| {
        let mut net = ScopeSystem::build(&ScopeConfig::default())
            .network()
            .clone();
        apply_placement(&mut net, strategy, ComponentProfile::hardened());
        measure_configuration_with(
            &net,
            &threat,
            campaign,
            &campaign_plan(2, 25, seed),
            Executor::default(),
        )
        .summary
        .p_success
    };
    let k = 3;
    let strategic: f64 = (0..3)
        .map(|s| measure(PlacementStrategy::Strategic { k }, s))
        .sum::<f64>()
        / 3.0;
    let random: f64 = (0..3)
        .map(|s| measure(PlacementStrategy::Random { k, seed: 100 + s }, s))
        .sum::<f64>()
        / 3.0;
    let none: f64 = (0..3)
        .map(|s| measure(PlacementStrategy::None, s))
        .sum::<f64>()
        / 3.0;
    assert!(
        strategic <= none,
        "strategic hardening should not hurt: {strategic} vs baseline {none}"
    );
    assert!(
        strategic <= random + 0.12,
        "strategic should be at least comparable to random: {strategic} vs {random}"
    );
}

#[test]
fn espionage_and_sabotage_threats_differ_in_depth() {
    use diversify::attack::campaign::CampaignSimulator;
    use diversify::attack::stage::AttackStage;
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let cfg = CampaignConfig::default();
    let stux = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), cfg).run_many(20, 1);
    let duqu = CampaignSimulator::new(&net, ThreatModel::duqu_like(), cfg).run_many(20, 1);
    let max_stage = |os: &[diversify::attack::campaign::CampaignOutcome]| {
        os.iter().map(|o| o.deepest_stage).max().unwrap()
    };
    assert_eq!(max_stage(&stux), AttackStage::DeviceImpairment);
    assert!(max_stage(&duqu) < AttackStage::DeviceImpairment);
}
