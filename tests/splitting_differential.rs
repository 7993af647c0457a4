//! Differential verification of the multilevel-splitting rare-event
//! estimator.
//!
//! * On a genuinely rare all-exponential stage chain (P_SA ≈ 1e-7), the
//!   splitting estimate must agree with the exact CTMC first-passage
//!   probability within its own reported 95% confidence interval — the
//!   analytic backend shares nothing with the splitting engine but the
//!   stage parameters.
//! * On randomized non-rare chains, splitting must agree with
//!   brute-force Monte-Carlo inside combined binomial bands (property
//!   test).
//! * The campaign splitting measurement must be bit-identical on serial
//!   and parallel executors, and reproducible run to run.
//! * Regression guards for the bugfixes that rode along: exact Wilson
//!   endpoints at degenerate counts, valid product intervals with
//!   zero-success levels, and no premature precision verdict at p̂ = 0.

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::{
    CampaignConfig, CampaignMilestone, CampaignStats, MilestonePlacement, ThreatModel,
};
use diversify::attack::split::StageChainTask;
use diversify::attack::stage::AttackStage;
use diversify::attack::to_san::{compile_stage_chain, success_place, StageParams};
use diversify::core::indicators::{IndicatorAccum, PrecisionResponse};
use diversify::core::{
    measure_configuration_splitting, measure_configuration_splitting_adaptive, Executor,
};
use diversify::san::{solve, Method, RewardSpec};
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use diversify::stats::{product_proportion_ci, proportion_ci};
use diversify_des::splitting::{LevelSummary, Splitting};
use diversify_des::SimTime;
use proptest::prelude::*;

/// Exact first-passage probability of the all-exponential stage chain
/// by `horizon_hours`, from the CTMC backend (uniformization).
fn analytic_chain_probability(params: &[StageParams], horizon_hours: f64) -> f64 {
    let model = compile_stage_chain(params).expect("valid stage chain");
    let success = success_place(&model);
    let result = solve(
        &model,
        &[RewardSpec::first_passage("tta", move |m| {
            m.tokens(success) == 1
        })],
        Method::Analytic {
            horizon: SimTime::from_secs(horizon_hours),
            tol: 1e-13,
            max_states: 64,
        },
    )
    .expect("stage chain is analytic-solvable");
    result
        .estimate("tta")
        .expect("reward present")
        .probability(0)
}

fn uniform_chain(p: f64, rate: f64, stages: usize) -> Vec<StageParams> {
    vec![
        StageParams {
            success_probability: p,
            attempt_rate_per_hour: rate,
        };
        stages
    ]
}

#[test]
fn splitting_matches_analytic_ctmc_on_rare_chain() {
    // Four stages, each passing at effective rate p·rate = 0.02/h, in a
    // 2-hour window: P_SA ≈ (0.04)⁴/4! ≈ 1e-7 — far below anything a
    // 10⁵-replication brute-force plan could resolve, and well under the
    // 1e-5 bar for "rare".
    let params = uniform_chain(0.02, 1.0, 4);
    let horizon = 2.0;
    let exact = analytic_chain_probability(&params, horizon);
    assert!(exact <= 1e-5, "design point must be rare, got {exact}");
    assert!(exact > 0.0);

    let task = StageChainTask::new(params, horizon);
    let run = Splitting::try_new(4000, 0x5EED_2013)
        .unwrap()
        .run(&task, &Executor::parallel())
        .unwrap();
    let ci = product_proportion_ci(&run.conditionals(), 0.95).unwrap();
    assert!(
        ci.lower <= exact && exact <= ci.upper,
        "analytic {exact} outside splitting 95% CI [{}, {}] (estimate {})",
        ci.lower,
        ci.upper,
        run.estimate
    );
    // The estimate itself is in the right decade.
    assert!(
        run.estimate > exact / 10.0 && run.estimate < exact * 10.0,
        "splitting {} vs analytic {exact}",
        run.estimate
    );
}

#[test]
fn splitting_reaches_rare_events_brute_force_cannot() {
    // At P_SA ≈ 1e-7, a brute-force plan of the same total tick budget
    // observes (almost surely) zero successes; splitting still produces
    // a positive estimate with a finite interval.
    let params = uniform_chain(0.02, 1.0, 4);
    let task = StageChainTask::new(params, 2.0);
    let run = Splitting::try_new(2000, 77)
        .unwrap()
        .run(&task, &Executor::serial())
        .unwrap();
    assert!(run.estimate > 0.0, "splitting must reach the rare event");

    let mut brute_hits = 0u64;
    let mut brute_ticks = 0u64;
    let mut walks = 0u64;
    while brute_ticks < run.total_ticks {
        let (hit, ticks) = task.walk(0xB0B ^ walks);
        brute_hits += u64::from(hit);
        brute_ticks += ticks;
        walks += 1;
    }
    assert_eq!(
        brute_hits, 0,
        "a tick-budget-matched brute-force plan should see no successes"
    );
}

#[test]
fn campaign_splitting_is_bit_identical_across_executors_and_runs() {
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let threat = ThreatModel::stuxnet_like();
    let config = CampaignConfig::default();
    let serial = measure_configuration_splitting(
        &net,
        &threat,
        config,
        300,
        0xD5_2013,
        Executor::serial(),
        0.95,
    )
    .unwrap();
    let parallel = measure_configuration_splitting(
        &net,
        &threat,
        config,
        300,
        0xD5_2013,
        Executor::parallel(),
        0.95,
    )
    .unwrap();
    assert_eq!(serial.estimate.to_bits(), parallel.estimate.to_bits());
    assert_eq!(serial.levels, parallel.levels);
    assert_eq!(serial.total_ticks, parallel.total_ticks);
    assert_eq!(serial.ci.lower.to_bits(), parallel.ci.lower.to_bits());
    assert_eq!(serial.ci.upper.to_bits(), parallel.ci.upper.to_bits());

    let again = measure_configuration_splitting(
        &net,
        &threat,
        config,
        300,
        0xD5_2013,
        Executor::parallel(),
        0.95,
    )
    .unwrap();
    assert_eq!(serial.estimate.to_bits(), again.estimate.to_bits());
}

/// Pins the piloted splitting measurement on SCoPE: pilot draws,
/// milestone placement, per-level tallies and tick cost. The values
/// were recorded with an earlier, batched implementation of the pilot
/// and the levels, so any change in how either draws shows up here.
#[test]
fn piloted_campaign_splitting_is_pinned() {
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let config = CampaignConfig {
        max_ticks: 48,
        detection_stops_attack: true,
    };
    let run = measure_configuration_splitting_adaptive(
        &net,
        &ThreatModel::stuxnet_like(),
        config,
        64,
        0x91_2013,
        Executor::serial(),
        0.95,
        32,
    )
    .unwrap();
    assert_eq!(run.estimate.to_bits(), 0x3fee_0000_0000_0000); // 0.9375
    assert_eq!(
        run.milestones,
        [
            CampaignMilestone::Rooted,
            CampaignMilestone::SpreadAtLeast(2),
            CampaignMilestone::PayloadDelivered,
            CampaignMilestone::GoalReached,
        ]
    );
    assert_eq!(
        run.placement,
        Some(MilestonePlacement::Piloted {
            spread_threshold: 2,
            rooted_survivors: 32,
            goal_fraction: 0.9375,
        })
    );
    let level = |attempts, survivors, ticks| LevelSummary {
        attempts,
        survivors,
        ticks,
    };
    assert_eq!(
        run.levels,
        [
            level(64, 64, 167),
            level(64, 64, 10),
            level(64, 60, 555),
            level(64, 64, 22),
        ]
    );
    assert_eq!(run.total_ticks, 754);
}

// ---------------------------------------------------------------------
// Bugfix regression guards.
// ---------------------------------------------------------------------

#[test]
fn wilson_degenerate_endpoints_are_exact() {
    for trials in [1u64, 5, 100, 10_000] {
        let zero = proportion_ci(0, trials, 0.95).unwrap();
        assert_eq!(zero.lower.to_bits(), 0.0f64.to_bits(), "no -0.0 lower");
        assert_eq!(zero.estimate, 0.0);
        assert!(zero.upper > 0.0 && zero.upper < 1.0);
        let full = proportion_ci(trials, trials, 0.95).unwrap();
        assert_eq!(full.upper.to_bits(), 1.0f64.to_bits());
        assert!(full.lower < 1.0 && full.lower > 0.0);
    }
}

#[test]
fn product_ci_with_zero_success_level_stays_valid() {
    let ci = product_proportion_ci(&[(50, 100), (0, 100), (40, 100)], 0.95).unwrap();
    assert_eq!(ci.estimate, 0.0);
    assert_eq!(ci.lower, 0.0);
    assert!(ci.upper > 0.0 && ci.upper < 1.0, "finite non-trivial upper");
}

#[test]
fn all_failure_accumulator_never_reports_precision() {
    let mut acc = IndicatorAccum::new();
    let failure = CampaignStats {
        time_to_attack: None,
        time_to_detection: Some(3),
        final_compromised_ratio: 0.0,
        deepest_stage: AttackStage::Initial,
        firewall_blocks: 1,
        payload_failures: 0,
    };
    for _ in 0..1000 {
        acc.push_stats(&failure);
    }
    // Before the fix, 1000 failures yielded a (0 ± 0) interval that
    // satisfied any relative stop rule, ending adaptive runs instantly
    // on exactly the rare design points that need replications most.
    assert!(acc.precision(PrecisionResponse::PSuccess, 0.95).is_none());
    assert!(acc
        .precision(PrecisionResponse::CompromisedRatio, 0.95)
        .is_none());
}

// ---------------------------------------------------------------------
// Property: splitting ≡ brute force on non-rare chains.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On non-rare design points both estimators see the same physics:
    /// the splitting estimate must fall inside a combined 99.9% band
    /// around the brute-force Monte-Carlo estimate.
    #[test]
    fn prop_splitting_agrees_with_brute_force_when_not_rare(
        p in 0.25f64..0.75,
        rate in 0.5f64..2.0,
        stages in 2usize..5,
        seed in any::<u64>(),
    ) {
        let horizon = 6.0 / rate;
        let task = StageChainTask::new(uniform_chain(p, rate, stages), horizon);
        let trials = 1500u64;
        let hits = (0..trials).filter(|&s| task.walk(seed ^ (s << 8)).0).count();
        #[allow(clippy::cast_precision_loss)]
        let mc = hits as f64 / trials as f64;

        let run = Splitting::try_new(1500, seed)
            .unwrap()
            .run(&task, &Executor::serial())
            .unwrap();
        // Combined noise: binomial on the MC side plus the splitting
        // interval's own half-width, with an absolute floor.
        let ci = product_proportion_ci(&run.conditionals(), 0.999).unwrap();
        let mc_half = 3.29 * (mc * (1.0 - mc) / trials as f64).sqrt();
        let split_half = ((ci.upper - ci.lower) / 2.0).max(run.estimate * 0.05);
        prop_assert!(
            (run.estimate - mc).abs() <= mc_half + split_half + 0.02,
            "splitting {} vs brute force {} (band {})",
            run.estimate, mc, mc_half + split_half + 0.02
        );
    }
}
