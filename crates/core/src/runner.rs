//! Monte-Carlo measurement of one system configuration, on the unified
//! [`exec`](crate::exec) layer — fixed replication plans or
//! adaptive-precision runs that stop once a confidence-interval target
//! is met.

use crate::error::PipelineError;
use crate::exec::{
    campaign_plan, AdaptiveRun, BudgetOutcome, Executor, MeasurementsCollector, PartialRun,
    Precision, ReplicationFailure, ReplicationPlan, RunPolicy, StopRule,
};
use crate::indicators::{IndicatorSummary, PrecisionResponse};
use diversify_attack::campaign::{
    CampaignConfig, CampaignMilestone, CampaignSimulator, CampaignStats, MilestonePlacement,
    ThreatModel,
};
use diversify_attack::split::CampaignSplitTask;
use diversify_des::splitting::{LevelSummary, Splitting};
use diversify_scada::network::ScadaNetwork;
use diversify_stats::{product_proportion_ci, ConfidenceInterval};

/// Replication-level measurements of one configuration, batched so ANOVA
/// has replicate groups with an error term.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Aggregated indicators over all replications.
    pub summary: IndicatorSummary,
    /// Per-batch success fractions (one value per batch — the ANOVA
    /// replicate unit for the P_SA response).
    pub batch_p_success: Vec<f64>,
    /// Per-batch mean final compromised ratios.
    pub batch_compromised: Vec<f64>,
}

/// An adaptive measurement: the [`Measurements`] over the replications
/// actually executed, plus how many ran and the precision achieved.
pub type AdaptiveMeasurements = AdaptiveRun<Measurements>;

/// What "precise enough" means for an adaptive measurement: which
/// indicator to watch, at what confidence level, under which
/// [`StopRule`] bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionTarget {
    /// The monitored indicator.
    pub response: PrecisionResponse,
    /// Confidence level of the monitored interval, e.g. `0.95`.
    pub level: f64,
    /// Relative-half-width target and replication bounds.
    pub rule: StopRule,
}

impl PrecisionTarget {
    /// A 95%-level target on the attack-success probability — the
    /// common case for campaign sweeps.
    ///
    /// # Panics
    ///
    /// Panics on degenerate bounds (see [`StopRule::relative`]).
    #[must_use]
    pub fn p_success(
        relative_half_width: f64,
        min_replications: u32,
        max_replications: u32,
    ) -> Self {
        PrecisionTarget {
            response: PrecisionResponse::PSuccess,
            level: 0.95,
            rule: StopRule::relative(relative_half_width, min_replications, max_replications),
        }
    }

    /// The same target at a different confidence level, rejecting
    /// levels outside `(0, 1)` with a typed error.
    pub fn try_with_level(mut self, level: f64) -> Result<Self, PipelineError> {
        if !(0.0 < level && level < 1.0) {
            return Err(PipelineError::InvalidLevel(level));
        }
        self.level = level;
        Ok(self)
    }

    /// The same target at a different confidence level.
    ///
    /// # Panics
    ///
    /// Panics unless `level` lies in `(0, 1)`. Use
    /// [`PrecisionTarget::try_with_level`] to validate untrusted
    /// configuration.
    #[must_use]
    pub fn with_level(self, level: f64) -> Self {
        match self.try_with_level(level) {
            Ok(target) => target,
            Err(err) => panic!("{err}"),
        }
    }
}

/// The gracefully degraded result of a budgeted measurement: the
/// [`Measurements`] over every replication that completed (if any),
/// plus the failure and budget record. Produced by
/// [`measure_configuration_budgeted`] and
/// [`measure_configuration_adaptive_budgeted`].
#[derive(Debug, Clone)]
pub struct PartialMeasurements {
    /// Aggregated measurements over completed replications, or `None`
    /// if nothing completed.
    pub measurements: Option<Measurements>,
    /// The monitored response's precision at the last adaptive check.
    pub achieved_precision: Option<Precision>,
    /// Batch-sized rounds executed.
    pub rounds: u32,
    /// Replications attempted.
    pub attempted: u32,
    /// Replications that completed and were accepted.
    pub completed: u32,
    /// Replications that failed (panicked, or produced non-finite
    /// statistics), in replication order.
    pub failed: Vec<ReplicationFailure>,
    /// Why the run ended.
    pub budget_outcome: BudgetOutcome,
}

impl PartialMeasurements {
    fn from_run(run: PartialRun<Measurements>) -> Self {
        PartialMeasurements {
            measurements: run.output,
            achieved_precision: run.precision,
            rounds: run.rounds,
            attempted: run.attempted,
            completed: run.completed,
            failed: run.failed,
            budget_outcome: run.budget_outcome,
        }
    }

    /// The indicator summary over completed replications, if any.
    #[must_use]
    pub fn indicators(&self) -> Option<&IndicatorSummary> {
        self.measurements.as_ref().map(|m| &m.summary)
    }

    /// Whether the result is degraded: some replications failed, or an
    /// external budget truncated the run.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failed.is_empty() || self.budget_outcome.is_truncation()
    }
}

/// Runs `batches × batch_size` campaign replications of `threat` against
/// `network` on the default (parallel) [`Executor`] and aggregates the
/// indicators.
///
/// # Panics
///
/// Panics if `batches` or `batch_size` is zero.
#[must_use]
pub fn measure_configuration(
    network: &ScadaNetwork,
    threat: &ThreatModel,
    config: CampaignConfig,
    batches: u32,
    batch_size: u32,
    master_seed: u64,
) -> Measurements {
    measure_configuration_with(
        network,
        threat,
        config,
        &campaign_plan(batches, batch_size, master_seed),
        Executor::default(),
    )
}

/// Measures one configuration under an explicit [`ReplicationPlan`] and
/// [`Executor`] — the entry point for callers that manage their own
/// plans (the pipeline sweep, the bench experiments, determinism tests).
///
/// Runs on the workspace executor ([`Executor::run_ws`]): each worker
/// keeps one [`CampaignWorkspace`](diversify_attack::campaign::CampaignWorkspace)
/// alive across its replications and folds the scalar per-replication
/// [`CampaignStats`], so the
/// hot loop performs no steady-state allocation. Results are
/// bit-identical to the materializing per-replication path.
#[must_use]
pub fn measure_configuration_with(
    network: &ScadaNetwork,
    threat: &ThreatModel,
    config: CampaignConfig,
    plan: &ReplicationPlan,
    executor: Executor,
) -> Measurements {
    let sim = CampaignSimulator::new(network, threat.clone(), config);
    executor.run_ws(
        plan,
        || sim.workspace(),
        |ws, rep| sim.run_into(ws, rep.seed),
        &MeasurementsCollector,
    )
}

/// Measures one configuration adaptively: batch-sized rounds of `plan`
/// execute until `target` is met (or its replication cap is hit), so a
/// low-variance configuration spends a fraction of the replications a
/// high-variance one needs.
///
/// Seeds stay the plan's `namespace ^ index` derivation and outcomes
/// fold through the same per-round structure as fixed plans, so an
/// adaptive run that stops after *N* replications returns
/// [`Measurements`] **bit-identical** to
/// [`measure_configuration_with`] on `plan.with_batches(N / batch_size)`.
/// Campaign workspaces live in a pool that survives across rounds
/// ([`Executor::run_adaptive_ws`]), so later rounds re-pay no
/// per-replication setup.
#[must_use]
pub fn measure_configuration_adaptive(
    network: &ScadaNetwork,
    threat: &ThreatModel,
    config: CampaignConfig,
    plan: &ReplicationPlan,
    executor: Executor,
    target: &PrecisionTarget,
) -> AdaptiveMeasurements {
    let sim = CampaignSimulator::new(network, threat.clone(), config);
    executor.run_adaptive_ws(
        plan,
        &target.rule,
        || sim.workspace(),
        |ws, rep| sim.run_into(ws, rep.seed),
        &MeasurementsCollector,
        |acc, _replications| acc.indicators.precision(target.response, target.level),
    )
}

/// The fault-tolerant form of [`measure_configuration_with`]: measures
/// one configuration under a [`RunPolicy`] — replications run
/// unwind-caught, failures are retried per policy and otherwise
/// recorded, non-finite campaign statistics are rejected as invalid
/// output, and the policy's budget (replication cap, deadline,
/// cancellation) truncates at round boundaries. Returns
/// [`PartialMeasurements`] over whatever completed; every surviving
/// replication is bit-identical to the fault-free run, and with no
/// faults and an unlimited budget the measurements are bit-identical
/// to [`measure_configuration_with`].
#[must_use]
pub fn measure_configuration_budgeted(
    network: &ScadaNetwork,
    threat: &ThreatModel,
    config: CampaignConfig,
    plan: &ReplicationPlan,
    executor: Executor,
    policy: &RunPolicy,
) -> PartialMeasurements {
    let sim = CampaignSimulator::new(network, threat.clone(), config);
    PartialMeasurements::from_run(executor.run_ws_checked(
        plan,
        || sim.workspace(),
        |ws, rep| sim.run_into(ws, rep.seed),
        &MeasurementsCollector,
        policy,
        CampaignStats::is_finite,
    ))
}

/// The fault-tolerant form of [`measure_configuration_adaptive`]:
/// adaptive rounds under a [`RunPolicy`]. The returned
/// `budget_outcome` distinguishes the target being met
/// ([`BudgetOutcome::PrecisionMet`]), the rule's own replication cap
/// ([`BudgetOutcome::RuleCapped`]), and external truncation; a
/// truncated run's measurements are bit-identical to the fixed plan of
/// the rounds it completed.
#[must_use]
pub fn measure_configuration_adaptive_budgeted(
    network: &ScadaNetwork,
    threat: &ThreatModel,
    config: CampaignConfig,
    plan: &ReplicationPlan,
    executor: Executor,
    target: &PrecisionTarget,
    policy: &RunPolicy,
) -> PartialMeasurements {
    let sim = CampaignSimulator::new(network, threat.clone(), config);
    PartialMeasurements::from_run(executor.run_adaptive_ws_checked(
        plan,
        &target.rule,
        || sim.workspace(),
        |ws, rep| sim.run_into(ws, rep.seed),
        &MeasurementsCollector,
        |acc, _replications| acc.indicators.precision(target.response, target.level),
        policy,
        CampaignStats::is_finite,
    ))
}

/// A rare-event measurement of one configuration: the
/// multilevel-splitting estimate of the attack-success probability with
/// its product-of-conditionals confidence interval and the per-level
/// cost record. Produced by [`measure_configuration_splitting`].
#[derive(Debug, Clone)]
pub struct SplittingMeasurements {
    /// Product-of-conditionals estimate of P_SA (0 when a level dried
    /// up).
    pub estimate: f64,
    /// Confidence interval over the executed levels
    /// ([`product_proportion_ci`]). When the run dried up the interval
    /// covers the executed prefix, which still bounds the full product
    /// (unattempted conditionals are at most 1).
    pub ci: ConfidenceInterval,
    /// The milestone schedule (one entry per level).
    pub milestones: Vec<CampaignMilestone>,
    /// Per-level attempt/survivor/tick tallies, in level order.
    pub levels: Vec<LevelSummary>,
    /// Total campaign ticks simulated — the cost to compare against a
    /// brute-force plan's tick count.
    pub total_ticks: u64,
    /// Fixed per-level population.
    pub population: u32,
    /// How the spread milestone was placed: `None` for the fixed default
    /// schedule, `Some` when [`measure_configuration_splitting_adaptive`]
    /// ran a pilot (either a piloted threshold or a recorded fallback).
    pub placement: Option<MilestonePlacement>,
}

impl SplittingMeasurements {
    /// Whether a level produced zero survivors (later levels skipped,
    /// estimate 0).
    #[must_use]
    pub fn dried_up(&self) -> bool {
        self.levels.last().is_some_and(|l| l.survivors == 0)
    }
}

/// Measures one configuration's attack-success probability by
/// fixed-effort multilevel splitting over the simulator's goal-implied
/// campaign milestones — the estimation mode for *rare* design points,
/// where `measure_configuration` would need millions of replications to
/// see a single success.
///
/// `population` replications run per level; survivors of each milestone
/// are checkpointed and resampled as the next level's starting states,
/// with every clone's seed derived from the plan's `namespace ^ index`
/// schedule, so the estimate is deterministic in `master_seed` and
/// bit-identical on serial and parallel executors.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidLevel`] for a confidence level
/// outside `(0, 1)`, [`PipelineError::Plan`] for a zero population, and
/// [`PipelineError::Stats`] if the interval cannot be formed.
pub fn measure_configuration_splitting(
    network: &ScadaNetwork,
    threat: &ThreatModel,
    config: CampaignConfig,
    population: u32,
    master_seed: u64,
    executor: Executor,
    level: f64,
) -> Result<SplittingMeasurements, PipelineError> {
    if !(0.0 < level && level < 1.0) {
        return Err(PipelineError::InvalidLevel(level));
    }
    let sim = CampaignSimulator::new(network, threat.clone(), config);
    let task = CampaignSplitTask::with_default_milestones(&sim);
    let milestones = task.milestones().to_vec();
    let run = Splitting::try_new(population, master_seed)?.run(&task, &executor)?;
    let ci = product_proportion_ci(&run.conditionals(), level)?;
    Ok(SplittingMeasurements {
        estimate: run.estimate,
        ci,
        milestones,
        levels: run.levels,
        total_ticks: run.total_ticks,
        population: run.population,
        placement: None,
    })
}

/// Like [`measure_configuration_splitting`], but places the spread
/// milestone adaptively from a pilot run.
///
/// A pilot of `pilot_population` trajectories estimates the conditional
/// survivor fractions past `Rooted` and places the `SpreadAtLeast`
/// threshold to equalize conditional passage probabilities (falling
/// back to the fixed heuristic with a recorded reason when the pilot is
/// uninformative — see [`MilestonePlacement`]). For a given milestone
/// schedule the estimate is bit-identical across executors.
///
/// # Errors
///
/// Returns [`PipelineError::InvalidLevel`] for a confidence level
/// outside `(0, 1)`, [`PipelineError::Plan`] for a zero population, and
/// [`PipelineError::Stats`] if the interval cannot be formed.
#[allow(clippy::too_many_arguments)]
pub fn measure_configuration_splitting_adaptive(
    network: &ScadaNetwork,
    threat: &ThreatModel,
    config: CampaignConfig,
    population: u32,
    master_seed: u64,
    executor: Executor,
    level: f64,
    pilot_population: u32,
) -> Result<SplittingMeasurements, PipelineError> {
    if !(0.0 < level && level < 1.0) {
        return Err(PipelineError::InvalidLevel(level));
    }
    let sim = CampaignSimulator::new(network, threat.clone(), config);
    let (task, placement) =
        CampaignSplitTask::with_piloted_milestones(&sim, pilot_population, master_seed);
    let milestones = task.milestones().to_vec();
    let run = Splitting::try_new(population, master_seed)?.run(&task, &executor)?;
    let ci = product_proportion_ci(&run.conditionals(), level)?;
    Ok(SplittingMeasurements {
        estimate: run.estimate,
        ci,
        milestones,
        levels: run.levels,
        total_ticks: run.total_ticks,
        population: run.population,
        placement: Some(placement),
    })
}

/// The [`Precision`] achieved by a finished adaptive run, as a relative
/// half-width (`None` when the monitor never produced an interval).
#[must_use]
pub fn achieved_relative_half_width(run: &AdaptiveMeasurements) -> Option<f64> {
    run.precision.as_ref().map(Precision::relative_half_width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversify_scada::scope::{ScopeConfig, ScopeSystem};

    fn scope_network() -> ScadaNetwork {
        ScopeSystem::build(&ScopeConfig::default())
            .network()
            .clone()
    }

    #[test]
    fn batching_covers_all_replications() {
        let net = scope_network();
        let m = measure_configuration(
            &net,
            &ThreatModel::stuxnet_like(),
            CampaignConfig::default(),
            4,
            5,
            9,
        );
        assert_eq!(m.summary.replications, 20);
        assert_eq!(m.batch_p_success.len(), 4);
        assert_eq!(m.batch_compromised.len(), 4);
        // Batch means average back to the global mean.
        let batch_mean: f64 = m.batch_p_success.iter().sum::<f64>() / 4.0;
        assert!((batch_mean - m.summary.p_success).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_seed() {
        let net = scope_network();
        let run = |seed| {
            measure_configuration(
                &net,
                &ThreatModel::stuxnet_like(),
                CampaignConfig::default(),
                2,
                5,
                seed,
            )
            .summary
            .p_success
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn serial_and_parallel_measurements_are_bit_identical() {
        let net = scope_network();
        let plan = campaign_plan(3, 8, 0xFEED);
        let threat = ThreatModel::stuxnet_like();
        let config = CampaignConfig::default();
        let serial = measure_configuration_with(&net, &threat, config, &plan, Executor::serial());
        let parallel =
            measure_configuration_with(&net, &threat, config, &plan, Executor::parallel());
        assert_eq!(serial.summary.p_success, parallel.summary.p_success);
        assert_eq!(serial.batch_p_success, parallel.batch_p_success);
        assert_eq!(serial.batch_compromised, parallel.batch_compromised);
        assert_eq!(serial.summary.compromised, parallel.summary.compromised);
        assert_eq!(serial.summary.tta, parallel.summary.tta);
        assert_eq!(serial.summary.ttsf, parallel.summary.ttsf);
    }

    #[test]
    fn adaptive_truncation_matches_fixed_plan() {
        let net = scope_network();
        let threat = ThreatModel::stuxnet_like();
        let config = CampaignConfig {
            max_ticks: 24 * 10,
            detection_stops_attack: false,
        };
        let base = campaign_plan(1, 6, 0xADA);
        // A rule that can never be met: the run executes exactly the cap.
        let target = PrecisionTarget::p_success(1e-12, 6, 24);
        let adaptive = measure_configuration_adaptive(
            &net,
            &threat,
            config,
            &base,
            Executor::default(),
            &target,
        );
        assert!(!adaptive.target_met);
        assert_eq!(adaptive.replications, 24);
        assert_eq!(adaptive.plan, base.with_batches(4));
        let fixed =
            measure_configuration_with(&net, &threat, config, &adaptive.plan, Executor::default());
        assert_eq!(
            adaptive.output.summary.p_success.to_bits(),
            fixed.summary.p_success.to_bits()
        );
        assert_eq!(adaptive.output.batch_p_success, fixed.batch_p_success);
        assert_eq!(adaptive.output.batch_compromised, fixed.batch_compromised);
        assert_eq!(adaptive.output.summary.tta, fixed.summary.tta);
    }

    #[test]
    fn adaptive_stops_early_on_low_variance_point() {
        // The default SCoPE monoculture falls almost always inside a
        // month: P_SA near 1 tightens the Wilson interval quickly, so a
        // 5% relative target stops well under the cap.
        let net = scope_network();
        let target = PrecisionTarget::p_success(0.05, 50, 1000);
        let run = measure_configuration_adaptive(
            &net,
            &ThreatModel::stuxnet_like(),
            CampaignConfig {
                max_ticks: 24 * 30,
                detection_stops_attack: false,
            },
            &campaign_plan(1, 25, 0xD1CE),
            Executor::default(),
            &target,
        );
        assert!(run.target_met, "precision target should be reachable");
        assert!(
            run.replications < 1000,
            "adaptive run should stop before the cap ({} replications)",
            run.replications
        );
        let achieved = achieved_relative_half_width(&run).expect("precision was computed");
        assert!(achieved <= 0.05, "achieved {achieved} > target");
    }

    #[test]
    fn budgeted_measurement_matches_plain_when_unconstrained() {
        let net = scope_network();
        let threat = ThreatModel::stuxnet_like();
        let config = CampaignConfig::default();
        let plan = campaign_plan(3, 6, 0xB0B);
        let plain = measure_configuration_with(&net, &threat, config, &plan, Executor::serial());
        let run = measure_configuration_budgeted(
            &net,
            &threat,
            config,
            &plan,
            Executor::serial(),
            &RunPolicy::new(),
        );
        assert!(!run.is_degraded());
        assert_eq!(run.budget_outcome, BudgetOutcome::Completed);
        assert_eq!(run.completed, 18);
        let m = run.measurements.expect("all replications completed");
        assert_eq!(
            m.summary.p_success.to_bits(),
            plain.summary.p_success.to_bits()
        );
        assert_eq!(m.batch_p_success, plain.batch_p_success);
        assert_eq!(m.batch_compromised, plain.batch_compromised);
    }

    #[test]
    fn budget_truncated_measurement_is_bit_identical_to_shorter_plan() {
        use crate::exec::Budget;
        let net = scope_network();
        let threat = ThreatModel::stuxnet_like();
        let config = CampaignConfig::default();
        let plan = campaign_plan(4, 5, 0x7A7);
        let policy = RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(10));
        let run = measure_configuration_budgeted(
            &net,
            &threat,
            config,
            &plan,
            Executor::default(),
            &policy,
        );
        assert_eq!(run.budget_outcome, BudgetOutcome::ReplicationBudget);
        assert!(run.is_degraded());
        assert_eq!(run.completed, 10);
        let fixed = measure_configuration_with(
            &net,
            &threat,
            config,
            &plan.with_batches(2),
            Executor::default(),
        );
        let m = run.measurements.expect("two rounds completed");
        assert_eq!(
            m.summary.p_success.to_bits(),
            fixed.summary.p_success.to_bits()
        );
        assert_eq!(m.batch_p_success, fixed.batch_p_success);
    }

    #[test]
    fn splitting_measurement_brackets_plain_estimate_and_is_deterministic() {
        let net = scope_network();
        let threat = ThreatModel::stuxnet_like();
        let config = CampaignConfig::default();
        // Non-rare monoculture point: splitting must agree with the
        // plain fixed-plan estimate within Monte-Carlo noise.
        let plain = measure_configuration(&net, &threat, config, 10, 40, 0xACE);
        let split = measure_configuration_splitting(
            &net,
            &threat,
            config,
            400,
            0xACE,
            Executor::serial(),
            0.95,
        )
        .expect("valid configuration");
        assert!(
            (split.estimate - plain.summary.p_success).abs() < 0.1,
            "splitting {} vs plain {}",
            split.estimate,
            plain.summary.p_success
        );
        assert_eq!(split.milestones.len(), split.levels.len());
        assert!(split.ci.lower <= split.estimate && split.estimate <= split.ci.upper);
        assert!(split.total_ticks > 0);

        let parallel = measure_configuration_splitting(
            &net,
            &threat,
            config,
            400,
            0xACE,
            Executor::parallel(),
            0.95,
        )
        .expect("valid configuration");
        assert_eq!(split.estimate.to_bits(), parallel.estimate.to_bits());
        assert_eq!(split.levels, parallel.levels);
    }

    #[test]
    fn splitting_measurement_rejects_bad_configuration() {
        let net = scope_network();
        let threat = ThreatModel::stuxnet_like();
        assert!(matches!(
            measure_configuration_splitting(
                &net,
                &threat,
                CampaignConfig::default(),
                100,
                1,
                Executor::serial(),
                1.5,
            ),
            Err(PipelineError::InvalidLevel(_))
        ));
        assert!(matches!(
            measure_configuration_splitting(
                &net,
                &threat,
                CampaignConfig::default(),
                0,
                1,
                Executor::serial(),
                0.95,
            ),
            Err(PipelineError::Plan(_))
        ));
    }

    #[test]
    fn adaptive_splitting_pilots_placement_and_stays_deterministic() {
        let net = scope_network();
        let threat = ThreatModel::stuxnet_like();
        let config = CampaignConfig {
            max_ticks: 48,
            detection_stops_attack: true,
        };
        let run = |executor| {
            measure_configuration_splitting_adaptive(
                &net, &threat, config, 256, 0xADA7, executor, 0.95, 64,
            )
            .expect("valid configuration")
        };

        let serial = run(Executor::serial());
        assert!(matches!(
            serial.placement,
            Some(MilestonePlacement::Piloted { .. } | MilestonePlacement::FixedFallback { .. })
        ));
        assert_eq!(serial.milestones.len(), serial.levels.len());
        assert_eq!(
            serial.milestones.last(),
            Some(&CampaignMilestone::GoalReached)
        );
        assert!(serial.ci.lower <= serial.estimate && serial.estimate <= serial.ci.upper);

        // The executor is a pure cost knob: the estimate, level
        // record, and placement are bit-identical across executors.
        let parallel = run(Executor::parallel());
        assert_eq!(serial.estimate.to_bits(), parallel.estimate.to_bits());
        assert_eq!(serial.levels, parallel.levels);
        assert_eq!(serial.placement, parallel.placement);
        assert_eq!(serial.milestones, parallel.milestones);
    }

    #[test]
    fn adaptive_splitting_rejects_bad_level() {
        let net = scope_network();
        assert!(matches!(
            measure_configuration_splitting_adaptive(
                &net,
                &ThreatModel::stuxnet_like(),
                CampaignConfig::default(),
                64,
                1,
                Executor::serial(),
                0.0,
                16,
            ),
            Err(PipelineError::InvalidLevel(_))
        ));
    }

    #[test]
    fn try_with_level_rejects_degenerate_levels() {
        let target = PrecisionTarget::p_success(0.05, 10, 100);
        assert!(target.try_with_level(0.99).is_ok());
        assert!(matches!(
            target.try_with_level(0.0),
            Err(PipelineError::InvalidLevel(_))
        ));
        assert!(matches!(
            target.try_with_level(1.0),
            Err(PipelineError::InvalidLevel(_))
        ));
        assert!(matches!(
            target.try_with_level(f64::NAN),
            Err(PipelineError::InvalidLevel(_))
        ));
    }

    #[test]
    #[should_panic(expected = "(0,1)")]
    fn with_level_still_panics_on_bad_level() {
        let _ = PrecisionTarget::p_success(0.05, 10, 100).with_level(2.0);
    }

    #[test]
    #[should_panic(expected = "non-empty batch plan")]
    fn zero_batches_panics() {
        let net = scope_network();
        let _ = measure_configuration(
            &net,
            &ThreatModel::stuxnet_like(),
            CampaignConfig::default(),
            0,
            5,
            1,
        );
    }
}
