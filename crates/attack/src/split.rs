//! Staged-task adapters that plug the attack models into the
//! multilevel-splitting engine (`diversify_des::splitting`).
//!
//! Two tasks live here:
//!
//! * [`CampaignSplitTask`] — wraps a [`CampaignSimulator`] and a
//!   milestone schedule, so the rare probability of a full campaign
//!   success (P_SA at tight detection / hardened configurations) can be
//!   estimated as a product of per-milestone conditionals instead of
//!   brute-force Monte Carlo.
//! * [`StageChainTask`] — the Monte-Carlo twin of
//!   [`compile_stage_chain`](crate::to_san::compile_stage_chain): a
//!   per-stage exponential attempt walk whose success probability the
//!   analytic CTMC solver computes exactly. It is the differential
//!   oracle for the splitting estimator — splitting on the walk must
//!   agree with the analytic first-passage probability within the
//!   reported confidence interval.
//!
//! Both tasks satisfy the [`StagedTask`] contract: monotone nested
//! levels (crossing is permanent, the last level is the rare event
//! itself) and resume purity (a segment is a pure function of
//! `(checkpoint, seed)`).

use crate::campaign::{
    CampaignCheckpoint, CampaignMilestone, CampaignSimulator, CampaignWorkspace, MilestonePlacement,
};
use crate::to_san::StageParams;
use diversify_des::splitting::{LevelRun, StagedTask};
use diversify_des::{RngStream, StreamId};

/// RNG stream id for stage-chain walks (distinct from the campaign
/// engine's `0xA77` so the two tasks never share a stream).
const CHAIN_STREAM: StreamId = StreamId(0xC4A1);

/// A [`StagedTask`] over [`CampaignSimulator::run_stage`]: level `ℓ`
/// advances a replication until `milestones[ℓ]` is crossed, the
/// campaign halts, or the tick horizon is reached.
///
/// The milestone schedule must be goal-implied — every milestone must
/// hold whenever the campaign goal holds — or the product of
/// conditionals underestimates P_SA.
/// [`CampaignSimulator::split_milestones`] constructs such a schedule;
/// [`CampaignSplitTask::with_default_milestones`] uses it.
#[derive(Debug)]
pub struct CampaignSplitTask<'s, 'n> {
    sim: &'s CampaignSimulator<'n>,
    milestones: Vec<CampaignMilestone>,
}

impl<'s, 'n> CampaignSplitTask<'s, 'n> {
    /// Wraps `sim` with an explicit milestone schedule.
    ///
    /// # Panics
    ///
    /// If the schedule is empty or does not end in
    /// [`CampaignMilestone::GoalReached`] — the final level must be
    /// the rare event itself, or the product estimates the wrong
    /// probability.
    #[must_use]
    pub fn new(sim: &'s CampaignSimulator<'n>, milestones: Vec<CampaignMilestone>) -> Self {
        assert_eq!(
            milestones.last(),
            Some(&CampaignMilestone::GoalReached),
            "splitting milestones must end in GoalReached"
        );
        CampaignSplitTask { sim, milestones }
    }

    /// Wraps `sim` with its goal-implied default schedule
    /// ([`CampaignSimulator::split_milestones`]).
    #[must_use]
    pub fn with_default_milestones(sim: &'s CampaignSimulator<'n>) -> Self {
        let milestones = sim.split_milestones();
        CampaignSplitTask::new(sim, milestones)
    }

    /// Wraps `sim` with an adaptively placed schedule
    /// ([`CampaignSimulator::split_milestones_piloted`]): a pilot run
    /// estimates survivor fractions and tunes the spread threshold,
    /// falling back to the fixed schedule with a recorded reason when
    /// it cannot. Returns the task together with the placement record.
    #[must_use]
    pub fn with_piloted_milestones(
        sim: &'s CampaignSimulator<'n>,
        pilot_population: u32,
        master_seed: u64,
    ) -> (Self, MilestonePlacement) {
        let piloted = sim.split_milestones_piloted(pilot_population, master_seed);
        (
            CampaignSplitTask::new(sim, piloted.milestones),
            piloted.placement,
        )
    }

    /// The milestone schedule (one entry per splitting level).
    #[must_use]
    pub fn milestones(&self) -> &[CampaignMilestone] {
        &self.milestones
    }
}

impl StagedTask for CampaignSplitTask<'_, '_> {
    type State = CampaignCheckpoint;
    type Workspace = CampaignWorkspace;

    fn levels(&self) -> usize {
        self.milestones.len()
    }

    fn workspace(&self) -> CampaignWorkspace {
        self.sim.workspace()
    }

    fn run_level(
        &self,
        ws: &mut CampaignWorkspace,
        level: usize,
        from: Option<&CampaignCheckpoint>,
        seed: u64,
    ) -> LevelRun<CampaignCheckpoint> {
        let run = self.sim.run_stage(ws, from, seed, self.milestones[level]);
        LevelRun {
            state: run.checkpoint,
            reached: run.reached,
            ticks: u64::from(run.ticks),
        }
    }
}

/// Elapsed virtual time of a stage-chain walk — the whole resumable
/// state, thanks to exponential memorylessness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainState {
    /// Hours elapsed when the previous stage completed.
    pub elapsed: f64,
}

/// A [`StagedTask`] over the exponential attack stage chain: level `ℓ`
/// repeats `t += Exp(rate_ℓ); Bernoulli(p_ℓ)?` until the stage passes
/// or `t` exceeds the horizon. One level per stage, so the last level
/// (goal stage passed) is the rare event. The per-stage passing time is
/// `Exp(p_ℓ · rate_ℓ)` by thinning, which is exactly the CTMC that
/// [`compile_stage_chain`](crate::to_san::compile_stage_chain)
/// compiles — the analytic first-passage probability by the horizon is
/// the ground truth for both this walk and splitting over it.
#[derive(Debug, Clone, PartialEq)]
pub struct StageChainTask {
    stages: Vec<StageParams>,
    horizon_hours: f64,
}

impl StageChainTask {
    /// Builds a chain walk over `stages` with a first-passage deadline
    /// of `horizon_hours`.
    ///
    /// # Panics
    ///
    /// If `stages` is empty, any rate is not strictly positive, any
    /// success probability is outside `[0, 1]`, or the horizon is not
    /// strictly positive and finite.
    #[must_use]
    pub fn new(stages: Vec<StageParams>, horizon_hours: f64) -> Self {
        assert!(
            !stages.is_empty(),
            "stage chain must have at least one stage"
        );
        for s in &stages {
            assert!(
                s.attempt_rate_per_hour > 0.0 && s.attempt_rate_per_hour.is_finite(),
                "attempt rate must be strictly positive"
            );
            assert!(
                (0.0..=1.0).contains(&s.success_probability),
                "success probability must lie in [0, 1]"
            );
        }
        assert!(
            horizon_hours > 0.0 && horizon_hours.is_finite(),
            "horizon must be strictly positive"
        );
        StageChainTask {
            stages,
            horizon_hours,
        }
    }

    /// The stage parameters.
    #[must_use]
    pub fn stages(&self) -> &[StageParams] {
        &self.stages
    }

    /// The first-passage deadline in hours.
    #[must_use]
    pub fn horizon_hours(&self) -> f64 {
        self.horizon_hours
    }

    /// One brute-force full-chain replication: walks every stage in
    /// order from `t = 0` with a single RNG stream seeded by `seed`.
    /// Returns whether the final stage passed before the horizon and
    /// the total number of attempts drawn (the cost metric shared with
    /// [`LevelRun::ticks`], so splitting and brute force compare on
    /// equal terms).
    #[must_use]
    pub fn walk(&self, seed: u64) -> (bool, u64) {
        let mut rng = RngStream::new(seed, CHAIN_STREAM);
        let mut t = 0.0;
        let mut attempts = 0u64;
        for stage in &self.stages {
            loop {
                attempts += 1;
                t += rng.exponential(stage.attempt_rate_per_hour);
                if t > self.horizon_hours {
                    return (false, attempts);
                }
                if rng.bernoulli(stage.success_probability) {
                    break;
                }
            }
        }
        (true, attempts)
    }
}

impl StagedTask for StageChainTask {
    type State = ChainState;
    type Workspace = ();

    fn levels(&self) -> usize {
        self.stages.len()
    }

    fn workspace(&self) {}

    fn run_level(
        &self,
        (): &mut (),
        level: usize,
        from: Option<&ChainState>,
        seed: u64,
    ) -> LevelRun<ChainState> {
        let mut rng = RngStream::new(seed, CHAIN_STREAM);
        let stage = &self.stages[level];
        let mut t = from.map_or(0.0, |s| s.elapsed);
        let mut ticks = 0u64;
        loop {
            ticks += 1;
            t += rng.exponential(stage.attempt_rate_per_hour);
            if t > self.horizon_hours {
                return LevelRun {
                    state: ChainState { elapsed: t },
                    reached: false,
                    ticks,
                };
            }
            if rng.bernoulli(stage.success_probability) {
                return LevelRun {
                    state: ChainState { elapsed: t },
                    reached: true,
                    ticks,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, ThreatModel};
    use diversify_des::splitting::Splitting;
    use diversify_des::Executor;
    use diversify_scada::network::ScadaNetwork;
    use diversify_scada::scope::{ScopeConfig, ScopeSystem};

    fn scope_network() -> ScadaNetwork {
        ScopeSystem::build(&ScopeConfig::default())
            .network()
            .clone()
    }

    fn chain(p: f64, rate: f64, n: usize) -> Vec<StageParams> {
        vec![
            StageParams {
                success_probability: p,
                attempt_rate_per_hour: rate,
            };
            n
        ]
    }

    #[test]
    fn chain_walk_and_splitting_agree_on_non_rare_point() {
        // Generous stages: success is common, so brute force is a
        // trustworthy reference for the splitting estimate.
        let task = StageChainTask::new(chain(0.6, 2.0, 3), 12.0);
        let trials = 4000u64;
        let hits = (0..trials).filter(|&s| task.walk(0xFEED ^ s).0).count();
        #[allow(clippy::cast_precision_loss)]
        let mc = hits as f64 / trials as f64;

        let splitting = Splitting::try_new(4000, 0xFEED_FACE).unwrap();
        let run = splitting.run(&task, &Executor::serial()).unwrap();
        assert!(
            (run.estimate - mc).abs() < 0.03,
            "splitting {} vs brute force {mc}",
            run.estimate
        );
    }

    #[test]
    fn chain_splitting_is_serial_parallel_bit_identical() {
        let task = StageChainTask::new(chain(0.3, 1.5, 4), 8.0);
        let splitting = Splitting::try_new(512, 0xC0FFEE).unwrap();
        let serial = splitting.run(&task, &Executor::serial()).unwrap();
        let parallel = splitting.run(&task, &Executor::parallel()).unwrap();
        assert_eq!(serial.estimate.to_bits(), parallel.estimate.to_bits());
        assert_eq!(serial.levels, parallel.levels);
    }

    #[test]
    fn campaign_split_estimate_tracks_plain_monte_carlo() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let replications = 600u32;
        let hits = sim
            .run_many(replications, 0xBEEF)
            .iter()
            .filter(|o| o.succeeded())
            .count();
        let mc = f64::from(u32::try_from(hits).unwrap()) / f64::from(replications);

        let task = CampaignSplitTask::with_default_milestones(&sim);
        assert_eq!(
            task.milestones().last(),
            Some(&CampaignMilestone::GoalReached)
        );
        let splitting = Splitting::try_new(600, 0xBEEF).unwrap();
        let run = splitting.run(&task, &Executor::serial()).unwrap();
        // Non-rare design point: both estimators see the same physics,
        // so they must agree within Monte-Carlo noise.
        assert!(
            (run.estimate - mc).abs() < 0.08,
            "splitting {} vs plain MC {mc}",
            run.estimate
        );
        assert!(run.total_ticks > 0);
    }

    #[test]
    fn campaign_split_is_serial_parallel_bit_identical() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let task = CampaignSplitTask::with_default_milestones(&sim);
        let splitting = Splitting::try_new(256, 0xD1CE).unwrap();
        let serial = splitting.run(&task, &Executor::serial()).unwrap();
        let parallel = splitting.run(&task, &Executor::parallel()).unwrap();
        assert_eq!(serial.estimate.to_bits(), parallel.estimate.to_bits());
        assert_eq!(serial.levels, parallel.levels);
        assert_eq!(serial.total_ticks, parallel.total_ticks);
    }

    #[test]
    fn piloted_task_keeps_goal_reached_terminal() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let (task, placement) = CampaignSplitTask::with_piloted_milestones(&sim, 32, 0x517);
        assert_eq!(
            task.milestones().last(),
            Some(&CampaignMilestone::GoalReached)
        );
        assert!(matches!(
            placement,
            crate::campaign::MilestonePlacement::Piloted { .. }
        ));
        // The piloted schedule still estimates the same probability.
        let run = Splitting::try_new(256, 0xD1CE)
            .unwrap()
            .run(&task, &Executor::serial())
            .unwrap();
        assert!(run.estimate > 0.0 && run.estimate <= 1.0);
    }

    #[test]
    fn default_milestones_are_goal_implied_shapes() {
        let net = scope_network();
        let sabotage =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let schedule = sabotage.split_milestones();
        assert_eq!(schedule.first(), Some(&CampaignMilestone::Rooted));
        assert_eq!(schedule.last(), Some(&CampaignMilestone::GoalReached));
        assert!(schedule.contains(&CampaignMilestone::PayloadDelivered));

        let espionage =
            CampaignSimulator::new(&net, ThreatModel::duqu_like(), CampaignConfig::default());
        // Espionage can succeed from a single engineering-workstation
        // foothold, so no spread milestone may appear in its schedule.
        let schedule = espionage.split_milestones();
        assert_eq!(
            schedule,
            vec![CampaignMilestone::Rooted, CampaignMilestone::GoalReached]
        );
    }

    #[test]
    #[should_panic(expected = "GoalReached")]
    fn campaign_task_rejects_schedule_without_goal() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let _ = CampaignSplitTask::new(&sim, vec![CampaignMilestone::Rooted]);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn chain_task_rejects_zero_rate() {
        let _ = StageChainTask::new(chain(0.5, 0.0, 2), 1.0);
    }
}
