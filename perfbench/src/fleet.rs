//! `fleet_campaign`: one caller measures fixed plans on a ~10^4-node
//! fleet through `measure_configuration_with` on the default executor.
//! The fleet's working set is larger than the cache, so the CSR topology
//! and the infection frontier set the cost.
//!
//! The traced run makes the two calls `measure_configuration_with` is
//! made of — simulator construction and the plan on the executor — in
//! spans.

use crate::check::{against, digest};
use crate::inputs::SeedFamily;
use crate::layers::{run_plan, side_measurements, traced_report};
use crate::quiet::{timed_setups, StealSampler};
use crate::report::{EndToEnd, RunOutput, Timed};
use crate::stats::median;
use crate::trace::{Tracer, OP, UNATTRIBUTED};
use crate::{closed_loop, Args};
use diversify_attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
use diversify_core::exec::{campaign_plan, Executor, ReplicationPlan};
use diversify_core::runner::measure_configuration_with;
use diversify_scada::fleet::{FleetConfig, FleetSystem};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target fleet size.
pub const NODES: usize = 10_000;

/// Distinct plans the timed loop cycles through.
pub const PLANS: u64 = 32;

/// Topology seed of the fleet. The fleet is part of the workload's
/// definition; the workload seed draws the campaign plans.
pub const FLEET_SEED: u64 = 0xF1EE7;

/// Batches × campaigns of each plan.
pub const PLAN_SHAPE: (u32, u32) = (4, 8);

fn campaign() -> CampaignConfig {
    CampaignConfig {
        max_ticks: 24 * 30,
        detection_stops_attack: false,
    }
}

fn measure(fleet: &FleetSystem, plan: &ReplicationPlan, executor: Executor) -> u64 {
    digest(&measure_configuration_with(
        fleet.network(),
        &ThreatModel::stuxnet_like(),
        campaign(),
        plan,
        executor,
    ))
}

/// Runs `fleet_campaign`.
pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    let fleet_config = FleetConfig::sized(NODES, FLEET_SEED);
    let seeds = SeedFamily::new(args.seed, 0x91A);
    let (batches, batch_size) = PLAN_SHAPE;
    let plans: Vec<ReplicationPlan> = (0..PLANS)
        .map(|k| campaign_plan(batches, batch_size, seeds.seed(k)))
        .collect();
    let warmups = SeedFamily::new(args.seed, 0x3A_2A);

    // Set-up: the fleet and one untimed warm-up plan.
    let mut build_us = Vec::new();
    let setups = timed_setups(crate::SETUP_REPEATS, |k| {
        let start = Instant::now();
        let built = FleetSystem::build(&fleet_config);
        build_us.push(start.elapsed().as_secs_f64() * 1e6);
        let warm = campaign_plan(batches, batch_size, warmups.seed(k as u64));
        black_box(measure(&built, &warm, Executor::default()));
        (built, None)
    });
    let mut e2e = EndToEnd {
        setup_s: setups.seconds,
        clean_setups: setups.clean,
        ..EndToEnd::default()
    };
    let fleet = setups.state;
    out.line(format!(
        "fleet: {} nodes, {} plants",
        fleet.network().node_count(),
        fleet.plants().len()
    ));

    let window = Duration::from_secs_f64(args.seconds);
    let phase = if args.trace { window / 2 } else { window };
    let mut digests: Vec<(usize, u64)> = Vec::new();
    let reps_per_op = u64::from(plans[0].total());
    let sampler = StealSampler::start();
    closed_loop(phase, |i| {
        let k = i % plans.len();
        let start = Instant::now();
        let m = measure_configuration_with(
            fleet.network(),
            &ThreatModel::stuxnet_like(),
            campaign(),
            &plans[k],
            Executor::default(),
        );
        e2e.ops.push(Timed {
            start,
            latency_ms: start.elapsed().as_secs_f64() * 1e3,
            replications: reps_per_op,
        });
        digests.push((k, digest(&m)));
    });
    e2e.slices = sampler.finish();
    let latencies_ms: Vec<f64> = e2e.ops.iter().map(|op| op.latency_ms).collect();

    let untraced = digests.len();
    let mut tracer = Tracer::new();
    let mut rep_us = Vec::new();
    if args.trace {
        let threat = ThreatModel::stuxnet_like();
        closed_loop(phase, |i| {
            let k = i % plans.len();
            let op = (untraced + i) as u32;
            let root = tracer.begin(OP, op, None);
            let (sim, _) = tracer.time("attack.sim_new", op, Some(root), || {
                CampaignSimulator::new(fleet.network(), threat.clone(), campaign())
            });
            let (m, _) = tracer.time("des.exec", op, Some(root), || {
                run_plan(&sim, &plans[k], Executor::default())
            });
            tracer.end(root);
            digests.push((k, digest(&m)));
        });
        // Side measurements once per plan, after the traced phase.
        let sim = CampaignSimulator::new(fleet.network(), threat, campaign());
        for (k, plan) in plans.iter().enumerate() {
            let op = (digests.len() + k) as u32;
            rep_us.push(side_measurements(
                &mut tracer,
                op,
                &sim,
                plan,
                Executor::serial(),
            ));
        }
    }

    // Serial references, outside every timed window.
    let references: Vec<u64> = plans
        .iter()
        .map(|plan| measure(&fleet, plan, Executor::serial()))
        .collect();
    for (i, &(k, got)) in digests.iter().enumerate() {
        out.tally.op(against(
            Some(got),
            Some(references[k]),
            format!("operation {i}"),
        ));
    }

    if !args.trace {
        if let Err(refused) = e2e.report(&mut out) {
            out.tally.op(Some(format!("p90 refused: {refused:?}")));
        }
        return out;
    }

    let mut m = traced_report(
        &mut out,
        &tracer,
        UNATTRIBUTED,
        median(&latencies_ms),
        &crate::trace_path(args),
    );
    m.set("scada.build_us", median(&build_us));
    m.set("attack.rep_us", median(&rep_us));
    m.set(
        "attack.reps",
        (reps_per_op * (digests.len() - untraced) as u64) as f64,
    );
    m.emit(&mut out);
    out
}
