//! `pipeline_doe`: one caller runs the paper's three steps — attack
//! modeling, DoE measurements, ANOVA assessment — through
//! `Pipeline::try_run`, with the analytic cross-check and the
//! rare-event splitting sweep on.
//!
//! The traced run calls the four public steps `try_run` is made of in
//! spans, then replays each distinct design point's calls inside the
//! DoE step on the same inputs: its content key, plant build, simulator
//! construction, plan on the configured executor and splitting run.

use crate::check::{against, digest};
use crate::inputs::{design_scopes, SeedFamily};
use crate::layers::{exec_span, run_plan, side_measurements, traced_report};
use crate::quiet::{timed_setups, StealSampler};
use crate::report::{EndToEnd, RunOutput, Timed};
use crate::stats::median;
use crate::trace::{Tracer, OP, UNATTRIBUTED};
use crate::{closed_loop, Args};
use diversify_attack::campaign::CampaignSimulator;
use diversify_core::exec::{campaign_plan, Executor};
use diversify_core::pipeline::{Pipeline, PipelineConfig, PipelineReport, RareEventTarget};
use diversify_core::runner::measure_configuration_splitting;
use diversify_core::ContentKey;
use diversify_des::StreamId;
use diversify_scada::scope::{ScopeConfig, ScopeSystem};
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

/// Distinct pipeline configurations the timed loop cycles through.
pub const CONFIGS: u64 = 16;

/// Splitting population per level: keeps the rare-event sweep under
/// half of an operation.
pub const SPLIT_POPULATION: u32 = 50;

fn config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        seed,
        analytic_check: true,
        rare_event: Some(RareEventTarget {
            population: SPLIT_POPULATION,
            level: 0.95,
        }),
        ..PipelineConfig::default()
    }
}

/// The design points `try_doe_measurements` visits: per design row, the
/// plant and the content the pipeline keys it by.
fn design_points(config: &PipelineConfig) -> Vec<(ScopeConfig, Value)> {
    design_scopes(&config.scope)
        .into_iter()
        .map(|scope| {
            let content = Value::Array(vec![
                scope.to_json_value(),
                config.threat.to_json_value(),
                config.campaign.to_json_value(),
            ]);
            (scope, content)
        })
        .collect()
}

/// Replications the DoE plans of one operation run: distinct design
/// points × batches × batch size.
fn plan_replications(config: &PipelineConfig) -> u64 {
    let mut keys: Vec<ContentKey> = design_points(config)
        .iter()
        .map(|(_, c)| ContentKey::of(c))
        .collect();
    keys.sort();
    keys.dedup();
    keys.len() as u64 * u64::from(config.batches) * u64::from(config.batch_size)
}

/// A traced operation: the four public steps `try_run` is made of, each
/// in a span. Returns the report and the id of the DoE step's span.
fn traced_op(tracer: &mut Tracer, op: u32, cfg: &PipelineConfig) -> (Option<PipelineReport>, u32) {
    let pipeline = Pipeline::new(cfg.clone());
    let root = tracer.begin(OP, op, None);
    let (model, _) = tracer.time("core.attack_model", op, Some(root), || {
        pipeline.attack_modeling()
    });
    let doe_span = tracer.begin("core.doe", op, Some(root));
    let doe = pipeline.try_doe_measurements();
    tracer.end(doe_span);
    let (assessment, _) = tracer.time("stats.assess", op, Some(root), || {
        doe.as_ref().ok().map(|d| pipeline.try_assess(d))
    });
    let (analytic, _) = tracer.time("san.cross_check", op, Some(root), || {
        pipeline.analytic_cross_check()
    });
    tracer.end(root);
    let report = match (doe, assessment) {
        (Ok(doe), Some(Ok(assessment))) => Some(PipelineReport {
            model,
            doe,
            assessment,
            analytic: Some(analytic),
        }),
        _ => None,
    };
    (report, doe_span)
}

/// Per design run of a report: digests of its measurements and of its
/// splitting estimate.
fn point_digests(report: &PipelineReport) -> Vec<(u64, Option<u64>)> {
    let rare = report.doe.rare_event.as_ref();
    (0..report.doe.measurements.len())
        .map(|run| {
            (
                digest(&report.doe.measurements[run]),
                rare.map(|r| digest(&r[run])),
            )
        })
        .collect()
}

/// Replays the DoE step of a traced operation under its span, design
/// point by design point: content key, plant build, simulator, plan on
/// the configured executor, splitting run. Returns a problem if a
/// replayed result differs from the operation's.
fn replay_doe(
    tracer: &mut Tracer,
    op: u32,
    doe_span: u32,
    cfg: &PipelineConfig,
    expected: &[(u64, Option<u64>)],
    split_ticks: &mut Vec<f64>,
) -> Option<String> {
    let base = campaign_plan(cfg.batches, cfg.batch_size, cfg.seed);
    let rare = cfg.rare_event.expect("rare-event sweep configured");
    let mut seen: Vec<ContentKey> = Vec::new();
    let mut problem = None;
    for (run, (scope, content)) in design_points(cfg).into_iter().enumerate() {
        let (key, _) = tracer.time("core.content_key", op, Some(doe_span), || {
            ContentKey::of(&content)
        });
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let (system, _) = tracer.time("scada.build", op, Some(doe_span), || {
            ScopeSystem::build(&scope)
        });
        let (sim, _) = tracer.time("attack.sim_new", op, Some(doe_span), || {
            CampaignSimulator::new(system.network(), cfg.threat.clone(), cfg.campaign)
        });
        let plan = base.derived(StreamId(run as u64));
        let (measured, _) = tracer.time(exec_span(cfg.executor), op, Some(doe_span), || {
            run_plan(&sim, &plan, cfg.executor)
        });
        let (split, _) = tracer.time("des.split", op, Some(doe_span), || {
            measure_configuration_splitting(
                system.network(),
                &cfg.threat,
                cfg.campaign,
                rare.population,
                plan.master_seed(),
                cfg.executor,
                rare.level,
            )
        });
        if let Ok(split) = &split {
            split_ticks.push(split.total_ticks as f64);
        }
        let got = (digest(&measured), split.as_ref().ok().map(digest));
        if expected.get(run) != Some(&got) {
            problem = Some(format!(
                "replayed design point {run} of operation {op} differs"
            ));
        }
    }
    problem
}

/// Side measurements of one configuration, off every operation's path:
/// each distinct design point's plan on the serial executor, and its
/// replications one by one on a warm workspace.
fn side_points(tracer: &mut Tracer, op: u32, cfg: &PipelineConfig, rep_us: &mut Vec<f64>) {
    let base = campaign_plan(cfg.batches, cfg.batch_size, cfg.seed);
    let mut seen: Vec<ContentKey> = Vec::new();
    for (run, (scope, content)) in design_points(cfg).into_iter().enumerate() {
        let key = ContentKey::of(&content);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let system = ScopeSystem::build(&scope);
        let sim = CampaignSimulator::new(system.network(), cfg.threat.clone(), cfg.campaign);
        let plan = base.derived(StreamId(run as u64));
        rep_us.push(side_measurements(
            tracer,
            op,
            &sim,
            &plan,
            Executor::serial(),
        ));
    }
}

/// Runs `pipeline_doe`.
pub fn run(args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    let seeds = SeedFamily::new(args.seed, 0xD0E);
    let configs: Vec<PipelineConfig> = (0..CONFIGS).map(|k| config(seeds.seed(k))).collect();
    let replications: Vec<u64> = configs.iter().map(plan_replications).collect();
    let warmups = SeedFamily::new(args.seed, 0x3A_2A);

    // Set-up: a pipeline and one untimed warm-up run.
    let setups = timed_setups(crate::SETUP_REPEATS, |k| {
        let warm = Pipeline::new(config(warmups.seed(k as u64))).try_run();
        ((), warm.err().map(|e| format!("warm-up run failed: {e}")))
    });
    let mut e2e = EndToEnd {
        setup_s: setups.seconds,
        clean_setups: setups.clean,
        ..EndToEnd::default()
    };
    for problem in setups.problems {
        out.tally.op(Some(problem));
    }

    let window = Duration::from_secs_f64(args.seconds);
    let phase = if args.trace { window / 2 } else { window };
    let mut digests: Vec<(usize, Option<u64>)> = Vec::new();
    let sampler = StealSampler::start();
    closed_loop(phase, |i| {
        let k = i % configs.len();
        let pipeline = Pipeline::new(configs[k].clone());
        let start = Instant::now();
        let report = pipeline.try_run();
        e2e.ops.push(Timed {
            start,
            latency_ms: start.elapsed().as_secs_f64() * 1e3,
            replications: replications[k],
        });
        digests.push((k, report.ok().map(|r| digest(&r))));
    });
    e2e.slices = sampler.finish();
    let latencies_ms: Vec<f64> = e2e.ops.iter().map(|op| op.latency_ms).collect();

    // The traced phase runs operations back to back; their replays and
    // the side measurements follow it, so they cannot slow it down.
    let mut tracer = Tracer::new();
    let mut traced = Vec::new();
    if args.trace {
        let base = digests.len();
        closed_loop(phase, |i| {
            let k = i % configs.len();
            let op = (base + i) as u32;
            let (report, doe_span) = traced_op(&mut tracer, op, &configs[k]);
            let points = report.as_ref().map(point_digests).unwrap_or_default();
            traced.push((k, op, doe_span, report.map(|r| digest(&r)), points));
        });
    }
    let mut split_ticks = Vec::new();
    let mut replay_problems = Vec::new();
    for (k, op, doe_span, _, points) in &traced {
        replay_problems.push(replay_doe(
            &mut tracer,
            *op,
            *doe_span,
            &configs[*k],
            points,
            &mut split_ticks,
        ));
    }
    let mut rep_us = Vec::new();
    if args.trace {
        for (k, cfg) in configs.iter().enumerate() {
            side_points(
                &mut tracer,
                (digests.len() + traced.len() + k) as u32,
                cfg,
                &mut rep_us,
            );
        }
    }

    // Serial references, outside every timed window.
    let references: Vec<u64> = configs
        .iter()
        .map(|cfg| {
            let serial = PipelineConfig {
                executor: Executor::serial(),
                ..cfg.clone()
            };
            Pipeline::new(serial)
                .try_run()
                .map(|r| digest(&r))
                .unwrap_or(0)
        })
        .collect();
    for (i, &(k, got)) in digests.iter().enumerate() {
        out.tally
            .op(against(got, Some(references[k]), format!("operation {i}")));
    }
    for ((k, op, _, got, _), problem) in traced.iter().zip(replay_problems) {
        let checked = against(*got, Some(references[*k]), format!("operation {op}"));
        out.tally.op(checked.or(problem));
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
    let traced_reps: u64 = traced.iter().map(|(k, ..)| replications[*k]).sum();
    m.set("scada.build_us", tracer.median_ms("scada.build") * 1e3);
    m.set("attack.rep_us", median(&rep_us));
    m.set("attack.reps", traced_reps as f64);
    m.set("des.split_ms", tracer.median_ms("des.split"));
    m.set("des.split_ticks", median(&split_ticks));
    m.set(
        "core.attack_model_ms",
        tracer.median_ms("core.attack_model"),
    );
    m.set("core.doe_ms", tracer.median_ms("core.doe"));
    m.set(
        "core.content_key_us",
        tracer.median_ms("core.content_key") * 1e3,
    );
    m.set("stats.assess_ms", tracer.median_ms("stats.assess"));
    m.set("san.cross_check_ms", tracer.median_ms("san.cross_check"));
    m.emit(&mut out);
    out
}
