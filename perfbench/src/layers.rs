//! The per-layer metrics every traced run reports, in one fixed list.
//! A layer a workload never calls reports 0.

use crate::report::RunOutput;
use crate::stats::median;
use crate::trace::{layer_table, Tracer, OP, UNATTRIBUTED};
use diversify_attack::campaign::CampaignSimulator;
use diversify_core::exec::{ExecMode, Executor, MeasurementsCollector, ReplicationPlan};
use diversify_core::runner::Measurements;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// `(name, unit)` of every per-layer metric, in report order. Times are
/// medians per call unless the name says otherwise; see `record.json`
/// for each metric's definition and the end-to-end metric it should move.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("scada.build_us", "us"),
    ("attack.sim_new_us", "us"),
    ("attack.rep_us", "us"),
    ("attack.reps", "count"),
    ("des.exec_ms", "ms"),
    ("des.exec_serial_ms", "ms"),
    ("des.parallel_speedup", "ratio"),
    ("des.split_ms", "ms"),
    ("des.split_ticks", "count"),
    ("core.attack_model_ms", "ms"),
    ("core.doe_ms", "ms"),
    ("core.content_key_us", "us"),
    ("stats.assess_ms", "ms"),
    ("san.cross_check_ms", "ms"),
    ("serve.sweep_ms", "ms"),
    ("serve.wire_encode_us", "us"),
    ("serve.wire_decode_us", "us"),
    ("serve.wire_bytes", "bytes"),
    ("serve.loopback_rtt_us", "us"),
    ("serve.merge_us", "us"),
    ("serve.memo_overhead_us", "us"),
    ("serve.idle_ms", "ms"),
    ("serve.shards", "count"),
    ("serve.shard_attempts", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.topup_ratio", "ratio"),
    ("serve.miss_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.hit_p50_us", "us"),
    ("serve.topup_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer values gathered by one traced run.
#[derive(Debug, Default)]
pub struct LayerMetrics(HashMap<&'static str, f64>);

impl LayerMetrics {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Adds every per-layer metric to `out`, 0 for layers not set.
    pub fn emit(&self, out: &mut RunOutput) {
        for (name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// A plan's campaigns on `executor`, folded into measurements: what
/// `measure_configuration_with` does once its simulator is built.
pub fn run_plan(
    sim: &CampaignSimulator<'_>,
    plan: &ReplicationPlan,
    executor: Executor,
) -> Measurements {
    executor.run_ws(
        plan,
        || sim.workspace(),
        |ws, rep| sim.run_into(ws, rep.seed),
        &MeasurementsCollector,
    )
}

/// The span name of a plan run on `executor`: `des.exec` on the parallel
/// executor, `des.exec_serial` on the serial one.
pub fn exec_span(executor: Executor) -> &'static str {
    match executor.mode() {
        ExecMode::Serial => "des.exec_serial",
        ExecMode::Parallel => "des.exec",
    }
}

/// Side measurements of one plan, off every operation's path: the plan
/// on `executor` (the one the operation does not use) in its
/// [`exec_span`], then the plan's replications one by one on a warm
/// workspace. Returns microseconds per replication.
pub fn side_measurements(
    tracer: &mut Tracer,
    op: u32,
    sim: &CampaignSimulator<'_>,
    plan: &ReplicationPlan,
    executor: Executor,
) -> f64 {
    tracer.time(exec_span(executor), op, None, || {
        black_box(run_plan(sim, plan, executor))
    });
    let mut ws = sim.workspace();
    black_box(sim.run_into(&mut ws, plan.master_seed()));
    let start = Instant::now();
    for index in 0..plan.total() {
        black_box(sim.run_into(&mut ws, plan.seed_for(index)));
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(plan.total())
}

/// The part of a traced run's report every workload shares: the layer
/// table (with `remainder` naming the operations' unattributed time),
/// the tracing overhead against the untraced phase's median latency,
/// the spans file, and the per-layer metrics taken the same way on every
/// workload. Returns the metrics for the workload to complete.
pub fn traced_report(
    out: &mut RunOutput,
    tracer: &Tracer,
    remainder: &str,
    untraced_p50_ms: f64,
    spans: &Path,
) -> LayerMetrics {
    let ops = tracer.self_times();
    out.lines.extend(layer_table(&ops, remainder));
    let traced_p50_ms = median(&tracer.durations_ms(OP));
    out.line(format!(
        "tracing overhead: traced p50 {traced_p50_ms:.4} ms - untraced p50 {untraced_p50_ms:.4} ms = {:.4} ms",
        traced_p50_ms - untraced_p50_ms
    ));
    if let Err(e) = tracer.write_jsonl(spans) {
        out.line(format!("could not write spans: {e}"));
    }
    let exec_ms = tracer.median_ms("des.exec");
    let exec_serial_ms = tracer.median_ms("des.exec_serial");
    let unattributed: Vec<f64> = ops
        .iter()
        .map(|o| o.layers.get(UNATTRIBUTED).copied().unwrap_or(0.0))
        .collect();
    let mut m = LayerMetrics::default();
    m.set(
        "attack.sim_new_us",
        tracer.median_ms("attack.sim_new") * 1e3,
    );
    m.set("des.exec_ms", exec_ms);
    m.set("des.exec_serial_ms", exec_serial_ms);
    m.set("des.parallel_speedup", ratio(exec_serial_ms, exec_ms));
    m.set("unattributed_ms", median(&unattributed));
    m.set("trace.latency_p50_ms", traced_p50_ms);
    m.set("trace.overhead_ms", traced_p50_ms - untraced_p50_ms);
    m
}
