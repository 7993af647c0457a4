//! The result a run prints: named metrics with units, the attempt and
//! failure counts, and the human-readable lines before them.

use crate::check::Tally;
use crate::host::peak_rss_mb;
use crate::quiet::{quiet, Slice};
use crate::stats::{mean, median, p90, TooFewSamples};
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Operation checks.
    pub tally: Tally,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
}

impl RunOutput {
    /// Adds a report line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a non-finite figure is
                // reported as a failed run by the caller.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A float in JSON syntax with every digit Rust's shortest round-trip
/// rendering gives it.
fn json_number(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Call time.
    pub start: Instant,
    /// Call to return, milliseconds.
    pub latency_ms: f64,
    /// Campaign replications it newly computed.
    pub replications: u64,
}

/// What the end-to-end metrics are computed from.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Set-ups that saw no steal, of [`crate::SETUP_REPEATS`].
    pub clean_setups: usize,
    /// Every timed operation.
    pub ops: Vec<Timed>,
    /// The timed window's slices.
    pub slices: Vec<Slice>,
}

impl EndToEnd {
    /// Adds the end-to-end metrics to `out`, taken over the operations
    /// that started in the window's quiet slices, or refuses when those
    /// are too few for a tail percentile.
    pub fn report(&self, out: &mut RunOutput) -> Result<(), TooFewSamples> {
        let starts: Vec<Instant> = self.ops.iter().map(|op| op.start).collect();
        let quiet = quiet(&self.slices, &starts);
        let kept: Vec<&Timed> = self
            .ops
            .iter()
            .filter(|op| {
                quiet
                    .iter()
                    .any(|s| s.start <= op.start && op.start < s.end)
            })
            .collect();
        let latencies_ms: Vec<f64> = kept.iter().map(|op| op.latency_ms).collect();
        let p90_ms = p90(&latencies_ms)?;
        let p50_ms = median(&latencies_ms);
        let n = latencies_ms.len();
        let seconds: f64 = quiet
            .iter()
            .map(|s| s.end.duration_since(s.start).as_secs_f64())
            .sum();
        let ops_per_s = n as f64 / seconds;
        let reps_per_s = kept.iter().map(|op| op.replications).sum::<u64>() as f64 / seconds;
        let setup_s = self.setup_s;
        let rss = peak_rss_mb().unwrap_or(f64::NAN);
        let steal: Vec<f64> = self.slices.iter().map(|s| s.steal).collect();
        out.line(format!(
            "quiet slices: {} of {} (host steal per slice: median {:.3}, mean {:.3}), {n} of {} operations",
            quiet.len(),
            self.slices.len(),
            median(&steal),
            mean(&steal),
            self.ops.len()
        ));
        out.line(format!(
            "setup {setup_s:.4} s ({} of {} set-ups saw no steal)",
            self.clean_setups,
            crate::SETUP_REPEATS
        ));
        out.line(format!(
            "latency p50 {p50_ms:.4} ms, p90 {p90_ms:.4} ms (n = {n})"
        ));
        out.line(format!(
            "{ops_per_s:.2} ops/s, {reps_per_s:.1} replications/s over {seconds:.3} s"
        ));
        out.line(format!(
            "failed {} of {} ({:.4}), peak RSS {rss:.1} MiB",
            out.tally.failed,
            out.tally.attempted,
            out.tally.failed_ratio()
        ));
        out.metric("setup_s", setup_s, "s");
        out.metric("latency_p50_ms", p50_ms, "ms");
        out.metric("latency_p90_ms", p90_ms, "ms");
        out.metric("ops_per_s", ops_per_s, "1/s");
        out.metric("replications_per_s", reps_per_s, "1/s");
        out.metric("peak_rss_mb", rss, "MiB");
        Ok(())
    }
}
