//! Spans for the traced run.
//!
//! A span records one call into a layer: its name, start, end, the span
//! that caused it, and the operation it belongs to. Spans stay in memory
//! and are written out when the run ends.
//!
//! Each operation has one root span, named `op`, whose duration is the
//! operation's latency. Spans on the operation's blocking path hang off
//! that root, either because they ran inside it or because they replay
//! one of its constituent calls on the same inputs afterwards; a replayed
//! span is attributed to its operation by parent id, not by time. A
//! span's self time is its duration minus its children's, so the self
//! times of an operation's tree add up to its latency, and the root's
//! self time is what no layer accounts for (`unattributed`). Spans with
//! no parent are side measurements (a serial re-run, a sweep on the
//! benchmark's own coordinator) that feed per-call medians only.

use crate::stats::{mean, median};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of every operation's root span.
pub const OP: &str = "op";

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, `<crate>.<what>`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u32,
    /// Causing span, by index; `None` for roots and side measurements.
    pub parent: Option<u32>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns.saturating_sub(self.start_ns)) as f64 / 1e6
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span now; [`Tracer::end`] closes it. Open a parent
    /// before recording its children.
    pub fn begin(&mut self, name: &'static str, op: u32, parent: Option<u32>) -> u32 {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: u32) {
        let now = self.ns(Instant::now());
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span; returns its result and the span id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let r = f();
        let id = self.record(name, op, parent, start, Instant::now());
        (r, id)
    }

    /// Duration of span `id` in milliseconds.
    pub fn ms(&self, id: u32) -> f64 {
        self.spans[id as usize].ms()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median duration of spans called `name`, in milliseconds; 0 when
    /// the layer was never called.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    /// Self times of every operation tree: per operation, the self time
    /// of each layer on its blocking path.
    pub fn self_times(&self) -> Vec<OpSelfTimes> {
        let mut child_ms = vec![0.0_f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p as usize] += span.ms();
            }
        }
        let mut root_of = vec![None::<usize>; self.spans.len()];
        let mut ops: Vec<OpSelfTimes> = Vec::new();
        let mut op_index: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let root = match span.parent {
                None if span.name == OP => {
                    op_index.insert(span.op, ops.len());
                    ops.push(OpSelfTimes {
                        latency_ms: span.ms(),
                        layers: BTreeMap::new(),
                    });
                    Some(i)
                }
                None => None,
                // Parents are recorded before their children.
                Some(p) => root_of[p as usize],
            };
            root_of[i] = root;
            if let Some(r) = root {
                let name = if i == r { UNATTRIBUTED } else { span.name };
                let slot = op_index[&self.spans[r].op];
                *ops[slot].layers.entry(name).or_insert(0.0) += span.ms() - child_ms[i];
            }
        }
        ops
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Name of an operation root's self time in the layer table.
pub const UNATTRIBUTED: &str = "unattributed";

/// One operation's latency split into layer self times.
#[derive(Debug, Clone)]
pub struct OpSelfTimes {
    /// The operation's latency, ms.
    pub latency_ms: f64,
    /// Self time per layer, ms; the entries add up to `latency_ms`.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Renders the per-layer table: mean self time per operation, which
/// adds up to the mean latency.
pub fn layer_table(ops: &[OpSelfTimes], remainder_name: &str) -> Vec<String> {
    let mut names: Vec<&'static str> = Vec::new();
    for op in ops {
        for name in op.layers.keys() {
            if !names.contains(name) {
                names.push(name);
            }
        }
    }
    names.sort_by_key(|n| (*n == UNATTRIBUTED, *n));
    let latency = mean(&ops.iter().map(|o| o.latency_ms).collect::<Vec<_>>());
    let mut lines = vec![format!(
        "{:<26} {:>12} {:>7}   ({} traced operations)",
        "layer",
        "self ms/op",
        "share",
        ops.len()
    )];
    let mut total = 0.0;
    for name in names {
        let per_op: f64 = ops
            .iter()
            .map(|o| o.layers.get(name).copied().unwrap_or(0.0))
            .sum::<f64>()
            / ops.len().max(1) as f64;
        total += per_op;
        let label = if name == UNATTRIBUTED {
            remainder_name
        } else {
            name
        };
        lines.push(format!(
            "{label:<26} {per_op:>12.4} {:>6.1}%",
            100.0 * per_op / latency
        ));
    }
    lines.push(format!(
        "{:<26} {total:>12.4}   (mean latency {latency:.4} ms)",
        "sum"
    ));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_add_up_to_latency() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let ms = |x: u64| t0 + Duration::from_millis(x);
        let root = t.record(OP, 0, None, ms(0), ms(10));
        let doe = t.record("core.doe", 0, Some(root), ms(1), ms(8));
        t.record("des.exec", 0, Some(doe), ms(2), ms(5));
        // A replayed child: attributed by parent, not by time.
        t.record("scada.build", 0, Some(doe), ms(20), ms(21));
        // A side measurement: no parent, no share of the latency.
        t.record("des.exec_serial", 0, None, ms(30), ms(33));
        let ops = t.self_times();
        assert_eq!(ops.len(), 1);
        let layers = &ops[0].layers;
        let sum: f64 = layers.values().sum();
        assert!((sum - 10.0).abs() < 1e-9);
        assert!((layers["core.doe"] - 3.0).abs() < 1e-9);
        assert!((layers[UNATTRIBUTED] - 3.0).abs() < 1e-9);
        assert!(!layers.contains_key("des.exec_serial"));
        assert!((t.median_ms("des.exec_serial") - 3.0).abs() < 1e-9);
    }
}
