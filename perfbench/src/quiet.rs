//! Host interference. On a virtual machine the hypervisor can run other
//! guests on this guest's CPUs; that "steal" time stretches whatever the
//! benchmark happens to be timing, in bursts of a fraction of a second
//! to a few seconds. The guest kernel counts it in `/proc/stat`.
//!
//! The timed window is cut into one-second slices, each labelled with the
//! share of CPU time stolen during it. The end-to-end figures are taken
//! over every calm slice (at most [`CALM`] steal) or, when those hold too
//! few operations, over the least-stolen slices that hold enough. On a
//! quiet host that is every slice. Each set-up starts once a short probe
//! sees no steal, and `setup_s` is the median over the set-ups that saw
//! none.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Length of one slice of the timed window.
pub const SLICE: Duration = Duration::from_secs(1);

/// Cumulative `(steal, total)` CPU ticks of the host, if readable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal …
    Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
}

/// Steal share between two readings; 0 when `/proc/stat` is unreadable.
fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// One slice of the timed window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
    /// Share of host CPU time stolen during the slice.
    pub steal: f64,
}

/// A reading of the host's CPU ticks and when it was taken.
type Sample = (Instant, Option<(u64, u64)>);

/// Samples steal every [`SLICE`] on a background thread.
pub struct StealSampler {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<Vec<Sample>>,
}

impl StealSampler {
    /// Starts sampling now.
    pub fn start() -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut samples = vec![(t0, cpu_ticks())];
            let mut next = t0 + SLICE;
            // Sleeps until the next slice boundary; a message or a hang-up
            // ends the sampling.
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                stopped.recv_timeout(next.saturating_duration_since(Instant::now()))
            {
                samples.push((Instant::now(), cpu_ticks()));
                next += SLICE;
            }
            samples.push((Instant::now(), cpu_ticks()));
            samples
        });
        StealSampler { stop, handle }
    }

    /// Stops sampling; returns the slices.
    pub fn finish(self) -> Vec<Slice> {
        // The sampler also stops if it finds the channel closed.
        let _ = self.stop.send(());
        let samples = self.handle.join().expect("steal sampler thread");
        samples
            .windows(2)
            .map(|w| Slice {
                start: w[0].0,
                end: w[1].0,
                steal: steal_share(w[0].1, w[1].1),
            })
            .collect()
    }
}

/// Steal share a slice may show and still count as calm: a few clock
/// ticks of the slice's 200.
pub const CALM: f64 = 0.02;

/// Fewest operations the selected slices hold, so that a tail percentile
/// rests on enough samples.
pub const MIN_OPS: usize = 150;

/// The slices the end-to-end figures are taken over: every calm slice,
/// and then the least-stolen others until the selection holds a quarter
/// of the operations (`starts`) and at least [`MIN_OPS`]. In time order.
pub fn quiet(slices: &[Slice], starts: &[Instant]) -> Vec<Slice> {
    let held = |s: &Slice| {
        starts
            .iter()
            .filter(|&&t| s.start <= t && t < s.end)
            .count()
    };
    let need = MIN_OPS.max(starts.len() / 4);
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by(|&a, &b| slices[a].steal.total_cmp(&slices[b].steal).then(a.cmp(&b)));
    let mut kept = Vec::new();
    let mut ops = 0;
    for i in order {
        if slices[i].steal > CALM && ops >= need {
            break;
        }
        ops += held(&slices[i]);
        kept.push(i);
    }
    kept.sort_unstable();
    kept.into_iter().map(|i| slices[i]).collect()
}

/// The set-ups of one run.
#[derive(Debug)]
pub struct Setups<T> {
    /// What the last set-up built.
    pub state: T,
    /// Median duration in seconds over the set-ups that saw no steal, or
    /// over all of them when fewer than three did.
    pub seconds: f64,
    /// Set-ups that saw no steal.
    pub clean: usize,
    /// Problems the set-ups reported.
    pub problems: Vec<String>,
}

/// Runs `setup(k)` for `k` in `0..n`, each after [`settle`], dropping
/// the previous state before the next set-up; `setup` returns its state
/// and a problem, if it had one.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut(usize) -> (T, Option<String>)) -> Setups<T> {
    let mut state = None;
    let (mut all, mut clean, mut problems) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..n {
        drop(state.take());
        settle();
        let before = cpu_ticks();
        let start = Instant::now();
        let (built, problem) = setup(k);
        let seconds = start.elapsed().as_secs_f64();
        if steal_share(before, cpu_ticks()) == 0.0 {
            clean.push(seconds);
        }
        all.push(seconds);
        problems.extend(problem);
        state = Some(built);
    }
    let seconds = crate::stats::median(if clean.len() >= 3 { &clean } else { &all });
    Setups {
        state: state.expect("at least one set-up"),
        seconds,
        clean: clean.len(),
        problems,
    }
}

/// Waits until a 100 ms probe sees no steal, at most ten probes.
pub fn settle() {
    for _ in 0..10 {
        let before = cpu_ticks();
        std::thread::sleep(Duration::from_millis(100));
        if steal_share(before, cpu_ticks()) == 0.0 {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_keeps_calm_slices_then_the_least_stolen_until_enough_ops() {
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let slices: Vec<Slice> = [0.0, 0.2, 0.05, 0.01, 0.3]
            .iter()
            .enumerate()
            .map(|(i, &steal)| Slice {
                start: at(i as u64),
                end: at(i as u64 + 1),
                steal,
            })
            .collect();
        // 100 operations start in every slice.
        let starts: Vec<Instant> = (0..500)
            .map(|k| at(k / 100) + Duration::from_millis(k % 100))
            .collect();
        let steal = |kept: Vec<Slice>| kept.iter().map(|s| s.steal).collect::<Vec<_>>();
        // Two calm slices hold 200 operations: enough.
        assert_eq!(steal(quiet(&slices, &starts)), [0.0, 0.01]);
        // With fewer operations per calm slice, the least-stolen slice joins.
        let sparse: Vec<Instant> = starts.iter().copied().step_by(2).collect();
        assert_eq!(steal(quiet(&slices, &sparse)), [0.0, 0.05, 0.01]);
        // On a calm host every slice counts.
        let calm: Vec<Slice> = slices.iter().map(|s| Slice { steal: 0.0, ..*s }).collect();
        assert_eq!(quiet(&calm, &starts).len(), 5);
    }
}
