//! The unified replication-execution layer.
//!
//! Every Monte-Carlo workload in the workspace — campaign measurement,
//! the DoE design-point sweep, the generic replication harness, the
//! bench experiments — repeats a seeded task many times and aggregates
//! the results. Call sites describe *what* to run with a
//! [`ReplicationPlan`], hand the per-replication task to an
//! [`Executor`], and fold the outputs with a [`Collector`] — a
//! mergeable fold (`empty` / `accumulate` / `merge` / `finish`), so
//! aggregation streams: outcomes fold into accumulators round by round
//! instead of being materialized into one `Vec` of every replication.
//!
//! Three properties hold by construction:
//!
//! * **Determinism** — replication *i* draws its seed from
//!   `(master_seed, namespace ^ i)` regardless of scheduling, and the
//!   fold always accumulates in replication order within a batch and
//!   merges batch accumulators in batch order, so a serial and a
//!   parallel run of the same plan are bit-identical.
//! * **Bounded memory** — the executor materializes at most one batch of
//!   raw outputs at a time; collectors keep O(1) (or O(batches)) state
//!   per metric instead of O(replications).
//! * **Adaptive precision** — [`Executor::run_adaptive`] executes
//!   batch-sized rounds until a [`StopRule`] is met, and because fixed
//!   plans fold through the identical round structure, an adaptive run
//!   stopped after *N* replications is bit-identical to a fixed plan of
//!   *N*.
//! * **Workspace reuse** — [`Executor::run_ws`] (and its adaptive twin
//!   [`Executor::run_adaptive_ws`]) hands every replication a mutable
//!   per-worker *workspace* created by an `init` closure, so tasks can
//!   keep scratch buffers, simulators and other heap state alive across
//!   the replications a worker executes instead of reallocating them
//!   per replication. Seeds and the fold shape are untouched — in fact
//!   `run`/`collect`/`run_adaptive` *are* the workspace path with a unit
//!   workspace — so workspace, serial and parallel runs of the same plan
//!   all stay bit-identical.
//! * **Fault tolerance** — every replication executes unwind-caught. On
//!   the strict paths (`run*`/`collect`) a panic still propagates, so
//!   legacy behavior is unchanged; on the budgeted paths
//!   ([`Executor::run_ws_budgeted`] / [`Executor::run_ws_checked`] and
//!   their adaptive twins) a failed replication is *recorded* as a
//!   [`ReplicationFailure`] (index, seed, attempt count, cause) instead
//!   of poisoning the batch, optionally retried from its own seed by a
//!   [`RetryPolicy`], and the run returns a [`PartialRun`]: the merged
//!   accumulators over every replication that did complete. Because
//!   seeds are a pure function of `(master_seed, namespace ^ index)`,
//!   surviving replications are bit-identical to a fault-free run, and a
//!   run truncated by a [`Budget`] (replication cap, wall-clock
//!   deadline, or a cooperative [`CancelToken`], all checked at round
//!   boundaries) after *N* rounds is bit-identical to the fixed plan of
//!   *N* rounds over the completed indices.

use crate::rng::{derive_seed, StreamId};
use rayon::prelude::*;
use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The default stream namespace for replication seeds (shared with the
/// historical `ReplicationRunner` schedule so existing experiments keep
/// their exact random sequences).
pub const DEFAULT_STREAM_NAMESPACE: u64 = 0x5EED_0000_0000_0000;

/// One replication of a plan: its index and derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replication {
    /// Replication index in `0..plan.total()`, local to the plan. For a
    /// shard plan (see [`ReplicationPlan::with_first_batch`]) the seed
    /// belongs to the *global* index
    /// `plan.first_replication() + index`.
    pub index: u32,
    /// The seed this replication must use.
    pub seed: u64,
}

/// A structurally invalid [`ReplicationPlan`] or [`StopRule`]
/// configuration, reported by the `try_*` constructors.
///
/// The panicking constructors (`ReplicationPlan::new`,
/// `StopRule::relative`, …) delegate to the `try_*` forms and panic with
/// exactly these messages, so callers that validate user input get typed
/// errors while internal call sites with proven-valid arguments keep
/// their terse form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// `batches` or `batch_size` was zero.
    EmptyPlan,
    /// `batches × batch_size` does not fit in `u32`.
    ReplicationOverflow,
    /// A relative half-width target that is NaN, infinite, zero or
    /// negative.
    NonPositiveTarget,
    /// Replication bounds with `min > max` or a zero cap.
    InvalidBounds,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyPlan => {
                write!(
                    f,
                    "non-empty batch plan required (batches and batch size must be positive)"
                )
            }
            PlanError::ReplicationOverflow => write!(f, "replication count overflows u32"),
            PlanError::NonPositiveTarget => {
                write!(f, "relative half-width target must be finite and positive")
            }
            PlanError::InvalidBounds => {
                write!(f, "replication bounds must satisfy 0 < min <= max")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Describes a replicated experiment: how many replications, how they
/// group into batches (the ANOVA replicate unit and the adaptive round
/// size), and how each replication's seed derives from the master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationPlan {
    batches: u32,
    batch_size: u32,
    master_seed: u64,
    namespace: u64,
    /// Global index of the plan's first batch. Zero for a whole run; a
    /// *shard* of a larger run sets it so seeds derive from global
    /// replication indices (`first_batch × batch_size + local index`).
    first_batch: u32,
}

impl ReplicationPlan {
    /// Creates a plan of `batches × batch_size` replications, rejecting
    /// empty and overflowing shapes with a typed error.
    pub fn try_new(batches: u32, batch_size: u32, master_seed: u64) -> Result<Self, PlanError> {
        if batches == 0 || batch_size == 0 {
            return Err(PlanError::EmptyPlan);
        }
        if batches.checked_mul(batch_size).is_none() {
            return Err(PlanError::ReplicationOverflow);
        }
        Ok(ReplicationPlan {
            batches,
            batch_size,
            master_seed,
            namespace: DEFAULT_STREAM_NAMESPACE,
            first_batch: 0,
        })
    }

    /// Creates a plan of `batches × batch_size` replications.
    ///
    /// # Panics
    ///
    /// Panics if `batches` or `batch_size` is zero, or if the total
    /// replication count overflows `u32`. Use
    /// [`ReplicationPlan::try_new`] to validate untrusted configuration.
    #[must_use]
    pub fn new(batches: u32, batch_size: u32, master_seed: u64) -> Self {
        match ReplicationPlan::try_new(batches, batch_size, master_seed) {
            Ok(plan) => plan,
            Err(err) => panic!("{err}"),
        }
    }

    /// Creates an unbatched plan: one batch of `replications`.
    ///
    /// # Panics
    ///
    /// Panics if `replications` is zero.
    #[must_use]
    pub fn flat(replications: u32, master_seed: u64) -> Self {
        ReplicationPlan::new(1, replications, master_seed)
    }

    /// The validating form of [`ReplicationPlan::flat`].
    pub fn try_flat(replications: u32, master_seed: u64) -> Result<Self, PlanError> {
        ReplicationPlan::try_new(1, replications, master_seed)
    }

    /// Replaces the stream namespace seeds are derived under. Call sites
    /// migrated from hand-rolled loops use this to keep their historical
    /// seed schedules.
    #[must_use]
    pub const fn with_namespace(mut self, namespace: u64) -> Self {
        self.namespace = namespace;
        self
    }

    /// Replaces the batch count, keeping batch size, master seed and
    /// namespace. Seeds depend only on the replication index, so the
    /// first `min(total, other.total)` replications of the two plans are
    /// identical — this is how an adaptive run names the fixed plan it
    /// actually executed.
    ///
    /// # Panics
    ///
    /// Panics if `batches` is zero or the total (including the shard
    /// offset, if any) overflows `u32`.
    #[must_use]
    pub fn with_batches(self, batches: u32) -> Self {
        let rebatched = ReplicationPlan::try_new(batches, self.batch_size, self.master_seed)
            .and_then(|plan| {
                plan.with_namespace(self.namespace)
                    .try_with_first_batch(self.first_batch)
            });
        match rebatched {
            Ok(plan) => plan,
            Err(err) => panic!("{err}"),
        }
    }

    /// Re-bases the plan as a **shard** of a larger run: its batches
    /// cover global batch indices `first_batch..first_batch + batches`,
    /// and every seed derives from the *global* replication index
    /// (`first_batch × batch_size + local index`) under the same
    /// `namespace ^ index` schedule. Replications of a whole run and of
    /// any tiling of it into shards therefore draw identical seeds, so
    /// shard results merged in global batch order are bit-identical to
    /// the single-machine run — regardless of which executor, machine,
    /// or retry attempt produced each shard.
    ///
    /// Rejects offsets whose last global replication index would
    /// overflow `u32` with [`PlanError::ReplicationOverflow`].
    pub fn try_with_first_batch(mut self, first_batch: u32) -> Result<Self, PlanError> {
        match first_batch
            .checked_add(self.batches)
            .and_then(|end| end.checked_mul(self.batch_size))
        {
            Some(_) => {
                self.first_batch = first_batch;
                Ok(self)
            }
            None => Err(PlanError::ReplicationOverflow),
        }
    }

    /// The panicking form of [`ReplicationPlan::try_with_first_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the shard's last global replication index overflows
    /// `u32`.
    #[must_use]
    pub fn with_first_batch(self, first_batch: u32) -> Self {
        match self.try_with_first_batch(first_batch) {
            Ok(plan) => plan,
            Err(err) => panic!("{err}"),
        }
    }

    /// Global index of the plan's first batch (zero unless the plan is a
    /// shard — see [`ReplicationPlan::with_first_batch`]).
    #[must_use]
    pub fn first_batch(&self) -> u32 {
        self.first_batch
    }

    /// Global index of the plan's first replication
    /// (`first_batch × batch_size`).
    #[must_use]
    pub fn first_replication(&self) -> u32 {
        self.first_batch * self.batch_size
    }

    /// Derives a sub-plan whose master seed is drawn from this plan's
    /// seed and `stream` — the idiom for giving each design point of a
    /// sweep its own decorrelated seed schedule.
    #[must_use]
    pub fn derived(self, stream: StreamId) -> Self {
        ReplicationPlan {
            master_seed: derive_seed(self.master_seed, stream),
            ..self
        }
    }

    /// The number of replicate batches.
    #[must_use]
    pub fn batches(&self) -> u32 {
        self.batches
    }

    /// Replications per batch.
    #[must_use]
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Total replications (`batches × batch_size`).
    #[must_use]
    pub fn total(&self) -> u32 {
        self.batches * self.batch_size
    }

    /// The master seed.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The stream namespace.
    #[must_use]
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// The batch a replication index belongs to.
    #[must_use]
    pub fn batch_of(&self, index: u32) -> u32 {
        index / self.batch_size
    }

    /// The stream identifier of (local) replication `index` — derived
    /// from the **global** index `first_replication() + index`, so a
    /// shard draws exactly the streams the whole run would have drawn
    /// at its position.
    #[must_use]
    pub fn stream_id(&self, index: u32) -> StreamId {
        StreamId(self.namespace ^ (u64::from(self.first_replication()) + u64::from(index)))
    }

    /// The seed of replication `index` — a pure function of
    /// `(master_seed, namespace, global index)`, independent of
    /// scheduling and of the batch count.
    #[must_use]
    pub fn seed_for(&self, index: u32) -> u64 {
        derive_seed(self.master_seed, self.stream_id(index))
    }

    /// The [`Replication`] descriptor for `index`.
    #[must_use]
    pub fn replication(&self, index: u32) -> Replication {
        Replication {
            index,
            seed: self.seed_for(index),
        }
    }

    /// Iterates the index ranges of each batch (for collectors that
    /// aggregate per replicate group).
    pub fn batch_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let size = self.batch_size as usize;
        (0..self.batches as usize).map(move |b| b * size..(b + 1) * size)
    }
}

/// How an [`Executor`] schedules replications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One after another on the calling thread.
    Serial,
    /// Work-shared across all available cores.
    #[default]
    Parallel,
}

/// Folds per-replication outputs into an aggregate, mergeably.
///
/// A collector is a fold the executor drives: it creates [`empty`]
/// accumulators, [`accumulate`]s one replication's output at a time (in
/// replication order within a batch), [`merge`]s partial accumulators
/// (in batch order), and [`finish`]es the final accumulator into the
/// output. Because partial accumulators combine, parallel workers and
/// adaptive rounds never have to materialize a `Vec` of every
/// replication — state stays O(1) (or O(batches)) per metric.
///
/// The executor guarantees a *fixed fold shape*: one accumulator per
/// batch, filled in replication order, merged into the running
/// accumulator in batch order. Any collector whose `accumulate`/`merge`
/// follow from that shape therefore produces bit-identical output on
/// serial and parallel executors, and on adaptive runs truncated to the
/// same replication count.
///
/// [`empty`]: Collector::empty
/// [`accumulate`]: Collector::accumulate
/// [`merge`]: Collector::merge
/// [`finish`]: Collector::finish
pub trait Collector<T> {
    /// The intermediate, mergeable accumulator.
    type Accum: Send;
    /// The aggregated result type.
    type Output;

    /// A fresh accumulator with nothing folded in.
    fn empty(&self) -> Self::Accum;

    /// Folds one replication's output into `acc`. `plan` carries the
    /// batch structure (`plan.batch_of(rep.index)` is the replicate
    /// group); outputs of a batch arrive in replication order.
    fn accumulate(&self, plan: &ReplicationPlan, acc: &mut Self::Accum, rep: Replication, value: T);

    /// Merges `other` into `into`. `other` always covers a replication
    /// range strictly after everything already folded into `into`.
    fn merge(&self, into: &mut Self::Accum, other: Self::Accum);

    /// Turns the final accumulator into the output. `plan` describes
    /// exactly the replications that were folded (for an adaptive run,
    /// the effective plan of the rounds actually executed).
    fn finish(&self, plan: &ReplicationPlan, acc: Self::Accum) -> Self::Output;
}

/// A [`Collector`] materializing every output in replication order — the
/// compatibility shape for callers that genuinely need raw outcomes
/// (e.g. campaign post-mortems). Memory is O(replications); prefer a
/// streaming collector on hot paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct VecCollector;

impl<T: Send> Collector<T> for VecCollector {
    type Accum = Vec<T>;
    type Output = Vec<T>;

    fn empty(&self) -> Vec<T> {
        Vec::new()
    }

    fn accumulate(&self, _plan: &ReplicationPlan, acc: &mut Vec<T>, _rep: Replication, value: T) {
        acc.push(value);
    }

    fn merge(&self, into: &mut Vec<T>, mut other: Vec<T>) {
        // The first round of a flat plan merges into an empty
        // accumulator: adopt the buffer instead of re-copying it.
        if into.is_empty() {
            *into = other;
        } else {
            into.append(&mut other);
        }
    }

    fn finish(&self, _plan: &ReplicationPlan, acc: Vec<T>) -> Vec<T> {
        acc
    }
}

/// A [`Collector`] computing the mean of scalar outputs in O(1) memory —
/// the common case for quick probability estimates.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanCollector;

/// Running state of [`MeanCollector`]: count and sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanAccum {
    n: u64,
    sum: f64,
}

impl Collector<f64> for MeanCollector {
    type Accum = MeanAccum;
    type Output = f64;

    fn empty(&self) -> MeanAccum {
        MeanAccum::default()
    }

    fn accumulate(&self, _plan: &ReplicationPlan, acc: &mut MeanAccum, _rep: Replication, x: f64) {
        acc.n += 1;
        acc.sum += x;
    }

    fn merge(&self, into: &mut MeanAccum, other: MeanAccum) {
        into.n += other.n;
        into.sum += other.sum;
    }

    fn finish(&self, _plan: &ReplicationPlan, acc: MeanAccum) -> f64 {
        assert!(acc.n > 0, "mean of zero replications");
        acc.sum / acc.n as f64
    }
}

/// A point estimate with its confidence-interval half-width — what a
/// [`StopRule`] judges. Produced by the *monitor* closure of
/// [`Executor::run_adaptive`] (typically from a streaming accumulator's
/// moment-based interval).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Precision {
    /// Current point estimate of the monitored response.
    pub estimate: f64,
    /// Half-width of its confidence interval.
    pub half_width: f64,
}

impl Precision {
    /// The half-width relative to the estimate's magnitude
    /// (`+inf` when the estimate is zero but the interval is not tight).
    #[must_use]
    pub fn relative_half_width(&self) -> f64 {
        if self.estimate == 0.0 {
            if self.half_width == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.half_width / self.estimate.abs()
        }
    }
}

/// When an adaptive run may stop: the monitored response's relative
/// confidence-interval half-width must drop to `relative_half_width`,
/// subject to replication bounds.
///
/// Bounds are rounded to whole batch-sized rounds: the run never checks
/// the rule before `min_replications` and never exceeds
/// `max_replications` (rounded *down* to whole rounds, so the cap is
/// strict; at least one round always executes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Target relative CI half-width ε: stop once
    /// `half_width ≤ ε × |estimate|`.
    pub relative_half_width: f64,
    /// Replications that must complete before the rule is consulted.
    pub min_replications: u32,
    /// Hard replication cap (the run stops here even if the target was
    /// never met).
    pub max_replications: u32,
}

impl StopRule {
    /// A relative-precision rule, rejecting non-finite or non-positive
    /// targets and inverted or empty replication bounds with a typed
    /// error.
    pub fn try_relative(
        relative_half_width: f64,
        min_replications: u32,
        max_replications: u32,
    ) -> Result<Self, PlanError> {
        if !(relative_half_width.is_finite() && relative_half_width > 0.0) {
            return Err(PlanError::NonPositiveTarget);
        }
        if min_replications > max_replications || max_replications == 0 {
            return Err(PlanError::InvalidBounds);
        }
        Ok(StopRule {
            relative_half_width,
            min_replications,
            max_replications,
        })
    }

    /// A relative-precision rule.
    ///
    /// # Panics
    ///
    /// Panics unless `relative_half_width` is finite and positive and
    /// `min_replications ≤ max_replications` with a non-zero cap. Use
    /// [`StopRule::try_relative`] to validate untrusted configuration.
    #[must_use]
    pub fn relative(
        relative_half_width: f64,
        min_replications: u32,
        max_replications: u32,
    ) -> Self {
        match StopRule::try_relative(relative_half_width, min_replications, max_replications) {
            Ok(rule) => rule,
            Err(err) => panic!("{err}"),
        }
    }

    /// Whether `precision` meets the target.
    #[must_use]
    pub fn is_met(&self, precision: &Precision) -> bool {
        precision.half_width <= self.relative_half_width * precision.estimate.abs()
    }
}

/// Result of an [`Executor::run_adaptive`] call.
#[derive(Debug, Clone)]
pub struct AdaptiveRun<O> {
    /// The collector's output over the replications actually executed.
    pub output: O,
    /// The effective fixed plan this run is bit-identical to
    /// (`rounds × batch_size` replications under the base plan's seed
    /// schedule).
    pub plan: ReplicationPlan,
    /// Batch-sized rounds executed.
    pub rounds: u32,
    /// Replications executed (`rounds × batch_size`).
    pub replications: u32,
    /// Whether the stop rule's precision target was met (as opposed to
    /// hitting the replication cap).
    pub target_met: bool,
    /// The monitored response's precision at the final check, if the
    /// monitor could compute one.
    pub precision: Option<Precision>,
}

/// A cooperative cancellation flag shared between a run and whoever may
/// want to stop it (another thread, a signal handler, a serving layer's
/// admission controller).
///
/// Cancellation is *cooperative*: the executor checks the token at
/// round (batch) boundaries, finishes the round in flight, and returns
/// the merged accumulators so far as a [`PartialRun`] — replications
/// are never killed mid-trajectory, so everything already folded stays
/// bit-identical to an uncancelled run of the same length.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Caps how much work a run may perform: a replication ceiling, a
/// wall-clock deadline, a cancellation token — any combination, all
/// enforced at round (batch) boundaries.
///
/// A budget never truncates *inside* a round: before starting round
/// `r`, the executor asks whether the `(r + 1) × batch_size`-th
/// replication is still affordable and whether the deadline or token
/// has tripped. The replication cap is therefore strict (rounded *down*
/// to whole rounds, so a cap below one round executes zero rounds), and
/// a budget-truncated run is always bit-identical to the fixed plan of
/// the rounds it completed.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_replications: Option<u32>,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// A budget that never stops a run — the strict paths' implicit
    /// policy.
    #[must_use]
    pub const fn unlimited() -> Self {
        Budget {
            max_replications: None,
            deadline: None,
            cancel: None,
        }
    }

    /// Caps the run at `cap` replications (floored to whole rounds).
    #[must_use]
    pub const fn with_max_replications(mut self, cap: u32) -> Self {
        self.max_replications = Some(cap);
        self
    }

    /// Stops the run at the first round boundary at or past `deadline`
    /// from the moment the run started.
    #[must_use]
    pub const fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cancellation token, checked at round boundaries.
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Whether this budget can never stop a run.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_replications.is_none() && self.deadline.is_none() && self.cancel.is_none()
    }

    /// Why work must stop *before* executing a unit that would bring the
    /// completed-replication total to `replications_after_next`, or
    /// `None` if the budget still affords it. `started` is the instant
    /// the run began (deadline checks are relative to it). Checks are
    /// ordered cancellation → deadline → replication cap, so a run
    /// reports the most externally urgent reason.
    #[must_use]
    pub fn stop_reason(
        &self,
        started: Instant,
        replications_after_next: u32,
    ) -> Option<BudgetOutcome> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(BudgetOutcome::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if started.elapsed() >= deadline {
                return Some(BudgetOutcome::DeadlineExpired);
            }
        }
        if let Some(cap) = self.max_replications {
            if replications_after_next > cap {
                return Some(BudgetOutcome::ReplicationBudget);
            }
        }
        None
    }
}

/// Why a run ended. Carried by [`PartialRun::budget_outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetOutcome {
    /// A fixed plan ran every round.
    Completed,
    /// An adaptive run met its precision target.
    PrecisionMet,
    /// An adaptive run reached its [`StopRule`] replication cap without
    /// meeting the target — the rule's own honest stopping point, not a
    /// truncation.
    RuleCapped,
    /// The [`Budget`] replication ceiling cut the run short.
    ReplicationBudget,
    /// The wall-clock deadline expired.
    DeadlineExpired,
    /// The [`CancelToken`] was triggered.
    Cancelled,
}

impl BudgetOutcome {
    /// Whether the run was cut short by an external budget rather than
    /// finishing on its own terms (plan exhausted, precision met, or
    /// rule cap reached).
    #[must_use]
    pub const fn is_truncation(&self) -> bool {
        matches!(
            self,
            BudgetOutcome::ReplicationBudget
                | BudgetOutcome::DeadlineExpired
                | BudgetOutcome::Cancelled
        )
    }
}

impl std::fmt::Display for BudgetOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match self {
            BudgetOutcome::Completed => "completed",
            BudgetOutcome::PrecisionMet => "precision met",
            BudgetOutcome::RuleCapped => "rule cap",
            BudgetOutcome::ReplicationBudget => "replication budget",
            BudgetOutcome::DeadlineExpired => "deadline expired",
            BudgetOutcome::Cancelled => "cancelled",
        };
        f.write_str(label)
    }
}

/// How retry attempts re-derive a failed replication's seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reseed {
    /// Every attempt re-runs the replication's own plan seed — the
    /// right policy for transient *environmental* faults, and the one
    /// that makes a successful retry bit-identical to a fault-free run
    /// (same seed → same draw schedule → same trajectory).
    SameSeed,
    /// Attempt `k > 0` derives `derive_seed(base, salt ^ k)` — an escape
    /// hatch for faults that are *deterministic in the seed* (a
    /// trajectory that always trips the same bug), trading bit-identity
    /// for availability. The salt keeps retry streams disjoint from
    /// every plan namespace.
    AttemptSalt(u64),
}

/// Bounded, deterministic re-execution of failed replications.
///
/// Retries run *inline* in the worker that owns the replication, before
/// its slot in the fold, so the fold shape — and therefore serial ≡
/// parallel bit-identity — is untouched no matter how many attempts a
/// replication needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
    reseed: Reseed,
}

impl RetryPolicy {
    /// No retries: one attempt per replication.
    #[must_use]
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            reseed: Reseed::SameSeed,
        }
    }

    /// Up to `retries` re-attempts after the first failure, each from
    /// the replication's own seed ([`Reseed::SameSeed`]).
    #[must_use]
    pub const fn retries(retries: u32) -> Self {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            reseed: Reseed::SameSeed,
        }
    }

    /// Switches re-attempts to [`Reseed::AttemptSalt`] with `salt`.
    #[must_use]
    pub const fn with_reseed_salt(mut self, salt: u64) -> Self {
        self.reseed = Reseed::AttemptSalt(salt);
        self
    }

    /// Total attempts allowed per replication (first run included);
    /// always at least one.
    #[must_use]
    pub const fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The reseeding policy for attempts after the first.
    #[must_use]
    pub const fn reseed(&self) -> Reseed {
        self.reseed
    }

    /// The seed attempt `attempt` (zero-based) runs under, given the
    /// replication's plan seed.
    #[must_use]
    pub fn seed_for_attempt(&self, base_seed: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            return base_seed;
        }
        match self.reseed {
            Reseed::SameSeed => base_seed,
            Reseed::AttemptSalt(salt) => {
                derive_seed(base_seed, StreamId(salt ^ u64::from(attempt)))
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Everything a budgeted run needs to know about *how* to be resilient:
/// the retry policy for failed replications and the budget bounding the
/// whole run. The default policy (no retries, unlimited budget) makes
/// [`Executor::run_ws_budgeted`] behave like [`Executor::run_ws`]
/// except that failures degrade the result instead of panicking.
#[derive(Debug, Clone, Default)]
pub struct RunPolicy {
    /// Re-execution policy for failed replications.
    pub retry: RetryPolicy,
    /// Work bounds checked at round boundaries.
    pub budget: Budget,
}

impl RunPolicy {
    /// No retries, unlimited budget.
    #[must_use]
    pub const fn new() -> Self {
        RunPolicy {
            retry: RetryPolicy::none(),
            budget: Budget::unlimited(),
        }
    }

    /// Replaces the retry policy.
    #[must_use]
    pub const fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }
}

/// Why a replication failed its final attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The task panicked; the message is the stringified payload.
    Panicked(String),
    /// The task returned, but the run's validator rejected the output
    /// (e.g. a non-finite reward).
    InvalidOutput,
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Panicked(message) => write!(f, "panicked: {message}"),
            FailureCause::InvalidOutput => write!(f, "output rejected by validator"),
        }
    }
}

/// One replication that exhausted its attempts without producing an
/// accepted output. The seed recorded is the *first* attempt's (the
/// plan seed), so a failure is always re-runnable in isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationFailure {
    /// Replication index in the plan.
    pub index: u32,
    /// The plan seed of the replication (attempt 0).
    pub seed: u64,
    /// Attempts consumed (≥ 1).
    pub attempts: u32,
    /// What went wrong on the last attempt.
    pub cause: FailureCause,
}

impl std::fmt::Display for ReplicationFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replication {} (seed {:#018x}) failed after {} attempt(s): {}",
            self.index, self.seed, self.attempts, self.cause
        )
    }
}

/// The gracefully degraded result of a budgeted run: whatever the
/// collector folded over the replications that completed, plus an
/// honest account of what did not.
///
/// Two invariants make a partial result trustworthy:
///
/// * **Survivor bit-identity** — seeds are pure functions of the index,
///   so every completed replication's contribution is bit-identical to
///   the same replication in a fault-free run.
/// * **Truncation bit-identity** — budgets only stop at round
///   boundaries, so a run truncated after `rounds` rounds with no
///   failures has `output` bit-identical to the fixed plan
///   `plan.with_batches(rounds)`.
#[derive(Debug, Clone)]
pub struct PartialRun<O> {
    /// The collector's output over completed replications, or `None` if
    /// nothing completed (zero affordable rounds, or every replication
    /// failed).
    pub output: Option<O>,
    /// The effective fixed plan of the rounds actually executed
    /// (`rounds` batches; the base plan when `rounds` is zero).
    pub plan: ReplicationPlan,
    /// Batch-sized rounds executed.
    pub rounds: u32,
    /// Replications attempted (`rounds × batch_size`).
    pub attempted: u32,
    /// Replications that produced an accepted output.
    pub completed: u32,
    /// Replications that exhausted their attempts, in replication
    /// order (deterministic: the order is part of the fold shape).
    pub failed: Vec<ReplicationFailure>,
    /// Why the run ended.
    pub budget_outcome: BudgetOutcome,
    /// The monitored response's precision at the last check (adaptive
    /// runs only).
    pub precision: Option<Precision>,
}

impl<O> PartialRun<O> {
    /// Whether the result is degraded: some replications failed, or an
    /// external budget truncated the run.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failed.is_empty() || self.budget_outcome.is_truncation()
    }

    /// The output, if any replication completed.
    #[must_use]
    pub fn output(&self) -> Option<&O> {
        self.output.as_ref()
    }
}

/// The validator that accepts every output — the policy of the plain
/// budgeted paths, where only panics count as failures.
pub fn accept_all<T>(_value: &T) -> bool {
    true
}

/// Internal failure record of one replication's attempt loop: the
/// public failure plus, for strict paths, the original panic payload so
/// `resume_unwind` preserves it exactly. Boxed so the hot `Result` stays
/// one pointer wide on the error side.
struct TaskError {
    failure: ReplicationFailure,
    payload: Option<Box<dyn Any + Send>>,
}

/// Runs one replication through its bounded attempt loop: catch the
/// unwind, validate the output, retry per policy. The workspace is
/// checked out *inside* the catch, so a panicking replication's
/// workspace is dropped mid-unwind and never recycled half-mutated; a
/// retry checks out (or lazily creates) a fresh one.
fn attempt_replication<W, T, I, F, V>(
    plan: &ReplicationPlan,
    index: u32,
    pool: &WorkspacePool<'_, W, I>,
    task: &F,
    validate: &V,
    retry: &RetryPolicy,
) -> Result<T, Box<TaskError>>
where
    W: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, Replication) -> T + Sync + Send,
    V: Fn(&T) -> bool + Sync,
{
    let base_seed = plan.seed_for(index);
    let mut last: Option<Box<TaskError>> = None;
    for attempt in 0..retry.max_attempts() {
        let rep = Replication {
            index,
            seed: retry.seed_for_attempt(base_seed, attempt),
        };
        // AssertUnwindSafe: on Err every value the closure touched (the
        // checked-out workspace, the task's locals) is dropped during
        // the unwind — nothing partially-mutated is observed afterwards.
        match catch_unwind(AssertUnwindSafe(|| pool.with(|ws| task(ws, rep)))) {
            Ok(value) if validate(&value) => return Ok(value),
            Ok(_) => {
                last = Some(Box::new(TaskError {
                    failure: ReplicationFailure {
                        index,
                        seed: base_seed,
                        attempts: attempt + 1,
                        cause: FailureCause::InvalidOutput,
                    },
                    payload: None,
                }));
            }
            Err(payload) => {
                last = Some(Box::new(TaskError {
                    failure: ReplicationFailure {
                        index,
                        seed: base_seed,
                        attempts: attempt + 1,
                        cause: FailureCause::Panicked(crate::faults::panic_message(
                            payload.as_ref(),
                        )),
                    },
                    payload: Some(payload),
                }));
            }
        }
    }
    match last {
        Some(err) => Err(err),
        None => unreachable!("RetryPolicy guarantees at least one attempt"),
    }
}

/// Assembles a [`PartialRun`] from a finished round loop. `finish` is
/// only invoked when at least one replication completed, so collectors
/// keep their "non-empty fold" invariant even under total failure.
#[allow(clippy::too_many_arguments)]
fn finish_partial<T, C: Collector<T>>(
    plan: &ReplicationPlan,
    collector: &C,
    acc: C::Accum,
    rounds: u32,
    completed: u32,
    failed: Vec<ReplicationFailure>,
    budget_outcome: BudgetOutcome,
    precision: Option<Precision>,
) -> PartialRun<C::Output> {
    let effective = if rounds > 0 {
        plan.with_batches(rounds)
    } else {
        *plan
    };
    let output = (completed > 0).then(|| collector.finish(&effective, acc));
    PartialRun {
        output,
        plan: effective,
        rounds,
        attempted: rounds * plan.batch_size(),
        completed,
        failed,
        budget_outcome,
        precision,
    }
}

/// Strict paths re-raise the first failure exactly as if it had never
/// been caught; budgeted paths record it and move on.
// The Box keeps the per-replication `Result` one word wide on the hot
// success path; this cold sink consumes it as-is.
#[allow(clippy::boxed_local)]
fn record_or_propagate(err: Box<TaskError>, strict: bool, failed: &mut Vec<ReplicationFailure>) {
    if strict {
        match err.payload {
            Some(payload) => resume_unwind(payload),
            None => panic!("{}", err.failure),
        }
    }
    failed.push(err.failure);
}

/// Runs the replications of a [`ReplicationPlan`].
///
/// The executor owns scheduling *only*: seeds come from the plan, and
/// the fold shape (accumulate in replication order within a batch, merge
/// batch accumulators in batch order) is fixed, so every mode produces
/// identical results.
///
/// # Examples
///
/// ```
/// use diversify_des::exec::{Executor, ReplicationPlan};
///
/// let plan = ReplicationPlan::flat(100, 42);
/// let serial: Vec<u64> = Executor::serial().run(&plan, |rep| rep.seed % 97);
/// let parallel: Vec<u64> = Executor::parallel().run(&plan, |rep| rep.seed % 97);
/// assert_eq!(serial, parallel);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Executor {
    mode: ExecMode,
}

impl Executor {
    /// An executor with the given mode.
    #[must_use]
    pub const fn new(mode: ExecMode) -> Self {
        Executor { mode }
    }

    /// A serial executor.
    #[must_use]
    pub const fn serial() -> Self {
        Executor {
            mode: ExecMode::Serial,
        }
    }

    /// A parallel executor.
    #[must_use]
    pub const fn parallel() -> Self {
        Executor {
            mode: ExecMode::Parallel,
        }
    }

    /// The scheduling mode.
    #[must_use]
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Executes one batch-sized round (`round` is the batch index) and
    /// folds its ordered outputs into a fresh accumulator. A serial
    /// round folds each output as it is produced; a parallel round
    /// materializes the round's outcomes (the only buffered vector, so
    /// peak memory is O(batch_size) regardless of how many rounds run)
    /// and folds them in replication order — the accumulate order is
    /// identical either way. Every replication borrows a workspace from
    /// `pool` for the duration of each attempt, runs unwind-caught, and
    /// is retried per `retry`; failures either re-raise (`strict`) or
    /// are recorded in `failed` in replication order, so the fold shape
    /// is fixed even under faults.
    #[allow(clippy::too_many_arguments)]
    fn round_accum<W, T, I, F, C, V>(
        &self,
        plan: &ReplicationPlan,
        round: u32,
        pool: &WorkspacePool<'_, W, I>,
        task: &F,
        collector: &C,
        validate: &V,
        retry: &RetryPolicy,
        strict: bool,
        completed: &mut u32,
        failed: &mut Vec<ReplicationFailure>,
    ) -> C::Accum
    where
        W: Send,
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, Replication) -> T + Sync + Send,
        C: Collector<T>,
        V: Fn(&T) -> bool + Sync,
    {
        let start = round * plan.batch_size();
        let indices = start..start + plan.batch_size();
        let mut acc = collector.empty();
        match self.mode {
            ExecMode::Serial => {
                for i in indices {
                    match attempt_replication(plan, i, pool, task, validate, retry) {
                        Ok(value) => {
                            collector.accumulate(plan, &mut acc, plan.replication(i), value);
                            *completed += 1;
                        }
                        Err(err) => record_or_propagate(err, strict, failed),
                    }
                }
            }
            ExecMode::Parallel => {
                let outcomes: Vec<Result<T, Box<TaskError>>> = indices
                    .into_par_iter()
                    .map(|i| attempt_replication(plan, i, pool, task, validate, retry))
                    .collect();
                for (offset, outcome) in outcomes.into_iter().enumerate() {
                    let rep = plan.replication(start + offset as u32);
                    match outcome {
                        Ok(value) => {
                            collector.accumulate(plan, &mut acc, rep, value);
                            *completed += 1;
                        }
                        Err(err) => record_or_propagate(err, strict, failed),
                    }
                }
            }
        }
        acc
    }

    /// The fixed-plan driver behind both the strict and the budgeted
    /// workspace paths.
    #[allow(clippy::too_many_arguments)]
    fn run_fixed_ft<W, T, I, F, C, V>(
        &self,
        plan: &ReplicationPlan,
        init: I,
        task: F,
        collector: &C,
        policy: &RunPolicy,
        validate: V,
        strict: bool,
    ) -> PartialRun<C::Output>
    where
        W: Send,
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, Replication) -> T + Sync + Send,
        C: Collector<T>,
        V: Fn(&T) -> bool + Sync,
    {
        let pool = WorkspacePool::new(&init);
        let started = Instant::now();
        let mut acc = collector.empty();
        let mut failed = Vec::new();
        let mut completed = 0u32;
        let mut rounds = 0u32;
        let mut budget_outcome = BudgetOutcome::Completed;
        while rounds < plan.batches() {
            if let Some(stop) = policy
                .budget
                .stop_reason(started, (rounds + 1) * plan.batch_size())
            {
                budget_outcome = stop;
                break;
            }
            let partial = self.round_accum(
                plan,
                rounds,
                &pool,
                &task,
                collector,
                &validate,
                &policy.retry,
                strict,
                &mut completed,
                &mut failed,
            );
            collector.merge(&mut acc, partial);
            rounds += 1;
        }
        finish_partial(
            plan,
            collector,
            acc,
            rounds,
            completed,
            failed,
            budget_outcome,
            None,
        )
    }

    /// The adaptive driver behind both the strict and the budgeted
    /// adaptive workspace paths.
    #[allow(clippy::too_many_arguments)]
    fn run_adaptive_ft<W, T, I, F, C, M, V>(
        &self,
        plan: &ReplicationPlan,
        rule: &StopRule,
        init: I,
        task: F,
        collector: &C,
        monitor: M,
        policy: &RunPolicy,
        validate: V,
        strict: bool,
    ) -> PartialRun<C::Output>
    where
        W: Send,
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, Replication) -> T + Sync + Send,
        C: Collector<T>,
        M: Fn(&C::Accum, u32) -> Option<Precision>,
        V: Fn(&T) -> bool + Sync,
    {
        let pool = WorkspacePool::new(&init);
        let started = Instant::now();
        let batch = plan.batch_size();
        let max_rounds = (rule.max_replications / batch).max(1);
        let min_rounds = rule.min_replications.div_ceil(batch).clamp(1, max_rounds);
        let mut acc = collector.empty();
        let mut failed = Vec::new();
        let mut completed = 0u32;
        let mut rounds = 0u32;
        let mut precision = None;
        let mut budget_outcome = BudgetOutcome::RuleCapped;
        while rounds < max_rounds {
            if let Some(stop) = policy
                .budget
                .stop_reason(started, (rounds + 1).saturating_mul(batch))
            {
                budget_outcome = stop;
                break;
            }
            let partial = self.round_accum(
                plan,
                rounds,
                &pool,
                &task,
                collector,
                &validate,
                &policy.retry,
                strict,
                &mut completed,
                &mut failed,
            );
            collector.merge(&mut acc, partial);
            rounds += 1;
            if rounds < min_rounds {
                continue;
            }
            precision = monitor(&acc, completed);
            if let Some(p) = &precision {
                if rule.is_met(p) {
                    budget_outcome = BudgetOutcome::PrecisionMet;
                    break;
                }
            }
        }
        finish_partial(
            plan,
            collector,
            acc,
            rounds,
            completed,
            failed,
            budget_outcome,
            precision,
        )
    }

    /// Runs every replication of `plan` through `task`, returning the
    /// outputs in replication order (the [`VecCollector`] fold).
    pub fn run<T, F>(&self, plan: &ReplicationPlan, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Replication) -> T + Sync + Send,
    {
        self.collect(plan, task, &VecCollector)
    }

    /// Runs every replication and folds the outputs with `collector`,
    /// one batch-sized round at a time.
    pub fn collect<T, F, C>(&self, plan: &ReplicationPlan, task: F, collector: &C) -> C::Output
    where
        T: Send,
        F: Fn(Replication) -> T + Sync + Send,
        C: Collector<T>,
    {
        self.run_ws(plan, || (), |(): &mut (), rep| task(rep), collector)
    }

    /// Runs every replication with a reusable per-worker **workspace**
    /// and folds the outputs with `collector`.
    ///
    /// `init` creates one workspace per worker that needs one (a serial
    /// run creates exactly one; a parallel run at most one per
    /// concurrently active worker). Each replication receives `&mut W`
    /// for the duration of its task, so simulators, scratch vectors and
    /// other heap state amortize across all the replications a worker
    /// executes — the task is responsible for resetting whatever
    /// per-replication state it reads (the campaign and SAN workspaces
    /// in this workspace do so by construction).
    ///
    /// Seeds are still the plan's pure `namespace ^ index` derivation
    /// and the fold shape is the same fixed per-round structure as
    /// [`Executor::collect`], so for any task whose output depends only
    /// on its `Replication` (not on workspace history), `run_ws` is
    /// **bit-identical** to `collect` on every executor mode.
    ///
    /// # Examples
    ///
    /// ```
    /// use diversify_des::exec::{Executor, ReplicationPlan, VecCollector};
    ///
    /// let plan = ReplicationPlan::flat(64, 7);
    /// // The workspace is a scratch buffer reused across replications.
    /// let sums: Vec<u64> = Executor::parallel().run_ws(
    ///     &plan,
    ///     Vec::new,
    ///     |scratch: &mut Vec<u64>, rep| {
    ///         scratch.clear();
    ///         scratch.extend((0..8).map(|k| rep.seed.rotate_left(k) % 97));
    ///         scratch.iter().sum()
    ///     },
    ///     &VecCollector,
    /// );
    /// let plain: Vec<u64> = Executor::serial().run(&plan, |rep| {
    ///     (0..8).map(|k| rep.seed.rotate_left(k) % 97).sum()
    /// });
    /// assert_eq!(sums, plain);
    /// ```
    pub fn run_ws<W, T, I, F, C>(
        &self,
        plan: &ReplicationPlan,
        init: I,
        task: F,
        collector: &C,
    ) -> C::Output
    where
        W: Send,
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, Replication) -> T + Sync + Send,
        C: Collector<T>,
    {
        let run = self.run_fixed_ft(
            plan,
            init,
            task,
            collector,
            &RunPolicy::new(),
            accept_all::<T>,
            true,
        );
        match run.output {
            Some(output) => output,
            // Strict mode re-raises the first failure and the policy is
            // unlimited, so every replication of the plan completed.
            None => unreachable!("a strict unbudgeted run always completes"),
        }
    }

    /// Runs `plan` under a [`RunPolicy`], isolating panics and bounding
    /// work, and returns a gracefully degraded [`PartialRun`] instead
    /// of propagating failures.
    ///
    /// Every replication executes unwind-caught: a panic (after the
    /// policy's retries) becomes a [`ReplicationFailure`] and the fold
    /// simply skips that slot, so every surviving replication's
    /// contribution is bit-identical to the fault-free run. The
    /// policy's [`Budget`] is checked at round boundaries; a truncated
    /// run is bit-identical to the fixed plan of the rounds it
    /// completed.
    pub fn run_ws_budgeted<W, T, I, F, C>(
        &self,
        plan: &ReplicationPlan,
        init: I,
        task: F,
        collector: &C,
        policy: &RunPolicy,
    ) -> PartialRun<C::Output>
    where
        W: Send,
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, Replication) -> T + Sync + Send,
        C: Collector<T>,
    {
        self.run_fixed_ft(plan, init, task, collector, policy, accept_all::<T>, false)
    }

    /// [`Executor::run_ws_budgeted`] with an output validator: a
    /// replication whose output `validate` rejects (e.g. a non-finite
    /// reward) counts as failed — retried per policy, then recorded as
    /// [`FailureCause::InvalidOutput`] — instead of silently corrupting
    /// downstream aggregates.
    pub fn run_ws_checked<W, T, I, F, C, V>(
        &self,
        plan: &ReplicationPlan,
        init: I,
        task: F,
        collector: &C,
        policy: &RunPolicy,
        validate: V,
    ) -> PartialRun<C::Output>
    where
        W: Send,
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, Replication) -> T + Sync + Send,
        C: Collector<T>,
        V: Fn(&T) -> bool + Sync,
    {
        self.run_fixed_ft(plan, init, task, collector, policy, validate, false)
    }

    /// Executes batch-sized rounds of `plan` until `rule` is satisfied
    /// on the response watched by `monitor`, or the replication cap is
    /// hit.
    ///
    /// `plan` contributes the seed schedule and the round size
    /// (`batch_size`); its batch *count* is ignored — the bounds come
    /// from the rule. After each round past `rule.min_replications`, the
    /// monitor receives the running accumulator and the replication
    /// count and returns the current [`Precision`] of the chosen
    /// response (or `None` while it cannot be computed, e.g. no
    /// variance yet).
    ///
    /// Seeds stay the plan's `namespace ^ index` derivation and the fold
    /// shape is the fixed per-round structure, so a run that stops after
    /// *N* replications is **bit-identical** to
    /// `collect(&plan.with_batches(N / batch_size), …)`.
    pub fn run_adaptive<T, F, C, M>(
        &self,
        plan: &ReplicationPlan,
        rule: &StopRule,
        task: F,
        collector: &C,
        monitor: M,
    ) -> AdaptiveRun<C::Output>
    where
        T: Send,
        F: Fn(Replication) -> T + Sync + Send,
        C: Collector<T>,
        M: Fn(&C::Accum, u32) -> Option<Precision>,
    {
        self.run_adaptive_ws(
            plan,
            rule,
            || (),
            |(): &mut (), rep| task(rep),
            collector,
            monitor,
        )
    }

    /// The workspace twin of [`Executor::run_adaptive`]: adaptive
    /// batch-sized rounds whose replications borrow per-worker
    /// workspaces from one pool that stays alive **across rounds**, so
    /// an adaptive run re-pays workspace setup once, not once per
    /// round.
    ///
    /// Everything `run_adaptive` guarantees still holds: a run that
    /// stops after *N* replications is bit-identical to
    /// `run_ws(&plan.with_batches(N / batch_size), …)` — and, for
    /// history-independent tasks, to the plain `collect` of that plan.
    pub fn run_adaptive_ws<W, T, I, F, C, M>(
        &self,
        plan: &ReplicationPlan,
        rule: &StopRule,
        init: I,
        task: F,
        collector: &C,
        monitor: M,
    ) -> AdaptiveRun<C::Output>
    where
        W: Send,
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, Replication) -> T + Sync + Send,
        C: Collector<T>,
        M: Fn(&C::Accum, u32) -> Option<Precision>,
    {
        let run = self.run_adaptive_ft(
            plan,
            rule,
            init,
            task,
            collector,
            monitor,
            &RunPolicy::new(),
            accept_all::<T>,
            true,
        );
        let output = match run.output {
            Some(output) => output,
            // Strict mode re-raises failures and the rule executes at
            // least one full round, so the fold is never empty.
            None => unreachable!("a strict adaptive run always completes at least one round"),
        };
        AdaptiveRun {
            output,
            plan: run.plan,
            rounds: run.rounds,
            replications: run.attempted,
            target_met: run.budget_outcome == BudgetOutcome::PrecisionMet,
            precision: run.precision,
        }
    }

    /// The budgeted twin of [`Executor::run_adaptive_ws`]: adaptive
    /// rounds under a [`RunPolicy`], returning a [`PartialRun`] whose
    /// `budget_outcome` distinguishes precision met, the rule's own
    /// replication cap, and external truncation (budget, deadline,
    /// cancellation). The monitor receives the *completed* replication
    /// count, which under faults may be below `rounds × batch_size`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_adaptive_ws_budgeted<W, T, I, F, C, M>(
        &self,
        plan: &ReplicationPlan,
        rule: &StopRule,
        init: I,
        task: F,
        collector: &C,
        monitor: M,
        policy: &RunPolicy,
    ) -> PartialRun<C::Output>
    where
        W: Send,
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, Replication) -> T + Sync + Send,
        C: Collector<T>,
        M: Fn(&C::Accum, u32) -> Option<Precision>,
    {
        self.run_adaptive_ft(
            plan,
            rule,
            init,
            task,
            collector,
            monitor,
            policy,
            accept_all::<T>,
            false,
        )
    }

    /// [`Executor::run_adaptive_ws_budgeted`] with an output validator
    /// (see [`Executor::run_ws_checked`]).
    #[allow(clippy::too_many_arguments)]
    pub fn run_adaptive_ws_checked<W, T, I, F, C, M, V>(
        &self,
        plan: &ReplicationPlan,
        rule: &StopRule,
        init: I,
        task: F,
        collector: &C,
        monitor: M,
        policy: &RunPolicy,
        validate: V,
    ) -> PartialRun<C::Output>
    where
        W: Send,
        T: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, Replication) -> T + Sync + Send,
        C: Collector<T>,
        M: Fn(&C::Accum, u32) -> Option<Precision>,
        V: Fn(&T) -> bool + Sync,
    {
        self.run_adaptive_ft(
            plan, rule, init, task, collector, monitor, policy, validate, false,
        )
    }
}

/// A pool of reusable per-worker workspaces behind the
/// [`Executor::run_ws`] family.
///
/// Workspaces are checked out for the duration of one replication and
/// returned afterwards, so the pool holds at most one workspace per
/// concurrently active worker, created lazily by `init`. The free list
/// lives behind a mutex, but check-out/check-in is two uncontended
/// lock round-trips per replication — noise next to any simulation
/// task — and in the steady state the pool performs no allocation.
struct WorkspacePool<'i, W, I> {
    init: &'i I,
    free: Mutex<Vec<W>>,
}

impl<'i, W, I: Fn() -> W> WorkspacePool<'i, W, I> {
    fn new(init: &'i I) -> Self {
        WorkspacePool {
            init,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` with a workspace checked out of the pool (creating one
    /// when every existing workspace is busy), then returns it. If `f`
    /// panics the workspace is dropped, never recycled half-mutated.
    ///
    /// Zero-sized workspaces (the unit workspace the plain
    /// `run`/`collect`/`run_adaptive` paths delegate with) skip the pool
    /// entirely — there is nothing to reuse, so legacy callers pay no
    /// lock traffic. The branch is a compile-time constant per
    /// monomorphization.
    fn with<R>(&self, f: impl FnOnce(&mut W) -> R) -> R {
        if std::mem::size_of::<W>() == 0 {
            let mut ws = (self.init)();
            return f(&mut ws);
        }
        // A poisoned free list only means some thread panicked while
        // *pushing or popping* (the lock is never held across a task);
        // the workspaces inside are intact, so keep serving them.
        let checked_out = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let mut ws = checked_out.unwrap_or_else(|| (self.init)());
        let out = f(&mut ws);
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ws);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStream;

    #[test]
    fn seeds_are_pure_functions_of_plan() {
        let plan = ReplicationPlan::new(4, 25, 99);
        let again = ReplicationPlan::new(4, 25, 99);
        for i in 0..plan.total() {
            assert_eq!(plan.seed_for(i), again.seed_for(i));
        }
        // Seeds do not depend on the batch split, only on the index.
        let other_split = ReplicationPlan::new(25, 4, 99);
        for i in 0..plan.total() {
            assert_eq!(plan.seed_for(i), other_split.seed_for(i));
        }
    }

    #[test]
    fn namespace_matches_legacy_replication_runner_schedule() {
        // ReplicationRunner historically derived seed i as
        // derive_seed(master, StreamId(0x5EED_0000_0000_0000 ^ i)); the
        // default plan must reproduce that exactly.
        let plan = ReplicationPlan::flat(100, 1234);
        for i in 0..100 {
            assert_eq!(
                plan.seed_for(i),
                derive_seed(1234, StreamId(DEFAULT_STREAM_NAMESPACE ^ u64::from(i)))
            );
        }
    }

    #[test]
    fn additive_namespaces_are_xor_compatible_for_small_indices() {
        // Migrated call sites relied on `base + i` stream ids with base
        // having zero low bits; XOR preserves those schedules for any
        // index below 2^16.
        for base in [0x4E_0000u64, 0xCA_0000] {
            for i in [0u32, 1, 2, 255, 65_535] {
                assert_eq!(base ^ u64::from(i), base + u64::from(i));
            }
        }
    }

    #[test]
    fn serial_equals_parallel() {
        let plan = ReplicationPlan::new(3, 33, 7);
        let task = |rep: Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(1));
            (0..100).map(|_| rng.uniform()).sum::<f64>()
        };
        let serial = Executor::serial().run(&plan, task);
        let parallel = Executor::parallel().run(&plan, task);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn batch_ranges_tile_the_plan() {
        let plan = ReplicationPlan::new(4, 5, 0);
        let ranges: Vec<_> = plan.batch_ranges().collect();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..5);
        assert_eq!(ranges[3], 15..20);
        assert_eq!(plan.batch_of(0), 0);
        assert_eq!(plan.batch_of(4), 0);
        assert_eq!(plan.batch_of(5), 1);
        assert_eq!(plan.batch_of(19), 3);
    }

    #[test]
    fn derived_plans_decorrelate() {
        let base = ReplicationPlan::new(2, 10, 42);
        let a = base.derived(StreamId(0));
        let b = base.derived(StreamId(1));
        assert_ne!(a.master_seed(), b.master_seed());
        assert_eq!(a.batches(), base.batches());
        // Deriving is deterministic.
        assert_eq!(a, base.derived(StreamId(0)));
    }

    #[test]
    fn with_batches_keeps_schedule() {
        let base = ReplicationPlan::new(4, 25, 7).with_namespace(0xAB_0000);
        let grown = base.with_batches(9);
        assert_eq!(grown.batches(), 9);
        assert_eq!(grown.batch_size(), 25);
        assert_eq!(grown.namespace(), base.namespace());
        for i in 0..base.total() {
            assert_eq!(base.seed_for(i), grown.seed_for(i));
        }
    }

    #[test]
    fn shard_plans_keep_the_global_seed_schedule() {
        let base = ReplicationPlan::new(6, 10, 77).with_namespace(0x4E_0000);
        // Tile the run into three 2-batch shards.
        for first in [0u32, 2, 4] {
            let shard = base.with_batches(2).with_first_batch(first);
            assert_eq!(shard.first_batch(), first);
            assert_eq!(shard.first_replication(), first * 10);
            for i in 0..shard.total() {
                assert_eq!(shard.seed_for(i), base.seed_for(first * 10 + i));
                assert_eq!(shard.stream_id(i), base.stream_id(first * 10 + i));
            }
        }
        // Rebatching and deriving preserve the shard offset.
        let shard = base.with_first_batch(4);
        assert_eq!(shard.with_batches(1).first_batch(), 4);
        assert_eq!(shard.derived(StreamId(3)).first_batch(), 4);
    }

    #[test]
    fn sharded_runs_concatenate_to_the_whole_run() {
        let base = ReplicationPlan::new(4, 8, 2024);
        // Output depends on the seed alone — `rep.index` is shard-local.
        let task = |rep: Replication| rep.seed.rotate_left((rep.seed % 13) as u32);
        let whole = Executor::serial().run(&base, task);
        let mut tiled = Vec::new();
        for first in [0u32, 1, 2, 3] {
            let shard = base.with_batches(1).with_first_batch(first);
            tiled.extend(Executor::parallel().run(&shard, task));
        }
        assert_eq!(whole, tiled);
    }

    #[test]
    fn shard_offset_overflow_is_rejected() {
        let plan = ReplicationPlan::new(2, 1 << 16, 0);
        assert_eq!(
            plan.try_with_first_batch(u16::MAX as u32),
            Err(PlanError::ReplicationOverflow)
        );
        assert!(plan.try_with_first_batch(1000).is_ok());
    }

    #[test]
    fn mean_collector_averages() {
        let plan = ReplicationPlan::flat(4, 0);
        let mean =
            Executor::serial().collect(&plan, |rep| f64::from(rep.index) + 1.0, &MeanCollector);
        assert!((mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn vec_collector_round_trips_run() {
        let plan = ReplicationPlan::new(3, 4, 5);
        let direct = Executor::serial().run(&plan, |rep| rep.seed);
        let folded = Executor::serial().collect(&plan, |rep| rep.seed, &VecCollector);
        assert_eq!(direct, folded);
        assert_eq!(direct.len(), 12);
    }

    #[test]
    fn adaptive_truncation_is_bit_identical_to_fixed_plan() {
        // A rule that is never met runs exactly to the cap; the result
        // must equal the fixed plan of the same size, bit for bit.
        let base = ReplicationPlan::new(1, 10, 99);
        let rule = StopRule::relative(1e-9, 10, 40);
        let task = |rep: Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(2));
            rng.uniform()
        };
        for exec in [Executor::serial(), Executor::parallel()] {
            let adaptive = exec.run_adaptive(&base, &rule, task, &MeanCollector, |_, _| None);
            assert_eq!(adaptive.rounds, 4);
            assert_eq!(adaptive.replications, 40);
            assert!(!adaptive.target_met);
            let fixed = exec.collect(&base.with_batches(4), task, &MeanCollector);
            assert_eq!(adaptive.output.to_bits(), fixed.to_bits());
        }
    }

    #[test]
    fn run_ws_is_bit_identical_to_run() {
        let plan = ReplicationPlan::new(3, 17, 13);
        let task = |rep: Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(4));
            (0..50).map(|_| rng.uniform()).sum::<f64>()
        };
        let reference = Executor::serial().run(&plan, task);
        for exec in [Executor::serial(), Executor::parallel()] {
            let ws: Vec<f64> = exec.run_ws(
                &plan,
                || Vec::with_capacity(50),
                |scratch: &mut Vec<f64>, rep| {
                    scratch.clear();
                    let mut rng = RngStream::new(rep.seed, StreamId(4));
                    scratch.extend((0..50).map(|_| rng.uniform()));
                    scratch.iter().sum()
                },
                &VecCollector,
            );
            assert_eq!(
                ws.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn serial_run_ws_reuses_one_workspace() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let created = AtomicU32::new(0);
        let plan = ReplicationPlan::new(4, 8, 0);
        let _ = Executor::serial().run_ws(
            &plan,
            || created.fetch_add(1, Ordering::Relaxed),
            |_, rep| rep.index,
            &VecCollector,
        );
        assert_eq!(created.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn adaptive_ws_keeps_workspaces_across_rounds() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let created = AtomicU32::new(0);
        let base = ReplicationPlan::new(1, 5, 2);
        let rule = StopRule::relative(1e-9, 5, 40);
        let run = Executor::serial().run_adaptive_ws(
            &base,
            &rule,
            || created.fetch_add(1, Ordering::Relaxed),
            |_, rep| f64::from(rep.index),
            &MeanCollector,
            |_, _| None,
        );
        assert_eq!(run.rounds, 8);
        // Eight rounds, one workspace: the pool outlives each round.
        assert_eq!(created.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn adaptive_ws_truncation_matches_plain_adaptive() {
        let base = ReplicationPlan::new(1, 10, 99);
        let rule = StopRule::relative(1e-9, 10, 40);
        let task = |rep: Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(2));
            rng.uniform()
        };
        for exec in [Executor::serial(), Executor::parallel()] {
            let plain = exec.run_adaptive(&base, &rule, task, &MeanCollector, |_, _| None);
            let ws = exec.run_adaptive_ws(
                &base,
                &rule,
                || 0u64,
                |count: &mut u64, rep| {
                    *count += 1;
                    task(rep)
                },
                &MeanCollector,
                |_, _| None,
            );
            assert_eq!(ws.rounds, plain.rounds);
            assert_eq!(ws.output.to_bits(), plain.output.to_bits());
        }
    }

    #[test]
    fn adaptive_stops_when_rule_met() {
        // Constant outputs: the monitor reports a zero-width interval,
        // so the run stops at the first check past min_replications.
        let base = ReplicationPlan::new(1, 5, 3);
        let rule = StopRule::relative(0.05, 12, 100);
        let run = Executor::serial().run_adaptive(
            &base,
            &rule,
            |_| 1.0f64,
            &MeanCollector,
            |acc, n| {
                assert_eq!(u64::from(n), acc.n);
                Some(Precision {
                    estimate: acc.sum / acc.n as f64,
                    half_width: 0.0,
                })
            },
        );
        // min 12 → 3 rounds of 5 before the first check.
        assert_eq!(run.rounds, 3);
        assert_eq!(run.replications, 15);
        assert!(run.target_met);
        assert_eq!(run.precision.unwrap().half_width, 0.0);
        assert_eq!(run.plan.batches(), 3);
        assert!((run.output - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adaptive_respects_replication_cap() {
        let base = ReplicationPlan::new(1, 8, 3);
        // Cap below one round still executes exactly one round.
        let tiny = StopRule::relative(0.5, 1, 4);
        let run =
            Executor::serial().run_adaptive(&base, &tiny, |_| 1.0f64, &MeanCollector, |_, _| None);
        assert_eq!(run.rounds, 1);
        assert_eq!(run.replications, 8);
        // Cap of 3 rounds is never exceeded.
        let capped = StopRule::relative(1e-12, 1, 24);
        let run = Executor::serial().run_adaptive(
            &base,
            &capped,
            |_| 1.0f64,
            &MeanCollector,
            |_, _| {
                Some(Precision {
                    estimate: 0.0,
                    half_width: 1.0,
                })
            },
        );
        assert_eq!(run.rounds, 3);
        assert!(!run.target_met);
    }

    #[test]
    fn precision_relative_half_width() {
        let p = Precision {
            estimate: 2.0,
            half_width: 0.1,
        };
        assert!((p.relative_half_width() - 0.05).abs() < 1e-12);
        let zero = Precision {
            estimate: 0.0,
            half_width: 0.1,
        };
        assert_eq!(zero.relative_half_width(), f64::INFINITY);
        let tight = Precision {
            estimate: 0.0,
            half_width: 0.0,
        };
        assert_eq!(tight.relative_half_width(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty batch plan")]
    fn zero_batches_rejected() {
        let _ = ReplicationPlan::new(0, 5, 1);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflowing_plan_rejected() {
        let _ = ReplicationPlan::new(u32::MAX, 2, 1);
    }

    #[test]
    #[should_panic(expected = "0 < min <= max")]
    fn stop_rule_rejects_inverted_bounds() {
        let _ = StopRule::relative(0.05, 10, 5);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn stop_rule_rejects_zero_target() {
        let _ = StopRule::relative(0.0, 1, 10);
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        assert_eq!(ReplicationPlan::try_new(0, 5, 1), Err(PlanError::EmptyPlan));
        assert_eq!(ReplicationPlan::try_new(5, 0, 1), Err(PlanError::EmptyPlan));
        assert_eq!(
            ReplicationPlan::try_new(u32::MAX, 2, 1),
            Err(PlanError::ReplicationOverflow)
        );
        assert_eq!(ReplicationPlan::try_flat(0, 1), Err(PlanError::EmptyPlan));
        assert!(ReplicationPlan::try_new(4, 25, 9).is_ok());
        assert_eq!(
            StopRule::try_relative(f64::NAN, 1, 10).unwrap_err(),
            PlanError::NonPositiveTarget
        );
        assert_eq!(
            StopRule::try_relative(-0.1, 1, 10).unwrap_err(),
            PlanError::NonPositiveTarget
        );
        assert_eq!(
            StopRule::try_relative(0.05, 10, 5).unwrap_err(),
            PlanError::InvalidBounds
        );
        assert_eq!(
            StopRule::try_relative(0.05, 0, 0).unwrap_err(),
            PlanError::InvalidBounds
        );
        assert!(StopRule::try_relative(0.05, 1, 10).is_ok());
    }

    #[test]
    fn budgeted_run_isolates_panics_and_keeps_survivors() {
        crate::faults::silence_injected_panics();
        let plan = ReplicationPlan::new(4, 8, 11);
        let clean: Vec<u64> = Executor::serial().run(&plan, |rep| rep.seed % 1000);
        for exec in [Executor::serial(), Executor::parallel()] {
            let run = exec.run_ws_budgeted(
                &plan,
                || (),
                |(): &mut (), rep| {
                    if rep.index % 7 == 3 {
                        std::panic::panic_any(crate::faults::InjectedPanic { index: rep.index });
                    }
                    rep.seed % 1000
                },
                &VecCollector,
                &RunPolicy::new(),
            );
            assert_eq!(run.budget_outcome, BudgetOutcome::Completed);
            assert!(run.is_degraded());
            assert_eq!(run.attempted, 32);
            let expected_failures: Vec<u32> = (0..32).filter(|i| i % 7 == 3).collect();
            assert_eq!(
                run.failed.iter().map(|f| f.index).collect::<Vec<_>>(),
                expected_failures
            );
            for failure in &run.failed {
                assert_eq!(failure.seed, plan.seed_for(failure.index));
                assert_eq!(failure.attempts, 1);
                assert!(matches!(failure.cause, FailureCause::Panicked(_)));
            }
            assert_eq!(run.completed, 32 - run.failed.len() as u32);
            let survivors: Vec<u64> = clean
                .iter()
                .enumerate()
                .filter(|(i, _)| *i % 7 != 3)
                .map(|(_, v)| *v)
                .collect();
            assert_eq!(run.output, Some(survivors));
        }
    }

    #[test]
    fn validator_rejection_is_recorded_as_invalid_output() {
        let plan = ReplicationPlan::flat(10, 3);
        let run = Executor::serial().run_ws_checked(
            &plan,
            || (),
            |(): &mut (), rep| if rep.index == 4 { f64::NAN } else { 1.0 },
            &MeanCollector,
            &RunPolicy::new(),
            |value: &f64| value.is_finite(),
        );
        assert_eq!(run.completed, 9);
        assert_eq!(run.failed.len(), 1);
        assert_eq!(run.failed[0].index, 4);
        assert_eq!(run.failed[0].cause, FailureCause::InvalidOutput);
        assert_eq!(run.output, Some(1.0));
    }

    #[test]
    fn same_seed_retry_erases_transient_faults() {
        crate::faults::silence_injected_panics();
        let plan = ReplicationPlan::new(2, 10, 77);
        let task = |rep: Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(5));
            rng.uniform()
        };
        let clean: Vec<f64> = Executor::serial().run(&plan, task);
        let faults = crate::faults::FaultPlan::none(plan.total())
            .with_fault(2, crate::faults::FaultKind::Panic)
            .with_fault(13, crate::faults::FaultKind::Panic)
            .transient(1);
        for exec in [Executor::serial(), Executor::parallel()] {
            faults.reset();
            let policy = RunPolicy::new().with_retry(RetryPolicy::retries(2));
            let run = exec.run_ws_budgeted(
                &plan,
                || (),
                faults.wrap(|(): &mut (), rep| task(rep), |v| v),
                &VecCollector,
                &policy,
            );
            assert!(
                run.failed.is_empty(),
                "transient faults must be retried away"
            );
            assert_eq!(run.completed, plan.total());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(run.output.as_ref().unwrap()),
                bits(&clean),
                "same-seed retry must reproduce the original draw schedule"
            );
            assert!(!run.is_degraded());
        }
    }

    #[test]
    fn attempt_salt_reseeds_only_retries() {
        let retry = RetryPolicy::retries(3).with_reseed_salt(0xBEEF);
        assert_eq!(
            retry.seed_for_attempt(42, 0),
            42,
            "first attempt keeps the plan seed"
        );
        let second = retry.seed_for_attempt(42, 1);
        assert_ne!(second, 42);
        assert_eq!(second, derive_seed(42, StreamId(0xBEEF ^ 1)));
        assert_ne!(retry.seed_for_attempt(42, 2), second);
        // SameSeed never drifts.
        let same = RetryPolicy::retries(3);
        assert_eq!(same.seed_for_attempt(42, 2), 42);
    }

    #[test]
    fn replication_budget_truncates_to_whole_rounds_bit_identically() {
        let plan = ReplicationPlan::new(6, 5, 123);
        let task = |rep: Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(9));
            rng.uniform()
        };
        for exec in [Executor::serial(), Executor::parallel()] {
            // A 17-replication budget affords exactly 3 rounds of 5.
            let policy =
                RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(17));
            let run = exec.run_ws_budgeted(
                &plan,
                || (),
                |(): &mut (), rep| task(rep),
                &VecCollector,
                &policy,
            );
            assert_eq!(run.budget_outcome, BudgetOutcome::ReplicationBudget);
            assert_eq!(run.rounds, 3);
            assert_eq!(run.completed, 15);
            assert_eq!(run.plan.batches(), 3);
            assert!(run.is_degraded());
            let fixed: Vec<f64> = exec.run(&plan.with_batches(3), task);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(run.output.as_ref().unwrap()), bits(&fixed));
        }
    }

    #[test]
    fn budget_below_one_round_yields_empty_partial() {
        let plan = ReplicationPlan::new(4, 10, 0);
        let policy = RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(9));
        let run = Executor::serial().run_ws_budgeted(
            &plan,
            || (),
            |(): &mut (), rep| rep.index,
            &VecCollector,
            &policy,
        );
        assert_eq!(run.rounds, 0);
        assert_eq!(run.completed, 0);
        assert!(run.output.is_none());
        assert_eq!(run.budget_outcome, BudgetOutcome::ReplicationBudget);
    }

    #[test]
    fn cancellation_stops_at_the_next_round_boundary() {
        let plan = ReplicationPlan::new(10, 4, 5);
        let token = CancelToken::new();
        // Pre-cancelled: no round starts.
        token.cancel();
        let policy = RunPolicy::new().with_budget(Budget::unlimited().with_cancel(&token));
        let run = Executor::serial().run_ws_budgeted(
            &plan,
            || (),
            |(): &mut (), rep| rep.index,
            &VecCollector,
            &policy,
        );
        assert_eq!(run.rounds, 0);
        assert_eq!(run.budget_outcome, BudgetOutcome::Cancelled);
        // Cancelled from inside the second round: that round finishes,
        // then the run stops — 2 whole rounds, bit-identical.
        let token = CancelToken::new();
        let cancel_from_task = token.clone();
        let policy = RunPolicy::new().with_budget(Budget::unlimited().with_cancel(&token));
        let run = Executor::serial().run_ws_budgeted(
            &plan,
            || (),
            move |(): &mut (), rep| {
                if rep.index == 5 {
                    cancel_from_task.cancel();
                }
                rep.index
            },
            &VecCollector,
            &policy,
        );
        assert_eq!(run.budget_outcome, BudgetOutcome::Cancelled);
        assert_eq!(run.rounds, 2);
        assert_eq!(run.output, Some((0..8).collect::<Vec<_>>()));
    }

    #[test]
    fn deadline_expiry_returns_partial_results() {
        let plan = ReplicationPlan::new(50, 2, 7);
        let policy = RunPolicy::new()
            .with_budget(Budget::unlimited().with_deadline(Duration::from_micros(200)));
        let run = Executor::serial().run_ws_budgeted(
            &plan,
            || (),
            |(): &mut (), rep| {
                std::thread::sleep(Duration::from_micros(150));
                rep.index
            },
            &VecCollector,
            &policy,
        );
        assert_eq!(run.budget_outcome, BudgetOutcome::DeadlineExpired);
        assert!(run.rounds < 50, "deadline must truncate the run");
        // Whatever completed is the exact prefix.
        let n = run.completed;
        assert_eq!(run.output, Some((0..n).collect::<Vec<_>>()));
    }

    #[test]
    fn adaptive_budgeted_truncation_matches_fixed_plan() {
        let base = ReplicationPlan::new(1, 10, 99);
        let rule = StopRule::relative(1e-9, 10, 100);
        let task = |rep: Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(2));
            rng.uniform()
        };
        for exec in [Executor::serial(), Executor::parallel()] {
            let policy =
                RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(30));
            let run = exec.run_adaptive_ws_budgeted(
                &base,
                &rule,
                || (),
                |(): &mut (), rep| task(rep),
                &MeanCollector,
                |_, _| None,
                &policy,
            );
            assert_eq!(run.budget_outcome, BudgetOutcome::ReplicationBudget);
            assert_eq!(run.rounds, 3);
            let fixed = exec.collect(&base.with_batches(3), task, &MeanCollector);
            assert_eq!(run.output.unwrap().to_bits(), fixed.to_bits());
        }
    }

    #[test]
    fn adaptive_budgeted_outcomes_distinguish_rule_cap_and_target() {
        let base = ReplicationPlan::new(1, 5, 3);
        let task = |_: Replication| 1.0f64;
        // Precision met.
        let met = Executor::serial().run_adaptive_ws_budgeted(
            &base,
            &StopRule::relative(0.05, 5, 100),
            || (),
            |(): &mut (), rep| task(rep),
            &MeanCollector,
            |acc, _| {
                Some(Precision {
                    estimate: acc.sum / acc.n as f64,
                    half_width: 0.0,
                })
            },
            &RunPolicy::new(),
        );
        assert_eq!(met.budget_outcome, BudgetOutcome::PrecisionMet);
        assert!(!met.is_degraded());
        // Rule cap without meeting the target: honest, not degraded.
        let capped = Executor::serial().run_adaptive_ws_budgeted(
            &base,
            &StopRule::relative(1e-12, 5, 20),
            || (),
            |(): &mut (), rep| task(rep),
            &MeanCollector,
            |_, _| None,
            &RunPolicy::new(),
        );
        assert_eq!(capped.budget_outcome, BudgetOutcome::RuleCapped);
        assert_eq!(capped.rounds, 4);
        assert!(!capped.is_degraded());
    }

    #[test]
    fn total_failure_yields_no_output_but_full_failure_record() {
        crate::faults::silence_injected_panics();
        let plan = ReplicationPlan::flat(6, 1);
        let run = Executor::serial().run_ws_budgeted(
            &plan,
            || (),
            |(): &mut (), rep| -> u32 {
                std::panic::panic_any(crate::faults::InjectedPanic { index: rep.index })
            },
            &VecCollector,
            &RunPolicy::new(),
        );
        assert!(run.output.is_none());
        assert_eq!(run.completed, 0);
        assert_eq!(run.failed.len(), 6);
        assert_eq!(run.budget_outcome, BudgetOutcome::Completed);
    }

    #[test]
    #[should_panic(expected = "strict panic passes through")]
    fn strict_run_ws_still_propagates_panics() {
        let plan = ReplicationPlan::flat(4, 1);
        let _: Vec<u32> = Executor::serial().run_ws(
            &plan,
            || (),
            |(): &mut (), rep| {
                if rep.index == 2 {
                    panic!("strict panic passes through");
                }
                rep.index
            },
            &VecCollector,
        );
    }

    #[test]
    fn budget_stop_reason_orders_cancel_deadline_cap() {
        let token = CancelToken::new();
        let budget = Budget::unlimited()
            .with_max_replications(10)
            .with_deadline(Duration::from_secs(3600))
            .with_cancel(&token);
        let started = Instant::now();
        assert_eq!(budget.stop_reason(started, 10), None);
        assert_eq!(
            budget.stop_reason(started, 11),
            Some(BudgetOutcome::ReplicationBudget)
        );
        token.cancel();
        assert_eq!(
            budget.stop_reason(started, 5),
            Some(BudgetOutcome::Cancelled)
        );
        assert!(Budget::unlimited().is_unlimited());
        assert!(!budget.is_unlimited());
    }
}
