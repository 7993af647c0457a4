//! # diversify-des
//!
//! A deterministic simulation kernel: the calendar, random streams,
//! replication executor, rare-event splitting and fault harness that the
//! rest of the *Diversify!* (DSN 2013) reproduction builds on. The
//! stochastic activity network solver in `diversify-san` schedules its
//! activities on the [`Calendar`]; the attack-campaign engine in
//! `diversify-attack` draws from [`RngStream`]s and runs its
//! replications on the [`Executor`].
//!
//! ## Design
//!
//! * **Event calendar** — a binary-heap [`Calendar`] with *stable*
//!   tie-breaking: events scheduled for the same instant fire in insertion
//!   order, which keeps replications bit-for-bit reproducible.
//! * **Virtual time** — [`SimTime`], a newtype over `f64` seconds that is
//!   totally ordered and rejects NaN at construction.
//! * **Deterministic randomness** — [`RngStream`]s derived from a single
//!   master seed with SplitMix64 so independent model components draw from
//!   independent, reproducible streams.
//! * **Observation** — [`Welford`] and [`TimeWeighted`] accumulators plus a
//!   [`ReplicationRunner`] for independent-replication experiments.
//! * **Execution** — the [`exec`] layer: a [`ReplicationPlan`] describing
//!   seeds and batch structure, run by a serial or parallel [`Executor`]
//!   and folded by pluggable mergeable [`Collector`]s (streaming
//!   `empty`/`accumulate`/`merge`/`finish`, never a stored sample of
//!   every replication). [`Executor::run_adaptive`] executes batch-sized
//!   rounds until a [`StopRule`] precision target is met. Every
//!   replication loop in the workspace goes through this one seam.
//! * **Rare events** — the [`splitting`] module: fixed-effort multilevel
//!   splitting (RESTART) over the monotone levels of a [`StagedTask`],
//!   estimating a rare probability as a product of per-level
//!   conditionals with the executor's deterministic seed schedule and
//!   serial ≡ parallel bit-identity intact.
//! * **Fault tolerance** — every replication executes unwind-caught; the
//!   budgeted executor paths record failures ([`ReplicationFailure`]),
//!   retry them deterministically from their own seeds ([`RetryPolicy`]),
//!   bound work with a [`Budget`] (replication cap, wall-clock deadline,
//!   cooperative [`CancelToken`]) and degrade gracefully to a
//!   [`PartialRun`] over whatever completed — with surviving
//!   replications bit-identical to a fault-free run. The [`faults`]
//!   module provides the deterministic fault-injection harness that
//!   proves those guarantees.
//!
//! ## Example
//!
//! A small event-driven model — arrivals on the calendar at
//! exponential gaps — replicated on the executor. Each replication
//! draws from its own seed, so the serial and parallel runs agree.
//!
//! ```
//! use diversify_des::{Calendar, Executor, ReplicationPlan, RngStream, SimTime, StreamId};
//!
//! /// Arrivals within the first ten hours of one replication.
//! fn arrivals(seed: u64) -> u32 {
//!     let mut rng = RngStream::new(seed, StreamId(1));
//!     let horizon = SimTime::from_hours(10.0);
//!     let mut calendar = Calendar::new();
//!     calendar.push(SimTime::from_hours(rng.exponential(1.0)), ());
//!     let mut count = 0;
//!     while let Some((now, ())) = calendar.pop() {
//!         if now > horizon {
//!             break;
//!         }
//!         count += 1;
//!         calendar.push(now + SimTime::from_hours(rng.exponential(1.0)), ());
//!     }
//!     count
//! }
//!
//! let plan = ReplicationPlan::flat(32, 42);
//! let serial: Vec<u32> = Executor::serial().run(&plan, |rep| arrivals(rep.seed));
//! let parallel: Vec<u32> = Executor::parallel().run(&plan, |rep| arrivals(rep.seed));
//! assert_eq!(serial, parallel);
//! assert!(serial.iter().any(|&n| n > 0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod calendar;
pub mod exec;
pub mod faults;
pub mod observe;
pub mod replication;
pub mod rng;
pub mod splitting;
pub mod time;

pub use calendar::{Calendar, EventToken};
pub use exec::{
    AdaptiveRun, Budget, BudgetOutcome, CancelToken, Collector, ExecMode, Executor, FailureCause,
    PartialRun, PlanError, Precision, Replication, ReplicationFailure, ReplicationPlan, Reseed,
    RetryPolicy, RunPolicy, StopRule,
};
pub use faults::{FaultKind, FaultPlan, InjectedPanic};
pub use observe::{TimeWeighted, Welford};
pub use replication::{ReplicationRunner, ReplicationSummary};
pub use rng::{derive_seed, RngStream, StreamId};
pub use splitting::{
    LevelRun, LevelSummary, Splitting, SplittingRun, StagedTask, SPLITTING_STREAM_NAMESPACE,
};
pub use time::SimTime;
