//! Allocation-regression guard for the replication hot loops.
//!
//! A counting `#[global_allocator]` wraps the system allocator; each
//! test warms a workload up (first pass sizes every reusable buffer),
//! then re-runs the *same* seeds and asserts the allocation counter did
//! not move. Identical seeds produce identical trajectories, so any
//! steady-state allocation — a buffer that is reallocated instead of
//! reused, a collection that grows past its warm-up size — shows up as
//! a non-zero delta.
//!
//! The loops under guard are the ones the tentpole made allocation-free:
//! the campaign simulator driven through a reused
//! [`CampaignWorkspace`], and the incremental SAN engine driven through
//! a recycled [`SimState`].

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::{
    CampaignConfig, CampaignSimulator, CampaignWorkspace, ThreatModel,
};
use diversify::attack::to_san::compile_network_campaign;
use diversify::des::SimTime;
use diversify::san::{Engine, SimState, Simulator};
use diversify::scada::network::ScadaNetwork;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

/// Counts every allocation and reallocation routed through the global
/// allocator, per thread. Deallocations are not counted: the property
/// under test is "no new memory is requested", which `alloc`/`realloc`
/// alone witness.
struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread. Counting per thread keeps
    /// the test harness's own threads — which set up the next test while
    /// another test's window is open — out of every measurement. Every
    /// measured loop below runs on its test's thread (`Executor::serial()`
    /// included); a measured loop on another thread would need this
    /// target to run with `harness = false` and a process-wide count.
    /// The `const` initializer never allocates and registers no
    /// destructor, so the allocator can touch it at any time.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` only fails during thread teardown, after the last
    // measured window of that thread has closed.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the current thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn scope_network() -> ScadaNetwork {
    ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone()
}

/// The campaign hot loop: after one warm-up pass over the seed set, a
/// second pass over the same seeds through the same workspace must not
/// allocate at all.
#[test]
fn campaign_replications_are_allocation_free_after_warmup() {
    let net = scope_network();
    let seeds: Vec<u64> = (0..25).collect();
    for threat in [ThreatModel::stuxnet_like(), ThreatModel::duqu_like()] {
        let sim = CampaignSimulator::new(&net, threat, CampaignConfig::default());
        let mut ws = sim.workspace();
        for &seed in &seeds {
            black_box(sim.run_into(&mut ws, seed));
        }
        let before = allocations();
        for &seed in &seeds {
            black_box(sim.run_into(&mut ws, seed));
        }
        let delta = allocations() - before;
        assert_eq!(
            delta,
            0,
            "campaign loop allocated {delta} times across {} warm replications",
            seeds.len()
        );
    }
}

/// A fresh (default-constructed) workspace reaches the allocation-free
/// steady state too — sizing is part of warm-up, not of the loop.
#[test]
fn lazily_sized_workspace_stops_allocating_once_warm() {
    let net = scope_network();
    let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
    let mut ws = CampaignWorkspace::new();
    for seed in 0..10u64 {
        black_box(sim.run_into(&mut ws, seed));
    }
    let before = allocations();
    for seed in 0..10u64 {
        black_box(sim.run_into(&mut ws, seed));
    }
    assert_eq!(allocations() - before, 0);
}

/// The frontier engine at fleet scale: on a generated 10^4-node plant
/// family, replications through a warm workspace stay allocation-free —
/// the sparse reset and the hierarchical-bitset frontier never touch
/// the allocator once sized.
#[test]
fn fleet_scale_campaign_is_allocation_free_after_warmup() {
    use diversify::scada::fleet::{FleetConfig, FleetSystem};
    let fleet = FleetSystem::build(&FleetConfig::sized(10_000, 0xA110C));
    let sim = CampaignSimulator::new(
        fleet.network(),
        ThreatModel::stuxnet_like(),
        CampaignConfig::default(),
    );
    let mut ws = sim.workspace();
    let seeds: Vec<u64> = (0..5).collect();
    for &seed in &seeds {
        black_box(sim.run_into(&mut ws, seed));
    }
    let before = allocations();
    for &seed in &seeds {
        black_box(sim.run_into(&mut ws, seed));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "fleet-scale campaign loop allocated {delta} times after warm-up"
    );
}

/// The incremental SAN engine on the mid-size SCoPE network-campaign
/// model: recycling one `SimState` across replications, the second pass
/// over the same seeds performs zero allocations — calendar slots,
/// schedule, weight tables and dependency scratch are all reused.
#[test]
fn san_incremental_engine_is_allocation_free_after_warmup() {
    let net = scope_network();
    let san = compile_network_campaign(&net, &ThreatModel::stuxnet_like())
        .expect("SCoPE network compiles");
    let horizon = SimTime::from_secs(2_000.0);
    let seeds: Vec<u64> = (1..=10).collect();
    let mut state = SimState::new(&san.model);
    let run_pass = |mut state: SimState, seeds: &[u64]| -> (SimState, u64) {
        let mut events = 0u64;
        for &seed in seeds {
            let mut sim = Simulator::with_state(&san.model, seed, Engine::Incremental, state);
            sim.run_until(horizon);
            events += sim.firings();
            state = sim.into_state();
        }
        (state, events)
    };
    let warm;
    (state, warm) = run_pass(state, &seeds);
    let before = allocations();
    let (_state, again) = run_pass(state, &seeds);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "incremental SAN engine allocated {delta} times across {warm}-event warm passes"
    );
    assert_eq!(warm, again, "identical seeds must replay identically");
}

/// The hardened executor path (panic isolation + budget checks wrapped
/// around every replication) keeps the steady state allocation-free:
/// failure-path allocations (boxed error records, panic payloads) only
/// happen when a replication actually fails, so a fault-free serial run
/// through a warm workspace must not allocate per replication.
#[test]
fn hardened_executor_path_is_allocation_free_per_replication() {
    use diversify::des::exec::{Executor, MeanCollector, ReplicationPlan, RunPolicy};
    let net = scope_network();
    let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
    let policy = RunPolicy::new();
    let run = |reps: u32| -> u64 {
        let plan = ReplicationPlan::new(reps, 10, 0x2EE0);
        let before = allocations();
        let part = Executor::serial().run_ws_budgeted(
            &plan,
            || sim.workspace(),
            |ws, rep| {
                let stats = sim.run_into(ws, rep.seed);
                stats.final_compromised_ratio
            },
            &MeanCollector,
            &policy,
        );
        assert!(!part.is_degraded());
        black_box(part);
        allocations() - before
    };
    // Warm-up sizes the workspace pool and any lazy runtime state.
    let _ = run(2);
    let small = run(4);
    let large = run(8);
    // Per-round overhead must be zero: doubling the rounds (and thus
    // the budget checks and catch_unwind frames) adds no allocations
    // beyond the fixed setup (pool + accumulator + failure Vec).
    assert!(
        large <= small + 4,
        "hardened executor allocates per replication: {small} at 4 rounds, {large} at 8"
    );
}

/// The Monte-Carlo transient solver reuses its simulator state and
/// observers: doubling the replication count must not change the
/// *per-replication* allocation count — i.e. all allocation is setup.
#[test]
fn transient_solver_allocations_do_not_scale_with_replications() {
    use diversify::san::{RewardSpec, TransientSolver};
    let net = scope_network();
    let san = compile_network_campaign(&net, &ThreatModel::stuxnet_like())
        .expect("SCoPE network compiles");
    let impaired = san.impaired;
    let needed = san.goal_tokens;
    let rewards = [RewardSpec::first_passage("tta", move |m| {
        m.tokens(impaired) >= needed
    })];
    let horizon = SimTime::from_secs(500.0);
    let count_for = |reps: u32| -> u64 {
        let before = allocations();
        black_box(TransientSolver::new(horizon, reps, 7).solve(&san.model, &rewards));
        allocations() - before
    };
    // Warm-up: fault in lazily initialized runtime structures.
    let _ = count_for(5);
    let small = count_for(40);
    let large = count_for(80);
    assert!(
        large <= small + 8,
        "solver allocations scale with replications: {small} at 40 reps, {large} at 80"
    );
}
