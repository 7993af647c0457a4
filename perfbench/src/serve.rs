//! The indicator-service workloads: `serve_cold` and `serve_mixed`.
//!
//! Clients send [`IndicatorRequest`]s to an in-process
//! [`IndicatorService`] with two workers, each client in a closed loop.
//! After the timed window every response is checked: its measurements
//! bit for bit against a serial local run of the same plan, and its
//! `new_replications` against the memo states the service can have been
//! in when the request arrived.
//!
//! The traced run replays each request's constituent calls on the same
//! inputs after the timed window, attributing them to the request by
//! span parent: the content keys, per shard lease the plant build,
//! simulator construction, shard plan and wire frames, the merge, and a
//! sweep of the request's shards on a coordinator the benchmark owns.

use crate::check::digest;
use crate::inputs::{design_scopes, Rng, SeedFamily};
use crate::layers::{run_plan, side_measurements, traced_report};
use crate::quiet::{timed_setups, StealSampler};
use crate::report::{EndToEnd, RunOutput, Timed};
use crate::stats::median;
use crate::trace::{Tracer, OP};
use crate::Args;
use diversify_attack::campaign::{CampaignConfig, CampaignSimulator, CampaignStats, ThreatModel};
use diversify_core::exec::{
    campaign_plan, BatchRecord, Collector, Executor, Replication, ReplicationPlan,
    CAMPAIGN_STREAM_NAMESPACE,
};
use diversify_core::indicators::IndicatorAccum;
use diversify_scada::scope::{ScopeConfig, ScopeSystem};
use diversify_serve::channel::{loopback_pair, Channel, LoopbackChannel};
use diversify_serve::coordinator::{merge_batches, Coordinator, ShardState, SweepOptions};
use diversify_serve::protocol::{
    BatchSnapshot, BudgetSpec, FromWorker, OutcomeCode, PlanSpec, ShardOutcome, ShardSpec, ToWorker,
};
use diversify_serve::service::{IndicatorRequest, IndicatorResponse, IndicatorService};
use diversify_serve::wire::{decode_message, encode_message};
use diversify_serve::worker::{run_worker, WorkerOptions};
use diversify_serve::ServiceOptions;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// In-process workers behind the service (and behind the benchmark's
/// own coordinator in the traced run).
pub const WORKERS: usize = 2;

/// Batch depths a `serve_mixed` hit asks for, up to what its cell holds.
pub const DEPTHS: [u32; 3] = [4, 8, 16];

/// Depth of a `serve_mixed` miss; a top-up extends a missed cell to
/// [`TOP_UP_DEPTH`]. Both compute 8 batches, so every computing request
/// leases the same number of shards and the slow class has one shape.
pub const MISS_DEPTH: u32 = 8;

/// Depth a `serve_mixed` top-up extends a cell to.
pub const TOP_UP_DEPTH: u32 = 16;

/// The plants and threats a workload draws its cells from.
pub struct Catalogue {
    scopes: Vec<ScopeConfig>,
    threats: Vec<ThreatModel>,
    campaign: CampaignConfig,
    /// Campaigns per batch.
    pub batch_size: u32,
}

impl Catalogue {
    /// `serve_cold`: the default SCoPE plant under `stuxnet_like`, one
    /// year, 5 campaigns per batch.
    pub fn cold() -> Self {
        Catalogue {
            scopes: vec![ScopeConfig::default()],
            threats: vec![ThreatModel::stuxnet_like()],
            campaign: CampaignConfig::default(),
            batch_size: 5,
        }
    }

    /// `serve_mixed`: the 16 profiles of the pipeline's 2^(6-2) design
    /// under the three catalogue threats, one year, 25 campaigns per
    /// batch.
    pub fn mixed() -> Self {
        let scopes = design_scopes(&ScopeConfig::default());
        Catalogue {
            scopes,
            threats: vec![
                ThreatModel::stuxnet_like(),
                ThreatModel::duqu_like(),
                ThreatModel::flame_like(),
            ],
            campaign: CampaignConfig::default(),
            batch_size: 25,
        }
    }

    /// Number of (plant, threat) slots.
    pub fn slots(&self) -> usize {
        self.scopes.len() * self.threats.len()
    }

    /// The request an item stands for.
    pub fn request(&self, item: &Item) -> IndicatorRequest {
        IndicatorRequest::fixed(
            self.scopes[item.cell.scope].clone(),
            self.threats[item.cell.threat].clone(),
            self.campaign,
            item.depth,
            self.batch_size,
            item.cell.seed,
        )
    }

    /// The shard leases the service deals for batches `[from, to)` of a
    /// cell (one batch per lease, the default `batches_per_shard`).
    fn shard_specs(&self, cell: Cell, from: u32, to: u32) -> Vec<ShardSpec> {
        (from..to)
            .map(|batch| ShardSpec {
                cell: 0,
                shard: batch,
                scope: self.scopes[cell.scope].clone(),
                threat: self.threats[cell.threat].clone(),
                campaign: self.campaign,
                plan: PlanSpec {
                    batches: 1,
                    batch_size: self.batch_size,
                    master_seed: cell.seed,
                    namespace: CAMPAIGN_STREAM_NAMESPACE,
                    first_batch: batch,
                },
                budget: BudgetSpec::default(),
            })
            .collect()
    }
}

/// A memo cell: one plant, one threat, one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Index into the catalogue's plants.
    pub scope: usize,
    /// Index into the catalogue's threats.
    pub threat: usize,
    /// Master seed.
    pub seed: u64,
}

/// How a request is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Entirely from the memo store.
    Hit,
    /// Memoized batches plus a run of only the missing ones.
    TopUp,
    /// Every batch computed.
    Miss,
    /// Waited on an identical request in flight.
    Coalesced,
}

/// One generated request: a cell, a depth, and the class the generator
/// intends it to be served as (`Coalesced` marks a back-to-back
/// duplicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// The cell.
    pub cell: Cell,
    /// Batches asked for.
    pub depth: u32,
    /// Intended class.
    pub class: Class,
}

/// A request generator.
pub trait Stream: Send {
    /// The next request.
    fn next_item(&mut self) -> Item;
}

/// `serve_cold`: never-repeated 4-batch requests on fresh seeds.
pub struct ColdStream {
    seeds: SeedFamily,
    next: u64,
}

impl ColdStream {
    /// The stream of one workload seed.
    pub fn new(seed: u64) -> Self {
        ColdStream {
            seeds: SeedFamily::new(seed, 0xC01D),
            next: 0,
        }
    }
}

impl Stream for ColdStream {
    fn next_item(&mut self) -> Item {
        let seed = self.seeds.seed(self.next);
        self.next += 1;
        Item {
            cell: Cell {
                scope: 0,
                threat: 0,
                seed,
            },
            depth: 4,
            class: Class::Miss,
        }
    }
}

/// One draw of the mixed stream; a `Pair` is a miss sent twice back to
/// back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    Hit,
    TopUp,
    Miss,
    Pair,
}

/// Draws per block of the mixed stream: 38 hits, 4 top-ups, 3 + 1
/// misses and 1 duplicate in every 47 requests. A computing request
/// mostly waits out the other client's sweep before its own, so the
/// computing class sits on one plateau of two sweeps, below which lie
/// the duplicates and the requests that found the coordinator free; p90
/// falls near the middle of that plateau. Each client's first hit after
/// its own computing request runs on a cold cache; p50 falls among the
/// warm hits.
const MIX_BLOCK: [(Draw, usize); 4] = [
    (Draw::Hit, 38),
    (Draw::TopUp, 4),
    (Draw::Miss, 3),
    (Draw::Pair, 1),
];

/// One block's draws spread evenly: at each step the draw furthest
/// behind its share comes next. Any stretch of the stream then holds
/// each class within one request of its share, so the slow requests
/// a timed window sees hardly vary from seed to seed.
fn spread_block() -> Vec<Draw> {
    let total: usize = MIX_BLOCK.iter().map(|&(_, n)| n).sum();
    let mut used = [0usize; MIX_BLOCK.len()];
    (0..total)
        .map(|t| {
            let behind =
                |i: usize| (MIX_BLOCK[i].1 * (t + 1)) as f64 / total as f64 - used[i] as f64;
            let k = (0..MIX_BLOCK.len())
                .max_by(|&a, &b| behind(a).total_cmp(&behind(b)).then(b.cmp(&a)))
                .expect("non-empty block");
            used[k] += 1;
            MIX_BLOCK[k].0
        })
        .collect()
}

/// A hit or top-up only targets a cell banked at least this many
/// requests earlier, so the request that banked it has almost surely
/// returned even when a client runs ahead on fast hits.
const MATURITY: u64 = 12;

#[derive(Debug, Clone, Copy)]
struct Slot {
    seed: u64,
    banked: u32,
    at: u64,
}

/// `serve_mixed`: hits, top-ups, fresh misses and back-to-back
/// duplicates over the catalogue's cells, one seed per cell at a time.
/// A miss moves its slot to a fresh seed, which keeps the class mix
/// steady as the memo fills.
pub struct MixedStream {
    rng: Rng,
    seeds: SeedFamily,
    fresh: u64,
    slots: Vec<Slot>,
    block: Vec<Draw>,
    pos: usize,
    pending: Option<Item>,
    produced: u64,
    threats: usize,
}

impl MixedStream {
    /// The stream of one workload seed over `catalogue`.
    pub fn new(seed: u64, catalogue: &Catalogue) -> Self {
        let seeds = SeedFamily::new(seed, 0x31_2ED);
        let slots = (0..catalogue.slots())
            .map(|_| Slot {
                seed: 0,
                banked: 0,
                at: 0,
            })
            .collect();
        MixedStream {
            rng: Rng::new(seed, 0x31_2ED),
            seeds,
            fresh: 0,
            slots,
            block: spread_block(),
            pos: 0,
            pending: None,
            produced: 0,
            threats: catalogue.threats.len(),
        }
    }

    fn cell(&self, slot: usize) -> Cell {
        Cell {
            scope: slot / self.threats,
            threat: slot % self.threats,
            seed: self.slots[slot].seed,
        }
    }

    fn mature(&self, slot: &Slot) -> bool {
        slot.banked > 0 && self.produced >= slot.at + MATURITY
    }

    fn pick(&mut self, eligible: impl Fn(&Slot) -> bool) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.mature(&self.slots[i]) && eligible(&self.slots[i]))
            .collect();
        (!candidates.is_empty()).then(|| candidates[self.rng.below(candidates.len())])
    }

    fn hit(&mut self) -> Option<Item> {
        let slot = self.pick(|_| true)?;
        let banked = self.slots[slot].banked;
        let depths: Vec<u32> = DEPTHS.into_iter().filter(|&d| d <= banked).collect();
        let depth = depths[self.rng.below(depths.len())];
        Some(Item {
            cell: self.cell(slot),
            depth,
            class: Class::Hit,
        })
    }

    fn top_up(&mut self) -> Option<Item> {
        let slot = self.pick(|s| s.banked == MISS_DEPTH)?;
        let depth = TOP_UP_DEPTH;
        self.slots[slot].banked = depth;
        self.slots[slot].at = self.produced;
        Some(Item {
            cell: self.cell(slot),
            depth,
            class: Class::TopUp,
        })
    }

    fn miss(&mut self) -> Item {
        let depth = MISS_DEPTH;
        let slot = self.rng.below(self.slots.len());
        self.slots[slot] = Slot {
            seed: self.seeds.seed(self.fresh),
            banked: depth,
            at: self.produced,
        };
        self.fresh += 1;
        Item {
            cell: self.cell(slot),
            depth,
            class: Class::Miss,
        }
    }
}

impl Stream for MixedStream {
    fn next_item(&mut self) -> Item {
        if let Some(duplicate) = self.pending.take() {
            self.produced += 1;
            return duplicate;
        }
        if self.pos % self.block.len() == 0 {
            // Each block starts the evenly spread pattern at a seeded
            // offset.
            let offset = self.rng.below(self.block.len());
            self.block.rotate_left(offset);
        }
        let draw = self.block[self.pos % self.block.len()];
        self.pos += 1;
        let item = match draw {
            Draw::Hit => self.hit().unwrap_or_else(|| self.miss()),
            Draw::TopUp => self.top_up().unwrap_or_else(|| self.miss()),
            Draw::Miss => self.miss(),
            Draw::Pair => {
                let leader = self.miss();
                self.pending = Some(Item {
                    class: Class::Coalesced,
                    ..leader
                });
                leader
            }
        };
        self.produced += 1;
        item
    }
}

/// One timed request and what came back.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The request.
    pub item: Item,
    /// Call time.
    pub start: Instant,
    /// Return time.
    pub end: Instant,
    /// `new_replications` of the response.
    pub new_replications: u32,
    /// Digest of the response's measurements.
    pub digest: Option<u64>,
    /// Why the response is unusable (degraded, cancelled, …), if it is.
    pub refused: Option<String>,
    /// Shard leases in the response's health table.
    pub shards: u32,
    /// Failed lease attempts in the response's health table.
    pub attempts: u32,
}

impl OpRecord {
    fn of(item: Item, start: Instant, end: Instant, response: IndicatorResponse) -> Self {
        let refused = if response.degraded {
            Some("degraded")
        } else if response.cancelled {
            Some("cancelled")
        } else if response.deadline_expired {
            Some("deadline expired")
        } else if !response.target_met {
            Some("target not met")
        } else if response.measurements.is_none() {
            Some("no measurements")
        } else {
            None
        };
        OpRecord {
            item,
            start,
            end,
            new_replications: response.new_replications,
            digest: response.measurements.as_ref().map(digest),
            refused: refused.map(str::to_string),
            shards: response.health.len() as u32,
            attempts: response.health.iter().map(|h| h.attempts).sum(),
        }
    }

    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Runs `clients` closed-loop clients against `service`, drawing
/// requests from one shared stream until `until` has passed.
fn drive(
    service: &IndicatorService,
    catalogue: &Catalogue,
    stream: &Mutex<Box<dyn Stream>>,
    clients: usize,
    until: Duration,
) -> Vec<OpRecord> {
    let t0 = Instant::now();
    let records = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while t0.elapsed() < until {
                    let item = stream.lock().expect("stream lock").next_item();
                    let request = catalogue.request(&item);
                    let start = Instant::now();
                    let response = service.request(&request);
                    let end = Instant::now();
                    mine.push(OpRecord::of(item, start, end, response));
                }
                records.lock().expect("records lock").extend(mine);
            });
        }
    });
    let mut records = records.into_inner().expect("records lock");
    records.sort_by_key(|r| r.start);
    records
}

/// The observed class of each request and whether it passed its checks.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// How the service served it.
    pub class: Class,
    /// The failed check, if any.
    pub problem: Option<String>,
}

/// Checks every request after the run.
///
/// Measurements must match the serial reference for `(cell, depth)` bit
/// for bit. `new_replications` must equal `(depth − m) × batch_size`
/// (0 when `m ≥ depth`) for a memo depth `m` the cell can have had when
/// the request arrived: the deepest clean request on the cell that
/// returned before this one was sent, or the depth of a same-cell
/// request that overlapped it. A request that overlapped an identical
/// one may instead report that request's count (coalescing). With no
/// overlap this is exact: a hit reports 0 and a top-up exactly the
/// missing batches.
pub fn verify(
    records: &[OpRecord],
    batch_size: u32,
    references: &HashMap<(Cell, u32), u64>,
) -> Vec<Verdict> {
    let mut by_cell: HashMap<Cell, Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        by_cell.entry(r.item.cell).or_default().push(i);
    }
    records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let depth = r.item.depth;
            let same = &by_cell[&r.item.cell];
            let mut memo = 0;
            let mut overlapping = Vec::new();
            for &j in same.iter().filter(|&&j| j != i) {
                let o = &records[j];
                if o.end <= r.start {
                    if o.refused.is_none() {
                        memo = memo.max(o.item.depth);
                    }
                } else if o.start < r.end {
                    overlapping.push(j);
                }
            }
            let missing = |m: u32| depth.saturating_sub(m) * batch_size;
            let mut allowed = vec![missing(memo)];
            allowed.extend(
                overlapping
                    .iter()
                    .filter(|&&j| records[j].item.depth > memo)
                    .map(|&j| missing(records[j].item.depth)),
            );
            let twins: Vec<usize> = overlapping
                .iter()
                .copied()
                .filter(|&j| records[j].item.depth == depth)
                .collect();
            allowed.extend(twins.iter().map(|&j| records[j].new_replications));

            let n = r.new_replications;
            let coalesced = n > 0
                && twins.iter().any(|&j| {
                    records[j].new_replications == n && (records[j].start, j) < (r.start, i)
                });
            let class = if n == 0 {
                Class::Hit
            } else if coalesced {
                Class::Coalesced
            } else if n == depth * batch_size {
                Class::Miss
            } else {
                Class::TopUp
            };

            let what = || format!("request {i} ({:?}, depth {depth})", r.item.cell);
            let problem = if let Some(why) = &r.refused {
                Some(format!("{}: {why}", what()))
            } else if !allowed.contains(&n) {
                Some(format!(
                    "{}: new_replications {n}, expected one of {allowed:?}",
                    what()
                ))
            } else {
                crate::check::against(
                    r.digest,
                    references.get(&(r.item.cell, depth)).copied(),
                    what(),
                )
            };
            Verdict { class, problem }
        })
        .collect()
}

/// Per-(plant, threat) plants and simulators for local reference runs.
struct Plants<'c> {
    catalogue: &'c Catalogue,
    systems: Vec<ScopeSystem>,
}

impl<'c> Plants<'c> {
    fn new(catalogue: &'c Catalogue) -> Self {
        Plants {
            catalogue,
            systems: catalogue.scopes.iter().map(ScopeSystem::build).collect(),
        }
    }

    fn simulator(&self, cell: Cell) -> CampaignSimulator<'_> {
        CampaignSimulator::new(
            self.systems[cell.scope].network(),
            self.catalogue.threats[cell.threat].clone(),
            self.catalogue.campaign,
        )
    }

    /// Digest of a serial local run of `depth` batches of `cell`.
    fn reference(&self, cell: Cell, depth: u32) -> u64 {
        let sim = self.simulator(cell);
        let plan = campaign_plan(depth, self.catalogue.batch_size, cell.seed);
        digest(&run_plan(&sim, &plan, Executor::serial()))
    }

    /// Per-batch snapshots of a serial local run of `depth` batches: the
    /// values a worker reports for each batch.
    fn snapshots(&self, cell: Cell, depth: u32) -> Vec<BatchSnapshot> {
        let sim = self.simulator(cell);
        Executor::serial().run_ws(
            &campaign_plan(depth, self.catalogue.batch_size, cell.seed),
            || sim.workspace(),
            |ws, rep| sim.run_into(ws, rep.seed),
            &SnapshotCollector,
        )
    }
}

/// Folds a serial run into per-batch snapshots, the way a worker does.
struct SnapshotCollector;

impl Collector<CampaignStats> for SnapshotCollector {
    type Accum = Vec<(BatchRecord, IndicatorAccum)>;
    type Output = Vec<BatchSnapshot>;

    fn empty(&self) -> Self::Accum {
        Vec::new()
    }

    fn accumulate(
        &self,
        plan: &ReplicationPlan,
        acc: &mut Self::Accum,
        rep: Replication,
        stats: CampaignStats,
    ) {
        let batch = plan.first_batch() + plan.batch_of(rep.index);
        if acc.last().map(|(r, _)| r.batch) != Some(batch) {
            acc.push((
                BatchRecord {
                    batch,
                    count: 0,
                    successes: 0,
                    compromised_sum: 0.0,
                },
                IndicatorAccum::new(),
            ));
        }
        let (record, indicators) = acc.last_mut().expect("pushed above");
        record.count += 1;
        record.successes += u32::from(stats.succeeded());
        record.compromised_sum += stats.final_compromised_ratio;
        indicators.push_stats(&stats);
    }

    fn merge(&self, into: &mut Self::Accum, other: Self::Accum) {
        into.extend(other);
    }

    fn finish(&self, _plan: &ReplicationPlan, acc: Self::Accum) -> Vec<BatchSnapshot> {
        acc.into_iter()
            .map(|(record, indicators)| BatchSnapshot {
                record,
                indicators: indicators.snapshot(),
            })
            .collect()
    }
}

/// A coordinator with its own in-process workers, for replaying sweeps.
struct OwnCoordinator {
    coordinator: Coordinator,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl OwnCoordinator {
    fn new(n: usize) -> Self {
        let mut channels: Vec<Box<dyn Channel>> = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for _ in 0..n {
            let (near, far) = loopback_pair();
            workers.push(std::thread::spawn(move || {
                run_worker(far, &WorkerOptions::default());
            }));
            channels.push(Box::new(near));
        }
        OwnCoordinator {
            coordinator: Coordinator::new(channels, SweepOptions::default()),
            workers,
        }
    }
}

impl Drop for OwnCoordinator {
    fn drop(&mut self) {
        self.coordinator.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A loopback link whose far end echoes every frame back.
struct Echo {
    near: Option<LoopbackChannel>,
    far: Option<std::thread::JoinHandle<()>>,
}

impl Echo {
    fn new() -> Self {
        let (near, mut far) = loopback_pair();
        let handle = std::thread::spawn(move || loop {
            match far.recv_timeout(Duration::from_secs(1)) {
                Ok(Some(frame)) => {
                    if far.send(&frame).is_err() {
                        break;
                    }
                }
                Ok(None) => {}
                Err(_) => break,
            }
        });
        Echo {
            near: Some(near),
            far: Some(handle),
        }
    }

    /// One round trip of `frame`.
    fn round_trip(&mut self, frame: &[u8]) -> (Instant, Instant) {
        let near = self.near.as_mut().expect("open until drop");
        let start = Instant::now();
        near.send(frame).expect("echo link open");
        while near
            .recv_timeout(Duration::from_secs(1))
            .expect("echo link open")
            .is_none()
        {}
        (start, Instant::now())
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // Closing the near end stops the echo thread.
        self.near.take();
        if let Some(handle) = self.far.take() {
            let _ = handle.join();
        }
    }
}

/// Per-shard figures the traced replay gathers besides spans.
#[derive(Debug, Default)]
struct ShardFigures {
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    bytes: Vec<f64>,
    rep_us: Vec<f64>,
}

/// The on-path calls of one replayed shard lease.
struct ShardReplay {
    calls: Vec<(&'static str, Instant, Instant)>,
}

impl ShardReplay {
    fn cost(&self) -> Duration {
        self.calls
            .iter()
            .map(|(_, s, e)| e.duration_since(*s))
            .sum()
    }
}

fn us(start: Instant, end: Instant) -> f64 {
    end.duration_since(start).as_secs_f64() * 1e6
}

/// Replays requests' constituent calls into spans.
struct Replayer<'c> {
    catalogue: &'c Catalogue,
    coordinator: OwnCoordinator,
    echo: Echo,
    snapshots: HashMap<Cell, Vec<BatchSnapshot>>,
    figures: ShardFigures,
    memo_overhead_us: Vec<f64>,
    idle_ms: Vec<f64>,
    replayed_reps: u64,
}

impl<'c> Replayer<'c> {
    fn new(catalogue: &'c Catalogue, records: &[OpRecord]) -> Self {
        let plants = Plants::new(catalogue);
        let mut deepest: HashMap<Cell, u32> = HashMap::new();
        for r in records {
            let d = deepest.entry(r.item.cell).or_insert(0);
            *d = (*d).max(r.item.depth);
        }
        let snapshots = deepest
            .into_iter()
            .map(|(cell, depth)| (cell, plants.snapshots(cell, depth)))
            .collect();
        Replayer {
            catalogue,
            coordinator: OwnCoordinator::new(WORKERS),
            echo: Echo::new(),
            snapshots,
            figures: ShardFigures::default(),
            memo_overhead_us: Vec::new(),
            idle_ms: Vec::new(),
            replayed_reps: 0,
        }
    }

    /// Replays one lease of `cell`'s batches; side measurements go
    /// straight to the tracer.
    fn shard(&mut self, tracer: &mut Tracer, op: u32, cell: Cell, spec: &ShardSpec) -> ShardReplay {
        let mut calls = Vec::new();
        let t = Instant::now();
        let system = ScopeSystem::build(&spec.scope);
        let t1 = Instant::now();
        calls.push(("scada.build", t, t1));
        let sim = CampaignSimulator::new(system.network(), spec.threat.clone(), spec.campaign);
        let t2 = Instant::now();
        calls.push(("attack.sim_new", t1, t2));
        let plan = spec.plan.to_plan().expect("valid shard plan");
        black_box(run_plan(&sim, &plan, Executor::default()));
        let t3 = Instant::now();
        calls.push(("des.exec", t2, t3));
        self.replayed_reps += u64::from(plan.total());
        let rep_us = side_measurements(tracer, op, &sim, &plan, Executor::serial());
        self.figures.rep_us.push(rep_us);

        // The lease's frames: Run out, Done back.
        let batch = spec.plan.first_batch;
        let snap = self.snapshots[&cell][batch as usize];
        let outcome = ShardOutcome {
            shard: spec.shard,
            rounds: 1,
            attempted: spec.plan.batch_size,
            completed: spec.plan.batch_size,
            outcome: OutcomeCode::Completed,
            batches: vec![snap],
            failures: Vec::new(),
        };
        let e0 = Instant::now();
        let run = encode_message(&ToWorker::Run { spec: spec.clone() });
        let e1 = Instant::now();
        black_box(decode_message::<ToWorker>(&run).expect("round trip"));
        let e2 = Instant::now();
        let done = encode_message(&FromWorker::Done { outcome });
        let e3 = Instant::now();
        black_box(decode_message::<FromWorker>(&done).expect("round trip"));
        let e4 = Instant::now();
        calls.push(("serve.wire_encode", e0, e1));
        calls.push(("serve.wire_decode", e1, e2));
        calls.push(("serve.wire_encode", e2, e3));
        calls.push(("serve.wire_decode", e3, e4));
        self.figures.encode_us.push(us(e0, e1) + us(e2, e3));
        self.figures.decode_us.push(us(e1, e2) + us(e3, e4));
        self.figures.bytes.push((run.len() + done.len()) as f64);
        let (s, e) = self.echo.round_trip(&done);
        calls.push(("serve.loopback_rtt", s, e));
        ShardReplay { calls }
    }

    /// Replays one request. Returns a problem if the replayed sweep or
    /// merge disagrees with the local reference.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        op: u32,
        record: &OpRecord,
        verdict: &Verdict,
        reference: Option<u64>,
    ) -> Option<String> {
        let item = record.item;
        let root = tracer.record(OP, op, None, record.start, record.end);
        let request = self.catalogue.request(&item);
        let mut path_ms = 0.0;
        let (_, key) = tracer.time("core.content_key", op, Some(root), || {
            black_box((request.request_key(), request.cell_key()))
        });
        path_ms += tracer.ms(key);
        if verdict.class == Class::Coalesced {
            self.idle_ms.push(record.latency_ms() - path_ms);
            self.memo_overhead_us.push(record.latency_ms() * 1e3);
            return None;
        }

        let mut problem = None;
        let fresh = record.new_replications / self.catalogue.batch_size;
        let mut sweep_ms = 0.0;
        if fresh > 0 {
            let specs = self
                .catalogue
                .shard_specs(item.cell, item.depth - fresh, item.depth);
            // Leases go out to the two workers a pair at a time; the
            // slower lease of each pair is on the blocking path.
            for pair in specs.chunks(WORKERS) {
                let replays: Vec<ShardReplay> = pair
                    .iter()
                    .map(|s| self.shard(tracer, op, item.cell, s))
                    .collect();
                let slowest = (0..replays.len())
                    .max_by_key(|&k| replays[k].cost())
                    .expect("non-empty pair");
                for (k, replay) in replays.iter().enumerate() {
                    let parent = (k == slowest).then_some(root);
                    for &(name, s, e) in &replay.calls {
                        tracer.record(name, op, parent, s, e);
                    }
                }
                path_ms += replays[slowest].cost().as_secs_f64() * 1e3;
            }
            let (report, sweep) = tracer.time("serve.sweep", op, None, || {
                self.coordinator.coordinator.run_sweep(specs.clone())
            });
            sweep_ms = tracer.ms(sweep);
            let expected =
                &self.snapshots[&item.cell][(item.depth - fresh) as usize..item.depth as usize];
            if report
                .health
                .iter()
                .any(|h| h.state != ShardState::Completed)
                || report.cell_batches(0) != expected
            {
                problem = Some(format!("replayed sweep of {:?} differs", item.cell));
            }
        }
        self.memo_overhead_us
            .push((record.latency_ms() - sweep_ms) * 1e3);

        let served = &self.snapshots[&item.cell][..item.depth as usize];
        let (merged, merge) = tracer.time("serve.merge", op, Some(root), || merge_batches(served));
        path_ms += tracer.ms(merge);
        let merged = merged.ok().flatten().map(|m| digest(&m));
        if merged.is_none() || merged != reference {
            problem = Some(format!("replayed merge of {:?} differs", item.cell));
        }
        self.idle_ms.push(record.latency_ms() - path_ms);
        problem
    }
}

/// How a serve workload runs.
pub struct ServeWorkload {
    /// Cells and campaign.
    pub catalogue: Catalogue,
    /// Closed-loop clients.
    pub clients: usize,
    /// The request stream of a workload seed.
    pub stream: fn(u64, &Catalogue) -> Box<dyn Stream>,
}

/// `serve_cold`: one client, never-repeated 4 × 5 requests.
pub fn cold() -> ServeWorkload {
    ServeWorkload {
        catalogue: Catalogue::cold(),
        clients: 1,
        stream: |seed, _| Box::new(ColdStream::new(seed)),
    }
}

/// `serve_mixed`: two clients on one seeded mixed stream.
pub fn mixed() -> ServeWorkload {
    ServeWorkload {
        catalogue: Catalogue::mixed(),
        clients: 2,
        stream: |seed, catalogue| Box::new(MixedStream::new(seed, catalogue)),
    }
}

/// Runs a serve workload.
pub fn run(workload: &ServeWorkload, args: &Args) -> RunOutput {
    let mut out = RunOutput::default();
    // Spans of the traced run are timed against this clock.
    let mut tracer = Tracer::new();
    let catalogue = &workload.catalogue;
    let stream: Mutex<Box<dyn Stream>> = Mutex::new((workload.stream)(args.seed, catalogue));
    let warmups = SeedFamily::new(args.seed, 0x3A_2A);

    // Set-up: service, workers, one untimed warm-up request on a cell
    // the stream never uses.
    let setups = timed_setups(crate::SETUP_REPEATS, |k| {
        let service = IndicatorService::in_process(WORKERS, ServiceOptions::default());
        let warm = Item {
            cell: Cell {
                scope: 0,
                threat: 0,
                seed: warmups.seed(k as u64),
            },
            depth: 4,
            class: Class::Miss,
        };
        let response = service.request(&catalogue.request(&warm));
        let failed = response.measurements.is_none() || response.degraded;
        (
            service,
            failed.then(|| "warm-up request failed".to_string()),
        )
    });
    let mut e2e = EndToEnd {
        setup_s: setups.seconds,
        clean_setups: setups.clean,
        ..EndToEnd::default()
    };
    for problem in setups.problems {
        out.tally.op(Some(problem));
    }
    let service = setups.state;

    let window = Duration::from_secs_f64(args.seconds);
    let (untraced_phase, traced_phase) = if args.trace {
        (window / 2, Some(window / 2))
    } else {
        (window, None)
    };
    let sampler = StealSampler::start();
    let mut records = drive(
        &service,
        catalogue,
        &stream,
        workload.clients,
        untraced_phase,
    );
    e2e.slices = sampler.finish();
    let untraced = records.len();
    if let Some(phase) = traced_phase {
        records.extend(drive(&service, catalogue, &stream, workload.clients, phase));
    }
    drop(service);

    // References, outside every timed window.
    let plants = Plants::new(catalogue);
    let mut references: HashMap<(Cell, u32), u64> = HashMap::new();
    for r in &records {
        let key = (r.item.cell, r.item.depth);
        references
            .entry(key)
            .or_insert_with(|| plants.reference(key.0, key.1));
    }
    let verdicts = verify(&records, catalogue.batch_size, &references);

    let class_latencies = |class: Class| -> Vec<f64> {
        records
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| v.class == class)
            .map(|(r, _)| r.latency_ms())
            .collect()
    };
    let count = |class: Class| verdicts.iter().filter(|v| v.class == class).count();
    out.line(format!(
        "classes: {} hit, {} top-up, {} miss, {} coalesced",
        count(Class::Hit),
        count(Class::TopUp),
        count(Class::Miss),
        count(Class::Coalesced)
    ));

    if !args.trace {
        for v in &verdicts {
            out.tally.op(v.problem.clone());
        }
        e2e.ops = records
            .iter()
            .zip(&verdicts)
            .map(|(r, v)| Timed {
                start: r.start,
                latency_ms: r.latency_ms(),
                // A coalesced request's replications are its leader's.
                replications: if v.class == Class::Coalesced {
                    0
                } else {
                    u64::from(r.new_replications)
                },
            })
            .collect();
        if let Err(refused) = e2e.report(&mut out) {
            out.tally.op(Some(format!("p90 refused: {refused:?}")));
        }
        return out;
    }

    // Traced run: replay every traced-phase request.
    let mut replayer = Replayer::new(catalogue, &records[untraced..]);
    for (i, (r, v)) in records.iter().zip(&verdicts).enumerate() {
        let mut problem = v.problem.clone();
        if i >= untraced {
            let reference = references.get(&(r.item.cell, r.item.depth)).copied();
            let replayed = replayer.replay(&mut tracer, i as u32, r, v, reference);
            problem = problem.or(replayed);
        }
        out.tally.op(problem);
    }
    let untraced_p50 = median(
        &records[..untraced]
            .iter()
            .map(OpRecord::latency_ms)
            .collect::<Vec<_>>(),
    );
    let mut m = traced_report(
        &mut out,
        &tracer,
        "serve.idle",
        untraced_p50,
        &crate::trace_path(args),
    );
    let ms_to_us = |ms: f64| ms * 1e3;
    let total = records.len() as f64;
    let figures = &replayer.figures;
    m.set("scada.build_us", ms_to_us(tracer.median_ms("scada.build")));
    m.set("attack.rep_us", median(&figures.rep_us));
    m.set("attack.reps", replayer.replayed_reps as f64);
    m.set(
        "core.content_key_us",
        ms_to_us(tracer.median_ms("core.content_key")),
    );
    m.set("serve.sweep_ms", tracer.median_ms("serve.sweep"));
    m.set("serve.wire_encode_us", median(&figures.encode_us));
    m.set("serve.wire_decode_us", median(&figures.decode_us));
    m.set("serve.wire_bytes", median(&figures.bytes));
    m.set(
        "serve.loopback_rtt_us",
        ms_to_us(tracer.median_ms("serve.loopback_rtt")),
    );
    m.set("serve.merge_us", ms_to_us(tracer.median_ms("serve.merge")));
    m.set("serve.memo_overhead_us", median(&replayer.memo_overhead_us));
    m.set("serve.idle_ms", median(&replayer.idle_ms));
    m.set(
        "serve.shards",
        records.iter().map(|r| f64::from(r.shards)).sum(),
    );
    m.set(
        "serve.shard_attempts",
        records.iter().map(|r| f64::from(r.attempts)).sum(),
    );
    m.set("serve.hit_ratio", count(Class::Hit) as f64 / total);
    m.set("serve.topup_ratio", count(Class::TopUp) as f64 / total);
    m.set("serve.miss_ratio", count(Class::Miss) as f64 / total);
    m.set("serve.coalesced", count(Class::Coalesced) as f64);
    m.set(
        "serve.hit_p50_us",
        ms_to_us(median(&class_latencies(Class::Hit))),
    );
    m.set("serve.topup_p50_ms", median(&class_latencies(Class::TopUp)));
    m.set("serve.miss_p50_ms", median(&class_latencies(Class::Miss)));
    m.emit(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(stream: &mut dyn Stream, n: usize) -> Vec<Item> {
        (0..n).map(|_| stream.next_item()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let catalogue = Catalogue::mixed();
        let a = take(&mut MixedStream::new(7, &catalogue), 500);
        let b = take(&mut MixedStream::new(7, &catalogue), 500);
        let c = take(&mut MixedStream::new(8, &catalogue), 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let a = take(&mut ColdStream::new(7), 50);
        assert_eq!(a, take(&mut ColdStream::new(7), 50));
        assert_ne!(a, take(&mut ColdStream::new(8), 50));
    }

    #[test]
    fn cold_requests_never_repeat() {
        let items = take(&mut ColdStream::new(3), 10_000);
        let seeds: std::collections::HashSet<u64> = items.iter().map(|i| i.cell.seed).collect();
        assert_eq!(seeds.len(), items.len());
    }

    /// Intended share of each class in the mixed stream.
    const MIX_TARGETS: [(Class, f64); 4] = [
        (Class::Hit, 38.0 / 47.0),
        (Class::TopUp, 4.0 / 47.0),
        (Class::Miss, 4.0 / 47.0),
        (Class::Coalesced, 1.0 / 47.0),
    ];

    #[test]
    fn mixed_class_shares_land_near_their_targets() {
        let catalogue = Catalogue::mixed();
        for seed in [1, 2, 3] {
            let items = take(&mut MixedStream::new(seed, &catalogue), 4_700);
            for (class, target) in MIX_TARGETS {
                let share =
                    items.iter().filter(|i| i.class == class).count() as f64 / items.len() as f64;
                assert!(
                    (share - target).abs() < 0.02,
                    "seed {seed}: {class:?} share {share:.3}, target {target:.3}"
                );
            }
        }
    }

    #[test]
    fn duplicates_follow_their_leader_and_hits_stay_within_banked_depth() {
        let catalogue = Catalogue::mixed();
        let items = take(&mut MixedStream::new(11, &catalogue), 2_000);
        let mut banked: HashMap<Cell, u32> = HashMap::new();
        for (i, item) in items.iter().enumerate() {
            match item.class {
                Class::Coalesced => {
                    assert_eq!(items[i - 1].cell, item.cell);
                    assert_eq!(items[i - 1].depth, item.depth);
                }
                Class::Hit => assert!(item.depth <= banked[&item.cell]),
                Class::TopUp => assert!(item.depth > banked[&item.cell]),
                Class::Miss => assert!(!banked.contains_key(&item.cell)),
            }
            let b = banked.entry(item.cell).or_insert(0);
            *b = (*b).max(item.depth);
        }
    }

    fn record(
        base: Instant,
        item: Item,
        start_ms: u64,
        end_ms: u64,
        new: u32,
        digest: u64,
    ) -> OpRecord {
        OpRecord {
            item,
            start: base + Duration::from_millis(start_ms),
            end: base + Duration::from_millis(end_ms),
            new_replications: new,
            digest: Some(digest),
            refused: None,
            shards: 0,
            attempts: 0,
        }
    }

    #[test]
    fn verify_classifies_and_counts_wrong_references_as_failures() {
        let cell = Cell {
            scope: 0,
            threat: 0,
            seed: 9,
        };
        let at = |depth, class| Item { cell, depth, class };
        let mut references = HashMap::new();
        references.insert((cell, 4), 40);
        references.insert((cell, 8), 80);
        let t0 = Instant::now();
        let records = vec![
            record(t0, at(4, Class::Miss), 0, 10, 100, 40),
            record(t0, at(8, Class::TopUp), 20, 30, 100, 80),
            record(t0, at(4, Class::Hit), 40, 41, 0, 40),
            // A hit that claims new work.
            record(t0, at(8, Class::Hit), 50, 51, 25, 80),
        ];
        let v = verify(&records, 25, &references);
        let classes: Vec<Class> = v.iter().map(|v| v.class).collect();
        assert_eq!(
            classes,
            [Class::Miss, Class::TopUp, Class::Hit, Class::TopUp]
        );
        assert!(v[..3].iter().all(|v| v.problem.is_none()));
        assert!(v[3].problem.is_some());

        // A deliberately wrong reference fails the request that uses it.
        references.insert((cell, 4), 41);
        let v = verify(&records, 25, &references);
        let failed: Vec<bool> = v.iter().map(|v| v.problem.is_some()).collect();
        assert_eq!(failed, [true, false, true, true]);
    }

    #[test]
    fn verify_accepts_coalescing_and_racing_memo_states() {
        let cell = Cell {
            scope: 0,
            threat: 0,
            seed: 5,
        };
        let at = |depth, class| Item { cell, depth, class };
        let mut references = HashMap::new();
        references.insert((cell, 4), 4);
        references.insert((cell, 16), 16);
        let t0 = Instant::now();
        let records = vec![
            record(t0, at(16, Class::Miss), 0, 100, 400, 16),
            // Sent while the leader ran: waited on it.
            record(t0, at(16, Class::Coalesced), 10, 100, 400, 16),
            // Overlapped the miss: may have seen the memo empty or full.
            record(t0, at(4, Class::Hit), 20, 60, 100, 4),
        ];
        let v = verify(&records, 25, &references);
        assert!(v.iter().all(|v| v.problem.is_none()), "{v:?}");
        assert_eq!(v[1].class, Class::Coalesced);
        assert_eq!(v[2].class, Class::Miss);
    }
}
