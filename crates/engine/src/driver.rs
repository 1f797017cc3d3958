//! Multi-threaded shard driver: one worker thread per shard, fed with
//! pre-routed batches over lock-free SPSC [`ring`](crate::ring)
//! buffers.
//!
//! This is the software analogue of the paper's per-PMD deployment: the
//! producer plays the NIC's RSS stage (hash each id, append to the
//! target shard's batch), workers play PMD threads (drain batches into
//! their private reservoir), and nothing is shared between workers, so
//! there is no locking on the per-item hot path — including the
//! cross-thread handoff itself, which publishes whole owned batches
//! with a pair of Acquire/Release edges instead of the
//! mutex-and-condvar machinery of `std::sync::mpsc` (the mpsc-era
//! driver survives as [`ShardedQMax::run_threaded_mpsc`], the
//! reference the differential battery and the contention bench compare
//! against). [`ShardedQMax::run_threaded_partitioned`] extends the
//! layout to P ingestion threads: one ring per (producer × shard), so
//! producers never share a queue either.
//!
//! # One driver core
//!
//! [`ShardedQMax::run_threaded`] and
//! [`ShardedQMax::run_threaded_partitioned`] are short calls into one
//! core over [`Checkpoint`] backends: one producer routine (route →
//! per-shard batch → dispatch under the [`OverloadPolicy`]; on the
//! caller's thread for one stream, on a spawned thread per stream for
//! P > 1), one worker loop (`recv` on one ring, a sweep over P), one
//! recovery path, and one reassembly. Every producer owns its ring
//! handles. Rings reach it through a per-shard, generation-tagged
//! hand-off slot; the producer compares the slot's generation with its
//! own (one atomic load) before each push and takes the slot's lock only
//! when they differ, i.e. once per worker generation. Supervision is
//! purely [`DriverConfig`]: a checkpoint cadence means checkpoints, a
//! watchdog means the watchdog thread, which hands replacement rings
//! over through the same slot.
//!
//! # Fault tolerance
//!
//! A measurement data plane must not take down the forwarding plane it
//! observes, so the driver isolates shard failures instead of
//! propagating them:
//!
//! * **Panic isolation** — every batch drain runs under
//!   [`std::panic::catch_unwind`]. A panicking shard is *quarantined*:
//!   its poisoned backend is dropped, the remainder of its sub-stream is
//!   drained off the ring and counted (never processed), and the
//!   other `S − 1` workers keep running untouched. After the run the
//!   slot is rebuilt from the engine's backend factory (warm from its
//!   last checkpoint, if any), so the engine stays queryable — exactly
//!   the per-PMD independence argument: one instance restarting never
//!   stalls the others.
//! * **Load shedding** — [`OverloadPolicy::Shed`] switches the producer
//!   from waiting on a full ring to dropping the batch, within a bounded
//!   per-shard drop budget, trading bounded loss for producer latency
//!   when a shard falls behind (a stalled PMD sheds packets; it does
//!   not stall RSS). Both policies are expressed in ring-occupancy
//!   terms: *full ring* is the overload condition.
//! * **Failure accounting** — [`DriverReport`] balances every routed
//!   item into drained, shed, or quarantined, and lists each failure as
//!   a [`ShardFailure`] with the captured panic message.
//! * **Backpressure observability** —
//!   [`DriverReport::per_shard_ring_high_water`] records the peak ring
//!   occupancy each shard's producer saw; a shard pinned at
//!   [`DriverReport::ring_capacity`] was the bottleneck (stalled, or
//!   simply slower than the stream).

use crate::ring;
use crate::shard_key::ShardKey;
use crate::sharded::{ShardHealth, ShardRouter, ShardedQMax};
use crate::supervisor::{CkptSlot, LifecycleEvent, ShardLifecycle, ShardState, WatchdogConfig};
#[cfg(test)]
use qmax_core::QMax;
use qmax_core::{BatchInsert, Checkpoint};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// One batch-carrying SPSC lane, seen from each end (the driver only
/// ever moves whole admitted batches across threads).
type BatchProducer<I, V> = ring::Producer<Vec<(I, V)>>;
type BatchConsumer<I, V> = ring::Consumer<Vec<(I, V)>>;
/// The producer ends of one worker generation's rings, one per producer.
type Rings<I, V> = Vec<Option<BatchProducer<I, V>>>;

/// What the producer does when a shard's ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Wait (bounded spin, then yield) until the worker frees a slot
    /// (lossless backpressure; a slow shard throttles the whole
    /// stream). The default.
    Block,
    /// Drop the batch instead of waiting, up to `max_dropped` items
    /// per shard; once a shard's drop budget is spent the producer
    /// falls back to waiting for it, so the loss is bounded.
    Shed {
        /// Per-shard shed budget in items.
        max_dropped: u64,
    },
}

/// Tuning knobs for the threaded drivers ([`ShardedQMax::run_threaded`],
/// [`ShardedQMax::run_threaded_partitioned`]).
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Items per batch handed to a worker (amortizes handoff overhead;
    /// the paper's shared-memory blocks play the same role).
    pub batch_size: usize,
    /// Ring capacity: bounded in-flight batches per ring before the
    /// overload policy applies (backpressure instead of unbounded
    /// queueing).
    pub queue_depth: usize,
    /// Producer behavior when a worker's ring is full.
    pub overload: OverloadPolicy,
    /// Checkpoint cadence in drained items per shard (snapshots are
    /// taken at batch boundaries, so the effective interval is rounded
    /// up to the next batch). `None` disables checkpointing: panics
    /// fall back to the cold quarantine path.
    pub checkpoint_every: Option<u64>,
    /// Stall-watchdog and restart policy. `None` runs no watchdog
    /// thread (panic recovery then uses [`WatchdogConfig::default`] for
    /// its restart budget and backoff).
    pub watchdog: Option<WatchdogConfig>,
    /// Pin worker thread `s` to core `s mod available_parallelism`
    /// (and, for [`ShardedQMax::run_threaded_partitioned`], producer
    /// `p` to core `(S + p) mod available_parallelism`) via
    /// [`ring::pin_current_thread`]. Off by default; a no-op on
    /// platforms without `sched_setaffinity`. Useful only when cores ≥
    /// threads — on an oversubscribed box pinning serializes the
    /// pipeline.
    pub pin_threads: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            batch_size: 1024,
            queue_depth: 8,
            overload: OverloadPolicy::Block,
            checkpoint_every: None,
            watchdog: None,
            pin_threads: false,
        }
    }
}

/// One quarantined shard: which worker panicked, why, and what it cost.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Index of the shard whose worker panicked.
    pub shard: usize,
    /// The captured panic message (`"non-string panic payload"` when the
    /// payload was neither `&str` nor `String`).
    pub message: String,
    /// Items routed to the shard but never processed: the batch that
    /// panicked plus everything drained-and-dropped afterwards. Items
    /// the shard processed *before* panicking are also discarded with
    /// the poisoned backend, but are counted under
    /// [`DriverReport::per_shard_drained`], not here.
    pub items_lost: u64,
}

/// What a threaded run did: per-shard load, loss accounting, failures,
/// backpressure high-water marks, and aggregate timing.
///
/// Every routed item lands in exactly one bucket per shard:
/// `per_shard_items[s] == per_shard_drained[s] + per_shard_dropped[s] +
/// per_shard_quarantined[s]`.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// Total items routed.
    pub items: u64,
    /// Wall-clock time from first route to last worker joining.
    pub elapsed: Duration,
    /// Items routed to each shard.
    pub per_shard_items: Vec<u64>,
    /// Items each shard's backend admitted. The backend's own threshold
    /// check is the only filter: the driver routes every item to its
    /// shard's worker with no pre-filter.
    pub per_shard_admitted: Vec<u64>,
    /// Items each shard's worker actually processed (admitted or
    /// filtered by the backend).
    pub per_shard_drained: Vec<u64>,
    /// Items shed by the producer under [`OverloadPolicy::Shed`]
    /// because the shard's ring was full and budget remained.
    pub per_shard_dropped: Vec<u64>,
    /// Items routed to a shard but never processed because the shard
    /// was quarantined (its worker panicked, or its ring closed
    /// early).
    pub per_shard_quarantined: Vec<u64>,
    /// Candidate entries re-adopted from checkpoints by warm restores
    /// of each shard (zero without [`DriverConfig::checkpoint_every`]).
    /// Entries restore exactly once per recovery:
    /// [`qmax_core::Checkpoint::restore`] overwrites, never merges.
    pub per_shard_recovered: Vec<u64>,
    /// Peak ring occupancy (in-flight batches) each shard's
    /// producer(s) ever observed, counting rejected pushes against a
    /// full ring. The backpressure signal: a shard pinned at
    /// [`Self::ring_capacity`] stopped keeping up with its sub-stream
    /// (overloaded, stalled, or quarantined). Every threaded driver
    /// reports the max over all rings that fed the shard: one per
    /// producer, and a fresh set per supervised failover. All zeros for
    /// the mpsc reference driver.
    pub per_shard_ring_high_water: Vec<u64>,
    /// Ring capacity in batches ([`DriverConfig::queue_depth`]) the
    /// run used — the ceiling of
    /// [`Self::per_shard_ring_high_water`]. 0 for the mpsc reference
    /// driver, which has no rings.
    pub ring_capacity: u64,
    /// One entry per quarantined shard, in shard order.
    pub failures: Vec<ShardFailure>,
    /// Each shard's [`qmax_core::QMax::backend_label`] after the run
    /// (a quarantined shard reports its rebuilt backend's label) —
    /// surfaces which layout the adaptive backend policy chose per
    /// shard.
    pub per_shard_backend: Vec<&'static str>,
    /// Supervision state transitions recorded during the run (empty for
    /// a run without faults).
    pub lifecycle: ShardLifecycle,
}

impl DriverReport {
    /// Aggregate insert throughput in millions of items per second.
    pub fn throughput_mips(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.items as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Total items shed by the producer across shards.
    pub fn dropped(&self) -> u64 {
        self.per_shard_dropped.iter().sum()
    }

    /// Total items lost to quarantined shards across the run.
    pub fn quarantined(&self) -> u64 {
        self.per_shard_quarantined.iter().sum()
    }

    /// Total candidate entries re-adopted from checkpoints by warm
    /// restores across shards.
    pub fn recovered(&self) -> u64 {
        self.per_shard_recovered.iter().sum()
    }

    /// Whether shard `s`'s producer ever saw its ring pinned at
    /// capacity — the occupancy-level statement of "this shard fell
    /// behind". Always `false` for the mpsc reference driver.
    pub fn saturated(&self, s: usize) -> bool {
        self.ring_capacity > 0 && self.per_shard_ring_high_water[s] >= self.ring_capacity
    }

    /// Whether shard `s` finished the run un-quarantined.
    pub fn is_healthy(&self, s: usize) -> bool {
        !self.failures.iter().any(|f| f.shard == s)
    }

    /// Indices of shards that finished the run un-quarantined.
    pub fn healthy_shards(&self) -> Vec<usize> {
        (0..self.per_shard_items.len())
            .filter(|&s| self.is_healthy(s))
            .collect()
    }

    /// Load-balance quality over *healthy* shards: most-loaded healthy
    /// shard relative to the healthy mean (1.0 = perfectly balanced;
    /// the pool's throughput is limited by the most loaded surviving
    /// worker, exactly as with PMD threads). Quarantined shards are
    /// excluded — a dead worker neither carries load nor bounds
    /// throughput. 0.0 when every shard was quarantined or no items
    /// flowed; exactly 1.0 when a single healthy shard remains.
    pub fn max_load_factor(&self) -> f64 {
        let healthy: Vec<u64> = self
            .per_shard_items
            .iter()
            .enumerate()
            .filter(|&(s, _)| self.is_healthy(s))
            .map(|(_, &n)| n)
            .collect();
        if healthy.is_empty() {
            return 0.0;
        }
        let max = healthy.iter().copied().max().unwrap_or(0) as f64;
        let mean = healthy.iter().sum::<u64>() as f64 / healthy.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max / mean
        }
    }
}

/// Renders a caught panic payload as the message string panics carry in
/// practice (`panic!("…")` yields `&str` or `String`).
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Generation tag of a permanently quarantined shard: no worker owns it,
/// and producers orphan whatever they still route to it.
pub(crate) const RETIRED: u64 = u64::MAX;

/// One shard's counters, updated per batch, never per item.
#[derive(Default)]
pub(crate) struct Counters {
    items: AtomicU64,
    pub(crate) drained: AtomicU64,
    pub(crate) admitted: AtomicU64,
    /// Never processed (orphaned, or sent to a quarantined or fenced
    /// worker), plus progress reclassified at a recovery.
    pub(crate) quarantined: AtomicU64,
    /// The shed budget every producer claims from.
    dropped: AtomicU64,
    /// Peak occupancy over every ring that fed the shard.
    ring_hw: AtomicU64,
    /// The owning worker generation ([`RETIRED`] once quarantined for
    /// good); a worker of another generation quarantines what it gets.
    pub(crate) gen: AtomicU64,
    /// Heartbeat: batches popped by the owning generation, plus one per
    /// warm restore. Counted only under a watchdog, which reads it
    /// lock-free.
    pub(crate) beats: AtomicU64,
    /// Batches pushed to the owning generation's rings and not yet
    /// drained by it, packed as `gen << 32 | count` (see
    /// [`Counters::add_pending`]). Counted only under a watchdog.
    pending: AtomicU64,
    /// Set while a worker is self-restoring after a panic, so the
    /// watchdog does not count backoff sleep as a stall.
    pub(crate) restoring: AtomicBool,
    /// Out of live coverage (suspect, restarting, quarantined).
    pub(crate) degraded: AtomicBool,
    /// Candidate entries re-adopted from checkpoints by warm restores.
    pub(crate) recovered: AtomicU64,
    /// Restart attempts consumed (panics + stalls).
    pub(crate) restarts: AtomicU32,
}

/// Low 32 bits of the pending word: the batch count.
const COUNT_MASK: u64 = 0xFFFF_FFFF;

impl Counters {
    /// Adds `delta` to the pending count if generation `gen` still owns
    /// it. The generation tag makes a failover's
    /// [`Counters::reset_pending`] exact: pushes into, and pops from, the
    /// fenced generation's rings no longer count, so batches stranded
    /// behind a stalled worker cannot make its idle replacement look
    /// stalled. A pop may land before its push is counted; the count
    /// then dips below zero for a moment, which reads as idle.
    fn add_pending(&self, gen: u64, delta: i32) {
        let tag = (gen & COUNT_MASK) << 32;
        let _ = self
            .pending
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |word| {
                let count = (word as u32).wrapping_add_signed(delta);
                (word & !COUNT_MASK == tag).then_some(tag | u64::from(count))
            });
    }

    /// Batches pending for the owning generation (≤ 0 when idle).
    pub(crate) fn pending(&self) -> i32 {
        self.pending.load(Ordering::SeqCst) as u32 as i32
    }

    /// Hands the pending count to generation `gen`, starting at zero.
    pub(crate) fn reset_pending(&self, gen: u64) {
        self.pending
            .store((gen & COUNT_MASK) << 32, Ordering::SeqCst);
    }
}

/// Everything the run keeps per shard.
pub(crate) struct ShardCell<I, V, B> {
    pub(crate) n: Counters,
    /// Generation of the newest hand-off, which producers compare with
    /// their lane's before every push. On its own cache lines: the
    /// worker writes [`Counters`] per batch, this changes once per
    /// worker generation.
    handoff_gen: ring::CachePadded<AtomicU64>,
    /// The last checkpoint, if one was taken.
    pub(crate) ckpt: Mutex<Option<CkptSlot<I, V>>>,
    /// Why the shard was quarantined for good.
    pub(crate) failure: Mutex<Option<String>>,
    /// The backend of the generation owning the shard at the end.
    pub(crate) outcome: Mutex<Option<B>>,
    /// The shard's rings, one per producer (none once retired), tagged
    /// with the generation that drains them: the first set, then each
    /// failover's. A producer locks it only to adopt a newer generation.
    handoff: Mutex<(u64, Rings<I, V>)>,
}

/// One driver run's shared state, borrowed by every thread of the run.
pub(crate) struct Core<I, V, B> {
    pub(crate) cells: Vec<ShardCell<I, V, B>>,
    router: ShardRouter,
    /// Batch size and queue depth clamped to ≥ 1.
    pub(crate) config: DriverConfig,
    producers: usize,
    pub(crate) events: Mutex<Vec<LifecycleEvent>>,
    /// All producers are done: no more hand-offs; the watchdog exits.
    pub(crate) closing: AtomicBool,
    pub(crate) start: Instant,
}

impl<I, V, B> Core<I, V, B>
where
    I: ShardKey + Send,
    V: Ord + Clone + Send,
    B: BatchInsert<I, V> + Checkpoint<I, V> + Send,
{
    fn new(engine: &ShardedQMax<I, V, B>, producers: usize, mut config: DriverConfig) -> Self {
        config.batch_size = config.batch_size.max(1);
        config.queue_depth = config.queue_depth.max(1);
        let cells = (0..engine.shard_count())
            .map(|_| ShardCell {
                n: Counters::default(),
                ckpt: Mutex::default(),
                failure: Mutex::default(),
                outcome: Mutex::default(),
                handoff_gen: ring::CachePadded::default(),
                handoff: Mutex::default(),
            })
            .collect();
        Core {
            cells,
            router: engine.router(),
            producers,
            config,
            events: Mutex::default(),
            closing: AtomicBool::new(false),
            start: Instant::now(),
        }
    }

    /// One fresh ring per producer, for one worker generation.
    pub(crate) fn rings(&self) -> (Rings<I, V>, Vec<BatchConsumer<I, V>>) {
        (0..self.producers)
            .map(|_| ring::ring(self.config.queue_depth))
            .map(|(tx, rx)| (Some(tx), rx))
            .unzip()
    }

    /// The producer routine — route → per-shard batch → dispatch — for
    /// producer `p`, pinned to `pin`. Its lanes start empty and adopt
    /// their rings from the hand-off slots on first use.
    fn produce<S: Iterator<Item = (I, V)>>(&self, p: usize, stream: S, pin: Option<usize>) {
        if let Some(core) = pin {
            ring::pin_current_thread(core);
        }
        let (n, batch_size) = (self.cells.len(), self.config.batch_size);
        let mut lanes: Vec<Lane<I, V>> = (0..n).map(|_| (None, RETIRED)).collect();
        let mut items = vec![0u64; n];
        let mut buffers: Vec<Vec<(I, V)>> =
            (0..n).map(|_| Vec::with_capacity(batch_size)).collect();
        for (id, val) in stream {
            let s = self.router.route(&id);
            items[s] += 1;
            buffers[s].push((id, val));
            if buffers[s].len() >= batch_size {
                let full = std::mem::replace(&mut buffers[s], Vec::with_capacity(batch_size));
                self.dispatch(p, s, &mut lanes[s], full);
            }
        }
        for (s, buffer) in buffers.into_iter().enumerate() {
            if !buffer.is_empty() {
                self.dispatch(p, s, &mut lanes[s], buffer);
            }
        }
        // Dropping the lanes closes this producer's rings; a worker
        // retires once all P of its rings close.
        for (s, (tx, _)) in lanes.into_iter().enumerate() {
            self.retire_ring(s, tx);
            self.cells[s].n.items.fetch_add(items[s], Ordering::SeqCst);
        }
    }

    /// Pushes one batch under the overload policy, waiting out a full
    /// ring with the ring's spin → yield backoff. Before every push the
    /// lane adopts a newer hand-off, so after a failover the very next
    /// batch goes to the replacement, whether or not the stalled
    /// worker's ring has filled. A full-ring `try_push` records the
    /// at-capacity occupancy in the ring's high-water mark, which is how
    /// a stall becomes visible as backpressure.
    fn dispatch(&self, p: usize, s: usize, lane: &mut Lane<I, V>, mut batch: Vec<(I, V)>) {
        let (n, len) = (&self.cells[s].n, batch.len() as u64);
        let mut step = 0u32;
        loop {
            self.take_handoff(p, s, lane);
            let Some(tx) = lane.0.as_mut() else {
                // A retired shard: orphan the rest of its sub-stream.
                n.quarantined.fetch_add(len, Ordering::SeqCst);
                return;
            };
            match tx.try_push(batch) {
                Ok(()) => {
                    if self.config.watchdog.is_some() {
                        n.add_pending(lane.1, 1);
                    }
                    return;
                }
                Err(back) => batch = back,
            }
            if tx.consumer_gone() {
                // The worker died without draining its ring; count and
                // carry on — the other shards still want their
                // sub-streams.
                n.quarantined.fetch_add(len, Ordering::SeqCst);
                return;
            }
            if let OverloadPolicy::Shed { max_dropped } = self.config.overload {
                if claim_shed_budget(&n.dropped, len, max_dropped) {
                    return;
                }
            }
            ring::backoff(step);
            step = step.saturating_add(1);
        }
    }

    /// Adopts the newest hand-off into producer `p`'s lane if the lane is
    /// older, retiring its old ring. One atomic load when nothing
    /// changed; the slot's lock is taken once per worker generation.
    fn take_handoff(&self, p: usize, s: usize, lane: &mut Lane<I, V>) {
        let cell = &self.cells[s];
        // Acquire pairs with the Release store in `hand_off`; the rings
        // themselves are read under the slot's lock.
        if cell.handoff_gen.0.load(Ordering::Acquire) == lane.1 {
            return;
        }
        let (gen, rings) = &mut *lock(&cell.handoff);
        let next = rings.get_mut(p).and_then(Option::take);
        self.retire_ring(s, std::mem::replace(lane, (next, *gen)).0);
    }

    /// Leaves `rings` in shard `s`'s hand-off slot for generation `gen`,
    /// retiring any set no producer adopted. Refused (the rings drop,
    /// closed) once the run is closing.
    pub(crate) fn hand_off(&self, s: usize, gen: u64, rings: Rings<I, V>) -> bool {
        let cell = &self.cells[s];
        let mut slot = lock(&cell.handoff);
        if self.closing.load(Ordering::SeqCst) {
            return false;
        }
        for tx in std::mem::replace(&mut *slot, (gen, rings)).1 {
            self.retire_ring(s, tx);
        }
        cell.handoff_gen.0.store(gen, Ordering::Release);
        true
    }

    /// Folds a ring's high-water into its shard's peak and drops the
    /// handle, closing the ring.
    fn retire_ring(&self, s: usize, tx: Option<BatchProducer<I, V>>) {
        if let Some(tx) = tx {
            let hw = &self.cells[s].n.ring_hw;
            hw.fetch_max(tx.high_water(), Ordering::SeqCst);
        }
    }

    /// Closes the run once every producer is done: no more hand-offs, and
    /// rings no producer adopted retire, ending their workers.
    fn close(&self) {
        self.closing.store(true, Ordering::SeqCst);
        for (s, cell) in self.cells.iter().enumerate() {
            for tx in lock(&cell.handoff).1.drain(..) {
                self.retire_ring(s, tx);
            }
        }
    }

    /// Worker generation `gen` of shard `s`: `recv` (spin, then park) on
    /// one ring; over P rings, a sweep that retires each ring once closed
    /// and drained and backs off when idle (parking is per ring).
    pub(crate) fn worker(
        &self,
        s: usize,
        gen: u64,
        backend: B,
        mut rings: Vec<BatchConsumer<I, V>>,
    ) {
        if let Some(core) = pin_plan(self.config.pin_threads, s) {
            ring::pin_current_thread(core);
        }
        let mut state = DrainState::new(self, s, gen, backend);
        if let [rx] = rings.as_mut_slice() {
            while let Some(batch) = rx.recv() {
                state.take(batch);
            }
            return state.finish();
        }
        let mut idle = 0u32;
        while !rings.is_empty() {
            let mut progressed = false;
            rings.retain_mut(|rx| {
                // Close is published after the producer's last push, so a
                // drain after observing it empties the ring for good.
                let closed = rx.is_closed();
                while let Some(batch) = rx.try_pop() {
                    progressed = true;
                    state.take(batch);
                }
                !closed
            });
            idle = if progressed {
                0
            } else {
                idle.saturating_add(1)
            };
            match idle {
                0 => {}
                1..16 => thread::yield_now(),
                _ => thread::sleep(Duration::from_micros(50)),
            }
        }
        state.finish()
    }
}

/// One producer's ring into a shard and the generation draining it (no
/// ring before the first hand-off is adopted, nor once retired).
type Lane<I, V> = (Option<BatchProducer<I, V>>, u64);

/// The per-batch drain state of every worker: drains under
/// `catch_unwind` and checkpoints on the configured cadence. After a
/// panic it restores in place (checkpointing, budget left) or drops the
/// poisoned backend and keeps taking batches as quarantined, so no
/// producer waits on a ring nobody drains.
struct DrainState<'a, I, V, B> {
    core: &'a Core<I, V, B>,
    s: usize,
    gen: u64,
    live: Option<B>,
    since_ckpt: u64,
}

impl<'a, I, V, B> DrainState<'a, I, V, B>
where
    I: ShardKey + Send,
    V: Ord + Clone + Send,
    B: BatchInsert<I, V> + Checkpoint<I, V> + Send,
{
    fn new(core: &'a Core<I, V, B>, s: usize, gen: u64, backend: B) -> Self {
        DrainState {
            core,
            s,
            gen,
            live: Some(backend),
            since_ckpt: 0,
        }
    }

    fn take(&mut self, batch: Vec<(I, V)>) {
        let n = &self.core.cells[self.s].n;
        let watched = self.core.config.watchdog.is_some();
        let len = batch.len() as u64;
        let owner = n.gen.load(Ordering::SeqCst) == self.gen;
        if owner && watched {
            n.beats.fetch_add(1, Ordering::SeqCst);
        }
        match self.live.take() {
            Some(mut b) if owner => match catch_unwind(AssertUnwindSafe(|| b.insert_batch(&batch)))
            {
                // Swapped out mid-batch by a stall failover; the effect
                // is discarded with this backend.
                Ok(_) if n.gen.load(Ordering::SeqCst) != self.gen => {
                    n.quarantined.fetch_add(len, Ordering::SeqCst);
                }
                Ok(admitted) => {
                    n.drained.fetch_add(len, Ordering::SeqCst);
                    n.admitted.fetch_add(admitted as u64, Ordering::SeqCst);
                    self.since_ckpt += len;
                    self.checkpoint(&b);
                    self.live = Some(b);
                }
                // The backend's internal invariants may be arbitrarily
                // broken mid-unwind: charge the whole batch as
                // quarantined (any partial admissions die with the
                // backend, or are overwritten by a warm restore).
                Err(payload) => {
                    n.quarantined.fetch_add(len, Ordering::SeqCst);
                    self.live = self.recover(b, panic_message(payload));
                }
            },
            // Abandoned by a stall failover (the replacement owns the
            // shard now, so this sub-stream remainder is lost), or
            // quarantined earlier in this loop.
            _ => {
                n.quarantined.fetch_add(len, Ordering::SeqCst);
            }
        }
        if watched {
            n.add_pending(self.gen, -1);
        }
    }

    /// Snapshots the backend every `checkpoint_every` drained items.
    fn checkpoint(&mut self, b: &B) {
        let core = self.core;
        let due = (core.config.checkpoint_every).is_some_and(|k| self.since_ckpt >= k);
        if due {
            let n = &core.cells[self.s].n;
            *lock(&core.cells[self.s].ckpt) = Some(CkptSlot {
                snap: b.snapshot(),
                drained_at: n.drained.load(Ordering::SeqCst),
                admitted_at: n.admitted.load(Ordering::SeqCst),
            });
            self.since_ckpt = 0;
        }
    }

    /// After a caught panic: warm-restores `b` from the last checkpoint
    /// when the run checkpoints and the restart budget allows; otherwise
    /// quarantines the shard for good.
    fn recover(&mut self, mut b: B, msg: String) -> Option<B> {
        let (core, s) = (self.core, self.s);
        let checkpointing = core.config.checkpoint_every.is_some();
        let attempt = core.restart_or_retire(s, checkpointing, &msg)?;
        let n = &core.cells[s].n;
        n.restoring.store(true, Ordering::SeqCst);
        core.back_off_and_restore(s, attempt, &mut b);
        self.since_ckpt = 0;
        n.restoring.store(false, Ordering::SeqCst);
        n.beats.fetch_add(1, Ordering::SeqCst);
        core.transition(s, ShardState::Healthy, "warm restore complete");
        Some(b)
    }

    /// Hands the backend to reassembly if this generation owns the shard.
    fn finish(self) {
        let cell = &self.core.cells[self.s];
        if cell.n.gen.load(Ordering::SeqCst) == self.gen {
            *lock(&cell.outcome) = self.live;
        }
    }
}

/// Atomically claims `len` items of a shard's shed budget; `false` when
/// the claim would overshoot `max_dropped` (the caller then keeps
/// waiting, so the loss bound stays exact).
fn claim_shed_budget(dropped: &AtomicU64, len: u64, max_dropped: u64) -> bool {
    dropped
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            cur.checked_add(len).filter(|&next| next <= max_dropped)
        })
        .is_ok()
}

/// Locks driver state. Poisoning means a driver thread panicked while
/// holding the lock (backend panics are caught outside every lock).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("driver lock poisoned by a panicking driver thread")
}

/// Worker core assignment under [`DriverConfig::pin_threads`].
fn pin_plan(pin: bool, index: usize) -> Option<usize> {
    if !pin {
        return None;
    }
    let cores = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Some(index % cores)
}

/// Where the producer routine runs: one stream on the caller's thread,
/// or one spawned thread per stream.
enum Streams<S0, S> {
    Caller(S0),
    Spawned(Vec<S>),
}

impl<I, V, B> ShardedQMax<I, V, B>
where
    I: ShardKey + Send,
    V: Ord + Clone + Send,
    B: BatchInsert<I, V> + Checkpoint<I, V> + Send,
{
    /// Feeds `stream` through one worker thread per shard and returns a
    /// load/timing/failure report. The engine is fully usable (and
    /// queryable) afterwards: shards move into the workers for the run
    /// and move back when the stream is exhausted — and a shard whose
    /// worker panicked moves back as a *fresh, empty* backend stamped
    /// from the engine's stored factory, with the failure recorded in
    /// [`DriverReport::failures`].
    ///
    /// The calling thread routes ids to shards ([`ShardKey`] hash) and
    /// accumulates per-shard batches of `config.batch_size` items;
    /// workers hand each batch to the backend's
    /// [`BatchInsert::insert_batch`], the same path as
    /// [`ShardedQMax::insert_batch`]. Each shard is fed over a
    /// lock-free SPSC [`ring`](crate::ring) bounded at
    /// `config.queue_depth` batches; a full ring either blocks the
    /// producer (bounded spin, then yield) or sheds the batch, per
    /// `config.overload`.
    ///
    /// Supervision is purely `config`. With
    /// [`DriverConfig::checkpoint_every`] each worker snapshots its
    /// backend on that drained-item cadence and a panicking shard
    /// warm-restores in place, losing at most one checkpoint interval
    /// plus the in-flight batch; without it the shard is quarantined
    /// and rebuilt cold. With [`DriverConfig::watchdog`] a supervisor
    /// thread replaces stalled workers from pre-stamped spares, warm
    /// restored after jittered exponential backoff. A shard past
    /// [`WatchdogConfig::max_restarts`] is quarantined for good and
    /// rebuilt from its last checkpoint after the run. Transitions land
    /// in [`DriverReport::lifecycle`]; this method never panics on a
    /// shard failure.
    pub fn run_threaded<S>(&mut self, stream: S, config: DriverConfig) -> DriverReport
    where
        S: Iterator<Item = (I, V)>,
    {
        let stream = Streams::<S, std::iter::Empty<(I, V)>>::Caller(stream);
        self.drive(stream, config)
    }

    /// Another name for [`ShardedQMax::run_threaded`]: supervision is
    /// purely [`DriverConfig`].
    pub fn run_supervised<S>(&mut self, stream: S, config: DriverConfig) -> DriverReport
    where
        S: Iterator<Item = (I, V)>,
    {
        self.run_threaded(stream, config)
    }

    /// The mpsc-era driver, retained verbatim as the reference
    /// implementation the ring driver is differentially tested and
    /// benchmarked against: identical routing, batching, overload, and
    /// quarantine semantics over `std::sync::mpsc` bounded channels
    /// (mutex-and-condvar handoff), with the same in-place recovery but
    /// no watchdog thread (no rings to fail over). It reports no ring
    /// stats ([`DriverReport::ring_capacity`] = 0) and ignores
    /// [`DriverConfig::pin_threads`]. New code wants
    /// [`ShardedQMax::run_threaded`].
    pub fn run_threaded_mpsc<S>(&mut self, stream: S, config: DriverConfig) -> DriverReport
    where
        S: Iterator<Item = (I, V)>,
    {
        let n = self.shard_count();
        let batch_size = config.batch_size.max(1);
        let queue_depth = config.queue_depth.max(1);
        let shards = self.take_shards();
        let router = self.router();
        // The shared drain state's per-shard cells (and nothing else of
        // the ring core) back the workers.
        let core = Core::new(self, 1, config);
        let mut per_shard_items = vec![0u64; n];
        let mut per_shard_dropped = vec![0u64; n];
        let mut orphaned = vec![0u64; n];
        let start = Instant::now();
        thread::scope(|scope| {
            let core = &core;
            let mut senders = Vec::with_capacity(n);
            for (s, shard) in shards.into_iter().enumerate() {
                let (tx, rx) = mpsc::sync_channel::<Vec<(I, V)>>(queue_depth);
                senders.push(tx);
                scope.spawn(move || {
                    let mut state = DrainState::new(core, s, 0, shard);
                    for batch in rx {
                        state.take(batch);
                    }
                    state.finish()
                });
            }
            let dispatch =
                |s: usize, batch: Vec<(I, V)>, dropped: &mut [u64], orphaned: &mut [u64]| {
                    match config.overload {
                        OverloadPolicy::Block => {
                            if let Err(mpsc::SendError(lost)) = senders[s].send(batch) {
                                orphaned[s] += lost.len() as u64;
                            }
                        }
                        OverloadPolicy::Shed { max_dropped } => match senders[s].try_send(batch) {
                            Ok(()) => {}
                            Err(mpsc::TrySendError::Full(batch)) => {
                                if dropped[s] + batch.len() as u64 <= max_dropped {
                                    dropped[s] += batch.len() as u64;
                                } else if let Err(mpsc::SendError(lost)) = senders[s].send(batch) {
                                    orphaned[s] += lost.len() as u64;
                                }
                            }
                            Err(mpsc::TrySendError::Disconnected(lost)) => {
                                orphaned[s] += lost.len() as u64;
                            }
                        },
                    }
                };
            let mut buffers: Vec<Vec<(I, V)>> =
                (0..n).map(|_| Vec::with_capacity(batch_size)).collect();
            for (id, val) in stream {
                let s = router.route(&id);
                per_shard_items[s] += 1;
                buffers[s].push((id, val));
                if buffers[s].len() >= batch_size {
                    let full = std::mem::replace(&mut buffers[s], Vec::with_capacity(batch_size));
                    dispatch(s, full, &mut per_shard_dropped, &mut orphaned);
                }
            }
            for (s, buffer) in buffers.into_iter().enumerate() {
                if !buffer.is_empty() {
                    dispatch(s, buffer, &mut per_shard_dropped, &mut orphaned);
                }
            }
            // Closing the channels ends each worker's drain loop.
            drop(senders);
        });
        let elapsed = start.elapsed();
        for (s, cell) in core.cells.iter().enumerate() {
            cell.n.items.store(per_shard_items[s], Ordering::SeqCst);
            cell.n.dropped.store(per_shard_dropped[s], Ordering::SeqCst);
            cell.n.quarantined.fetch_add(orphaned[s], Ordering::SeqCst);
        }
        self.reassemble(core, 0, elapsed)
    }

    /// The P-producer layout: `streams.len()` ingestion threads, each
    /// routing its own sub-stream over a private SPSC ring per shard
    /// (P × S rings total — "one producer slot per ingestion thread ×
    /// shard"), so neither producers nor workers ever share a queue.
    /// Workers sweep their P rings (poll + backoff; per-ring parking
    /// does not compose across producers). A single stream is routed on
    /// the calling thread, exactly like [`ShardedQMax::run_threaded`].
    /// Under [`OverloadPolicy::Shed`] the per-shard drop budget is
    /// shared across producers through one atomic, so the loss bound is
    /// per-shard, not per-(producer × shard).
    /// [`DriverReport::per_shard_ring_high_water`] is the max over a
    /// shard's P rings.
    ///
    /// The merged result is exact: q-MAX keeps the exact top-q, which
    /// is insensitive to the interleaving of the P sub-streams.
    pub fn run_threaded_partitioned<S>(
        &mut self,
        mut streams: Vec<S>,
        config: DriverConfig,
    ) -> DriverReport
    where
        S: Iterator<Item = (I, V)> + Send,
    {
        let streams = match streams.len() {
            1 => Streams::Caller(streams.pop().expect("one stream")),
            _ => Streams::Spawned(streams),
        };
        self.drive(streams, config)
    }

    /// The driver core every threaded entry point calls: spawns one
    /// worker per shard (and, with a configured watchdog, the watchdog
    /// thread), runs the producer routine over `streams`, closes the
    /// run, and reassembles the engine.
    fn drive<S0, S>(&mut self, streams: Streams<S0, S>, config: DriverConfig) -> DriverReport
    where
        S0: Iterator<Item = (I, V)>,
        S: Iterator<Item = (I, V)> + Send,
    {
        let n = self.shard_count();
        let producers = match &streams {
            Streams::Caller(_) => 1,
            Streams::Spawned(streams) => streams.len(),
        };
        let core = Core::new(self, producers, config);
        // Spares for stall failover are stamped out of the factory up
        // front: the factory borrows `self` mutably and cannot be
        // called once the backends are inside the scope.
        let budget = config.watchdog.map_or(0, |wd| wd.max_restarts);
        let spares: Vec<Vec<B>> = (0..n)
            .map(|s| (0..budget).map(|_| self.fresh_shard(s)).collect())
            .collect();
        let shards = self.take_shards();
        let start = Instant::now();
        // The scope joins every worker (and the watchdog) before the
        // engine is reassembled.
        thread::scope(|scope| {
            let core = &core;
            for (s, shard) in shards.into_iter().enumerate() {
                let (rings, inbound) = core.rings();
                core.hand_off(s, 0, rings);
                scope.spawn(move || core.worker(s, 0, shard, inbound));
            }
            let watchdog =
                (config.watchdog).map(|wd| scope.spawn(move || core.watchdog(scope, wd, spares)));
            match streams {
                Streams::Caller(stream) => core.produce(0, stream, None),
                Streams::Spawned(streams) => {
                    let producers: Vec<_> = streams
                        .into_iter()
                        .enumerate()
                        .map(|(p, stream)| {
                            let pin = pin_plan(core.config.pin_threads, n + p);
                            scope.spawn(move || core.produce(p, stream, pin))
                        })
                        .collect();
                    // A producer panic would poison the whole run; none
                    // of the producer routine panics short of an OOM
                    // abort.
                    for producer in producers {
                        producer.join().expect("ingestion thread panicked");
                    }
                }
            }
            // Shutdown: fence the watchdog out of new failovers and
            // retire every ring no producer adopted, then wake the
            // watchdog so it sees the run closing.
            core.close();
            if let Some(watchdog) = &watchdog {
                watchdog.thread().unpark();
            }
        });
        let (capacity, elapsed) = (core.config.queue_depth as u64, start.elapsed());
        self.reassemble(core, capacity, elapsed)
    }

    /// The one post-run reassembly: folds the shard cells into the
    /// report, rebuilds quarantined slots from the factory (warm from
    /// the last checkpoint when the run had one), and restores the
    /// engine's shards and coverage annotations.
    fn reassemble(
        &mut self,
        core: Core<I, V, B>,
        ring_capacity: u64,
        elapsed: Duration,
    ) -> DriverReport {
        let load = |f: fn(&ShardCell<I, V, B>) -> &AtomicU64| -> Vec<u64> {
            core.cells
                .iter()
                .map(|c| f(c).load(Ordering::SeqCst))
                .collect()
        };
        let mut r = DriverReport {
            items: 0,
            elapsed,
            per_shard_items: load(|c| &c.n.items),
            per_shard_admitted: load(|c| &c.n.admitted),
            per_shard_drained: load(|c| &c.n.drained),
            per_shard_dropped: load(|c| &c.n.dropped),
            per_shard_quarantined: load(|c| &c.n.quarantined),
            per_shard_recovered: load(|c| &c.n.recovered),
            per_shard_ring_high_water: load(|c| &c.n.ring_hw),
            ring_capacity,
            failures: Vec::new(),
            per_shard_backend: Vec::new(),
            lifecycle: ShardLifecycle::from_events(std::mem::take(&mut lock(&core.events))),
        };
        r.items = r.per_shard_items.iter().sum();
        let mut returned = Vec::with_capacity(core.cells.len());
        let mut health = Vec::with_capacity(core.cells.len());
        for (s, cell) in core.cells.into_iter().enumerate() {
            if let Some(b) = lock(&cell.outcome).take() {
                returned.push(b);
                health.push(match cell.n.restarts.into_inner() {
                    0 => ShardHealth::Healthy,
                    _ => ShardHealth::Restored,
                });
                continue;
            }
            r.failures.push(ShardFailure {
                shard: s,
                message: lock(&cell.failure)
                    .take()
                    .unwrap_or_else(|| "shard backend lost without a panic".into()),
                items_lost: r.per_shard_quarantined[s],
            });
            let mut fresh = self.fresh_shard(s);
            match lock(&cell.ckpt).take() {
                Some(CkptSlot { snap, .. }) => {
                    fresh.restore(&snap);
                    r.per_shard_recovered[s] += snap.len() as u64;
                    health.push(ShardHealth::Restored);
                }
                // Cold rebuild: the shard's conserved items are not
                // represented until new arrivals repopulate it.
                None => health.push(ShardHealth::Degraded),
            }
            returned.push(fresh);
        }
        self.restore_shards(returned);
        self.set_coverage(health, &r.per_shard_drained);
        r.per_shard_backend = self.shard_backend_labels();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{silence_fault_panics, FaultSchedule, FaultyBackend};
    use crate::sharded::ShardedQMax;
    use qmax_core::DeamortizedQMax;
    use qmax_traces::gen::{caida_like, random_u64_stream};

    fn sorted_vals(qm: &mut impl QMax<u64, u64>) -> Vec<u64> {
        let mut v: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        v.sort_unstable();
        v
    }

    fn assert_balanced(report: &DriverReport) {
        for s in 0..report.per_shard_items.len() {
            assert_eq!(
                report.per_shard_items[s],
                report.per_shard_drained[s]
                    + report.per_shard_dropped[s]
                    + report.per_shard_quarantined[s],
                "shard {s} accounting does not balance: {report:?}"
            );
            assert!(report.per_shard_admitted[s] <= report.per_shard_drained[s]);
            assert!(report.per_shard_ring_high_water[s] <= report.ring_capacity);
        }
    }

    #[test]
    fn threaded_run_matches_sequential_inserts() {
        let items: Vec<(u64, u64)> = random_u64_stream(60_000, 21)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let q = 128;
        for shards in [1usize, 2, 4] {
            let mut threaded: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            let report = threaded.run_threaded(items.iter().copied(), DriverConfig::default());
            assert_eq!(report.items, items.len() as u64);
            assert_eq!(report.per_shard_items.len(), shards);
            assert!(report.failures.is_empty());
            assert_eq!(report.dropped() + report.quarantined(), 0);
            assert_eq!(report.ring_capacity, 8);
            assert_balanced(&report);
            let mut sequential: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            for &(id, v) in &items {
                sequential.insert(id, v);
            }
            assert_eq!(
                sorted_vals(&mut threaded),
                sorted_vals(&mut sequential),
                "threaded result diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn ring_and_mpsc_reference_drivers_agree() {
        let items: Vec<(u64, u64)> = random_u64_stream(50_000, 44)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let q = 64;
        for shards in [1usize, 3] {
            let mut ring_engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            let ring_report =
                ring_engine.run_threaded(items.iter().copied(), DriverConfig::default());
            let mut mpsc_engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            let mpsc_report =
                mpsc_engine.run_threaded_mpsc(items.iter().copied(), DriverConfig::default());
            assert_eq!(ring_report.per_shard_items, mpsc_report.per_shard_items);
            assert_eq!(ring_report.per_shard_drained, mpsc_report.per_shard_drained);
            assert_eq!(
                ring_report.per_shard_admitted,
                mpsc_report.per_shard_admitted
            );
            assert_eq!(mpsc_report.ring_capacity, 0);
            assert_eq!(mpsc_report.per_shard_ring_high_water, vec![0; shards]);
            assert!(ring_report.per_shard_ring_high_water.iter().any(|&h| h > 0));
            assert_balanced(&ring_report);
            assert_balanced(&mpsc_report);
            assert_eq!(
                sorted_vals(&mut ring_engine),
                sorted_vals(&mut mpsc_engine),
                "ring and mpsc drivers diverged at {shards} shards"
            );
        }
    }

    #[test]
    fn partitioned_run_matches_reference() {
        let items: Vec<(u64, u64)> = random_u64_stream(60_000, 17)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let q = 64;
        for producers in [1usize, 2, 4] {
            let chunk = items.len().div_ceil(producers);
            let streams: Vec<_> = items.chunks(chunk).map(|c| c.iter().copied()).collect();
            let mut partitioned: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, 3);
            let report = partitioned.run_threaded_partitioned(streams, DriverConfig::default());
            assert_eq!(report.items, items.len() as u64);
            assert!(report.failures.is_empty());
            assert_eq!(report.dropped() + report.quarantined(), 0);
            assert_balanced(&report);
            let mut reference: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, 3);
            reference.insert_batch(&items);
            // The exact top-q is insensitive to sub-stream interleaving.
            assert_eq!(
                sorted_vals(&mut partitioned),
                sorted_vals(&mut reference),
                "partitioned result diverged at {producers} producers"
            );
        }
    }

    #[test]
    fn pinned_run_agrees_with_unpinned() {
        let items: Vec<(u64, u64)> = random_u64_stream(20_000, 5)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let mut pinned: ShardedQMax<u64, u64> = ShardedQMax::new(32, 0.25, 2);
        let report = pinned.run_threaded(
            items.iter().copied(),
            DriverConfig {
                pin_threads: true,
                ..DriverConfig::default()
            },
        );
        assert!(report.failures.is_empty());
        assert_balanced(&report);
        let mut plain: ShardedQMax<u64, u64> = ShardedQMax::new(32, 0.25, 2);
        plain.insert_batch(&items);
        assert_eq!(sorted_vals(&mut pinned), sorted_vals(&mut plain));
    }

    #[test]
    fn report_accounts_for_all_items() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(32, 0.5, 4);
        let items: Vec<(u64, u64)> = caida_like(50_000, 8)
            .map(|p| (p.flow().as_u64(), p.len as u64))
            .collect();
        let report = engine.run_threaded(items.into_iter(), DriverConfig::default());
        assert_eq!(report.items, 50_000);
        assert_eq!(report.per_shard_items.iter().sum::<u64>(), 50_000);
        assert_balanced(&report);
        let agg = engine.aggregate_stats();
        assert_eq!(agg.admitted, report.per_shard_admitted.iter().sum::<u64>());
        assert!(report.throughput_mips() > 0.0);
        assert!(report.max_load_factor() >= 1.0);
        assert_eq!(report.per_shard_backend, vec!["qmax-deamortized"; 4]);
        assert_eq!(report.per_shard_ring_high_water.len(), 4);
    }

    #[test]
    fn engine_remains_usable_after_threaded_run() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(8, 0.5, 2);
        let items: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i)).collect();
        engine.run_threaded(items.into_iter(), DriverConfig::default());
        // Post-run inserts land in the same structure.
        engine.insert(999_999, 1_000_000);
        let mut top = sorted_vals(&mut engine);
        assert_eq!(top.pop(), Some(1_000_000));
        assert_eq!(top.pop(), Some(9_999));
    }

    #[test]
    fn tiny_batches_and_shallow_queues_still_agree() {
        let items: Vec<(u64, u64)> = random_u64_stream(5_000, 33)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let q = 16;
        let mut a: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 3);
        a.run_threaded(
            items.iter().copied(),
            DriverConfig {
                batch_size: 1,
                queue_depth: 1,
                overload: OverloadPolicy::Block,
                ..DriverConfig::default()
            },
        );
        let mut b: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 3);
        b.insert_batch(&items);
        assert_eq!(sorted_vals(&mut a), sorted_vals(&mut b));
    }

    #[test]
    fn panicking_shard_is_quarantined_and_rebuilt() {
        let _silence = silence_fault_panics();
        let q = 32;
        let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
            ShardedQMax::with_backends(q, 3, move |s| {
                // FaultyBackend counts every offered item (its
                // insert_batch loops over insert), so panic_at(50)
                // fires early in shard 1's sub-stream.
                let schedule = if s == 1 {
                    FaultSchedule::panic_at(50)
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(DeamortizedQMax::new(q, 0.25), schedule)
            });
        let items: Vec<(u64, u64)> = random_u64_stream(20_000, 7)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let report = engine.run_threaded(items.iter().copied(), DriverConfig::default());
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].shard, 1);
        assert!(report.failures[0].message.contains("fault-injected"));
        assert_eq!(
            report.per_shard_quarantined[1],
            report.failures[0].items_lost
        );
        assert!(report.per_shard_quarantined[1] > 0);
        assert!(!report.is_healthy(1));
        assert_eq!(report.healthy_shards(), vec![0, 2]);
        assert_balanced(&report);
        // The rebuilt slot is empty but live: the engine answers queries
        // and accepts new items for shard 1.
        assert!(engine.shards()[1].is_empty());
        let top = engine.query();
        assert!(!top.is_empty());
    }

    #[test]
    fn panic_without_checkpoints_logs_a_quarantine_event() {
        let _silence = silence_fault_panics();
        let q = 16;
        let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
            ShardedQMax::with_backends(q, 2, move |s| {
                let schedule = match s {
                    0 => FaultSchedule::panic_at(10),
                    _ => FaultSchedule::none(),
                };
                FaultyBackend::new(DeamortizedQMax::new(q, 0.25), schedule)
            });
        let items: Vec<(u64, u64)> = (0..5_000u64).map(|i| (i, i)).collect();
        let report = engine.run_threaded(items.into_iter(), DriverConfig::default());
        // No checkpoint cadence and no watchdog: the same restart-or-retire
        // path runs, retires the shard, and logs why.
        let events = report.lifecycle.events();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(
            (events[0].shard, events[0].state),
            (0, ShardState::Quarantined)
        );
        assert!(events[0].detail.contains("fault-injected"), "{events:?}");
        assert_eq!(events[0].detail, report.failures[0].message);
        assert_eq!(report.lifecycle.final_state(1), ShardState::Healthy);
        assert_eq!(report.recovered(), 0);
        assert_balanced(&report);
    }

    #[test]
    fn shedding_bounds_loss_and_balances_accounting() {
        let q = 16;
        let budget = 2_000u64;
        let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
            ShardedQMax::with_backends(q, 2, move |s| {
                let schedule = if s == 0 {
                    // Slow shard 0 down so its ring actually fills.
                    FaultSchedule::stall_every(256, 2)
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(DeamortizedQMax::new(q, 0.5), schedule)
            });
        let items: Vec<(u64, u64)> = random_u64_stream(40_000, 99)
            .enumerate()
            .map(|(i, v)| (i as u64, v))
            .collect();
        let report = engine.run_threaded(
            items.iter().copied(),
            DriverConfig {
                batch_size: 64,
                queue_depth: 1,
                overload: OverloadPolicy::Shed {
                    max_dropped: budget,
                },
                ..DriverConfig::default()
            },
        );
        assert!(report.failures.is_empty());
        for &d in &report.per_shard_dropped {
            assert!(d <= budget, "shed {d} items, budget {budget}");
        }
        if report.per_shard_dropped[0] > 0 {
            // Shedding only fires against a full ring, so the stalled
            // shard's high-water must have pinned at capacity.
            assert!(report.saturated(0), "shed without saturation: {report:?}");
        }
        assert_balanced(&report);
    }

    #[test]
    fn max_load_factor_ignores_quarantined_shards() {
        let report = DriverReport {
            items: 300,
            elapsed: Duration::from_millis(1),
            per_shard_items: vec![100, 150, 50],
            per_shard_admitted: vec![10, 0, 5],
            per_shard_drained: vec![100, 20, 50],
            per_shard_dropped: vec![0, 0, 0],
            per_shard_quarantined: vec![0, 130, 0],
            per_shard_recovered: vec![0, 0, 0],
            per_shard_ring_high_water: vec![1, 8, 1],
            ring_capacity: 8,
            failures: vec![ShardFailure {
                shard: 1,
                message: "boom".into(),
                items_lost: 130,
            }],
            per_shard_backend: vec!["qmax-deamortized"; 3],
            lifecycle: ShardLifecycle::default(),
        };
        // Healthy shards carry 100 and 50 items: mean 75, max 100.
        assert!((report.max_load_factor() - 100.0 / 75.0).abs() < 1e-12);
        assert!(report.saturated(1));
        assert!(!report.saturated(0));

        // A single healthy shard is perfectly balanced by definition.
        let one_left = DriverReport {
            per_shard_items: vec![100, 150],
            per_shard_admitted: vec![10, 0],
            per_shard_drained: vec![100, 0],
            per_shard_quarantined: vec![0, 150],
            failures: vec![ShardFailure {
                shard: 1,
                message: "boom".into(),
                items_lost: 150,
            }],
            items: 250,
            elapsed: Duration::from_millis(1),
            per_shard_dropped: vec![0, 0],
            per_shard_recovered: vec![0, 0],
            per_shard_ring_high_water: vec![0, 0],
            ring_capacity: 8,
            per_shard_backend: vec!["qmax-deamortized"; 2],
            lifecycle: ShardLifecycle::default(),
        };
        assert_eq!(one_left.max_load_factor(), 1.0);

        // All shards quarantined: no load to balance.
        let none_left = DriverReport {
            per_shard_items: vec![100],
            per_shard_admitted: vec![0],
            per_shard_drained: vec![0],
            per_shard_quarantined: vec![100],
            failures: vec![ShardFailure {
                shard: 0,
                message: "boom".into(),
                items_lost: 100,
            }],
            items: 100,
            elapsed: Duration::from_millis(1),
            per_shard_dropped: vec![0],
            per_shard_recovered: vec![0],
            per_shard_ring_high_water: vec![0],
            ring_capacity: 8,
            per_shard_backend: vec!["qmax-deamortized"],
            lifecycle: ShardLifecycle::default(),
        };
        assert_eq!(none_left.max_load_factor(), 0.0);
    }
}
