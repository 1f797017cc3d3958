//! Checkpointed shard supervision: warm recovery, stall watchdogs, and
//! lifecycle accounting for the threaded driver.
//!
//! [`ShardedQMax::run_threaded`](crate::ShardedQMax::run_threaded)
//! isolates a failing shard but recovers it **cold**: the quarantined
//! backend is rebuilt empty from the factory, discarding the shard's
//! entire slice of the heavy-hitter state, and a *stalled* shard is
//! never detected at all. [`ShardedQMax::run_supervised`] runs the same
//! driver core with snapshot/restore hooks for its [`Checkpoint`]
//! backends and a watchdog thread, which upgrade both recovery paths:
//!
//! * **Checkpointing** — each worker snapshots its backend
//!   ([`qmax_core::Checkpoint`]) every
//!   [`DriverConfig::checkpoint_every`] drained items, at batch
//!   boundaries. A panicking shard warm-restores from its last
//!   checkpoint in place (the backend survives the unwind; `restore`
//!   fully overwrites whatever the panic left behind), so post-fault
//!   loss is bounded by one checkpoint interval plus the in-flight
//!   batch, instead of the whole shard.
//! * **Stall watchdog** — the heartbeat is a per-shard counter the
//!   owning worker generation bumps per popped batch, plus an explicit
//!   bump per recovery step; the watchdog reads it, and the count of
//!   batches pending for that generation, lock-free every
//!   [`WatchdogConfig::poll_interval`], and declares a shard stalled
//!   when the heartbeat has been silent for
//!   [`WatchdogConfig::deadline`] while batches are pending. A stalled
//!   shard is restarted with bounded retries and exponential backoff
//!   with deterministic jitter: a spare backend (pre-stamped from the
//!   factory) is warm-restored from the last checkpoint and takes over
//!   on fresh rings left in the shard's hand-off slot, which the
//!   producer adopts before its next push; the abandoned worker drains
//!   its leftover batches into the quarantine bucket when it eventually
//!   wakes. While a worker is stalled behind a full ring the producer
//!   keeps try-pushing against it, so the shard's ring high-water
//!   ([`DriverReport::per_shard_ring_high_water`]) pins at capacity —
//!   the occupancy-level symptom of the stall — before failover swaps
//!   the ring out (high-water marks fold across worker generations).
//! * **Lifecycle log** — every transition
//!   (`Healthy → Suspect → Restarting(n) → Quarantined`, and the
//!   recovery back to `Healthy`) is recorded as a [`LifecycleEvent`]
//!   with a live coverage estimate, and returned as the
//!   [`ShardLifecycle`] on [`DriverReport::lifecycle`].
//!
//! # Accounting
//!
//! The conservation law holds per shard:
//! `items == drained + dropped + quarantined` (plus nothing else). With
//! checkpointing enabled, `drained` is *stricter* than in
//! `run_threaded`: items whose effect was lost with a failure — drained
//! after the last surviving checkpoint — are **reclassified** from
//! drained to quarantined at recovery time, so `per_shard_drained`
//! counts exactly the items represented in the final shard state, each
//! exactly once. [`DriverReport::per_shard_recovered`] counts the
//! candidate entries re-adopted from checkpoints by warm restores.
//!
//! # Bounds and caveats
//!
//! The watchdog cannot kill a thread: a stalled worker is *abandoned*,
//! not destroyed, and `run_supervised` still joins it before returning.
//! A worker stalled forever therefore wedges the run — the watchdog
//! bounds the *measurement outage* (a replacement takes over within
//! `deadline + backoff`), not the join. The fault harness only scripts
//! finite stalls.

use crate::driver::{lock, Core, DriverConfig, DriverReport, Recovery, Streams, RETIRED};
use crate::shard_key::ShardKey;
use crate::sharded::ShardedQMax;
use qmax_core::{BackendSnapshot, BatchInsert, Checkpoint};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

/// Stall-detection and restart policy for
/// [`ShardedQMax::run_supervised`].
///
/// Also supplies the restart budget and backoff schedule used by the
/// in-worker panic recovery path, so panic storms and stalls draw from
/// the same bounded per-shard budget.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Heartbeat silence (with batches pending) after which a shard is
    /// declared stalled and restarted. Half the deadline marks it
    /// [`ShardState::Suspect`] first.
    pub deadline: Duration,
    /// Supervisor sweep period; detection latency is at most
    /// `deadline + poll_interval`.
    pub poll_interval: Duration,
    /// Restarts (panic or stall) allowed per shard before permanent
    /// quarantine.
    pub max_restarts: u32,
    /// Backoff before restart attempt `n` is `backoff_base · 2ⁿ⁻¹`,
    /// scaled by the jitter factor.
    pub backoff_base: Duration,
    /// Jitter fraction: each backoff is multiplied by a deterministic
    /// pseudorandom factor in `[1, 1 + backoff_jitter]`, derived from
    /// `seed`, the shard index, and the attempt number.
    pub backoff_jitter: f64,
    /// Seed for the jitter generator — same seed, same backoff
    /// schedule, which is what keeps chaos runs reproducible.
    pub seed: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            deadline: Duration::from_millis(200),
            poll_interval: Duration::from_millis(20),
            max_restarts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_jitter: 0.5,
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// A shard's position in the supervision state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Draining batches normally (also the post-recovery state).
    Healthy,
    /// Heartbeat silent with batches pending for at least half the
    /// watchdog deadline; not yet restarted.
    Suspect,
    /// Being restarted (attempt `n`, 1-based): backoff, warm restore,
    /// and — for stalls — worker replacement are in progress.
    Restarting(u32),
    /// Restart budget exhausted; the shard is permanently out of the
    /// run. At run end its slot is still warm-rebuilt from the last
    /// checkpoint.
    Quarantined,
}

/// One supervision state transition, stamped with run-relative time and
/// a live coverage estimate.
#[derive(Debug, Clone)]
pub struct LifecycleEvent {
    /// Shard the transition applies to.
    pub shard: usize,
    /// The state entered.
    pub state: ShardState,
    /// Time since the run started.
    pub at: Duration,
    /// Restart attempts consumed by this shard so far (panics and
    /// stalls combined).
    pub restarts: u32,
    /// Live coverage at the transition: the fraction of all drained
    /// (conserved) items held by shards that were healthy at that
    /// instant. Dips below 1.0 while a shard is suspect, restarting, or
    /// quarantined with state on board; returns to 1.0 once a warm
    /// restore re-adopts the shard's checkpoint.
    pub coverage: f64,
    /// Human-readable cause (panic message, "stall deadline exceeded",
    /// …).
    pub detail: String,
}

/// The ordered transition log of a supervised run.
#[derive(Debug, Clone, Default)]
pub struct ShardLifecycle {
    events: Vec<LifecycleEvent>,
}

impl ShardLifecycle {
    pub(crate) fn from_events(mut events: Vec<LifecycleEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        ShardLifecycle { events }
    }

    /// All transitions, ordered by time.
    pub fn events(&self) -> &[LifecycleEvent] {
        &self.events
    }

    /// Whether no transitions were recorded (a fully healthy run).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Restart attempts recorded for shard `s`.
    pub fn restarts(&self, s: usize) -> u32 {
        self.events
            .iter()
            .filter(|e| e.shard == s)
            .filter_map(|e| match e.state {
                ShardState::Restarting(n) => Some(n),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// The last state recorded for shard `s` ([`ShardState::Healthy`]
    /// if the shard never left it).
    pub fn final_state(&self, s: usize) -> ShardState {
        self.events
            .iter()
            .rev()
            .find(|e| e.shard == s)
            .map(|e| e.state)
            .unwrap_or(ShardState::Healthy)
    }

    /// The lowest live coverage observed across all transitions (1.0
    /// for a healthy run).
    pub fn min_coverage(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.coverage)
            .fold(1.0f64, f64::min)
    }
}

/// splitmix64 — the repo-standard deterministic mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic exponential backoff with jitter: `base · 2ⁿ⁻¹ ·
/// jitter(seed, shard, n)`, capped at 5 s.
pub(crate) fn backoff_delay(wd: &WatchdogConfig, shard: usize, attempt: u32) -> Duration {
    let doubling = attempt.saturating_sub(1).min(16);
    let base = wd.backoff_base.saturating_mul(1u32 << doubling);
    let r = splitmix64(wd.seed ^ ((shard as u64) << 32) ^ attempt as u64);
    let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 + wd.backoff_jitter.max(0.0) * unit;
    base.mul_f64(factor).min(Duration::from_secs(5))
}

/// A shard's latest checkpoint, with the counters at snapshot time
/// (needed to reclassify post-checkpoint progress as lost on recovery).
pub(crate) struct CkptSlot<I, V> {
    pub(crate) snap: BackendSnapshot<I, V>,
    pub(crate) drained_at: u64,
    pub(crate) admitted_at: u64,
}

/// The supervision side of the driver core: lifecycle events, recovery
/// bookkeeping, and the watchdog thread.
impl<I, V, B> Core<I, V, B>
where
    I: ShardKey + Send,
    V: Ord + Clone + Send,
    B: BatchInsert<I, V> + Send,
{
    /// Records a transition with the live coverage: the fraction of all
    /// drained (conserved) items held by shards not degraded right now.
    pub(crate) fn push_event(&self, shard: usize, state: ShardState, detail: impl Into<String>) {
        let (mut total, mut represented) = (0u64, 0u64);
        for cell in &self.cells {
            let d = cell.n.drained.load(Ordering::SeqCst);
            total += d;
            if !cell.n.degraded.load(Ordering::SeqCst) {
                represented += d;
            }
        }
        let event = LifecycleEvent {
            shard,
            state,
            at: self.start.elapsed(),
            restarts: self.cells[shard].n.restarts.load(Ordering::SeqCst),
            coverage: 1.0 - (total - represented) as f64 / total.max(1) as f64,
            detail: detail.into(),
        };
        lock(&self.events).push(event);
    }

    /// Rolls shard `s`'s drained/admitted counters back to its last
    /// checkpoint, charging the difference as quarantined. Called with
    /// the generation already fenced, so no worker races the store.
    pub(crate) fn reclassify_to_checkpoint(&self, s: usize) {
        let (n, slot) = (&self.cells[s].n, lock(&self.cells[s].ckpt));
        let (drained_at, admitted_at) = slot
            .as_ref()
            .map_or((0, 0), |c| (c.drained_at, c.admitted_at));
        let lost = n.drained.load(Ordering::SeqCst).saturating_sub(drained_at);
        n.drained.store(drained_at, Ordering::SeqCst);
        n.admitted.store(admitted_at, Ordering::SeqCst);
        n.quarantined.fetch_add(lost, Ordering::SeqCst);
    }

    /// Restores `b` from shard `s`'s last checkpoint, counting the
    /// re-adopted entries — or, with none taken yet, from an empty
    /// snapshot if `or_empty` (else `b` is left as it is).
    pub(crate) fn restore_checkpoint(&self, s: usize, b: &mut B, or_empty: bool) {
        let Some(rec) = &self.recovery else { return };
        match &*lock(&self.cells[s].ckpt) {
            Some(CkptSlot { snap, .. }) => {
                (rec.restore)(b, snap);
                self.cells[s]
                    .n
                    .recovered
                    .fetch_add(snap.len() as u64, Ordering::SeqCst);
            }
            None if or_empty => (rec.restore)(b, &BackendSnapshot::empty()),
            None => {}
        }
    }

    /// The watchdog thread: every `poll_interval` until the run closes,
    /// compares each shard's heartbeat with the last sweep's. Silent with
    /// batches pending for `deadline / 2` marks the shard Suspect; for
    /// `deadline`, fails it over to a warm-restored spare on fresh rings
    /// (or, past the restart budget, retires it for good).
    pub(crate) fn watchdog<'scope>(
        &'scope self,
        scope: &'scope thread::Scope<'scope, '_>,
        mut spares: Vec<Vec<B>>,
    ) {
        use ShardState::{Healthy, Quarantined, Restarting, Suspect};
        let wd = self.config.watchdog.unwrap_or_default();
        let mut last_heart = vec![0u64; self.cells.len()];
        let mut last_change = vec![Instant::now(); self.cells.len()];
        let mut suspect = vec![false; self.cells.len()];
        while !self.closing.load(Ordering::SeqCst) {
            // The run unparks this thread when it closes.
            thread::park_timeout(wd.poll_interval);
            let now = Instant::now();
            for (s, n) in self.cells.iter().map(|c| &c.n).enumerate() {
                if self.closing.load(Ordering::SeqCst) {
                    return;
                }
                let h = n.beats.load(Ordering::SeqCst);
                if n.gen.load(Ordering::SeqCst) == RETIRED {
                    continue;
                } else if h != last_heart[s] || n.restoring.load(Ordering::SeqCst) {
                    (last_heart[s], last_change[s]) = (h, now);
                    if std::mem::take(&mut suspect[s]) {
                        n.degraded.store(false, Ordering::SeqCst);
                        self.push_event(s, Healthy, "heartbeat resumed");
                    }
                    continue;
                } else if n.pending() <= 0 {
                    // Idle, not stalled: nothing to drain.
                    last_change[s] = now;
                    continue;
                }
                let silent = now.duration_since(last_change[s]);
                if !suspect[s] && silent >= wd.deadline / 2 {
                    suspect[s] = true;
                    n.degraded.store(true, Ordering::SeqCst);
                    self.push_event(s, Suspect, "heartbeat silent with batches pending");
                }
                if silent < wd.deadline {
                    continue;
                }
                // Stall confirmed.
                let attempt = n.restarts.fetch_add(1, Ordering::SeqCst) + 1;
                if attempt > wd.max_restarts {
                    self.retire_shard(s);
                    self.reclassify_to_checkpoint(s);
                    let budget = wd.max_restarts;
                    let msg = format!("stalled worker exceeded restart budget ({budget})");
                    *lock(&self.cells[s].failure) = Some(msg);
                    self.push_event(s, Quarantined, "stall restart budget exhausted");
                    suspect[s] = false;
                    continue;
                }
                self.push_event(s, Restarting(attempt), "stall deadline exceeded");
                thread::sleep(backoff_delay(&wd, s, attempt));
                let Some(mut spare) = spares[s].pop() else {
                    continue;
                };
                // Fence the stalled generation first so it can no longer
                // commit progress, then roll the counters back to the
                // checkpoint the replacement resumes from. Batches
                // stranded in the stalled worker's rings stop counting
                // as pending: the replacement starts with none.
                let gen = n.gen.fetch_add(1, Ordering::SeqCst) + 1;
                n.reset_pending(gen);
                self.reclassify_to_checkpoint(s);
                self.restore_checkpoint(s, &mut spare, false);
                // The producer adopts the fresh rings before its next
                // push; handing them off retires the stalled
                // generation's rings, folding their high-water (pinned
                // at capacity if the producer beat against them).
                let (rings, inbound) = self.rings();
                if !self.hand_off(s, gen, rings) {
                    // Shutdown raced the failover: the stalled worker
                    // drains its leftovers as quarantined; no
                    // replacement comes online.
                    continue;
                }
                scope.spawn(move || self.worker(s, gen, spare, inbound));
                n.degraded.store(false, Ordering::SeqCst);
                suspect[s] = false;
                (last_heart[s], last_change[s]) = (n.beats.load(Ordering::SeqCst), Instant::now());
                self.push_event(s, Healthy, "replacement worker online after warm restore");
            }
        }
    }
}

impl<I, V, B> ShardedQMax<I, V, B>
where
    I: ShardKey + Send,
    V: Ord + Clone + Send,
    B: BatchInsert<I, V> + Checkpoint<I, V> + Send,
{
    /// [`ShardedQMax::run_threaded`] with supervision: checkpointed
    /// warm recovery for panicking shards, a stall watchdog with
    /// bounded-backoff worker replacement, and a full
    /// [`ShardLifecycle`] transition log on the report. It is the same
    /// driver core, handed the backends' snapshot/restore hooks and,
    /// with a configured watchdog, the watchdog thread.
    ///
    /// * With [`DriverConfig::checkpoint_every`] set, each worker
    ///   snapshots its backend on that drained-item cadence (at batch
    ///   boundaries) and a panicking shard warm-restores from the last
    ///   checkpoint in place, losing at most one checkpoint interval
    ///   plus the in-flight batch. Without it, panics follow the cold
    ///   quarantine path of [`ShardedQMax::run_threaded`].
    /// * With [`DriverConfig::watchdog`] set, a supervisor thread
    ///   replaces stalled workers (heartbeat silent past the deadline
    ///   with batches pending) from pre-stamped spare backends, warm
    ///   restored from the last checkpoint, after exponential backoff
    ///   with deterministic jitter.
    /// * Either way, a shard that exhausts
    ///   [`WatchdogConfig::max_restarts`] is permanently quarantined;
    ///   its slot is still warm-rebuilt from its last checkpoint after
    ///   the run (cold only if no checkpoint was ever taken).
    ///
    /// After the run, [`ShardedQMax::query_with_coverage`] annotates
    /// merged queries with the surviving coverage fraction.
    pub fn run_supervised<S>(&mut self, stream: S, config: DriverConfig) -> DriverReport
    where
        S: Iterator<Item = (I, V)>,
    {
        let recovery = Recovery {
            snapshot: <B as Checkpoint<I, V>>::snapshot,
            restore: <B as Checkpoint<I, V>>::restore,
        };
        let streams = Streams::<S, std::iter::Empty<(I, V)>>::Caller(stream);
        self.drive(streams, config, Some(recovery))
    }
}
