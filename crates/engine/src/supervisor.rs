//! Checkpointed shard supervision: warm recovery, the stall watchdog,
//! and lifecycle accounting for the threaded driver.
//!
//! Every driven backend implements [`Checkpoint`], so the driver core
//! has one recovery path and supervision is purely configuration: a
//! [`checkpoint_every`](crate::DriverConfig::checkpoint_every) cadence
//! makes a panicking shard restore **warm** from its last snapshot
//! instead of being rebuilt cold, and a
//! [`watchdog`](crate::DriverConfig::watchdog) starts the thread that
//! detects *stalled* shards. Every supervision decision lives here, in
//! three pieces:
//!
//! * **Pure detector** — `Watchdog::tick` turns one `Observation` per
//!   shard (heartbeat, generation-tagged pending count, retired,
//!   restoring) and the time since the run started into `Suspect`,
//!   `Resumed` and `Stalled` verdicts: silent for half of
//!   [`WatchdogConfig::deadline`] with batches pending is suspect, for
//!   the whole deadline stalled. It touches no atomics, locks, threads
//!   or clock, so it is tested on a virtual clock. The heartbeat is a
//!   counter the owning worker generation bumps per popped batch and
//!   once per warm restore.
//! * **Shell thread** — every [`WatchdogConfig::poll_interval`] the
//!   watchdog thread reads the counters lock-free, calls `tick`, and
//!   applies the verdicts: lifecycle transitions, or a failover. A
//!   failover fences the stalled generation, then restarts the shard
//!   on a spare backend (pre-stamped from the factory, warm-restored
//!   from the last checkpoint) behind fresh rings in the shard's
//!   hand-off slot, which the producer adopts before its next push.
//!   The abandoned worker drains its leftovers as quarantined when it
//!   wakes. While it is stalled behind a full ring the producer keeps
//!   try-pushing, so the shard's ring high-water pins at capacity
//!   before the failover swaps the ring out.
//! * **One restart-or-retire path** — a caught panic (restarting in
//!   place, the backend surviving the unwind) and a stall both call
//!   `Core::restart_or_retire`: one attempt from the per-shard
//!   [`WatchdogConfig::max_restarts`] budget, then `Restarting(n)` and
//!   a backoff with deterministic jitter before the restore, or
//!   retirement as `Quarantined`. Every transition is a
//!   [`LifecycleEvent`] with a live coverage estimate, returned as the
//!   [`ShardLifecycle`] on the report.
//!
//! # Accounting
//!
//! The conservation law holds per shard:
//! `items == drained + dropped + quarantined`. Items drained after the
//! last checkpoint are **reclassified** from drained to quarantined on
//! every restart (the restore rolls back to the checkpoint) and on a
//! retirement when a checkpoint exists (reassembly rebuilds from it),
//! so with checkpointing `per_shard_drained` counts exactly the items
//! the final shard state represents, each once. A shard rebuilt cold
//! keeps its drained count, which is what keeps coverage below 1.0.
//! `per_shard_recovered` counts the candidate entries re-adopted from
//! checkpoints by warm restores.
//!
//! # Bounds and caveats
//!
//! The watchdog cannot kill a thread: a stalled worker is *abandoned*,
//! not destroyed, and the run still joins it before returning.
//! A worker stalled forever therefore wedges the run — the watchdog
//! bounds the *measurement outage* (a replacement takes over within
//! `deadline + backoff`), not the join. The fault harness only scripts
//! finite stalls.

use crate::driver::{lock, Core, RETIRED};
use crate::shard_key::ShardKey;
use qmax_core::{BackendSnapshot, BatchInsert, Checkpoint};
use std::sync::atomic::Ordering;
use std::thread;
use std::time::Duration;

/// Stall-detection and restart policy for the threaded drivers
/// ([`DriverConfig::watchdog`](crate::DriverConfig::watchdog)).
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
/// jitter(seed, shard, n)`, capped at 5 s (also when the product would
/// overflow a `Duration`).
pub(crate) fn backoff_delay(wd: &WatchdogConfig, shard: usize, attempt: u32) -> Duration {
    let cap = Duration::from_secs(5);
    let doubling = attempt.saturating_sub(1).min(16);
    let base = wd.backoff_base.saturating_mul(1u32 << doubling);
    let r = splitmix64(wd.seed ^ ((shard as u64) << 32) ^ attempt as u64);
    let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 + wd.backoff_jitter.max(0.0) * unit;
    Duration::try_from_secs_f64(base.min(cap).as_secs_f64() * factor).map_or(cap, |d| d.min(cap))
}

/// A shard's latest checkpoint, with the counters at snapshot time
/// (needed to reclassify post-checkpoint progress as lost on recovery).
pub(crate) struct CkptSlot<I, V> {
    pub(crate) snap: BackendSnapshot<I, V>,
    pub(crate) drained_at: u64,
    pub(crate) admitted_at: u64,
}

/// What the watchdog thread reads of one shard per sweep, lock-free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Observation {
    /// The heartbeat counter.
    pub(crate) beats: u64,
    /// Batches pending for the owning generation (≤ 0 when idle).
    pub(crate) pending: i32,
    /// Quarantined for good: no longer watched.
    pub(crate) retired: bool,
    /// Self-restoring after a panic, so its backoff is not a stall.
    pub(crate) restoring: bool,
}

/// A verdict of [`Watchdog::tick`] for the watchdog thread to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Silent for `deadline / 2` with batches pending.
    Suspect(usize),
    /// A suspect shard's heartbeat moved again.
    Resumed(usize),
    /// Silent for `deadline` with batches pending: fail the shard over.
    Stalled(usize),
}

/// The stall detector: per-shard silence bookkeeping over observations
/// and an injected clock (time since the run started). It reads no
/// atomics, takes no locks and never looks at the wall clock, so it is
/// tested on a virtual clock.
pub(crate) struct Watchdog {
    pub(crate) config: WatchdogConfig,
    /// Per shard: the last heartbeat seen, when the shard was last seen
    /// active (`None`: re-baseline at the next sweep), and whether it is
    /// suspect.
    shards: Vec<(u64, Option<Duration>, bool)>,
}

impl Watchdog {
    pub(crate) fn new(config: WatchdogConfig, shards: usize) -> Self {
        let shards = vec![(0, Some(Duration::ZERO), false); shards];
        Watchdog { config, shards }
    }

    /// One sweep at time `now` over one observation per shard. A moved
    /// heartbeat, a self-restore or an empty queue is activity; silence
    /// is the time since the last activity. A `Stalled` shard is
    /// forgotten until the next sweep, which re-baselines it after the
    /// thread resolved the stall (restart or retire).
    pub(crate) fn tick(&mut self, obs: &[Observation], now: Duration) -> Vec<Action> {
        let mut actions = Vec::new();
        for (s, (o, (heart, since, suspect))) in obs.iter().zip(&mut self.shards).enumerate() {
            if o.retired {
                continue;
            }
            let Some(quiet) = since.filter(|_| o.beats == *heart && !o.restoring) else {
                (*heart, *since) = (o.beats, Some(now));
                if std::mem::take(suspect) {
                    actions.push(Action::Resumed(s));
                }
                continue;
            };
            if o.pending <= 0 {
                // Idle, not stalled: nothing to drain.
                *since = Some(now);
                continue;
            }
            let silent = now.saturating_sub(quiet);
            if !*suspect && silent >= self.config.deadline / 2 {
                *suspect = true;
                actions.push(Action::Suspect(s));
            }
            if silent >= self.config.deadline {
                (*since, *suspect) = (None, false);
                actions.push(Action::Stalled(s));
            }
        }
        actions
    }
}

/// The supervision side of the driver core: the one restart-or-retire
/// decision, lifecycle transitions, and the watchdog thread.
impl<I, V, B> Core<I, V, B>
where
    I: ShardKey + Send,
    V: Ord + Clone + Send,
    B: BatchInsert<I, V> + Checkpoint<I, V> + Send,
{
    /// Enters `state` for shard `s`: marks it out of live coverage
    /// unless healthy, and records the transition with the live
    /// coverage — the fraction of all drained (conserved) items held by
    /// shards not degraded right now.
    pub(crate) fn transition(&self, s: usize, state: ShardState, detail: impl Into<String>) {
        let n = &self.cells[s].n;
        n.degraded
            .store(state != ShardState::Healthy, Ordering::SeqCst);
        let (mut total, mut represented) = (0u64, 0u64);
        for c in &self.cells {
            let d = c.n.drained.load(Ordering::SeqCst);
            total += d;
            if !c.n.degraded.load(Ordering::SeqCst) {
                represented += d;
            }
        }
        let event = LifecycleEvent {
            shard: s,
            state,
            at: self.start.elapsed(),
            restarts: n.restarts.load(Ordering::SeqCst),
            coverage: 1.0 - (total - represented) as f64 / total.max(1) as f64,
            detail: detail.into(),
        };
        lock(&self.events).push(event);
    }

    /// The one decision for a failed shard — a caught panic or a stall
    /// with its generation already fenced. It spends one restart
    /// attempt; if `restartable` and within
    /// [`WatchdogConfig::max_restarts`], the shard enters
    /// `Restarting(attempt)` and the attempt is returned for the caller
    /// to back off and restore. Otherwise the shard enters
    /// `Quarantined` for good with `cause` as its failure, naming the
    /// budget when it ran out.
    ///
    /// One reclassification rule: progress since the last checkpoint is
    /// charged from drained to quarantined on every restart (the restore
    /// rolls back to it), and on a retirement only when a checkpoint
    /// exists for reassembly to rebuild from. A cold-rebuilt shard keeps
    /// its drained count, so coverage shows what the rebuild lost.
    pub(crate) fn restart_or_retire(
        &self,
        s: usize,
        restartable: bool,
        cause: &str,
    ) -> Option<u32> {
        let (cell, wd) = (&self.cells[s], self.config.watchdog.unwrap_or_default());
        let n = &cell.n;
        let attempt = n.restarts.fetch_add(1, Ordering::SeqCst) + 1;
        let restart = restartable && attempt <= wd.max_restarts;
        if !restart {
            // Permanent quarantine: fences every worker generation out,
            // and producers orphan the rest of the sub-stream once they
            // notice.
            n.gen.store(RETIRED, Ordering::SeqCst);
            self.hand_off(s, RETIRED, Vec::new());
        }
        let slot = lock(&cell.ckpt);
        if restart || slot.is_some() {
            let (drained_at, admitted_at) = slot
                .as_ref()
                .map_or((0, 0), |c| (c.drained_at, c.admitted_at));
            let lost = n.drained.load(Ordering::SeqCst).saturating_sub(drained_at);
            n.drained.store(drained_at, Ordering::SeqCst);
            n.admitted.store(admitted_at, Ordering::SeqCst);
            n.quarantined.fetch_add(lost, Ordering::SeqCst);
        }
        drop(slot);
        if restart {
            self.transition(s, ShardState::Restarting(attempt), cause);
            return Some(attempt);
        }
        let mut cause = cause.to_string();
        if restartable {
            cause += &format!("; restart budget ({}) exhausted", wd.max_restarts);
        }
        *lock(&cell.failure) = Some(cause.clone());
        self.transition(s, ShardState::Quarantined, cause);
        None
    }

    /// Sleeps restart `attempt`'s backoff, then restores `b` from shard
    /// `s`'s last checkpoint (an empty snapshot if none was taken),
    /// counting the re-adopted entries.
    pub(crate) fn back_off_and_restore(&self, s: usize, attempt: u32, b: &mut B) {
        let wd = self.config.watchdog.unwrap_or_default();
        thread::sleep(backoff_delay(&wd, s, attempt));
        let cell = &self.cells[s];
        let slot = lock(&cell.ckpt);
        let snap = slot.as_ref().map(|c| &c.snap);
        b.restore(snap.unwrap_or(&BackendSnapshot::empty()));
        let recovered = snap.map_or(0, |snap| snap.len() as u64);
        cell.n.recovered.fetch_add(recovered, Ordering::SeqCst);
    }

    /// The watchdog thread, a shell around [`Watchdog::tick`]: every
    /// `poll_interval` until the run closes it reads each shard's
    /// counters, ticks the detector, and applies its verdicts.
    pub(crate) fn watchdog<'scope>(
        &'scope self,
        scope: &'scope thread::Scope<'scope, '_>,
        config: WatchdogConfig,
        mut spares: Vec<Vec<B>>,
    ) {
        let mut detector = Watchdog::new(config, self.cells.len());
        while !self.closing.load(Ordering::SeqCst) {
            // The run unparks this thread when it closes.
            thread::park_timeout(detector.config.poll_interval);
            let obs: Vec<Observation> = (self.cells.iter().map(|c| &c.n))
                .map(|n| Observation {
                    beats: n.beats.load(Ordering::SeqCst),
                    pending: n.pending(),
                    retired: n.gen.load(Ordering::SeqCst) == RETIRED,
                    restoring: n.restoring.load(Ordering::SeqCst),
                })
                .collect();
            for action in detector.tick(&obs, self.start.elapsed()) {
                if self.closing.load(Ordering::SeqCst) {
                    return;
                }
                match action {
                    Action::Suspect(s) => {
                        let detail = "heartbeat silent with batches pending";
                        self.transition(s, ShardState::Suspect, detail);
                    }
                    Action::Resumed(s) => {
                        self.transition(s, ShardState::Healthy, "heartbeat resumed")
                    }
                    Action::Stalled(s) => self.fail_over(scope, s, &mut spares[s]),
                }
            }
        }
    }

    /// Fails stalled shard `s` over: fences the stalled generation so it
    /// can no longer commit progress (batches stranded in its rings stop
    /// counting as pending; it drains them as quarantined when it
    /// wakes), then restarts or retires the shard. A restart backs off,
    /// warm-restores a spare, and leaves fresh rings in the hand-off
    /// slot, which the producer adopts before its next push.
    fn fail_over<'scope>(
        &'scope self,
        scope: &'scope thread::Scope<'scope, '_>,
        s: usize,
        spares: &mut Vec<B>,
    ) {
        let n = &self.cells[s].n;
        let gen = n.gen.fetch_add(1, Ordering::SeqCst) + 1;
        n.reset_pending(gen);
        let Some(attempt) = self.restart_or_retire(s, true, "stall deadline exceeded") else {
            return;
        };
        // `drive` stamps one spare per restart the budget allows.
        let mut spare = spares.pop().expect("a spare per restart attempt");
        self.back_off_and_restore(s, attempt, &mut spare);
        // Handing the rings off retires the stalled generation's,
        // folding their high-water (pinned at capacity if the producer
        // beat against them).
        let (rings, inbound) = self.rings();
        if self.hand_off(s, gen, rings) {
            scope.spawn(move || self.worker(s, gen, spare, inbound));
            let detail = "replacement worker online after warm restore";
            self.transition(s, ShardState::Healthy, detail);
        } else {
            // Shutdown raced the failover: no replacement comes online,
            // but the restored spare still owns the shard at the end.
            *lock(&self.cells[s].outcome) = Some(spare);
            let detail = "run closed during failover; restored spare handed to reassembly";
            self.transition(s, ShardState::Healthy, detail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config(base_ms: u64, jitter: f64, seed: u64) -> WatchdogConfig {
        WatchdogConfig {
            backoff_base: Duration::from_millis(base_ms),
            backoff_jitter: jitter,
            seed,
            ..WatchdogConfig::default()
        }
    }

    #[test]
    fn backoff_doubles_within_the_jitter_band() {
        for (seed, jitter) in [(0, 0.0), (7, 0.5), (u64::MAX, 1.0)] {
            let wd = config(3, jitter, seed);
            for shard in 0..4 {
                for attempt in 1..=8u32 {
                    let low = Duration::from_millis(3 << (attempt - 1));
                    let delay = backoff_delay(&wd, shard, attempt);
                    assert!(delay >= low, "{delay:?} < {low:?}");
                    assert!(delay <= low.mul_f64(1.0 + jitter), "{delay:?} above band");
                }
            }
        }
        // No jitter: exactly the doubling; attempt 0 backs off like 1.
        let wd = config(3, 0.0, 1);
        assert_eq!(backoff_delay(&wd, 0, 0), Duration::from_millis(3));
        assert_eq!(backoff_delay(&wd, 0, 4), Duration::from_millis(24));
    }

    #[test]
    fn backoff_is_capped_at_five_seconds() {
        let cap = Duration::from_secs(5);
        let wd = config(100, 0.5, 9);
        // 100 ms · 2⁶ = 6.4 s already exceeds the cap.
        assert_eq!(backoff_delay(&wd, 1, 7), cap);
        // A 4 s base stays under the cap only on its first attempt.
        let slow = config(4_000, 0.25, 9);
        assert!(backoff_delay(&slow, 0, 1) < cap);
        assert_eq!(backoff_delay(&slow, 0, 2), cap);
        // Jitter too large for a `Duration` is capped, not a panic.
        assert_eq!(backoff_delay(&config(1, f64::MAX, 9), 0, 1), cap);
        for attempt in 1..64 {
            assert!(backoff_delay(&wd, 2, attempt) <= cap);
        }
    }

    #[test]
    fn backoff_doubling_saturates_at_large_attempts() {
        // Sub-millisecond base so the cap does not hide the doubling:
        // it stops at 2¹⁶ and never overflows.
        let wd = WatchdogConfig {
            backoff_base: Duration::from_nanos(10),
            backoff_jitter: 0.0,
            ..WatchdogConfig::default()
        };
        let top = Duration::from_nanos(10 << 16);
        assert_eq!(backoff_delay(&wd, 0, 17), top);
        for attempt in [18, 1_000, u32::MAX] {
            assert_eq!(backoff_delay(&wd, 0, attempt), top);
        }
        let huge = WatchdogConfig {
            backoff_base: Duration::MAX,
            ..wd
        };
        assert_eq!(backoff_delay(&huge, 0, u32::MAX), Duration::from_secs(5));
    }

    #[test]
    fn backoff_is_deterministic_in_seed_shard_and_attempt() {
        let (a, b) = (config(10, 0.5, 42), config(10, 0.5, 42));
        let schedule = |wd: &WatchdogConfig| -> Vec<Duration> {
            (0..4)
                .flat_map(|s| (1..6).map(move |n| (s, n)))
                .map(|(s, n)| backoff_delay(wd, s, n))
                .collect()
        };
        assert_eq!(schedule(&a), schedule(&b));
        // The jitter really depends on each input.
        assert_ne!(schedule(&a), schedule(&config(10, 0.5, 43)));
        let jittered =
            |s, n| backoff_delay(&a, s, n).as_nanos() as f64 / (10e6 * f64::from(1 << (n - 1)));
        assert_ne!(jittered(0, 1), jittered(1, 1));
        assert_ne!(jittered(0, 1), jittered(0, 2));
    }

    /// Per shard and sweep: (heartbeat moves if 0, pending, restoring if
    /// 0, retired from here on if 0).
    type ShardTrace = (u8, i32, u8, u8);

    proptest! {
        /// The detector on a virtual clock against the definition of
        /// silence: the time since the shard was last active — its
        /// heartbeat moved since its previous watched sweep, it was
        /// restoring or idle, or it was declared stalled at its previous
        /// watched sweep (the sweep after a stall re-baselines).
        #[test]
        fn watchdog_verdicts_follow_silence(
            deadline_ms in 2u64..120,
            sweeps in prop::collection::vec(
                (0u64..50, prop::collection::vec((0u8..4, -1i32..4, 0u8..8, 0u8..64), 3)),
                1..300,
            ),
        ) {
            let deadline = Duration::from_millis(deadline_ms);
            let mut detector = Watchdog::new(WatchdogConfig { deadline, ..WatchdogConfig::default() }, 3);
            let mut now = Duration::ZERO;
            let (mut beats, mut retired) = ([0u64; 3], [false; 3]);
            // Reference bookkeeping: beats at the previous watched sweep,
            // start of the current silence (None right after a stall),
            // and whether a Suspect is outstanding.
            let mut seen = [0u64; 3];
            let mut quiet = [Some(Duration::ZERO); 3];
            let mut suspected = [false; 3];
            for (dt, shards) in &sweeps {
                now += Duration::from_millis(*dt);
                let obs: Vec<Observation> = shards
                    .iter()
                    .enumerate()
                    .map(|(s, &(moves, pending, restoring, retire)): (usize, &ShardTrace)| {
                        beats[s] += u64::from(moves == 0);
                        retired[s] |= retire == 0;
                        Observation { beats: beats[s], pending, retired: retired[s], restoring: restoring == 0 }
                    })
                    .collect();
                let actions = detector.tick(&obs, now);
                for (s, o) in obs.iter().enumerate() {
                    let of = |a: fn(usize) -> Action| actions.contains(&a(s));
                    let (suspect, stalled, resumed) = (of(Action::Suspect), of(Action::Stalled), of(Action::Resumed));
                    if o.retired {
                        prop_assert!(!suspect && !stalled && !resumed, "retired shard {s} judged: {actions:?}");
                        continue;
                    }
                    let active = o.beats != seen[s] || o.restoring || quiet[s].is_none();
                    seen[s] = o.beats;
                    if active || o.pending <= 0 {
                        prop_assert!(!suspect && !stalled, "active or idle shard {s} judged: {o:?}");
                        prop_assert_eq!(resumed, active && suspected[s]);
                        suspected[s] &= !active;
                        quiet[s] = Some(now);
                        continue;
                    }
                    prop_assert!(!resumed);
                    let silence = now - quiet[s].expect("baselined");
                    prop_assert_eq!(suspect, !suspected[s] && silence >= deadline / 2, "shard {s}, silence {silence:?}");
                    prop_assert_eq!(stalled, silence >= deadline, "shard {s}, silence {silence:?}");
                    suspected[s] |= suspect;
                    if stalled {
                        prop_assert!(suspected[s], "stall of shard {s} without a suspect first");
                        (suspected[s], quiet[s]) = (false, None);
                    }
                }
            }
        }
    }
}
