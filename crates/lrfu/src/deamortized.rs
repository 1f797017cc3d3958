//! Worst-case constant-time LRFU (the de-amortized construction of
//! Section 5.1).
//!
//! [`crate::QMaxLrfu`] runs an `O(q)` maintenance pass once per
//! `⌈qγ⌉` requests; this variant pipelines that pass across requests
//! so *every* request is charged `O(γ⁻¹)` work units:
//!
//! 1. **Refresh** — feed the live `(slot, score)` registry into a q-MAX
//!    *snapshot backend*, a bounded chunk per miss. The backend's
//!    admission threshold Ψ converges to (at most) the q-th largest
//!    snapshot score;
//! 2. **Evict** — walk the registry slots covered by the snapshot,
//!    removing each key whose snapshot score is **strictly below** Ψ —
//!    unless its score was bumped since the snapshot (a bumped entry
//!    was hit, so it stays).
//!
//! Hits never touch the pipeline: they bump the key's log-score in the
//! registry in `O(1)`. The eviction rule preserves the paper's LRFU
//! guarantee — the `q` highest-score keys are never evicted: Ψ never
//! exceeds the q-th largest snapshot score, scores only grow, and the
//! comparison is strict, so every current top-`q` key scores at least
//! Ψ (or arrived after the snapshot and is not evictable this round).
//!
//! The snapshot backend is an [`IntervalBackend`] (default: the
//! array-of-structs [`AmortizedQMax`]), so the structure-of-arrays
//! backend's batched value-lane kernels apply to the refresh feed.
//! With the default *amortized* backend a refresh chunk may absorb one
//! `O(q)` internal compaction — the work-unit *charge* stays bounded,
//! the wall-clock spike does not; hosting the snapshot in
//! [`qmax_core::DeamortizedQMax`] (or its SoA twin) restores a strict
//! worst-case bound at the cost of `2g` extra snapshot slots.

use crate::score::DecayScore;
use crate::Cache;
use qmax_core::{AmortizedQMax, FlowIndex, IndexFamily, IntervalBackend, KeyIndex, OrderedF64};
use std::hash::Hash;

#[derive(Debug, Clone, Copy)]
struct Info {
    /// Index into the key registry.
    idx: usize,
    /// Current log-score.
    w: f64,
    /// Log-score at the time the current snapshot covered this key.
    snap_w: f64,
    /// Refresh round that last covered this key (0 = never).
    snap_round: u64,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Waiting for the population to exceed `q + g`.
    Idle,
    /// Feeding registry slots `next..snap_len` into the snapshot.
    Refresh { next: usize },
    /// Examining registry slots `cursor..0` (descending, so
    /// swap-removes only disturb already-visited slots) against the
    /// snapshot threshold `psi`.
    Evict { cursor: usize, psi: OrderedF64 },
}

/// Counters describing the de-amortized execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeamortizedLrfuStats {
    /// Completed refresh→evict pipelines.
    pub iterations: u64,
    /// Evictions skipped because the key was re-requested mid-pipeline.
    pub eviction_skips: u64,
    /// Largest number of pipeline work units charged to one request.
    pub max_step_units: u64,
}

/// LRFU with worst-case `O(γ⁻¹)` charged work per request and
/// population between `q` and roughly `q(1+γ) + 3⌈qγ/2⌉` keys.
///
/// The key registry index defaults to the SIMD-probed
/// [`qmax_core::FlowTable`] ([`FlowIndex`]) — important here, since a
/// registry lookup is the *entire* `O(1)` hit path —
/// [`qmax_core::StdIndex`] restores the `std::collections::HashMap`
/// index as baseline and replay oracle.
#[derive(Debug)]
pub struct DeamortizedLrfu<
    K: Clone + Hash + Eq,
    B = AmortizedQMax<u64, OrderedF64>,
    F: IndexFamily = FlowIndex,
> {
    q: usize,
    /// Pipeline granularity `⌈qγ/2⌉`.
    g: usize,
    score: DecayScore,
    map: F::Index<K, Info>,
    keys: Vec<K>,
    /// Snapshot backend: refreshed from the registry each round; its
    /// threshold Ψ after a full refresh is the eviction cutoff.
    snap: B,
    /// Number of registry slots covered by the current snapshot.
    snap_len: usize,
    /// Refresh round counter (stamps [`Info::snap_round`]).
    round: u64,
    phase: Phase,
    /// Per-miss pipeline budget in work units.
    budget: usize,
    time: u64,
    stats: DeamortizedLrfuStats,
}

impl<K: Clone + Hash + Eq> DeamortizedLrfu<K, AmortizedQMax<u64, OrderedF64>, FlowIndex> {
    /// Creates a de-amortized LRFU cache that never evicts the `q`
    /// highest-score keys, holds at most about `q(1+γ) + 3⌈qγ/2⌉` keys,
    /// and decays with parameter `c`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `gamma` is not positive and finite, or `c`
    /// is outside `(0, 1)`.
    pub fn new(q: usize, gamma: f64, c: f64) -> Self {
        Self::new_in(q, gamma, c)
    }
}

impl<K: Clone + Hash + Eq, F: IndexFamily> DeamortizedLrfu<K, AmortizedQMax<u64, OrderedF64>, F> {
    /// Like [`DeamortizedLrfu::new`], but with an explicit
    /// [`IndexFamily`] (e.g. `StdIndex` for the HashMap-era baseline).
    pub fn new_in(q: usize, gamma: f64, c: f64) -> Self {
        assert!(q > 0, "q must be positive");
        assert!(
            gamma > 0.0 && gamma.is_finite(),
            "gamma must be positive and finite"
        );
        Self::with_snapshot(gamma, c, AmortizedQMax::new(q, gamma))
    }
}

impl<K: Clone + Hash + Eq, B: IntervalBackend<u64, OrderedF64>, F: IndexFamily>
    DeamortizedLrfu<K, B, F>
{
    /// Creates a de-amortized LRFU cache around the given snapshot
    /// backend prototype; `proto.q()` is the cache target `q`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not positive and finite or `c` is outside
    /// `(0, 1)`.
    pub fn with_snapshot(gamma: f64, c: f64, proto: B) -> Self {
        assert!(
            gamma > 0.0 && gamma.is_finite(),
            "gamma must be positive and finite"
        );
        let q = proto.q();
        let g = (((q as f64) * gamma / 2.0).ceil() as usize).max(3);
        // The pipeline must finish within g misses: refresh feeds at
        // most (population bound) slots at one unit each, eviction
        // examines the same slots at two units each, plus transitions.
        let hi = proto.capacity() + 3 * g;
        let total_work = 3 * hi + 4;
        let budget = total_work.div_ceil(g) + 1;
        DeamortizedLrfu {
            q,
            g,
            score: DecayScore::new(c),
            map: F::Index::with_capacity(hi),
            keys: Vec::new(),
            snap: proto.fresh(),
            snap_len: 0,
            round: 0,
            phase: Phase::Idle,
            budget,
            time: 0,
            stats: DeamortizedLrfuStats::default(),
        }
    }

    /// Routes score bumps through the bounded-error
    /// [`crate::fast_logaddexp`] (error ≤
    /// [`crate::FAST_LOGADDEXP_ABS_ERR`] per merge) instead of the
    /// exact `exp`/`ln_1p` pair.
    pub fn with_fast_merge(mut self, fast: bool) -> Self {
        self.score = self.score.with_fast_merge(fast);
        self
    }

    /// Processes a span of requests, returning the number of hits.
    /// Observationally identical to calling [`Cache::request`] per key
    /// — the hit path is too stateful to reorder — but each
    /// [`qmax_core::PROBE_PIPELINE`]-key stage issues the registry
    /// prefetches for the whole stage up front, so the per-request
    /// probe miss overlaps the previous request's bookkeeping instead
    /// of serializing behind it.
    pub fn request_batch(&mut self, keys: &[K]) -> usize {
        let mut hits = 0;
        for chunk in keys.chunks(qmax_core::PROBE_PIPELINE) {
            self.map.prefetch_keys(chunk);
            for key in chunk {
                hits += usize::from(self.request(key.clone()));
            }
        }
        hits
    }

    /// Execution counters.
    pub fn stats(&self) -> DeamortizedLrfuStats {
        self.stats
    }

    /// The per-miss pipeline budget (`O(γ⁻¹)`).
    pub fn step_budget(&self) -> usize {
        self.budget
    }

    /// Removes registry slot `idx` (swap-remove, fixing the moved
    /// key's index).
    fn remove_slot(&mut self, idx: usize) {
        let key = self.keys.swap_remove(idx);
        self.map.remove(&key);
        if idx < self.keys.len() {
            let moved = self.keys[idx].clone();
            self.map.get_mut(&moved).expect("registry in sync").idx = idx;
        }
    }

    /// Advances the maintenance pipeline by at most `budget` units.
    fn advance(&mut self) {
        let mut rem = self.budget as i64;
        let mut scratch: Vec<(u64, OrderedF64)> = Vec::new();
        while rem > 0 {
            match self.phase {
                Phase::Idle => {
                    if self.map.len() <= self.q + self.g {
                        break;
                    }
                    self.snap_len = self.keys.len();
                    self.round += 1;
                    self.snap.reset();
                    self.phase = Phase::Refresh { next: 0 };
                    rem -= 1;
                }
                Phase::Refresh { next } => {
                    if next >= self.snap_len {
                        match self.snap.threshold() {
                            Some(psi) => {
                                self.phase = Phase::Evict {
                                    cursor: self.snap_len,
                                    psi,
                                };
                            }
                            None => {
                                // The snapshot fit the backend without a
                                // single compaction, so no score is
                                // provably outside the top q: nothing to
                                // evict this round.
                                self.stats.iterations += 1;
                                self.phase = Phase::Idle;
                            }
                        }
                        rem -= 1;
                    } else {
                        let take = (self.snap_len - next).min(rem as usize);
                        scratch.clear();
                        // Batched registry probes: the refresh feed is
                        // the pipeline's only index-bound loop, so run
                        // it through the prefetch-pipelined
                        // `get_mut_batch` (slot order preserved).
                        let round = self.round;
                        self.map
                            .get_mut_batch(&self.keys[next..next + take], |j, info| {
                                let info = info.expect("registry in sync");
                                info.snap_w = info.w;
                                info.snap_round = round;
                                scratch.push(((next + j) as u64, OrderedF64(info.w)));
                            });
                        self.snap.insert_batch(&scratch);
                        self.phase = Phase::Refresh { next: next + take };
                        rem -= take as i64;
                    }
                }
                Phase::Evict { cursor, psi } => {
                    if cursor == 0 {
                        self.stats.iterations += 1;
                        self.phase = Phase::Idle;
                        rem -= 1;
                    } else {
                        let i = cursor - 1;
                        self.phase = Phase::Evict { cursor: i, psi };
                        rem -= 2;
                        debug_assert!(i < self.keys.len(), "registry shrank past cursor");
                        let info = *self.map.get(&self.keys[i]).expect("registry in sync");
                        if info.snap_round == self.round && OrderedF64(info.snap_w) < psi {
                            if info.w == info.snap_w {
                                self.remove_slot(i);
                            } else {
                                // Bumped since the snapshot: it was hit,
                                // so it stays this round.
                                self.stats.eviction_skips += 1;
                            }
                        }
                    }
                }
            }
        }
        let used = self.budget as i64 - rem;
        self.stats.max_step_units = self.stats.max_step_units.max(used.max(0) as u64);
    }
}

impl<K: Clone + Hash + Eq, B: IntervalBackend<u64, OrderedF64>, F: IndexFamily> Cache<K>
    for DeamortizedLrfu<K, B, F>
{
    fn request(&mut self, key: K) -> bool {
        self.time += 1;
        let t = self.time;
        if let Some(info) = self.map.get_mut(&key) {
            info.w = self.score.bump(info.w, t);
            return true;
        }
        let idx = self.keys.len();
        self.keys.push(key.clone());
        self.map.insert(
            key,
            Info {
                idx,
                w: self.score.access(t),
                snap_w: f64::NEG_INFINITY,
                snap_round: 0,
            },
        );
        self.advance();
        false
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn capacity_bounds(&self) -> (usize, usize) {
        (self.q, self.snap.capacity() + 3 * self.g)
    }

    fn reset(&mut self) {
        self.map.clear();
        self.keys.clear();
        self.snap.reset();
        self.snap_len = 0;
        self.round = 0;
        self.phase = Phase::Idle;
        self.time = 0;
        self.stats = DeamortizedLrfuStats::default();
    }

    fn name(&self) -> &'static str {
        "lrfu-qmax-wc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hit_ratio, HeapLrfu};
    use qmax_core::SoaAmortizedQMax;
    use qmax_traces::gen::arc_like;
    use qmax_traces::rng::SplitMix64;
    use std::collections::HashMap;

    #[test]
    fn hits_and_misses() {
        let mut c = DeamortizedLrfu::new(4, 0.5, 0.75);
        assert!(!c.request("a"));
        assert!(c.request("a"));
        assert!(!c.request("b"));
        assert!(c.request("b"));
    }

    #[test]
    fn population_stays_bounded() {
        let q = 100;
        let mut c = DeamortizedLrfu::new(q, 0.5, 0.75);
        let mut rng = SplitMix64::new(1);
        for _ in 0..200_000 {
            c.request(rng.next_below(50_000));
        }
        let (_, hi) = c.capacity_bounds();
        assert!(c.len() <= hi, "population {} above bound {hi}", c.len());
        assert!(c.len() >= q, "population {} below q", c.len());
        assert!(c.stats().iterations > 0, "pipeline never ran");
    }

    #[test]
    fn top_q_scores_are_never_evicted() {
        let q = 32;
        let decay = 0.75;
        let mut cache = DeamortizedLrfu::new(q, 0.5, decay);
        let ds = DecayScore::new(decay);
        let mut reference: HashMap<u64, f64> = HashMap::new();
        let mut rng = SplitMix64::new(7);
        for t in 1..=30_000u64 {
            let key = rng.next_below(300);
            cache.request(key);
            let w = reference.entry(key).or_insert(f64::NEG_INFINITY);
            *w = ds.bump(*w, t);
            if t % 501 == 0 {
                let mut scored: Vec<(u64, f64)> = reference.iter().map(|(&k, &w)| (k, w)).collect();
                scored.sort_by(|a, b| b.1.total_cmp(&a.1));
                for &(k, _) in scored.iter().take(q) {
                    assert!(
                        cache.map.contains_key(&k),
                        "top-{q} key {k} evicted at t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_request_work_is_bounded() {
        let q = 1000;
        let mut c = DeamortizedLrfu::new(q, 0.25, 0.75);
        let mut rng = SplitMix64::new(3);
        for _ in 0..300_000 {
            c.request(rng.next_below(100_000));
        }
        // A single request's pipeline work never exceeds the budget
        // plus one indivisible step's worth of slack.
        assert!(
            c.stats().max_step_units <= c.step_budget() as u64 + 32,
            "max step units {} exceed budget {}",
            c.stats().max_step_units,
            c.step_budget()
        );
    }

    #[test]
    fn hit_ratio_close_to_exact_lrfu() {
        let trace = arc_like(150_000, 15_000, 11);
        let q = 1_500;
        let exact = hit_ratio(&mut HeapLrfu::new(q, 0.75), &trace);
        let ours = hit_ratio(&mut DeamortizedLrfu::new(q, 0.25, 0.75), &trace);
        assert!(
            ours >= exact - 0.02,
            "de-amortized LRFU hit ratio {ours} well below exact {exact}"
        );
    }

    #[test]
    fn soa_snapshot_behaves_equivalently() {
        // The eviction cutoff is the snapshot backend's threshold Ψ,
        // which both backends compute identically (same admissions,
        // same compaction points), so AoS- and SoA-snapshot caches
        // replay a trace with the exact same hit sequence.
        let trace = arc_like(80_000, 8_000, 17);
        let mut aos = DeamortizedLrfu::new(400, 0.5, 0.75);
        let mut soa: DeamortizedLrfu<u64, _> =
            DeamortizedLrfu::with_snapshot(0.5, 0.75, SoaAmortizedQMax::new(400, 0.5));
        for &k in &trace {
            assert_eq!(aos.request(k), soa.request(k));
        }
        assert_eq!(aos.len(), soa.len());
        assert_eq!(aos.stats().iterations, soa.stats().iterations);
    }

    #[test]
    fn request_batch_matches_singletons() {
        let trace = arc_like(40_000, 4_000, 23);
        let mut one = DeamortizedLrfu::new(300, 0.5, 0.75);
        let mut batched = DeamortizedLrfu::new(300, 0.5, 0.75);
        let mut h1 = 0usize;
        for &k in &trace {
            h1 += usize::from(one.request(k));
        }
        let mut h2 = 0usize;
        for span in trace.chunks(513) {
            h2 += batched.request_batch(span);
        }
        assert_eq!(h1, h2, "prefetch warm-up must not change behaviour");
        assert_eq!(one.len(), batched.len());
        assert_eq!(one.stats().iterations, batched.stats().iterations);
    }

    #[test]
    fn reset_clears() {
        let mut c = DeamortizedLrfu::new(8, 0.5, 0.8);
        for k in 0..1000u64 {
            c.request(k % 37);
        }
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.stats(), DeamortizedLrfuStats::default());
        assert!(!c.request(1u64));
    }
}
