//! The paper's q-MAX based LRFU (Section 5.1): amortized constant time
//! per request.

use crate::score::DecayScore;
use crate::Cache;
use qmax_core::{FlowTable, OrderedF64};
use qmax_select::{nth_smallest, Kernel};
use std::hash::Hash;

/// LRFU via exponential-decay q-MAX with duplicate merging.
///
/// Each request folds its contribution `λt` into its key's running
/// log-sum-exp score at once — *including* requests for keys already
/// cached, which simply merge one more exact contribution. The score
/// lives in a stable arena slot that the request's one index probe
/// finds (a hit) or claims (a miss), so the request log the paper's
/// construction keeps needs no storage here, only a count of the
/// requests since the last maintenance pass. When that count plus the
/// carried survivor set reaches `⌈q(1+γ)⌉`, a maintenance pass finds
/// the q-th largest score with a linear-time selection and evicts
/// everything below it. Survivors keep their slot and score, so a key
/// takes the same merges in the same order as under the paper's log:
/// its carried score first, then its requests in time order. The pass
/// costs `O(q)` and runs at most once per `⌈qγ⌉` requests, so requests
/// cost `O(1 + 1/γ)` amortized — versus `O(log q)` for the heap and
/// `O(q)` for the scan baseline.
///
/// The cache population floats between `q` and `⌈q(1+γ)⌉` distinct
/// keys, and — like the paper's construction — the `q` highest-score
/// keys are never evicted, where a key's score counts its requests
/// since it last entered the cache.
///
/// The cache index is the SIMD-probed [`FlowTable`].
#[derive(Debug, Clone)]
pub struct QMaxLrfu<K: Clone + Hash + Eq> {
    q: usize,
    cap: usize,
    score: DecayScore,
    /// Cached keys (the cache content). The value points at the key's
    /// score accumulator in the arena.
    cached: FlowTable<K, MergeSlot>,
    /// Stable score arena, stored as parallel key/score columns so the
    /// selection scan walks dense `f64` memory: one slot per resident
    /// key, holding the key's running log-sum-exp score. A slot never
    /// moves while the key stays resident. Slots of evicted keys are
    /// recycled through [`Self::arena_free`].
    arena_keys: Vec<K>,
    /// Score column of the arena (see [`Self::arena_keys`]).
    arena_vals: Vec<f64>,
    /// Liveness mask for the arena (freed slots are holes until
    /// reused).
    arena_live: Vec<bool>,
    /// Recycled arena slots, reused in LIFO order.
    arena_free: Vec<u32>,
    /// Requests since the last maintenance pass: the length of the
    /// paper's request log, whose entries are already folded.
    pending: usize,
    /// Number of live arena slots (keys carried across the last pass).
    /// The maintenance trigger is `pending + carried == cap`, which is
    /// exactly the paper's "survivors reinserted into the log" schedule.
    carried: usize,
    /// Scores-only selection scratch, kept so maintenance allocates
    /// nothing steady-state: the pass ranks the dense score column
    /// directly instead of materializing `(score, slot)` pairs (see
    /// [`Self::maintain`]).
    score_scratch: Vec<OrderedF64>,
    /// Runtime-dispatched comparison kernel for the pivot census over
    /// the score column ([`Kernel::count_gt_eq`]).
    kernel: Kernel<OrderedF64>,
    time: u64,
    maintenance_passes: u64,
}

/// Per-key pointer into the score arena: every resident key owns a
/// slot from the moment it is inserted (misses claim one on the spot).
#[derive(Debug, Clone, Copy)]
struct MergeSlot {
    arena: u32,
}

impl<K: Clone + Hash + Eq> QMaxLrfu<K> {
    /// Creates a q-MAX LRFU cache that always retains the `q`
    /// highest-score keys, holds at most `⌈q(1+γ)⌉` keys, and decays
    /// with parameter `c`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `gamma` is not positive and finite, or `c`
    /// is outside `(0, 1)`.
    pub fn new(q: usize, gamma: f64, c: f64) -> Self {
        assert!(q > 0, "q must be positive");
        assert!(
            gamma > 0.0 && gamma.is_finite(),
            "gamma must be positive and finite"
        );
        let cap = (((q as f64) * (1.0 + gamma)).ceil() as usize).max(q + 1);
        QMaxLrfu {
            q,
            cap,
            score: DecayScore::new(c),
            cached: FlowTable::with_capacity(cap),
            arena_keys: Vec::new(),
            arena_vals: Vec::new(),
            arena_live: Vec::new(),
            arena_free: Vec::new(),
            pending: 0,
            carried: 0,
            score_scratch: Vec::new(),
            kernel: Kernel::detect(),
            time: 0,
            maintenance_passes: 0,
        }
    }

    /// Routes score merges through the bounded-error
    /// [`crate::fast_logaddexp`] (error ≤
    /// [`crate::FAST_LOGADDEXP_ABS_ERR`] per merge) instead of the
    /// exact `exp`/`ln_1p` pair. Rank decisions are unaffected at
    /// default tolerance; see the replay property in
    /// `tests/proptest_score.rs`.
    pub fn with_fast_merge(mut self, fast: bool) -> Self {
        self.score = self.score.with_fast_merge(fast);
        self
    }

    /// Maximum number of distinct keys the cache may hold.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Whether `key` is cached.
    pub fn contains(&self, key: &K) -> bool {
        self.cached.contains_key(key)
    }

    /// Number of `O(q)` maintenance passes run so far.
    pub fn maintenance_passes(&self) -> u64 {
        self.maintenance_passes
    }

    /// Claims a score-arena slot for a freshly-missed `key`, seeded
    /// with `-∞` — the exact identity of `logaddexp` on both the exact
    /// and fast paths (see the pinned infinity tests), so the key's
    /// first request folds to exactly its own score.
    fn alloc_slot(
        arena_keys: &mut Vec<K>,
        arena_vals: &mut Vec<f64>,
        arena_live: &mut Vec<bool>,
        arena_free: &mut Vec<u32>,
        key: K,
    ) -> u32 {
        match arena_free.pop() {
            Some(idx) => {
                arena_keys[idx as usize] = key;
                arena_vals[idx as usize] = f64::NEG_INFINITY;
                arena_live[idx as usize] = true;
                idx
            }
            None => {
                arena_keys.push(key);
                arena_vals.push(f64::NEG_INFINITY);
                arena_live.push(true);
                (arena_keys.len() - 1) as u32
            }
        }
    }

    /// If more than `q` distinct keys are resident, evicts all keys
    /// below the q-th largest log-score. Every request of the period
    /// has already been folded into its key's arena score, so the pass
    /// probes the index only to remove evicted keys; keys untouched
    /// this period keep their slot and score and cost nothing.
    ///
    /// Selection runs over the **dense score column alone**: a
    /// quickselect over copied scores finds the eviction pivot (the
    /// q-th largest score), a [`Kernel::count_gt_eq`] census over the
    /// same column splits the population into above/at/below-pivot,
    /// and one ascending-slot sweep evicts everything below the pivot
    /// plus the first `tie_budget` slots *at* it. No `(score, slot)`
    /// pairs are materialized — the selection shuffles 8-byte scores,
    /// and slot identities are recovered by the sweep. Tie-breaking
    /// (lowest slot number evicted first) and free-slot recycling
    /// (ascending slot order) depend only on arena slot numbers, which
    /// are assigned in miss order, so eviction decisions cannot depend
    /// on the table's iteration order even through exact score ties.
    fn maintain(&mut self) {
        // Selection input: the live entries of the dense score column,
        // scores only — no (score, slot) pairs.
        let mut scores = std::mem::take(&mut self.score_scratch);
        scores.clear();
        scores.extend(
            self.arena_vals
                .iter()
                .zip(self.arena_live.iter())
                .filter(|(_, &live)| live)
                .map(|(&w, _)| OrderedF64(w)),
        );
        let live = scores.len();
        if live > self.q {
            let cut = live - self.q;
            // Pivot = the smallest surviving score (q-th largest).
            let pivot = *nth_smallest(&mut scores, cut);
            // Census over the (permuted — counts are order-invariant)
            // column: strictly-below must all go; the remaining
            // eviction quota falls on pivot-equal slots, lowest slot
            // numbers first — the same choice the old (score, slot)
            // lexicographic selection made.
            let (gt, eq) = self.kernel.count_gt_eq(&scores, pivot);
            let below = live - gt - eq;
            let mut tie_budget = cut - below;
            for idx in 0..self.arena_vals.len() {
                if !self.arena_live[idx] {
                    continue;
                }
                let w = OrderedF64(self.arena_vals[idx]);
                let evict = if w < pivot {
                    true
                } else if w == pivot && tie_budget > 0 {
                    tie_budget -= 1;
                    true
                } else {
                    false
                };
                if evict {
                    self.cached.remove(&self.arena_keys[idx]);
                    self.arena_live[idx] = false;
                    self.arena_free.push(idx as u32);
                }
            }
            self.carried = self.q;
        } else {
            self.carried = live;
        }
        self.score_scratch = scores;
        self.pending = 0;
        self.maintenance_passes += 1;
    }
}

impl<K: Clone + Hash + Eq> Cache<K> for QMaxLrfu<K> {
    fn request(&mut self, key: K) -> bool {
        // One index probe: a hit reads the key's arena slot off its
        // resident `MergeSlot`, a miss claims a fresh slot. The
        // request's score then folds into that slot.
        self.time += 1;
        let (slot, hit) = self.cached.entry(key.clone(), || MergeSlot {
            arena: Self::alloc_slot(
                &mut self.arena_keys,
                &mut self.arena_vals,
                &mut self.arena_live,
                &mut self.arena_free,
                key.clone(),
            ),
        });
        let w = &mut self.arena_vals[slot.arena as usize];
        *w = self.score.merge(*w, self.score.access(self.time));
        self.pending += 1;
        if self.pending + self.carried == self.cap {
            self.maintain();
        }
        hit
    }

    fn len(&self) -> usize {
        self.cached.len()
    }

    fn capacity_bounds(&self) -> (usize, usize) {
        (self.q, self.cap)
    }

    fn reset(&mut self) {
        self.cached.clear();
        self.arena_keys.clear();
        self.arena_vals.clear();
        self.arena_live.clear();
        self.arena_free.clear();
        self.pending = 0;
        self.carried = 0;
        self.time = 0;
        self.maintenance_passes = 0;
    }

    fn name(&self) -> &'static str {
        "lrfu-qmax"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeapLrfu;
    use std::collections::HashMap;

    #[test]
    fn hits_and_misses() {
        let mut c = QMaxLrfu::new(4, 0.5, 0.75);
        assert!(!c.request("a"));
        assert!(c.request("a"));
        assert!(!c.request("b"));
        assert!(c.request("b"));
    }

    #[test]
    fn population_stays_within_bounds() {
        let mut c = QMaxLrfu::new(100, 0.5, 0.75);
        for k in 0..100_000u64 {
            c.request(k % 7919);
        }
        let (_, hi) = c.capacity_bounds();
        assert!(c.len() <= hi, "population {} above {hi}", c.len());
        assert!(
            c.len() >= 100,
            "population {} below q after warm-up",
            c.len()
        );
        assert!(c.maintenance_passes() > 0);
    }

    #[test]
    fn top_q_scores_are_never_evicted() {
        // Mirror the requests into an exact reference and verify after
        // every request that the q highest-score keys of the reference
        // are cached (a key tied with the q-th score may sit on either
        // side). An evicted key's reference score restarts from -inf,
        // as in the paper's construction: a never-restarted history is
        // no bound on what the structure keeps.
        let q = 32;
        let c_decay = 0.75;
        let mut qmax = QMaxLrfu::new(q, 0.5, c_decay);
        let mut reference: HashMap<u64, f64> = HashMap::new();
        let ds = DecayScore::new(c_decay);
        let mut scored: Vec<(u64, f64)> = Vec::new();
        let mut state = 5u64;
        for t in 1..=20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 200;
            qmax.request(key);
            let w = reference.entry(key).or_insert(f64::NEG_INFINITY);
            *w = ds.bump(*w, t);
            scored.clear();
            scored.extend(reference.iter().map(|(&k, &w)| (k, w)));
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            let floor = scored.get(q - 1).map(|&(_, w)| w);
            for &(k, w) in scored.iter().take(q) {
                assert!(
                    qmax.cached.contains_key(&k) || Some(w) == floor,
                    "top-{q} key {k} evicted at t={t}"
                );
            }
            reference.retain(|k, _| qmax.cached.contains_key(k));
        }
    }

    #[test]
    fn maintenance_is_amortized() {
        let q = 1000;
        let gamma = 0.5;
        let mut c = QMaxLrfu::new(q, gamma, 0.75);
        let n = 300_000u64;
        for k in 0..n {
            c.request(k % 50_000);
        }
        // One pass per (cap - q) requests at most (plus slack for the
        // duplicate-heavy regime where fewer keys survive the merge).
        let max_passes = n / ((c.capacity() - q) as u64) + 2;
        assert!(
            c.maintenance_passes() <= max_passes,
            "{} passes exceed {max_passes}",
            c.maintenance_passes()
        );
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut c = QMaxLrfu::new(16, 0.5, 0.8);
        for k in 0..5000u64 {
            c.request(k % 97);
        }
        assert!(c.maintenance_passes() > 0);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.maintenance_passes(), 0);
        assert!(!c.request(1u64), "fresh cache must miss");
        assert!(c.request(1u64), "then hit");
    }

    #[test]
    fn capacity_bounds_reflect_gamma() {
        let c = QMaxLrfu::<u64>::new(100, 0.5, 0.75);
        assert_eq!(c.capacity_bounds(), (100, 150));
    }

    #[test]
    fn hit_ratio_close_to_exact_lrfu_on_skewed_trace() {
        let trace = qmax_traces::gen::arc_like(100_000, 10_000, 3);
        let q = 1_000;
        let exact = crate::hit_ratio(&mut HeapLrfu::new(q, 0.75), &trace);
        let ours = crate::hit_ratio(&mut QMaxLrfu::new(q, 0.25, 0.75), &trace);
        assert!(
            ours >= exact - 0.02,
            "q-MAX LRFU hit ratio {ours} well below exact {exact}"
        );
    }

    #[test]
    fn scores_are_current_after_every_request() {
        // Every request folds into its key's arena score at once, so
        // after each request every cached key's score equals an exact
        // `bump` chain over its requests since it last entered the
        // cache — bit for bit, with no pass in between.
        let c_decay = 0.75;
        let mut qmax = QMaxLrfu::new(40, 0.5, c_decay);
        let ds = DecayScore::new(c_decay);
        let mut reference: HashMap<u64, f64> = HashMap::new();
        let mut keys = qmax_traces::zipf::ZipfSampler::new(400, 1.0, 21);
        for t in 1..=20_000u64 {
            let key = keys.sample() as u64;
            qmax.request(key);
            let w = reference.entry(key).or_insert(f64::NEG_INFINITY);
            *w = ds.bump(*w, t);
            // A key that left the cache restarts its chain from -∞.
            reference.retain(|k, _| qmax.cached.contains_key(k));
            assert_eq!(reference.len(), qmax.len(), "t={t}");
            let mut live = 0;
            for idx in 0..qmax.arena_vals.len() {
                if !qmax.arena_live[idx] {
                    continue;
                }
                live += 1;
                let k = qmax.arena_keys[idx];
                assert_eq!(
                    qmax.arena_vals[idx].to_bits(),
                    reference[&k].to_bits(),
                    "key {k} score lags its requests at t={t}"
                );
            }
            assert_eq!(live, qmax.len(), "t={t}");
        }
        assert!(qmax.maintenance_passes() > 100);
    }
}
