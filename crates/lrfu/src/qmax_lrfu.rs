//! The paper's q-MAX based LRFU (Section 5.1): amortized constant time
//! per request.

use crate::score::DecayScore;
use crate::Cache;
use qmax_core::{AmortizedQMax, Entry, FlowTable, IntervalBackend, OrderedF64};
use qmax_select::{nth_smallest, Kernel};
use std::hash::Hash;

/// LRFU via exponential-decay q-MAX with duplicate merging.
///
/// Requests append `(key, λt)` entries to a log buffer — *including*
/// requests for keys already cached, which simply gain an extra entry
/// (an exact log-sum-exp contribution). When the log plus the carried
/// survivor set reaches `⌈q(1+γ)⌉`, a maintenance pass folds each new
/// entry into its key's accumulator in a stable score arena, finds the
/// q-th largest score with a linear-time selection, and evicts
/// everything below it. Survivors stay in the arena rather than being
/// reinserted into the log, so a pass probes the cache index once per
/// *request* of the period, not once per resident key — the same
/// maintenance schedule as the paper's construction but with roughly
/// half the probe traffic at γ=1. The pass costs `O(q)` and runs at
/// most once per `⌈qγ⌉` requests, so requests cost `O(1 + 1/γ)`
/// amortized — versus `O(log q)` for the heap and `O(q)` for the scan
/// baseline.
///
/// The request log is hosted in an [`IntervalBackend`] (default: the
/// array-of-structs [`AmortizedQMax`]); [`QMaxLrfu::with_buffer`] pins
/// another layout, e.g. the structure-of-arrays backend so
/// [`request_batch`](QMaxLrfu::request_batch) appends whole spans
/// through its batch kernel. The backend never self-compacts (its own
/// `q` is the [`log_capacity`](QMaxLrfu::log_capacity)), which makes
/// every layout bit-for-bit interchangeable: same hits, same evictions.
///
/// The cache population floats between `q` and `⌈q(1+γ)⌉` distinct
/// keys, and — like the paper's construction — the `q` highest-score
/// keys are never evicted.
///
/// The cache index is the SIMD-probed [`FlowTable`].
#[derive(Debug, Clone)]
pub struct QMaxLrfu<K: Clone + Hash + Eq, B = AmortizedQMax<K, OrderedF64>> {
    q: usize,
    cap: usize,
    score: DecayScore,
    /// Request log: one entry per request since the last maintenance
    /// pass. Hosted in a q-MAX backend sized to never self-compact
    /// (maintenance runs first). Unlike earlier revisions, survivors
    /// are **not** reinserted here — their merged scores persist in
    /// [`Self::arena`], so each pass touches each request exactly once.
    buf: B,
    /// Cached keys (the cache content). The value points at the key's
    /// score accumulator in [`Self::arena`] (or is the fresh-insert
    /// sentinel until the first maintenance pass touches the key).
    cached: FlowTable<K, MergeSlot>,
    /// Stable score arena, stored as parallel key/score columns so
    /// the maintenance fold and the selection scan walk dense `f64`
    /// memory: one slot per resident key, holding the key's running
    /// log-sum-exp fold. A slot never moves while the key stays
    /// resident, which is what lets maintenance fold only the *new*
    /// log entries — untouched survivors keep their slot and score
    /// as-is. Slots of evicted keys are recycled through
    /// [`Self::arena_free`].
    arena_keys: Vec<K>,
    /// Score column of the arena (see [`Self::arena_keys`]).
    arena_vals: Vec<f64>,
    /// Liveness mask for [`Self::arena`] (freed slots are holes until
    /// reused).
    arena_live: Vec<bool>,
    /// Recycled arena slots, reused in LIFO order.
    arena_free: Vec<u32>,
    /// One arena-slot hint per log entry, recorded in request order by
    /// the probe the request path already pays: hits read the slot off
    /// the resident [`MergeSlot`], misses allocate the slot on the
    /// spot (seeded with `-∞`, the exact identity of `logaddexp`).
    /// Maintenance folds the log straight into `arena[hints[j]]` with
    /// **zero** additional index probes.
    hints: Vec<u32>,
    /// Number of live arena slots (keys carried across the last pass).
    /// The maintenance trigger is `buf.len() + carried == cap`, which
    /// is exactly the old "survivors reinserted into the log" schedule.
    carried: usize,
    /// Persistent scratch buffers so maintenance allocates nothing
    /// steady-state.
    log_scratch: Vec<Entry<K, OrderedF64>>,
    /// Scores-only selection scratch: the maintenance pass ranks the
    /// dense score column directly instead of materializing
    /// `(score, slot)` pairs (see [`Self::maintain`]).
    score_scratch: Vec<OrderedF64>,
    /// Log entries of the span [`Self::request_batch`] is appending,
    /// kept so a batch allocates nothing steady-state.
    batch_scratch: Vec<(K, OrderedF64)>,
    /// Runtime-dispatched comparison kernel for the pivot census over
    /// the score column ([`Kernel::count_gt_eq`]).
    kernel: Kernel<OrderedF64>,
    time: u64,
    maintenance_passes: u64,
}

/// Per-key pointer into the score arena: every resident key owns a
/// slot from the moment it is inserted (misses allocate on the spot).
#[derive(Debug, Clone, Copy)]
struct MergeSlot {
    arena: u32,
}

impl<K: Clone + Hash + Eq> QMaxLrfu<K, AmortizedQMax<K, OrderedF64>> {
    /// Creates a q-MAX LRFU cache that always retains the `q`
    /// highest-score keys, holds at most `⌈q(1+γ)⌉` keys, and decays
    /// with parameter `c`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `gamma` is not positive and finite, or `c`
    /// is outside `(0, 1)`.
    pub fn new(q: usize, gamma: f64, c: f64) -> Self {
        let cap = Self::log_capacity(q, gamma);
        Self::with_buffer(q, c, AmortizedQMax::new(cap, gamma))
    }
}

impl<K: Clone + Hash + Eq, B: IntervalBackend<K, OrderedF64>> QMaxLrfu<K, B> {
    /// The log capacity `⌈q(1+γ)⌉ ∨ (q+1)`: the `q()` of a prototype
    /// for [`with_buffer`](Self::with_buffer). Panics on a zero `q` or
    /// a `gamma` that is not positive and finite.
    pub fn log_capacity(q: usize, gamma: f64) -> usize {
        assert!(q > 0, "q must be positive");
        assert!(
            gamma > 0.0 && gamma.is_finite(),
            "gamma must be positive and finite"
        );
        (((q as f64) * (1.0 + gamma)).ceil() as usize).max(q + 1)
    }

    /// Creates a q-MAX LRFU cache whose request log is the given
    /// backend. The backend's `q()` becomes the log capacity
    /// `⌈q(1+γ)⌉` and must exceed the cache target `q`; maintenance
    /// always runs before the backend would self-compact, so its own
    /// selection machinery stays idle and its threshold stays `None`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `proto.q() <= q`, or `c` outside `(0, 1)`.
    pub fn with_buffer(q: usize, c: f64, proto: B) -> Self {
        assert!(q > 0, "q must be positive");
        let cap = proto.q();
        assert!(cap > q, "log capacity must exceed q");
        QMaxLrfu {
            q,
            cap,
            score: DecayScore::new(c),
            buf: proto.fresh(),
            cached: FlowTable::with_capacity(cap),
            arena_keys: Vec::new(),
            arena_vals: Vec::new(),
            arena_live: Vec::new(),
            arena_free: Vec::new(),
            hints: Vec::new(),
            carried: 0,
            log_scratch: Vec::new(),
            score_scratch: Vec::new(),
            batch_scratch: Vec::new(),
            kernel: Kernel::detect(),
            time: 0,
            maintenance_passes: 0,
        }
    }

    /// Routes maintenance score merges through the bounded-error
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

    /// Number of `O(q)` maintenance passes run so far.
    pub fn maintenance_passes(&self) -> u64 {
        self.maintenance_passes
    }

    /// The request log's [`qmax_core::QMax::backend_label`] —
    /// observability for which layout hosts the log (the adaptive
    /// backend reports the layout its policy chose).
    pub fn log_backend_label(&self) -> &'static str {
        self.buf.backend_label()
    }

    /// Claims a score-arena slot for a freshly-missed `key`, seeded
    /// with `-∞` — the exact identity of `logaddexp` on both the exact
    /// and fast paths (see the pinned infinity tests), so the key's
    /// first log entry folds to exactly its own score.
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

    /// Merges the period's log entries into the per-key score arena
    /// (log-sum-exp per key) and, if more than `q` distinct keys are
    /// resident, evicts all keys below the q-th largest log-score.
    ///
    /// The merge does **zero** index probes: the request path already
    /// paid one probe per request and recorded each key's arena slot
    /// in [`Self::hints`], so the fold is a straight scatter into the
    /// score arena in log order. Keys untouched this period keep their
    /// slot and score and cost nothing — no reprobe, no reinsertion
    /// into the log. The fold order per key is carried-score-first,
    /// then log order, which is exactly the order the old
    /// survivor-reinsertion scheme produced, so the merged scores are
    /// bit-identical.
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
        let mut log = std::mem::take(&mut self.log_scratch);
        log.clear();
        self.buf.candidates_into(&mut log);
        debug_assert_eq!(log.len(), self.hints.len());
        let score = self.score;
        for (e, &h) in log.iter().zip(self.hints.iter()) {
            debug_assert!(self.arena_keys[h as usize] == e.id, "stale arena hint");
            let w = &mut self.arena_vals[h as usize];
            *w = score.merge(*w, e.val.get());
        }
        self.hints.clear();
        log.clear();
        self.log_scratch = log;
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
        self.buf.reset();
        self.maintenance_passes += 1;
    }

    /// Registers a request for `key` with one index probe
    /// ([`FlowTable::entry`]): a hit reads the key's arena slot off its
    /// resident [`MergeSlot`], a miss claims a fresh arena slot for it.
    /// Records the slot hint and returns `(hit, log score)`.
    #[inline]
    fn account(&mut self, key: &K) -> (bool, OrderedF64) {
        self.time += 1;
        let w = OrderedF64(self.score.access(self.time));
        let (slot, hit) = self.cached.entry(key.clone(), || MergeSlot {
            arena: Self::alloc_slot(
                &mut self.arena_keys,
                &mut self.arena_vals,
                &mut self.arena_live,
                &mut self.arena_free,
                key.clone(),
            ),
        });
        self.hints.push(slot.arena);
        (hit, w)
    }

    /// Processes a span of requests, returning the number of hits.
    /// Semantically identical to calling [`Cache::request`] per key
    /// (each request probes the index once), but appends each
    /// between-maintenance run of entries to the log in one backend
    /// batch call.
    pub fn request_batch(&mut self, keys: &[K]) -> usize {
        let mut hits = 0;
        let mut scratch = std::mem::take(&mut self.batch_scratch);
        let mut i = 0;
        while i < keys.len() {
            let take = (self.cap - self.carried - self.buf.len()).min(keys.len() - i);
            scratch.clear();
            for key in &keys[i..i + take] {
                let (hit, w) = self.account(key);
                hits += usize::from(hit);
                scratch.push((key.clone(), w));
            }
            self.buf.insert_batch(&scratch);
            i += take;
            if self.buf.len() + self.carried == self.cap {
                self.maintain();
            }
        }
        scratch.clear();
        self.batch_scratch = scratch;
        hits
    }
}

impl<K: Clone + Hash + Eq, B: IntervalBackend<K, OrderedF64>> Cache<K> for QMaxLrfu<K, B> {
    fn request(&mut self, key: K) -> bool {
        let (hit, w) = self.account(&key);
        self.buf.insert(key, w);
        if self.buf.len() + self.carried == self.cap {
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
        self.buf.reset();
        self.cached.clear();
        self.arena_keys.clear();
        self.arena_vals.clear();
        self.arena_live.clear();
        self.arena_free.clear();
        self.hints.clear();
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
    use qmax_core::{AdaptiveBackend, SoaAmortizedQMax};
    use std::collections::HashMap;

    /// A q=500, γ=0.5, c=0.75 cache whose log is built from `proto`.
    fn pinned<B: IntervalBackend<u64, OrderedF64>>(
        proto: impl FnOnce(usize, f64) -> B,
    ) -> QMaxLrfu<u64, B> {
        let cap = QMaxLrfu::<u64>::log_capacity(500, 0.5);
        QMaxLrfu::with_buffer(500, 0.75, proto(cap, 0.5))
    }

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
        // Mirror the requests into an exact reference and verify that
        // the q highest-score keys of the reference are always cached.
        let q = 32;
        let c_decay = 0.75;
        let mut qmax = QMaxLrfu::new(q, 0.5, c_decay);
        let mut reference: HashMap<u64, f64> = HashMap::new();
        let ds = DecayScore::new(c_decay);
        let mut state = 5u64;
        for t in 1..=20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 200;
            qmax.request(key);
            let w = reference.entry(key).or_insert(f64::NEG_INFINITY);
            *w = ds.bump(*w, t);
            if t % 997 == 0 {
                let mut scored: Vec<(u64, f64)> = reference.iter().map(|(&k, &w)| (k, w)).collect();
                scored.sort_by(|a, b| b.1.total_cmp(&a.1));
                for &(k, _) in scored.iter().take(q) {
                    assert!(
                        qmax.cached.contains_key(&k),
                        "top-{q} key {k} evicted at t={t}"
                    );
                }
            }
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
    fn soa_backend_replays_identically() {
        // The log never self-compacts, so AoS and SoA backends see the
        // exact same entries and produce the exact same hit sequence.
        let trace = qmax_traces::gen::arc_like(60_000, 6_000, 13);
        let mut aos = QMaxLrfu::new(500, 0.5, 0.75);
        let mut soa = pinned(SoaAmortizedQMax::new);
        for &k in &trace {
            assert_eq!(aos.request(k), soa.request(k));
        }
        assert_eq!(aos.len(), soa.len());
    }

    #[test]
    fn adaptive_backend_replays_identically() {
        // Whatever layout the rules pick for the log (AoS — the score
        // lane is OrderedF64), hits and evictions
        // must match the fixed-layout construction exactly.
        let trace = qmax_traces::gen::arc_like(60_000, 6_000, 13);
        let mut aos = QMaxLrfu::new(500, 0.5, 0.75);
        let mut ada = pinned(AdaptiveBackend::new);
        for &k in &trace {
            assert_eq!(aos.request(k), ada.request(k));
        }
        assert_eq!(aos.len(), ada.len());
    }

    #[test]
    fn request_batch_matches_singletons() {
        let trace = qmax_traces::gen::arc_like(60_000, 6_000, 29);
        let mut one = QMaxLrfu::new(500, 0.5, 0.75);
        let mut batched = pinned(SoaAmortizedQMax::new);
        let mut hits_one = 0usize;
        for &k in &trace {
            hits_one += usize::from(one.request(k));
        }
        let mut hits_batch = 0usize;
        for span in trace.chunks(777) {
            hits_batch += batched.request_batch(span);
        }
        assert_eq!(hits_one, hits_batch);
        assert_eq!(one.len(), batched.len());
    }
}
