//! The paper's q-MAX based LRFU (Section 5.1): amortized constant time
//! per request.

use crate::score::DecayScore;
use crate::Cache;
use qmax_core::{
    AdaptiveBackend, AmortizedQMax, Entry, FlowIndex, IndexFamily, IntervalBackend, KeyIndex,
    OrderedF64, SoaAmortizedQMax,
};
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
/// array-of-structs [`AmortizedQMax`]); [`QMaxLrfu::new_soa`] swaps in
/// the structure-of-arrays backend so
/// [`request_batch`](QMaxLrfu::request_batch) appends whole spans
/// through the backend's batch kernel. The backend is configured so it
/// never self-compacts (its own `q` equals the log capacity), which
/// makes the two backends bit-for-bit interchangeable: same hits, same
/// evictions.
///
/// The cache population floats between `q` and `⌈q(1+γ)⌉` distinct
/// keys, and — like the paper's construction — the `q` highest-score
/// keys are never evicted.
///
/// The cache index defaults to the SIMD-probed [`qmax_core::FlowTable`]
/// ([`FlowIndex`]); [`qmax_core::StdIndex`] restores the
/// `std::collections::HashMap` index, kept as the baseline and as the
/// replay oracle for the differential tests.
#[derive(Debug, Clone)]
pub struct QMaxLrfu<
    K: Clone + Hash + Eq,
    B = AmortizedQMax<K, OrderedF64>,
    F: IndexFamily = FlowIndex,
> {
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
    cached: F::Index<K, MergeSlot>,
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
    /// Runtime-dispatched comparison kernel for the pivot census over
    /// the score column ([`Kernel::count_gt_eq`]).
    kernel: Kernel<OrderedF64>,
    time: u64,
    maintenance_passes: u64,
}

/// Per-key pointer into the score arena. Every resident key owns a
/// slot from the moment it is inserted (misses allocate on the spot);
/// `INVALID` only exists transiently as the pre-allocation value the
/// batched upsert writes before its visit callback claims a slot.
#[derive(Debug, Clone, Copy)]
struct MergeSlot {
    arena: u32,
}

impl MergeSlot {
    const INVALID: u32 = u32::MAX;
}

impl Default for MergeSlot {
    fn default() -> Self {
        MergeSlot {
            arena: MergeSlot::INVALID,
        }
    }
}

/// [`QMaxLrfu`] whose request log lives in the structure-of-arrays
/// backend (requires `Copy` keys).
pub type SoaQMaxLrfu<K, F = FlowIndex> = QMaxLrfu<K, SoaAmortizedQMax<K, OrderedF64>, F>;

impl<K: Clone + Hash + Eq> QMaxLrfu<K, AmortizedQMax<K, OrderedF64>, FlowIndex> {
    /// Creates a q-MAX LRFU cache that always retains the `q`
    /// highest-score keys, holds at most `⌈q(1+γ)⌉` keys, and decays
    /// with parameter `c`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `gamma` is not positive and finite, or `c`
    /// is outside `(0, 1)`.
    pub fn new(q: usize, gamma: f64, c: f64) -> Self {
        Self::new_in(q, gamma, c)
    }
}

impl<K: Clone + Hash + Eq, F: IndexFamily> QMaxLrfu<K, AmortizedQMax<K, OrderedF64>, F> {
    /// Like [`QMaxLrfu::new`], but with an explicit [`IndexFamily`]
    /// (e.g. `QMaxLrfu::<u64, _, StdIndex>::new_in(...)` for the
    /// HashMap-era baseline).
    pub fn new_in(q: usize, gamma: f64, c: f64) -> Self {
        let cap = Self::log_capacity(q, gamma);
        Self::with_buffer(q, c, AmortizedQMax::new(cap, gamma))
    }
}

impl<K: Copy + Clone + Hash + Eq + 'static> SoaQMaxLrfu<K, FlowIndex> {
    /// Like [`QMaxLrfu::new`], but the request log is a
    /// structure-of-arrays [`SoaAmortizedQMax`]. Behaviorally identical
    /// to the default backend — same hits and evictions on the same
    /// trace — but batch appends run the branchless lane kernel.
    pub fn new_soa(q: usize, gamma: f64, c: f64) -> Self {
        Self::new_soa_in(q, gamma, c)
    }
}

impl<K: Copy + Clone + Hash + Eq + 'static, F: IndexFamily> SoaQMaxLrfu<K, F> {
    /// Like [`SoaQMaxLrfu::new_soa`], but with an explicit
    /// [`IndexFamily`].
    pub fn new_soa_in(q: usize, gamma: f64, c: f64) -> Self {
        let cap = Self::log_capacity(q, gamma);
        Self::with_buffer(q, c, SoaAmortizedQMax::new(cap, gamma))
    }
}

/// [`QMaxLrfu`] whose request-log layout is chosen by the static
/// backend policy rules. The log's value lane is [`OrderedF64`] (decayed
/// scores), which the SIMD kernels cannot vectorize, so under the
/// `auto` policy this resolves to the array-of-structs log — the
/// measured-faster layout for the never-self-compacting buffer — while
/// still honoring `QMAX_BACKEND_POLICY=force-soa` overrides.
pub type AdaptiveQMaxLrfu<K, F = FlowIndex> = QMaxLrfu<K, AdaptiveBackend<K, OrderedF64>, F>;

impl<K: Copy + Clone + Hash + Eq + 'static> AdaptiveQMaxLrfu<K, FlowIndex> {
    /// Like [`QMaxLrfu::new`], but the request log delegates to the
    /// layout the global backend policy picks. Behaviorally identical
    /// to both fixed-layout constructors on any trace.
    pub fn new_adaptive(q: usize, gamma: f64, c: f64) -> Self {
        Self::new_adaptive_in(q, gamma, c)
    }
}

impl<K: Copy + Clone + Hash + Eq + 'static, F: IndexFamily> AdaptiveQMaxLrfu<K, F> {
    /// Like [`AdaptiveQMaxLrfu::new_adaptive`], but with an explicit
    /// [`IndexFamily`].
    pub fn new_adaptive_in(q: usize, gamma: f64, c: f64) -> Self {
        let cap = Self::log_capacity(q, gamma);
        Self::with_buffer(q, c, AdaptiveBackend::new(cap, gamma))
    }
}

impl<K: Clone + Hash + Eq, B: IntervalBackend<K, OrderedF64>, F: IndexFamily> QMaxLrfu<K, B, F> {
    fn log_capacity(q: usize, gamma: f64) -> usize {
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
            cached: F::Index::with_capacity(cap),
            arena_keys: Vec::new(),
            arena_vals: Vec::new(),
            arena_live: Vec::new(),
            arena_free: Vec::new(),
            hints: Vec::new(),
            carried: 0,
            log_scratch: Vec::new(),
            score_scratch: Vec::new(),
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
    /// are assigned in miss order — identical for every index family —
    /// so eviction decisions cannot depend on index iteration order
    /// even through exact score ties.
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

    /// Registers a request for `key` in the cache index, records the
    /// key's arena-slot hint, and returns `(hit, log entry to
    /// append)`. Hits are read-only probes; only misses write to the
    /// index (and claim an arena slot).
    fn account(&mut self, key: K) -> (bool, (K, OrderedF64)) {
        self.time += 1;
        let w = OrderedF64(self.score.access(self.time));
        let (hit, hint) = match self.cached.get_mut(&key) {
            Some(ms) => (true, ms.arena),
            None => {
                let idx = Self::alloc_slot(
                    &mut self.arena_keys,
                    &mut self.arena_vals,
                    &mut self.arena_live,
                    &mut self.arena_free,
                    key.clone(),
                );
                self.cached.insert(key.clone(), MergeSlot { arena: idx });
                (false, idx)
            }
        };
        self.hints.push(hint);
        (hit, (key, w))
    }

    /// Processes a span of requests, returning the number of hits.
    /// Semantically identical to calling [`Cache::request`] per key,
    /// but appends each between-maintenance run of entries to the log
    /// in one backend batch call, and registers the whole span in the
    /// cache index through one batched-upsert pipeline
    /// ([`KeyIndex::entry_batch`]) — the index probes for up to
    /// [`qmax_core::PROBE_PIPELINE`] requests overlap instead of each
    /// paying a dependent cache-miss chain. A duplicate key inside one
    /// span hits from its second occurrence on, exactly as the
    /// singleton loop behaves.
    pub fn request_batch(&mut self, keys: &[K]) -> usize {
        let mut hits = 0;
        let mut scratch: Vec<(K, OrderedF64)> = Vec::new();
        let mut i = 0;
        while i < keys.len() {
            let take = (self.cap - self.carried - self.buf.len()).min(keys.len() - i);
            let span = &keys[i..i + take];
            scratch.clear();
            let t0 = self.time;
            let score = self.score;
            let arena_keys = &mut self.arena_keys;
            let arena_vals = &mut self.arena_vals;
            let arena_live = &mut self.arena_live;
            let arena_free = &mut self.arena_free;
            let hints = &mut self.hints;
            self.cached.entry_batch(
                span,
                |_| MergeSlot::default(),
                |j, slot, present| {
                    hits += usize::from(present);
                    if !present {
                        slot.arena = Self::alloc_slot(
                            arena_keys,
                            arena_vals,
                            arena_live,
                            arena_free,
                            span[j].clone(),
                        );
                    }
                    hints.push(slot.arena);
                    let w = OrderedF64(score.access(t0 + j as u64 + 1));
                    scratch.push((span[j].clone(), w));
                },
            );
            self.time = t0 + take as u64;
            self.buf.insert_batch(&scratch);
            i += take;
            if self.buf.len() + self.carried == self.cap {
                self.maintain();
            }
        }
        hits
    }
}

impl<K: Clone + Hash + Eq, B: IntervalBackend<K, OrderedF64>, F: IndexFamily> Cache<K>
    for QMaxLrfu<K, B, F>
{
    fn request(&mut self, key: K) -> bool {
        let (hit, (key, w)) = self.account(key);
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
        let mut soa = SoaQMaxLrfu::new_soa(500, 0.5, 0.75);
        for &k in &trace {
            assert_eq!(aos.request(k), soa.request(k));
        }
        assert_eq!(aos.len(), soa.len());
    }

    #[test]
    fn adaptive_backend_replays_identically() {
        // Whatever layout the policy picks for the log (AoS under
        // `auto` — the score lane is OrderedF64), hits and evictions
        // must match the fixed-layout construction exactly.
        let trace = qmax_traces::gen::arc_like(60_000, 6_000, 13);
        let mut aos = QMaxLrfu::new(500, 0.5, 0.75);
        let mut ada = AdaptiveQMaxLrfu::new_adaptive(500, 0.5, 0.75);
        for &k in &trace {
            assert_eq!(aos.request(k), ada.request(k));
        }
        assert_eq!(aos.len(), ada.len());
    }

    #[test]
    fn request_batch_matches_singletons() {
        let trace = qmax_traces::gen::arc_like(60_000, 6_000, 29);
        let mut one = QMaxLrfu::new(500, 0.5, 0.75);
        let mut batched = SoaQMaxLrfu::new_soa(500, 0.5, 0.75);
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
