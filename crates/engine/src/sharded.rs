//! The sharded q-MAX reservoir.

use crate::shard_key::ShardKey;
use qmax_core::{
    retain_top_q, AdaptiveBackend, AdaptiveBasicSlackQMax, BatchInsert, DeamortizedQMax,
    DeamortizedStats, Entry, ExpDecayQMax, OrderedF64, QMax, QMaxError,
};
use qmax_traces::hash;
use std::marker::PhantomData;

/// Default seed mixed into shard hashing (any fixed constant works; it
/// only decorrelates shard assignment from other uses of the same key
/// hash, e.g. the RSS hash of the packet source).
const DEFAULT_SEED: u64 = 0x51AD_ED01;

/// A copyable id→shard mapping, usable while the shard backends are
/// temporarily moved into worker threads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardRouter {
    seed: u64,
    shards: usize,
}

impl ShardRouter {
    /// The shard for an id: a seeded 64-bit mix of the id's key word,
    /// reduced by multiply-shift (unbiased for any shard count).
    #[inline]
    pub(crate) fn route<I: ShardKey>(&self, id: &I) -> usize {
        let h = hash::hash64(id.shard_hash(), self.seed);
        (((h as u128) * (self.shards as u128)) >> 64) as usize
    }
}

/// `S` hash-partitioned q-MAX shards answering global top-`q` queries.
///
/// Each shard is an independent [`QMax`] backend configured with the
/// *global* `q`: partitioning by id means a shard sees only a sub-stream,
/// and retaining the local top-`q` of every sub-stream is exactly what
/// makes the merged union a superset of the global top-`q` (at most
/// `q − 1` items beat a global top-`q` item anywhere, so in particular
/// within its own shard).
///
/// The structure itself implements [`QMax`], so it can stand wherever a
/// single-instance backend does — including the cross-backend agreement
/// tests, which assert its merged result equals [`qmax_core::HeapQMax`]'s
/// value-for-value.
///
/// Construction:
/// * [`ShardedQMax::new`] — `S` [`DeamortizedQMax`] shards (the paper's
///   worst-case-constant-time structure).
/// * [`ShardedQMax::with_backends`] — any homogeneous backend set built
///   by a closure, e.g. `AmortizedQMax` or `HeapQMax` shards.
#[derive(Debug)]
pub struct ShardedQMax<I, V, B = DeamortizedQMax<I, V>> {
    shards: Vec<B>,
    /// The backend factory the shards were built from, retained so a
    /// poisoned shard can be quarantined and rebuilt fresh (the
    /// `IntervalBackend::fresh` prototype pattern, lifted to the
    /// engine): the engine stays queryable with `S − k` populated
    /// reservoirs plus `k` empty replacements after `k` failures.
    factory: ShardFactory<B>,
    /// Configured shard count `S`; equals `shards.len()` except while a
    /// threaded run has temporarily moved the backends into workers.
    stated_shards: usize,
    q: usize,
    seed: u64,
    /// Items dropped by the batched pre-filter before reaching a shard.
    prefiltered: u64,
    /// Per-shard health as of the most recent threaded/supervised run
    /// (all [`ShardHealth::Healthy`] for a purely sequential engine).
    health: Vec<ShardHealth>,
    /// Per-shard conserved items: items routed or drained into the
    /// shard whose effect the engine committed to represent, summed
    /// over sequential inserts (pre-filtered items included) and every
    /// threaded/supervised run since construction or the last reset.
    conserved: Vec<u64>,
    _marker: ItemMarker<I, V>,
}

/// How much of a shard's conserved state the current backend actually
/// represents — the per-shard input to coverage annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// The backend holds everything the shard drained.
    Healthy,
    /// The backend was warm-restored from a checkpoint: it represents
    /// the shard's conserved items (post-checkpoint losses were
    /// reclassified as quarantined), but the shard did fail during the
    /// run.
    Restored,
    /// The backend was rebuilt cold (no checkpoint): the shard's
    /// conserved items are not represented until new arrivals
    /// repopulate it.
    Degraded,
}

/// A merged top-`q` query annotated with how much of the engine's
/// conserved state backs it. See [`ShardedQMax::query_with_coverage`].
#[derive(Debug, Clone)]
pub struct CoverageQuery<I, V> {
    /// The merged global top-`q` (same contents as [`QMax::query`]).
    pub items: Vec<(I, V)>,
    /// Fraction of conserved items (across all shards) represented by
    /// currently healthy or warm-restored shards. Exactly 1.0 when
    /// every shard is healthy or fully restored; dips below 1.0 while
    /// a cold-rebuilt shard's slice of the state is missing.
    pub coverage: f64,
    /// Shards whose results are not exact ([`ShardHealth::Restored`]
    /// or [`ShardHealth::Degraded`]), in shard order.
    pub degraded_shards: Vec<usize>,
}

/// The stored shard constructor (index → backend). Boxed so the engine
/// type stays independent of the concrete closure.
struct ShardFactory<B>(Box<dyn FnMut(usize) -> B + Send>);

impl<B> std::fmt::Debug for ShardFactory<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ShardFactory(..)")
    }
}

/// Variance-neutral marker tying the engine to its item types without
/// owning them (a backend-generic engine stores only `B`s).
type ItemMarker<I, V> = PhantomData<fn(I, V) -> (I, V)>;

impl<I: Clone, V: Ord + Clone> ShardedQMax<I, V> {
    /// Creates `shards` de-amortized shards, each tracking the global
    /// top-`q` with space-slack `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, or `gamma` is not positive
    /// and finite. Use [`ShardedQMax::try_new`] at fallible API
    /// boundaries.
    pub fn new(q: usize, gamma: f64, shards: usize) -> Self {
        Self::try_new(q, gamma, shards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ShardedQMax::new`]: rejects `q == 0`, non-positive /
    /// non-finite `gamma`, and `shards == 0` instead of panicking — the
    /// constructor a service exposes to operator-supplied configuration.
    pub fn try_new(q: usize, gamma: f64, shards: usize) -> Result<Self, QMaxError> {
        if shards == 0 {
            return Err(QMaxError::ZeroShards);
        }
        // Shard 0 validates (q, gamma), so the error surfaces before
        // any other shard is built and no backend is built to be
        // thrown away.
        let first = DeamortizedQMax::try_new(q, gamma)?;
        let make_shard = move |_| DeamortizedQMax::new(q, gamma);
        let built = std::iter::once(first)
            .chain((1..shards).map(make_shard))
            .collect();
        Ok(Self::from_built(q, built, make_shard))
    }

    /// Per-shard de-amortized execution counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<DeamortizedStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }

    /// Counters rolled up across shards: sums everywhere except
    /// `max_step_ops`, which is the maximum over shards — the quantity
    /// the worst-case `O(γ⁻¹)` bound constrains per arrival.
    pub fn aggregate_stats(&self) -> DeamortizedStats {
        let mut agg = DeamortizedStats::default();
        for s in self.shards.iter().map(|s| s.stats()) {
            agg.admitted += s.admitted;
            agg.filtered += s.filtered;
            agg.iterations += s.iterations;
            agg.forced_completions += s.forced_completions;
            agg.total_ops += s.total_ops;
            agg.max_step_ops = agg.max_step_ops.max(s.max_step_ops);
        }
        agg
    }
}

impl<I, V, B: QMax<I, V>> ShardedQMax<I, V, B> {
    /// Creates `shards` shards from `make_shard(shard_index)`.
    ///
    /// Every backend must be configured with the same global `q`
    /// (asserted), otherwise the merge-on-query superset argument
    /// breaks.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, or a backend reports a
    /// different `q`.
    ///
    /// The factory is retained for the lifetime of the engine: it is
    /// what [`ShardedQMax::rebuild_shard`] (and the fault-tolerant
    /// driver's quarantine path) stamps replacement backends out of, so
    /// it must be callable again with any shard index.
    pub fn with_backends<F: FnMut(usize) -> B + Send + 'static>(
        q: usize,
        shards: usize,
        mut make_shard: F,
    ) -> Self {
        assert!(q > 0, "q must be positive");
        assert!(shards > 0, "need at least one shard");
        let built = (0..shards).map(&mut make_shard).collect();
        Self::from_built(q, built, make_shard)
    }

    /// Assembles an engine from its built shards and the factory that
    /// stamps out their replacements.
    fn from_built<F: FnMut(usize) -> B + Send + 'static>(
        q: usize,
        built: Vec<B>,
        make_shard: F,
    ) -> Self {
        for (i, s) in built.iter().enumerate() {
            assert_eq!(
                s.q(),
                q,
                "shard {i} configured with q={}, engine q={q}",
                s.q()
            );
        }
        let stated_shards = built.len();
        ShardedQMax {
            shards: built,
            factory: ShardFactory(Box::new(make_shard)),
            stated_shards,
            q,
            seed: DEFAULT_SEED,
            prefiltered: 0,
            health: vec![ShardHealth::Healthy; stated_shards],
            conserved: vec![0; stated_shards],
            _marker: PhantomData,
        }
    }

    /// Quarantines shard `s`: replaces its backend with a fresh, empty
    /// one stamped out of the stored factory and returns the displaced
    /// backend (drop it to discard the poisoned state).
    ///
    /// The other `S − 1` shards are untouched, so the engine remains
    /// queryable throughout — a merged query simply loses shard `s`'s
    /// contribution until new arrivals repopulate it, mirroring the
    /// paper's per-PMD independence (one PMD's instance restarting
    /// never stalls the others).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the factory produces a backend
    /// with a mismatched `q` (the same invariant construction checks).
    pub fn rebuild_shard(&mut self, s: usize) -> B {
        let fresh = self.fresh_shard(s);
        if self.conserved[s] > 0 || !self.shards[s].is_empty() {
            self.health[s] = ShardHealth::Degraded;
        }
        std::mem::replace(&mut self.shards[s], fresh)
    }

    /// Warm variant of [`rebuild_shard`](Self::rebuild_shard): replaces
    /// shard `s`'s backend with a fresh one but salvages the displaced
    /// backend's local top-`q` into it first, returning the number of
    /// candidates carried over.
    ///
    /// This is the survival move when a shard's *structure* is suspect
    /// but its candidate set is still trusted (or was validated out of
    /// band): the rebuilt shard re-adopts exactly the candidates that
    /// determine every future top-`q` answer, so a merged query over the
    /// full history stays exact — any global top-`q` item from before
    /// the rebuild is, by definition, in its shard's local top-`q` and
    /// survives the salvage. Only the sub-top-`q` slack candidates and
    /// the admission threshold Ψ are discarded, which merely re-widens
    /// admission (the safe direction: Ψ may only have been too low,
    /// never too high). The shard is marked [`ShardHealth::Restored`]
    /// rather than `Degraded`.
    ///
    /// A threaded run gets the stronger per-batch checkpointed recovery
    /// through [`DriverConfig::checkpoint_every`](crate::DriverConfig::checkpoint_every);
    /// this method is the move between runs, and works for backends
    /// without [`qmax_core::Checkpoint`] too (window and decay shards).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the factory produces a backend
    /// with a mismatched `q`.
    pub fn rebuild_shard_warm(&mut self, s: usize) -> usize {
        let fresh = self.fresh_shard(s);
        let mut old = std::mem::replace(&mut self.shards[s], fresh);
        let salvaged = old.query();
        let carried = salvaged.len();
        for (id, v) in salvaged {
            self.shards[s].insert(id, v);
        }
        if carried > 0 {
            self.health[s] = ShardHealth::Restored;
        }
        carried
    }

    /// Stamps a fresh backend for shard `s` out of the stored factory
    /// without touching the current shard vector (the threaded driver
    /// uses this while the backends live outside `self` mid-run).
    pub(crate) fn fresh_shard(&mut self, s: usize) -> B {
        let fresh = (self.factory.0)(s);
        assert_eq!(
            fresh.q(),
            self.q,
            "rebuilt shard {s} configured with q={}, engine q={}",
            fresh.q(),
            self.q
        );
        fresh
    }

    /// Replaces the shard-assignment seed (rarely needed; distinct
    /// engines sharing ids partition identically unless reseeded).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of shards `S`.
    pub fn shard_count(&self) -> usize {
        self.stated_shards
    }

    /// Read access to the shard backends.
    pub fn shards(&self) -> &[B] {
        &self.shards
    }

    /// Each shard's [`QMax::backend_label`], indexed by shard —
    /// observability for the adaptive backend selection (which layout
    /// the policy actually chose per shard). Empty while a threaded run
    /// has the backends moved into workers.
    pub fn shard_backend_labels(&self) -> Vec<&'static str> {
        self.shards.iter().map(|s| s.backend_label()).collect()
    }

    /// Items dropped by the batched pre-filter (cheap compare against a
    /// cached Ψ) without touching a shard. Not counted in any shard's
    /// own `filtered` statistic.
    pub fn prefiltered(&self) -> u64 {
        self.prefiltered
    }

    /// Per-shard health as of the most recent threaded/supervised run.
    pub fn shard_health(&self) -> &[ShardHealth] {
        &self.health
    }

    /// Records the per-shard health of a finished driver run and adds
    /// its drained counts to the conserved items (the inputs to
    /// coverage annotation).
    pub(crate) fn set_coverage(&mut self, health: Vec<ShardHealth>, drained: &[u64]) {
        debug_assert_eq!(health.len(), self.stated_shards);
        debug_assert_eq!(drained.len(), self.stated_shards);
        self.health = health;
        for (c, &d) in self.conserved.iter_mut().zip(drained) {
            *c += d;
        }
    }

    /// The merged top-`q` annotated with the fraction of conserved
    /// items represented by currently-healthy + warm-restored shards.
    ///
    /// Callers use this to distinguish an exact top-`q` (`coverage ==
    /// 1.0`, `degraded_shards` empty) from a partial one during or
    /// after an outage: a cold-rebuilt shard leaves its conserved items
    /// unrepresented (`coverage < 1.0`) until a warm restore — or new
    /// arrivals — bring the fraction back toward 1.0.
    pub fn query_with_coverage(&mut self) -> CoverageQuery<I, V>
    where
        I: ShardKey + Clone,
        V: Ord + Clone,
        B: QMax<I, V>,
    {
        let items = self.query();
        let total: u64 = self.conserved.iter().sum();
        let represented: u64 = self
            .conserved
            .iter()
            .zip(&self.health)
            .filter(|&(_, h)| !matches!(h, ShardHealth::Degraded))
            .map(|(&c, _)| c)
            .sum();
        let coverage = if total == 0 {
            1.0
        } else {
            represented as f64 / total as f64
        };
        let degraded_shards = self
            .health
            .iter()
            .enumerate()
            .filter(|&(_, h)| !matches!(h, ShardHealth::Healthy))
            .map(|(s, _)| s)
            .collect();
        CoverageQuery {
            items,
            coverage,
            degraded_shards,
        }
    }

    /// The shard an id routes to: a seeded 64-bit mix of the id's key
    /// word, reduced by multiply-shift (unbiased for any shard count).
    #[inline]
    pub fn shard_of(&self, id: &I) -> usize
    where
        I: ShardKey,
    {
        self.router().route(id)
    }

    /// The id→shard mapping as a standalone copyable value.
    pub(crate) fn router(&self) -> ShardRouter {
        ShardRouter {
            seed: self.seed,
            shards: self.shards.len().max(self.stated_shards),
        }
    }

    /// Moves the shard backends out (for worker threads); the engine is
    /// not queryable until [`Self::restore_shards`] puts them back.
    pub(crate) fn take_shards(&mut self) -> Vec<B> {
        std::mem::take(&mut self.shards)
    }

    /// Puts backends taken by [`Self::take_shards`] back in shard order.
    pub(crate) fn restore_shards(&mut self, shards: Vec<B>) {
        debug_assert_eq!(shards.len(), self.stated_shards);
        self.shards = shards;
    }

    /// Batched hot path: inserts a batch, pre-filtering against each
    /// shard's cached admission threshold Ψ before touching the shard.
    ///
    /// The Ψ load is hoisted out of the per-item loop: each shard's
    /// threshold is read **once per call**, and the routing loop only
    /// compares against that snapshot. Ψ can rise mid-batch (a shard
    /// compaction), but re-reading it per item buys nothing for
    /// correctness — the snapshot is a safe under-approximation (Ψ is
    /// monotone non-decreasing, so the pre-filter drops only items the
    /// shard itself would have filtered) and every shard re-checks its
    /// own exact, current Ψ inside [`BatchInsert::insert_batch`]. The
    /// next call picks up whatever the compactions raised.
    ///
    /// Survivors are routed into per-shard runs and handed to each
    /// backend as one contiguous batch, so a structure-of-arrays backend
    /// (built through [`ShardedQMax::with_backends`]) can run its
    /// branchless filter over the whole run. Returns the number of
    /// admitted items.
    pub fn insert_batch(&mut self, items: &[(I, V)]) -> usize
    where
        I: ShardKey + Clone,
        V: Ord + Clone,
        B: BatchInsert<I, V>,
    {
        if self.shards.len() == 1 {
            // Single shard: routing and pre-filtering are pure overhead;
            // the backend's own admission filter sees the batch whole.
            self.conserved[0] += items.len() as u64;
            return self.shards[0].insert_batch(items);
        }
        let router = self.router();
        let psi: Vec<Option<V>> = self.shards.iter().map(|s| s.threshold()).collect();
        let mut runs: Vec<Vec<(I, V)>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (id, val) in items {
            let s = router.route(id);
            self.conserved[s] += 1;
            if let Some(t) = &psi[s] {
                if val <= t {
                    self.prefiltered += 1;
                    continue;
                }
            }
            runs[s].push((id.clone(), val.clone()));
        }
        let mut admitted = 0usize;
        for (s, run) in runs.iter().enumerate() {
            if !run.is_empty() {
                admitted += self.shards[s].insert_batch(run);
            }
        }
        admitted
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> ShardedQMax<I, V, AdaptiveBasicSlackQMax<I, V>> {
    /// Creates `shards` slack-window shards whose per-block layout is
    /// chosen by the static layout rules of
    /// [`qmax_core::AdaptiveBackend`]: each shard's expected per-block
    /// fill `⌈(w/S)·τ⌉` decides between the array-of-structs and
    /// structure-of-arrays block, ending the small-τ collapse of the
    /// hand-picked SoA configuration while keeping its large-fill wins.
    ///
    /// Each shard tracks the top-`q` of its sub-stream over a
    /// count-based `(W/S, τ)`-slack window, so the merged query
    /// approximates the global top-`q` of the last `w` arrivals (hash
    /// partitioning spreads a window of `w` global arrivals across
    /// shards as ≈ `w/S` arrivals each; per-shard block boundaries
    /// therefore jitter by the partition's deviation from a perfect
    /// split, which concentrates tightly for `w ≫ S`).
    ///
    /// Window shards report no admission threshold (block boundaries
    /// count *arrivals*, so dropping items early would shift them);
    /// [`ShardedQMax::insert_batch`] detects that and routes every item
    /// through, still batching per-shard runs through the block kernel.
    ///
    /// This is the recommended windowed constructor; pin a layout by
    /// hand with [`ShardedQMax::with_backends`] and a per-shard
    /// `BasicSlackQMax::with_backend(w / S, τ, proto)`. Inspect the
    /// per-shard decisions with [`ShardedQMax::shard_backend_labels`].
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, `gamma` is not positive and
    /// finite, `w == 0`, or `tau` is outside `(0, 1]`.
    pub fn new_windowed(q: usize, gamma: f64, shards: usize, w: usize, tau: f64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(w > 0, "window must be positive");
        let per_shard_w = (w / shards).max(1);
        Self::with_backends(q, shards, move |_| {
            AdaptiveBasicSlackQMax::new_adaptive(q, gamma, per_shard_w, tau)
        })
    }
}

impl<I: Copy + 'static>
    ShardedQMax<I, OrderedF64, ExpDecayQMax<AdaptiveBackend<I, OrderedF64>, I>>
{
    /// Creates `shards` exponential-decay shards whose reservoir layout
    /// is chosen by the static layout rules of
    /// [`qmax_core::AdaptiveBackend`]. Decayed reservoirs score in
    /// [`OrderedF64`], a lane the SIMD kernels cannot vectorize, so
    /// these shards always take the array-of-structs layout; pin the
    /// split-lane layout for comparison runs with
    /// [`ShardedQMax::with_backends`] and a `SoaAmortizedQMax` reservoir.
    ///
    /// Each shard ages its sub-stream with per-shard decay `c^S`, so an
    /// item `k` *global* arrivals old has decayed by ≈ `c^k` (its shard
    /// saw ≈ `k/S` of those arrivals). The decay clock advances per
    /// shard-local arrival, so the equivalence is in expectation over
    /// the hash partition.
    ///
    /// Decayed shards report no admission threshold (an arriving item's
    /// stored score depends on its arrival time), disabling the
    /// engine's Ψ-prefilter; per-shard runs still flow through the
    /// backend's batch kernel with the log transform applied once per
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `shards == 0`, `gamma` is not positive and
    /// finite, or `c` is outside `(0, 1]`.
    pub fn new_decayed(q: usize, gamma: f64, shards: usize, c: f64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(c > 0.0 && c <= 1.0, "decay parameter must be in (0, 1]");
        let c_shard = c.powf(shards as f64).max(f64::MIN_POSITIVE);
        Self::with_backends(q, shards, move |_| {
            ExpDecayQMax::new(AdaptiveBackend::new(q, gamma), c_shard)
        })
    }
}

impl<I: ShardKey, V: Ord + Clone, B: QMax<I, V>> QMax<I, V> for ShardedQMax<I, V, B> {
    fn insert(&mut self, id: I, val: V) -> bool {
        let s = self.shard_of(&id);
        self.conserved[s] += 1;
        self.shards[s].insert(id, val)
    }

    fn query(&mut self) -> Vec<(I, V)> {
        let mut merged: Vec<Entry<I, V>> = Vec::with_capacity(self.shards.len() * self.q);
        for shard in &mut self.shards {
            merged.extend(
                shard
                    .query()
                    .into_iter()
                    .map(|(id, val)| Entry::new(id, val)),
            );
        }
        // Global top-q from the S·q candidates.
        retain_top_q(&mut merged, 0, self.q);
        merged.into_iter().map(|e| (e.id, e.val)).collect()
    }

    fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
        self.prefiltered = 0;
        self.health.fill(ShardHealth::Healthy);
        self.conserved.fill(0);
    }

    fn q(&self) -> usize {
        self.q
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// The global admission threshold: the *minimum* over shard
    /// thresholds. A value at or below it is at or below its own
    /// shard's Ψ, so it would be filtered wherever it routes; `None`
    /// until every shard has established a threshold.
    fn threshold(&self) -> Option<V> {
        let mut min: Option<V> = None;
        for shard in &self.shards {
            let t = shard.threshold()?;
            min = Some(match min {
                Some(m) if m <= t => m,
                _ => t,
            });
        }
        min
    }

    fn name(&self) -> &'static str {
        "qmax-sharded"
    }
}

impl<I: ShardKey + Clone, V: Ord + Clone, B: BatchInsert<I, V>> BatchInsert<I, V>
    for ShardedQMax<I, V, B>
{
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        ShardedQMax::insert_batch(self, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmax_core::{BasicSlackQMax, HeapQMax, SoaAmortizedQMax, SoaDeamortizedQMax};
    use qmax_traces::gen::{caida_like, random_u64_stream};

    fn top_q_reference(vals: &[u64], q: usize) -> Vec<u64> {
        let mut s = vals.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s.truncate(q);
        s.sort_unstable();
        s
    }

    fn sorted_vals(qm: &mut impl QMax<u64, u64>) -> Vec<u64> {
        let mut v: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_reference_across_shard_counts() {
        let vals: Vec<u64> = random_u64_stream(40_000, 3).collect();
        for q in [1usize, 16, 500] {
            let expect = top_q_reference(&vals, q);
            for shards in [1usize, 2, 4, 8] {
                let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
                for (i, &v) in vals.iter().enumerate() {
                    engine.insert(i as u64, v);
                }
                assert_eq!(sorted_vals(&mut engine), expect, "q={q} shards={shards}");
            }
        }
    }

    #[test]
    fn batch_insert_equals_singleton_inserts() {
        let vals: Vec<u64> = random_u64_stream(30_000, 5).collect();
        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let q = 64;
        let mut batched: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 4);
        let mut single: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, 4);
        for chunk in items.chunks(777) {
            batched.insert_batch(chunk);
        }
        for (id, v) in &items {
            single.insert(*id, *v);
        }
        assert_eq!(sorted_vals(&mut batched), sorted_vals(&mut single));
        // The pre-filter must shed the bulk of a long random stream.
        assert!(
            batched.prefiltered() > items.len() as u64 / 2,
            "pre-filter inactive"
        );
    }

    #[test]
    fn pre_filter_never_loses_an_admissible_item() {
        // Ascending stream: every item beats the current threshold, so
        // nothing may be pre-filtered and the final top-q is exact.
        let q = 32;
        let items: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i, i)).collect();
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, 4);
        for chunk in items.chunks(512) {
            engine.insert_batch(chunk);
        }
        let expect: Vec<u64> = (20_000 - q as u64..20_000).collect();
        assert_eq!(sorted_vals(&mut engine), expect);
    }

    #[test]
    fn agrees_with_heap_backend_shards() {
        let vals: Vec<u64> = random_u64_stream(25_000, 9).collect();
        let q = 100;
        let mut engine: ShardedQMax<u64, u64, HeapQMax<u64, u64>> =
            ShardedQMax::with_backends(q, 3, move |_| HeapQMax::new(q));
        for (i, &v) in vals.iter().enumerate() {
            engine.insert(i as u64, v);
        }
        assert_eq!(sorted_vals(&mut engine), top_q_reference(&vals, q));
    }

    #[test]
    fn shard_routing_is_stable_and_total() {
        let engine: ShardedQMax<u64, u64> = ShardedQMax::new(8, 0.5, 5);
        for id in 0..10_000u64 {
            let s = engine.shard_of(&id);
            assert!(s < 5);
            assert_eq!(s, engine.shard_of(&id), "routing not deterministic");
        }
    }

    #[test]
    fn shards_see_disjoint_balanced_slices() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(4, 0.5, 4);
        let n = 40_000u64;
        for id in 0..n {
            engine.insert(id, hash::mix64(id));
        }
        let stats = engine.shard_stats();
        let total: u64 = stats.iter().map(|s| s.admitted + s.filtered).sum();
        assert_eq!(total, n, "arrival accounting leak across shards");
        for (i, s) in stats.iter().enumerate() {
            let seen = s.admitted + s.filtered;
            assert!(
                seen > n / 8 && seen < n / 2,
                "shard {i} saw {seen} of {n}: partition badly unbalanced"
            );
        }
    }

    #[test]
    fn threshold_is_min_over_shards() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(4, 0.25, 3);
        assert_eq!(engine.threshold(), None);
        for id in 0..50_000u64 {
            engine.insert(id, hash::mix64(id) % 100_000);
        }
        let global = engine.threshold().expect("threshold after 50k inserts");
        let per_shard: Vec<u64> = engine
            .shards()
            .iter()
            .map(|s| s.threshold().expect("shard threshold"))
            .collect();
        assert_eq!(global, per_shard.iter().copied().min().unwrap());
        // Safety: a value at the global threshold is never admitted.
        assert!(!engine.insert(u64::MAX, global));
    }

    #[test]
    fn reset_clears_every_shard() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(4, 0.5, 4);
        for id in 0..5_000u64 {
            engine.insert(id, id);
        }
        engine.reset();
        assert!(engine.is_empty());
        assert_eq!(engine.threshold(), None);
        assert_eq!(engine.prefiltered(), 0);
        for id in 0..100u64 {
            engine.insert(id, id);
        }
        assert_eq!(engine.query().len(), 4);
    }

    #[test]
    fn single_shard_degenerates_to_backend() {
        let vals: Vec<u64> = random_u64_stream(10_000, 11).collect();
        let q = 50;
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.3, 1);
        let mut plain = DeamortizedQMax::new(q, 0.3);
        for (i, &v) in vals.iter().enumerate() {
            engine.insert(i as u64, v);
            plain.insert(i as u64, v);
        }
        let mut a = sorted_vals(&mut engine);
        let mut b: Vec<u64> = plain.query().into_iter().map(|(_, v)| v).collect();
        b.sort_unstable();
        a.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "shard 0 configured with q=3")]
    fn mismatched_shard_q_is_rejected() {
        let _: ShardedQMax<u64, u64, HeapQMax<u64, u64>> =
            ShardedQMax::with_backends(5, 2, |_| HeapQMax::new(3));
    }

    #[test]
    fn soa_backend_matches_aos_backend() {
        let vals: Vec<u64> = random_u64_stream(30_000, 13).collect();
        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        for q in [1usize, 64, 300] {
            for shards in [1usize, 4] {
                let mut aos: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.5, shards);
                let mut soa =
                    ShardedQMax::with_backends(q, shards, move |_| SoaDeamortizedQMax::new(q, 0.5));
                for chunk in items.chunks(1024) {
                    aos.insert_batch(chunk);
                    soa.insert_batch(chunk);
                }
                assert_eq!(
                    sorted_vals(&mut aos),
                    sorted_vals(&mut soa),
                    "q={q} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn soa_amortized_backend_matches_reference() {
        let vals: Vec<u64> = random_u64_stream(25_000, 17).collect();
        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let q = 128;
        let mut engine = ShardedQMax::with_backends(q, 4, move |_| SoaAmortizedQMax::new(q, 0.5));
        for chunk in items.chunks(777) {
            engine.insert_batch(chunk);
        }
        assert_eq!(sorted_vals(&mut engine), top_q_reference(&vals, q));
    }

    #[test]
    fn batch_path_shard_stats_roll_up() {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(16, 0.5, 4);
        let items: Vec<(u64, u64)> = (0..40_000u64).map(|i| (i, hash::mix64(i))).collect();
        for chunk in items.chunks(512) {
            engine.insert_batch(chunk);
        }
        let agg = engine.aggregate_stats();
        assert_eq!(agg.forced_completions, 0);
        // Every item was either pre-filtered by the engine or accounted
        // for by exactly one shard.
        assert_eq!(
            agg.admitted + agg.filtered + engine.prefiltered(),
            items.len() as u64
        );
        assert_eq!(engine.shard_stats().len(), 4);
    }

    #[test]
    fn windowed_shards_expire_old_items_and_track_recent_top() {
        let q = 8;
        let w = 10_000;
        let mut engine = ShardedQMax::new_windowed(q, 0.5, 4, w, 0.25);
        // An early burst of huge values, then several windows of
        // moderate ones: the burst must age out of every shard.
        let huge: Vec<(u64, u64)> = (0..100u64).map(|i| (i, 1_000_000_000 + i)).collect();
        engine.insert_batch(&huge);
        let recent: Vec<(u64, u64)> = (0..(4 * w) as u64)
            .map(|i| (100 + i, 1_000 + hash::mix64(i) % 100_000))
            .collect();
        for chunk in recent.chunks(1024) {
            engine.insert_batch(chunk);
        }
        let got: Vec<u64> = engine.query().into_iter().map(|(_, v)| v).collect();
        assert_eq!(got.len(), q);
        assert!(
            got.iter().all(|&v| v < 1_000_000_000),
            "expired burst leaked through a shard window: {got:?}"
        );
        // Window shards must disable the Ψ-prefilter entirely.
        assert_eq!(engine.threshold(), None);
        assert_eq!(engine.prefiltered(), 0);
    }

    #[test]
    fn decayed_shards_prefer_recent_items() {
        use qmax_core::OrderedF64;
        let q = 8;
        let mut engine = ShardedQMax::new_decayed(q, 0.5, 4, 0.9);
        // One huge early item, then a long run of small ones: decay
        // must sink the early item below the recent tail.
        engine.insert_batch(&[(0u64, OrderedF64(1e9))]);
        let tail: Vec<(u64, OrderedF64)> = (1..5_000u64).map(|i| (i, OrderedF64(2.0))).collect();
        for chunk in tail.chunks(512) {
            engine.insert_batch(chunk);
        }
        let ids: Vec<u64> = engine.query().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), q);
        assert!(!ids.contains(&0), "decayed item survived: {ids:?}");
        assert_eq!(engine.threshold(), None);
        assert_eq!(engine.prefiltered(), 0);
    }

    #[test]
    fn adaptive_windowed_shards_match_soa_windowed_shards() {
        // The adaptive constructor must answer the same windowed
        // queries as the hand-picked SoA configuration — the policy
        // only moves the layout, never the semantics.
        let q = 8;
        let w = 10_000;
        let items: Vec<(u64, u64)> = (0..(4 * w) as u64)
            .map(|i| (i, 1_000 + hash::mix64(i) % 100_000))
            .collect();
        let mut ada = ShardedQMax::new_windowed(q, 0.5, 4, w, 0.25);
        let mut soa = ShardedQMax::with_backends(q, 4, move |_| {
            BasicSlackQMax::with_backend(w / 4, 0.25, SoaAmortizedQMax::new(q, 0.5))
        });
        for chunk in items.chunks(1024) {
            ada.insert_batch(chunk);
            soa.insert_batch(chunk);
        }
        assert_eq!(sorted_vals(&mut ada), sorted_vals(&mut soa));
        // Per-shard labels surface the decision the policy made.
        let labels = ada.shard_backend_labels();
        assert_eq!(labels.len(), 4);
        for l in labels {
            assert!(l.starts_with("qmax-adaptive"), "unexpected label {l}");
        }
    }

    #[test]
    fn adaptive_decayed_shards_match_soa_decayed_shards() {
        use qmax_core::OrderedF64;
        let q = 8;
        let items: Vec<(u64, OrderedF64)> = (0..20_000u64)
            .map(|i| (i, OrderedF64(1.0 + (hash::mix64(i) % 1_000) as f64)))
            .collect();
        let mut ada = ShardedQMax::new_decayed(q, 0.5, 4, 0.999);
        let c_shard = 0.999f64.powf(4.0);
        let mut soa = ShardedQMax::with_backends(q, 4, move |_| {
            ExpDecayQMax::new(SoaAmortizedQMax::new(q, 0.5), c_shard)
        });
        for chunk in items.chunks(512) {
            ada.insert_batch(chunk);
            soa.insert_batch(chunk);
        }
        let ids = |v: Vec<(u64, OrderedF64)>| {
            let mut ids: Vec<u64> = v.into_iter().map(|(id, _)| id).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids(ada.query()), ids(soa.query()));
        // The score lane is OrderedF64, which SIMD cannot vectorize, so
        // the layout rules must resolve decayed shards to AoS.
        for l in ada.shard_backend_labels() {
            assert_eq!(l, "qmax-adaptive-aos");
        }
    }

    #[test]
    fn batch_prefilter_stays_active_with_hoisted_psi() {
        // A long skewed-ish stream must still be shed mostly by the
        // per-call Ψ snapshot even though it is no longer refreshed per
        // admitted item.
        let vals: Vec<u64> = random_u64_stream(30_000, 5).collect();
        let items: Vec<(u64, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(64, 0.5, 4);
        for chunk in items.chunks(777) {
            engine.insert_batch(chunk);
        }
        assert!(
            engine.prefiltered() > items.len() as u64 / 2,
            "pre-filter inactive: {} of {}",
            engine.prefiltered(),
            items.len()
        );
    }

    /// Flow keys as ids (shards load as unevenly as flows do) with
    /// random values, so each top-q value is one particular arrival.
    fn packet_items(n: usize, seed: u64) -> Vec<(u64, u64)> {
        caida_like(n, seed)
            .zip(random_u64_stream(n, seed))
            .map(|(p, v)| (p.flow().as_u64(), v))
            .collect()
    }

    #[test]
    fn cold_rebuild_degrades_one_shard_and_keeps_the_rest_exact() {
        let items = packet_items(30_000, 17);
        let q = 48;
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, 4);
        let (first, second) = items.split_at(items.len() / 2);
        // A driver run records the conserved counts coverage reads.
        engine.run_threaded(first.iter().copied(), crate::DriverConfig::default());
        let discarded = engine.rebuild_shard(1);
        assert!(!discarded.is_empty(), "shard 1 held no candidates");
        assert_eq!(engine.shard_health()[1], ShardHealth::Degraded);
        let annotated = engine.query_with_coverage();
        assert_eq!(annotated.items.len(), q, "engine stopped answering");
        assert!(annotated.coverage < 1.0, "cold rebuild kept full coverage");
        assert_eq!(annotated.degraded_shards, vec![1]);
        // Measurement continues on every shard, the rebuilt one too.
        for chunk in second.chunks(32) {
            engine.insert_batch(chunk);
        }
        // The merged result is exact over what the shards have seen:
        // everything except shard 1's pre-rebuild sub-stream.
        let seen: Vec<u64> = first
            .iter()
            .filter(|(id, _)| engine.shard_of(id) != 1)
            .chain(second)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(sorted_vals(&mut engine), top_q_reference(&seen, q));
    }

    #[test]
    fn cold_rebuild_of_a_sequentially_fed_engine_loses_coverage() {
        let items = packet_items(30_000, 17);
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(48, 0.25, 4);
        for chunk in items.chunks(32) {
            engine.insert_batch(chunk);
        }
        assert_eq!(engine.query_with_coverage().coverage, 1.0);
        engine.rebuild_shard(2);
        let annotated = engine.query_with_coverage();
        assert!(annotated.coverage < 1.0, "cold rebuild kept full coverage");
        assert!(annotated.coverage > 0.0, "other shards lost their coverage");
        assert_eq!(annotated.degraded_shards, vec![2]);
    }

    #[test]
    fn warm_rebuild_keeps_full_history_top_q() {
        let items = packet_items(30_000, 17);
        let q = 48;
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, 4);
        let (first, second) = items.split_at(items.len() / 2);
        for chunk in first.chunks(32) {
            engine.insert_batch(chunk);
        }
        let carried = engine.rebuild_shard_warm(1);
        assert!(carried > 0, "a loaded shard should salvage candidates");
        assert!(carried <= q, "salvage is the local top-q, at most q");
        assert_eq!(engine.shard_health()[1], ShardHealth::Restored);
        for chunk in second.chunks(32) {
            engine.insert_batch(chunk);
        }
        // Unlike the cold rebuild, nothing is lost: the merged top-q
        // equals a reference over the full history.
        let all: Vec<u64> = items.iter().map(|&(_, v)| v).collect();
        assert_eq!(sorted_vals(&mut engine), top_q_reference(&all, q));
    }
}
