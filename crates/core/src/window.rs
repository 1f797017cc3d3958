//! q-MAX over `(W, τ)`-slack sliding windows.
//!
//! Computing the exact maximum over a `W`-item sliding window requires
//! `Ω(W)` space (Datar et al.), so the paper relaxes the window to a
//! *slack window*: the answer may refer to any suffix of length between
//! `W(1−τ)` and `W`. This module implements the paper's three slack
//! algorithms:
//!
//! * [`BasicSlackQMax`] (Algorithm 3): `⌈1/τ⌉` blocks, each an interval
//!   q-MAX. `O(1)` update, `O(q/τ)` query.
//! * [`HierSlackQMax`] (Algorithm 4): `c` block layers at geometrically
//!   growing granularities. `O(c)` update, `O(q·c·τ^{-1/c})` query.
//! * [`LazySlackQMax`] (Theorem 7): a single front-buffer q-MAX absorbs
//!   every arrival, pushing only per-block top-`q` summaries into the
//!   layers. `O(1)` amortized update with the hierarchical query time.
//!
//! All three are generic over the per-block interval backend via
//! [`IntervalBackend`]: the default type parameter keeps the historical
//! array-of-structs [`AmortizedQMax`] behavior (and works for non-`Copy`
//! ids), while `with_backend(…, SoaAmortizedQMax::new(q, γ))` routes
//! every block through the structure-of-arrays
//! [`SoaAmortizedQMax`](crate::SoaAmortizedQMax) so the branchless
//! batched insert path applies to windowed streams too. The
//! [`BatchInsert`] impls split each batch at block boundaries, so
//! batched and singleton insertion are observably identical.

use crate::adaptive::AdaptiveBackend;
use crate::amortized::AmortizedQMax;
use crate::entry::{retain_top_q, Entry};
use crate::traits::{BatchInsert, IntervalBackend, QMax};
use std::marker::PhantomData;

/// Marker making a ring invariant in `(I, V)` without owning either
/// (blocks own the data; the ring is just an indexing scheme).
pub(crate) type RingMarker<I, V> = PhantomData<fn(I, V) -> (I, V)>;

/// A ring of `blocks` interval q-MAX instances, advanced explicitly.
///
/// The ring retains the current (partial) block plus the `blocks - 1`
/// most recent completed blocks; advancing recycles the oldest block
/// **in place** via [`QMax::reset`] — no per-epoch allocation.
#[derive(Debug, Clone)]
struct BlockRing<I, V, B> {
    blocks: Vec<B>,
    /// Epoch of the current block; the block for epoch `e` lives at slot
    /// `e % blocks.len()`.
    epoch: u64,
    _marker: RingMarker<I, V>,
}

impl<I, V: Ord, B: IntervalBackend<I, V>> BlockRing<I, V, B> {
    fn from_proto(blocks: usize, proto: &B) -> Self {
        assert!(blocks >= 1);
        BlockRing {
            blocks: (0..blocks).map(|_| proto.fresh()).collect(),
            epoch: 0,
            _marker: PhantomData,
        }
    }

    fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn cur_slot(&self) -> usize {
        (self.epoch % self.blocks.len() as u64) as usize
    }

    fn add(&mut self, id: I, val: V) {
        let slot = self.cur_slot();
        self.blocks[slot].insert(id, val);
    }

    /// Feeds a batch into the current block (callers must have split the
    /// batch so it does not cross a block boundary).
    fn add_batch(&mut self, items: &[(I, V)]) {
        let slot = self.cur_slot();
        self.blocks[slot].insert_batch(items);
    }

    /// Ends the current block and recycles the oldest one in place.
    fn advance(&mut self) {
        self.epoch += 1;
        let slot = self.cur_slot();
        self.blocks[slot].reset();
    }

    /// Collects the candidates of the `m` oldest retained blocks
    /// (`m <= blocks - 1`; excludes the current block) into `out`.
    fn collect_oldest(&self, m: usize, out: &mut Vec<Entry<I, V>>) {
        debug_assert!(m < self.blocks.len());
        let n = self.blocks.len() as u64;
        let retained = (n - 1).min(self.epoch);
        let oldest = self.epoch - retained;
        for i in 0..m as u64 {
            let e = oldest + i;
            debug_assert!(e <= self.epoch);
            let slot = (e % n) as usize;
            self.blocks[slot].candidates_into(out);
        }
    }

    /// Collects the candidates of every retained block, including the
    /// current partial one, into `out`.
    ///
    /// Interval blocks may hold up to `q(1+γ)` candidates of which only
    /// the top `q` are guaranteed to matter; the superset is also
    /// correct and the final top-`q` cut happens once at the very end of
    /// the query, so it costs only a constant factor in merge size.
    fn collect_all(&self, out: &mut Vec<Entry<I, V>>) {
        for b in &self.blocks {
            b.candidates_into(out);
        }
    }

    fn reset(&mut self) {
        for b in &mut self.blocks {
            b.reset();
        }
        self.epoch = 0;
    }
}

/// q-MAX over a `(W, τ)`-slack window — Algorithm 3 of the paper.
///
/// The stream is cut into `⌈1/τ⌉` consecutive blocks of `⌈Wτ⌉` items;
/// each block gets its own interval q-MAX, and a query merges all
/// retained blocks. Updates touch a single block (`O(1)` amortized);
/// queries cost `O(q/τ)`.
///
/// The answered window always spans between `W' − s + 1` and `W'` items
/// where `s = ⌈Wτ⌉` and `W' = s·⌈1/τ⌉ ≥ W` is the effective window.
///
/// ```
/// use qmax_core::{BasicSlackQMax, QMax};
/// let mut w = BasicSlackQMax::new(2, 0.5, 100, 0.25);
/// for v in 0u64..1000 {
///     w.insert(v as u32, v);
/// }
/// let mut top: Vec<u64> = w.query().into_iter().map(|(_, v)| v).collect();
/// top.sort();
/// assert_eq!(top, vec![998, 999]);
/// ```
#[derive(Debug, Clone)]
pub struct BasicSlackQMax<I, V, B = AmortizedQMax<I, V>> {
    q: usize,
    /// Items per block, `⌈Wτ⌉`.
    block_size: usize,
    ring: BlockRing<I, V, B>,
    /// Items inserted into the current block.
    fill: usize,
}

impl<I: Clone, V: Ord + Clone> BasicSlackQMax<I, V> {
    /// Creates a slack-window q-MAX over windows of `w` items with slack
    /// fraction `tau` and per-block space-slack `gamma`, backed by
    /// array-of-structs [`AmortizedQMax`] blocks.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `w == 0`, or `tau` is outside `(0, 1]`.
    /// Use [`BasicSlackQMax::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64, w: usize, tau: f64) -> Self {
        Self::try_new(q, gamma, w, tau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`BasicSlackQMax::new`]: rejects `q == 0`, bad `gamma`,
    /// `w == 0`, and `tau` outside `(0, 1]` instead of panicking.
    pub fn try_new(q: usize, gamma: f64, w: usize, tau: f64) -> Result<Self, crate::QMaxError> {
        Self::try_with_backend(w, tau, AmortizedQMax::try_new(q, gamma)?)
    }
}

/// [`BasicSlackQMax`] with per-block adaptive backends: each block's
/// layout (array-of-structs vs structure-of-arrays) is picked by the
/// static [`PolicyMode`](crate::PolicyMode) rules from the block's
/// lifetime fill `⌈w·τ⌉` — a basic-window block receives exactly one
/// block's worth of arrivals, then recycles. When that lifetime fill
/// sits below the block capacity the block never compacts, and the
/// policy routes it to the append-fast AoS layout (the small-τ regime
/// where forced SoA measurably loses).
pub type AdaptiveBasicSlackQMax<I, V> = BasicSlackQMax<I, V, AdaptiveBackend<I, V>>;

impl<I: Copy + 'static, V: Ord + Copy + 'static> AdaptiveBasicSlackQMax<I, V> {
    /// Like [`BasicSlackQMax::new`], but every block delegates to the
    /// layout the global backend policy picks for a lifetime fill of
    /// one block's worth of arrivals (`⌈w/⌈1/τ⌉⌉` items).
    pub fn new_adaptive(q: usize, gamma: f64, w: usize, tau: f64) -> Self {
        Self::try_new_adaptive(q, gamma, w, tau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AdaptiveBasicSlackQMax::new_adaptive`].
    pub fn try_new_adaptive(
        q: usize,
        gamma: f64,
        w: usize,
        tau: f64,
    ) -> Result<Self, crate::QMaxError> {
        // The prototype's layout must be chosen from the block size
        // before the ring can be stamped out of it; q/γ errors still
        // take precedence over window errors, as in every `try_new`.
        crate::error::check_q_gamma::<Entry<I, V>>(q, gamma)?;
        let (_, block_size) = basic_geometry(w, tau)?;
        let proto = AdaptiveBackend::try_with_fill_hint(q, gamma, Some(block_size))?;
        Self::try_with_backend(w, tau, proto)
    }
}

/// Validates `(w, tau)` and derives the basic window's geometry:
/// `(n_blocks, block_size)` = `(⌈1/τ⌉, ⌈w/n_blocks⌉)`.
fn basic_geometry(w: usize, tau: f64) -> Result<(usize, usize), crate::QMaxError> {
    crate::error::check_window(w, tau)?;
    let n_blocks = (1.0 / tau).ceil() as usize;
    Ok((n_blocks, w.div_ceil(n_blocks).max(1)))
}

impl<I, V: Ord, B: IntervalBackend<I, V>> BasicSlackQMax<I, V, B> {
    /// Creates a slack-window q-MAX whose blocks are stamped out of the
    /// given backend prototype via [`IntervalBackend::fresh`].
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `tau` is outside `(0, 1]`. Use
    /// [`BasicSlackQMax::try_with_backend`] at fallible API boundaries.
    pub fn with_backend(w: usize, tau: f64, proto: B) -> Self {
        Self::try_with_backend(w, tau, proto).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`BasicSlackQMax::with_backend`].
    pub fn try_with_backend(w: usize, tau: f64, proto: B) -> Result<Self, crate::QMaxError> {
        let (n_blocks, block_size) = basic_geometry(w, tau)?;
        Ok(BasicSlackQMax {
            q: proto.q(),
            block_size,
            ring: BlockRing::from_proto(n_blocks, &proto),
            fill: 0,
        })
    }

    /// Items per block (`⌈Wτ⌉`).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks (`⌈1/τ⌉`).
    pub fn n_blocks(&self) -> usize {
        self.ring.n_blocks()
    }

    /// The effective window length `block_size · n_blocks`.
    pub fn effective_window(&self) -> usize {
        self.block_size * self.ring.n_blocks()
    }

    /// The PARTIAL query of the paper's Algorithm 3: the `q` largest
    /// items among the blocks `newest..=oldest` *blocks ago*
    /// (`0` = the current partial block, `n_blocks()-1` = the oldest
    /// retained block). Lets callers inspect sub-intervals of the
    /// window at block granularity.
    ///
    /// # Panics
    ///
    /// Panics if `newest > oldest` or `oldest >= n_blocks()`.
    pub fn query_partial(&mut self, newest: usize, oldest: usize) -> Vec<(I, V)> {
        assert!(newest <= oldest, "newest must not exceed oldest");
        assert!(
            oldest < self.ring.n_blocks(),
            "oldest exceeds retained blocks"
        );
        let n = self.ring.n_blocks() as u64;
        let mut scratch = Vec::new();
        for ago in newest..=oldest {
            let ago = ago as u64;
            if ago > self.ring.epoch {
                break; // block not yet produced this early in the stream
            }
            let e = self.ring.epoch - ago;
            let slot = (e % n) as usize;
            self.ring.blocks[slot].candidates_into(&mut scratch);
        }
        top_q_entries(scratch, self.q)
    }
}

impl<I, V: Ord, B: IntervalBackend<I, V>> QMax<I, V> for BasicSlackQMax<I, V, B> {
    fn insert(&mut self, id: I, val: V) -> bool {
        self.ring.add(id, val);
        self.fill += 1;
        if self.fill == self.block_size {
            self.fill = 0;
            self.ring.advance();
        }
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        let mut scratch = Vec::new();
        self.ring.collect_all(&mut scratch);
        top_q_entries(scratch, self.q)
    }

    fn reset(&mut self) {
        self.ring.reset();
        self.fill = 0;
    }

    fn q(&self) -> usize {
        self.q
    }

    fn len(&self) -> usize {
        self.ring.blocks.iter().map(|b| b.len()).sum()
    }

    /// Always `None`: the window's block boundaries are defined by
    /// *arrival counts*, so an external Ψ-prefilter that drops items
    /// before they are counted would shift every boundary and change the
    /// answered window.
    fn threshold(&self) -> Option<V> {
        None
    }

    fn name(&self) -> &'static str {
        "slack-basic"
    }

    /// The per-block backend's label (all blocks are stamped from one
    /// prototype, so any block's answer describes the whole ring).
    fn backend_label(&self) -> &'static str {
        self.ring.blocks[0].backend_label()
    }
}

impl<I, V: Ord, B: IntervalBackend<I, V>> BatchInsert<I, V> for BasicSlackQMax<I, V, B> {
    /// Splits the batch at block boundaries and feeds each span to the
    /// current block's own batch kernel — identical admissions and block
    /// contents to inserting the items one by one.
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut i = 0;
        while i < items.len() {
            let take = (self.block_size - self.fill).min(items.len() - i);
            self.ring.add_batch(&items[i..i + take]);
            self.fill += take;
            i += take;
            if self.fill == self.block_size {
                self.fill = 0;
                self.ring.advance();
            }
        }
        items.len()
    }
}

/// Cuts a candidate vector down to its `q` largest entries.
fn top_q_entries<I, V: Ord>(mut scratch: Vec<Entry<I, V>>, q: usize) -> Vec<(I, V)> {
    retain_top_q(&mut scratch, 0, q);
    scratch.into_iter().map(|e| (e.id, e.val)).collect()
}

/// q-MAX over a `(W, τ)`-slack window with hierarchical blocks —
/// Algorithm 4 of the paper.
///
/// Maintains `c` block layers; layer `ℓ ∈ {1..c}` cuts the stream into
/// blocks of `s·bᶜ⁻ℓ` items where `s ≈ Wτ` is the base block and
/// `b ≈ τ^{-1/c}` the branching factor. Every arrival updates all `c`
/// layers (`O(c)` update); a query merges the coarsest layer whole and
/// patches the uncovered old-end of the window with `≤ b` blocks from
/// each finer layer, for `O(q·c·b)` query time.
#[derive(Debug, Clone)]
pub struct HierSlackQMax<I, V, B = AmortizedQMax<I, V>> {
    q: usize,
    /// Base (finest) block size `s ≈ ⌈Wτ⌉`.
    base: usize,
    /// Branching factor `b ≈ ⌈τ^{-1/c}⌉`.
    branch: usize,
    /// `rings[ℓ-1]` is layer ℓ; layer 1 (index 0) is the coarsest.
    rings: Vec<BlockRing<I, V, B>>,
    /// Block sizes per layer, `sizes[ℓ-1] = s · b^{c-ℓ}`.
    sizes: Vec<usize>,
    /// Total items inserted.
    count: u64,
}

impl<I: Clone, V: Ord + Clone> HierSlackQMax<I, V> {
    /// Creates a hierarchical slack-window q-MAX with `c` layers over
    /// windows of `w` items with slack `tau` and per-block space-slack
    /// `gamma`, backed by array-of-structs [`AmortizedQMax`] blocks.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `w == 0`, `c == 0`, or `tau` outside `(0, 1]`.
    /// Use [`HierSlackQMax::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64, w: usize, tau: f64, c: usize) -> Self {
        Self::try_new(q, gamma, w, tau, c).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`HierSlackQMax::new`]: rejects `q == 0`, bad `gamma`,
    /// `w == 0`, `c == 0`, and `tau` outside `(0, 1]` instead of
    /// panicking.
    pub fn try_new(
        q: usize,
        gamma: f64,
        w: usize,
        tau: f64,
        c: usize,
    ) -> Result<Self, crate::QMaxError> {
        Self::try_with_backend(w, tau, c, AmortizedQMax::try_new(q, gamma)?)
    }
}

/// [`HierSlackQMax`] with per-block adaptive backends keyed on the
/// finest layer's expected block fill.
pub type AdaptiveHierSlackQMax<I, V> = HierSlackQMax<I, V, AdaptiveBackend<I, V>>;

impl<I: Copy + 'static, V: Ord + Copy + 'static> AdaptiveHierSlackQMax<I, V> {
    /// Like [`HierSlackQMax::new`], but every block delegates to the
    /// layout the global backend policy picks. No lifetime fill hint is
    /// passed: the coarser rings absorb merged batches from every block
    /// below them, so each block's lifetime arrivals are amplified far
    /// past the finest layer's base block size — the compaction-heavy
    /// regime the hint-less (unbounded) policy path models.
    pub fn new_adaptive(q: usize, gamma: f64, w: usize, tau: f64, c: usize) -> Self {
        Self::try_new_adaptive(q, gamma, w, tau, c).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AdaptiveHierSlackQMax::new_adaptive`].
    pub fn try_new_adaptive(
        q: usize,
        gamma: f64,
        w: usize,
        tau: f64,
        c: usize,
    ) -> Result<Self, crate::QMaxError> {
        let proto = AdaptiveBackend::try_with_fill_hint(q, gamma, None)?;
        Self::try_with_backend(w, tau, c, proto)
    }
}

impl<I, V: Ord, B: IntervalBackend<I, V>> HierSlackQMax<I, V, B> {
    /// Creates a hierarchical slack-window q-MAX whose blocks are
    /// stamped out of the given backend prototype.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`, `c == 0`, or `tau` outside `(0, 1]`. Use
    /// [`HierSlackQMax::try_with_backend`] at fallible API boundaries.
    pub fn with_backend(w: usize, tau: f64, c: usize, proto: B) -> Self {
        Self::try_with_backend(w, tau, c, proto).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`HierSlackQMax::with_backend`].
    pub fn try_with_backend(
        w: usize,
        tau: f64,
        c: usize,
        proto: B,
    ) -> Result<Self, crate::QMaxError> {
        crate::error::check_window(w, tau)?;
        if c == 0 {
            return Err(crate::QMaxError::ZeroLayers);
        }
        let branch = ((1.0 / tau).powf(1.0 / c as f64)).ceil() as usize;
        let branch = branch.max(2);
        // Effective total blocks at the finest layer: b^c; base block
        // sized so the finest layer spans at least w.
        let total_fine = branch.pow(c as u32);
        let base = w.div_ceil(total_fine).max(1);
        let mut rings = Vec::with_capacity(c);
        let mut sizes = Vec::with_capacity(c);
        for level in 1..=c {
            let size = base * branch.pow((c - level) as u32);
            // Layer ℓ has b^ℓ blocks: the current partial one plus
            // b^ℓ − 1 full ones, spanning between w − size and w items.
            let blocks = branch.pow(level as u32);
            sizes.push(size);
            rings.push(BlockRing::from_proto(blocks, &proto));
        }
        Ok(HierSlackQMax {
            q: proto.q(),
            base,
            branch,
            rings,
            sizes,
            count: 0,
        })
    }

    /// The branching factor `b`.
    pub fn branch(&self) -> usize {
        self.branch
    }

    /// The finest block size.
    pub fn base_block(&self) -> usize {
        self.base
    }

    /// The effective window length `base · bᶜ`.
    pub fn effective_window(&self) -> usize {
        self.base * self.branch.pow(self.rings.len() as u32)
    }

    /// Advances every ring whose block boundary coincides with the
    /// current item count.
    fn advance_full_rings(&mut self) {
        for (ring, &size) in self.rings.iter_mut().zip(&self.sizes) {
            if self.count.is_multiple_of(size as u64) {
                ring.advance();
            }
        }
    }
}

impl<I: Clone, V: Ord + Clone, B: IntervalBackend<I, V>> QMax<I, V> for HierSlackQMax<I, V, B> {
    fn insert(&mut self, id: I, val: V) -> bool {
        let last = self.rings.len() - 1;
        for ring in &mut self.rings[..last] {
            ring.add(id.clone(), val.clone());
        }
        self.rings[last].add(id, val);
        self.count += 1;
        self.advance_full_rings();
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        let mut scratch = Vec::new();
        let w_eff = self.effective_window() as u64;
        // Coarsest layer: merge everything it retains. It covers
        // [start_1, count) with start_1 aligned down to its block size.
        self.rings[0].collect_all(&mut scratch);
        let covered_start = |ring: &BlockRing<I, V, B>, size: u64, count: u64| -> u64 {
            let retained = (ring.n_blocks() as u64 - 1).min(ring.epoch);
            (count / size) * size - retained * size
        };
        let mut frontier = covered_start(&self.rings[0], self.sizes[0] as u64, self.count);
        let target = self.count.saturating_sub(w_eff);
        // Finer layers: patch [layer_start, frontier) with their oldest
        // retained blocks.
        for (ring, &size) in self.rings.iter().zip(&self.sizes).skip(1) {
            if frontier <= target {
                break;
            }
            let size = size as u64;
            let start = covered_start(ring, size, self.count);
            if start >= frontier {
                continue;
            }
            let m = ((frontier - start) / size) as usize;
            let m = m.min(ring.n_blocks() - 1);
            ring.collect_oldest(m, &mut scratch);
            frontier = start;
        }
        top_q_entries(scratch, self.q)
    }

    fn reset(&mut self) {
        for r in &mut self.rings {
            r.reset();
        }
        self.count = 0;
    }

    fn q(&self) -> usize {
        self.q
    }

    fn len(&self) -> usize {
        self.rings
            .iter()
            .flat_map(|r| r.blocks.iter())
            .map(|b| b.len())
            .sum()
    }

    /// Always `None` — see [`BasicSlackQMax::threshold`].
    fn threshold(&self) -> Option<V> {
        None
    }

    fn name(&self) -> &'static str {
        "slack-hier"
    }

    /// The per-block backend's label (every layer's blocks are stamped
    /// from the same prototype).
    fn backend_label(&self) -> &'static str {
        self.rings[0].blocks[0].backend_label()
    }
}

impl<I: Clone, V: Ord + Clone, B: IntervalBackend<I, V>> BatchInsert<I, V>
    for HierSlackQMax<I, V, B>
{
    /// Splits the batch at the nearest block boundary across *all*
    /// layers, multicasts each span to every layer's current block, and
    /// advances exactly the rings a singleton loop would advance.
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut i = 0;
        while i < items.len() {
            let mut take = items.len() - i;
            for &size in &self.sizes {
                let room = size as u64 - (self.count % size as u64);
                take = take.min(room as usize);
            }
            for ring in &mut self.rings {
                ring.add_batch(&items[i..i + take]);
            }
            self.count += take as u64;
            self.advance_full_rings();
            i += take;
        }
        items.len()
    }
}

/// q-MAX over a `(W, τ)`-slack window with a lazy front buffer —
/// Theorem 7 of the paper.
///
/// A single interval q-MAX absorbs every arrival; when a base block of
/// `≈ Wτ` items completes, only its top-`q` summary is pushed into the
/// hierarchical layers. Most arrivals therefore touch exactly one
/// structure, giving `O(1)` amortized update with the hierarchical
/// query cost.
#[derive(Debug, Clone)]
pub struct LazySlackQMax<I, V, B = AmortizedQMax<I, V>> {
    q: usize,
    front: B,
    hier: HierSlackQMax<I, V, B>,
    /// Items inserted into the current base block.
    fill: usize,
    /// Deferred-feed queue (deamortized mode): the previous block's
    /// summary, drained a few items per arrival instead of in one
    /// burst. `None` in the default (immediate-feed) mode.
    pending: Option<std::collections::VecDeque<(I, V)>>,
    /// Counter padding still owed to the layers for the pending block.
    pending_pad: usize,
    /// Items drained from `pending` per arrival.
    drain_rate: usize,
}

impl<I: Clone, V: Ord + Clone> LazySlackQMax<I, V> {
    /// Creates a lazy slack-window q-MAX with `c` layers over windows of
    /// `w` items with slack `tau` and space-slack `gamma`, backed by
    /// array-of-structs [`AmortizedQMax`] blocks.
    ///
    /// # Panics
    ///
    /// Same conditions as [`HierSlackQMax::new`]. Use
    /// [`LazySlackQMax::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64, w: usize, tau: f64, c: usize) -> Self {
        Self::try_new(q, gamma, w, tau, c).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`LazySlackQMax::new`].
    pub fn try_new(
        q: usize,
        gamma: f64,
        w: usize,
        tau: f64,
        c: usize,
    ) -> Result<Self, crate::QMaxError> {
        Self::try_with_backend(w, tau, c, AmortizedQMax::try_new(q, gamma)?)
    }

    /// Like [`LazySlackQMax::new`], but the per-block summary feed into
    /// the layers is itself spread across the *next* block's arrivals
    /// (the de-amortization the paper sketches after Theorem 7), so no
    /// arrival pays the `O(q·c)` feed burst. The layers consequently
    /// lag the stream by one base block — one extra block of window
    /// slack. The remaining per-block spike is the `O(q(1+γ))` summary
    /// extraction from the front buffer.
    pub fn new_deamortized(q: usize, gamma: f64, w: usize, tau: f64, c: usize) -> Self {
        assert!(q > 0, "q must be positive");
        Self::with_backend_deamortized(w, tau, c, AmortizedQMax::new(q, gamma))
    }
}

/// [`LazySlackQMax`] with an adaptive front buffer and blocks.
pub type AdaptiveLazySlackQMax<I, V> = LazySlackQMax<I, V, AdaptiveBackend<I, V>>;

impl<I: Copy + 'static, V: Ord + Copy + 'static> AdaptiveLazySlackQMax<I, V> {
    /// Like [`LazySlackQMax::new`], but the front buffer and every
    /// block delegate to the layout the global backend policy picks. No
    /// lifetime fill hint is passed: the front buffer and the coarser
    /// rings absorb merged batches (every arrival funnels through the
    /// front; coarse blocks absorb every block below them), so block
    /// lifetimes sit in the compaction-heavy regime the hint-less
    /// policy path models.
    pub fn new_adaptive(q: usize, gamma: f64, w: usize, tau: f64, c: usize) -> Self {
        Self::try_new_adaptive(q, gamma, w, tau, c).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AdaptiveLazySlackQMax::new_adaptive`].
    pub fn try_new_adaptive(
        q: usize,
        gamma: f64,
        w: usize,
        tau: f64,
        c: usize,
    ) -> Result<Self, crate::QMaxError> {
        let proto = AdaptiveBackend::try_with_fill_hint(q, gamma, None)?;
        Self::try_with_backend(w, tau, c, proto)
    }

    /// [`LazySlackQMax::new_deamortized`] over adaptive backends.
    pub fn new_adaptive_deamortized(q: usize, gamma: f64, w: usize, tau: f64, c: usize) -> Self {
        assert!(q > 0, "q must be positive");
        assert!(c > 0, "c must be positive");
        let proto =
            AdaptiveBackend::try_with_fill_hint(q, gamma, None).unwrap_or_else(|e| panic!("{e}"));
        Self::with_backend_deamortized(w, tau, c, proto)
    }
}

impl<I: Clone, V: Ord + Clone, B: IntervalBackend<I, V>> LazySlackQMax<I, V, B> {
    /// Creates a lazy slack-window q-MAX whose front buffer and blocks
    /// are stamped out of the given backend prototype.
    ///
    /// # Panics
    ///
    /// Same conditions as [`HierSlackQMax::with_backend`]. Use
    /// [`LazySlackQMax::try_with_backend`] at fallible API boundaries.
    pub fn with_backend(w: usize, tau: f64, c: usize, proto: B) -> Self {
        Self::try_with_backend(w, tau, c, proto).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`LazySlackQMax::with_backend`].
    pub fn try_with_backend(
        w: usize,
        tau: f64,
        c: usize,
        proto: B,
    ) -> Result<Self, crate::QMaxError> {
        let front = proto.fresh();
        let hier = HierSlackQMax::try_with_backend(w, tau, c, proto)?;
        Ok(LazySlackQMax {
            q: hier.q,
            front,
            hier,
            fill: 0,
            pending: None,
            pending_pad: 0,
            drain_rate: 0,
        })
    }

    /// [`LazySlackQMax::new_deamortized`] with a caller-chosen backend
    /// prototype.
    pub fn with_backend_deamortized(w: usize, tau: f64, c: usize, proto: B) -> Self {
        let mut this = Self::with_backend(w, tau, c, proto);
        // Drain fast enough to empty a q-item summary well within the
        // base block, with constant-bounded work per arrival whenever
        // W = Omega(q / tau) as Theorem 7 assumes.
        this.drain_rate = this.q.div_ceil(this.hier.base_block()) * 2 + 2;
        this.pending = Some(std::collections::VecDeque::new());
        this
    }

    /// Feeds up to `k` deferred summary items into the layers.
    fn drain_pending(&mut self, k: usize) {
        let Some(pending) = &mut self.pending else {
            return;
        };
        for _ in 0..k {
            match pending.pop_front() {
                Some((id, val)) => {
                    self.pending_pad -= 1;
                    self.hier.insert(id, val);
                }
                None => break,
            }
        }
    }

    /// Forces the deferred queue empty and settles the owed counter
    /// padding so layer block boundaries stay stream-aligned.
    fn flush_pending(&mut self) {
        self.drain_pending(usize::MAX);
        let pad = self.pending_pad;
        self.pending_pad = 0;
        if pad == 0 {
            return;
        }
        self.hier.count += pad as u64;
        for (ring, &size) in self.hier.rings.iter_mut().zip(&self.hier.sizes) {
            let before = (self.hier.count - pad as u64) / size as u64;
            let after = self.hier.count / size as u64;
            for _ in before..after {
                ring.advance();
            }
        }
    }

    /// Closes the current base block: extracts the front buffer's top-q
    /// summary **without consuming the buffer** (it is recycled in place
    /// right after), pushes it into the layers (or queues it in deferred
    /// mode), and settles the layers' counter padding.
    fn complete_block(&mut self) {
        let mut summary = Vec::new();
        self.front.top_q_into(&mut summary);
        if self.pending.is_some() {
            // Deferred mode: settle the previous block completely,
            // then queue this block's summary for lazy feeding.
            self.flush_pending();
            self.pending_pad = self.hier.base_block();
            let base = self.hier.base_block();
            let pending = self.pending.as_mut().expect("deferred mode");
            pending.extend(summary.into_iter().take(base).map(|e| (e.id, e.val)));
        } else {
            // Immediate mode: push the block's top-q summary into
            // every layer through the batch path (identical admissions
            // and ring advances to the singleton loop, without a
            // per-item dispatch on the summary — the merge feed is as
            // hot as the arrival path at small τ), then pad the
            // layers' item counters to keep block boundaries aligned
            // with real stream positions.
            let pad = self.hier.base_block() - summary.len().min(self.hier.base_block());
            let batch: Vec<(I, V)> = summary.into_iter().map(|e| (e.id, e.val)).collect();
            self.hier.insert_batch(&batch);
            self.hier.count += pad as u64;
            for (ring, &size) in self.hier.rings.iter_mut().zip(&self.hier.sizes) {
                let before = (self.hier.count - pad as u64) / size as u64;
                let after = self.hier.count / size as u64;
                for _ in before..after {
                    ring.advance();
                }
            }
        }
        self.front.reset();
        self.fill = 0;
    }

    /// The effective window length.
    pub fn effective_window(&self) -> usize {
        self.hier.effective_window()
    }

    /// The base-block (summary) size — the granularity of the window
    /// slack.
    pub fn base_block(&self) -> usize {
        self.hier.base_block()
    }
}

impl<I: Clone, V: Ord + Clone, B: IntervalBackend<I, V>> QMax<I, V> for LazySlackQMax<I, V, B> {
    fn insert(&mut self, id: I, val: V) -> bool {
        if self.pending.is_some() {
            self.drain_pending(self.drain_rate);
        }
        self.front.insert(id, val);
        self.fill += 1;
        if self.fill == self.hier.base_block() {
            self.complete_block();
        }
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        let mut scratch = Vec::new();
        self.front.candidates_into(&mut scratch);
        if let Some(pending) = &self.pending {
            // Deferred items are recent and still in the window.
            scratch.extend(
                pending
                    .iter()
                    .map(|(id, val)| Entry::new(id.clone(), val.clone())),
            );
        }
        for (id, val) in self.hier.query() {
            scratch.push(Entry::new(id, val));
        }
        top_q_entries(scratch, self.q)
    }

    fn reset(&mut self) {
        self.front.reset();
        self.hier.reset();
        self.fill = 0;
        if let Some(pending) = &mut self.pending {
            pending.clear();
        }
        self.pending_pad = 0;
    }

    fn q(&self) -> usize {
        self.q
    }

    fn len(&self) -> usize {
        self.front.len() + self.hier.len() + self.pending.as_ref().map_or(0, |p| p.len())
    }

    /// Always `None`. The front buffer does have an internal Ψ, but
    /// block boundaries are defined by *arrival counts* (`fill`), so an
    /// external prefilter dropping items before they are counted would
    /// shift every boundary — see [`BasicSlackQMax::threshold`].
    fn threshold(&self) -> Option<V> {
        None
    }

    fn name(&self) -> &'static str {
        if self.pending.is_some() {
            "slack-lazy-wc"
        } else {
            "slack-lazy"
        }
    }

    /// The front buffer's backend label (the layers' blocks are stamped
    /// from the same prototype).
    fn backend_label(&self) -> &'static str {
        self.front.backend_label()
    }
}

impl<I: Clone, V: Ord + Clone, B: IntervalBackend<I, V>> BatchInsert<I, V>
    for LazySlackQMax<I, V, B>
{
    /// Splits the batch at base-block boundaries and feeds each span to
    /// the front buffer's batch kernel. In deferred mode the pending
    /// queue is drained by `drain_rate` per *arrival* (one bulk drain of
    /// `drain_rate · span` items per span), which drains exactly as many
    /// items as the singleton loop would have by each block boundary —
    /// refills only happen at boundaries, where spans end.
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut i = 0;
        while i < items.len() {
            let take = (self.hier.base_block() - self.fill).min(items.len() - i);
            if self.pending.is_some() {
                self.drain_pending(self.drain_rate.saturating_mul(take));
            }
            self.front.insert_batch(&items[i..i + take]);
            self.fill += take;
            i += take;
            if self.fill == self.hier.base_block() {
                self.complete_block();
            }
        }
        items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::SoaAmortizedQMax;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Checks the slack-window contract at the current position: the
    /// result must equal the top-q of *some* suffix whose length is
    /// between `min_len` and `max_len`.
    fn assert_slack_window_result(
        vals: &[u64],
        result: &mut Vec<u64>,
        q: usize,
        min_len: usize,
        max_len: usize,
    ) {
        result.sort_unstable();
        let n = vals.len();
        for len in min_len..=max_len.min(n) {
            let mut expect: Vec<u64> = vals[n - len..].to_vec();
            expect.sort_unstable_by(|a, b| b.cmp(a));
            expect.truncate(q);
            expect.sort_unstable();
            if expect == *result {
                return;
            }
        }
        panic!(
            "result {result:?} does not match the top-{q} of any window of \
             length {min_len}..={max_len} at position {n}"
        );
    }

    #[test]
    fn basic_matches_some_valid_window() {
        let mut state = 9u64;
        let q = 4;
        let w = 128;
        let tau = 0.25;
        let mut sw = BasicSlackQMax::new(q, 0.5, w, tau);
        let s = sw.block_size();
        let w_eff = sw.effective_window();
        let mut vals = Vec::new();
        for i in 0..5000u64 {
            let v = splitmix(&mut state) % 1_000_000;
            vals.push(v);
            sw.insert(i as u32, v);
            if i % 37 == 0 && vals.len() >= w_eff {
                let mut got: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
                assert_slack_window_result(&vals, &mut got, q, w_eff - s, w_eff);
            }
        }
    }

    #[test]
    fn basic_early_stream_returns_global_top() {
        let mut sw = BasicSlackQMax::new(3, 1.0, 1000, 0.1);
        for v in [5u64, 100, 3, 42] {
            sw.insert(v as u32, v);
        }
        let mut got: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![5, 42, 100]);
    }

    #[test]
    fn partial_query_isolates_block_ranges() {
        // 4 blocks of 25 items; values encode their block so ranges
        // are verifiable.
        let q = 3;
        let mut sw = BasicSlackQMax::new(q, 0.5, 100, 0.25);
        assert_eq!(sw.block_size(), 25);
        for i in 0..100u64 {
            let block = i / 25; // 0..=3; block 3 is the current one
            sw.insert(i as u32, block * 1000 + i);
        }
        // Note: at i=100 the ring advanced and block 0 was recycled;
        // re-fill so all four retained blocks are known.
        // Blocks ago: 0 = current (empty after advance). Query blocks
        // 1..=3 (the three full ones).
        let got: Vec<u64> = sw.query_partial(1, 1).into_iter().map(|(_, v)| v).collect();
        // 1 block ago = the newest full block (values 3000..).
        assert!(
            got.iter().all(|&v| v >= 3000),
            "wrong block isolated: {got:?}"
        );
        let got: Vec<u64> = sw.query_partial(3, 3).into_iter().map(|(_, v)| v).collect();
        assert!(
            got.iter().all(|&v| (1000..2000).contains(&v)),
            "wrong oldest block: {got:?}"
        );
        // Full-range partial equals the regular query.
        let mut all: Vec<u64> = sw
            .query_partial(0, sw.n_blocks() - 1)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        let mut q_all: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
        all.sort_unstable();
        q_all.sort_unstable();
        assert_eq!(all, q_all);
    }

    #[test]
    #[should_panic(expected = "oldest exceeds retained")]
    fn partial_query_out_of_range_panics() {
        let mut sw: BasicSlackQMax<u32, u64> = BasicSlackQMax::new(2, 0.5, 100, 0.25);
        sw.query_partial(0, 4);
    }

    #[test]
    fn basic_expires_old_items() {
        let q = 2;
        let w = 64;
        let mut sw = BasicSlackQMax::new(q, 0.5, w, 0.25);
        // One huge value early, then > W small ones.
        sw.insert(0u32, 1_000_000u64);
        for i in 0..(2 * sw.effective_window() as u64) {
            sw.insert((i + 1) as u32, 10 + (i % 5));
        }
        let got: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
        assert!(
            got.iter().all(|&v| v < 1_000_000),
            "expired maximum still reported: {got:?}"
        );
    }

    #[test]
    fn hier_matches_some_valid_window() {
        let mut state = 13u64;
        for c in [1usize, 2, 3] {
            let q = 3;
            let w = 216;
            let tau = 1.0 / 27.0;
            let mut sw = HierSlackQMax::new(q, 0.5, w, tau, c);
            let w_eff = sw.effective_window();
            let slack = sw.base_block();
            let mut vals = Vec::new();
            for i in 0..4000u64 {
                let v = splitmix(&mut state) % 100_000;
                vals.push(v);
                sw.insert(i as u32, v);
                if i % 53 == 0 && vals.len() >= w_eff {
                    let mut got: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
                    assert_slack_window_result(&vals, &mut got, q, w_eff - slack + 1, w_eff);
                }
            }
        }
    }

    #[test]
    fn hier_expires_old_items() {
        let mut sw = HierSlackQMax::new(2, 0.5, 100, 0.1, 2);
        sw.insert(0u32, 999_999u64);
        for i in 0..(3 * sw.effective_window() as u64) {
            sw.insert((i + 1) as u32, 1 + (i % 7));
        }
        let got: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
        assert!(
            got.iter().all(|&v| v < 999_999),
            "expired maximum survived: {got:?}"
        );
    }

    #[test]
    fn lazy_matches_some_valid_window() {
        let mut state = 99u64;
        let q = 3;
        let w = 256;
        let tau = 1.0 / 16.0;
        let mut sw = LazySlackQMax::new(q, 0.5, w, tau, 2);
        let w_eff = sw.effective_window();
        let slack = sw.base_block();
        let mut vals = Vec::new();
        for i in 0..6000u64 {
            let v = splitmix(&mut state) % 1_000_000;
            vals.push(v);
            sw.insert(i as u32, v);
            if i % 61 == 0 && vals.len() >= 2 * w_eff {
                let mut got: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
                // The lazy variant's front buffer may under-represent a
                // block by the summary cut, but the top-q of the window
                // is always retained; allow the same slack contract.
                assert_slack_window_result(&vals, &mut got, q, w_eff - slack + 1, w_eff + slack);
            }
        }
    }

    #[test]
    fn deamortized_lazy_matches_some_valid_window() {
        let mut state = 123u64;
        let q = 3;
        let w = 256;
        let tau = 1.0 / 16.0;
        let mut sw = LazySlackQMax::new_deamortized(q, 0.5, w, tau, 2);
        let w_eff = sw.effective_window();
        let slack = sw.base_block();
        let mut vals = Vec::new();
        for i in 0..6000u64 {
            let v = splitmix(&mut state) % 1_000_000;
            vals.push(v);
            sw.insert(i as u32, v);
            if i % 73 == 0 && vals.len() >= 2 * w_eff {
                let mut got: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
                // The deferred feed adds one base block of lag, so allow
                // two blocks of slack either way.
                assert_slack_window_result(
                    &vals,
                    &mut got,
                    q,
                    w_eff - 2 * slack + 1,
                    w_eff + 2 * slack,
                );
            }
        }
    }

    #[test]
    fn deamortized_lazy_tracks_recent_maximum() {
        let mut state = 77u64;
        let q = 2;
        let mut def = LazySlackQMax::new_deamortized(q, 0.5, 512, 0.125, 2);
        let w_eff = def.effective_window();
        let slack = def.base_block();
        let mut vals: Vec<u64> = Vec::new();
        for i in 0..20_000u64 {
            let v = splitmix(&mut state) % 100_000;
            vals.push(v);
            def.insert(i as u32, v);
            if i % 997 == 0 && vals.len() > 2 * w_eff {
                // Every valid answered window contains the core (the
                // recent items minus the slack fringes), so the q-th
                // largest of the answered window is at least the q-th
                // largest of the core.
                let core = &vals[vals.len() - (w_eff - 2 * slack)..];
                let mut core_sorted = core.to_vec();
                core_sorted.sort_unstable_by(|a, b| b.cmp(a));
                let core_qth = core_sorted[q - 1];
                let got: Vec<u64> = def.query().into_iter().map(|(_, v)| v).collect();
                let got_min = *got.iter().min().expect("q results");
                assert!(
                    got_min >= core_qth,
                    "reported min {got_min} below core q-th largest {core_qth} at i={i}"
                );
            }
        }
        assert_eq!(def.name(), "slack-lazy-wc");
    }

    #[test]
    fn lazy_expires_old_items() {
        let mut sw = LazySlackQMax::new(2, 0.5, 128, 0.125, 3);
        sw.insert(0u32, 42_000_000u64);
        for i in 0..(3 * sw.effective_window() as u64) {
            sw.insert((i + 1) as u32, 1 + (i % 9));
        }
        let got: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
        assert!(got.iter().all(|&v| v < 42_000_000));
    }

    #[test]
    fn resets_clear_all_variants() {
        let mut b = BasicSlackQMax::new(2, 0.5, 50, 0.2);
        let mut h = HierSlackQMax::new(2, 0.5, 50, 0.2, 2);
        let mut l = LazySlackQMax::new(2, 0.5, 50, 0.2, 2);
        for i in 0..500u64 {
            b.insert(i as u32, i);
            h.insert(i as u32, i);
            l.insert(i as u32, i);
        }
        b.reset();
        h.reset();
        l.reset();
        assert_eq!(b.len(), 0);
        assert_eq!(h.len(), 0);
        assert_eq!(l.len(), 0);
        assert!(b.query().is_empty());
        assert!(h.query().is_empty());
        assert!(l.query().is_empty());
    }

    #[test]
    fn adaptive_basic_validates_q_gamma_before_window() {
        use crate::QMaxError;
        let err = |q, w, tau| {
            AdaptiveBasicSlackQMax::<u32, u64>::try_new_adaptive(q, 0.5, w, tau).unwrap_err()
        };
        assert_eq!(err(0, 0, 0.0), QMaxError::ZeroQ);
        assert_eq!(err(4, 0, 0.5), QMaxError::ZeroWindow);
        assert_eq!(err(4, 100, 0.0), QMaxError::BadTau(0.0));
    }

    #[test]
    fn soa_windows_satisfy_the_slack_contract() {
        let mut state = 5u64;
        let q = 4;
        let w = 128;
        let tau = 0.25;
        let mut sw = BasicSlackQMax::with_backend(w, tau, SoaAmortizedQMax::new(q, 0.5));
        let s = sw.block_size();
        let w_eff = sw.effective_window();
        let mut vals = Vec::new();
        for i in 0..5000u64 {
            let v = splitmix(&mut state) % 1_000_000;
            vals.push(v);
            sw.insert(i as u32, v);
            if i % 41 == 0 && vals.len() >= w_eff {
                let mut got: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
                assert_slack_window_result(&vals, &mut got, q, w_eff - s, w_eff);
            }
        }
    }

    #[test]
    fn batch_insert_equals_singletons_across_variants() {
        let mut state = 17u64;
        let items: Vec<(u32, u64)> = (0..4000)
            .map(|i| (i as u32, splitmix(&mut state) % 100_000))
            .collect();
        for chunk in [1usize, 7, 64, 333, 1024] {
            let mut b_one = BasicSlackQMax::new(4, 0.5, 128, 0.25);
            let mut b_batch = BasicSlackQMax::new(4, 0.5, 128, 0.25);
            let mut h_one = HierSlackQMax::new(3, 0.5, 216, 1.0 / 27.0, 3);
            let mut h_batch = HierSlackQMax::new(3, 0.5, 216, 1.0 / 27.0, 3);
            let mut l_one = LazySlackQMax::new_deamortized(3, 0.5, 256, 1.0 / 16.0, 2);
            let mut l_batch = LazySlackQMax::new_deamortized(3, 0.5, 256, 1.0 / 16.0, 2);
            for &(id, v) in &items {
                b_one.insert(id, v);
                h_one.insert(id, v);
                l_one.insert(id, v);
            }
            for span in items.chunks(chunk) {
                b_batch.insert_batch(span);
                h_batch.insert_batch(span);
                l_batch.insert_batch(span);
            }
            let sorted = |mut v: Vec<(u32, u64)>| {
                v.sort_unstable();
                v
            };
            assert_eq!(
                sorted(b_one.query()),
                sorted(b_batch.query()),
                "basic chunk={chunk}"
            );
            assert_eq!(
                sorted(h_one.query()),
                sorted(h_batch.query()),
                "hier chunk={chunk}"
            );
            assert_eq!(
                sorted(l_one.query()),
                sorted(l_batch.query()),
                "lazy chunk={chunk}"
            );
        }
    }
}
