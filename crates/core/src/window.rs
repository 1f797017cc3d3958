//! q-MAX over `(W, τ)`-slack sliding windows.
//!
//! Computing the exact maximum over a `W`-item sliding window requires
//! `Ω(W)` space (Datar et al.), so the paper relaxes the window to a
//! *slack window*: the answer may refer to any suffix of length between
//! `W(1−τ)` and `W`. This module implements the paper's three
//! count-based slack algorithms:
//!
//! * [`BasicSlackQMax`] (Algorithm 3): `⌈1/τ⌉` blocks, each an interval
//!   q-MAX. `O(1)` update, `O(q/τ)` query.
//! * [`HierSlackQMax`] (Algorithm 4): `c` block layers at geometrically
//!   growing granularities. `O(c)` update, `O(q·c·τ^{-1/c})` query.
//! * [`LazySlackQMax`] (Theorem 7): a single front-buffer q-MAX absorbs
//!   every arrival, pushing only per-block top-`q` summaries into the
//!   layers. `O(1)` amortized update with the hierarchical query time.
//!
//! These and the time-based [`TimeSlackQMax`](crate::TimeSlackQMax)
//! all run on one epoch-stamped block ring: each window maps its clock
//! (the arrival count, or the timestamp) to an epoch, the ring hands
//! back that epoch's block — recycling the slot in place if it still
//! holds an older epoch — and reads keep only the slots whose stamp
//! lies in the live range. Skipping clock positions is therefore just
//! a clock update.
//!
//! All four are generic over the per-block interval backend via
//! [`IntervalBackend`]: the default type parameter keeps the historical
//! array-of-structs [`AmortizedQMax`] behavior (and works for non-`Copy`
//! ids), while `with_backend(…, SoaAmortizedQMax::new(q, γ))` routes
//! every block through the structure-of-arrays
//! [`SoaAmortizedQMax`](crate::SoaAmortizedQMax) so the branchless
//! batched insert path applies to windowed streams too, and
//! `with_backend(…, AdaptiveBackend::new(q, γ))` lets the layout rules
//! pick the layout. The [`BatchInsert`] impls split each batch at block
//! boundaries, so batched and singleton insertion are observably
//! identical.

use crate::adaptive::AdaptiveBackend;
use crate::amortized::AmortizedQMax;
use crate::entry::{retain_top_q, Entry};
use crate::error::QMaxError;
use crate::traits::{BatchInsert, IntervalBackend, QMax};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::RangeInclusive;

/// A ring of interval q-MAX blocks, one per epoch of a window's clock,
/// each slot stamped with the epoch it holds.
///
/// Epoch `e` covers the clock positions `[e·unit, (e+1)·unit)` and
/// lives in slot `e % n`. Touching a slot whose stamp is older recycles
/// its block **in place** via [`QMax::reset`] — no per-epoch
/// allocation — and every read keeps only the slots stamped within the
/// live range `[cur − n + 1, cur]`, so a slot left behind by skipped
/// epochs is simply never read.
#[derive(Debug, Clone)]
pub(crate) struct EpochRing<I, V, B> {
    /// `(stamp, block)` per slot; slot `i` starts out holding epoch `i`.
    slots: Vec<(u64, B)>,
    /// Clock units per epoch.
    unit: u64,
    /// Slot of the last touched epoch and that epoch's last clock
    /// position: clocks only move forward, so positions up to `last`
    /// reach the block without a division.
    cur: usize,
    last: u64,
    // Names `(I, V)` without owning either: the blocks own the data.
    _marker: PhantomData<fn() -> (I, V)>,
}

impl<I, V: Ord, B: IntervalBackend<I, V>> EpochRing<I, V, B> {
    /// The most slots one ring may hold: the bound `check_q_gamma` puts
    /// on every buffer, `n · size_of::<slot>() ≤ isize::MAX`.
    fn max_slots() -> usize {
        crate::error::max_slots::<(u64, B)>()
    }

    /// Validates τ and returns the `⌈1/τ⌉` blocks of a `(W, τ)`-slack
    /// window; `BadTau(τ)` when that many slots cannot be allocated.
    fn blocks_for(tau: f64) -> Result<usize, QMaxError> {
        crate::error::check_tau(tau)?;
        let n = (1.0 / tau).ceil();
        if n > Self::max_slots() as f64 {
            return Err(QMaxError::BadTau(tau));
        }
        Ok(n as usize)
    }

    /// The geometry `(n, unit) = (⌈1/τ⌉, ⌈span/n⌉)` of a one-ring slack
    /// window over `span` clock units. A span `n · unit` past the clock's
    /// range is `WindowOverflow(param)`.
    pub(crate) fn geometry(
        span: u64,
        tau: f64,
        param: &'static str,
    ) -> Result<(usize, u64), QMaxError> {
        if span == 0 {
            return Err(QMaxError::ZeroWindow);
        }
        let n = Self::blocks_for(tau)?;
        let unit = span.div_ceil(n as u64).max(1);
        unit.checked_mul(n as u64)
            .ok_or(QMaxError::WindowOverflow(param))?;
        Ok((n, unit))
    }

    /// A ring of `n` blocks of `unit` clock units stamped out of
    /// `proto`, positioned at epoch 0.
    pub(crate) fn new(n: usize, unit: u64, proto: &B) -> Self {
        EpochRing {
            slots: (0..n as u64).map(|e| (e, proto.fresh())).collect(),
            unit,
            cur: 0,
            last: unit - 1,
            _marker: PhantomData,
        }
    }

    pub(crate) fn n_blocks(&self) -> usize {
        self.slots.len()
    }

    /// Clock units per epoch.
    pub(crate) fn unit(&self) -> u64 {
        self.unit
    }

    /// The effective window `n · unit`, in clock units.
    pub(crate) fn span(&self) -> u64 {
        self.unit * self.slots.len() as u64
    }

    /// The block of the epoch holding clock position `t` (recycled first
    /// if its slot still holds an older epoch), and that epoch's last
    /// clock position.
    #[inline]
    pub(crate) fn block_at(&mut self, t: u64) -> (&mut B, u64) {
        if t > self.last {
            self.seek(t);
        }
        (&mut self.slots[self.cur].1, self.last)
    }

    #[cold]
    fn seek(&mut self, t: u64) {
        let epoch = t / self.unit;
        self.cur = (epoch % self.slots.len() as u64) as usize;
        self.last = (epoch * self.unit).saturating_add(self.unit - 1);
        let (stamp, block) = &mut self.slots[self.cur];
        if *stamp != epoch {
            block.reset();
            *stamp = epoch;
        }
    }

    /// The epochs a query at clock position `t` covers: the current one
    /// and the `n − 1` before it.
    fn live(&self, t: u64) -> RangeInclusive<u64> {
        let cur = t / self.unit;
        cur.saturating_sub(self.slots.len() as u64 - 1)..=cur
    }

    /// Appends the candidates of every live block at `t`, in slot order.
    ///
    /// Interval blocks may hold up to `q(1+γ)` candidates of which only
    /// the top `q` are guaranteed to matter; the superset is also
    /// correct and the final top-`q` cut happens once at the very end of
    /// the query, so it costs only a constant factor in merge size.
    pub(crate) fn collect_live(&self, t: u64, out: &mut Vec<Entry<I, V>>) {
        let live = self.live(t);
        for (stamp, block) in &self.slots {
            if live.contains(stamp) {
                block.candidates_into(out);
            }
        }
    }

    /// Appends the candidates of the given epochs, in that order; an
    /// epoch whose slot holds another one contributes nothing.
    fn collect_epochs(&self, epochs: impl Iterator<Item = u64>, out: &mut Vec<Entry<I, V>>) {
        let n = self.slots.len() as u64;
        for e in epochs {
            let (stamp, block) = &self.slots[(e % n) as usize];
            if *stamp == e {
                block.candidates_into(out);
            }
        }
    }

    /// Items held by the live blocks at `t`.
    fn len_live(&self, t: u64) -> usize {
        let live = self.live(t);
        self.slots
            .iter()
            .filter(|(stamp, _)| live.contains(stamp))
            .map(|(_, block)| block.len())
            .sum()
    }

    /// The blocks' backend label (all are stamped from one prototype).
    fn backend_label(&self) -> &'static str {
        self.slots[0].1.backend_label()
    }

    pub(crate) fn reset(&mut self) {
        for (e, (stamp, block)) in self.slots.iter_mut().enumerate() {
            block.reset();
            *stamp = e as u64;
        }
        self.cur = 0;
        self.last = self.unit - 1;
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
    /// `⌈1/τ⌉` blocks of `⌈Wτ⌉` items on the arrival clock.
    ring: EpochRing<I, V, B>,
    /// Items inserted so far.
    count: u64,
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
    /// `w == 0`, and `tau` outside `(0, 1]` (or too small for its
    /// `⌈1/τ⌉` blocks to be allocated) instead of panicking.
    pub fn try_new(q: usize, gamma: f64, w: usize, tau: f64) -> Result<Self, QMaxError> {
        Self::try_with_backend(w, tau, AmortizedQMax::try_new(q, gamma)?)
    }
}

/// [`BasicSlackQMax`] with per-block adaptive backends: each block's
/// layout (array-of-structs vs structure-of-arrays) is picked by the
/// static rules of [`AdaptiveBackend`] from the block's
/// lifetime fill `⌈w·τ⌉` — a basic-window block receives exactly one
/// block's worth of arrivals, then recycles. When that lifetime fill
/// sits below the block capacity the block never compacts, and the
/// rules route it to the append-fast AoS layout (the small-τ regime
/// where a hand-picked SoA layout measurably loses).
pub type AdaptiveBasicSlackQMax<I, V> = BasicSlackQMax<I, V, AdaptiveBackend<I, V>>;

impl<I: Copy + 'static, V: Ord + Copy + 'static> AdaptiveBasicSlackQMax<I, V> {
    /// Like [`BasicSlackQMax::new`], but every block delegates to the
    /// layout the adaptive layout rules pick for a lifetime fill of
    /// one block's worth of arrivals (`⌈w/⌈1/τ⌉⌉` items).
    pub fn new_adaptive(q: usize, gamma: f64, w: usize, tau: f64) -> Self {
        Self::try_new_adaptive(q, gamma, w, tau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AdaptiveBasicSlackQMax::new_adaptive`].
    pub fn try_new_adaptive(q: usize, gamma: f64, w: usize, tau: f64) -> Result<Self, QMaxError> {
        // The prototype's layout must be chosen from the block size
        // before the ring can be stamped out of it; q/γ errors still
        // take precedence over window errors, as in every `try_new`.
        crate::error::check_q_gamma::<Entry<I, V>>(q, gamma)?;
        let (_, block) = EpochRing::<I, V, AdaptiveBackend<I, V>>::geometry(w as u64, tau, "w")?;
        let proto = AdaptiveBackend::try_with_fill_hint(q, gamma, Some(block as usize))?;
        Self::try_with_backend(w, tau, proto)
    }
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
    pub fn try_with_backend(w: usize, tau: f64, proto: B) -> Result<Self, QMaxError> {
        let (n_blocks, block_size) = EpochRing::<I, V, B>::geometry(w as u64, tau, "w")?;
        Ok(BasicSlackQMax {
            q: proto.q(),
            ring: EpochRing::new(n_blocks, block_size, &proto),
            count: 0,
        })
    }

    /// Items per block (`⌈Wτ⌉`).
    pub fn block_size(&self) -> usize {
        self.ring.unit() as usize
    }

    /// Number of blocks (`⌈1/τ⌉`).
    pub fn n_blocks(&self) -> usize {
        self.ring.n_blocks()
    }

    /// The effective window length `block_size · n_blocks`.
    pub fn effective_window(&self) -> usize {
        self.ring.span() as usize
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
        let cur = self.count / self.ring.unit();
        // Blocks not yet produced this early in the stream are skipped.
        let epochs = (newest as u64..=oldest as u64).map_while(|ago| cur.checked_sub(ago));
        let mut scratch = Vec::new();
        self.ring.collect_epochs(epochs, &mut scratch);
        top_q_entries(scratch, self.q)
    }
}

impl<I, V: Ord, B: IntervalBackend<I, V>> QMax<I, V> for BasicSlackQMax<I, V, B> {
    fn insert(&mut self, id: I, val: V) -> bool {
        self.ring.block_at(self.count).0.insert(id, val);
        self.count += 1;
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        let mut scratch = Vec::new();
        self.ring.collect_live(self.count, &mut scratch);
        top_q_entries(scratch, self.q)
    }

    fn reset(&mut self) {
        self.ring.reset();
        self.count = 0;
    }

    fn q(&self) -> usize {
        self.q
    }

    fn len(&self) -> usize {
        self.ring.len_live(self.count)
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
        self.ring.backend_label()
    }
}

impl<I, V: Ord, B: IntervalBackend<I, V>> BatchInsert<I, V> for BasicSlackQMax<I, V, B> {
    /// Splits the batch at block boundaries and feeds each span to the
    /// current block's own batch kernel — identical admissions and block
    /// contents to inserting the items one by one.
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut i = 0;
        while i < items.len() {
            let (block, last) = self.ring.block_at(self.count);
            let take = (items.len() - i).min((last - self.count) as usize + 1);
            block.insert_batch(&items[i..i + take]);
            self.count += take as u64;
            i += take;
        }
        items.len()
    }
}

/// Cuts a candidate vector down to its `q` largest entries.
pub(crate) fn top_q_entries<I, V: Ord>(mut scratch: Vec<Entry<I, V>>, q: usize) -> Vec<(I, V)> {
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
    /// `rings[ℓ-1]` is layer ℓ: `bˡ` blocks of `s·bᶜ⁻ℓ` items on the
    /// arrival clock. Layer 1 (index 0) is the coarsest.
    rings: Vec<EpochRing<I, V, B>>,
    /// Total items inserted (plus the lazy window's padding).
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
    /// `w == 0`, `c == 0`, `tau` outside `(0, 1]`, and a geometry too
    /// large to allocate instead of panicking.
    pub fn try_new(q: usize, gamma: f64, w: usize, tau: f64, c: usize) -> Result<Self, QMaxError> {
        Self::try_with_backend(w, tau, c, AmortizedQMax::try_new(q, gamma)?)
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
    pub fn try_with_backend(w: usize, tau: f64, c: usize, proto: B) -> Result<Self, QMaxError> {
        crate::error::check_window(w, tau)?;
        if c == 0 {
            return Err(QMaxError::ZeroLayers);
        }
        EpochRing::<I, V, B>::blocks_for(tau)?;
        let branch = ((1.0 / tau).powf(1.0 / c as f64)).ceil() as usize;
        let branch = branch.max(2);
        // Effective total blocks at the finest layer: b^c; base block
        // sized so the finest layer spans at least w.
        let total_fine = u32::try_from(c)
            .ok()
            .and_then(|c| branch.checked_pow(c))
            .filter(|&n| n <= EpochRing::<I, V, B>::max_slots())
            .ok_or(QMaxError::WindowOverflow("c"))?;
        let base = w.div_ceil(total_fine).max(1);
        base.checked_mul(total_fine)
            .ok_or(QMaxError::WindowOverflow("w"))?;
        // Layer ℓ has b^ℓ blocks of s·b^{c−ℓ} items: the current partial
        // one plus b^ℓ − 1 full ones, spanning between w − size and w
        // items. Every factor divides b^c, so none of these overflow.
        let rings = (1..=c as u32)
            .map(|level| {
                let size = base * branch.pow(c as u32 - level);
                EpochRing::new(branch.pow(level), size as u64, &proto)
            })
            .collect();
        Ok(HierSlackQMax {
            q: proto.q(),
            base,
            rings,
            count: 0,
        })
    }

    /// The branching factor `b`.
    pub fn branch(&self) -> usize {
        self.rings[0].n_blocks()
    }

    /// The finest block size.
    pub fn base_block(&self) -> usize {
        self.base
    }

    /// The effective window length `base · bᶜ`.
    pub fn effective_window(&self) -> usize {
        self.rings[0].span() as usize
    }
}

impl<I: Clone, V: Ord + Clone, B: IntervalBackend<I, V>> QMax<I, V> for HierSlackQMax<I, V, B> {
    fn insert(&mut self, id: I, val: V) -> bool {
        let count = self.count;
        let (finest, coarser) = self.rings.split_last_mut().expect("c >= 1");
        for ring in coarser {
            ring.block_at(count).0.insert(id.clone(), val.clone());
        }
        finest.block_at(count).0.insert(id, val);
        self.count += 1;
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        let mut scratch = Vec::new();
        let count = self.count;
        let target = count.saturating_sub(self.rings[0].span());
        // Coarsest layer: merge everything it retains. It covers
        // [frontier, count), from the start of its oldest live block.
        self.rings[0].collect_live(count, &mut scratch);
        let mut frontier = self.rings[0].live(count).start() * self.rings[0].unit();
        // Finer layers: patch [start, frontier) with their oldest
        // retained blocks.
        for ring in &self.rings[1..] {
            if frontier <= target {
                break;
            }
            let oldest = *ring.live(count).start();
            let start = oldest * ring.unit();
            if start >= frontier {
                continue;
            }
            let m = ((frontier - start) / ring.unit()).min(ring.n_blocks() as u64 - 1);
            ring.collect_epochs(oldest..oldest + m, &mut scratch);
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
        self.rings.iter().map(|r| r.len_live(self.count)).sum()
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
        self.rings[0].backend_label()
    }
}

impl<I: Clone, V: Ord + Clone, B: IntervalBackend<I, V>> BatchInsert<I, V>
    for HierSlackQMax<I, V, B>
{
    /// Splits the batch at the nearest block boundary across *all*
    /// layers and multicasts each span to every layer's current block —
    /// identical block contents to inserting the items one by one.
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut i = 0;
        while i < items.len() {
            let count = self.count;
            let mut take = (items.len() - i) as u64;
            for ring in &mut self.rings {
                take = take.min(ring.block_at(count).1 - count + 1);
            }
            let span = &items[i..i + take as usize];
            for ring in &mut self.rings {
                ring.block_at(count).0.insert_batch(span);
            }
            self.count += take;
            i += take as usize;
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
    /// The completed block's summary not yet fed into the layers.
    pending: VecDeque<(I, V)>,
    /// Counter padding still owed to the layers for the pending block.
    pending_pad: usize,
    /// Summary items fed per arrival: 0 feeds each summary whole when
    /// its block completes; the deamortized mode spreads it over the
    /// next block's arrivals.
    drain_rate: usize,
    /// Reused to extract each block's summary from the front buffer.
    summary: Vec<Entry<I, V>>,
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
    pub fn try_new(q: usize, gamma: f64, w: usize, tau: f64, c: usize) -> Result<Self, QMaxError> {
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
    pub fn try_with_backend(w: usize, tau: f64, c: usize, proto: B) -> Result<Self, QMaxError> {
        let front = proto.fresh();
        let hier = HierSlackQMax::try_with_backend(w, tau, c, proto)?;
        Ok(LazySlackQMax {
            q: hier.q,
            front,
            hier,
            fill: 0,
            pending: VecDeque::new(),
            pending_pad: 0,
            drain_rate: 0,
            summary: Vec::new(),
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
        this
    }

    /// Feeds up to `k` pending summary items into the layers, one
    /// contiguous run of the queue at a time through the batch path
    /// (identical admissions and ring advances to a singleton loop,
    /// without a per-item dispatch — the merge feed is as hot as the
    /// arrival path at small τ).
    fn feed(&mut self, mut k: usize) {
        while k > 0 && !self.pending.is_empty() {
            let run = self.pending.as_slices().0;
            let take = run.len().min(k);
            self.hier.insert_batch(&run[..take]);
            self.pending.drain(..take);
            self.pending_pad -= take;
            k -= take;
        }
    }

    /// Feeds the whole pending summary and settles the owed counter
    /// padding, so layer block boundaries stay aligned with real stream
    /// positions.
    fn flush(&mut self) {
        self.feed(usize::MAX);
        self.hier.count += self.pending_pad as u64;
        self.pending_pad = 0;
    }

    /// Closes the current base block: settles the previous block's
    /// summary (deamortized mode), queues this block's top-q summary —
    /// extracted **without consuming the front buffer**, which is
    /// recycled in place right after — and, in immediate mode, feeds it
    /// at once.
    fn complete_block(&mut self) {
        self.flush();
        self.summary.clear();
        self.front.top_q_into(&mut self.summary);
        self.pending_pad = self.hier.base_block();
        self.pending
            .extend(self.summary.drain(..).map(|e| (e.id, e.val)));
        if self.drain_rate == 0 {
            self.flush();
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
        if !self.pending.is_empty() {
            self.feed(self.drain_rate);
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
        // Pending items are recent and still in the window.
        scratch.extend(
            self.pending
                .iter()
                .map(|(id, val)| Entry::new(id.clone(), val.clone())),
        );
        for (id, val) in self.hier.query() {
            scratch.push(Entry::new(id, val));
        }
        top_q_entries(scratch, self.q)
    }

    fn reset(&mut self) {
        self.front.reset();
        self.hier.reset();
        self.fill = 0;
        self.pending.clear();
        self.pending_pad = 0;
    }

    fn q(&self) -> usize {
        self.q
    }

    fn len(&self) -> usize {
        self.front.len() + self.hier.len() + self.pending.len()
    }

    /// Always `None`. The front buffer does have an internal Ψ, but
    /// block boundaries are defined by *arrival counts* (`fill`), so an
    /// external prefilter dropping items before they are counted would
    /// shift every boundary — see [`BasicSlackQMax::threshold`].
    fn threshold(&self) -> Option<V> {
        None
    }

    fn name(&self) -> &'static str {
        if self.drain_rate > 0 {
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
    /// the front buffer's batch kernel. In deamortized mode the pending
    /// summary is fed `drain_rate` items per *arrival* (one bulk feed of
    /// `drain_rate · span` items per span), which feeds exactly as many
    /// items as the singleton loop would have by each block boundary —
    /// refills only happen at boundaries, where spans end.
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut i = 0;
        while i < items.len() {
            let take = (self.hier.base_block() - self.fill).min(items.len() - i);
            self.feed(self.drain_rate.saturating_mul(take));
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
