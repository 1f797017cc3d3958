//! The q-MAX problem interface.

use crate::entry::{retain_top_q, Entry};

/// The q-MAX interface: process a stream of `(id, value)` items and, upon
/// query, list the `q` items with the largest values.
///
/// This interface is deliberately *weaker* than a priority queue's — it
/// has no `pop`, `peek`, or ordered iteration — which is exactly what
/// allows constant-time implementations ([`crate::DeamortizedQMax`])
/// while heaps and skip lists are stuck at `Ω(log q)`.
///
/// Implementations may keep more than `q` candidates internally (up to
/// `q(1+γ)`), may reorder their internals during `query`, and may drop
/// arriving items that provably cannot be among the `q` largest.
pub trait QMax<I, V> {
    /// Offers a stream item to the structure.
    ///
    /// Returns `true` if the item was admitted into the candidate set and
    /// `false` if it was filtered out (its value was at most the current
    /// admission threshold, so it cannot be among the `q` largest).
    fn insert(&mut self, id: I, val: V) -> bool;

    /// Lists the `q` items with the largest values seen so far (fewer if
    /// the stream was shorter than `q`). Order within the result is
    /// unspecified.
    fn query(&mut self) -> Vec<(I, V)>;

    /// Clears the structure back to its initial empty state.
    fn reset(&mut self);

    /// The configured reservoir size `q`.
    fn q(&self) -> usize;

    /// Number of candidate items currently stored (between `min(q, seen)`
    /// and the structure's capacity).
    fn len(&self) -> usize;

    /// Whether no items are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current admission threshold Ψ: a value such that items with
    /// `val <= Ψ` are provably not among the `q` largest and are dropped
    /// on arrival. `None` while no threshold has been established.
    fn threshold(&self) -> Option<V>;

    /// A short human-readable implementation name (used by the benchmark
    /// harness to label series).
    fn name(&self) -> &'static str;

    /// Which concrete layout this structure (or its delegate) runs on.
    /// Defaults to [`name`](QMax::name); wrappers (the slack windows,
    /// [`crate::ExpDecayQMax`]) report the label of the backend they
    /// hold, so the layout shows through every wrapper.
    fn backend_label(&self) -> &'static str {
        self.name()
    }
}

/// Bulk insertion for [`QMax`] structures.
///
/// `insert_batch` is semantically identical to inserting the items one by
/// one in order — same admissions, same final state — but lets an
/// implementation amortize per-call overhead and use cache-friendly
/// kernels over the whole slice. The structure-of-arrays backends
/// ([`crate::SoaAmortizedQMax`], [`crate::SoaDeamortizedQMax`]) exploit
/// this with a branchless chunked Ψ-filter; the generic impls simply
/// loop.
pub trait BatchInsert<I, V>: QMax<I, V> {
    /// Offers every item of `items` to the structure, in order.
    ///
    /// Returns the number of items admitted into the candidate set (the
    /// rest were dropped by the admission filter).
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize;
}

/// A q-MAX backend usable as the per-interval building block of the
/// variant layers: slack windows ([`crate::BasicSlackQMax`],
/// [`crate::HierSlackQMax`], [`crate::LazySlackQMax`]), time-based
/// windows ([`crate::TimeSlackQMax`]), and the LRFU caches.
///
/// The variants own many interchangeable interval instances (ring
/// blocks, a front buffer, per-shard reservoirs) and need three things
/// beyond [`QMax`] + [`BatchInsert`]:
///
/// * **prototype construction** — [`fresh`](IntervalBackend::fresh)
///   stamps out an empty instance with the same configuration (`q`, γ
///   geometry), so a window can build its blocks from one caller-made
///   prototype without knowing the backend's constructor signature;
/// * **non-consuming summaries** —
///   [`candidates_into`](IntervalBackend::candidates_into) and
///   [`top_q_into`](IntervalBackend::top_q_into) read a block's
///   contents **without mutating it**. This is load-bearing: a window
///   query merges every retained block, and `LazySlackQMax` pushes a
///   completed block's summary into its layers; if summarizing
///   compacted or drained the block (as `query` may), a query would
///   corrupt blocks that are still inside the window;
/// * **in-place recycling** — `reset` (from [`QMax`]) must return the
///   instance to its empty state while keeping its allocations, so
///   advancing a block ring does not allocate in the hot path.
pub trait IntervalBackend<I, V: Ord>: BatchInsert<I, V> {
    /// Creates a fresh, empty instance with the same configuration
    /// (`q` and space-slack geometry) as `self`, but none of its
    /// contents. Used by the window constructors to stamp blocks out
    /// of a prototype.
    fn fresh(&self) -> Self
    where
        Self: Sized;

    /// The backend's fixed candidate capacity (`⌈q(1+γ)⌉`-shaped):
    /// `len()` never exceeds it, and variant layers use it to bound
    /// their own populations.
    fn capacity(&self) -> usize;

    /// Appends the current candidate set — a cheap superset of the top
    /// `q`, at most the backend's capacity — to `out`, without mutating
    /// the backend. Window queries merge these supersets and cut to `q`
    /// once at the end, which is cheaper than per-block exact cuts.
    fn candidates_into(&self, out: &mut Vec<Entry<I, V>>);

    /// Appends exactly the top `min(q, len)` candidates to `out`,
    /// without mutating the backend. Used where a *bounded* summary is
    /// required (e.g. `LazySlackQMax`'s per-block push into its
    /// layers). The default selects over a scratch tail of `out`.
    fn top_q_into(&self, out: &mut Vec<Entry<I, V>>) {
        let start = out.len();
        self.candidates_into(out);
        retain_top_q(out, start, self.q());
    }
}

impl<I, V, Q: QMax<I, V> + ?Sized> QMax<I, V> for Box<Q> {
    fn insert(&mut self, id: I, val: V) -> bool {
        (**self).insert(id, val)
    }

    fn query(&mut self) -> Vec<(I, V)> {
        (**self).query()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn q(&self) -> usize {
        (**self).q()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn threshold(&self) -> Option<V> {
        (**self).threshold()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn backend_label(&self) -> &'static str {
        (**self).backend_label()
    }
}

impl<I, V, Q: BatchInsert<I, V> + ?Sized> BatchInsert<I, V> for Box<Q> {
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        (**self).insert_batch(items)
    }
}
