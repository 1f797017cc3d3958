//! Snapshot/restore capability for q-MAX backends.
//!
//! A [`BackendSnapshot`] is a self-contained copy of a backend's
//! *logical* state: the candidate set (a superset of the top `q`), the
//! admission threshold Ψ, and the execution counters. For the amortized
//! layouts this is a cheap memcpy of the live candidate buffer — the
//! whole structure *is* its candidates plus Ψ, which is what makes
//! q-MAX checkpointing practical at per-batch cadence.
//!
//! [`Checkpoint::restore`] **fully overwrites** the backend's logical
//! state with the snapshot's, regardless of what the backend currently
//! holds. That contract is what the supervision layer in `qmax-engine`
//! relies on: after a worker panic the backend's buffers may hold
//! arbitrary (but structurally valid — the backends are panic-safe
//! under `#![forbid(unsafe_code)]`) state, and a restore from the last
//! checkpoint must yield exactly the checkpointed structure without
//! needing a factory rebuild.
//!
//! For the amortized layouts (AoS, SoA, adaptive), restore preserves,
//! for any backend `b` and snapshot `s = b.snapshot()`:
//!
//! * the candidate multiset (hence the top-`q` query result),
//! * the threshold Ψ,
//! * the statistics counters (compactions, filtered, pivot fallbacks),
//!
//! and the restored copy then behaves step for step like `b`.
//!
//! The de-amortized layouts ([`crate::DeamortizedQMax`],
//! [`crate::SoaDeamortizedQMax`]) snapshot the same things — their
//! valid candidates, Ψ, and `iterations` as `compactions` — but their
//! contract is *query* equivalence, not step equivalence. Restore
//! resets, replays the candidates through the arrival path with Ψ
//! cleared, and raises Ψ back to the snapshot's; the selection machine
//! restarts with the replay instead of resuming mid-iteration. The
//! restored copy answers the same top-`q`, immediately and after any
//! common suffix, with Ψ at least the snapshot's and at most its q-th
//! largest value; later iteration counts may differ.
//!
//! The 256-case round-trip suite in `tests/proptest_checkpoint.rs`
//! pins both contracts, including mid-compaction, freshly-recycled-block
//! and mid-iteration states.

use crate::entry::Entry;
use crate::traits::QMax;

/// A self-contained copy of a backend's logical state: candidates + Ψ
/// + statistics counters. See the module docs for the restore contract.
#[derive(Debug, Clone)]
pub struct BackendSnapshot<I, V> {
    /// The live candidate set (a superset of the top `q`, in
    /// unspecified order).
    pub entries: Vec<Entry<I, V>>,
    /// The admission threshold Ψ at snapshot time.
    pub threshold: Option<V>,
    /// Compactions performed up to snapshot time.
    pub compactions: u64,
    /// Arrivals dropped by the admission filter up to snapshot time.
    pub filtered: u64,
    /// Sampled-pivot fallbacks up to snapshot time.
    pub pivot_fallbacks: u64,
}

impl<I, V> BackendSnapshot<I, V> {
    /// An empty snapshot: restoring it is equivalent to a `reset()`
    /// plus zeroed counters. The supervision layer uses this as the
    /// "cold" checkpoint for a shard that failed before its first
    /// checkpoint was taken.
    pub fn empty() -> Self {
        BackendSnapshot {
            entries: Vec::new(),
            threshold: None,
            compactions: 0,
            filtered: 0,
            pivot_fallbacks: 0,
        }
    }

    /// Number of candidate entries captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot captured no candidates.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<I, V> Default for BackendSnapshot<I, V> {
    fn default() -> Self {
        Self::empty()
    }
}

/// Backends that can capture and re-adopt their logical state.
///
/// `restore` overwrites the backend's current state with the
/// snapshot's; it never merges. Snapshots are only meaningful across
/// backends constructed with the same `(q, γ)` geometry — restoring a
/// snapshot into a differently-shaped backend is allowed to panic.
pub trait Checkpoint<I, V: Ord>: QMax<I, V> {
    /// Captures the current logical state (candidates + Ψ + counters).
    fn snapshot(&self) -> BackendSnapshot<I, V>;

    /// Overwrites the logical state with the snapshot's, regardless of
    /// current contents. Safe to call on a backend left in an arbitrary
    /// post-panic state.
    fn restore(&mut self, snap: &BackendSnapshot<I, V>);
}

impl<I, V: Ord, B: Checkpoint<I, V> + ?Sized> Checkpoint<I, V> for Box<B> {
    fn snapshot(&self) -> BackendSnapshot<I, V> {
        (**self).snapshot()
    }

    fn restore(&mut self, snap: &BackendSnapshot<I, V>) {
        (**self).restore(snap)
    }
}
