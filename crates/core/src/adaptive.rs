//! Per-block adaptive backend: AoS or SoA, chosen by three static
//! rules on the block's shape (DESIGN.md §4.6).
//!
//! [`AdaptiveBackend`] is an [`IntervalBackend`] that delegates every
//! operation to either the array-of-structs [`AmortizedQMax`] (scalar
//! admit loop, no kernel handle — the append-only fast path) or the
//! structure-of-arrays [`SoaAmortizedQMax`] (kernel-dispatched batch
//! admit over split lanes). The choice is made **once at construction**
//! from the block's capacity `⌈q(1+γ)⌉`, an optional *lifetime fill*
//! hint (how many items the block sees before it is recycled: the basic
//! slack window passes its per-block fill, merge-fed structures pass
//! `None`) and the value-lane type — no timing and no process state:
//!
//! * a non-`u64` value lane goes to AoS: the SIMD tiers only accept
//!   `u64` lanes, so the SoA layout's split lanes buy nothing there;
//! * an **append-only** block — one whose lifetime fill is at most its
//!   capacity, so it is recycled before it ever compacts — goes to AoS:
//!   without compactions the kernel path never runs, and the single
//!   interleaved AoS push beats the SoA two-lane push;
//! * every other block cycles through kernel admits and goes to SoA.
//!
//! The kernel tier (which `GLIBC_TUNABLES` can mask on glibc) decides
//! what the SoA layout dispatches to but never which layout is picked.
//!
//! Both delegates are the one amortized algorithm
//! ([`Amortized`](crate::Amortized)) over different slot layouts: same
//! admissions, same Ψ trajectory, same top-q value multiset (ids
//! tie-break arbitrarily). The choice is therefore observable only
//! through [`QMax::backend_label`] and performance — never through query
//! results. `tests/proptest_adaptive.rs` pins this down.

use crate::amortized::{amortized_capacity, AmortizedQMax};
use crate::checkpoint::{BackendSnapshot, Checkpoint};
use crate::entry::Entry;
use crate::soa::SoaAmortizedQMax;
use crate::traits::{BatchInsert, IntervalBackend, QMax};
use core::any::TypeId;

/// Which layout the rules picked for one block prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendChoice {
    /// Array-of-structs `AmortizedQMax`: scalar admit loop, no kernel
    /// handle — the append-only and non-`u64` fast path.
    Aos,
    /// Structure-of-arrays `SoaAmortizedQMax`: kernel-dispatched batch
    /// admit and partition over split lanes.
    Soa,
}

/// Picks a layout for a block of `capacity` slots holding `V` values
/// that is expected to see `lifetime_fill` items between recycles
/// (`None`: unbounded, the block fills and compacts over and over).
/// A pure function of its inputs (see the module docs).
fn choose<V: 'static>(capacity: usize, lifetime_fill: Option<usize>) -> BackendChoice {
    let append_only = lifetime_fill.is_some_and(|fill| fill <= capacity);
    if !lane_is_u64::<V>() || append_only {
        BackendChoice::Aos
    } else {
        BackendChoice::Soa
    }
}

/// Whether `V` is exactly `u64` — the only lane type the SIMD tiers
/// accept.
fn lane_is_u64<V: 'static>() -> bool {
    TypeId::of::<V>() == TypeId::of::<u64>()
}

/// An interval backend that delegates to AoS or SoA per constructed
/// block capacity and expected fill (see the module docs).
///
/// ```
/// use qmax_core::{AdaptiveBackend, BatchInsert, QMax};
/// let mut qm = AdaptiveBackend::new(2, 0.5);
/// let items: Vec<(u32, u64)> = (0u64..100).map(|v| (v as u32, v)).collect();
/// qm.insert_batch(&items);
/// let mut top: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
/// top.sort();
/// assert_eq!(top, vec![98, 99]);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveBackend<I: Copy + 'static, V: Ord + Copy + 'static> {
    inner: Inner<I, V>,
}

#[derive(Debug, Clone)]
enum Inner<I: Copy + 'static, V: Ord + Copy + 'static> {
    Aos(AmortizedQMax<I, V>),
    Soa(SoaAmortizedQMax<I, V>),
}

/// Evaluates `$body` with `$b` bound to the chosen layout's backend.
macro_rules! delegate {
    ($inner:expr, $b:ident => $body:expr) => {
        match $inner {
            Inner::Aos($b) => $body,
            Inner::Soa($b) => $body,
        }
    };
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> AdaptiveBackend<I, V> {
    /// Creates an adaptive q-MAX for the `q` largest items with
    /// space-slack `gamma` and no fill hint (the block is assumed to
    /// fill to capacity — the plain interval use).
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `gamma` is not a positive finite number.
    /// Use [`AdaptiveBackend::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64) -> Self {
        Self::try_new(q, gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AdaptiveBackend::new`].
    pub fn try_new(q: usize, gamma: f64) -> Result<Self, crate::QMaxError> {
        Self::try_with_fill_hint(q, gamma, None)
    }

    /// Fallible [`AdaptiveBackend::new`] with a lifetime fill hint: how
    /// many items this block is expected to see before it is recycled.
    /// The basic slack window passes its per-block size here; merge-fed
    /// structures pass `None` (see the module docs).
    pub fn try_with_fill_hint(
        q: usize,
        gamma: f64,
        expected_fill: Option<usize>,
    ) -> Result<Self, crate::QMaxError> {
        crate::error::check_q_gamma::<Entry<I, V>>(q, gamma)?;
        let inner = match choose::<V>(amortized_capacity(q, gamma), expected_fill) {
            BackendChoice::Aos => Inner::Aos(AmortizedQMax::try_new(q, gamma)?),
            BackendChoice::Soa => Inner::Soa(SoaAmortizedQMax::try_new(q, gamma)?),
        };
        Ok(AdaptiveBackend { inner })
    }

    /// Which layout the rules picked for this instance.
    pub fn choice(&self) -> BackendChoice {
        match &self.inner {
            Inner::Aos(_) => BackendChoice::Aos,
            Inner::Soa(_) => BackendChoice::Soa,
        }
    }

    /// Total buffer capacity `⌈q(1+γ)⌉` (same geometry either way).
    pub fn capacity(&self) -> usize {
        delegate!(&self.inner, b => b.capacity())
    }

    /// Number of compactions (threshold recomputations) performed.
    pub fn compactions(&self) -> u64 {
        delegate!(&self.inner, b => b.compactions())
    }

    /// Number of arrivals dropped by the admission filter.
    pub fn filtered(&self) -> u64 {
        delegate!(&self.inner, b => b.filtered())
    }

    /// Compactions whose sampled pivot fell outside the tolerance band
    /// (exact either way; tracks sample quality).
    pub fn pivot_fallbacks(&self) -> u64 {
        delegate!(&self.inner, b => b.pivot_fallbacks())
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> QMax<I, V> for AdaptiveBackend<I, V> {
    #[inline]
    fn insert(&mut self, id: I, val: V) -> bool {
        delegate!(&mut self.inner, b => b.insert(id, val))
    }

    fn query(&mut self) -> Vec<(I, V)> {
        delegate!(&mut self.inner, b => b.query())
    }

    fn reset(&mut self) {
        delegate!(&mut self.inner, b => b.reset())
    }

    fn q(&self) -> usize {
        delegate!(&self.inner, b => QMax::q(b))
    }

    #[inline]
    fn len(&self) -> usize {
        delegate!(&self.inner, b => QMax::len(b))
    }

    #[inline]
    fn threshold(&self) -> Option<V> {
        delegate!(&self.inner, b => b.threshold())
    }

    fn name(&self) -> &'static str {
        "qmax-adaptive"
    }

    fn backend_label(&self) -> &'static str {
        match &self.inner {
            Inner::Aos(_) => "qmax-adaptive-aos",
            Inner::Soa(_) => "qmax-adaptive-soa",
        }
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> BatchInsert<I, V> for AdaptiveBackend<I, V> {
    #[inline]
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        delegate!(&mut self.inner, b => b.insert_batch(items))
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> Checkpoint<I, V> for AdaptiveBackend<I, V> {
    /// Delegates to the chosen layout; the snapshot format is layout-
    /// independent, so a snapshot taken from an AoS block restores into
    /// a SoA block of the same geometry and vice versa.
    fn snapshot(&self) -> BackendSnapshot<I, V> {
        delegate!(&self.inner, b => b.snapshot())
    }

    fn restore(&mut self, snap: &BackendSnapshot<I, V>) {
        delegate!(&mut self.inner, b => b.restore(snap))
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> IntervalBackend<I, V> for AdaptiveBackend<I, V> {
    /// Fresh instances keep the prototype's choice: the rules decided
    /// once for this capacity/fill shape, and a window stamping blocks
    /// out of one prototype must get a homogeneous ring.
    fn fresh(&self) -> Self {
        AdaptiveBackend {
            inner: match &self.inner {
                Inner::Aos(b) => Inner::Aos(b.fresh()),
                Inner::Soa(b) => Inner::Soa(b.fresh()),
            },
        }
    }

    fn capacity(&self) -> usize {
        delegate!(&self.inner, b => b.capacity())
    }

    fn candidates_into(&self, out: &mut Vec<Entry<I, V>>) {
        delegate!(&self.inner, b => b.candidates_into(out))
    }

    fn top_q_into(&self, out: &mut Vec<Entry<I, V>>) {
        delegate!(&self.inner, b => b.top_q_into(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderedF64;
    use BackendChoice::{Aos, Soa};

    #[test]
    fn auto_distinguishes_append_only_from_compaction_heavy() {
        // No hint: unbounded stream, compaction-heavy at any capacity.
        assert_eq!(choose::<u64>(1000, None), Soa);
        assert_eq!(choose::<u64>(1, None), Soa);
        // Lifetime fill within capacity: append-only.
        assert_eq!(choose::<u64>(1000, Some(10)), Aos);
        assert_eq!(choose::<u64>(1000, Some(1000)), Aos);
        assert_eq!(choose::<u64>(1001, Some(1002)), Soa);
        // The shapes this repository ships: random-q1e5, caida-driver,
        // caida-window, and the basic window's block geometry at
        // τ = 0.01 and τ = 0.1 (q = 10⁴, γ = 0.25, W = 10⁶), which lands
        // on either side.
        assert_eq!(choose::<u64>(125_000, None), Soa);
        assert_eq!(choose::<u64>(12_500, None), Soa);
        assert_eq!(choose::<u64>(1_250, Some(104_858)), Soa);
        assert_eq!(choose::<u64>(12_500, Some(10_000)), Aos);
        assert_eq!(choose::<u64>(12_500, Some(100_000)), Soa);
    }

    #[test]
    fn rules_route_non_u64_lanes_to_aos() {
        for fill in [None, Some(1), Some(1 << 30)] {
            assert_eq!(choose::<u32>(100, fill), Aos);
            assert_eq!(choose::<i64>(100, fill), Aos);
        }
        // The one shipped non-u64 adaptive lane: the shards of
        // `ShardedQMax::new_decayed`, `ExpDecayQMax<AdaptiveBackend<_,
        // OrderedF64>>`, at the q = 8, γ = 0.5 its tests build (capacity
        // 12), with no fill hint.
        assert_eq!(choose::<OrderedF64>(12, None), Aos);
    }

    #[test]
    fn auto_routes_non_u64_lanes_to_aos() {
        // A non-u64 value lane lands on AoS even with no fill hint.
        let qm = AdaptiveBackend::<u32, OrderedF64>::try_new(10, 0.5).unwrap();
        assert_eq!(qm.choice(), Aos);
        assert_eq!(qm.backend_label(), "qmax-adaptive-aos");
    }

    #[test]
    fn lane_check_matches_types() {
        assert!(lane_is_u64::<u64>());
        assert!(!lane_is_u64::<u32>());
        assert!(!lane_is_u64::<i64>());
    }

    #[test]
    fn auto_splits_on_fill_hint() {
        let build = |fill| AdaptiveBackend::<u32, u64>::try_with_fill_hint(100, 0.25, fill);
        assert_eq!(build(Some(10)).unwrap().choice(), Aos);
        assert_eq!(build(Some(5000)).unwrap().choice(), Soa);
        // Lifetime fill within capacity (125) stays append-only AoS.
        assert_eq!(build(Some(125)).unwrap().choice(), Aos);
        let unbounded = build(None).unwrap();
        assert_eq!(unbounded.choice(), Soa);
        assert_eq!(unbounded.backend_label(), "qmax-adaptive-soa");
    }

    #[test]
    fn fresh_preserves_choice() {
        let proto = AdaptiveBackend::<u32, u64>::try_with_fill_hint(100, 0.25, Some(10)).unwrap();
        let block = IntervalBackend::fresh(&proto);
        assert_eq!(block.choice(), proto.choice());
        assert_eq!(IntervalBackend::capacity(&block), proto.capacity());
    }

    #[test]
    fn both_arms_match_reference() {
        let items: Vec<(u32, u64)> = (0..5000u64)
            .map(|i| (i as u32, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 10_000))
            .collect();
        let mut expect: Vec<u64> = items.iter().map(|&(_, v)| v).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        expect.truncate(37);
        expect.sort_unstable();
        // A one-item lifetime fill reaches the AoS arm; no hint on a
        // `u64` lane reaches the SoA arm.
        for (fill, arm) in [(Some(1), Aos), (None, Soa)] {
            let mut qm = AdaptiveBackend::<u32, u64>::try_with_fill_hint(37, 0.6, fill).unwrap();
            assert_eq!(qm.choice(), arm);
            qm.insert_batch(&items);
            let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
            got.sort_unstable();
            assert_eq!(got, expect, "{arm:?}");
        }
    }

    #[test]
    fn global_constructor_works() {
        let mut qm = AdaptiveBackend::<u32, u64>::new(5, 0.5);
        for v in 0u64..1000 {
            qm.insert(v as u32, v);
        }
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![995, 996, 997, 998, 999]);
        assert_eq!(qm.backend_label(), "qmax-adaptive-soa");
    }

    #[test]
    #[should_panic(expected = "q must be positive")]
    fn zero_q_panics() {
        let _ = AdaptiveBackend::<u32, u64>::new(0, 0.5);
    }
}
