//! Exponential-decay q-MAX (Section 5 of the paper).

use crate::entry::OrderedF64;
use crate::error::QMaxError;
use crate::traits::{BatchInsert, QMax};

/// Log-domain offset `t·λ` beyond which the structure automatically
/// rebases (see [`ExpDecayQMax::rebase`]). At this offset an `f64`'s
/// 52-bit mantissa still resolves log-score differences of about
/// `2⁻¹² ≈ 2.4·10⁻⁴` — weight ratios of ~0.02% — which is far below any
/// meaningful decay distinction.
const REBASE_OFFSET_LIMIT: f64 = (1u64 << 40) as f64;

/// q-MAX under the exponential-decay aging model.
///
/// With aging parameter `c ∈ (0, 1]`, an item of value `v` that arrived
/// at time `i` has weight `v · c^(t−i)` at the current time `t`, so
/// newer items outweigh older ones of the same value. Instead of
/// re-aging stored items, the structure feeds the *un-decayed* value
/// `v · c^(−i)` — numerically, its logarithm `ln v − i·ln c` — into an
/// ordinary q-MAX backend: the relative order of un-decayed values at
/// any time `t` equals the order of decayed weights.
///
/// # Precision horizon
///
/// The stored score is `ln v + i·λ` with `λ = −ln c`, and the offset
/// `i·λ` grows without bound as the arrival counter `i` climbs. An
/// `f64` has a 52-bit mantissa, so once the offset reaches `2⁴⁰` the
/// representable spacing between scores is `≈ 2⁻¹²` in the log domain:
/// two items whose decayed weights differ by less than ~0.02% become
/// indistinguishable, and the error keeps doubling every doubling of
/// the offset. For strong decay (`c = 0.5`, `λ ≈ 0.69`) that horizon is
/// ~1.6·10¹² arrivals; for mild decay (`c = 0.999`) it is ~10¹⁵. To
/// keep the structure sound for arbitrarily long streams,
/// [`insert`](ExpDecayQMax::insert) *rebases* automatically when the
/// offset crosses `2⁴⁰`:
/// it subtracts the current offset from every retained score and
/// restarts the clock, which leaves all score *comparisons* — and hence
/// the top-`q` — unchanged.
///
/// The type is generic over its backend `Q` so the paper's comparisons
/// (Figure 7: heap / skip list / q-MAX) reuse the same transform, and
/// over the item id `I` the backend stores, so the batch path can keep
/// its transformed-batch buffer between calls.
///
/// ```
/// use qmax_core::{AmortizedQMax, ExpDecayQMax, QMax};
/// // Strong decay: each step halves old weights.
/// let mut ed = ExpDecayQMax::new(AmortizedQMax::new(2, 0.5), 0.5);
/// ed.insert(1u32, 100.0); // weight decays quickly
/// for i in 2..100u32 {
///     ed.insert(i, 1.0);
/// }
/// let ids: Vec<u32> = ed.query().into_iter().map(|(id, _)| id).collect();
/// // The early large item has decayed below the recent small ones.
/// assert!(!ids.contains(&1));
/// ```
#[derive(Debug, Clone)]
pub struct ExpDecayQMax<Q, I> {
    backend: Q,
    /// `−ln c ≥ 0`; added per time step to incoming log-values.
    lambda: f64,
    /// Arrival counter (the logical time `i`).
    time: u64,
    /// Non-positive / non-finite values skipped (not panicked on) by
    /// the trait-dispatched insert paths.
    skipped_invalid: u64,
    /// The transformed batch [`BatchInsert::insert_batch`] hands the
    /// backend; empty between calls, kept so batches allocate nothing
    /// steady-state.
    scratch: Vec<(I, OrderedF64)>,
}

impl<I, Q: QMax<I, OrderedF64>> ExpDecayQMax<Q, I> {
    /// Wraps `backend` with exponential decay of parameter `c` (the
    /// paper's aging parameter; `c = 1` disables decay).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not in `(0, 1]`. Use
    /// [`ExpDecayQMax::try_new`] at fallible API boundaries.
    pub fn new(backend: Q, c: f64) -> Self {
        Self::try_new(backend, c).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ExpDecayQMax::new`]: rejects `c` outside `(0, 1]`
    /// (including NaN) instead of panicking.
    pub fn try_new(backend: Q, c: f64) -> Result<Self, QMaxError> {
        if !(c > 0.0 && c <= 1.0) {
            return Err(QMaxError::BadDecay(c));
        }
        Ok(ExpDecayQMax {
            backend,
            lambda: -c.ln(),
            time: 0,
            skipped_invalid: 0,
            scratch: Vec::new(),
        })
    }

    /// Invalid (non-positive / non-finite) values skipped so far by the
    /// trait-dispatched [`QMax::insert`] and
    /// [`BatchInsert::insert_batch`] paths. The inherent
    /// [`ExpDecayQMax::insert`] still panics instead of counting.
    pub fn skipped_invalid(&self) -> u64 {
        self.skipped_invalid
    }

    /// The current logical time (number of arrivals so far).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Access to the wrapped backend.
    pub fn backend(&self) -> &Q {
        &self.backend
    }

    /// The current log-domain offset `t·λ` added to incoming scores.
    /// Grows linearly with the stream; see the type-level docs for the
    /// precision horizon it implies.
    pub fn log_offset(&self) -> f64 {
        self.time as f64 * self.lambda
    }

    /// Whether the log offset has crossed the safe precision bound and
    /// the next insert will trigger an automatic
    /// [`rebase`](ExpDecayQMax::rebase).
    pub fn needs_rebase(&self) -> bool {
        self.log_offset() > REBASE_OFFSET_LIMIT
    }

    /// The decayed weight of a stored transformed value at the current
    /// time: `exp(stored − t·λ)` where `stored = ln v + i·λ`.
    pub fn decayed_weight(&self, stored: OrderedF64) -> f64 {
        (stored.get() - self.time as f64 * self.lambda).exp()
    }

    /// Offers an item with (positive) value `val`; its effective weight
    /// from now on decays by a factor `c` per subsequent arrival.
    ///
    /// Returns `true` if the backend admitted the item.
    ///
    /// # Panics
    ///
    /// Panics if `val` is not a positive finite number. Use
    /// [`ExpDecayQMax::try_insert`] where the stream may carry
    /// corrupted values (a measurement path must not die on one bad
    /// parse).
    pub fn insert(&mut self, id: I, val: f64) -> bool {
        self.try_insert(id, val).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible insert: offers the item if `val` is a positive finite
    /// number, and returns [`QMaxError::BadValue`] otherwise — without
    /// touching the backend or advancing the decay clock (a rejected
    /// value is not an arrival).
    pub fn try_insert(&mut self, id: I, val: f64) -> Result<bool, QMaxError> {
        if !(val > 0.0 && val.is_finite()) {
            return Err(QMaxError::BadValue(val));
        }
        if self.needs_rebase() {
            self.rebase();
        }
        let transformed = val.ln() + self.time as f64 * self.lambda;
        debug_assert!(
            transformed.is_finite(),
            "log-domain score overflowed; rebase failed to bound the offset"
        );
        self.time += 1;
        Ok(self.backend.insert(id, OrderedF64(transformed)))
    }

    /// Subtracts the current log offset `t·λ` from every retained score
    /// and restarts the clock at zero. Score *comparisons* — and hence
    /// the top-`q` — are unchanged (all scores shift by the same
    /// constant), so this is safe to call at any point; `insert` calls
    /// it automatically past the precision horizon.
    ///
    /// The backend's admission threshold Ψ is dropped in the process
    /// (it would be stale after the shift), so the next few arrivals
    /// are admitted unfiltered until a compaction re-establishes it.
    pub fn rebase(&mut self) {
        let offset = self.log_offset();
        let kept = self.backend.query();
        self.backend.reset();
        for (id, score) in kept {
            self.backend.insert(id, OrderedF64(score.get() - offset));
        }
        self.time = 0;
    }

    /// Lists the `q` items with the largest decayed weights. The values
    /// returned are the internal transformed scores; convert with
    /// [`ExpDecayQMax::decayed_weight`] if absolute weights are needed.
    pub fn query(&mut self) -> Vec<(I, OrderedF64)> {
        self.backend.query()
    }

    /// Clears the structure and restarts time at zero.
    pub fn reset(&mut self) {
        self.backend.reset();
        self.time = 0;
        self.skipped_invalid = 0;
    }
}

/// [`QMax`] over pre-wrapped raw values: `insert(id, OrderedF64(v))`
/// applies the decay transform to `v` exactly like the inherent
/// [`ExpDecayQMax::insert`]. This lets decayed reservoirs slot into
/// generic harnesses (shard hosts, benchmarks) that drive any
/// `QMax<I, OrderedF64>`.
///
/// Unlike the inherent insert, the trait paths **skip and count**
/// non-positive / non-finite values (see
/// [`ExpDecayQMax::skipped_invalid`]) instead of panicking: a generic
/// serving stack feeding a decayed shard must shed a corrupted item,
/// not die on it. A skipped item is not an arrival — the decay clock
/// does not advance — so a stream with invalid items interleaved ages
/// exactly like the same stream with them removed.
impl<I, Q: QMax<I, OrderedF64>> QMax<I, OrderedF64> for ExpDecayQMax<Q, I> {
    fn insert(&mut self, id: I, val: OrderedF64) -> bool {
        // Inherent inserts take raw f64 and win method resolution at
        // call sites; this trait path unwraps and re-dispatches.
        match ExpDecayQMax::try_insert(self, id, val.get()) {
            Ok(admitted) => admitted,
            Err(_) => {
                self.skipped_invalid += 1;
                false
            }
        }
    }

    fn query(&mut self) -> Vec<(I, OrderedF64)> {
        self.backend.query()
    }

    fn reset(&mut self) {
        self.backend.reset();
        self.time = 0;
        self.skipped_invalid = 0;
    }

    fn q(&self) -> usize {
        self.backend.q()
    }

    fn len(&self) -> usize {
        self.backend.len()
    }

    /// Always `None`: the stored score of an arriving item depends on
    /// the arrival *time* (`ln v + i·λ`), so no fixed raw-value cutoff
    /// is valid for future items — an external Ψ-prefilter comparing
    /// raw values would wrongly drop recent items whose time boost
    /// lifts them above older retained scores.
    fn threshold(&self) -> Option<OrderedF64> {
        None
    }

    fn name(&self) -> &'static str {
        "exp-decay"
    }

    /// The wrapped reservoir's label, so its layout shows through the
    /// decay wrapper.
    fn backend_label(&self) -> &'static str {
        self.backend.backend_label()
    }
}

impl<I: Clone, Q: BatchInsert<I, OrderedF64>> BatchInsert<I, OrderedF64> for ExpDecayQMax<Q, I> {
    /// Stamps the whole batch with its per-item log-transformed scores
    /// in one pass, then hands the transformed chunk to the backend's
    /// batch kernel — on structure-of-arrays backends the branchless
    /// chunked Ψ-filter runs over the decayed scores.
    ///
    /// Non-positive / non-finite values are **skipped and counted**
    /// ([`ExpDecayQMax::skipped_invalid`]) rather than aborting the
    /// batch mid-way: the valid remainder is inserted exactly as if the
    /// invalid items had never been in the stream (they advance neither
    /// the decay clock nor the backend).
    fn insert_batch(&mut self, items: &[(I, OrderedF64)]) -> usize {
        if self.needs_rebase() {
            self.rebase();
        }
        for (id, val) in items {
            let v = val.get();
            if !(v > 0.0 && v.is_finite()) {
                self.skipped_invalid += 1;
                continue;
            }
            let score = v.ln() + self.time as f64 * self.lambda;
            debug_assert!(
                score.is_finite(),
                "log-domain score overflowed; rebase failed to bound the offset"
            );
            self.time += 1;
            self.scratch.push((id.clone(), OrderedF64(score)));
        }
        let admitted = self.backend.insert_batch(&self.scratch);
        self.scratch.clear();
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amortized::AmortizedQMax;
    use crate::deamortized::DeamortizedQMax;
    use crate::heap::HeapQMax;
    use crate::soa::SoaAmortizedQMax;

    /// Brute-force reference: decayed weight of item i at time t.
    fn reference_top(vals: &[f64], c: f64, q: usize) -> Vec<usize> {
        let t = vals.len() as f64;
        let mut scored: Vec<(f64, usize)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (v * c.powf(t - i as f64), i))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut ids: Vec<usize> = scored[..q].iter().map(|&(_, i)| i).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn matches_brute_force_decay() {
        let mut state = 3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 1000 + 1) as f64
        };
        for c in [0.75, 0.9, 0.99] {
            let vals: Vec<f64> = (0..500).map(|_| next()).collect();
            let q = 8;
            let mut ed = ExpDecayQMax::new(AmortizedQMax::new(q, 0.5), c);
            for (i, &v) in vals.iter().enumerate() {
                ed.insert(i, v);
            }
            let mut got: Vec<usize> = ed.query().into_iter().map(|(id, _)| id).collect();
            got.sort_unstable();
            assert_eq!(got, reference_top(&vals, c, q), "c={c}");
        }
    }

    #[test]
    fn no_decay_reduces_to_plain_qmax() {
        let mut ed = ExpDecayQMax::new(HeapQMax::new(3), 1.0);
        for (i, v) in [5.0, 1.0, 9.0, 3.0, 7.0].into_iter().enumerate() {
            ed.insert(i as u32, v);
        }
        let mut ids: Vec<u32> = ed.query().into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 2, 4]);
    }

    #[test]
    fn recency_beats_magnitude_under_strong_decay() {
        let mut ed = ExpDecayQMax::new(DeamortizedQMax::new(4, 0.5), 0.5);
        ed.insert(0u32, 1_000_000.0);
        for i in 1..200u32 {
            ed.insert(i, 2.0);
        }
        let ids: Vec<u32> = ed.query().into_iter().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 4);
        assert!(
            ids.iter().all(|&id| id >= 196),
            "stale item survived: {ids:?}"
        );
    }

    #[test]
    fn decayed_weight_roundtrip() {
        let mut ed = ExpDecayQMax::new(HeapQMax::new(1), 0.9);
        ed.insert(0u32, 8.0);
        ed.insert(1u32, 1.0);
        let (_, stored) = ed.query().pop().unwrap();
        // Item 0 has weight 8 * 0.9^2 at time 2.
        let w = ed.decayed_weight(stored);
        assert!((w - 8.0 * 0.81).abs() < 1e-9, "got {w}");
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_value_panics() {
        let mut ed = ExpDecayQMax::new(HeapQMax::new(1), 0.9);
        ed.insert(0u32, 0.0);
    }

    #[test]
    fn try_insert_rejects_without_advancing_the_clock() {
        let mut ed = ExpDecayQMax::new(HeapQMax::new(4), 0.9);
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                ed.try_insert(7u32, bad),
                Err(QMaxError::BadValue(_))
            ));
        }
        assert_eq!(ed.time(), 0, "rejected values must not age the stream");
        assert_eq!(ed.try_insert(1u32, 5.0), Ok(true));
        assert_eq!(ed.time(), 1);
    }

    #[test]
    fn batch_skips_and_counts_invalid_items() {
        // NaN / 0.0 / ∞ interleaved into a valid stream: the batch path
        // must shed them (counted) and land exactly the state of the
        // same stream with the invalid items removed.
        let raw: Vec<f64> = (0..500)
            .map(|i| match i % 7 {
                0 => f64::NAN,
                3 => 0.0,
                5 => f64::INFINITY,
                _ => (i % 97 + 1) as f64,
            })
            .collect();
        let valid: Vec<f64> = raw
            .iter()
            .copied()
            .filter(|v| v.is_finite() && *v > 0.0)
            .collect();
        let q = 16;
        let mut dirty = ExpDecayQMax::new(SoaAmortizedQMax::new(q, 0.5), 0.95);
        let mut clean = ExpDecayQMax::new(SoaAmortizedQMax::new(q, 0.5), 0.95);
        let dirty_items: Vec<(u32, OrderedF64)> = raw
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, OrderedF64(v)))
            .collect();
        for span in dirty_items.chunks(64) {
            dirty.insert_batch(span);
        }
        for (i, &v) in valid.iter().enumerate() {
            clean.insert(i as u32, v);
        }
        assert_eq!(
            dirty.skipped_invalid(),
            (raw.len() - valid.len()) as u64,
            "every invalid item must be counted"
        );
        assert_eq!(dirty.time(), clean.time(), "decay clocks diverged");
        let scores = |v: Vec<(u32, OrderedF64)>| {
            let mut v: Vec<OrderedF64> = v.into_iter().map(|(_, s)| s).collect();
            v.sort();
            v
        };
        assert_eq!(scores(dirty.query()), scores(clean.query()));
    }

    #[test]
    fn trait_insert_sheds_invalid_items_instead_of_panicking() {
        let mut ed = ExpDecayQMax::new(HeapQMax::new(2), 0.9);
        assert!(QMax::insert(&mut ed, 0u32, OrderedF64(4.0)));
        assert!(!QMax::insert(&mut ed, 1u32, OrderedF64(f64::NAN)));
        assert!(!QMax::insert(&mut ed, 2u32, OrderedF64(-1.0)));
        assert_eq!(ed.skipped_invalid(), 2);
        assert_eq!(ed.time(), 1);
        ed.reset();
        assert_eq!(ed.skipped_invalid(), 0);
    }

    #[test]
    fn try_new_rejects_bad_decay() {
        assert!(matches!(
            ExpDecayQMax::try_new(HeapQMax::<u32, OrderedF64>::new(1), 0.0),
            Err(QMaxError::BadDecay(_))
        ));
        assert!(matches!(
            ExpDecayQMax::try_new(HeapQMax::<u32, OrderedF64>::new(1), f64::NAN),
            Err(QMaxError::BadDecay(_))
        ));
        assert!(ExpDecayQMax::try_new(HeapQMax::<u32, OrderedF64>::new(1), 1.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "decay parameter")]
    fn bad_decay_panics() {
        let _ = ExpDecayQMax::new(HeapQMax::<u32, OrderedF64>::new(1), 1.5);
    }

    #[test]
    fn backend_accessor_and_time_counter() {
        let mut ed = ExpDecayQMax::new(HeapQMax::new(4), 0.9);
        assert_eq!(ed.time(), 0);
        for i in 0..10u32 {
            ed.insert(i, 2.0);
        }
        assert_eq!(ed.time(), 10);
        assert_eq!(ed.backend().len(), 4);
    }

    #[test]
    fn ties_resolve_to_most_recent_under_decay() {
        // Equal raw values: decay must prefer the newest items.
        let mut ed = ExpDecayQMax::new(HeapQMax::new(3), 0.5);
        for i in 0..100u32 {
            ed.insert(i, 7.0);
        }
        let mut ids: Vec<u32> = ed.query().into_iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![97, 98, 99]);
    }

    #[test]
    fn reset_restarts_time() {
        let mut ed = ExpDecayQMax::new(HeapQMax::new(2), 0.8);
        for i in 0..50u32 {
            ed.insert(i, 1.0);
        }
        ed.reset();
        assert_eq!(ed.time(), 0);
        ed.insert(0u32, 3.0);
        assert_eq!(ed.query().len(), 1);
    }

    #[test]
    fn rebase_preserves_ranking_and_weights() {
        let mut ed = ExpDecayQMax::new(HeapQMax::new(3), 0.5);
        for i in 0..40u32 {
            ed.insert(i, f64::from(i % 7) + 1.0);
        }
        let before: Vec<(u32, f64)> = {
            let mut v: Vec<(u32, f64)> = ed
                .query()
                .into_iter()
                .map(|(id, s)| (id, ed.decayed_weight(s)))
                .collect();
            v.sort_by_key(|a| a.0);
            v
        };
        assert!(ed.log_offset() > 0.0);
        ed.rebase();
        assert_eq!(ed.time(), 0);
        assert_eq!(ed.log_offset(), 0.0);
        let after: Vec<(u32, f64)> = {
            let mut v: Vec<(u32, f64)> = ed
                .query()
                .into_iter()
                .map(|(id, s)| (id, ed.decayed_weight(s)))
                .collect();
            v.sort_by_key(|a| a.0);
            v
        };
        assert_eq!(before.len(), after.len());
        for ((id_b, w_b), (id_a, w_a)) in before.iter().zip(&after) {
            assert_eq!(id_b, id_a);
            assert!((w_b - w_a).abs() < 1e-9 * w_b.max(1.0), "{w_b} vs {w_a}");
        }
        // The structure keeps working after a rebase: recency still wins.
        for i in 100..140u32 {
            ed.insert(i, 1.0);
        }
        let ids: Vec<u32> = ed.query().into_iter().map(|(id, _)| id).collect();
        assert!(
            ids.iter().all(|&id| id >= 137),
            "stale after rebase: {ids:?}"
        );
    }

    #[test]
    fn batch_insert_matches_singletons_on_soa_backend() {
        let mut state = 21u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 1000 + 1) as f64
        };
        let vals: Vec<f64> = (0..2000).map(|_| next()).collect();
        let q = 16;
        let mut one = ExpDecayQMax::new(AmortizedQMax::new(q, 0.5), 0.9);
        let mut batch = ExpDecayQMax::new(SoaAmortizedQMax::new(q, 0.5), 0.9);
        for (i, &v) in vals.iter().enumerate() {
            one.insert(i as u32, v);
        }
        let items: Vec<(u32, OrderedF64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, OrderedF64(v)))
            .collect();
        for span in items.chunks(128) {
            batch.insert_batch(span);
        }
        let scores = |v: Vec<(u32, OrderedF64)>| {
            let mut v: Vec<OrderedF64> = v.into_iter().map(|(_, s)| s).collect();
            v.sort();
            v
        };
        assert_eq!(scores(one.query()), scores(batch.query()));
    }
}
