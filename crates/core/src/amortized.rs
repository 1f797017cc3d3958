//! Amortized-constant-time q-MAX (Algorithm 1 with lazy compaction),
//! written once for every buffer layout.
//!
//! [`Amortized`] owns the whole algorithm: the geometry, the Ψ filter,
//! the chunked batch loop, the lazy storage growth, the sampled-pivot
//! choice, queries and checkpointing. A [`Slots`] layout stores the
//! slots, admits a batch and carries out a compaction. Two layouts ship:
//! [`AmortizedQMax`] (`Vec<Entry<I, V>>`, compacting in place) and
//! [`SoaAmortizedQMax`](crate::SoaAmortizedQMax)
//! ([`qmax_select::PairedLanes`], with the vectorized admit and
//! partition kernels).

use crate::checkpoint::{BackendSnapshot, Checkpoint};
use crate::entry::Entry;
use crate::slots::Slots;
use crate::traits::{BatchInsert, IntervalBackend, QMax};
use core::marker::PhantomData;
use qmax_select::kernels::{sample_rank, PIVOT_SEED, SAMPLED_COMPACT_MIN};

/// Buffer size `⌈q(1+γ)⌉`, at least `q + 1`, of the amortized q-MAX and
/// of every structure sized like it.
pub(crate) fn amortized_capacity(q: usize, gamma: f64) -> usize {
    (((q as f64) * (1.0 + gamma)).ceil() as usize).max(q + 1)
}

/// q-MAX with **amortized** `O(1)` update time and `⌈q(1+γ)⌉` space,
/// over the slot layout `S`.
///
/// Arrivals whose value is at most the admission threshold Ψ are dropped
/// outright; the rest are appended to a buffer of `⌈q(1+γ)⌉` slots. When
/// the buffer fills, a linear-time selection finds the q-th largest
/// value, which becomes the new Ψ, and everything below it is discarded.
/// Each `O(q)` compaction pays for the `⌈qγ⌉` appends since the last
/// one, so updates cost `O(1 + 1/γ)` amortized. Buffers of at least
/// [`SAMPLED_COMPACT_MIN`] slots seed the selection with a pivot drawn
/// from a deterministic `O(√n)` sample; Ψ and the survivors are exact
/// either way.
///
/// The slot storage is allocated lazily: it grows geometrically to the
/// high-water mark of the arrivals, capped at the capacity, so
/// construction allocates nothing and a block that never fills never
/// pays for its full capacity.
#[derive(Debug, Clone)]
pub struct Amortized<I, V, S: Slots<I, V>> {
    q: usize,
    cap: usize,
    pub(crate) slots: S,
    /// Live prefix of the slots; the slots beyond it are growth room or
    /// residue of rejected and discarded items.
    len: usize,
    threshold: Option<V>,
    compactions: u64,
    filtered: u64,
    /// Compactions whose sampled pivot landed outside the tolerance
    /// band ([`qmax_select::kernels::pivot_band`]); the result is exact
    /// either way, the counter tracks sample quality.
    pivot_fallbacks: u64,
    /// Reusable pivot sample.
    sample: Vec<S::Key>,
    /// The layout's compaction scratch, kept between compactions.
    scratch: S::Scratch,
    _ids: PhantomData<fn() -> I>,
}

/// q-MAX with amortized `O(1)` updates over a buffer of [`Entry`]
/// structs: [`Amortized`] with the array-of-structs layout.
///
/// This is the variant the paper benchmarks (its evaluation section);
/// see [`crate::DeamortizedQMax`] for the worst-case-constant variant.
///
/// ```
/// use qmax_core::{AmortizedQMax, QMax};
/// let mut qm = AmortizedQMax::new(2, 0.5);
/// for v in 0u64..100 {
///     qm.insert(v as u32, v);
/// }
/// let mut top: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
/// top.sort();
/// assert_eq!(top, vec![98, 99]);
/// ```
pub type AmortizedQMax<I, V> = Amortized<I, V, Vec<Entry<I, V>>>;

impl<I: Clone, V: Ord + Clone, S: Slots<I, V>> Amortized<I, V, S> {
    /// Creates a q-MAX for the `q` largest items with space-slack
    /// parameter `gamma` (the paper's γ): `⌈q(1+γ)⌉` slots (at least
    /// `q + 1`), allocated as arrivals need them.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `gamma` is not a positive finite number.
    /// Use [`Amortized::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64) -> Self {
        Self::try_new(q, gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Amortized::new`]: rejects `q == 0` and non-positive /
    /// non-finite `gamma` (or one whose geometry overflows) instead of
    /// panicking.
    pub fn try_new(q: usize, gamma: f64) -> Result<Self, crate::QMaxError> {
        crate::error::check_q_gamma::<Entry<I, V>>(q, gamma)?;
        let cap = amortized_capacity(q, gamma);
        Ok(Self::with_slots(q, cap, S::with_capacity(0)))
    }

    fn with_slots(q: usize, cap: usize, slots: S) -> Self {
        Amortized {
            q,
            cap,
            slots,
            len: 0,
            threshold: None,
            compactions: 0,
            filtered: 0,
            pivot_fallbacks: 0,
            sample: Vec::new(),
            scratch: S::Scratch::default(),
            _ids: PhantomData,
        }
    }

    /// Total buffer capacity `⌈q(1+γ)⌉`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of compactions (threshold recomputations) performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Number of arrivals dropped by the admission filter.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// Compactions whose sampled pivot landed outside the tolerance
    /// band and degraded to a large exact-select residue. Always zero
    /// for buffers below `SAMPLED_COMPACT_MIN` slots.
    pub fn pivot_fallbacks(&self) -> u64 {
        self.pivot_fallbacks
    }

    /// Makes at least `need` slots writable. Storage grows geometrically
    /// but never past `max(need, cap)`: a block in a many-block window
    /// that sees far fewer than `cap` items per epoch pays only for the
    /// slots it fills.
    #[inline]
    fn reserve(&mut self, need: usize, id: &I, val: &V) {
        let have = self.slots.filled();
        if have < need {
            self.slots
                .resize(need.max((have * 2).min(self.cap)), id, val);
        }
    }

    /// Keeps the `q` largest candidates, raises Ψ to the q-th largest,
    /// and counts the compaction. Large buffers pass the layout a pivot
    /// estimated from a sample seeded by the compaction counter, so
    /// replays are exact.
    fn compact(&mut self) {
        debug_assert!(self.len > self.q);
        let n = self.len;
        let pivot = (n >= SAMPLED_COMPACT_MIN).then(|| {
            let seed = PIVOT_SEED ^ self.compactions;
            sample_rank(self.slots.view(), n, n - self.q, seed, &mut self.sample)
        });
        let (psi, fallback) = self
            .slots
            .keep_top(n, self.q, pivot.as_ref(), &mut self.scratch);
        self.len = self.q;
        self.pivot_fallbacks += u64::from(fallback);
        if self.threshold.as_ref().is_none_or(|t| psi > *t) {
            self.threshold = Some(psi);
        }
        self.compactions += 1;
    }
}

impl<I: Clone, V: Ord + Clone, S: Slots<I, V>> QMax<I, V> for Amortized<I, V, S> {
    #[inline]
    fn insert(&mut self, id: I, val: V) -> bool {
        if self.threshold.as_ref().is_some_and(|t| val <= *t) {
            self.filtered += 1;
            return false;
        }
        self.reserve(self.len + 1, &id, &val);
        self.slots.store(self.len, id, val);
        self.len += 1;
        if self.len == self.cap {
            self.compact();
        }
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        if self.len > self.q {
            self.compact();
        }
        (0..self.len)
            .map(|i| {
                let e = self.slots.entry(i);
                (e.id, e.val)
            })
            .collect()
    }

    fn reset(&mut self) {
        // Keep the storage; only the live prefix matters.
        self.len = 0;
        self.threshold = None;
    }

    fn q(&self) -> usize {
        self.q
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn threshold(&self) -> Option<V> {
        self.threshold.clone()
    }

    fn name(&self) -> &'static str {
        S::AMORTIZED_NAME
    }
}

impl<I: Clone, V: Ord + Clone, S: Slots<I, V>> BatchInsert<I, V> for Amortized<I, V, S> {
    /// Chunked hoisted-Ψ admit loop: the batch is processed in chunks
    /// sized to the remaining buffer room, each streamed through the
    /// layout's batch admit (the vectorized kernel for
    /// [`qmax_select::PairedLanes`]). Ψ can only change at a compaction,
    /// and compactions coincide with chunk boundaries, so reading Ψ once
    /// per chunk is exact: admissions, filtered counts and the Ψ
    /// trajectory are those of the singleton loop.
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let Some((id0, val0)) = items.first() else {
            return 0;
        };
        let mut admitted = 0usize;
        let mut i = 0;
        while i < items.len() {
            let take = (self.cap - self.len).min(items.len() - i);
            // Storage grows only to the chunk's high-water mark.
            let end = self.len + take;
            self.reserve(end, id0, val0);
            let w = self
                .slots
                .admit(&items[i..i + take], self.threshold.as_ref(), self.len, end);
            let kept = w - self.len;
            admitted += kept;
            self.filtered += (take - kept) as u64;
            self.len = w;
            i += take;
            if self.len == self.cap {
                self.compact();
            }
        }
        admitted
    }
}

impl<I: Clone, V: Ord + Clone, S: Slots<I, V>> Checkpoint<I, V> for Amortized<I, V, S> {
    /// A straight copy of the live candidates plus Ψ and counters; the
    /// scratch and the sample are execution machinery, not state.
    fn snapshot(&self) -> BackendSnapshot<I, V> {
        let mut entries = Vec::with_capacity(self.len);
        self.candidates_into(&mut entries);
        BackendSnapshot {
            entries,
            threshold: self.threshold.clone(),
            compactions: self.compactions,
            filtered: self.filtered,
            pivot_fallbacks: self.pivot_fallbacks,
        }
    }

    /// Overwrites the candidates, in order, Ψ and the counters, so the
    /// restored copy behaves step for step like the original. Snapshots
    /// hold fewer than `cap` candidates; a larger set is compacted.
    fn restore(&mut self, snap: &BackendSnapshot<I, V>) {
        if let Some(e) = snap.entries.first() {
            self.reserve(snap.entries.len(), &e.id, &e.val);
        }
        for (i, e) in snap.entries.iter().enumerate() {
            self.slots.store(i, e.id.clone(), e.val.clone());
        }
        self.len = snap.entries.len();
        self.threshold = snap.threshold.clone();
        self.compactions = snap.compactions;
        self.filtered = snap.filtered;
        self.pivot_fallbacks = snap.pivot_fallbacks;
        if self.len >= self.cap {
            self.compact();
        }
    }
}

impl<I: Clone, V: Ord + Clone, S: Slots<I, V>> IntervalBackend<I, V> for Amortized<I, V, S> {
    /// An empty block with this one's geometry and layout settings and
    /// no storage yet.
    fn fresh(&self) -> Self {
        Self::with_slots(self.q, self.cap, self.slots.empty_like(0))
    }

    fn capacity(&self) -> usize {
        self.cap
    }

    fn candidates_into(&self, out: &mut Vec<Entry<I, V>>) {
        out.extend((0..self.len).map(|i| self.slots.entry(i)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn top_q_reference(vals: &[u64], q: usize) -> Vec<u64> {
        let mut s = vals.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s.truncate(q);
        s.sort_unstable();
        s
    }

    #[test]
    fn matches_reference_on_random_stream() {
        let mut state = 1u64;
        for q in [1usize, 2, 10, 100] {
            for gamma in [0.05, 0.25, 1.0, 2.0] {
                let vals: Vec<u64> = (0..5000).map(|_| splitmix(&mut state) % 10_000).collect();
                let mut qm = AmortizedQMax::new(q, gamma);
                for (i, &v) in vals.iter().enumerate() {
                    qm.insert(i as u32, v);
                }
                let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
                got.sort_unstable();
                assert_eq!(got, top_q_reference(&vals, q), "q={q} gamma={gamma}");
            }
        }
    }

    #[test]
    fn short_stream_returns_everything() {
        let mut qm = AmortizedQMax::new(10, 0.5);
        qm.insert(1u32, 5u64);
        qm.insert(2, 3);
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![3, 5]);
        assert_eq!(qm.len(), 2);
    }

    #[test]
    fn threshold_filters_small_items() {
        let mut qm = AmortizedQMax::new(4, 0.5);
        for v in 0u64..1000 {
            qm.insert(v as u32, v);
        }
        assert!(qm.threshold().is_some());
        let t = qm.threshold().unwrap();
        assert!(t >= 4, "threshold should have risen well above the start");
        assert!(!qm.insert(9999, 0), "tiny value must be filtered");
        assert!(qm.insert(10000, 1_000_000), "huge value must be admitted");
        assert!(qm.filtered() > 0);
    }

    #[test]
    fn threshold_is_monotone() {
        let mut state = 7u64;
        let mut qm = AmortizedQMax::new(8, 0.25);
        let mut last: Option<u64> = None;
        for i in 0..20_000u64 {
            qm.insert(i as u32, splitmix(&mut state) % 1_000_000);
            if let Some(t) = qm.threshold() {
                if let Some(l) = last {
                    assert!(t >= l, "threshold decreased: {l} -> {t}");
                }
                last = Some(t);
            }
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut qm = AmortizedQMax::new(2, 1.0);
        for v in 0u64..100 {
            qm.insert(v as u32, v);
        }
        qm.reset();
        assert!(qm.is_empty());
        assert_eq!(qm.threshold(), None);
        qm.insert(0u32, 1u64);
        assert_eq!(qm.query().len(), 1);
    }

    #[test]
    fn duplicate_values_are_kept_up_to_q() {
        let mut qm = AmortizedQMax::new(3, 0.5);
        for i in 0..50u32 {
            qm.insert(i, 7u64);
        }
        let got = qm.query();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|(_, v)| *v == 7));
    }

    #[test]
    fn descending_stream_filters_aggressively() {
        let mut qm = AmortizedQMax::new(5, 0.2);
        let mut admitted = 0u64;
        for v in (0u64..100_000).rev() {
            if qm.insert(v as u32, v) {
                admitted += 1;
            }
        }
        // After the first compaction, nothing else can be admitted.
        assert!(admitted <= qm.capacity() as u64 + 1);
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![99_995, 99_996, 99_997, 99_998, 99_999]);
    }

    #[test]
    fn sampled_compaction_matches_reference() {
        // Buffers at and above SAMPLED_COMPACT_MIN take the sampled
        // pivot; the compaction result (Ψ and survivors) is exact.
        let mut state = 41u64;
        let q = 1600usize;
        let vals: Vec<u64> = (0..40_000).map(|_| splitmix(&mut state)).collect();
        let mut qm = AmortizedQMax::new(q, 1.0);
        for (i, &v) in vals.iter().enumerate() {
            qm.insert(i as u32, v);
        }
        assert!(qm.compactions() > 0);
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, top_q_reference(&vals, q));
    }

    #[test]
    fn adversarial_sample_forces_fallback_but_stays_exact() {
        // Every sampled position of the first compaction holds the
        // minimum, so the pivot lands far below the true cut and the
        // exact-select residue exceeds the tolerance band.
        let q = 64usize;
        let mut qm = AmortizedQMax::<u32, u64>::new(q, 31.0);
        let cap = qm.capacity();
        assert_eq!(cap, 2048);
        let mut pos = Vec::new();
        qmax_select::kernels::sample_positions(cap, qmax_select::kernels::PIVOT_SEED, &mut pos);
        let vals: Vec<u64> = (0..cap)
            .map(|i| if pos.contains(&i) { 1 } else { 1000 + i as u64 })
            .collect();
        for (i, &v) in vals.iter().enumerate() {
            qm.insert(i as u32, v);
        }
        assert_eq!(qm.compactions(), 1);
        assert_eq!(qm.pivot_fallbacks(), 1, "bad pivot must be counted");
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, top_q_reference(&vals, q));
    }

    #[test]
    #[should_panic(expected = "q must be positive")]
    fn zero_q_panics() {
        let _ = AmortizedQMax::<u32, u64>::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn bad_gamma_panics() {
        let _ = AmortizedQMax::<u32, u64>::new(5, 0.0);
    }
}
