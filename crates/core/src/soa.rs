//! Structure-of-arrays slot layout for `Copy` primitive ids/values.
//!
//! [`PairedLanes`] keeps `vals: Vec<V>` and `ids: Vec<I>` in two parallel
//! lanes, so the admission filter and the selection, which read only
//! values, stream over dense value lanes instead of dragging every id
//! through the cache (DESIGN.md §4.1). Batch admission is the branchless
//! chunked Ψ-filter [`Kernel::admit_pairs`]: an unconditional store and a
//! compare-derived cursor bump, with no data-dependent branch. The
//! amortized compaction partitions out of place into scratch lanes and
//! finishes with [`qmax_select::nth_smallest_in`]; the de-amortized
//! selection machine runs over the paired lanes with the kernel's run
//! assist.
//!
//! [`SoaAmortizedQMax`] and [`SoaDeamortizedQMax`] are [`Amortized`] and
//! [`Deamortized`] over paired lanes, so their admissions and Ψ
//! trajectories are those of the array-of-structs aliases by
//! construction. For non-`Copy` ids (boxed flow keys, strings) the AoS
//! layout remains the right choice: moving an entry is a pointer move
//! there, and mirroring the permutation into an id lane buys nothing.

use crate::amortized::Amortized;
use crate::deamortized::Deamortized;
use crate::entry::Entry;
use crate::slots::Slots;
use qmax_select::kernels::pivot_band;
use qmax_select::{nth_smallest_in, Kernel, PairedLanes};

/// Structure-of-arrays [`AmortizedQMax`](crate::AmortizedQMax): q-MAX
/// with amortized `O(1)` updates, `⌈q(1+γ)⌉` space, and a branchless
/// batch admission path — [`Amortized`] over [`PairedLanes`]. Its
/// compactions take the kernel's min/max early exit and its out-of-place
/// partition.
///
/// ```
/// use qmax_core::{BatchInsert, QMax, SoaAmortizedQMax};
/// let mut qm = SoaAmortizedQMax::new(2, 0.5);
/// let items: Vec<(u32, u64)> = (0u64..100).map(|v| (v as u32, v)).collect();
/// qm.insert_batch(&items);
/// let mut top: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
/// top.sort();
/// assert_eq!(top, vec![98, 99]);
/// ```
pub type SoaAmortizedQMax<I, V> = Amortized<I, V, PairedLanes<V, I>>;

/// Structure-of-arrays [`DeamortizedQMax`](crate::DeamortizedQMax):
/// q-MAX with **worst-case** `O(γ⁻¹)` updates over parallel `vals`/`ids`
/// lanes — [`Deamortized`] over [`PairedLanes`], so the geometry, the
/// machine schedule and the statistics are the AoS variant's by
/// construction. Its batch admit is the vectorized Ψ-filter
/// ([`Kernel::admit_pairs`]) and its machine's partition runs use the
/// value-lane run assist; both use the backend's own kernel handle.
///
/// ```
/// use qmax_core::{BatchInsert, QMax, SoaDeamortizedQMax};
/// let mut qm = SoaDeamortizedQMax::new(4, 0.5);
/// let items: Vec<(u32, u64)> = (0u64..1000).map(|v| (v as u32, v)).collect();
/// for chunk in items.chunks(64) {
///     qm.insert_batch(chunk);
/// }
/// let mut top: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
/// top.sort();
/// assert_eq!(top, vec![996, 997, 998, 999]);
/// ```
pub type SoaDeamortizedQMax<I, V> = Deamortized<I, V, PairedLanes<V, I>>;

impl<I: Copy + 'static, V: Ord + Copy + 'static> Slots<I, V> for PairedLanes<V, I> {
    type Key = V;

    type View = Self;

    /// Output lanes of the sampled-pivot partition, swapped with the
    /// primary lanes after each pass. Materialized at the first sampled
    /// compaction: a block that never takes one never allocates them.
    type Scratch = (Vec<V>, Vec<I>);

    const AMORTIZED_NAME: &'static str = "qmax-soa-amortized";

    const DEAMORTIZED_NAME: &'static str = "qmax-soa-deamortized";

    #[inline]
    fn view(&mut self) -> &mut Self {
        self
    }

    fn with_capacity(n: usize) -> Self {
        PairedLanes::new(Vec::with_capacity(n), Vec::with_capacity(n))
    }

    fn empty_like(&self, n: usize) -> Self {
        PairedLanes {
            vals: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            kernel: self.kernel,
        }
    }

    #[inline]
    fn filled(&self) -> usize {
        self.vals.len()
    }

    fn clear(&mut self) {
        self.vals.clear();
        self.ids.clear();
    }

    #[inline]
    fn store(&mut self, i: usize, id: I, val: V) {
        if i == self.vals.len() {
            self.vals.push(val);
            self.ids.push(id);
        } else {
            self.vals[i] = val;
            self.ids[i] = id;
        }
    }

    fn entry(&self, i: usize) -> Entry<I, V> {
        Entry::new(self.ids[i], self.vals[i])
    }

    #[inline]
    fn admit(&mut self, items: &[(I, V)], threshold: Option<&V>, w: usize, end: usize) -> usize {
        let kernel = self.kernel;
        kernel.admit_pairs(
            items,
            threshold.copied(),
            &mut self.vals,
            &mut self.ids,
            w,
            end,
        )
    }

    fn resize(&mut self, n: usize, id: &I, val: &V) {
        self.vals.reserve_exact(n - self.vals.len());
        self.ids.reserve_exact(n - self.ids.len());
        self.vals.resize(n, *val);
        self.ids.resize(n, *id);
    }

    /// Without a pivot: `nth_smallest_in` over the live prefix. With
    /// one: all-equal lanes exit after the kernel's min/max sweep;
    /// otherwise one stable vectorized pass partitions the lanes into
    /// the scratch lanes in descending region order, so the survivors
    /// end up a *prefix*, and only the region the cut fell in is
    /// exact-selected.
    fn keep_top(
        &mut self,
        len: usize,
        q: usize,
        pivot: Option<&V>,
        (scratch_vals, scratch_ids): &mut (Vec<V>, Vec<I>),
    ) -> (V, bool) {
        let Some(&pivot) = pivot else {
            return (top_to_front(self, 0, len, q), false);
        };
        let (mn, mx) = self
            .kernel
            .min_max(&self.vals[..len])
            .expect("compacting a non-empty buffer");
        if mn == mx {
            // All values equal: any q survive and Ψ is that value.
            return (mn, false);
        }
        // As long as the primary lanes, so the swap below never shrinks
        // the storage.
        let room = self.vals.len();
        if scratch_vals.len() < room {
            scratch_vals.resize(room, mn);
            scratch_ids.resize(room, self.ids[0]);
        }
        let (ngt, eq_end) = self.kernel.partition3_desc(
            &self.vals[..len],
            &self.ids[..len],
            pivot,
            &mut scratch_vals[..len],
            &mut scratch_ids[..len],
        );
        core::mem::swap(&mut self.vals, scratch_vals);
        core::mem::swap(&mut self.ids, scratch_ids);
        let band = pivot_band(len);
        if ngt >= q {
            // Pivot landed low: the survivors are the q largest of the
            // `>` region.
            (top_to_front(self, 0, ngt, q), ngt - q > band)
        } else if eq_end >= q {
            // In band: the q-th largest is the pivot itself and the
            // survivors are already the prefix.
            (pivot, false)
        } else {
            // Pivot landed high: keep the `>`/`==` prefix and top it up
            // with the largest of the `<` region.
            let k = q - eq_end;
            (top_to_front(self, eq_end, len, k), k > band)
        }
    }
}

/// Moves the `k` largest pairs of `[lo, hi)` to `[lo, lo + k)` and
/// returns the k-th largest value.
fn top_to_front<V: Ord + Copy + 'static, I: Copy>(
    lanes: &mut PairedLanes<V, I>,
    lo: usize,
    hi: usize,
    k: usize,
) -> V {
    let cut = hi - k;
    nth_smallest_in(lanes, lo, hi, cut - lo);
    lanes.vals.copy_within(cut..hi, lo);
    lanes.ids.copy_within(cut..hi, lo);
    lanes.vals[lo]
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> SoaAmortizedQMax<I, V> {
    /// Overrides the SIMD dispatch handle (benchmarks pin the scalar
    /// path with `Kernel::scalar()` to measure the vectorization gain).
    pub fn set_kernel(&mut self, kernel: Kernel<V>) {
        self.slots.kernel = kernel;
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> SoaDeamortizedQMax<I, V> {
    /// Overrides the SIMD dispatch handle (benchmarks pin the scalar
    /// path with `Kernel::scalar()` to measure the vectorization gain).
    pub fn set_kernel(&mut self, kernel: Kernel<V>) {
        self.slots.kernel = kernel;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AmortizedQMax, BatchInsert, DeamortizedQMax, QMax};

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

    fn sorted_vals(pairs: Vec<(u32, u64)>) -> Vec<u64> {
        let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn soa_amortized_matches_reference() {
        let mut state = 1u64;
        for q in [1usize, 2, 10, 100] {
            for gamma in [0.05, 0.25, 1.0, 2.0] {
                let vals: Vec<u64> = (0..5000).map(|_| splitmix(&mut state) % 10_000).collect();
                let mut qm = SoaAmortizedQMax::new(q, gamma);
                for (i, &v) in vals.iter().enumerate() {
                    qm.insert(i as u32, v);
                }
                assert_eq!(
                    sorted_vals(qm.query()),
                    top_q_reference(&vals, q),
                    "q={q} gamma={gamma}"
                );
            }
        }
    }

    #[test]
    fn soa_deamortized_matches_reference() {
        let mut state = 11u64;
        for q in [1usize, 2, 7, 64, 500] {
            for gamma in [0.05, 0.25, 1.0, 2.0] {
                let vals: Vec<u64> = (0..8000).map(|_| splitmix(&mut state) % 100_000).collect();
                let mut qm = SoaDeamortizedQMax::new(q, gamma);
                for (i, &v) in vals.iter().enumerate() {
                    qm.insert(i as u32, v);
                }
                assert_eq!(
                    sorted_vals(qm.query()),
                    top_q_reference(&vals, q),
                    "q={q} gamma={gamma}"
                );
            }
        }
    }

    #[test]
    fn batch_equals_singletons_amortized() {
        let mut state = 3u64;
        for chunk_size in [1usize, 7, 64, 1024] {
            let items: Vec<(u32, u64)> = (0..6000)
                .map(|i| (i as u32, splitmix(&mut state) % 5_000))
                .collect();
            let mut by_one = SoaAmortizedQMax::new(37, 0.6);
            let mut by_batch = SoaAmortizedQMax::new(37, 0.6);
            let mut one_admitted = 0usize;
            for &(id, v) in &items {
                one_admitted += usize::from(by_one.insert(id, v));
            }
            let mut batch_admitted = 0usize;
            for chunk in items.chunks(chunk_size) {
                batch_admitted += by_batch.insert_batch(chunk);
            }
            assert_eq!(one_admitted, batch_admitted, "chunk={chunk_size}");
            assert_eq!(by_one.threshold(), by_batch.threshold());
            assert_eq!(by_one.filtered(), by_batch.filtered());
            assert_eq!(sorted_vals(by_one.query()), sorted_vals(by_batch.query()));
        }
    }

    #[test]
    fn batch_equals_singletons_deamortized() {
        let mut state = 5u64;
        for chunk_size in [1usize, 13, 256, 2048] {
            let items: Vec<(u32, u64)> = (0..9000)
                .map(|i| (i as u32, splitmix(&mut state) % 20_000))
                .collect();
            let mut by_one = SoaDeamortizedQMax::new(61, 0.5);
            let mut by_batch = SoaDeamortizedQMax::new(61, 0.5);
            let mut one_admitted = 0usize;
            for &(id, v) in &items {
                one_admitted += usize::from(by_one.insert(id, v));
            }
            let mut batch_admitted = 0usize;
            for chunk in items.chunks(chunk_size) {
                batch_admitted += by_batch.insert_batch(chunk);
            }
            assert_eq!(one_admitted, batch_admitted, "chunk={chunk_size}");
            assert_eq!(by_one.threshold(), by_batch.threshold());
            assert_eq!(by_one.stats().filtered, by_batch.stats().filtered);
            assert_eq!(by_one.stats().admitted, by_batch.stats().admitted);
            assert_eq!(sorted_vals(by_one.query()), sorted_vals(by_batch.query()));
        }
    }

    #[test]
    fn soa_matches_aos_threshold_trajectory() {
        let mut state = 21u64;
        let items: Vec<(u32, u64)> = (0..20_000)
            .map(|i| (i as u32, splitmix(&mut state) % 1_000_000))
            .collect();
        let mut aos = AmortizedQMax::new(64, 0.5);
        let mut soa = SoaAmortizedQMax::new(64, 0.5);
        for &(id, v) in &items {
            let a = aos.insert(id, v);
            let s = soa.insert(id, v);
            assert_eq!(a, s, "admission diverged at id={id}");
            assert_eq!(aos.threshold(), soa.threshold());
        }
        let mut aos_d = DeamortizedQMax::new(64, 0.5);
        let mut soa_d = SoaDeamortizedQMax::new(64, 0.5);
        for &(id, v) in &items {
            let a = aos_d.insert(id, v);
            let s = soa_d.insert(id, v);
            assert_eq!(a, s, "admission diverged at id={id}");
            assert_eq!(aos_d.threshold(), soa_d.threshold());
        }
        assert_eq!(aos_d.stats(), soa_d.stats());
    }

    #[test]
    fn soa_deamortized_work_bound_holds() {
        let mut state = 5u64;
        for gamma in [0.05, 0.5] {
            let mut qm = SoaDeamortizedQMax::new(100, gamma);
            let items: Vec<(u32, u64)> = (0..200_000u64)
                .map(|i| (i as u32, splitmix(&mut state)))
                .collect();
            for chunk in items.chunks(1024) {
                qm.insert_batch(chunk);
            }
            assert_eq!(qm.stats().forced_completions, 0, "gamma={gamma}");
            assert!(
                qm.stats().max_step_ops <= qm.step_budget() as u64 + 32,
                "max step ops {} exceeds budget {}",
                qm.stats().max_step_ops,
                qm.step_budget()
            );
            assert!(qm.stats().iterations > 0);
        }
    }

    #[test]
    fn query_mid_iteration_is_correct() {
        let mut state = 23u64;
        let vals: Vec<u64> = (0..3000).map(|_| splitmix(&mut state) % 10_000).collect();
        let q = 16;
        let mut qm = SoaDeamortizedQMax::new(q, 0.5);
        for (i, &v) in vals.iter().enumerate() {
            qm.insert(i as u32, v);
            if i % 97 == 0 {
                assert_eq!(
                    sorted_vals(qm.query()),
                    top_q_reference(&vals[..=i], q),
                    "at i={i}"
                );
            }
        }
    }

    #[test]
    fn reset_preserves_correctness() {
        let mut qm = SoaDeamortizedQMax::new(5, 0.5);
        for v in 0u64..1000 {
            qm.insert(v as u32, v);
        }
        qm.reset();
        assert!(qm.is_empty());
        assert_eq!(qm.threshold(), None);
        let items: Vec<(u32, u64)> = (0u64..500).map(|v| (v as u32, v)).collect();
        qm.insert_batch(&items);
        assert_eq!(sorted_vals(qm.query()), vec![495, 496, 497, 498, 499]);

        let mut am = SoaAmortizedQMax::new(3, 1.0);
        am.insert_batch(&items);
        am.reset();
        assert!(am.is_empty());
        am.insert(7u32, 9u64);
        assert_eq!(am.query().len(), 1);
    }

    #[test]
    fn all_equal_stream_keeps_q_items() {
        let items: Vec<(u32, u64)> = (0..5000).map(|i| (i, 42u64)).collect();
        let mut am = SoaAmortizedQMax::new(7, 0.5);
        let mut de = SoaDeamortizedQMax::new(7, 0.5);
        am.insert_batch(&items);
        de.insert_batch(&items);
        let a = am.query();
        let d = de.query();
        assert_eq!(a.len(), 7);
        assert_eq!(d.len(), 7);
        assert!(a.iter().all(|&(_, v)| v == 42));
        assert!(d.iter().all(|&(_, v)| v == 42));
    }

    #[test]
    fn descending_stream_filters_branchlessly() {
        let items: Vec<(u32, u64)> = (0u64..100_000).rev().map(|v| (v as u32, v)).collect();
        let mut qm = SoaAmortizedQMax::new(5, 0.2);
        let mut admitted = 0usize;
        for chunk in items.chunks(512) {
            admitted += qm.insert_batch(chunk);
        }
        assert!(admitted <= qm.capacity() + 1);
        assert_eq!(
            sorted_vals(qm.query()),
            vec![99_995, 99_996, 99_997, 99_998, 99_999]
        );
        assert!(qm.filtered() > 90_000);
    }

    #[test]
    fn ids_track_their_values() {
        // Every reported (id, val) pair must be an input pair: the split
        // lanes must never come apart under compactions.
        let mut state = 9u64;
        let items: Vec<(u32, u64)> = (0..30_000)
            .map(|i| (i as u32, splitmix(&mut state) % 1_000_000))
            .collect();
        for chunk_size in [64usize, 1000] {
            let mut am = SoaAmortizedQMax::new(50, 0.8);
            let mut de = SoaDeamortizedQMax::new(50, 0.8);
            for chunk in items.chunks(chunk_size) {
                am.insert_batch(chunk);
                de.insert_batch(chunk);
            }
            for (id, v) in am.query().into_iter().chain(de.query()) {
                assert_eq!(items[id as usize].1, v, "pair broken for id={id}");
            }
        }
    }

    #[test]
    fn sampled_compaction_matches_reference_and_aos() {
        // q(1+γ) ≥ SAMPLED_COMPACT_MIN, so every compaction takes the
        // sampled-pivot path; Ψ and admissions must still match the
        // exact-select AoS structure insert for insert.
        let mut state = 77u64;
        let q = 2000usize;
        let vals: Vec<u64> = (0..50_000).map(|_| splitmix(&mut state)).collect();
        let mut aos = AmortizedQMax::new(q, 1.0);
        let mut soa = SoaAmortizedQMax::new(q, 1.0);
        assert!(soa.capacity() >= qmax_select::kernels::SAMPLED_COMPACT_MIN);
        for (i, &v) in vals.iter().enumerate() {
            let a = aos.insert(i as u32, v);
            let s = soa.insert(i as u32, v);
            assert_eq!(a, s, "admission diverged at {i}");
            assert_eq!(aos.threshold(), soa.threshold(), "Ψ diverged at {i}");
        }
        assert!(soa.compactions() > 0);
        assert_eq!(sorted_vals(soa.query()), top_q_reference(&vals, q));
        assert_eq!(sorted_vals(aos.query()), top_q_reference(&vals, q));
    }

    #[test]
    fn sampled_compaction_is_deterministic() {
        let mut state = 13u64;
        let items: Vec<(u32, u64)> = (0..40_000)
            .map(|i| (i as u32, splitmix(&mut state)))
            .collect();
        let mut a = SoaAmortizedQMax::new(1500, 0.5);
        let mut b = SoaAmortizedQMax::new(1500, 0.5);
        for chunk in items.chunks(1024) {
            a.insert_batch(chunk);
        }
        for &(id, v) in &items {
            b.insert(id, v);
        }
        assert_eq!(a.threshold(), b.threshold());
        assert_eq!(a.compactions(), b.compactions());
        assert_eq!(a.pivot_fallbacks(), b.pivot_fallbacks());
    }

    #[test]
    fn adversarial_sample_forces_fallback_but_stays_exact() {
        // Defeat the (public, deterministic) sample of the first
        // compaction: every sampled position holds the minimum value,
        // so the pivot lands far below the true cut and the exact
        // select runs over nearly the whole `>` region.
        let q = 64usize;
        let mut qm = SoaAmortizedQMax::<u32, u64>::new(q, 31.0);
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
        // Exactness is preserved regardless.
        assert_eq!(sorted_vals(qm.query()), top_q_reference(&vals, q));
        assert_eq!(qm.threshold(), top_q_reference(&vals, q).first().copied());
    }

    #[test]
    fn all_equal_large_buffer_uses_minmax_fast_path() {
        let q = 600usize;
        let mut qm = SoaAmortizedQMax::<u32, u64>::new(q, 1.0);
        assert!(qm.capacity() >= qmax_select::kernels::SAMPLED_COMPACT_MIN);
        let items: Vec<(u32, u64)> = (0..5000).map(|i| (i, 42u64)).collect();
        qm.insert_batch(&items);
        let got = qm.query();
        assert_eq!(got.len(), q);
        assert!(got.iter().all(|&(_, v)| v == 42));
        assert_eq!(qm.threshold(), Some(42));
        assert_eq!(qm.pivot_fallbacks(), 0);
    }

    #[test]
    fn scalar_kernel_override_is_behaviorally_identical() {
        let mut state = 31u64;
        let items: Vec<(u64, u64)> = (0..60_000)
            .map(|i| (i as u64, splitmix(&mut state)))
            .collect();
        let mut auto = SoaAmortizedQMax::<u64, u64>::new(1200, 1.0);
        let mut scalar = SoaAmortizedQMax::<u64, u64>::new(1200, 1.0);
        scalar.set_kernel(qmax_select::Kernel::scalar());
        for chunk in items.chunks(512) {
            auto.insert_batch(chunk);
            scalar.insert_batch(chunk);
            assert_eq!(auto.threshold(), scalar.threshold());
        }
        assert_eq!(auto.filtered(), scalar.filtered());
        assert_eq!(auto.pivot_fallbacks(), scalar.pivot_fallbacks());
        let mut a = auto.query();
        let mut s = scalar.query();
        a.sort_unstable();
        s.sort_unstable();
        assert_eq!(a, s, "SIMD and scalar paths must agree exactly");
    }

    #[test]
    #[should_panic(expected = "q must be positive")]
    fn zero_q_panics() {
        let _ = SoaAmortizedQMax::<u32, u64>::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn bad_gamma_panics() {
        let _ = SoaDeamortizedQMax::<u32, u64>::new(5, -1.0);
    }
}
