//! Structure-of-arrays q-MAX backends for `Copy` primitive ids/values.
//!
//! The generic backends store `Entry<I, V>` structs in one `Vec`. For the
//! `(u64, u64)`-shaped items every benchmark and app in this repo
//! actually streams, that layout wastes the two resources the hot loop
//! lives on:
//!
//! * **cache bandwidth** — the admission filter and the compaction's
//!   pivot scans only ever read *values*, but each value drags its id
//!   through the cache with it (16-byte elements, half the useful data
//!   per line);
//! * **branch prediction** — the per-item `if val <= Ψ { return }` is
//!   data-dependent; on the skewed streams q-MAX targets, Ψ quickly
//!   filters ~everything and the admit branch becomes rare-but-random.
//!
//! The backends here keep `vals: Vec<V>` and `ids: Vec<I>` in two
//! parallel lanes. Batch admission runs a **branchless chunked
//! Ψ-filter**: each chunk of arrivals is streamed with an unconditional
//! store plus a compare-derived write-cursor increment
//! (`w += (v > Ψ) as usize`), so rejected items are simply overwritten by
//! the next arrival and the loop has no data-dependent branch at all.
//! Compactions use the value-only selection kernels from
//! [`qmax_select`]: [`qmax_select::paired_nth_smallest`] for the
//! amortized backend, and for the de-amortized one the single selection
//! machine running over [`qmax_select::PairedLanes`], which partitions the
//! dense value lane and mirrors the permutation into the id lane.
//!
//! [`SoaAmortizedQMax`] is a behavioural twin of its array-of-structs
//! counterpart — same admissions, same thresholds, same query results
//! (up to the usual arbitrary tie-breaking on ids). [`SoaDeamortizedQMax`]
//! is not a twin but the same code: [`Deamortized`] over the paired
//! lanes instead of a `Vec` of entries. The differential property tests
//! in `tests/proptest_soa.rs` pin both down. When ids are *not* `Copy`
//! (boxed flow keys, strings), the AoS backends remain the right choice:
//! there, moving an entry is a pointer move and the split-lane
//! permutation mirroring would buy nothing.

use crate::deamortized::{Deamortized, Slots};
use crate::entry::Entry;
use crate::traits::{BatchInsert, IntervalBackend, QMax};
use qmax_select::kernels::{pivot_band, PIVOT_SEED, SAMPLED_COMPACT_MIN};
use qmax_select::{paired_nth_smallest, Kernel, PairedLanes};

/// Structure-of-arrays [`AmortizedQMax`](crate::AmortizedQMax): q-MAX
/// with amortized `O(1)` updates, `⌈q(1+γ)⌉` space, and a branchless
/// batch admission path over parallel `vals`/`ids` lanes.
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
#[derive(Debug, Clone)]
pub struct SoaAmortizedQMax<I, V> {
    q: usize,
    cap: usize,
    ids: Vec<I>,
    vals: Vec<V>,
    /// Live prefix length of both lanes; slots beyond it are scratch.
    len: usize,
    threshold: Option<V>,
    compactions: u64,
    filtered: u64,
    /// Output lanes for the sampled-pivot partition; swapped with the
    /// primary lanes after each partition pass. Materialized lazily at
    /// the first sampled compaction — a block that never fills (or
    /// stays below [`SAMPLED_COMPACT_MIN`]) never allocates them.
    scratch_ids: Vec<I>,
    scratch_vals: Vec<V>,
    /// Reusable buffer for the pivot sample.
    sample: Vec<V>,
    /// Compactions whose sampled pivot landed outside the tolerance
    /// band ([`qmax_select::kernels::pivot_band`]); the result is exact
    /// either way, the counter tracks sample quality.
    pivot_fallbacks: u64,
    /// SIMD dispatch handle, resolved once at construction.
    kernel: Kernel<V>,
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> SoaAmortizedQMax<I, V> {
    /// Creates a q-MAX for the `q` largest items with space-slack
    /// parameter `gamma` (γ): `⌈q(1+γ)⌉` slots (at least `q + 1`) per
    /// lane.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `gamma` is not a positive finite number.
    /// Use [`SoaAmortizedQMax::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64) -> Self {
        Self::try_new(q, gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SoaAmortizedQMax::new`]: rejects `q == 0` and
    /// non-positive / non-finite `gamma` instead of panicking.
    pub fn try_new(q: usize, gamma: f64) -> Result<Self, crate::QMaxError> {
        crate::error::check_q_gamma::<Entry<I, V>>(q, gamma)?;
        let cap = ((q as f64) * (1.0 + gamma)).ceil() as usize;
        let cap = cap.max(q + 1);
        Ok(SoaAmortizedQMax {
            q,
            cap,
            ids: Vec::new(),
            vals: Vec::new(),
            len: 0,
            threshold: None,
            compactions: 0,
            filtered: 0,
            scratch_ids: Vec::new(),
            scratch_vals: Vec::new(),
            sample: Vec::new(),
            pivot_fallbacks: 0,
            kernel: Kernel::detect(),
        })
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

    /// Overrides the SIMD dispatch handle (benchmarks pin the scalar
    /// path with `Kernel::scalar()` to measure the vectorization gain).
    pub fn set_kernel(&mut self, kernel: Kernel<V>) {
        self.kernel = kernel;
    }

    /// The SIMD dispatch handle in use.
    pub fn kernel(&self) -> Kernel<V> {
        self.kernel
    }

    /// Grows the primary lanes to at least `need` slots, seeding the new
    /// slots with copies of the given item (avoids a `Default` bound;
    /// the slots beyond `len` are never read until overwritten).
    ///
    /// Growth is geometric but **bounded by the block capacity and the
    /// demanded length**: a block in a many-block window that only ever
    /// sees `W·τ ≪ cap` items per epoch pays for the lanes it actually
    /// fills, not for `⌈q(1+γ)⌉` slots × 4 lanes up front (the eager
    /// materialization was the per-block fixed cost that inverted the
    /// SoA layout from win to ~10× collapse at small τ). The scratch
    /// lanes are not touched here at all — see [`Self::compact_sampled`].
    #[inline]
    fn ensure_lanes(&mut self, need: usize, id: I, val: V) {
        debug_assert!(need <= self.cap);
        if self.vals.len() < need {
            let target = need.max((self.vals.len() * 2).min(self.cap));
            self.vals.resize(target, val);
            self.ids.resize(target, id);
        }
    }

    /// Compacts the lanes: selects the q-th largest value, makes it the
    /// new threshold, and keeps only the top `q` pairs. Large buffers
    /// take the sampled-pivot path; the resulting Ψ and survivor
    /// multiset are identical either way.
    fn compact(&mut self) {
        debug_assert!(self.len > self.q);
        let psi = if self.len >= SAMPLED_COMPACT_MIN {
            self.compact_sampled()
        } else {
            self.compact_exact()
        };
        self.len = self.q;
        self.threshold = Some(match self.threshold.take() {
            Some(old) if old > psi => old,
            _ => psi,
        });
        self.compactions += 1;
    }

    /// Plain exact compaction: introselect over the full live prefix.
    fn compact_exact(&mut self) -> V {
        let cut = self.len - self.q;
        paired_nth_smallest(&mut self.vals[..self.len], &mut self.ids[..self.len], cut);
        let psi = self.vals[cut];
        self.vals.copy_within(cut..self.len, 0);
        self.ids.copy_within(cut..self.len, 0);
        psi
    }

    /// Sampled-pivot compaction: estimate the q-th largest value from a
    /// deterministic `O(√n)` sample (seeded by the compaction counter,
    /// so replays are exact), partition the lanes around it in one
    /// vectorized stable pass into the scratch lanes — descending
    /// region order, so the survivors end up a *prefix* — then repair
    /// the boundary with an exact select over only the region the true
    /// cut landed in. Ψ is exactly the q-th largest, as in
    /// [`Self::compact_exact`].
    fn compact_sampled(&mut self) -> V {
        let n = self.len;
        let q = self.q;
        let (mn, mx) = self
            .kernel
            .min_max(&self.vals[..n])
            .expect("compacting a non-empty buffer");
        if mn == mx {
            // All values equal: any q survive and Ψ is that value.
            return mn;
        }
        let seed = PIVOT_SEED ^ self.compactions;
        let pivot = self
            .kernel
            .sample_pivot(&self.vals[..n], n - q, seed, &mut self.sample);
        // First sampled compaction materializes the scratch lanes (the
        // mn == mx early exit above needs none, and exact compactions
        // below `SAMPLED_COMPACT_MIN` partition in place).
        if self.scratch_vals.len() < n {
            let seed_id = self.ids[0];
            self.scratch_vals.resize(n, mn);
            self.scratch_ids.resize(n, seed_id);
        }
        let (ngt, eq_end) = self.kernel.partition3_desc(
            &self.vals[..n],
            &self.ids[..n],
            pivot,
            &mut self.scratch_vals[..n],
            &mut self.scratch_ids[..n],
        );
        core::mem::swap(&mut self.vals, &mut self.scratch_vals);
        core::mem::swap(&mut self.ids, &mut self.scratch_ids);
        let band = pivot_band(n);
        if ngt >= q {
            // Pivot landed low: all survivors are in the `>` region;
            // exact-select the q largest within it.
            if ngt - q > band {
                self.pivot_fallbacks += 1;
            }
            let cut = ngt - q;
            paired_nth_smallest(&mut self.vals[..ngt], &mut self.ids[..ngt], cut);
            let psi = self.vals[cut];
            self.vals.copy_within(cut..ngt, 0);
            self.ids.copy_within(cut..ngt, 0);
            psi
        } else if eq_end >= q {
            // In band: the q-th largest is the pivot itself and the
            // survivors are exactly the output prefix already.
            pivot
        } else {
            // Pivot landed high: keep the whole `>`/`==` prefix and top
            // it up with the largest elements of the `<` region.
            if q - eq_end > band {
                self.pivot_fallbacks += 1;
            }
            let k = q - eq_end;
            let lt_len = n - eq_end;
            paired_nth_smallest(
                &mut self.vals[eq_end..n],
                &mut self.ids[eq_end..n],
                lt_len - k,
            );
            let psi = self.vals[n - k];
            self.vals.copy_within(n - k..n, eq_end);
            self.ids.copy_within(n - k..n, eq_end);
            psi
        }
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> QMax<I, V> for SoaAmortizedQMax<I, V> {
    #[inline]
    fn insert(&mut self, id: I, val: V) -> bool {
        if let Some(t) = self.threshold {
            if val <= t {
                self.filtered += 1;
                return false;
            }
        }
        self.ensure_lanes(self.len + 1, id, val);
        self.vals[self.len] = val;
        self.ids[self.len] = id;
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
        self.ids[..self.len]
            .iter()
            .zip(&self.vals[..self.len])
            .map(|(&id, &v)| (id, v))
            .collect()
    }

    fn reset(&mut self) {
        // Keep the materialized lanes; only the live prefix matters.
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
        self.threshold
    }

    fn name(&self) -> &'static str {
        "qmax-soa-amortized"
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> BatchInsert<I, V> for SoaAmortizedQMax<I, V> {
    /// Branchless chunked Ψ-filter: processes the batch in chunks sized
    /// to the remaining buffer room, each chunk streamed through the
    /// vectorized admit kernel ([`Kernel::admit_pairs`]) — every item is
    /// conceptually stored at the write cursor and the cursor advances
    /// only for survivors, so heavily filtered (skewed) streams run at
    /// full pipeline speed with no data-dependent branch. Ψ can only
    /// change at a compaction, and compactions coincide with chunk
    /// boundaries, so re-reading Ψ once per chunk is exact, not an
    /// approximation.
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let Some(&(id0, val0)) = items.first() else {
            return 0;
        };
        let mut admitted = 0usize;
        let mut i = 0;
        while i < items.len() {
            let take = (self.cap - self.len).min(items.len() - i);
            // The lanes only ever grow to the chunk's own high-water
            // mark `len + take` (≤ cap), so a block that never fills
            // never materializes its full capacity.
            let hard_end = self.len + take;
            self.ensure_lanes(hard_end, id0, val0);
            // In-bounds: cursor < len + take <= lane length for every
            // store (the kernel contract forbids stores past hard_end).
            let w = self.kernel.admit_pairs(
                &items[i..i + take],
                self.threshold,
                &mut self.vals,
                &mut self.ids,
                self.len,
                hard_end,
            );
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

impl<I: Copy + 'static, V: Ord + Copy + 'static> crate::checkpoint::Checkpoint<I, V>
    for SoaAmortizedQMax<I, V>
{
    /// Copies the live lane prefixes into entry form, plus Ψ and the
    /// counters. The scratch lanes and the kernel handle are execution
    /// machinery, not logical state, and are not captured.
    fn snapshot(&self) -> crate::checkpoint::BackendSnapshot<I, V> {
        crate::checkpoint::BackendSnapshot {
            entries: self.ids[..self.len]
                .iter()
                .zip(&self.vals[..self.len])
                .map(|(&id, &v)| Entry::new(id, v))
                .collect(),
            threshold: self.threshold,
            compactions: self.compactions,
            filtered: self.filtered,
            pivot_fallbacks: self.pivot_fallbacks,
        }
    }

    /// Overwrites the live lane prefixes, Ψ, and counters with the
    /// snapshot's. Lanes are re-materialized to the restored length if
    /// the current allocation is shorter (a freshly-recycled block may
    /// have no lanes at all).
    fn restore(&mut self, snap: &crate::checkpoint::BackendSnapshot<I, V>) {
        let n = snap.entries.len();
        debug_assert!(n < self.cap, "snapshot larger than block capacity");
        if let Some(first) = snap.entries.first() {
            self.ensure_lanes(n, first.id, first.val);
        }
        for (i, e) in snap.entries.iter().enumerate() {
            self.vals[i] = e.val;
            self.ids[i] = e.id;
        }
        self.len = n;
        self.threshold = snap.threshold;
        self.compactions = snap.compactions;
        self.filtered = snap.filtered;
        self.pivot_fallbacks = snap.pivot_fallbacks;
        if self.len >= self.cap {
            self.compact();
        }
    }
}

impl<I: Copy + 'static, V: Ord + Copy + 'static> IntervalBackend<I, V> for SoaAmortizedQMax<I, V> {
    fn fresh(&self) -> Self {
        SoaAmortizedQMax {
            q: self.q,
            cap: self.cap,
            ids: Vec::new(),
            vals: Vec::new(),
            len: 0,
            threshold: None,
            compactions: 0,
            filtered: 0,
            scratch_ids: Vec::new(),
            scratch_vals: Vec::new(),
            sample: Vec::new(),
            pivot_fallbacks: 0,
            kernel: self.kernel,
        }
    }

    fn capacity(&self) -> usize {
        self.cap
    }

    fn candidates_into(&self, out: &mut Vec<Entry<I, V>>) {
        out.extend(
            self.ids[..self.len]
                .iter()
                .zip(&self.vals[..self.len])
                .map(|(&id, &v)| Entry::new(id, v)),
        );
    }
}

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

    const NAME: &'static str = "qmax-soa-deamortized";

    #[inline]
    fn view(&mut self) -> &mut Self {
        self
    }

    fn with_capacity(n: usize) -> Self {
        PairedLanes::new(Vec::with_capacity(n), Vec::with_capacity(n))
    }

    fn empty_like(&self) -> Self {
        PairedLanes {
            vals: Vec::with_capacity(self.vals.capacity()),
            ids: Vec::with_capacity(self.ids.capacity()),
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
    use crate::{AmortizedQMax, DeamortizedQMax};

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
