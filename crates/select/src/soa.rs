//! Structure-of-arrays (value-lane) selection kernels.
//!
//! The generic kernels in this crate move whole `Entry`-like structs
//! through every compare and swap: for the common `(u64, u64)` item that
//! is a 16-byte element, so a pivot scan touches one element per half
//! cache line and every swap moves 32 bytes. When the values and ids
//! live in two *parallel arrays* (the SoA fast path in `qmax-core`),
//! the pivot scan can instead stream over the dense value lane — 8-byte
//! loads, twice the elements per cache line — and mirror each exchange
//! into the id lane. The kernels here do exactly that: they partition
//! and select on `vals` while applying the identical permutation to
//! `ids`, so `(vals[i], ids[i])` pairs stay intact throughout.
//!
//! All kernels require `V: Copy` (pivots are held by value), which is
//! precisely the primitive-lane case the fast path targets; ids are
//! only ever swapped, so `I` is unconstrained.
//!
//! * [`paired_nth_smallest`] — introselect over `(vals, ids)`: expected
//!   linear with a median-of-medians fallback, same contract as
//!   [`crate::nth_smallest`].
//! * [`PairedLanes`] — the two lanes as one [`Lanes`] buffer, so the
//!   suspendable [`crate::NthElementMachine`] runs over them directly:
//!   the same machine, unit costs and [`crate::WORK_BOUND_FACTOR`] work
//!   bound as over a slice of whole entries, with the partition phase's
//!   same-class runs measured by a vector kernel on the value lane.
//! * low-level helpers: [`paired_partition3`], [`paired_insertion_sort`].

use crate::kernels::{Kernel, RunPred};
use crate::machine::Lanes;
use core::cmp::Ordering;

/// Ranges of at most this many elements are solved by direct insertion
/// sort rather than recursive selection (matches the AoS kernels).
const SMALL: usize = 24;

/// Swaps index `a` with index `b` in both lanes.
#[inline(always)]
fn swap2<V, I>(vals: &mut [V], ids: &mut [I], a: usize, b: usize) {
    vals.swap(a, b);
    ids.swap(a, b);
}

/// Out-of-line panics for contract violations, keeping the cold
/// formatting machinery off the selection hot path.
#[cold]
#[inline(never)]
fn lanes_differ(vlen: usize, ilen: usize) -> ! {
    panic!("value/id lanes differ: {vlen} vs {ilen}");
}

#[cold]
#[inline(never)]
fn index_out_of_range(k: usize, len: usize) -> ! {
    panic!("selection index {k} out of range {len}");
}

/// Sorts `vals[lo..hi]` ascending by insertion sort, mirroring every
/// exchange into `ids` so value/id pairs stay aligned.
pub fn paired_insertion_sort<V: Ord, I>(vals: &mut [V], ids: &mut [I], lo: usize, hi: usize) {
    for i in lo + 1..hi {
        let mut j = i;
        while j > lo && vals[j - 1] > vals[j] {
            swap2(vals, ids, j - 1, j);
            j -= 1;
        }
    }
}

/// Three-way (Dutch national flag) partition of `vals[lo..hi]` around
/// the pivot **value**, with the permutation applied to `ids` as well.
///
/// On return `(lt, gt)`:
/// * `vals[lo..lt]` contains values `< pivot`,
/// * `vals[lt..gt]` contains values `== pivot`,
/// * `vals[gt..hi]` contains values `> pivot`,
///
/// and `ids[i]` still identifies `vals[i]` everywhere.
#[inline]
pub fn paired_partition3<V: Ord, I>(
    vals: &mut [V],
    ids: &mut [I],
    lo: usize,
    hi: usize,
    pivot: &V,
) -> (usize, usize) {
    debug_assert!(lo <= hi && hi <= vals.len() && hi <= ids.len());
    let mut lt = lo;
    let mut i = lo;
    let mut gt = hi;
    while i < gt {
        // Dutch-flag invariant: [lo..lt) < pivot, [lt..i) == pivot,
        // [i..gt) unclassified, [gt..hi) > pivot.
        debug_assert!(lt <= i && i <= gt && gt <= hi);
        match vals[i].cmp(pivot) {
            Ordering::Less => {
                swap2(vals, ids, lt, i);
                lt += 1;
                i += 1;
            }
            Ordering::Greater => {
                gt -= 1;
                swap2(vals, ids, i, gt);
            }
            Ordering::Equal => i += 1,
        }
    }
    debug_assert!(vals[lo..lt].iter().all(|x| x < pivot));
    debug_assert!(vals[lt..gt].iter().all(|x| x == pivot));
    debug_assert!(vals[gt..hi].iter().all(|x| x > pivot));
    (lt, gt)
}

#[inline]
fn median3_index<V: Ord>(vals: &[V], a: usize, b: usize, c: usize) -> usize {
    let (x, y, z) = (&vals[a], &vals[b], &vals[c]);
    if (x <= y) == (y <= z) {
        b
    } else if (y <= x) == (x <= z) {
        a
    } else {
        c
    }
}

/// Rearranges the parallel arrays so that the `k`-th smallest value
/// (0-based) is at index `k`, everything before it is `<=` it, and
/// everything after is `>=` it — with `ids` carried through the same
/// permutation, so each `(vals[i], ids[i])` pair is one of the input
/// pairs.
///
/// This is the value-lane counterpart of [`crate::nth_smallest`]
/// (introselect: pseudo-random pivots with a median-of-medians fallback,
/// worst-case linear).
///
/// # Panics
///
/// Panics if the lanes differ in length or `k` is out of range.
pub fn paired_nth_smallest<V: Ord + Copy, I>(vals: &mut [V], ids: &mut [I], k: usize) {
    if vals.len() != ids.len() {
        lanes_differ(vals.len(), ids.len());
    }
    if k >= vals.len() {
        index_out_of_range(k, vals.len());
    }
    paired_select(vals, ids, 0, vals.len(), k);
}

/// Introselect on the absolute range `[lo, hi)`; `target` is absolute.
fn paired_select<V: Ord + Copy, I>(
    vals: &mut [V],
    ids: &mut [I],
    mut lo: usize,
    mut hi: usize,
    target: usize,
) {
    let n = hi - lo;
    // 2 * log2(n) pivot rounds before falling back to MoM pivots.
    let mut depth_budget = 2 * (usize::BITS - n.leading_zeros()) as usize + 2;
    let mut rng_state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (n as u64);
    loop {
        if hi - lo <= SMALL {
            paired_insertion_sort(vals, ids, lo, hi);
            return;
        }
        let pivot = if depth_budget == 0 {
            vals[paired_mom_pivot(vals, ids, lo, hi)]
        } else {
            depth_budget -= 1;
            rng_state = rng_state
                .wrapping_mul(0xD120_0000_0000_1001)
                .wrapping_add(1);
            let r = (rng_state >> 33) as usize;
            // Median of three pseudo-random probes.
            let a = lo + r % (hi - lo);
            let b = lo + (r / (hi - lo)) % (hi - lo);
            let c = lo + (hi - lo) / 2;
            vals[median3_index(vals, a, b, c)]
        };
        // V: Copy lets the pivot ride in a register, so no clone-free
        // slice-splitting tricks are needed here, unlike the AoS kernel.
        let (eq_lo, eq_hi) = paired_partition3(vals, ids, lo, hi, &pivot);
        if target < eq_lo {
            hi = eq_lo;
        } else if target >= eq_hi {
            lo = eq_hi;
        } else {
            return;
        }
    }
}

/// BFPRT median-of-medians pivot for `vals[lo..hi]`; returns its index.
fn paired_mom_pivot<V: Ord + Copy, I>(
    vals: &mut [V],
    ids: &mut [I],
    lo: usize,
    hi: usize,
) -> usize {
    let mut ngroups = 0usize;
    let mut g = lo;
    while g < hi {
        let len = (hi - g).min(5);
        paired_insertion_sort(vals, ids, g, g + len);
        let median = g + (len - 1) / 2;
        swap2(vals, ids, lo + ngroups, median);
        ngroups += 1;
        g += len;
    }
    let mid = (ngroups - 1) / 2;
    paired_select(vals, ids, lo, lo + ngroups, lo + mid);
    lo + mid
}

/// Parallel value/id lanes as one [`Lanes`] buffer for the
/// [`NthElementMachine`](crate::NthElementMachine).
///
/// The machine orders by the value lane and every exchange is mirrored
/// into the id lane, so `(vals[i], ids[i])` pairs stay intact. The
/// partition phase's same-class runs are measured by the vectorized
/// [`Kernel::prefix_class_run`] over the dense value lane, charged the
/// same 2 operations per element as the element-by-element path: over
/// the same values a slice of whole entries and a `PairedLanes` make the
/// machine take the same steps at the same costs.
///
/// ```
/// use qmax_select::{Direction, MachineStatus, NthElementMachine, PairedLanes};
/// let vals = vec![5u64, 1, 9, 3, 7, 2, 8, 0, 6, 4, 11, 13, 12, 15, 14,
///                 21, 20, 23, 22, 25, 24, 27, 26, 29, 28, 31, 30];
/// let ids: Vec<u32> = (0..vals.len() as u32).collect();
/// let mut lanes = PairedLanes::new(vals, ids);
/// let mut m = NthElementMachine::new(0, lanes.vals.len(), 4, Direction::Ascending);
/// while m.step(&mut lanes, 8) == MachineStatus::InProgress {}
/// assert_eq!(lanes.vals[4], 4);
/// assert_eq!(lanes.ids[4], 9); // the id that arrived with value 4
/// ```
#[derive(Debug, Clone)]
pub struct PairedLanes<V, I> {
    /// The value lane the selection orders by.
    pub vals: Vec<V>,
    /// The id lane, permuted in step with `vals`.
    pub ids: Vec<I>,
    /// SIMD dispatch handle for the run assist.
    pub kernel: Kernel<V>,
}

impl<V: Ord + Copy + 'static, I> PairedLanes<V, I> {
    /// Pairs the two lanes, with the kernel resolved by
    /// [`Kernel::detect`].
    pub fn new(vals: Vec<V>, ids: Vec<I>) -> Self {
        PairedLanes {
            vals,
            ids,
            kernel: Kernel::detect(),
        }
    }
}

impl<V: Ord + Copy + 'static, I> Lanes for PairedLanes<V, I> {
    type Key = V;

    #[inline]
    fn key(&self, i: usize) -> &V {
        &self.vals[i]
    }

    #[inline]
    fn swap(&mut self, i: usize, j: usize) {
        swap2(&mut self.vals, &mut self.ids, i, j);
    }

    #[inline]
    fn class_run(&self, i: usize, max: usize, pivot: &V, pred: RunPred) -> usize {
        self.kernel
            .prefix_class_run(&self.vals[i..i + max], *pivot, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Direction, MachineStatus, NthElementMachine, WORK_BOUND_FACTOR};

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Checks every pair `(vals[i], ids[i])` is an input pair: the id
    /// lane followed the exact permutation of the value lane.
    fn assert_pairs_intact(vals: &[u64], ids: &[u32], original: &[u64]) {
        for (i, (&v, &id)) in vals.iter().zip(ids).enumerate() {
            assert_eq!(
                v, original[id as usize],
                "pair broken at {i}: value {v} carries id {id}"
            );
        }
    }

    #[test]
    fn paired_select_matches_std_and_keeps_pairs() {
        let mut state = 7u64;
        for n in [1usize, 5, 24, 25, 100, 1000] {
            let base: Vec<u64> = (0..n).map(|_| splitmix(&mut state) % 97).collect();
            let mut sorted = base.clone();
            sorted.sort_unstable();
            for k in [0, n / 2, n - 1] {
                let mut vals = base.clone();
                let mut ids: Vec<u32> = (0..n as u32).collect();
                paired_nth_smallest(&mut vals, &mut ids, k);
                assert_eq!(vals[k], sorted[k], "n={n} k={k}");
                assert!(vals[..k].iter().all(|v| *v <= vals[k]));
                assert!(vals[k + 1..].iter().all(|v| *v >= vals[k]));
                assert_pairs_intact(&vals, &ids, &base);
            }
        }
    }

    #[test]
    fn paired_select_adversarial_patterns() {
        for n in [50usize, 200, 1001] {
            let patterns: Vec<Vec<u64>> = vec![
                (0..n as u64).collect(),
                (0..n as u64).rev().collect(),
                vec![7; n],
                (0..n as u64).map(|x| x % 3).collect(),
            ];
            for base in patterns {
                for k in [0, n / 2, n - 1] {
                    let mut vals = base.clone();
                    let mut ids: Vec<u32> = (0..n as u32).collect();
                    paired_nth_smallest(&mut vals, &mut ids, k);
                    let mut sorted = base.clone();
                    sorted.sort_unstable();
                    assert_eq!(vals[k], sorted[k]);
                    assert_pairs_intact(&vals, &ids, &base);
                }
            }
        }
    }

    #[test]
    fn paired_partition3_partitions_both_lanes() {
        let mut state = 9u64;
        let n = 300;
        let base: Vec<u64> = (0..n).map(|_| splitmix(&mut state) % 10).collect();
        let mut vals = base.clone();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let (lt, gt) = paired_partition3(&mut vals, &mut ids, 10, 290, &5);
        assert!(vals[10..lt].iter().all(|&x| x < 5));
        assert!(vals[lt..gt].iter().all(|&x| x == 5));
        assert!(vals[gt..290].iter().all(|&x| x > 5));
        assert_pairs_intact(&vals, &ids, &base);
        // Outside the range untouched.
        assert_eq!(&vals[..10], &base[..10]);
        assert_eq!(&vals[290..], &base[290..]);
    }

    /// Runs the one machine over paired lanes built from `vals` and
    /// `ids`, writing the permuted lanes back.
    fn run_machine(
        vals: &mut Vec<u64>,
        ids: &mut Vec<u32>,
        k: usize,
        dir: Direction,
        budget: usize,
    ) -> usize {
        let mut lanes = PairedLanes::new(core::mem::take(vals), core::mem::take(ids));
        let mut m = NthElementMachine::new(0, lanes.vals.len(), k, dir);
        let mut guard = 0usize;
        while m.step(&mut lanes, budget) == MachineStatus::InProgress {
            guard += 1;
            assert!(guard < 100_000_000, "machine failed to terminate");
        }
        (*vals, *ids) = (lanes.vals, lanes.ids);
        m.result_index().unwrap()
    }

    #[test]
    fn machine_ascending_selects_kth_smallest() {
        let mut state = 11u64;
        for n in [1usize, 5, 24, 25, 100, 1000] {
            let base: Vec<u64> = (0..n).map(|_| splitmix(&mut state) % 61).collect();
            let mut sorted = base.clone();
            sorted.sort_unstable();
            for k in [0, n / 2, n - 1] {
                let mut vals = base.clone();
                let mut ids: Vec<u32> = (0..n as u32).collect();
                let idx = run_machine(&mut vals, &mut ids, k, Direction::Ascending, 16);
                assert_eq!(idx, k);
                assert_eq!(vals[k], sorted[k]);
                assert!(vals[..k].iter().all(|v| *v <= vals[k]));
                assert!(vals[k + 1..].iter().all(|v| *v >= vals[k]));
                assert_pairs_intact(&vals, &ids, &base);
            }
        }
    }

    #[test]
    fn machine_descending_selects_kth_largest() {
        let mut state = 42u64;
        for n in [3usize, 50, 333] {
            let base: Vec<u64> = (0..n).map(|_| splitmix(&mut state) % 31).collect();
            let mut sorted = base.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            for k in [0, n / 2, n - 1] {
                let mut vals = base.clone();
                let mut ids: Vec<u32> = (0..n as u32).collect();
                run_machine(&mut vals, &mut ids, k, Direction::Descending, 7);
                assert_eq!(vals[k], sorted[k]);
                assert!(vals[..k].iter().all(|v| *v >= vals[k]));
                assert!(vals[k + 1..].iter().all(|v| *v <= vals[k]));
                assert_pairs_intact(&vals, &ids, &base);
            }
        }
    }

    #[test]
    fn machine_stays_within_work_bound() {
        for n in [100usize, 1000, 5000] {
            let patterns: Vec<Vec<u64>> = vec![
                (0..n as u64).collect(),
                (0..n as u64).rev().collect(),
                vec![3; n],
                (0..n as u64).map(|x| x % 2).collect(),
            ];
            for base in patterns {
                let mut lanes = PairedLanes::new(base, (0..n as u32).collect());
                let mut m = NthElementMachine::new(0, n, n / 2, Direction::Ascending);
                m.run_to_completion(&mut lanes);
                assert!(
                    m.total_ops() <= (WORK_BOUND_FACTOR * n + WORK_BOUND_FACTOR) as u64,
                    "ops {} exceed bound for n={n}",
                    m.total_ops()
                );
            }
        }
    }

    #[test]
    fn machine_budget_respected_up_to_unit_cost() {
        let mut state = 3u64;
        let n = 2000;
        let vals: Vec<u64> = (0..n).map(|_| splitmix(&mut state)).collect();
        let mut lanes = PairedLanes::new(vals, (0..n as u32).collect());
        let mut m = NthElementMachine::new(0, n, 100, Direction::Ascending);
        while m.step(&mut lanes, 10) == MachineStatus::InProgress {}
        assert!(m.max_step_ops() <= 10 + SMALL as u64 + 2);
    }

    #[test]
    fn machine_ignores_lanes_outside_range() {
        let mut state = 5u64;
        let n = 500;
        let base: Vec<u64> = (0..n + 50).map(|_| splitmix(&mut state) % 1000).collect();
        let mut lanes = PairedLanes::new(base.clone(), (0..(n + 50) as u32).collect());
        let mut expect: Vec<u64> = base[25..25 + n].to_vec();
        expect.sort_unstable();
        let mut m = NthElementMachine::new(25, 25 + n, 77, Direction::Ascending);
        let mut tick = 0u64;
        while m.step(&mut lanes, 5) == MachineStatus::InProgress {
            // Mutate both lanes outside [25, 525) between steps.
            lanes.vals[(tick % 25) as usize] = tick;
            lanes.ids[525 + (tick % 25) as usize] = tick as u32;
            tick += 1;
        }
        assert_eq!(lanes.vals[25 + 77], expect[77]);
    }

    #[test]
    fn finished_machine_steps_are_noops() {
        let mut lanes = PairedLanes::new((0..200u64).rev().collect(), (0..200u32).collect());
        let mut m = NthElementMachine::new(0, 200, 50, Direction::Ascending);
        m.run_to_completion(&mut lanes);
        let ops = m.total_ops();
        let snapshot = lanes.vals.clone();
        assert_eq!(m.step(&mut lanes, 1000), MachineStatus::Finished);
        assert_eq!(m.total_ops(), ops);
        assert_eq!(lanes.vals, snapshot);
    }

    #[test]
    #[should_panic(expected = "empty selection range")]
    fn empty_range_panics() {
        let _ = NthElementMachine::<u64>::new(3, 3, 0, Direction::Ascending);
    }

    #[test]
    #[should_panic(expected = "value/id lanes differ")]
    fn mismatched_lanes_panic() {
        let mut vals = vec![1u64, 2, 3];
        let mut ids = vec![0u32, 1];
        paired_nth_smallest(&mut vals, &mut ids, 1);
    }
}
