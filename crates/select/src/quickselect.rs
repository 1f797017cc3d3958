//! The complete (non-incremental) selection: introselect over any
//! [`Lanes`] buffer, with pure median-of-medians as the same loop
//! started without pseudo-random pivot rounds.

use crate::machine::Lanes;
use crate::partition::sort_range;

/// Ranges of at most this many elements are solved by insertion sort
/// rather than by further partitioning.
pub(crate) const SMALL: usize = 24;

/// Out-of-line panic for the `k >= len` contract violation, keeping the
/// cold formatting machinery off the selection hot path.
#[cold]
#[inline(never)]
pub(crate) fn index_out_of_range(k: usize, len: usize) -> ! {
    panic!("selection index {k} out of range {len}");
}

/// Pseudo-random pivot rounds, `2 * log2(n) + 2`, before an `n`-slot
/// selection falls back to median-of-medians pivots.
fn pivot_rounds(n: usize) -> usize {
    2 * (usize::BITS - n.leading_zeros()) as usize + 2
}

/// Rearranges slots `[lo, hi)` of `buf` so that the `k`-th smallest key
/// (0-based) of the range is at slot `lo + k`, every slot before it holds
/// a key `<=` it, and every slot after it a key `>=` it. Slots outside
/// the range are untouched.
///
/// This is *introselect*: quickselect using pseudo-random
/// median-of-three pivots, falling back to median-of-medians pivots when
/// the round budget is exhausted, so the worst case is `O(n)`. The pivot
/// is parked in slot `lo` during a partition rather than held by value,
/// so keys need no `Clone`.
///
/// ```
/// use qmax_select::{nth_smallest_in, PairedLanes};
/// let mut lanes = PairedLanes::new(vec![9u64, 5, 1, 7, 3], vec!['a', 'b', 'c', 'd', 'e']);
/// nth_smallest_in(&mut lanes, 1, 5, 2);
/// assert_eq!((lanes.vals[3], lanes.ids[3]), (5, 'b'));
/// assert_eq!(lanes.vals[0], 9);
/// ```
///
/// # Panics
///
/// Panics if `k >= hi - lo`.
pub fn nth_smallest_in<L: Lanes + ?Sized>(buf: &mut L, lo: usize, hi: usize, k: usize) {
    let n = hi.saturating_sub(lo);
    if k >= n {
        index_out_of_range(k, n);
    }
    introselect(buf, lo, hi, lo + k, pivot_rounds(n));
}

/// Introselect on `[lo, hi)` placing the order statistic at the
/// absolute slot `target`, with `rounds` pseudo-random pivot rounds
/// before median-of-medians pivots take over.
fn introselect<L: Lanes + ?Sized>(
    buf: &mut L,
    mut lo: usize,
    mut hi: usize,
    target: usize,
    mut rounds: usize,
) {
    // Cheap deterministic pivot randomization (splitmix-style counter).
    let mut rng_state: u64 = 0x9E37_79B9_7F4A_7C15 ^ ((hi - lo) as u64);
    loop {
        if hi - lo <= SMALL {
            sort_range(buf, lo, hi);
            return;
        }
        let pivot = if rounds == 0 {
            mom_pivot(buf, lo, hi)
        } else {
            rounds -= 1;
            rng_state = rng_state
                .wrapping_mul(0xD120_0000_0000_1001)
                .wrapping_add(1);
            let r = (rng_state >> 33) as usize;
            // Median of three pseudo-random probes.
            let a = lo + r % (hi - lo);
            let b = lo + (r / (hi - lo)) % (hi - lo);
            let c = lo + (hi - lo) / 2;
            median3_index(buf, a, b, c)
        };
        // Park the pivot at `lo`, partition the rest against it, then
        // fold it into the "equal" run.
        buf.swap(lo, pivot);
        let (lt, gt) = buf.partition_parked(lo, hi);
        buf.swap(lo, lt - 1);
        let (eq_lo, eq_hi) = (lt - 1, gt);
        if target < eq_lo {
            hi = eq_lo;
        } else if target >= eq_hi {
            lo = eq_hi;
        } else {
            return;
        }
    }
}

#[inline]
fn median3_index<L: Lanes + ?Sized>(buf: &L, a: usize, b: usize, c: usize) -> usize {
    let (x, y, z) = (buf.key(a), buf.key(b), buf.key(c));
    if (x <= y) == (y <= z) {
        b
    } else if (y <= x) == (x <= z) {
        a
    } else {
        c
    }
}

/// Chooses a worst-case-good pivot for `[lo, hi)` by the BFPRT
/// median-of-medians construction and returns its slot.
fn mom_pivot<L: Lanes + ?Sized>(buf: &mut L, lo: usize, hi: usize) -> usize {
    let mut packed = lo;
    let mut g = lo;
    while g < hi {
        let len = (hi - g).min(5);
        sort_range(buf, g, g + len);
        buf.swap(packed, g + (len - 1) / 2);
        packed += 1;
        g += len;
    }
    // Select the median of the medians now packed at the front.
    let mid = lo + (packed - lo - 1) / 2;
    introselect(buf, lo, packed, mid, pivot_rounds(packed - lo));
    mid
}

/// Rearranges `buf` so that its `k`-th smallest element (0-based) is at
/// index `k`, everything before it is `<=` it, and everything after is
/// `>=` it. Returns a reference to the element at index `k`.
///
/// [`nth_smallest_in`] over the whole slice.
///
/// # Panics
///
/// Panics if `k >= buf.len()`.
pub fn nth_smallest<T: Ord>(buf: &mut [T], k: usize) -> &T {
    nth_smallest_in(buf, 0, buf.len(), k);
    &buf[k]
}

/// Pure BFPRT median-of-medians selection: worst-case `O(n)` regardless of
/// input order, with a larger constant than [`nth_smallest`].
///
/// Same contract as [`nth_smallest`].
pub fn mom_nth_smallest<T: Ord>(buf: &mut [T], k: usize) -> &T {
    if k >= buf.len() {
        index_out_of_range(k, buf.len());
    }
    introselect(buf, 0, buf.len(), k, 0);
    &buf[k]
}

/// Rearranges `buf` so that its `k`-th **largest** element (0-based, so
/// `k = 0` is the maximum) is at index `buf.len() - 1 - k`, with all
/// larger elements after it. Returns a reference to that element.
///
/// Convenience wrapper over [`nth_smallest`].
#[inline]
pub fn nth_largest<T: Ord>(buf: &mut [T], k: usize) -> &T {
    let n = buf.len();
    if k >= n {
        index_out_of_range(k, n);
    }
    nth_smallest(buf, n - 1 - k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_select(v: &mut [u32], k: usize) {
        let mut sorted = v.to_owned();
        sorted.sort_unstable();
        let got = *nth_smallest(v, k);
        assert_eq!(got, sorted[k], "k={k}");
        assert_eq!(v[k], sorted[k]);
        assert!(v[..k].iter().all(|x| *x <= v[k]));
        assert!(v[k + 1..].iter().all(|x| *x >= v[k]));
    }

    #[test]
    fn selects_on_random_data() {
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for n in [1usize, 2, 5, 24, 25, 100, 1000] {
            let base: Vec<u32> = (0..n).map(|_| next() % 64).collect();
            for k in [0, n / 3, n / 2, n - 1] {
                let mut v = base.clone();
                check_select(&mut v, k);
            }
        }
    }

    #[test]
    fn selects_on_adversarial_patterns() {
        for n in [50usize, 200, 1001] {
            for k in [0, n / 2, n - 1] {
                let mut asc: Vec<u32> = (0..n as u32).collect();
                check_select(&mut asc, k);
                let mut desc: Vec<u32> = (0..n as u32).rev().collect();
                check_select(&mut desc, k);
                let mut eq = vec![7u32; n];
                check_select(&mut eq, k);
                let mut organ: Vec<u32> = (0..n as u32 / 2)
                    .chain((0..n as u32 / 2 + 1).rev())
                    .take(n)
                    .collect();
                check_select(&mut organ, k);
            }
        }
    }

    #[test]
    fn mom_matches_sorted() {
        let mut state = 999u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for n in [1usize, 30, 128, 777] {
            let base: Vec<u32> = (0..n).map(|_| next() % 50).collect();
            let mut sorted = base.clone();
            sorted.sort_unstable();
            for k in [0, n / 2, n - 1] {
                let mut v = base.clone();
                assert_eq!(*mom_nth_smallest(&mut v, k), sorted[k]);
            }
        }
    }

    #[test]
    fn nth_largest_is_mirror() {
        let mut v = vec![10u32, 40, 20, 30, 50];
        assert_eq!(*nth_largest(&mut v, 0), 50);
        let mut v = vec![10u32, 40, 20, 30, 50];
        assert_eq!(*nth_largest(&mut v, 4), 10);
        let mut v = vec![10u32, 40, 20, 30, 50];
        assert_eq!(*nth_largest(&mut v, 1), 40);
        // top-1 elements sit after index n-1-k
        assert!(v[4] >= 40);
    }

    /// Keys need only `Ord`: the pivot is parked in a slot, never cloned.
    #[test]
    fn selects_elements_that_are_not_clone() {
        #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
        struct Key(u32);
        let make = || -> Vec<Key> { (0..300u32).map(|i| Key(i * 7919 % 300)).collect() };
        let mut v = make();
        assert_eq!(*nth_smallest(&mut v, 123), Key(123));
        let mut v = make();
        assert_eq!(*mom_nth_smallest(&mut v, 7), Key(7));
        let mut v = make();
        nth_smallest_in(&mut v[..], 100, 200, 50);
        let mut range: Vec<u32> = make()[100..200].iter().map(|k| k.0).collect();
        range.sort_unstable();
        assert_eq!(v[150], Key(range[50]));
        assert!(v[100..150].iter().all(|x| *x <= v[150]));
        assert!(v[151..200].iter().all(|x| *x >= v[150]));
    }

    /// A layout with only `key` and `swap` partitions through the default
    /// `Lanes::partition_parked` and ends in the same permutation as the
    /// slice, whose override splits the pivot off.
    #[test]
    fn default_parked_partition_matches_slice() {
        struct Plain(Vec<u32>);
        impl Lanes for Plain {
            type Key = u32;
            fn key(&self, i: usize) -> &u32 {
                &self.0[i]
            }
            fn swap(&mut self, i: usize, j: usize) {
                self.0.swap(i, j);
            }
        }
        let mut state = 77u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for n in [30usize, 500, 3000] {
            let base: Vec<u32> = (0..n).map(|_| next() % 40).collect();
            for (lo, hi, k) in [(0, n, n / 2), (3, n - 5, 0), (n / 3, n, n / 4)] {
                let mut plain = Plain(base.clone());
                let mut slice = base.clone();
                nth_smallest_in(&mut plain, lo, hi, k);
                nth_smallest_in(&mut slice[..], lo, hi, k);
                assert_eq!(plain.0, slice, "n={n} lo={lo} hi={hi} k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn select_out_of_range_panics() {
        let mut v = vec![1, 2, 3];
        nth_smallest(&mut v, 3);
    }
}
