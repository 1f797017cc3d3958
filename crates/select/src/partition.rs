//! In-place partition and small-range sorting over any [`Lanes`] buffer,
//! with the slice forms as thin wrappers.

use crate::machine::Lanes;
use core::cmp::Ordering;

/// Sorts slots `[lo, hi)` of `buf` ascending by insertion sort.
#[inline]
pub(crate) fn sort_range<L: Lanes + ?Sized>(buf: &mut L, lo: usize, hi: usize) {
    for i in lo + 1..hi {
        let mut j = i;
        while j > lo && buf.key(j - 1) > buf.key(j) {
            buf.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Three-way (Dutch national flag) partition of slots `[lo, hi)` of
/// `buf` by `cmp(buf, i)`, the order of slot `i`'s key against the
/// pivot. The comparison reads the buffer between swaps, so the pivot
/// may be an outside value or a key parked in a slot outside the range.
///
/// On return `(lt, gt)`, slots `[lo, lt)` compare `Less`, `[lt, gt)`
/// `Equal` and `[gt, hi)` `Greater`.
#[inline]
pub(crate) fn partition_by<L: Lanes + ?Sized>(
    buf: &mut L,
    lo: usize,
    hi: usize,
    cmp: impl Fn(&L, usize) -> Ordering,
) -> (usize, usize) {
    let mut lt = lo;
    let mut i = lo;
    let mut gt = hi;
    while i < gt {
        // Dutch-flag invariant: [lo..lt) < pivot, [lt..i) == pivot,
        // [i..gt) unclassified, [gt..hi) > pivot.
        match cmp(buf, i) {
            Ordering::Less => {
                buf.swap(lt, i);
                lt += 1;
                i += 1;
            }
            Ordering::Greater => {
                gt -= 1;
                buf.swap(i, gt);
            }
            Ordering::Equal => i += 1,
        }
    }
    (lt, gt)
}

/// Sorts `buf` in place with insertion sort.
///
/// Used as the base case of the selection routines; intended for small
/// slices (a few dozen elements).
#[inline]
pub fn insertion_sort<T: Ord>(buf: &mut [T]) {
    sort_range(buf, 0, buf.len());
}

/// Sorts a group of at most five elements and returns the index of its
/// median (lower median for even-sized groups).
///
/// The group is `buf[lo..lo + len]`; the returned index is absolute.
#[inline]
pub fn median_of_five<T: Ord>(buf: &mut [T], lo: usize, len: usize) -> usize {
    debug_assert!((1..=5).contains(&len));
    sort_range(buf, lo, lo + len);
    lo + (len - 1) / 2
}

/// Three-way (Dutch national flag) partition of `buf[lo..hi]` around the
/// pivot value `pivot`.
///
/// On return `(lt, gt)`:
/// * `buf[lo..lt]`  contains elements `< pivot`,
/// * `buf[lt..gt]`  contains elements `== pivot`,
/// * `buf[gt..hi]`  contains elements `> pivot`.
#[inline]
pub fn partition3<T: Ord>(buf: &mut [T], lo: usize, hi: usize, pivot: &T) -> (usize, usize) {
    debug_assert!(lo <= hi && hi <= buf.len());
    partition_by(buf, lo, hi, |b, i| b[i].cmp(pivot))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_sort_sorts() {
        let mut v = vec![5, 3, 8, 1, 9, 2, 2, 7];
        insertion_sort(&mut v);
        assert_eq!(v, vec![1, 2, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn insertion_sort_empty_and_single() {
        let mut v: Vec<i32> = vec![];
        insertion_sort(&mut v);
        assert!(v.is_empty());
        let mut v = vec![42];
        insertion_sort(&mut v);
        assert_eq!(v, vec![42]);
    }

    #[test]
    fn median_of_five_returns_median() {
        let mut v = vec![0, 9, 4, 7, 2, 5, 0];
        let m = median_of_five(&mut v, 1, 5);
        // group was [9,4,7,2,5] -> sorted [2,4,5,7,9], median 5 at offset 2.
        assert_eq!(v[m], 5);
        assert_eq!(m, 3);
    }

    #[test]
    fn median_of_five_short_groups() {
        for len in 1..=5usize {
            let mut v: Vec<u32> = (0..len as u32).rev().collect();
            let m = median_of_five(&mut v, 0, len);
            assert_eq!(v[m] as usize, (len - 1) / 2);
        }
    }

    #[test]
    fn partition3_partitions() {
        let mut v = vec![4, 1, 7, 4, 9, 0, 4, 3, 8];
        let (lt, gt) = partition3(&mut v, 0, 9, &4);
        assert!(v[..lt].iter().all(|&x| x < 4));
        assert!(v[lt..gt].iter().all(|&x| x == 4));
        assert!(v[gt..].iter().all(|&x| x > 4));
        assert_eq!(gt - lt, 3);
    }

    #[test]
    fn partition3_subrange_untouched_outside() {
        let mut v = vec![100, 4, 1, 7, 4, -1];
        let (lt, gt) = partition3(&mut v, 1, 5, &4);
        assert_eq!(v[0], 100);
        assert_eq!(v[5], -1);
        assert!(v[1..lt].iter().all(|&x| x < 4));
        assert!(v[lt..gt].iter().all(|&x| x == 4));
        assert!(v[gt..5].iter().all(|&x| x > 4));
    }

    #[test]
    fn partition3_all_equal() {
        let mut v = vec![5; 8];
        let (lt, gt) = partition3(&mut v, 0, 8, &5);
        assert_eq!((lt, gt), (0, 8));
    }

    #[test]
    fn partition3_pivot_absent() {
        let mut v = vec![1, 9, 3, 7];
        let (lt, gt) = partition3(&mut v, 0, 4, &5);
        assert_eq!(lt, gt);
        assert!(v[..lt].iter().all(|&x| x < 5));
        assert!(v[gt..].iter().all(|&x| x > 5));
    }
}
