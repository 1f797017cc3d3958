//! Property-based tests of the selection substrate.

use proptest::prelude::*;
use qmax_select::{
    insertion_sort, median_of_five, mom_nth_smallest, nth_largest, nth_smallest, Direction,
    MachineStatus, NthElementMachine, WORK_BOUND_FACTOR,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn nth_smallest_equals_sorted(mut v in prop::collection::vec(any::<i64>(), 1..2000), k_seed in any::<usize>()) {
        let k = k_seed % v.len();
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let got = *nth_smallest(&mut v, k);
        prop_assert_eq!(got, sorted[k]);
        // Partition property.
        for &x in &v[..k] {
            prop_assert!(x <= v[k]);
        }
        for &x in &v[k + 1..] {
            prop_assert!(x >= v[k]);
        }
        // The multiset is preserved.
        let mut after = v.clone();
        after.sort_unstable();
        prop_assert_eq!(after, sorted);
    }

    #[test]
    fn mom_equals_introselect(v in prop::collection::vec(any::<u32>(), 1..1000), k_seed in any::<usize>()) {
        let k = k_seed % v.len();
        let mut a = v.clone();
        let mut b = v.clone();
        prop_assert_eq!(*nth_smallest(&mut a, k), *mom_nth_smallest(&mut b, k));
    }

    #[test]
    fn nth_largest_mirrors_nth_smallest(v in prop::collection::vec(any::<u32>(), 1..500), k_seed in any::<usize>()) {
        let k = k_seed % v.len();
        let mut a = v.clone();
        let mut b = v.clone();
        let largest = *nth_largest(&mut a, k);
        let smallest_equiv = *nth_smallest(&mut b, v.len() - 1 - k);
        prop_assert_eq!(largest, smallest_equiv);
    }

    #[test]
    fn machine_work_is_linear(v in prop::collection::vec(any::<u16>(), 30..3000), k_seed in any::<usize>()) {
        let n = v.len();
        let k = k_seed % n;
        let mut buf = v.clone();
        let mut m = NthElementMachine::new(0, n, k, Direction::Ascending);
        m.run_to_completion(&mut buf);
        prop_assert!(
            m.total_ops() <= (WORK_BOUND_FACTOR * n + WORK_BOUND_FACTOR) as u64,
            "ops {} exceed linear bound for n={}", m.total_ops(), n
        );
    }

    #[test]
    fn machine_descending_is_reverse(v in prop::collection::vec(any::<u32>(), 1..400), k_seed in any::<usize>()) {
        let n = v.len();
        let k = k_seed % n;
        let mut asc = v.clone();
        let mut desc = v.clone();
        let mut ma = NthElementMachine::new(0, n, k, Direction::Ascending);
        let mut md = NthElementMachine::new(0, n, n - 1 - k, Direction::Descending);
        while ma.step(&mut asc, 17) == MachineStatus::InProgress {}
        while md.step(&mut desc, 17) == MachineStatus::InProgress {}
        // k-th smallest == (n-1-k)-th largest.
        prop_assert_eq!(asc[k], desc[n - 1 - k]);
    }

    #[test]
    fn insertion_sort_sorts_any(mut v in prop::collection::vec(any::<i32>(), 0..64)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        insertion_sort(&mut v);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn median_of_five_is_true_median(v in prop::collection::vec(any::<u32>(), 1..6)) {
        let mut buf = v.clone();
        let len = buf.len();
        let m = median_of_five(&mut buf, 0, len);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(buf[m], sorted[(len - 1) / 2]);
    }
}
