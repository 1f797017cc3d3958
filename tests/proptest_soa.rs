//! Differential property tests pinning the structure-of-arrays backends
//! to the array-of-structs originals and to the standard library.
//!
//! The SoA fast path differs from the AoS backends in two places —
//! branchless batch admission, and the paired lanes the one complete
//! selection and the one suspendable selection machine run over (the
//! machine with its vectorized run assist) — so its contract is checked
//! the strongest way
//! available: byte-for-byte agreement of thresholds and admission
//! decisions with the AoS backends on every stream shape that has ever
//! broken a selection algorithm (duplicate-heavy, all-equal, adversarial
//! chunkings), plus agreement with `select_nth_unstable` as the
//! independent ground truth.
//!
//! Results are compared as sorted value multisets: ids tie-break
//! arbitrarily between equal values in both layouts, so value sets are
//! the invariant, not id sets.

use proptest::prelude::*;
use qmax_core::{
    AmortizedQMax, BatchInsert, DeamortizedQMax, Entry, QMax, SoaAmortizedQMax, SoaDeamortizedQMax,
};
use qmax_select::{nth_smallest_in, Direction, MachineStatus, NthElementMachine, PairedLanes};

fn reference_top_q(vals: &[u64], q: usize) -> Vec<u64> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// SoA amortized ≡ AoS amortized: same admissions, same threshold
    /// trajectory, same counters, same top-q, on arbitrary,
    /// duplicate-heavy and all-equal streams. Large `q` reaches the
    /// sampled-pivot compaction (`q(1+γ) ≥ SAMPLED_COMPACT_MIN`); SoA
    /// takes the stream in random batches, AoS one item at a time.
    #[test]
    fn soa_amortized_equals_aos(
        vals in prop_oneof![
            prop::collection::vec(any::<u64>(), 1..8000),
            prop::collection::vec(0u64..16, 1..8000),
            (any::<u64>(), 1usize..8000).prop_map(|(v, n)| vec![v; n]),
        ],
        q in prop_oneof![1usize..64, 600usize..1500],
        gamma in 0.01f64..2.5,
        chunk_sizes in prop::collection::vec(1usize..600, 1..16),
    ) {
        let items: Vec<(u32, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, v))
            .collect();
        let mut aos = AmortizedQMax::new(q, gamma);
        let mut soa = SoaAmortizedQMax::new(q, gamma);
        let mut rest = &items[..];
        for &size in chunk_sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            rest = tail;
            let a = batch.iter().filter(|&&(id, v)| aos.insert(id, v)).count();
            let s = soa.insert_batch(batch);
            prop_assert_eq!(a, s, "admission diverged before item {}", items.len() - rest.len());
            prop_assert_eq!(aos.threshold(), soa.threshold());
        }
        prop_assert_eq!(aos.compactions(), soa.compactions());
        prop_assert_eq!(aos.pivot_fallbacks(), soa.pivot_fallbacks());
        prop_assert_eq!(aos.filtered(), soa.filtered());
        prop_assert_eq!(sorted_vals(aos.query()), sorted_vals(soa.query()));
    }

    /// SoA de-amortized ≡ AoS de-amortized on duplicate-heavy streams —
    /// the regime where three-way partitions and tie-breaking have the
    /// most room to diverge — including identical machine statistics.
    #[test]
    fn soa_deamortized_equals_aos_duplicate_heavy(
        vals in prop::collection::vec(0u64..8, 1..3000),
        q in 1usize..48,
        gamma_pct in 3usize..250,
    ) {
        let gamma = gamma_pct as f64 / 100.0;
        let mut aos = DeamortizedQMax::new(q, gamma);
        let mut soa = SoaDeamortizedQMax::new(q, gamma);
        for (i, &v) in vals.iter().enumerate() {
            let a = aos.insert(i as u32, v);
            let s = soa.insert(i as u32, v);
            prop_assert_eq!(a, s, "admission diverged at item {}", i);
            prop_assert_eq!(aos.threshold(), soa.threshold());
        }
        prop_assert_eq!(aos.stats(), soa.stats());
        prop_assert_eq!(sorted_vals(aos.query()), sorted_vals(soa.query()));
        prop_assert_eq!(sorted_vals(aos.query()), reference_top_q(&vals, q));
    }

    /// All-equal streams: every partition degenerates to the equal band;
    /// both backends must keep exactly min(q, n) copies and agree.
    #[test]
    fn soa_handles_all_equal_streams(
        n in 1usize..3000,
        value in any::<u64>(),
        q in 1usize..32,
        gamma in 0.05f64..2.0,
    ) {
        let items: Vec<(u32, u64)> = (0..n).map(|i| (i as u32, value)).collect();
        let mut aos = DeamortizedQMax::new(q, gamma);
        let mut soa_d = SoaDeamortizedQMax::new(q, gamma);
        let mut soa_a = SoaAmortizedQMax::new(q, gamma);
        for &(id, v) in &items {
            aos.insert(id, v);
        }
        soa_d.insert_batch(&items);
        soa_a.insert_batch(&items);
        let expect = sorted_vals(aos.query());
        prop_assert_eq!(expect.len(), n.min(q));
        prop_assert_eq!(&expect, &sorted_vals(soa_d.query()));
        prop_assert_eq!(&expect, &sorted_vals(soa_a.query()));
    }

    /// Batched inserts through the branchless kernel are state-identical
    /// to singleton inserts, for arbitrary chunkings of the same stream.
    #[test]
    fn soa_batch_equals_singletons(
        vals in prop::collection::vec(any::<u64>(), 1..3000),
        q in 1usize..48,
        gamma in 0.05f64..2.0,
        chunk in 1usize..600,
    ) {
        let items: Vec<(u32, u64)> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, v))
            .collect();
        let mut one_a = SoaAmortizedQMax::new(q, gamma);
        let mut bat_a = SoaAmortizedQMax::new(q, gamma);
        let mut one_d = SoaDeamortizedQMax::new(q, gamma);
        let mut bat_d = SoaDeamortizedQMax::new(q, gamma);
        let mut adm_one_a = 0usize;
        let mut adm_one_d = 0usize;
        for &(id, v) in &items {
            adm_one_a += usize::from(one_a.insert(id, v));
            adm_one_d += usize::from(one_d.insert(id, v));
        }
        let mut adm_bat_a = 0usize;
        let mut adm_bat_d = 0usize;
        for c in items.chunks(chunk) {
            adm_bat_a += bat_a.insert_batch(c);
            adm_bat_d += bat_d.insert_batch(c);
        }
        prop_assert_eq!(adm_one_a, adm_bat_a);
        prop_assert_eq!(adm_one_d, adm_bat_d);
        prop_assert_eq!(one_a.threshold(), bat_a.threshold());
        prop_assert_eq!(one_d.threshold(), bat_d.threshold());
        prop_assert_eq!(one_d.stats(), bat_d.stats());
        prop_assert_eq!(sorted_vals(one_a.query()), sorted_vals(bat_a.query()));
        prop_assert_eq!(sorted_vals(one_d.query()), sorted_vals(bat_d.query()));
    }

    /// The complete selection over paired lanes agrees with
    /// `select_nth_unstable` and carries the id lane through the exact
    /// value-lane permutation.
    #[test]
    fn paired_select_matches_std_select_nth(
        base in prop::collection::vec(0u64..16, 1..600),
        k_seed in any::<u64>(),
    ) {
        let n = base.len();
        let k = (k_seed as usize) % n;
        let mut by_std = base.clone();
        let (_, &mut expect, _) = by_std.select_nth_unstable(k);
        let mut lanes = PairedLanes::new(base.clone(), (0..n as u32).collect());
        nth_smallest_in(&mut lanes, 0, n, k);
        let (vals, ids) = (lanes.vals, lanes.ids);
        prop_assert_eq!(vals[k], expect, "order statistic diverged at k={}", k);
        for &v in &vals[..k] {
            prop_assert!(v <= vals[k]);
        }
        for &v in &vals[k + 1..] {
            prop_assert!(v >= vals[k]);
        }
        // Permutation integrity: every pair is an input pair.
        for (i, (&v, &id)) in vals.iter().zip(&ids).enumerate() {
            prop_assert_eq!(v, base[id as usize], "pair broken at index {}", i);
        }
    }

    /// The suspendable machine over paired lanes computes the same order
    /// statistic as the batch kernel for any budget and direction,
    /// keeping the lanes paired — and over a slice of entries built from
    /// the same input it takes the same steps at the same costs: one
    /// machine, whatever the layout.
    #[test]
    fn paired_machine_matches_batch_select(
        base in prop::collection::vec(any::<u32>(), 1..600),
        k_seed in any::<u64>(),
        budget in 1usize..200,
        descending in any::<bool>(),
    ) {
        let n = base.len();
        let k = (k_seed as usize) % n;
        let (dir, rank) = if descending {
            (Direction::Descending, n - 1 - k)
        } else {
            (Direction::Ascending, k)
        };
        // Direction order: `before(a, b)` iff a may precede b.
        let before = |a: u32, b: u32| if descending { a >= b } else { a <= b };
        let mut batch = PairedLanes::new(base.clone(), (0..n as u32).collect());
        nth_smallest_in(&mut batch, 0, n, rank);
        let expect = batch.vals[rank];
        let mut lanes = PairedLanes::new(base.clone(), (0..n as u32).collect());
        let mut entries: Vec<Entry<u32, u32>> = base
            .iter()
            .enumerate()
            .map(|(i, &v)| Entry::new(i as u32, v))
            .collect();
        let mut m = NthElementMachine::new(0, n, k, dir);
        let mut me = NthElementMachine::new(0, n, k, dir);
        loop {
            let status = m.step(&mut lanes, budget);
            prop_assert_eq!(status, me.step(&mut entries, budget));
            if status == MachineStatus::Finished {
                break;
            }
        }
        prop_assert_eq!(m.result_index(), Some(k));
        let vals = &lanes.vals;
        prop_assert_eq!(vals[k], expect);
        for &v in &vals[..k] {
            prop_assert!(before(v, vals[k]));
        }
        for &v in &vals[k + 1..] {
            prop_assert!(before(vals[k], v));
        }
        for (i, (&v, &id)) in vals.iter().zip(&lanes.ids).enumerate() {
            prop_assert_eq!(v, base[id as usize], "pair broken at index {}", i);
        }
        prop_assert_eq!(m.total_ops(), me.total_ops());
        prop_assert_eq!(m.max_step_ops(), me.max_step_ops());
        prop_assert_eq!(m.result_index(), me.result_index());
        let entry_vals: Vec<u32> = entries.iter().map(|e| e.val).collect();
        prop_assert_eq!(&entry_vals, vals);
        let entry_ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
        prop_assert_eq!(&entry_ids, &lanes.ids);
    }

    /// One complete selection, whatever the layout: over a slice of
    /// entries and over paired lanes built from the same values, the
    /// same `(lo, hi, k)` leaves the same permutation, keeps every pair
    /// intact and touches no slot outside `[lo, hi)`.
    #[test]
    fn introselect_is_layout_independent(
        base in prop_oneof![
            prop::collection::vec(any::<u64>(), 1..600),
            prop::collection::vec(0u64..8, 1..600),
        ],
        lo_seed in any::<usize>(),
        len_seed in any::<usize>(),
        k_seed in any::<usize>(),
    ) {
        let n = base.len();
        let lo = lo_seed % n;
        let hi = lo + 1 + len_seed % (n - lo);
        let k = k_seed % (hi - lo);
        let mut entries: Vec<Entry<u32, u64>> = base
            .iter()
            .enumerate()
            .map(|(i, &v)| Entry::new(i as u32, v))
            .collect();
        let mut lanes = PairedLanes::new(base.clone(), (0..n as u32).collect());
        nth_smallest_in(&mut entries[..], lo, hi, k);
        nth_smallest_in(&mut lanes, lo, hi, k);
        let entry_vals: Vec<u64> = entries.iter().map(|e| e.val).collect();
        prop_assert_eq!(&entry_vals, &lanes.vals);
        let entry_ids: Vec<u32> = entries.iter().map(|e| e.id).collect();
        prop_assert_eq!(&entry_ids, &lanes.ids);
        for (i, (&v, &id)) in lanes.vals.iter().zip(&lanes.ids).enumerate() {
            prop_assert_eq!(v, base[id as usize], "pair broken at index {}", i);
            if i < lo || i >= hi {
                prop_assert_eq!(id as usize, i, "slot {} outside [{}, {}) moved", i, lo, hi);
            }
        }
        let mut range = base[lo..hi].to_vec();
        range.sort_unstable();
        let t = lo + k;
        prop_assert_eq!(lanes.vals[t], range[k]);
        prop_assert!(lanes.vals[lo..t].iter().all(|&v| v <= lanes.vals[t]));
        prop_assert!(lanes.vals[t + 1..hi].iter().all(|&v| v >= lanes.vals[t]));
    }
}
