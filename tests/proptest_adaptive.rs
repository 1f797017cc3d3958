//! Differential property tests for the shipped interval layout: a
//! structure built on [`AdaptiveBackend`] (the structure-of-arrays
//! backend, under the name the `qbench` binary builds with) must be
//! observationally identical to the same structure built on the
//! array-of-structs [`AmortizedQMax`] — same top-q value multisets, same
//! admission threshold Ψ, same arrival accounting. The layout moves
//! *performance*, never semantics.
//!
//! The AoS layout fed item by item is the reference; both layouts are
//! also fed in batches of a drawn size, so singleton and batched arrival
//! paths of each layout are checked against it.
//!
//! Streams cover the shapes named by the paper's workloads: Zipf-skewed
//! values, all-equal values, slack fractions τ from 0.003 to 1.0, and
//! streams long enough to recycle window blocks mid-run.

use proptest::prelude::*;
use qmax_core::{
    AdaptiveBackend, AdaptiveBasicSlackQMax, AmortizedQMax, BasicSlackQMax, BatchInsert,
    HierSlackQMax, IntervalBackend, QMax,
};
use qmax_traces::zipf::ZipfSampler;

const TAUS: [f64; 6] = [0.003, 0.01, 0.1, 0.33, 0.9, 1.0];

fn value_stream(n: usize, seed: u64, all_equal: bool) -> Vec<u64> {
    if all_equal {
        return vec![seed | 1; n];
    }
    let mut zipf = ZipfSampler::new(5_000, 1.0, seed);
    (0..n).map(|_| zipf.sample() as u64).collect()
}

fn sorted_vals(pairs: Vec<(u32, u64)>) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

fn feed_singly<S: QMax<u32, u64>>(s: &mut S, items: &[(u32, u64)]) {
    for &(id, v) in items {
        s.insert(id, v);
    }
}

fn feed_batched<S: BatchInsert<u32, u64>>(s: &mut S, items: &[(u32, u64)], chunk: usize) {
    for span in items.chunks(chunk) {
        s.insert_batch(span);
    }
}

fn indexed(vals: &[u64]) -> Vec<(u32, u64)> {
    vals.iter()
        .enumerate()
        .map(|(i, &v)| (i as u32, v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Plain interval reservoir: the shipped layout and the AoS layout
    /// admit the same items, report the same Ψ, and answer the same
    /// top-q — singleton and batched arrivals alike.
    #[test]
    fn adaptive_interval_is_policy_invariant(
        seed in any::<u64>(),
        n in 16usize..3000,
        q in 1usize..48,
        gamma in 0.05f64..1.5,
        all_equal in 0usize..2,
        chunk in 1usize..400,
    ) {
        let items = indexed(&value_stream(n, seed, all_equal == 1));
        let mut reference = AmortizedQMax::<u32, u64>::try_new(q, gamma).unwrap();
        let mut aos = reference.fresh();
        let mut shipped = AdaptiveBackend::<u32, u64>::try_new(q, gamma).unwrap();
        let mut shipped_single = shipped.fresh();
        feed_singly(&mut reference, &items);
        feed_batched(&mut aos, &items, chunk);
        feed_batched(&mut shipped, &items, chunk);
        feed_singly(&mut shipped_single, &items);

        let top = sorted_vals(reference.query());
        let psi = reference.threshold();
        let filtered = reference.filtered();
        let answers = [
            ("aos batched", sorted_vals(aos.query()), aos.threshold(), aos.filtered()),
            ("shipped batched", sorted_vals(shipped.query()), shipped.threshold(), shipped.filtered()),
            (
                "shipped singleton",
                sorted_vals(shipped_single.query()),
                shipped_single.threshold(),
                shipped_single.filtered(),
            ),
        ];
        for (arm, got_top, got_psi, got_filtered) in answers {
            prop_assert_eq!(got_top, top.clone(), "{} diverged on top-q", arm);
            prop_assert_eq!(got_psi, psi, "{} diverged on psi", arm);
            prop_assert_eq!(got_filtered, filtered, "{} diverged on accounting", arm);
        }
    }

    /// Basic slack window over shipped blocks vs AoS blocks: both agree
    /// at mid-stream (blocks recycled in place) and at end-of-stream,
    /// across τ ∈ [0.003, 1] and both stream shapes.
    #[test]
    fn adaptive_basic_window_is_policy_invariant(
        seed in any::<u64>(),
        n in 32usize..2500,
        q in 1usize..40,
        w in 1usize..1000,
        tau_sel in 0usize..6,
        all_equal in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..400,
    ) {
        let tau = TAUS[tau_sel];
        let items = indexed(&value_stream(n, seed, all_equal == 1));
        let aos_block = AmortizedQMax::<u32, u64>::try_new(q, gamma).unwrap();
        let mut reference = BasicSlackQMax::try_with_backend(w, tau, aos_block.fresh()).unwrap();
        let mut aos = BasicSlackQMax::try_with_backend(w, tau, aos_block).unwrap();
        let mut shipped = AdaptiveBasicSlackQMax::<u32, u64>::try_new_adaptive(q, gamma, w, tau).unwrap();
        // Two checkpoints: mid-stream (short streams) and end-of-stream
        // (n can exceed w several times over, so rings recycle blocks
        // in place between the checkpoints).
        for (start, stop) in [(0, n / 2), (n / 2, n)] {
            let span = &items[start..stop];
            feed_singly(&mut reference, span);
            feed_batched(&mut aos, span, chunk);
            feed_batched(&mut shipped, span, chunk);
            let top = sorted_vals(reference.query());
            prop_assert_eq!(sorted_vals(aos.query()), top.clone(), "aos batched diverged at position {}", stop);
            prop_assert_eq!(sorted_vals(shipped.query()), top, "shipped diverged at position {}", stop);
        }
    }

    /// Hierarchical slack window over shipped blocks vs AoS blocks: same
    /// contract across 1–3 layers.
    #[test]
    fn adaptive_hier_window_is_policy_invariant(
        seed in any::<u64>(),
        n in 32usize..2000,
        q in 1usize..32,
        w in 1usize..1000,
        tau_sel in 0usize..6,
        c in 1usize..4,
        all_equal in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..300,
    ) {
        let tau = TAUS[tau_sel];
        let items = indexed(&value_stream(n, seed, all_equal == 1));
        let aos_block = AmortizedQMax::<u32, u64>::try_new(q, gamma).unwrap();
        let mut reference = HierSlackQMax::try_with_backend(w, tau, c, aos_block.fresh()).unwrap();
        let mut aos = HierSlackQMax::try_with_backend(w, tau, c, aos_block).unwrap();
        let shipped_block = AdaptiveBackend::<u32, u64>::try_new(q, gamma).unwrap();
        let mut shipped = HierSlackQMax::try_with_backend(w, tau, c, shipped_block).unwrap();
        feed_singly(&mut reference, &items);
        feed_batched(&mut aos, &items, chunk);
        feed_batched(&mut shipped, &items, chunk);
        let top = sorted_vals(reference.query());
        prop_assert_eq!(sorted_vals(aos.query()), top.clone(), "aos batched diverged");
        prop_assert_eq!(sorted_vals(shipped.query()), top, "shipped diverged");
    }
}
