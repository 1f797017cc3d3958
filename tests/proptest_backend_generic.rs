//! Differential property tests for the backend-generic layers: every
//! slack-window algorithm and both LRFU variants must behave the same
//! whether their interval blocks are array-of-structs ([`AmortizedQMax`])
//! or structure-of-arrays ([`SoaAmortizedQMax`]) — and whether arrivals
//! come one at a time or through the batched kernels.
//!
//! Windows are compared as sorted *value* multisets: the two layouts may
//! retain different sub-top-q candidates (ids tie-break arbitrarily and
//! compaction orders differ), but the final top-q cut of any query is
//! the exact top-q of the retained window content, which depends only on
//! arrival counts — so value multisets must match at every common
//! stream position. The LRFU comparisons are stricter: the q-MAX LRFU
//! log buffer never self-compacts and the de-amortized snapshot is fed
//! in a deterministic slot order, so the *entire hit/miss sequence* must
//! be byte-for-byte identical across layouts.
//!
//! Streams cover the shapes named by the paper's workloads: Zipf-skewed
//! ids/values, all-equal values, slack fractions τ near 0 and 1, and
//! windows smaller than the reservoir (`W < q`).

use proptest::prelude::*;
use qmax_core::{
    BasicSlackQMax, BatchInsert, HierSlackQMax, LazySlackQMax, QMax, SoaAmortizedQMax, StdIndex,
};
use qmax_lrfu::{Cache, DeamortizedLrfu, QMaxLrfu, SoaQMaxLrfu};
use qmax_traces::zipf::ZipfSampler;

const TAUS: [f64; 6] = [0.003, 0.01, 0.1, 0.33, 0.9, 1.0];

/// A value stream: Zipf-skewed (heavy duplicates, a few giants) or
/// all-equal (every partition degenerates to the equal band).
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

/// Feeds `vals[fed..to]` into `aos` one at a time and into `soa` through
/// the batch kernel in `chunk`-sized spans, then checks that both report
/// the same top-q value multiset at position `to`.
macro_rules! feed_and_compare {
    ($vals:expr, $fed:expr, $to:expr, $chunk:expr, $aos:expr, $soa:expr) => {{
        for i in $fed..$to {
            $aos.insert(i as u32, $vals[i]);
        }
        let items: Vec<(u32, u64)> = ($fed..$to).map(|i| (i as u32, $vals[i])).collect();
        for span in items.chunks($chunk) {
            $soa.insert_batch(span);
        }
        prop_assert_eq!(
            sorted_vals($aos.query()),
            sorted_vals($soa.query()),
            "layouts diverged at stream position {}",
            $to
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Basic slack window: AoS singletons ≡ SoA batches at mid-stream
    /// and end-of-stream, across τ ∈ [0.003, 1.0] and both stream shapes.
    #[test]
    fn soa_basic_window_matches_aos(
        seed in any::<u64>(),
        n in 32usize..2500,
        q in 1usize..40,
        w in 1usize..1500,
        tau_sel in 0usize..6,
        all_equal in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..400,
    ) {
        let tau = TAUS[tau_sel];
        let vals = value_stream(n, seed, all_equal == 1);
        let mut aos = BasicSlackQMax::new(q, gamma, w, tau);
        let mut soa = BasicSlackQMax::with_backend(w, tau, SoaAmortizedQMax::new(q, gamma));
        feed_and_compare!(vals, 0, n / 2, chunk, aos, soa);
        feed_and_compare!(vals, n / 2, n, chunk, aos, soa);
    }

    /// Hierarchical slack window: same contract across 1–3 layers.
    #[test]
    fn soa_hier_window_matches_aos(
        seed in any::<u64>(),
        n in 32usize..2500,
        q in 1usize..40,
        w in 1usize..1500,
        tau_sel in 0usize..6,
        c in 1usize..4,
        all_equal in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..400,
    ) {
        let tau = TAUS[tau_sel];
        let vals = value_stream(n, seed, all_equal == 1);
        let mut aos = HierSlackQMax::new(q, gamma, w, tau, c);
        let mut soa = HierSlackQMax::with_backend(w, tau, c, SoaAmortizedQMax::new(q, gamma));
        feed_and_compare!(vals, 0, n / 2, chunk, aos, soa);
        feed_and_compare!(vals, n / 2, n, chunk, aos, soa);
    }

    /// Lazy slack window, immediate and deferred feed. Deferred mode
    /// truncates each block summary to the base block size, which is
    /// only order-independent when the whole top-q summary fits — hence
    /// the documented `q ≤ base_block` restriction, mirrored here.
    #[test]
    fn soa_lazy_window_matches_aos(
        seed in any::<u64>(),
        n in 32usize..2500,
        q_seed in any::<u64>(),
        w in 8usize..1500,
        tau_sel in 0usize..6,
        c in 1usize..4,
        all_equal in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..400,
    ) {
        let tau = TAUS[tau_sel];
        let base = LazySlackQMax::<u32, u64>::new(1, 0.5, w, tau, c).base_block();
        let q = 1 + (q_seed as usize) % base.min(48);
        let vals = value_stream(n, seed, all_equal == 1);

        let mut aos = LazySlackQMax::new(q, gamma, w, tau, c);
        let mut soa = LazySlackQMax::with_backend(w, tau, c, SoaAmortizedQMax::new(q, gamma));
        feed_and_compare!(vals, 0, n / 2, chunk, aos, soa);
        feed_and_compare!(vals, n / 2, n, chunk, aos, soa);

        let mut aos_wc = LazySlackQMax::new_deamortized(q, gamma, w, tau, c);
        let mut soa_wc = LazySlackQMax::with_backend_deamortized(w, tau, c, SoaAmortizedQMax::new(q, gamma));
        feed_and_compare!(vals, 0, n / 2, chunk, aos_wc, soa_wc);
        feed_and_compare!(vals, n / 2, n, chunk, aos_wc, soa_wc);
    }

    /// Windows narrower than the reservoir (`W < q`): every retained
    /// item is a top-q item, so the layouts must agree exactly.
    #[test]
    fn windows_with_w_smaller_than_q_agree(
        seed in any::<u64>(),
        n in 32usize..1500,
        q in 32usize..64,
        w in 1usize..32,
        tau_sel in 0usize..6,
        all_equal in 0usize..2,
        chunk in 1usize..200,
    ) {
        let tau = TAUS[tau_sel];
        let vals = value_stream(n, seed, all_equal == 1);
        let mut aos_b = BasicSlackQMax::new(q, 0.5, w, tau);
        let mut soa_b = BasicSlackQMax::with_backend(w, tau, SoaAmortizedQMax::new(q, 0.5));
        feed_and_compare!(vals, 0, n, chunk, aos_b, soa_b);
        let mut aos_h = HierSlackQMax::new(q, 0.5, w, tau, 2);
        let mut soa_h = HierSlackQMax::with_backend(w, tau, 2, SoaAmortizedQMax::new(q, 0.5));
        feed_and_compare!(vals, 0, n, chunk, aos_h, soa_h);
    }

    /// q-MAX LRFU: the log buffer is hosted in a backend that never
    /// self-compacts, so AoS and SoA must produce the *identical*
    /// hit/miss sequence on Zipf-skewed request traces — and the batched
    /// request path must match singletons hit-for-hit in total.
    #[test]
    fn soa_qmax_lrfu_replays_aos_exactly(
        seed in any::<u64>(),
        n in 16usize..4000,
        keyspace in 8usize..600,
        q in 2usize..64,
        gamma in 0.05f64..1.5,
        decay in 0.5f64..0.99,
        chunk in 1usize..300,
    ) {
        let mut zipf = ZipfSampler::new(keyspace, 1.0, seed);
        let trace: Vec<u64> = (0..n).map(|_| zipf.sample() as u64).collect();

        let mut aos = QMaxLrfu::new(q, gamma, decay);
        let mut soa = SoaQMaxLrfu::new_soa(q, gamma, decay);
        let mut singleton_hits = 0usize;
        for (i, &k) in trace.iter().enumerate() {
            let a = aos.request(k);
            let s = soa.request(k);
            prop_assert_eq!(a, s, "hit/miss diverged at request {}", i);
            singleton_hits += usize::from(a);
        }
        prop_assert_eq!(aos.len(), soa.len());

        let mut batched = SoaQMaxLrfu::new_soa(q, gamma, decay);
        let mut batch_hits = 0usize;
        for span in trace.chunks(chunk) {
            batch_hits += batched.request_batch(span);
        }
        prop_assert_eq!(singleton_hits, batch_hits);
        prop_assert_eq!(batched.len(), soa.len());
    }

    /// De-amortized LRFU: the snapshot is refreshed in registry-slot
    /// order, so its threshold trajectory — and therefore every eviction
    /// decision and pipeline counter — must be identical across layouts.
    #[test]
    fn soa_deamortized_lrfu_replays_aos_exactly(
        seed in any::<u64>(),
        n in 16usize..4000,
        keyspace in 8usize..600,
        q in 4usize..64,
        gamma in 0.1f64..1.5,
        decay in 0.5f64..0.99,
    ) {
        let mut zipf = ZipfSampler::new(keyspace, 1.0, seed);
        let trace: Vec<u64> = (0..n).map(|_| zipf.sample() as u64).collect();

        let mut aos = DeamortizedLrfu::new(q, gamma, decay);
        let mut soa: DeamortizedLrfu<u64, _> =
            DeamortizedLrfu::with_snapshot(gamma, decay, SoaAmortizedQMax::new(q, gamma));
        for (i, &k) in trace.iter().enumerate() {
            let a = aos.request(k);
            let s = soa.request(k);
            prop_assert_eq!(a, s, "hit/miss diverged at request {}", i);
        }
        prop_assert_eq!(aos.len(), soa.len());
        prop_assert_eq!(aos.stats(), soa.stats());
        let (lo, hi) = aos.capacity_bounds();
        prop_assert!(aos.len() <= hi, "population {} above bound {}", aos.len(), hi);
        prop_assert!(lo <= hi);
    }

    /// Keyed-index replay: the flow-table index (default) must replay
    /// the HashMap-era `StdIndex` bit-exactly — same hit/miss on every
    /// request. The two indexes iterate their merge scratch in
    /// different orders, but LRFU scores are tie-free floats on any
    /// deterministic trace, so maintenance must cut the same survivor
    /// set regardless of iteration order.
    #[test]
    fn qmax_lrfu_flow_index_replays_std_index_exactly(
        seed in any::<u64>(),
        n in 16usize..3000,
        keyspace in 8usize..600,
        q in 2usize..64,
        gamma in 0.05f64..1.5,
        decay in 0.5f64..0.99,
    ) {
        let mut zipf = ZipfSampler::new(keyspace, 1.0, seed);
        let trace: Vec<u64> = (0..n).map(|_| zipf.sample() as u64).collect();

        let mut flow = QMaxLrfu::new(q, gamma, decay);
        let mut std_ = QMaxLrfu::<u64, _, StdIndex>::new_in(q, gamma, decay);
        for (i, &k) in trace.iter().enumerate() {
            let f = flow.request(k);
            let s = std_.request(k);
            prop_assert_eq!(f, s, "hit/miss diverged at request {}", i);
        }
        prop_assert_eq!(flow.len(), std_.len());
    }

    /// Same replay for the de-amortized pipeline: its registry order is
    /// a `Vec` independent of the key index, so FlowIndex and StdIndex
    /// must agree on hits, pipeline stats, and population exactly.
    #[test]
    fn deamortized_lrfu_flow_index_replays_std_index_exactly(
        seed in any::<u64>(),
        n in 16usize..3000,
        keyspace in 8usize..600,
        q in 4usize..64,
        gamma in 0.1f64..1.5,
        decay in 0.5f64..0.99,
    ) {
        let mut zipf = ZipfSampler::new(keyspace, 1.0, seed);
        let trace: Vec<u64> = (0..n).map(|_| zipf.sample() as u64).collect();

        let mut flow = DeamortizedLrfu::new(q, gamma, decay);
        let mut std_ = DeamortizedLrfu::<u64, _, StdIndex>::new_in(q, gamma, decay);
        for (i, &k) in trace.iter().enumerate() {
            let f = flow.request(k);
            let s = std_.request(k);
            prop_assert_eq!(f, s, "hit/miss diverged at request {}", i);
        }
        prop_assert_eq!(flow.len(), std_.len());
        prop_assert_eq!(flow.stats(), std_.stats());
    }
}
