//! Differential property tests for the backend-generic layers: every
//! slack-window algorithm and the de-amortized LRFU must behave the same
//! whether their interval blocks are array-of-structs ([`AmortizedQMax`])
//! or structure-of-arrays ([`SoaAmortizedQMax`]) — and whether arrivals
//! come one at a time or through the batched kernels. The q-MAX LRFU
//! holds no backend; its property checks the paper's guarantees against
//! an exact reference instead.
//!
//! Windows are compared as sorted *value* multisets: the two layouts may
//! retain different sub-top-q candidates (ids tie-break arbitrarily and
//! compaction orders differ), but the final top-q cut of any query is
//! the exact top-q of the retained window content, which depends only on
//! arrival counts — so value multisets must match at every common
//! stream position. The de-amortized LRFU comparison is stricter: its
//! snapshot is fed in a deterministic slot order, so the *entire
//! hit/miss sequence* must be byte-for-byte identical across layouts.
//!
//! Streams cover the shapes named by the paper's workloads: Zipf-skewed
//! ids/values, all-equal values, slack fractions τ near 0 and 1, and
//! windows smaller than the reservoir (`W < q`).

use proptest::prelude::*;
use qmax_core::{
    AmortizedQMax, BasicSlackQMax, BatchInsert, HierSlackQMax, IntervalBackend, LazySlackQMax,
    QMax, SoaAmortizedQMax, TimeSlackQMax,
};
use qmax_lrfu::{Cache, DeamortizedLrfu, DecayScore, QMaxLrfu};
use qmax_traces::zipf::ZipfSampler;
use std::collections::{HashMap, HashSet};

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

fn sorted_pairs(mut pairs: Vec<(u32, u64)>) -> Vec<(u32, u64)> {
    pairs.sort_unstable();
    pairs
}

/// Drives `vals` through a basic window and a time window stamped out of
/// the same prototype, giving item `i` the timestamp `i`: singletons
/// for the first half, `chunk`-sized batches for the rest. After every
/// insert and every batch both must list the same `(id, value)` pairs,
/// the time window queried at the arrival count.
fn assert_time_window_on_arrival_clock<B: IntervalBackend<u32, u64>>(
    vals: &[u64],
    w: usize,
    tau: f64,
    proto: B,
    chunk: usize,
) {
    let mut count = BasicSlackQMax::with_backend(w, tau, proto.fresh());
    let mut time = TimeSlackQMax::with_backend(w as u64, tau, proto);
    prop_assert_eq!(count.block_size() as u64, time.block_ns());
    prop_assert_eq!(count.effective_window() as u64, time.effective_window_ns());
    let half = vals.len() / 2;
    for (i, &v) in vals[..half].iter().enumerate() {
        count.insert(i as u32, v);
        time.insert(i as u32, v, i as u64);
        prop_assert_eq!(
            sorted_pairs(count.query()),
            sorted_pairs(time.query_at(i as u64 + 1)),
            "clocks diverged after singleton {}",
            i
        );
    }
    let timed: Vec<(u32, u64, u64)> = (half..vals.len())
        .map(|i| (i as u32, vals[i], i as u64))
        .collect();
    for span in timed.chunks(chunk) {
        let pairs: Vec<(u32, u64)> = span.iter().map(|&(id, v, _)| (id, v)).collect();
        count.insert_batch(&pairs);
        time.insert_batch(span);
        let now = span[span.len() - 1].2 + 1;
        prop_assert_eq!(
            sorted_pairs(count.query()),
            sorted_pairs(time.query_at(now)),
            "clocks diverged after the batch ending at {}",
            now
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The count window is the time window on the arrival clock: the
    /// basic window over `w` items and the time window over `w` ns,
    /// with item `i` stamped `ts = i`, hold identical answers at every
    /// position, on both layouts, across τ ∈ [0.003, 1.0] and
    /// duplicate-heavy streams. Windowed shards stamped with a global
    /// arrival index stand on this equivalence.
    #[test]
    fn basic_window_is_the_time_window_on_the_arrival_clock(
        seed in any::<u64>(),
        n in 32usize..1200,
        q in 1usize..40,
        w in 1usize..1200,
        tau_sel in 0usize..6,
        all_equal in 0usize..2,
        soa in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..200,
    ) {
        let tau = TAUS[tau_sel];
        let vals = value_stream(n, seed, all_equal == 1);
        if soa == 1 {
            assert_time_window_on_arrival_clock(&vals, w, tau, SoaAmortizedQMax::new(q, gamma), chunk);
        } else {
            assert_time_window_on_arrival_clock(&vals, w, tau, AmortizedQMax::new(q, gamma), chunk);
        }
    }

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

    /// q-MAX LRFU keeps the paper's guarantees after every request:
    /// the population stays within `[q, ⌈q(1+γ)⌉]` once `q` distinct
    /// keys have been requested, and the `q` keys with the highest
    /// exact reference scores are cached (a key tied with the q-th
    /// score may go instead of another at that score). A key's score
    /// counts the requests since it last entered the cache, as in the
    /// paper's construction, where an evicted item leaves the q-MAX
    /// with its merged score. A never-restarted history is no bound:
    /// with `c` near 1, a key evicted on each arrival can out-score
    /// every resident key before one arrival alone is enough to stay.
    #[test]
    fn qmax_lrfu_keeps_top_q_after_every_request(
        seed in any::<u64>(),
        n in 16usize..4000,
        keyspace in 8usize..600,
        q in 2usize..64,
        gamma in 0.05f64..1.5,
        decay in 0.5f64..0.99,
    ) {
        let mut zipf = ZipfSampler::new(keyspace, 1.0, seed);
        let trace: Vec<u64> = (0..n).map(|_| zipf.sample() as u64).collect();

        let mut cache = QMaxLrfu::new(q, gamma, decay);
        let (_, cap) = cache.capacity_bounds();
        let ds = DecayScore::new(decay);
        let mut reference: HashMap<u64, f64> = HashMap::new();
        let mut distinct: HashSet<u64> = HashSet::new();
        let mut ranked: Vec<(f64, u64)> = Vec::new();
        for (i, &k) in trace.iter().enumerate() {
            cache.request(k);
            let w = reference.entry(k).or_insert(f64::NEG_INFINITY);
            *w = ds.bump(*w, i as u64 + 1);
            distinct.insert(k);
            prop_assert!(cache.len() <= cap, "population {} above {} at {}", cache.len(), cap, i);
            if distinct.len() >= q {
                prop_assert!(cache.len() >= q, "population {} below q at {}", cache.len(), i);
            }
            ranked.clear();
            ranked.extend(reference.iter().map(|(&k, &w)| (w, k)));
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
            if let Some(&(floor, _)) = ranked.get(q - 1) {
                for &(w, k) in &ranked[..q] {
                    prop_assert!(
                        cache.contains(&k) || w == floor,
                        "top-{} key {} (score {}) evicted at {}", q, k, w, i
                    );
                }
            }
            // An evicted key's score restarts from -∞.
            reference.retain(|k, _| cache.contains(k));
        }
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
}
