//! LRFU cache policies (Lee et al., IEEE ToC 2001) and the q-MAX paper's
//! constant-time LRFU (Section 5.1).
//!
//! LRFU scores each cached item by `Σ c^(t−i)` over its access times
//! `i` — a spectrum between LRU (`c → 0` keeps only recency) and LFU
//! (`c = 1` keeps only frequency) — and evicts the minimum-score item.
//! Classical implementations pay `O(log q)` (indexed heap) or `O(q)`
//! (scan / rebuild) per request; the paper's exponential-decay q-MAX
//! construction brings this to amortized `O(1)` at the cost of letting
//! the cache population float between `q` and `q(1+γ)`.
//!
//! Scores are maintained in the numerically safe log domain: an access
//! at time `t` contributes `exp(λt)` (`λ = −ln c`), aggregated with
//! log-sum-exp, and the decayed score at time `T` is the monotone
//! transform `exp(w − λT)` — so ordering by the stored `w` is ordering
//! by score, with no overflow for streams of any practical length.
//!
//! * [`HeapLrfu`] — exact LRFU on an indexed min-heap, `O(log q)`.
//! * [`ScanLrfu`] — exact LRFU with `O(q)` scan eviction, the
//!   no-sift-heap behaviour the paper benchmarks against (Figure 9).
//! * [`QMaxLrfu`] — the paper's q-MAX based LRFU: amortized `O(1)` per
//!   request, population in `[q, q(1+γ)]`, guaranteeing the `q`
//!   highest-score items (scored since they entered the cache) are
//!   never evicted. Each request folds into its key's score at probe
//!   time, so the request log keeps no storage.
//! * [`Cache`] / [`hit_ratio`] — the shared policy interface and
//!   evaluation harness (Table 2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod deamortized;
mod heap_lrfu;
mod qmax_lrfu;
mod scan_lrfu;
mod score;

pub use deamortized::{DeamortizedLrfu, DeamortizedLrfuStats};
pub use heap_lrfu::HeapLrfu;
pub use qmax_lrfu::QMaxLrfu;
pub use scan_lrfu::ScanLrfu;
pub use score::{fast_logaddexp, logaddexp, DecayScore, FAST_LOGADDEXP_ABS_ERR};

/// The cache-policy interface shared by all LRFU implementations.
pub trait Cache<K> {
    /// Processes a request for `key`; returns `true` on a cache hit.
    fn request(&mut self, key: K) -> bool;

    /// Number of items currently cached.
    fn len(&self) -> usize;

    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Minimum and maximum number of items the cache may hold once warm
    /// (`(q, q)` for exact policies, `(q, ⌈q(1+γ)⌉)` for q-MAX LRFU).
    fn capacity_bounds(&self) -> (usize, usize);

    /// Empties the cache and restarts time.
    fn reset(&mut self);

    /// Implementation name for benchmark labels.
    fn name(&self) -> &'static str;
}

/// Replays `trace` through `cache` and returns the hit ratio.
pub fn hit_ratio<K: Copy, C: Cache<K>>(cache: &mut C, trace: &[K]) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    let mut hits = 0u64;
    for &key in trace {
        if cache.request(key) {
            hits += 1;
        }
    }
    hits as f64 / trace.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmax_traces::gen::arc_like;

    #[test]
    fn hit_ratio_ordering_matches_paper_table2() {
        // Paper Table 2: LRFU(q) <= q-MAX LRFU(q, gamma) <= LRFU(q(1+gamma)),
        // up to noise. Check the ordering with a healthy margin.
        let trace = arc_like(200_000, 20_000, 42);
        let q = 2_000;
        let c = 0.75;
        for gamma in [0.5, 1.0] {
            let small = hit_ratio(&mut HeapLrfu::new(q, c), &trace);
            let qmax = hit_ratio(&mut QMaxLrfu::new(q, gamma, c), &trace);
            let big_q = ((q as f64) * (1.0 + gamma)).ceil() as usize;
            let large = hit_ratio(&mut HeapLrfu::new(big_q, c), &trace);
            assert!(
                qmax >= small - 0.01,
                "gamma={gamma}: qmax {qmax} below q-sized LRFU {small}"
            );
            assert!(
                qmax <= large + 0.01,
                "gamma={gamma}: qmax {qmax} above q(1+gamma)-sized LRFU {large}"
            );
        }
    }

    #[test]
    fn exact_policies_agree() {
        let trace = arc_like(50_000, 5_000, 7);
        let a = hit_ratio(&mut HeapLrfu::new(500, 0.75), &trace);
        let b = hit_ratio(&mut ScanLrfu::new(500, 0.75), &trace);
        assert!((a - b).abs() < 1e-12, "heap {a} vs scan {b}");
    }

    #[test]
    fn empty_trace_is_zero() {
        let mut c = HeapLrfu::new(10, 0.9);
        assert_eq!(hit_ratio(&mut c, &[] as &[u64]), 0.0);
    }
}
