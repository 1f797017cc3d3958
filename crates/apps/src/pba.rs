//! Priority-Based Aggregation (Duffield et al., CIKM 2017).
//!
//! Each arrival costs one probe of the aggregation map
//! ([`FlowTable::entry`] finds or inserts the key's running total) and
//! one reservoir insert. Arrivals are processed strictly in order —
//! the map can be purged between any two of them — so a span of
//! arrivals is one [`Pba::observe`] per arrival.

use qmax_core::{FlowTable, OrderedF64, QMax};
use qmax_traces::hash;
use std::collections::HashMap;

/// A PBA sample entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbaSample {
    /// The stream key.
    pub key: u64,
    /// The key's aggregate weight at query time.
    pub weight: f64,
    /// The key's current priority `weight / u_key`.
    pub priority: f64,
}

/// Priority-Based Aggregation: weighted sampling where keys repeat and
/// each key should be sampled proportionally to its **total** weight.
///
/// Every arrival `(x, w)` raises the running aggregate `w_x`, and the
/// key's priority becomes `w_x / u_x` (hash-derived `u_x ∈ (0,1)`). The
/// reservoir must therefore support *increasing* a stored key's value.
/// Heaps without sift operations only support that by rebuilding — the
/// `O(q)` behaviour the paper observes for its PBA heap baseline
/// (Figure 8e–f). Appropriate backends here are the duplicate-merging
/// [`qmax_core::DedupQMax`] (ours), and the update-in-place
/// [`qmax_core::IndexedHeapQMax`] / [`qmax_core::KeyedSkipListQMax`]
/// baselines.
///
/// ```
/// use qmax_apps::Pba;
/// use qmax_core::DedupQMax;
/// let mut pba = Pba::new(DedupQMax::new(10, 0.5), 7);
/// for round in 0..100 {
///     for key in 0..50u64 {
///         pba.observe(key, 1.0 + (key % 5 + round % 3) as f64);
///     }
/// }
/// assert!(pba.sample().len() <= 10);
/// ```
#[derive(Debug, Clone)]
pub struct Pba<Q> {
    reservoir: Q,
    seed: u64,
    /// Running aggregate weight per key still relevant to the sample —
    /// a SIMD-probed [`FlowTable`], probed once per arrival
    /// ([`FlowTable::entry`]).
    agg: FlowTable<u64, f64>,
    /// Purge the aggregate map when it exceeds this many entries.
    purge_at: usize,
}

impl<Q: QMax<u64, OrderedF64>> Pba<Q> {
    /// Creates a PBA instance over the given reservoir backend.
    pub fn new(reservoir: Q, seed: u64) -> Self {
        let purge_at = (reservoir.q() * 8).max(1024);
        Pba {
            reservoir,
            seed,
            agg: FlowTable::with_capacity(0),
            purge_at,
        }
    }

    /// Processes one arrival of `key` carrying `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive and finite.
    pub fn observe(&mut self, key: u64, weight: f64) -> bool {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "weights must be positive and finite"
        );
        let u = hash::to_unit_open(key, self.seed);
        let (t, present) = self.agg.entry(key, || weight);
        if present {
            *t += weight;
        }
        let total = *t;
        let priority = total / u;
        let admitted = self.reservoir.insert(key, OrderedF64(priority));
        if self.agg.len() > self.purge_at {
            self.purge();
        }
        admitted
    }

    /// Drops aggregates whose priority can no longer reach the
    /// reservoir (their key would be filtered on arrival), bounding the
    /// map to keys that still matter. Keys at or above the admission
    /// threshold are kept — they may still sit in the reservoir.
    fn purge(&mut self) {
        let Some(threshold) = self.reservoir.threshold() else {
            return;
        };
        let seed = self.seed;
        self.agg.retain_with(|&key, &mut total| {
            let u = hash::to_unit_open(key, seed);
            OrderedF64(total / u) >= threshold
        });
    }

    /// The current sample: up to `q` distinct keys with their aggregate
    /// weights, highest priority first.
    pub fn sample(&mut self) -> Vec<PbaSample> {
        let mut best: HashMap<u64, f64> = HashMap::new();
        for (key, p) in self.reservoir.query() {
            let p = p.get();
            let slot = best.entry(key).or_insert(p);
            if *slot < p {
                *slot = p;
            }
        }
        let mut out: Vec<PbaSample> = best
            .into_iter()
            .map(|(key, priority)| {
                let u = hash::to_unit_open(key, self.seed);
                let weight = self.agg.get(&key).copied().unwrap_or(priority * u);
                PbaSample {
                    key,
                    weight,
                    priority,
                }
            })
            .collect();
        out.sort_by(|a, b| b.priority.total_cmp(&a.priority));
        out
    }

    /// Estimates the total weight of the keys selected by `subset`
    /// using the priority-sampling estimator over aggregates: with `τ`
    /// the smallest priority in a full sample, every other sampled key
    /// in the subset contributes `max(weight, τ)`.
    pub fn estimate_subset<P: Fn(u64) -> bool>(&mut self, subset: P) -> f64 {
        let sample = self.sample();
        if sample.len() < self.reservoir.q() {
            return sample
                .iter()
                .filter(|s| subset(s.key))
                .map(|s| s.weight)
                .sum();
        }
        let tau = sample.last().expect("non-empty").priority;
        sample
            .iter()
            .take(sample.len() - 1)
            .filter(|s| subset(s.key))
            .map(|s| s.weight.max(tau))
            .sum()
    }

    /// Number of keys currently tracked in the aggregation map.
    pub fn tracked_keys(&self) -> usize {
        self.agg.len()
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.reservoir.reset();
        self.agg.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmax_core::{DedupQMax, IndexedHeapQMax, KeyedSkipListQMax};

    #[test]
    fn aggregates_repeated_keys() {
        let mut pba = Pba::new(IndexedHeapQMax::new(5), 1);
        for _ in 0..10 {
            pba.observe(42, 2.0);
        }
        let s = pba.sample();
        let entry = s.iter().find(|s| s.key == 42).expect("key 42 sampled");
        assert!((entry.weight - 20.0).abs() < 1e-9);
    }

    #[test]
    fn sample_is_deduplicated_and_bounded() {
        let mut pba = Pba::new(DedupQMax::new(8, 0.5), 2);
        for round in 0..200 {
            for key in 0..100u64 {
                pba.observe(key, 1.0 + (round % 4) as f64);
            }
        }
        let s = pba.sample();
        assert!(s.len() <= 8);
        let mut keys: Vec<u64> = s.iter().map(|s| s.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), s.len(), "duplicate keys in sample");
    }

    #[test]
    fn heaviest_keys_dominate_the_sample() {
        // Keys 0..10 get 10000x the weight of the rest; with a generous
        // reservoir they must all be sampled.
        let mut pba = Pba::new(DedupQMax::new(20, 1.0), 3);
        for _round in 0..50 {
            for key in 0..200u64 {
                let w = if key < 10 { 10_000.0 } else { 1.0 };
                pba.observe(key, w);
            }
        }
        let s = pba.sample();
        let sampled: std::collections::HashSet<u64> = s.iter().map(|s| s.key).collect();
        for key in 0..10u64 {
            assert!(
                sampled.contains(&key),
                "heavy key {key} missing from sample"
            );
        }
    }

    #[test]
    fn backends_agree_on_sampled_keys() {
        let mut a = Pba::new(DedupQMax::new(16, 0.5), 9);
        let mut b = Pba::new(IndexedHeapQMax::new(16), 9);
        let mut c = Pba::new(KeyedSkipListQMax::new(16), 9);
        for round in 0..100u64 {
            for key in 0..300u64 {
                let w = 1.0 + ((key * 7 + round) % 23) as f64;
                a.observe(key, w);
                b.observe(key, w);
                c.observe(key, w);
            }
        }
        let keys = |s: Vec<PbaSample>| {
            let mut v: Vec<u64> = s.into_iter().map(|x| x.key).collect();
            v.sort_unstable();
            v
        };
        let ka = keys(a.sample());
        assert_eq!(ka, keys(b.sample()));
        assert_eq!(ka, keys(c.sample()));
    }

    #[test]
    fn subset_estimate_tracks_truth() {
        let mut pba = Pba::new(DedupQMax::new(1500, 0.5), 13);
        let mut truth = 0.0;
        for round in 0..10u64 {
            for key in 0..10_000u64 {
                let w = 1.0 + ((key ^ round) % 13) as f64;
                if key % 2 == 0 {
                    truth += w;
                }
                pba.observe(key, w);
            }
        }
        let est = pba.estimate_subset(|k| k % 2 == 0);
        let rel = (est - truth).abs() / truth;
        assert!(rel < 0.15, "est {est} truth {truth} rel {rel}");
    }

    #[test]
    fn aggregate_map_stays_bounded() {
        let mut pba = Pba::new(DedupQMax::new(16, 0.5), 4);
        for key in 0..500_000u64 {
            pba.observe(key, 1.0);
        }
        assert!(
            pba.tracked_keys() <= 1024 + 1,
            "aggregate map grew to {}",
            pba.tracked_keys()
        );
    }

    #[test]
    fn priorities_only_grow_per_key() {
        let mut pba = Pba::new(IndexedHeapQMax::new(4), 5);
        pba.observe(7, 1.0);
        let p1 = pba.sample().iter().find(|s| s.key == 7).unwrap().priority;
        pba.observe(7, 1.0);
        let p2 = pba.sample().iter().find(|s| s.key == 7).unwrap().priority;
        assert!(p2 > p1);
    }
}
