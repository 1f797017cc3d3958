//! KMV count-distinct estimation (Bar-Yossef et al., RANDOM 2002).
//!
//! Each observation costs one membership probe of the admitted-hash
//! set, plus one insert on the rare admission; a span of keys is one
//! [`CountDistinct::observe`] per key.

use qmax_core::{FlowTable, Minimal, QMax};
use qmax_traces::hash;

/// Estimates the number of distinct keys in a stream by keeping the `q`
/// smallest distinct hash values (the "k minimum values" estimator).
///
/// With `v_q` the q-th smallest hash normalised to `(0, 1)`, the number
/// of distinct keys is estimated as `(q − 1) / v_q`. The reservoir of
/// minimal hashes is exactly the q-MAX pattern (wrapped in [`Minimal`]);
/// the paper replaces the original heap with q-MAX for constant-time
/// updates, and its slack-window variant gives the sliding-window
/// estimator with asymptotically faster queries than prior work.
///
/// A side set remembers every hash ever *admitted* so re-occurrences of
/// the same key are not double-inserted; by the paper's Theorem 2 only
/// `O(q log(D/q))` hashes are ever admitted, so the set stays small.
///
/// ```
/// use qmax_apps::CountDistinct;
/// use qmax_core::AmortizedQMax;
/// let mut cd = CountDistinct::new(AmortizedQMax::new(256, 0.5), 3);
/// for i in 0..50_000u64 {
///     cd.observe(i % 10_000); // 10k distinct keys
/// }
/// let est = cd.estimate();
/// assert!((est - 10_000.0).abs() / 10_000.0 < 0.25, "estimate {est}");
/// ```
#[derive(Debug, Clone)]
pub struct CountDistinct<Q> {
    reservoir: Q,
    seed: u64,
    /// `Some` in interval mode (suppress re-insertions of hashes already
    /// admitted once); `None` in windowed mode, where a re-occurrence
    /// must refresh the key's position in the window. A SIMD-probed
    /// [`FlowTable`] used as a set: this membership test runs once per
    /// observed key.
    admitted: Option<FlowTable<u64, ()>>,
}

impl<Q: QMax<u64, Minimal<u64>>> CountDistinct<Q> {
    /// Creates an interval estimator over the given q-MIN backend.
    pub fn new(reservoir: Q, seed: u64) -> Self {
        CountDistinct {
            reservoir,
            seed,
            admitted: Some(FlowTable::with_capacity(0)),
        }
    }

    /// Creates a sliding-window estimator: pair with a slack-window
    /// backend such as [`qmax_core::BasicSlackQMax`]. Re-occurrences are
    /// re-inserted (so recent duplicates keep a key alive in the
    /// window); the estimator de-duplicates hashes at query time.
    pub fn new_windowed(reservoir: Q, seed: u64) -> Self {
        CountDistinct {
            reservoir,
            seed,
            admitted: None,
        }
    }

    /// Processes one stream key.
    #[inline]
    pub fn observe(&mut self, key: u64) -> bool {
        let h = hash::hash64(key, self.seed);
        if let Some(admitted) = &mut self.admitted {
            if admitted.contains_key(&h) {
                return false;
            }
            let ok = self.reservoir.insert(key, Minimal(h));
            if ok {
                admitted.insert(h, ());
            }
            ok
        } else {
            self.reservoir.insert(key, Minimal(h))
        }
    }

    /// Estimates the number of distinct keys seen (within the window,
    /// for windowed instances).
    pub fn estimate(&mut self) -> f64 {
        let mut hashes: Vec<u64> = self
            .reservoir
            .query()
            .into_iter()
            .map(|(_, Minimal(h))| h)
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        let q = self.reservoir.q().min(hashes.len());
        if hashes.len() < self.reservoir.q() {
            return hashes.len() as f64;
        }
        let vq = (hashes[q - 1] as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        (q as f64 - 1.0) / vq
    }

    /// Number of hashes ever admitted (sizing diagnostic; expected
    /// `O(q log(D/q))`). Zero for windowed instances.
    pub fn admitted_count(&self) -> usize {
        self.admitted.as_ref().map_or(0, |s| s.len())
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.reservoir.reset();
        if let Some(admitted) = &mut self.admitted {
            admitted.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmax_core::{AmortizedQMax, BasicSlackQMax, HeapQMax};

    #[test]
    fn exact_below_q() {
        let mut cd = CountDistinct::new(HeapQMax::new(100), 1);
        for i in 0..50u64 {
            cd.observe(i);
            cd.observe(i); // duplicates must not count
        }
        assert_eq!(cd.estimate(), 50.0);
    }

    #[test]
    fn estimates_within_kmv_error() {
        for (distinct, q) in [(20_000u64, 512), (100_000, 1024)] {
            let mut cd = CountDistinct::new(AmortizedQMax::new(q, 0.5), 7);
            for i in 0..distinct * 3 {
                cd.observe(i % distinct);
            }
            let est = cd.estimate();
            let rel = (est - distinct as f64).abs() / distinct as f64;
            // KMV standard error is ~1/sqrt(q); allow 4 sigma.
            let tol = 4.0 / (q as f64).sqrt();
            assert!(
                rel < tol,
                "distinct={distinct} q={q}: est {est} rel {rel} tol {tol}"
            );
        }
    }

    #[test]
    fn heavy_duplication_does_not_bias() {
        // One hot key repeated constantly must not displace the sample.
        let q = 256;
        let mut cd = CountDistinct::new(AmortizedQMax::new(q, 0.5), 9);
        for i in 0..200_000u64 {
            if i % 2 == 0 {
                cd.observe(42);
            } else {
                cd.observe(i);
            }
        }
        let distinct = 1.0 + 100_000.0;
        let est = cd.estimate();
        let rel = (est - distinct).abs() / distinct;
        assert!(rel < 0.3, "est {est} rel {rel}");
    }

    #[test]
    fn admitted_set_is_logarithmic() {
        let q = 128;
        let mut cd = CountDistinct::new(AmortizedQMax::new(q, 0.5), 3);
        let d = 500_000u64;
        for i in 0..d {
            cd.observe(i);
        }
        let bound = 4.0 * q as f64 * (d as f64 / q as f64).ln() + 4.0 * q as f64;
        assert!(
            (cd.admitted_count() as f64) < bound,
            "admitted {} exceeds bound {bound}",
            cd.admitted_count()
        );
    }

    #[test]
    fn windowed_estimator_tracks_recent_distinct() {
        // Sliding-window count distinct (the paper's slack-window
        // improvement over Fusy-Giroire): keys cycle so the window
        // holds ~w distinct keys.
        let q = 256;
        let w = 20_000;
        let mut cd = CountDistinct::new_windowed(BasicSlackQMax::new(q, 0.5, w, 0.25), 5);
        for i in 0..197_500u64 {
            cd.observe(i); // all distinct; window sees ~w of them
        }
        // The slack window spans between W(1-tau) and W items; allow the
        // KMV standard error (1/sqrt(q) ~ 6%, take 4 sigma) around that
        // range.
        let est = cd.estimate();
        let lo = (w as f64) * 0.75 * (1.0 - 4.0 / (q as f64).sqrt());
        let hi = (w as f64) * (1.0 + 4.0 / (q as f64).sqrt());
        assert!(
            est >= lo && est <= hi,
            "windowed estimate {est} outside [{lo}, {hi}]"
        );
    }
}
