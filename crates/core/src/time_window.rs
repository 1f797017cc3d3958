//! q-MAX over **time-based** slack windows.
//!
//! For network-wide settings the paper defines windows in time rather
//! than item counts ("consider a window size of 24 hours; if τ = 1/24,
//! we get a slack window that varies between 23 and 24 hours",
//! Section 4.3.4): distributed observation points cannot agree on item
//! counts, but they share timestamps. This structure cuts *time* into
//! `⌈1/τ⌉` fixed-duration blocks and otherwise works like
//! [`crate::BasicSlackQMax`].

use crate::amortized::AmortizedQMax;
use crate::entry::{retain_top_q, Entry};
use crate::traits::IntervalBackend;

/// q-MAX over a time-based `(W, τ)`-slack window: queries list the `q`
/// largest items among those that arrived in the last `W(1−τ)..W`
/// nanoseconds.
///
/// Items must be inserted with non-decreasing timestamps (arrival
/// order), as produced by any single observation point.
///
/// Like the count-based windows, the structure is generic over its
/// per-block [`IntervalBackend`]; the default keeps the historical
/// array-of-structs [`AmortizedQMax`] blocks, while
/// `with_backend(…, SoaAmortizedQMax::new(q, γ))` routes each block
/// through the structure-of-arrays
/// [`SoaAmortizedQMax`](crate::SoaAmortizedQMax) so
/// [`TimeSlackQMax::insert_batch`] runs the branchless batched kernel
/// per block.
///
/// ```
/// use qmax_core::TimeSlackQMax;
/// // 1 ms window with 25% slack, top-2.
/// let mut w = TimeSlackQMax::new(2, 0.5, 1_000_000, 0.25);
/// w.insert(1u32, 500u64, 0);
/// w.insert(2u32, 900u64, 10_000);
/// // ... 2 ms later the early items have expired:
/// w.insert(3u32, 100u64, 2_000_000);
/// let top: Vec<u32> = w.query_at(2_000_000).into_iter().map(|(id, _)| id).collect();
/// assert_eq!(top, vec![3]);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSlackQMax<I, V, B = AmortizedQMax<I, V>> {
    q: usize,
    /// Block duration in nanoseconds, `⌈W·τ⌉`.
    block_ns: u64,
    /// Ring of per-block reservoirs; slot = epoch % len.
    blocks: Vec<B>,
    /// Epoch (block index since time 0) of each slot's content;
    /// `u64::MAX` = never used.
    epochs: Vec<u64>,
    /// Most recent timestamp seen (for monotonicity checking).
    last_ts: u64,
    _marker: crate::window::RingMarker<I, V>,
}

impl<I: Clone, V: Ord + Clone> TimeSlackQMax<I, V> {
    /// Creates a time-based slack-window q-MAX over windows of
    /// `window_ns` nanoseconds with slack fraction `tau` and per-block
    /// space-slack `gamma`, backed by array-of-structs
    /// [`AmortizedQMax`] blocks.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`, `window_ns == 0`, or `tau` outside `(0, 1]`.
    /// Use [`TimeSlackQMax::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64, window_ns: u64, tau: f64) -> Self {
        Self::try_new(q, gamma, window_ns, tau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`TimeSlackQMax::new`]: rejects `q == 0`, bad `gamma`,
    /// `window_ns == 0`, and `tau` outside `(0, 1]` instead of
    /// panicking.
    pub fn try_new(
        q: usize,
        gamma: f64,
        window_ns: u64,
        tau: f64,
    ) -> Result<Self, crate::QMaxError> {
        Self::try_with_backend(window_ns, tau, AmortizedQMax::try_new(q, gamma)?)
    }
}

/// [`TimeSlackQMax`] with per-block adaptive backends. Time blocks have
/// no a-priori item count, so the policy sees no fill hint and keys on
/// block capacity alone.
pub type AdaptiveTimeSlackQMax<I, V> = TimeSlackQMax<I, V, crate::AdaptiveBackend<I, V>>;

impl<I: Copy + 'static, V: Ord + Copy + 'static> AdaptiveTimeSlackQMax<I, V> {
    /// Like [`TimeSlackQMax::new`], but every block delegates to the
    /// layout the global backend policy picks for its capacity.
    pub fn new_adaptive(q: usize, gamma: f64, window_ns: u64, tau: f64) -> Self {
        Self::try_new_adaptive(q, gamma, window_ns, tau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`AdaptiveTimeSlackQMax::new_adaptive`].
    pub fn try_new_adaptive(
        q: usize,
        gamma: f64,
        window_ns: u64,
        tau: f64,
    ) -> Result<Self, crate::QMaxError> {
        let proto = crate::AdaptiveBackend::try_with_fill_hint(q, gamma, None)?;
        Self::try_with_backend(window_ns, tau, proto)
    }
}

impl<I, V: Ord, B: IntervalBackend<I, V>> TimeSlackQMax<I, V, B> {
    /// Creates a time-based slack-window q-MAX whose blocks are stamped
    /// out of the given backend prototype via
    /// [`IntervalBackend::fresh`].
    ///
    /// # Panics
    ///
    /// Panics if `window_ns == 0` or `tau` outside `(0, 1]`. Use
    /// [`TimeSlackQMax::try_with_backend`] at fallible API boundaries.
    pub fn with_backend(window_ns: u64, tau: f64, proto: B) -> Self {
        Self::try_with_backend(window_ns, tau, proto).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`TimeSlackQMax::with_backend`].
    pub fn try_with_backend(window_ns: u64, tau: f64, proto: B) -> Result<Self, crate::QMaxError> {
        if window_ns == 0 {
            return Err(crate::QMaxError::ZeroWindow);
        }
        crate::error::check_tau(tau)?;
        let n_blocks = (1.0 / tau).ceil() as usize;
        let block_ns = window_ns.div_ceil(n_blocks as u64).max(1);
        Ok(TimeSlackQMax {
            q: proto.q(),
            block_ns,
            blocks: (0..n_blocks).map(|_| proto.fresh()).collect(),
            epochs: vec![u64::MAX; n_blocks],
            last_ts: 0,
            _marker: std::marker::PhantomData,
        })
    }

    /// Block duration in nanoseconds.
    pub fn block_ns(&self) -> u64 {
        self.block_ns
    }

    /// The effective window duration `block_ns · n_blocks`.
    pub fn effective_window_ns(&self) -> u64 {
        self.block_ns * self.blocks.len() as u64
    }

    /// The configured reservoir size.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Recycles the slot for `epoch` in place if its content belongs to
    /// an older epoch, and returns the slot index.
    fn slot_for(&mut self, epoch: u64) -> usize {
        let slot = (epoch % self.blocks.len() as u64) as usize;
        if self.epochs[slot] != epoch {
            // The slot's previous content is a full window old: recycle.
            self.blocks[slot].reset();
            self.epochs[slot] = epoch;
        }
        slot
    }

    /// Offers an item observed at `ts_ns`. Timestamps must be
    /// non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `ts_ns` precedes the previous insert.
    pub fn insert(&mut self, id: I, val: V, ts_ns: u64) -> bool {
        debug_assert!(ts_ns >= self.last_ts, "timestamps must be non-decreasing");
        self.last_ts = ts_ns;
        let epoch = ts_ns / self.block_ns;
        let slot = self.slot_for(epoch);
        self.blocks[slot].insert(id, val)
    }

    /// Lists the `q` largest items within the slack window ending at
    /// `now_ns` (usually the most recent timestamp).
    pub fn query_at(&mut self, now_ns: u64) -> Vec<(I, V)> {
        let cur_epoch = now_ns / self.block_ns;
        let oldest = cur_epoch.saturating_sub(self.blocks.len() as u64 - 1);
        let mut scratch: Vec<Entry<I, V>> = Vec::new();
        for (slot, block) in self.blocks.iter().enumerate() {
            let e = self.epochs[slot];
            if e == u64::MAX || e < oldest || e > cur_epoch {
                continue;
            }
            block.candidates_into(&mut scratch);
        }
        retain_top_q(&mut scratch, 0, self.q);
        scratch.into_iter().map(|e| (e.id, e.val)).collect()
    }

    /// Lists the `q` largest items as of the latest inserted timestamp.
    pub fn query(&mut self) -> Vec<(I, V)> {
        self.query_at(self.last_ts)
    }

    /// Clears the structure.
    pub fn reset(&mut self) {
        for b in &mut self.blocks {
            b.reset();
        }
        self.epochs.fill(u64::MAX);
        self.last_ts = 0;
    }
}

impl<I: Clone, V: Ord + Clone, B: IntervalBackend<I, V>> TimeSlackQMax<I, V, B> {
    /// Offers a timestamped batch, in order. Semantically identical to
    /// calling [`TimeSlackQMax::insert`] per item, but runs of items
    /// that land in the same time block are forwarded to the block's
    /// batch kernel in one call, so structure-of-arrays blocks get the
    /// branchless chunked filter.
    ///
    /// Timestamps must be non-decreasing across the batch (and with
    /// respect to earlier inserts). Returns the number of items
    /// admitted.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on a timestamp regression.
    pub fn insert_batch(&mut self, items: &[(I, V, u64)]) -> usize {
        let mut admitted = 0;
        let mut scratch: Vec<(I, V)> = Vec::new();
        let mut i = 0;
        while i < items.len() {
            let epoch = items[i].2 / self.block_ns;
            let mut j = i;
            scratch.clear();
            while j < items.len() && items[j].2 / self.block_ns == epoch {
                debug_assert!(
                    items[j].2 >= self.last_ts,
                    "timestamps must be non-decreasing"
                );
                self.last_ts = items[j].2;
                scratch.push((items[j].0.clone(), items[j].1.clone()));
                j += 1;
            }
            let slot = self.slot_for(epoch);
            admitted += self.blocks[slot].insert_batch(&scratch);
            i = j;
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soa::SoaAmortizedQMax;

    #[test]
    fn expires_by_time_not_count() {
        // Huge value at t=0, then a quiet period; after > W ns it must
        // be gone even though few items arrived.
        let mut w = TimeSlackQMax::new(2, 0.5, 1_000, 0.25);
        w.insert(0u32, 1_000_000u64, 0);
        w.insert(1u32, 5u64, 2_000);
        w.insert(2u32, 7u64, 2_100);
        let got: Vec<u64> = w.query_at(2_100).into_iter().map(|(_, v)| v).collect();
        assert!(
            got.iter().all(|&v| v < 1_000_000),
            "expired item survived: {got:?}"
        );
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn keeps_recent_items_within_window() {
        let mut w = TimeSlackQMax::new(3, 0.5, 10_000, 0.1);
        for i in 0..100u64 {
            w.insert(i as u32, i, i * 100); // spans 10_000 ns
        }
        let mut got: Vec<u64> = w.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(got, vec![97, 98, 99]);
    }

    #[test]
    fn slack_contract_over_dense_stream() {
        // Values rise with time; the top-q must always come from the
        // last W(1-tau)..W nanoseconds.
        let w_ns = 4_000u64;
        let tau = 0.25;
        let mut w = TimeSlackQMax::new(4, 0.5, w_ns, tau);
        let mut all: Vec<(u64, u64)> = Vec::new(); // (ts, val)
        let mut state = 7u64;
        for i in 0..5_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ts = i * 10;
            let val = state >> 20;
            all.push((ts, val));
            w.insert(i as u32, val, ts);
            if i % 331 == 0 && ts > 2 * w.effective_window_ns() {
                let mut got: Vec<u64> = w.query_at(ts).into_iter().map(|(_, v)| v).collect();
                got.sort_unstable();
                let w_eff = w.effective_window_ns();
                let block = w.block_ns();
                // Try every cutoff the slack permits.
                let ok = (0..=block)
                    .step_by(1.max(block as usize / 50))
                    .any(|slack| {
                        let cutoff = ts.saturating_sub(w_eff - slack);
                        // Window = epochs; compute by epoch arithmetic like
                        // the structure does.
                        let mut expect: Vec<u64> = all
                            .iter()
                            .filter(|&&(t, _)| t >= cutoff && t <= ts)
                            .map(|&(_, v)| v)
                            .collect();
                        expect.sort_unstable_by(|a, b| b.cmp(a));
                        expect.truncate(4);
                        expect.sort_unstable();
                        expect == got
                    });
                // The exact cutoff is block-aligned; accept any
                // block-aligned window in range.
                let cur_epoch = ts / block;
                let oldest = cur_epoch + 1 - w.blocks.len() as u64;
                let cutoff = oldest * block;
                let mut expect: Vec<u64> = all
                    .iter()
                    .filter(|&&(t, _)| t >= cutoff && t <= ts)
                    .map(|&(_, v)| v)
                    .collect();
                expect.sort_unstable_by(|a, b| b.cmp(a));
                expect.truncate(4);
                expect.sort_unstable();
                assert!(ok || expect == got, "window mismatch at ts={ts}: {got:?}");
            }
        }
    }

    #[test]
    fn sparse_bursts_across_many_windows() {
        let mut w = TimeSlackQMax::new(2, 1.0, 100, 0.5);
        // Bursts separated by long gaps; only the last burst counts.
        for burst in 0..20u64 {
            let base = burst * 100_000;
            for j in 0..10u64 {
                w.insert((burst * 10 + j) as u32, burst * 100 + j, base + j);
            }
        }
        let got: Vec<u64> = w.query().into_iter().map(|(_, v)| v).collect();
        assert!(
            got.iter().all(|&v| v >= 1900),
            "stale burst leaked: {got:?}"
        );
    }

    #[test]
    fn reset_clears() {
        let mut w = TimeSlackQMax::new(2, 0.5, 1000, 0.5);
        w.insert(1u32, 10u64, 5);
        w.reset();
        assert!(w.query_at(5).is_empty());
        w.insert(2u32, 20u64, 7);
        assert_eq!(w.query_at(7).len(), 1);
    }

    #[test]
    fn batch_insert_equals_singletons_including_soa() {
        let mut state = 11u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let items: Vec<(u32, u64, u64)> = (0..3000u64)
            .map(|i| (i as u32, next() % 100_000, i * 7))
            .collect();
        let mut one = TimeSlackQMax::new(4, 0.5, 4_000, 0.25);
        let mut batch = TimeSlackQMax::new(4, 0.5, 4_000, 0.25);
        let mut soa = TimeSlackQMax::with_backend(4_000, 0.25, SoaAmortizedQMax::new(4, 0.5));
        for &(id, v, ts) in &items {
            one.insert(id, v, ts);
        }
        for span in items.chunks(97) {
            batch.insert_batch(span);
            soa.insert_batch(span);
        }
        let sorted = |mut v: Vec<(u32, u64)>| {
            v.sort_unstable();
            v
        };
        let vals = |v: Vec<(u32, u64)>| {
            let mut v: Vec<u64> = v.into_iter().map(|(_, x)| x).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(one.query()), sorted(batch.query()));
        // SoA may pick different ids among equal values; the value
        // multisets must agree.
        assert_eq!(vals(one.query()), vals(soa.query()));
    }
}
