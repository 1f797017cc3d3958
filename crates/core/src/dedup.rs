//! Duplicate-merging q-MAX for streams that *re-insert* keys with
//! growing values.
//!
//! Applications such as Priority-Based Aggregation and UnivMon's
//! heavy-hitter tracking re-offer the same key with an ever-increasing
//! value. A plain q-MAX would fill with stale snapshots of the hottest
//! keys and push its admission threshold far above the q-th largest
//! *distinct* key. Following the paper's LRFU construction (Section
//! 5.1), this variant merges duplicates — keeping each key's largest
//! value — as part of every compaction, preserving the `O(1)` amortized
//! update cost: after merging, at most `q` distinct candidates remain,
//! so at least `⌈qγ⌉` arrivals separate consecutive compactions.

use crate::entry::Entry;
use crate::flow_table::{FlowIndex, IndexFamily, KeyIndex};
use crate::traits::{BatchInsert, QMax};
use qmax_select::nth_smallest;
use std::hash::Hash;

/// Amortized q-MAX over `(key, value)` streams where keys repeat and
/// only each key's **largest** value matters.
///
/// ```
/// use qmax_core::{DedupQMax, QMax};
/// let mut top = DedupQMax::new(2, 0.5);
/// for round in 1..=100u64 {
///     top.insert("hot", round * 10); // growing value, same key
///     top.insert("warm", round);
///     top.insert("cold", 1);
/// }
/// let mut ids: Vec<&str> = top.query().into_iter().map(|(id, _)| id).collect();
/// ids.sort();
/// assert_eq!(ids, vec!["hot", "warm"]);
/// ```
/// The duplicate-merge index defaults to the SIMD-probed
/// [`crate::FlowTable`] ([`FlowIndex`]); [`crate::StdIndex`] restores
/// the `std::collections::HashMap` merge, kept as the differential
/// oracle.
#[derive(Debug, Clone)]
pub struct DedupQMax<I: Clone + Hash + Eq, V: Clone, F: IndexFamily = FlowIndex> {
    q: usize,
    cap: usize,
    buf: Vec<Entry<I, V>>,
    /// Persistent merge scratch for [`Self::compact`] (always empty
    /// between compactions, so merging allocates nothing steady-state).
    best: F::Index<I, V>,
    /// Persistent key scratch for the batched merge probes.
    key_scratch: Vec<I>,
    threshold: Option<V>,
    compactions: u64,
    filtered: u64,
}

impl<I: Clone + Hash + Eq, V: Ord + Clone> DedupQMax<I, V, FlowIndex> {
    /// Creates a duplicate-merging q-MAX for the `q` largest distinct
    /// keys with space-slack parameter `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `gamma` is not a positive finite number.
    pub fn new(q: usize, gamma: f64) -> Self {
        Self::new_in(q, gamma)
    }
}

impl<I: Clone + Hash + Eq, V: Ord + Clone, F: IndexFamily> DedupQMax<I, V, F> {
    /// Like [`DedupQMax::new`], but with an explicit [`IndexFamily`]
    /// (e.g. `StdIndex` for the HashMap-era merge baseline).
    pub fn new_in(q: usize, gamma: f64) -> Self {
        crate::error::check_q_gamma::<Entry<I, V>>(q, gamma).unwrap_or_else(|e| panic!("{e}"));
        let cap = crate::amortized::amortized_capacity(q, gamma);
        DedupQMax {
            q,
            cap,
            buf: Vec::with_capacity(cap),
            best: F::Index::with_capacity(cap),
            key_scratch: Vec::new(),
            threshold: None,
            compactions: 0,
            filtered: 0,
        }
    }

    /// Total buffer capacity `⌈q(1+γ)⌉`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Merges duplicate keys (keeping each key's largest value), then —
    /// if more than `q` distinct candidates remain — discards everything
    /// below the q-th largest and raises the threshold.
    fn compact(&mut self) {
        debug_assert!(self.best.is_empty());
        // Batched merge: one `entry_batch` upsert pipeline over the
        // whole buffer overlaps the per-entry index probes. Visit order
        // is buffer order and ties keep the resident value, exactly as
        // the singleton get/insert loop did.
        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.clear();
        keys.extend(self.buf.iter().map(|e| e.id.clone()));
        let buf_ref = &self.buf;
        self.best.entry_batch(
            &keys,
            |i| buf_ref[i].val.clone(),
            |i, v, present| {
                if present && buf_ref[i].val > *v {
                    *v = buf_ref[i].val.clone();
                }
            },
        );
        keys.clear();
        self.key_scratch = keys;
        self.buf.clear();
        let buf = &mut self.buf;
        self.best
            .drain_each(|id, val| buf.push(Entry::new(id, val)));
        if self.buf.len() > self.q {
            let cut = self.buf.len() - self.q;
            nth_smallest(&mut self.buf, cut);
            let psi = self.buf[cut].val.clone();
            self.buf.drain(..cut);
            self.threshold = Some(match self.threshold.take() {
                Some(old) if old > psi => old,
                _ => psi,
            });
        }
        self.compactions += 1;
    }
}

impl<I: Clone + Hash + Eq, V: Ord + Clone, F: IndexFamily> QMax<I, V> for DedupQMax<I, V, F> {
    fn insert(&mut self, id: I, val: V) -> bool {
        if let Some(t) = &self.threshold {
            if val <= *t {
                self.filtered += 1;
                return false;
            }
        }
        self.buf.push(Entry::new(id, val));
        if self.buf.len() == self.cap {
            self.compact();
        }
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        self.compact();
        self.buf
            .iter()
            .map(|e| (e.id.clone(), e.val.clone()))
            .collect()
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.threshold = None;
    }

    fn q(&self) -> usize {
        self.q
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn threshold(&self) -> Option<V> {
        self.threshold.clone()
    }

    fn name(&self) -> &'static str {
        "qmax-dedup"
    }
}

impl<I: Clone + Hash + Eq, V: Ord + Clone, F: IndexFamily> BatchInsert<I, V>
    for DedupQMax<I, V, F>
{
    /// Offers a span of arrivals in order. Per-item behaviour —
    /// threshold filtering, buffer pressure, compaction points — is
    /// identical to singleton [`QMax::insert`] calls; the batched win
    /// comes from every triggered compaction merging through the
    /// pipelined [`KeyIndex::entry_batch`].
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut admitted = 0;
        for (id, val) in items {
            admitted += usize::from(self.insert(id.clone(), val.clone()));
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn keeps_largest_value_per_key() {
        let mut d = DedupQMax::new(3, 0.5);
        for v in 1..=50u64 {
            d.insert(7u32, v);
        }
        d.insert(8u32, 10);
        d.insert(9u32, 20);
        let mut got = d.query();
        got.sort_by_key(|&(id, _)| id);
        assert_eq!(got, vec![(7, 50), (8, 10), (9, 20)]);
    }

    #[test]
    fn threshold_tracks_distinct_keys_not_snapshots() {
        // One key re-inserted with huge growing values; the threshold
        // must stay low enough to admit moderate distinct keys.
        let mut d = DedupQMax::new(10, 0.5);
        for round in 1..=10_000u64 {
            d.insert(0u32, round * 1000);
        }
        for k in 1..=9u32 {
            assert!(d.insert(k, 5 * k as u64), "moderate key {k} filtered out");
        }
        let got = d.query();
        assert_eq!(got.len(), 10);
        let keys: std::collections::HashSet<u32> = got.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys.len(), 10, "duplicates survived: {got:?}");
    }

    #[test]
    fn top_q_distinct_matches_reference() {
        let mut state = 3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let q = 16;
        let mut d = DedupQMax::new(q, 0.25);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for _ in 0..30_000 {
            let key = next() % 500;
            let grow = next() % 100 + 1;
            let val = truth.entry(key).or_insert(0);
            *val += grow;
            d.insert(key, *val);
        }
        let mut expect: Vec<(u64, u64)> = truth.into_iter().collect();
        expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        expect.truncate(q);
        let expect_keys: std::collections::HashSet<u64> = expect.iter().map(|&(k, _)| k).collect();
        let got_keys: std::collections::HashSet<u64> =
            d.query().into_iter().map(|(k, _)| k).collect();
        assert_eq!(got_keys, expect_keys);
    }

    #[test]
    fn compaction_cost_stays_amortized() {
        // All arrivals are the same key: compactions must not become
        // more frequent than once per gamma*q arrivals.
        let q = 100;
        let mut d = DedupQMax::new(q, 0.5);
        for v in 1..=100_000u64 {
            d.insert(0u32, v);
        }
        // capacity = 150; after each compaction the buffer holds <= q
        // distinct entries (here: 1), so compactions are at most one
        // per (cap - 1) arrivals.
        assert!(
            d.compactions() <= 100_000 / (d.capacity() as u64 - q as u64) + 2,
            "{} compactions",
            d.compactions()
        );
    }

    #[test]
    fn interleaved_queries_do_not_lose_keys() {
        // Querying (which compacts) between inserts must never drop a
        // key whose value still belongs to the top q.
        let mut d = DedupQMax::new(4, 0.5);
        for round in 1..=200u64 {
            for k in 0..4u32 {
                d.insert(k, round * 10 + k as u64);
            }
            if round % 7 == 0 {
                let keys: std::collections::HashSet<u32> =
                    d.query().into_iter().map(|(k, _)| k).collect();
                assert_eq!(keys.len(), 4, "lost a live key at round {round}");
            }
        }
    }

    #[test]
    fn insert_batch_matches_singletons() {
        let mut state = 11u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let items: Vec<(u64, u64)> = (0..40_000)
            .map(|_| (next() % 700, next() % 10_000))
            .collect();
        let mut one = DedupQMax::new(64, 0.5);
        let mut batched = DedupQMax::new(64, 0.5);
        let mut admitted_one = 0usize;
        for (id, val) in &items {
            admitted_one += usize::from(one.insert(*id, *val));
        }
        let mut admitted_batch = 0usize;
        for span in items.chunks(333) {
            admitted_batch += batched.insert_batch(span);
        }
        assert_eq!(admitted_one, admitted_batch);
        assert_eq!(one.compactions(), batched.compactions());
        let mut a = one.query();
        let mut b = batched.query();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn short_stream_returns_distinct() {
        let mut d = DedupQMax::new(10, 1.0);
        d.insert(1u32, 5u64);
        d.insert(1u32, 7);
        d.insert(2u32, 3);
        let mut got = d.query();
        got.sort_by_key(|&(id, _)| id);
        assert_eq!(got, vec![(1, 7), (2, 3)]);
    }
}
