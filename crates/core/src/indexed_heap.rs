//! An indexed binary min-heap supporting update-in-place, and the
//! keyed heap baseline built on it.
//!
//! The paper notes that the C++ standard heap lacks sift operations, so
//! its PBA and LRFU heap baselines degenerate to `O(q)` per update.
//! This indexed heap is the *stronger* classical baseline — a heap with
//! a position map enabling `O(log q)` increase/decrease-key — so the
//! speedups we report for q-MAX are conservative.

use crate::flow_table::FlowTable;
use crate::traits::QMax;
use std::hash::Hash;

/// A binary min-heap over `(key, value)` pairs with a key→position map
/// enabling `O(log n)` value updates.
///
/// The position map is the SIMD-probed [`FlowTable`]: every sift step
/// fixes up two positions, so the baseline's `O(log q)` updates are
/// keyed-lookup-bound too.
#[derive(Debug, Clone)]
pub struct IndexedMinHeap<I: Clone + Hash + Eq, V> {
    /// Heap array of (key, value), min value at index 0.
    data: Vec<(I, V)>,
    /// Key → index in `data`.
    pos: FlowTable<I, usize>,
}

impl<I: Clone + Hash + Eq, V: Ord + Clone> IndexedMinHeap<I, V> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        IndexedMinHeap {
            data: Vec::new(),
            pos: FlowTable::with_capacity(0),
        }
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The minimum entry, if any.
    pub fn peek(&self) -> Option<(&I, &V)> {
        self.data.first().map(|(i, v)| (i, v))
    }

    /// The value currently stored for `key`.
    pub fn get(&self, key: &I) -> Option<&V> {
        self.pos.get(key).map(|&i| &self.data[i].1)
    }

    /// Inserts a new key or updates an existing one to `val` (sifting in
    /// whichever direction the change requires). Returns `true` if the
    /// key was new.
    pub fn upsert(&mut self, key: I, val: V) -> bool {
        if let Some(&i) = self.pos.get(&key) {
            let old = self.data[i].1.clone();
            self.data[i].1 = val;
            if self.data[i].1 > old {
                self.sift_down(i);
            } else {
                self.sift_up(i);
            }
            false
        } else {
            self.data.push((key.clone(), val));
            let i = self.data.len() - 1;
            self.pos.insert(key, i);
            self.sift_up(i);
            true
        }
    }

    /// Removes and returns the minimum entry.
    pub fn pop_min(&mut self) -> Option<(I, V)> {
        if self.data.is_empty() {
            return None;
        }
        let last = self.data.len() - 1;
        self.swap(0, last);
        let (key, val) = self.data.pop().expect("non-empty");
        self.pos.remove(&key);
        if !self.data.is_empty() {
            self.sift_down(0);
        }
        Some((key, val))
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.data.clear();
        self.pos.clear();
    }

    /// Iterates over entries in arbitrary (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (&I, &V)> {
        self.data.iter().map(|(i, v)| (i, v))
    }

    fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.data.swap(a, b);
        *self.pos.get_mut(&self.data[a].0).expect("key tracked") = a;
        *self.pos.get_mut(&self.data[b].0).expect("key tracked") = b;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.data[i].1 < self.data[parent].1 {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.data.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && self.data[l].1 < self.data[smallest].1 {
                smallest = l;
            }
            if r < n && self.data[r].1 < self.data[smallest].1 {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.swap(i, smallest);
            i = smallest;
        }
    }
}

impl<I: Clone + Hash + Eq, V: Ord + Clone> Default for IndexedMinHeap<I, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Keyed q-MAX baseline on an [`IndexedMinHeap`]: keeps the `q` keys of
/// largest value, updating a present key's value in place (`O(log q)`).
///
/// Re-inserting a key with a smaller value than currently stored leaves
/// the stored value unchanged (values are treated as monotone, matching
/// the aggregation applications this structure serves).
#[derive(Debug, Clone)]
pub struct IndexedHeapQMax<I: Clone + Hash + Eq, V> {
    q: usize,
    heap: IndexedMinHeap<I, V>,
}

impl<I: Clone + Hash + Eq, V: Ord + Clone> IndexedHeapQMax<I, V> {
    /// Creates a keyed heap baseline for the `q` largest distinct keys.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn new(q: usize) -> Self {
        assert!(q > 0, "q must be positive");
        IndexedHeapQMax {
            q,
            heap: IndexedMinHeap::new(),
        }
    }
}

impl<I: Clone + Hash + Eq, V: Ord + Clone> QMax<I, V> for IndexedHeapQMax<I, V> {
    fn insert(&mut self, id: I, val: V) -> bool {
        if let Some(cur) = self.heap.get(&id) {
            if *cur >= val {
                return false;
            }
            self.heap.upsert(id, val);
            return true;
        }
        if self.heap.len() < self.q {
            self.heap.upsert(id, val);
            return true;
        }
        let (_, min) = self.heap.peek().expect("heap is full");
        if val <= *min {
            return false;
        }
        self.heap.pop_min();
        self.heap.upsert(id, val);
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        self.heap
            .iter()
            .map(|(i, v)| (i.clone(), v.clone()))
            .collect()
    }

    fn reset(&mut self) {
        self.heap.clear();
    }

    fn q(&self) -> usize {
        self.q
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn threshold(&self) -> Option<V> {
        if self.heap.len() == self.q {
            self.heap.peek().map(|(_, v)| v.clone())
        } else {
            None
        }
    }

    fn name(&self) -> &'static str {
        "indexed-heap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_and_pop_keep_order() {
        let mut h = IndexedMinHeap::new();
        h.upsert("a", 5);
        h.upsert("b", 2);
        h.upsert("c", 9);
        h.upsert("b", 7); // increase-key
        h.upsert("c", 1); // decrease-key
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop_min() {
            out.push((k, v));
        }
        assert_eq!(out, vec![("c", 1), ("a", 5), ("b", 7)]);
    }

    #[test]
    fn positions_stay_consistent_under_churn() {
        let mut h = IndexedMinHeap::new();
        let mut state = 1u64;
        for step in 0..20_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = (state >> 33) % 500;
            let val = (state >> 13) % 10_000;
            h.upsert(key, val);
            if step % 7 == 0 {
                h.pop_min();
            }
            if let Some((k, _)) = h.peek() {
                let k = *k;
                assert_eq!(h.pos.get(&k).copied(), Some(0));
            }
        }
        // Full drain must be sorted.
        let mut last = 0;
        while let Some((_, v)) = h.pop_min() {
            assert!(v >= last);
            last = v;
        }
    }

    #[test]
    fn qmax_keeps_top_distinct_keys() {
        let mut qm = IndexedHeapQMax::new(3);
        for round in 1..=100u64 {
            qm.insert("hot", round * 10);
            qm.insert("warm", round);
            qm.insert("cold", 1u64);
            qm.insert("mild", 2u64);
        }
        let mut got = qm.query();
        got.sort_by_key(|&(id, _)| id);
        let keys: Vec<&str> = got.iter().map(|&(id, _)| id).collect();
        assert_eq!(keys, vec!["hot", "mild", "warm"]);
    }

    #[test]
    fn stale_smaller_value_is_ignored() {
        let mut qm = IndexedHeapQMax::new(2);
        qm.insert(1u32, 100u64);
        assert!(!qm.insert(1u32, 50));
        assert_eq!(qm.query(), vec![(1, 100)]);
    }
}
