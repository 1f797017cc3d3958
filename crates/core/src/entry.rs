//! Entry and value types shared by all q-MAX implementations.

use core::cmp::Ordering;
use core::fmt;
use qmax_select::nth_smallest;

/// A stream item: an identifier paired with the value it is ranked by.
///
/// Ordering (and equality) consider **only the value**, so that the
/// selection routines compare entries by rank while carrying the id
/// along. Two entries with equal values but different ids therefore
/// compare as equal; ties among the q-th largest are broken arbitrarily,
/// exactly as in the paper's problem statement.
#[derive(Debug, Clone, Copy)]
pub struct Entry<I, V> {
    /// The item's identifier (flow key, packet id, cache key, ...).
    pub id: I,
    /// The value the item is ranked by.
    pub val: V,
}

impl<I, V> Entry<I, V> {
    /// Creates an entry.
    pub fn new(id: I, val: V) -> Self {
        Entry { id, val }
    }
}

impl<I, V: PartialEq> PartialEq for Entry<I, V> {
    fn eq(&self, other: &Self) -> bool {
        self.val == other.val
    }
}

impl<I, V: Eq> Eq for Entry<I, V> {}

impl<I, V: PartialOrd> PartialOrd for Entry<I, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.val.partial_cmp(&other.val)
    }
}

impl<I, V: Ord> Ord for Entry<I, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.val.cmp(&other.val)
    }
}

/// Cuts `entries[from..]` down to its `q` largest entries (in selection
/// order, not sorted); entries before `from` are untouched.
///
/// ```
/// use qmax_core::{retain_top_q, Entry};
/// let mut v: Vec<Entry<u32, u64>> = (0..6).map(|i| Entry::new(i, [4, 9, 1, 7, 3, 8][i as usize])).collect();
/// retain_top_q(&mut v, 1, 2);
/// let mut tail: Vec<u64> = v[1..].iter().map(|e| e.val).collect();
/// tail.sort();
/// assert_eq!((v[0].val, tail), (4, vec![8, 9]));
/// ```
pub fn retain_top_q<I, V: Ord>(entries: &mut Vec<Entry<I, V>>, from: usize, q: usize) {
    let n = entries.len() - from;
    if n > q {
        nth_smallest(&mut entries[from..], n - q);
        entries.drain(from..from + n - q);
    }
}

/// A totally ordered `f64` (ordered by [`f64::total_cmp`]).
///
/// Priority Sampling, Priority-Based Aggregation, and the
/// exponential-decay transform all rank items by real-valued priorities;
/// this newtype lets them use the `Ord`-bounded q-MAX structures.
///
/// ```
/// use qmax_core::OrderedF64;
/// assert!(OrderedF64::from(2.5) > OrderedF64::from(-1.0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl OrderedF64 {
    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

// `PartialEq` must match `Ord` (`total_cmp`), which separates `-0.0`
// from `+0.0`; IEEE `==` (the derive) would equate them and break the
// `Eq`/`Ord` consistency contract the selection kernels assert on.
impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f64> for OrderedF64 {
    fn from(v: f64) -> Self {
        OrderedF64(v)
    }
}

impl From<OrderedF64> for f64 {
    fn from(v: OrderedF64) -> Self {
        v.0
    }
}

impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Reverses the ordering of a value, turning any q-MAX structure into a
/// *q-MIN* structure.
///
/// Several applications (network-wide heavy hitters, count-distinct)
/// keep the `q` items with the **smallest** hash values; wrapping values
/// in `Minimal` makes "largest" mean "smallest".
///
/// ```
/// use qmax_core::{AmortizedQMax, Minimal, QMax};
/// let mut smallest = AmortizedQMax::new(2, 1.0);
/// for v in [50u64, 10, 40, 20, 30] {
///     smallest.insert(v, Minimal(v));
/// }
/// let mut vals: Vec<u64> = smallest.query().into_iter().map(|(_, v)| v.0).collect();
/// vals.sort();
/// assert_eq!(vals, vec![10, 20]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Minimal<V>(pub V);

impl<V: PartialOrd> PartialOrd for Minimal<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        other.0.partial_cmp(&self.0)
    }
}

impl<V: Ord> Ord for Minimal<V> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_orders_by_value_only() {
        let a = Entry::new(1u32, 10u64);
        let b = Entry::new(2u32, 20u64);
        let c = Entry::new(3u32, 10u64);
        assert!(a < b);
        assert_eq!(a, c);
        assert_eq!(a.cmp(&c), Ordering::Equal);
    }

    #[test]
    fn ordered_f64_total_order() {
        let mut v = [
            OrderedF64(3.0),
            OrderedF64(-1.0),
            OrderedF64(f64::INFINITY),
            OrderedF64(0.0),
            OrderedF64(f64::NEG_INFINITY),
        ];
        v.sort();
        assert_eq!(v[0], OrderedF64(f64::NEG_INFINITY));
        assert_eq!(v[4], OrderedF64(f64::INFINITY));
        assert_eq!(v[2], OrderedF64(0.0));
    }

    #[test]
    fn minimal_reverses() {
        assert!(Minimal(1u32) > Minimal(2u32));
        assert!(Minimal(5u32) < Minimal(0u32));
        assert_eq!(Minimal(3u32), Minimal(3u32));
    }
}
