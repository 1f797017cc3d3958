//! Answer references, computed from the generated stream before any
//! timing, and the checks every query answer and driver report must
//! pass.

use qmax_engine::DriverReport;
use qmax_traces::hash;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// An order-independent 128-bit fingerprint of a value multiset: the
/// count plus two wrapping sums of independent 64-bit mixes. Two
/// multisets that differ in any value or multiplicity get different
/// fingerprints except with probability about 2⁻⁶⁴, so comparing them
/// checks a top-`q` answer exactly without storing or sorting it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    count: u64,
    sum_a: u64,
    sum_b: u64,
}

impl Fingerprint {
    pub fn of(values: impl IntoIterator<Item = u64>) -> Fingerprint {
        values
            .into_iter()
            .fold(Fingerprint::default(), |f, v| Fingerprint {
                count: f.count + 1,
                sum_a: f.sum_a.wrapping_add(hash::mix64(v)),
                sum_b: f.sum_b.wrapping_add(hash::hash64(v, 0x6669_6e67_6572)),
            })
    }
}

/// Pushes `x` into a size-`q` min-heap of the largest values seen;
/// returns the value it displaced, if the heap was full and `x` won.
fn offer(heap: &mut BinaryHeap<Reverse<u64>>, q: usize, x: u64) -> Option<u64> {
    if heap.len() < q {
        heap.push(Reverse(x));
        return None;
    }
    let mut min = heap.peek_mut().expect("heap holds q > 0 values");
    if x > min.0 {
        let out = min.0;
        *min = Reverse(x);
        Some(out)
    } else {
        None
    }
}

/// The fingerprint of the top-`q` values of the stream prefix ending at
/// each of the ascending query `points` (item counts).
pub fn prefix_references(items: &[(u64, u64)], q: usize, points: &[usize]) -> Vec<Fingerprint> {
    let mut heap = BinaryHeap::with_capacity(q);
    let mut from = 0;
    points
        .iter()
        .map(|&t| {
            for &(_, x) in &items[from..t] {
                offer(&mut heap, q, x);
            }
            from = t;
            Fingerprint::of(heap.iter().map(|r| r.0))
        })
        .collect()
}

/// Every answer a slack window may give at one query point: the top-`q`
/// of the shortest admissible suffix, then each change to that multiset
/// as the suffix grows one older item at a time to the longest one.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRef {
    /// Top-`q` values of the shortest admissible suffix.
    base: Vec<u64>,
    /// `(entering, leaving)` value pairs, oldest suffix extension last.
    changes: Vec<(u64, u64)>,
}

/// References for a `(W, τ)`-slack window queried at each of `points`
/// (item counts): an answer after `t` items is correct when it is the
/// top-`q` of some suffix whose length lies in `lengths` (clipped to
/// `t`).
pub fn window_references(
    items: &[(u64, u64)],
    q: usize,
    points: &[usize],
    lengths: (usize, usize),
) -> Vec<WindowRef> {
    let mut heap = BinaryHeap::with_capacity(q);
    points
        .iter()
        .map(|&t| {
            let (shortest, longest) = (lengths.0.min(t), lengths.1.min(t));
            heap.clear();
            for &(_, x) in &items[t - shortest..t] {
                offer(&mut heap, q, x);
            }
            let base = heap.iter().map(|r| r.0).collect();
            let changes = items[t - longest..t - shortest]
                .iter()
                .rev()
                .filter_map(|&(_, x)| offer(&mut heap, q, x).map(|out| (x, out)))
                .collect();
            WindowRef { base, changes }
        })
        .collect()
}

/// Whether `answer`'s value multiset is the one `expected` fingerprints;
/// ids are not compared, since ties make them ambiguous.
pub fn prefix_matches(expected: &Fingerprint, answer: &[(u64, u64)]) -> bool {
    Fingerprint::of(answer.iter().map(|&(_, v)| v)) == *expected
}

/// Reusable scratch for window checks, allocated once before timing so
/// a check never grows the process while memory is being measured.
pub struct Checker {
    diff: HashMap<u64, i64>,
}

impl Checker {
    /// Scratch for answers of up to `q` items.
    pub fn new(q: usize) -> Self {
        Checker {
            diff: HashMap::with_capacity(2 * q),
        }
    }

    /// Whether `answer`'s value multiset equals the top-`q` of some
    /// admissible suffix described by `r`.
    pub fn window_matches(&mut self, r: &WindowRef, answer: &[(u64, u64)]) -> bool {
        // diff[v] = copies of v in the candidate multiset minus copies
        // in the answer; `off` = Σ|diff|, zero exactly on a match.
        fn bump(diff: &mut HashMap<u64, i64>, off: &mut i64, v: u64, by: i64) {
            let d = diff.entry(v).or_insert(0);
            *off += (*d + by).abs() - d.abs();
            *d += by;
        }
        let diff = &mut self.diff;
        diff.clear();
        let mut off = 0i64;
        for &v in &r.base {
            bump(diff, &mut off, v, 1);
        }
        for &(_, v) in answer {
            bump(diff, &mut off, v, -1);
        }
        if off == 0 {
            return true;
        }
        for &(enter, leave) in &r.changes {
            bump(diff, &mut off, enter, 1);
            bump(diff, &mut off, leave, -1);
            if off == 0 {
                return true;
            }
        }
        false
    }
}

/// `items == drained + dropped + quarantined`: every routed item is
/// accounted for exactly once.
pub fn conserves(report: &DriverReport) -> bool {
    let drained: u64 = report.per_shard_drained.iter().sum();
    report.items == drained + report.dropped() + report.quarantined()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmax_core::{AdaptiveBackend, QMax};
    use qmax_engine::{DriverConfig, ShardedQMax};
    use qmax_traces::gen::random_u64_stream;

    fn top_q(values: &[u64], q: usize) -> Vec<u64> {
        let mut v = values.to_vec();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v.truncate(q);
        v.sort_unstable();
        v
    }

    fn as_items(values: &[u64]) -> Vec<(u64, u64)> {
        values.iter().map(|&v| (0, v)).collect()
    }

    #[test]
    fn prefix_references_are_top_q_of_each_prefix() {
        let values: Vec<u64> = random_u64_stream(5_000, 1).map(|v| v % 500).collect();
        let points = [1_000, 2_500, 4_999, 5_000];
        let refs = prefix_references(&as_items(&values), 40, &points);
        assert_eq!(refs.len(), points.len());
        for (r, &t) in refs.iter().zip(&points) {
            assert_eq!(r, &Fingerprint::of(top_q(&values[..t], 40)));
        }
    }

    #[test]
    fn prefix_check_fires_on_a_corrupted_answer() {
        let values: Vec<u64> = random_u64_stream(4_096, 2).collect();
        let q = 64;
        let mut engine = AdaptiveBackend::<u64, u64>::new(q, 0.25);
        for (i, &v) in values.iter().enumerate() {
            engine.insert(i as u64, v);
        }
        let expected = &prefix_references(&as_items(&values), q, &[values.len()])[0];
        let mut answer = engine.query();
        assert!(prefix_matches(expected, &answer));
        answer.reverse();
        answer[0].0 = 12_345;
        assert!(
            prefix_matches(expected, &answer),
            "order and ids do not matter"
        );
        let good = answer.clone();
        answer[0].1 ^= 1;
        assert!(!prefix_matches(expected, &answer));
        answer = good.clone();
        answer.pop();
        assert!(!prefix_matches(expected, &answer));
        answer = good;
        answer[1].1 = answer[0].1;
        assert!(!prefix_matches(expected, &answer), "duplicated value");
    }

    #[test]
    fn window_check_accepts_exactly_the_admissible_suffixes() {
        let values: Vec<u64> = random_u64_stream(3_000, 3).collect();
        let (q, t) = (8, 3_000);
        let r = &window_references(&as_items(&values), q, &[t], (1_000, 1_500))[0];
        let mut check = Checker::new(q);
        for len in [1_000, 1_234, 1_500] {
            let answer = as_items(&top_q(&values[t - len..], q));
            assert!(check.window_matches(r, &answer), "suffix {len}");
        }
        // Too long a suffix reaches expired items; too short a one
        // drops live ones. Pick lengths whose top-q really differ.
        let admissible: Vec<Vec<u64>> = (1_000..=1_500)
            .map(|len| top_q(&values[t - len..], q))
            .collect();
        for len in [100, 999, 1_501, 3_000] {
            let wrong = top_q(&values[t - len..], q);
            if !admissible.contains(&wrong) {
                assert!(!check.window_matches(r, &as_items(&wrong)), "suffix {len}");
            }
        }
        let mut corrupted = as_items(&top_q(&values[t - 1_200..], q));
        corrupted[3].1 = corrupted[3].1.wrapping_add(1);
        assert!(!check.window_matches(r, &corrupted));
    }

    #[test]
    fn window_references_clip_to_the_stream_start() {
        let values: Vec<u64> = (0..100).collect();
        let r = &window_references(&as_items(&values), 4, &[50], (80, 90))[0];
        let mut base = r.base.clone();
        base.sort_unstable();
        assert_eq!(base, vec![46, 47, 48, 49]);
        assert!(r.changes.is_empty());
    }

    #[test]
    fn conservation_check_fires_on_an_unbalanced_report() {
        let items: Vec<(u64, u64)> = random_u64_stream(10_000, 4).map(|v| (v, v)).collect();
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(16, 0.25, 2);
        let mut report = engine.run_threaded(items.into_iter(), DriverConfig::default());
        assert!(conserves(&report));
        report.per_shard_drained[0] -= 1;
        assert!(!conserves(&report));
    }
}
