//! The suspendable, bounded-work selection machine.
//!
//! The q-MAX algorithm de-amortizes a linear-time selection by running a
//! few of its elementary operations per stream arrival. The machine makes
//! that possible: it holds the full control state of a median-of-medians
//! selection as plain data — an explicit frame stack and loop counters —
//! so the computation can be advanced by any number of *elementary
//! operations* (element comparisons / swaps) at a time, with the buffer
//! borrowed only for the duration of each [`NthElementMachine::step`]
//! call.
//!
//! Because the machine addresses the buffer by index range and never
//! holds a borrow across steps, the caller is free to mutate the buffer
//! *outside* the machine's `[lo, hi)` range between steps. q-MAX uses
//! this to insert arriving items into one region of its array while the
//! selection runs over the other region.
//!
//! The buffer is anything that implements [`Lanes`]: a plain slice of
//! whole elements, or [`crate::PairedLanes`] — a value lane and an id lane
//! that move together. One machine, one set of unit costs, one work bound
//! for every layout.

use crate::kernels::RunPred;
use crate::partition::partition_by;
use crate::quickselect::{index_out_of_range, SMALL};
use core::cmp::Ordering;

/// Conservative upper bound on the total number of elementary operations
/// the [`NthElementMachine`] performs for a range of `n` elements:
/// `total_ops <= WORK_BOUND_FACTOR * n + WORK_BOUND_FACTOR`.
///
/// The BFPRT recurrence `T(n) = T(n/5) + T(7n/10) + c*n` solves to
/// `T(n) = 10*c*n`; our per-element constant `c` (group medians ~2.4 ops,
/// partition ~2 ops) gives `T(n) ~ 45n`. The factor below adds headroom
/// for the insertion-sort base cases. The de-amortized q-MAX uses it to
/// size its per-arrival operation budget.
pub const WORK_BOUND_FACTOR: usize = 64;

/// Progress report of a machine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineStatus {
    /// More steps are required.
    InProgress,
    /// The computation has completed; results may be read.
    Finished,
}

/// Comparison direction of a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Natural order: the machine selects the k-th **smallest**.
    Ascending,
    /// Reversed order: the machine selects the k-th **largest**.
    Descending,
}

impl Direction {
    #[inline]
    pub(crate) fn cmp<T: Ord>(self, a: &T, b: &T) -> Ordering {
        match self {
            Direction::Ascending => a.cmp(b),
            Direction::Descending => b.cmp(a),
        }
    }
}

/// Index-addressed storage a [`NthElementMachine`] selects over.
///
/// The machine needs exactly three things from a buffer layout: the key
/// at a slot, an exchange of two slots, and — optionally — the length of
/// a run of keys that all fall on one side of the pivot, which a layout
/// with a dense key lane can measure with a vector kernel. Slices (and
/// `Vec`s) of whole elements implement it with no assist;
/// [`crate::PairedLanes`] implements it over a value lane and an id lane.
/// The complete selection ([`crate::nth_smallest_in`]) runs over the same
/// trait, partitioning through [`Lanes::partition_parked`].
pub trait Lanes {
    /// The type the selection orders by. The machine holds its pivot as
    /// a clone, so it requires `Key: Clone`; the complete selection
    /// parks its pivot in a slot and does not.
    type Key: Ord;

    /// The key at slot `i`.
    fn key(&self, i: usize) -> &Self::Key;

    /// Exchanges slots `i` and `j`.
    fn swap(&mut self, i: usize, j: usize);

    /// Length of the longest run of slots `i, i+1, ..` (at most `max`)
    /// whose keys all satisfy `pred` against `pivot`, in natural order.
    ///
    /// A partition step consumes such a run in one go and charges it the
    /// same 2 operations per element as the element-by-element path, so
    /// the assist changes neither the result nor the accounting. The
    /// default measures nothing.
    #[inline]
    fn class_run(&self, _i: usize, _max: usize, _pivot: &Self::Key, _pred: RunPred) -> usize {
        0
    }

    /// Three-way partition of slots `[lo + 1, hi)` around the key parked
    /// in slot `lo`, which stays put. Returns `(lt, gt)`: slots
    /// `[lo + 1, lt)` hold smaller keys, `[lt, gt)` equal ones and
    /// `[gt, hi)` larger ones.
    ///
    /// The default reads the pivot from slot `lo` after every swap. A
    /// layout that can hold it apart (a split slice, a `Copy` value lane)
    /// overrides this so the pivot is read once; the partition is the
    /// same.
    #[inline]
    fn partition_parked(&mut self, lo: usize, hi: usize) -> (usize, usize) {
        partition_by(self, lo + 1, hi, |b, i| b.key(i).cmp(b.key(lo)))
    }
}

impl<T: Ord> Lanes for [T] {
    type Key = T;

    #[inline]
    fn key(&self, i: usize) -> &T {
        &self[i]
    }

    #[inline]
    fn swap(&mut self, i: usize, j: usize) {
        <[T]>::swap(self, i, j);
    }

    #[inline]
    fn partition_parked(&mut self, lo: usize, hi: usize) -> (usize, usize) {
        let (head, tail) = self[..hi].split_at_mut(lo + 1);
        let pivot = &head[lo];
        let (lt, gt) = partition_by(tail, 0, hi - lo - 1, |b, i| b[i].cmp(pivot));
        (lo + 1 + lt, lo + 1 + gt)
    }
}

impl<T: Ord> Lanes for Vec<T> {
    type Key = T;

    #[inline]
    fn key(&self, i: usize) -> &T {
        &self[i]
    }

    #[inline]
    fn swap(&mut self, i: usize, j: usize) {
        self.as_mut_slice().swap(i, j);
    }

    #[inline]
    fn partition_parked(&mut self, lo: usize, hi: usize) -> (usize, usize) {
        self.as_mut_slice().partition_parked(lo, hi)
    }
}

/// Control state of one selection frame.
#[derive(Debug)]
enum Phase<T> {
    /// Frame freshly (re-)entered; dispatch on range size.
    Start,
    /// Insertion-sorting a small range; `i` is the next element to place.
    SmallSort { i: usize },
    /// Packing group-of-5 medians to the front of the range.
    Medians { next_group: usize, packed: usize },
    /// A child frame is selecting the median of the packed medians.
    AwaitPivot,
    /// Three-way partition around `pivot` in progress.
    Partition {
        lt: usize,
        i: usize,
        gt: usize,
        pivot: T,
    },
}

#[derive(Debug)]
struct Frame<T> {
    lo: usize,
    hi: usize,
    /// Absolute index at which the sought order statistic must land.
    target: usize,
    phase: Phase<T>,
}

/// Deepest frame stack a selection over `n` elements can build: every
/// child frame selects among the group-of-5 medians of its parent.
fn depth_bound(mut n: usize) -> usize {
    let mut depth = 1;
    while n > SMALL {
        n = n.div_ceil(5);
        depth += 1;
    }
    depth
}

/// A suspendable `nth_element`: rearranges slots `[lo, hi)` of a
/// [`Lanes`] buffer so that the `k`-th key in the machine's direction
/// order ends at index `lo + k`, with all "smaller" keys before it and
/// all "larger" after (smaller/larger meant in the direction order).
///
/// Uses median-of-medians pivots throughout, so the total work is
/// worst-case linear: at most [`WORK_BOUND_FACTOR`]` * (hi - lo)`
/// elementary operations regardless of input order or buffer layout.
///
/// ```
/// use qmax_select::{Direction, MachineStatus, NthElementMachine};
/// let mut buf = vec![5, 1, 9, 3, 7, 2, 8, 0, 6, 4, 11, 13, 12, 15, 14,
///                    21, 20, 23, 22, 25, 24, 27, 26, 29, 28, 31, 30];
/// let mut m = NthElementMachine::new(0, buf.len(), 4, Direction::Ascending);
/// while m.step(&mut buf, 8) == MachineStatus::InProgress {}
/// assert_eq!(buf[4], 4);
/// ```
#[derive(Debug)]
pub struct NthElementMachine<T> {
    frames: Vec<Frame<T>>,
    dir: Direction,
    result: Option<usize>,
    total_ops: u64,
    max_step_ops: u64,
}

impl<T: Ord + Clone> NthElementMachine<T> {
    /// Creates a machine that will place the `k`-th element (0-based) of
    /// `buf[lo..hi]` — in `dir` order — at index `lo + k`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or `k` is out of range.
    pub fn new(lo: usize, hi: usize, k: usize, dir: Direction) -> Self {
        let mut machine = NthElementMachine {
            frames: Vec::new(),
            dir,
            result: None,
            total_ops: 0,
            max_step_ops: 0,
        };
        machine.rearm(lo, hi, k, dir);
        machine
    }

    /// Re-arms the machine for a new selection, exactly as
    /// [`new`](Self::new) would build it, but keeping the frame stack's
    /// allocation: a machine re-armed over ranges no longer than the one
    /// it was built for never allocates again.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or `k` is out of range.
    pub fn rearm(&mut self, lo: usize, hi: usize, k: usize, dir: Direction) {
        assert!(lo < hi, "empty selection range [{lo}, {hi})");
        if k >= hi - lo {
            index_out_of_range(k, hi - lo);
        }
        self.frames.clear();
        self.frames.reserve(depth_bound(hi - lo));
        self.frames.push(Frame {
            lo,
            hi,
            target: lo + k,
            phase: Phase::Start,
        });
        self.dir = dir;
        self.result = None;
        self.total_ops = 0;
        self.max_step_ops = 0;
    }

    /// Whether the selection has completed.
    pub fn is_finished(&self) -> bool {
        self.result.is_some()
    }

    /// Absolute index of the selected element once finished.
    pub fn result_index(&self) -> Option<usize> {
        self.result
    }

    /// Total elementary operations performed so far.
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Largest number of elementary operations performed by a single
    /// [`step`](Self::step) call (may exceed the budget by the cost of
    /// one indivisible unit, a bounded constant).
    pub fn max_step_ops(&self) -> u64 {
        self.max_step_ops
    }

    /// Runs at most ~`budget` elementary operations of the selection.
    ///
    /// A step never stops in the middle of an indivisible unit (placing
    /// one element of an insertion sort, computing one group-of-5
    /// median), so the actual work may exceed `budget` by a small
    /// constant.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than the machine's configured range.
    #[inline]
    pub fn step<L: Lanes<Key = T> + ?Sized>(
        &mut self,
        buf: &mut L,
        budget: usize,
    ) -> MachineStatus {
        if self.result.is_some() {
            return MachineStatus::Finished;
        }
        let mut rem = budget as i64;
        let step_start = self.total_ops;
        while rem > 0 && self.result.is_none() {
            rem -= self.advance_unit(buf, rem as u64) as i64;
        }
        let used = self.total_ops - step_start;
        if used > self.max_step_ops {
            self.max_step_ops = used;
        }
        if self.result.is_some() {
            MachineStatus::Finished
        } else {
            MachineStatus::InProgress
        }
    }

    /// Runs the machine to completion and returns the index of the
    /// selected element.
    pub fn run_to_completion<L: Lanes<Key = T> + ?Sized>(&mut self, buf: &mut L) -> usize {
        while self.result.is_none() {
            self.advance_unit(buf, u64::MAX / 4);
        }
        self.result.expect("machine just finished")
    }

    /// Executes one unit of work of at most ~`max_cost` operations;
    /// returns its operation cost.
    fn advance_unit<L: Lanes<Key = T> + ?Sized>(&mut self, buf: &mut L, max_cost: u64) -> u64 {
        let dir = self.dir;
        let fidx = self.frames.len() - 1;
        let frame = &mut self.frames[fidx];
        let (lo, hi, target) = (frame.lo, frame.hi, frame.target);
        let cost: u64;
        enum Outcome {
            Continue,
            FrameDone,
            PushChild { clo: usize, chi: usize, ck: usize },
        }
        let outcome;
        match &mut frame.phase {
            Phase::Start => {
                cost = 1;
                if hi - lo <= SMALL {
                    frame.phase = Phase::SmallSort { i: lo + 1 };
                } else {
                    frame.phase = Phase::Medians {
                        next_group: lo,
                        packed: 0,
                    };
                }
                outcome = Outcome::Continue;
            }
            Phase::SmallSort { i } => {
                if *i >= hi {
                    outcome = Outcome::FrameDone;
                    cost = 1;
                } else {
                    let mut j = *i;
                    let mut moved = 1u64;
                    while j > lo && dir.cmp(buf.key(j - 1), buf.key(j)) == Ordering::Greater {
                        buf.swap(j - 1, j);
                        j -= 1;
                        moved += 1;
                    }
                    *i += 1;
                    cost = moved;
                    outcome = Outcome::Continue;
                }
            }
            Phase::Medians { next_group, packed } => {
                if *next_group >= hi {
                    let ngroups = *packed;
                    debug_assert!(ngroups >= 1);
                    frame.phase = Phase::AwaitPivot;
                    outcome = Outcome::PushChild {
                        clo: lo,
                        chi: lo + ngroups,
                        ck: (ngroups - 1) / 2,
                    };
                    cost = 1;
                } else {
                    let g = *next_group;
                    let len = (hi - g).min(5);
                    // Sort the group in the machine's direction; the
                    // median index is the same either way.
                    for a in g + 1..g + len {
                        let mut j = a;
                        while j > g && dir.cmp(buf.key(j - 1), buf.key(j)) == Ordering::Greater {
                            buf.swap(j - 1, j);
                            j -= 1;
                        }
                    }
                    let median = g + (len - 1) / 2;
                    buf.swap(lo + *packed, median);
                    *packed += 1;
                    *next_group += len;
                    cost = 12;
                    outcome = Outcome::Continue;
                }
            }
            Phase::AwaitPivot => {
                unreachable!("AwaitPivot frames are resumed only via child completion")
            }
            Phase::Partition { lt, i, gt, pivot } => {
                if *i < *gt {
                    // The machine's hot path: a whole budget's worth of
                    // elements in one tight loop. Where the layout offers
                    // a run assist, a same-class run is consumed in one
                    // call, capped by the remaining budget and charged 2
                    // ops per element like the element-by-element path,
                    // so state and accounting are layout-independent. The
                    // assist is only tried where a run is likely — a
                    // dispatched call per element would eat the win:
                    //
                    // * the Less-run only while `lt == i` (the unbroken
                    //   all-Less prefix, where the Less-branch swap is a
                    //   self-swap and a run just advances both cursors);
                    // * the Equal-run only right after an Equal element,
                    //   because duplicates cluster.
                    let less = match dir {
                        Direction::Ascending => RunPred::Lt,
                        Direction::Descending => RunPred::Gt,
                    };
                    let mut c = 0u64;
                    while *i < *gt && c < max_cost {
                        let room = (((max_cost - c) / 2) as usize).min(*gt - *i);
                        if *lt == *i && room >= 8 {
                            let run = buf.class_run(*i, room, pivot, less);
                            if run > 0 {
                                *lt += run;
                                *i += run;
                                c += 2 * run as u64;
                                continue;
                            }
                        }
                        match dir.cmp(buf.key(*i), pivot) {
                            Ordering::Less => {
                                buf.swap(*lt, *i);
                                *lt += 1;
                                *i += 1;
                            }
                            Ordering::Greater => {
                                *gt -= 1;
                                buf.swap(*i, *gt);
                            }
                            Ordering::Equal => {
                                *i += 1;
                                c += 2;
                                let room =
                                    ((max_cost.saturating_sub(c) / 2) as usize).min(*gt - *i);
                                if room >= 8 {
                                    let run = buf.class_run(*i, room, pivot, RunPred::Eq);
                                    *i += run;
                                    c += 2 * run as u64;
                                }
                                continue;
                            }
                        }
                        c += 2;
                    }
                    cost = c;
                    outcome = Outcome::Continue;
                } else {
                    // Partition complete: recurse into the side holding
                    // the target, or finish if the target is in the
                    // "equal" run.
                    let (plo, phi) = (*lt, *gt);
                    cost = 1;
                    if target < plo {
                        frame.hi = plo;
                        frame.phase = Phase::Start;
                        outcome = Outcome::Continue;
                    } else if target >= phi {
                        frame.lo = phi;
                        frame.phase = Phase::Start;
                        outcome = Outcome::Continue;
                    } else {
                        outcome = Outcome::FrameDone;
                    }
                }
            }
        }
        self.total_ops += cost;
        match outcome {
            Outcome::Continue => {}
            Outcome::PushChild { clo, chi, ck } => {
                self.frames.push(Frame {
                    lo: clo,
                    hi: chi,
                    target: clo + ck,
                    phase: Phase::Start,
                });
            }
            Outcome::FrameDone => {
                let done = self.frames.pop().expect("frame stack non-empty");
                let t = done.target;
                match self.frames.last_mut() {
                    None => self.result = Some(t),
                    Some(parent) => {
                        let Phase::AwaitPivot = parent.phase else {
                            unreachable!("parent of a completed frame must await its pivot")
                        };
                        // The child has placed the median-of-medians at
                        // its target index; use its key as the pivot.
                        let (plo, phi) = (parent.lo, parent.hi);
                        parent.phase = Phase::Partition {
                            lt: plo,
                            i: plo,
                            gt: phi,
                            pivot: buf.key(t).clone(),
                        };
                    }
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn run_machine(v: &mut [u32], k: usize, dir: Direction, budget: usize) -> usize {
        let mut m = NthElementMachine::new(0, v.len(), k, dir);
        let mut guard = 0usize;
        while m.step(v, budget) == MachineStatus::InProgress {
            guard += 1;
            assert!(guard < 100_000_000, "machine failed to terminate");
        }
        m.result_index().unwrap()
    }

    #[test]
    fn ascending_selects_kth_smallest() {
        let mut state = 7u64;
        for n in [1usize, 5, 24, 25, 100, 1000] {
            let base: Vec<u32> = (0..n).map(|_| (splitmix(&mut state) % 97) as u32).collect();
            let mut sorted = base.clone();
            sorted.sort_unstable();
            for k in [0, n / 2, n - 1] {
                let mut v = base.clone();
                let idx = run_machine(&mut v, k, Direction::Ascending, 16);
                assert_eq!(idx, k);
                assert_eq!(v[k], sorted[k]);
                assert!(v[..k].iter().all(|x| *x <= v[k]));
                assert!(v[k + 1..].iter().all(|x| *x >= v[k]));
            }
        }
    }

    #[test]
    fn descending_selects_kth_largest() {
        let mut state = 42u64;
        for n in [3usize, 50, 333] {
            let base: Vec<u32> = (0..n).map(|_| (splitmix(&mut state) % 31) as u32).collect();
            let mut sorted = base.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            for k in [0, n / 2, n - 1] {
                let mut v = base.clone();
                run_machine(&mut v, k, Direction::Descending, 7);
                assert_eq!(v[k], sorted[k]);
                assert!(v[..k].iter().all(|x| *x >= v[k]));
                assert!(v[k + 1..].iter().all(|x| *x <= v[k]));
            }
        }
    }

    #[test]
    fn adversarial_inputs_stay_within_work_bound() {
        for n in [100usize, 1000, 5000] {
            let patterns: Vec<Vec<u32>> = vec![
                (0..n as u32).collect(),
                (0..n as u32).rev().collect(),
                vec![3; n],
                (0..n as u32).map(|x| x % 2).collect(),
            ];
            for base in patterns {
                let mut v = base.clone();
                let mut m = NthElementMachine::new(0, n, n / 2, Direction::Ascending);
                m.run_to_completion(&mut v);
                assert!(
                    m.total_ops() <= (WORK_BOUND_FACTOR * n + WORK_BOUND_FACTOR) as u64,
                    "ops {} exceed bound for n={n}",
                    m.total_ops()
                );
            }
        }
    }

    #[test]
    fn step_budget_is_respected_up_to_unit_cost() {
        let mut state = 3u64;
        let n = 2000;
        let mut v: Vec<u32> = (0..n).map(|_| splitmix(&mut state) as u32).collect();
        let mut m = NthElementMachine::new(0, n, 100, Direction::Ascending);
        while m.step(&mut v, 10) == MachineStatus::InProgress {}
        // A unit costs at most ~SMALL ops (one insertion-sort placement).
        assert!(m.max_step_ops() <= 10 + SMALL as u64 + 2);
    }

    #[test]
    fn machine_ignores_buffer_outside_range() {
        let mut state = 5u64;
        let n = 500;
        let mut v: Vec<u32> = (0..n + 50)
            .map(|_| (splitmix(&mut state) % 1000) as u32)
            .collect();
        let frozen_prefix: Vec<u32> = v[..25].to_vec();
        let mut expect: Vec<u32> = v[25..25 + n].to_vec();
        expect.sort_unstable();
        let mut m = NthElementMachine::new(25, 25 + n, 77, Direction::Ascending);
        let mut tick = 0u32;
        while m.step(&mut v, 5) == MachineStatus::InProgress {
            // Mutate the regions outside [25, 525) between steps.
            v[tick as usize % 25] = tick;
            v[525 + (tick as usize % 25)] = tick;
            tick += 1;
        }
        assert_eq!(v[25 + 77], expect[77]);
        let _ = frozen_prefix;
    }

    #[test]
    fn rearmed_machine_matches_a_new_one_without_allocating() {
        let mut state = 13u64;
        let n = 3000;
        let base: Vec<u32> = (0..n).map(|_| splitmix(&mut state) as u32).collect();
        let mut m = NthElementMachine::new(0, n, 10, Direction::Ascending);
        m.run_to_completion(&mut base.clone());
        let reserved = m.frames.capacity();
        assert!(reserved >= depth_bound(n));
        for (lo, hi, k, dir) in [
            (0, n, 2000, Direction::Descending),
            (100, n, 7, Direction::Ascending),
        ] {
            let (mut a, mut b) = (base.clone(), base.clone());
            m.rearm(lo, hi, k, dir);
            let mut fresh = NthElementMachine::new(lo, hi, k, dir);
            while m.step(&mut a, 37) == MachineStatus::InProgress {}
            while fresh.step(&mut b, 37) == MachineStatus::InProgress {}
            assert_eq!(a, b);
            assert_eq!(m.result_index(), fresh.result_index());
            assert_eq!(m.total_ops(), fresh.total_ops());
            assert_eq!(m.max_step_ops(), fresh.max_step_ops());
            assert_eq!(
                m.frames.capacity(),
                reserved,
                "re-arming reallocated the frame stack"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty selection range")]
    fn empty_selection_range_panics() {
        let _ = NthElementMachine::<u32>::new(3, 3, 0, Direction::Ascending);
    }

    #[test]
    fn finished_machine_steps_are_noops() {
        let mut v: Vec<u32> = (0..200).rev().collect();
        let mut m = NthElementMachine::new(0, 200, 50, Direction::Ascending);
        m.run_to_completion(&mut v);
        let ops = m.total_ops();
        let snapshot = v.clone();
        assert_eq!(m.step(&mut v, 1000), MachineStatus::Finished);
        assert_eq!(m.total_ops(), ops, "finished machine must do no work");
        assert_eq!(v, snapshot, "finished machine must not touch the buffer");
    }

    #[test]
    fn single_element_range() {
        let mut v = vec![9u32, 42, 7];
        let mut m = NthElementMachine::new(1, 2, 0, Direction::Descending);
        assert_eq!(m.step(&mut v, 100), MachineStatus::Finished);
        assert_eq!(m.result_index(), Some(1));
        assert_eq!(v, vec![9, 42, 7]);
    }

    #[test]
    fn huge_budget_completes_in_one_step() {
        let mut v: Vec<u32> = (0..5000).map(|x| x * 37 % 991).collect();
        let mut m = NthElementMachine::new(0, 5000, 2500, Direction::Ascending);
        assert_eq!(m.step(&mut v, usize::MAX / 8), MachineStatus::Finished);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(v[2500], sorted[2500]);
    }
}
