//! Worst-case constant-time q-MAX (Algorithm 1 with de-amortized
//! compaction).

use crate::checkpoint::{BackendSnapshot, Checkpoint};
use crate::entry::Entry;
use crate::traits::{BatchInsert, IntervalBackend, QMax};
use qmax_select::{nth_smallest, Direction, NthElementMachine, WORK_BOUND_FACTOR};

/// Counters describing the de-amortized execution; used by the ablation
/// benchmarks and by tests asserting the worst-case bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeamortizedStats {
    /// Arrivals admitted into the buffer.
    pub admitted: u64,
    /// Arrivals dropped by the admission filter.
    pub filtered: u64,
    /// Completed compaction iterations.
    pub iterations: u64,
    /// Iterations whose selection machine had to be force-completed at
    /// the last step (work-bound estimate exceeded; should stay 0).
    pub forced_completions: u64,
    /// Largest number of selection-machine operations charged to a
    /// single arrival.
    pub max_step_ops: u64,
    /// Total selection-machine operations across all iterations.
    pub total_ops: u64,
}

/// The two alternating buffer geometries of an iteration.
///
/// The buffer has `n = q + 2g` slots with `g = ⌈qγ/2⌉`. In each
/// iteration, one `g`-sized end zone (`S2`) receives arrivals while a
/// selection runs over the other `q + g` slots (`S1`), moving the `q`
/// largest of `S1` into the middle `q` slots and the remaining `g` into
/// the far end zone — which becomes the next iteration's `S2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Parity {
    /// `S2 = [q+g, n)` (right end); `S1 = [0, q+g)`, selected in
    /// ascending order so its smallest `g` items land in `[0, g)`.
    InsertRight,
    /// `S2 = [0, g)` (left end); `S1 = [g, n)`, selected in descending
    /// order so its smallest `g` items land in `[q+g, n)`.
    InsertLeft,
}

/// q-MAX with **worst-case** `O(γ⁻¹)` update time and `q + 2⌈qγ/2⌉`
/// space (Algorithm 1 of the paper).
///
/// The buffer is split into a `g = ⌈qγ/2⌉`-slot insertion zone and a
/// `(q+g)`-slot selection zone. Each admitted arrival is written into
/// the insertion zone and advances a suspendable median-of-medians
/// selection ([`qmax_select::NthElementMachine`]) over the selection
/// zone by a fixed operation budget of
/// `⌈WORK_BOUND_FACTOR · (q+g) / g⌉ = O(γ⁻¹)` elementary operations.
/// After exactly `g` admitted arrivals the selection has finished: the
/// `q` largest candidates sit in the middle of the buffer, the admission
/// threshold Ψ rises to the q-th largest among them, and the `g`
/// discarded slots become the next insertion zone.
///
/// Compared with [`crate::AmortizedQMax`] this bounds the cost of
/// *every* update instead of the average, at the price of a slightly
/// higher constant — the paper's Figures 4–6 benchmark exactly this
/// trade-off.
///
/// ```
/// use qmax_core::{DeamortizedQMax, QMax};
/// let mut qm = DeamortizedQMax::new(4, 0.5);
/// for v in 0u64..1000 {
///     qm.insert(v as u32, v);
/// }
/// let mut top: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
/// top.sort();
/// assert_eq!(top, vec![996, 997, 998, 999]);
/// ```
#[derive(Debug)]
pub struct DeamortizedQMax<I, V> {
    q: usize,
    /// Insertion-zone size `⌈qγ/2⌉` (≥ 1).
    g: usize,
    /// Total buffer size `q + 2g`.
    n: usize,
    buf: Vec<Entry<I, V>>,
    /// Admission threshold Ψ.
    threshold: Option<V>,
    /// Whether the buffer is still filling for the very first time.
    filling: bool,
    /// Start of the current insertion zone (valid once not `filling`,
    /// or `q+g` during the first iteration which fills the right zone).
    s2_start: usize,
    /// Admitted arrivals in the current iteration, `0..g`.
    steps: usize,
    parity: Parity,
    machine: Option<NthElementMachine<Entry<I, V>>>,
    /// Index that holds the new Ψ when the current iteration completes.
    boundary: usize,
    /// Per-arrival operation budget for the selection machine.
    budget: usize,
    stats: DeamortizedStats,
}

impl<I: Clone, V: Ord + Clone> DeamortizedQMax<I, V> {
    /// Creates a de-amortized q-MAX for the `q` largest items with
    /// space-slack parameter `gamma` (γ): total space is `q + 2⌈qγ/2⌉`
    /// slots, i.e. at most `q(1+γ) + 2`.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `gamma` is not a positive finite number.
    /// Use [`DeamortizedQMax::try_new`] at fallible API boundaries.
    pub fn new(q: usize, gamma: f64) -> Self {
        Self::try_new(q, gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`DeamortizedQMax::new`]: rejects `q == 0` and
    /// non-positive / non-finite `gamma` instead of panicking.
    pub fn try_new(q: usize, gamma: f64) -> Result<Self, crate::QMaxError> {
        crate::error::check_q_gamma::<Entry<I, V>>(q, gamma)?;
        let g = ((q as f64) * gamma / 2.0).ceil() as usize;
        let g = g.max(1);
        let n = q + 2 * g;
        // Total selection work is at most WORK_BOUND_FACTOR * |S1| + a
        // constant; spreading it over the g arrivals of an iteration
        // gives the per-arrival budget (the paper's O(γ⁻¹) operations).
        let budget = (WORK_BOUND_FACTOR * (q + g)).div_ceil(g) + WORK_BOUND_FACTOR;
        Ok(DeamortizedQMax {
            q,
            g,
            n,
            buf: Vec::with_capacity(n),
            threshold: None,
            filling: true,
            s2_start: q + g,
            steps: 0,
            parity: Parity::InsertRight,
            machine: None,
            boundary: 0,
            budget,
            stats: DeamortizedStats::default(),
        })
    }

    /// Total buffer capacity `q + 2⌈qγ/2⌉`.
    pub fn capacity(&self) -> usize {
        self.n
    }

    /// The per-arrival selection-machine operation budget (`O(γ⁻¹)`).
    pub fn step_budget(&self) -> usize {
        self.budget
    }

    /// Execution counters.
    pub fn stats(&self) -> DeamortizedStats {
        self.stats
    }

    /// Starts the selection for the current parity. The buffer is full
    /// except during the very first iteration, which runs while arrivals
    /// are still filling the right insertion zone.
    fn begin_iteration(&mut self) {
        debug_assert!(
            self.buf.len() == self.n || (self.filling && self.buf.len() == self.q + self.g)
        );
        let (lo, hi, k, dir, boundary) = match self.parity {
            // S1 = [0, q+g): ascending selection puts the g smallest at
            // [0, g); index g then holds the q-th largest of S1.
            Parity::InsertRight => (0, self.q + self.g, self.g, Direction::Ascending, self.g),
            // S1 = [g, n): descending selection puts the q largest at
            // [g, g+q); index g+q-1 holds the q-th largest of S1.
            Parity::InsertLeft => (
                self.g,
                self.n,
                self.q - 1,
                Direction::Descending,
                self.g + self.q - 1,
            ),
        };
        self.machine = Some(NthElementMachine::new(lo, hi, k, dir));
        self.boundary = boundary;
    }

    /// Completes the current iteration: finishes the selection if it has
    /// not already converged, raises Ψ, and flips the geometry.
    fn finish_iteration(&mut self) {
        let mut machine = self.machine.take().expect("iteration must have a machine");
        if !machine.is_finished() {
            machine.run_to_completion(&mut self.buf);
            self.stats.forced_completions += 1;
        }
        self.stats.total_ops += machine.total_ops();
        self.stats.max_step_ops = self.stats.max_step_ops.max(machine.max_step_ops());
        self.stats.iterations += 1;
        let psi = self.buf[self.boundary].val.clone();
        self.threshold = Some(match self.threshold.take() {
            Some(old) if old > psi => old,
            _ => psi,
        });
        // The zone the selection pushed the g non-top items into becomes
        // the next insertion zone.
        self.parity = match self.parity {
            Parity::InsertRight => {
                self.s2_start = 0;
                Parity::InsertLeft
            }
            Parity::InsertLeft => {
                self.s2_start = self.q + self.g;
                Parity::InsertRight
            }
        };
        self.steps = 0;
        self.begin_iteration();
    }
}

impl<I: Clone, V: Ord + Clone> QMax<I, V> for DeamortizedQMax<I, V> {
    #[inline]
    fn insert(&mut self, id: I, val: V) -> bool {
        if let Some(t) = &self.threshold {
            if val <= *t {
                self.stats.filtered += 1;
                return false;
            }
        }
        self.stats.admitted += 1;
        if self.filling {
            self.buf.push(Entry::new(id, val));
            let len = self.buf.len();
            if len == self.q + self.g {
                // Selection zone full: start the first iteration while
                // arrivals keep filling the right zone.
                self.parity = Parity::InsertRight;
                self.begin_iteration();
            } else if len > self.q + self.g {
                self.steps += 1;
                let machine = self
                    .machine
                    .as_mut()
                    .expect("machine started when zone filled");
                machine.step(&mut self.buf, self.budget);
                if len == self.n {
                    debug_assert_eq!(self.steps, self.g);
                    self.filling = false;
                    self.finish_iteration();
                }
            }
            return true;
        }
        self.buf[self.s2_start + self.steps] = Entry::new(id, val);
        self.steps += 1;
        let machine = self
            .machine
            .as_mut()
            .expect("steady state always has a machine");
        machine.step(&mut self.buf, self.budget);
        if self.steps == self.g {
            self.finish_iteration();
        }
        true
    }

    fn query(&mut self) -> Vec<(I, V)> {
        // Valid candidates: everything except the not-yet-overwritten
        // tail of the insertion zone (those slots hold items already
        // discarded by a previous iteration).
        let stale = if self.filling {
            0..0
        } else {
            self.s2_start + self.steps..self.s2_start + self.g
        };
        let mut scratch: Vec<Entry<I, V>> = self
            .buf
            .iter()
            .enumerate()
            .filter(|(i, _)| !stale.contains(i))
            .map(|(_, e)| e.clone())
            .collect();
        if scratch.len() > self.q {
            let cut = scratch.len() - self.q;
            nth_smallest(&mut scratch, cut);
            scratch.drain(..cut);
        }
        scratch.into_iter().map(|e| (e.id, e.val)).collect()
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.threshold = None;
        self.filling = true;
        self.s2_start = self.q + self.g;
        self.steps = 0;
        self.parity = Parity::InsertRight;
        self.machine = None;
        self.stats = DeamortizedStats::default();
    }

    fn q(&self) -> usize {
        self.q
    }

    #[inline]
    fn len(&self) -> usize {
        if self.filling {
            self.buf.len()
        } else {
            self.n - (self.g - self.steps)
        }
    }

    #[inline]
    fn threshold(&self) -> Option<V> {
        self.threshold.clone()
    }

    fn name(&self) -> &'static str {
        "qmax-deamortized"
    }
}

impl<I: Clone, V: Ord + Clone> BatchInsert<I, V> for DeamortizedQMax<I, V> {
    fn insert_batch(&mut self, items: &[(I, V)]) -> usize {
        let mut admitted = 0;
        for (id, val) in items {
            admitted += usize::from(self.insert(id.clone(), val.clone()));
        }
        admitted
    }
}

impl<I: Clone, V: Ord + Clone> Checkpoint<I, V> for DeamortizedQMax<I, V> {
    /// The valid candidates and Ψ; `iterations` travels as `compactions`.
    fn snapshot(&self) -> BackendSnapshot<I, V> {
        let mut entries = Vec::with_capacity(self.len());
        self.candidates_into(&mut entries);
        BackendSnapshot {
            entries,
            threshold: self.threshold.clone(),
            compactions: self.stats.iterations,
            filtered: self.stats.filtered,
            pivot_fallbacks: 0,
        }
    }

    /// Resets, replays the entries with Ψ cleared, then raises Ψ to the
    /// snapshot's: query-equivalent, not step-equivalent.
    fn restore(&mut self, snap: &BackendSnapshot<I, V>) {
        self.reset();
        for e in &snap.entries {
            self.insert(e.id.clone(), e.val.clone());
        }
        self.threshold = self.threshold.take().max(snap.threshold.clone());
        self.stats.iterations = snap.compactions;
        self.stats.filtered = snap.filtered;
    }
}

impl<I: Clone, V: Ord + Clone> IntervalBackend<I, V> for DeamortizedQMax<I, V> {
    fn fresh(&self) -> Self {
        DeamortizedQMax {
            q: self.q,
            g: self.g,
            n: self.n,
            buf: Vec::with_capacity(self.n),
            threshold: None,
            filling: true,
            s2_start: self.q + self.g,
            steps: 0,
            parity: Parity::InsertRight,
            machine: None,
            boundary: 0,
            budget: self.budget,
            stats: DeamortizedStats::default(),
        }
    }

    fn capacity(&self) -> usize {
        self.n
    }

    fn candidates_into(&self, out: &mut Vec<Entry<I, V>>) {
        // Same validity rule as `query`: skip the not-yet-overwritten
        // tail of the insertion zone, whose slots hold items already
        // discarded by a previous iteration.
        let stale = if self.filling {
            0..0
        } else {
            self.s2_start + self.steps..self.s2_start + self.g
        };
        out.extend(
            self.buf
                .iter()
                .enumerate()
                .filter(|(i, _)| !stale.contains(i))
                .map(|(_, e)| e.clone()),
        );
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

    fn top_q_reference(vals: &[u64], q: usize) -> Vec<u64> {
        let mut s = vals.to_vec();
        s.sort_unstable_by(|a, b| b.cmp(a));
        s.truncate(q);
        s.sort_unstable();
        s
    }

    fn check_stream(vals: &[u64], q: usize, gamma: f64) {
        let mut qm = DeamortizedQMax::new(q, gamma);
        for (i, &v) in vals.iter().enumerate() {
            qm.insert(i as u32, v);
        }
        let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        assert_eq!(
            got,
            top_q_reference(vals, q),
            "q={q} gamma={gamma} n={}",
            vals.len()
        );
    }

    #[test]
    fn matches_reference_on_random_streams() {
        let mut state = 11u64;
        for q in [1usize, 2, 7, 64, 500] {
            for gamma in [0.05, 0.25, 1.0, 2.0] {
                let vals: Vec<u64> = (0..8000).map(|_| splitmix(&mut state) % 100_000).collect();
                check_stream(&vals, q, gamma);
            }
        }
    }

    #[test]
    fn matches_reference_on_adversarial_streams() {
        for q in [3usize, 50] {
            for gamma in [0.1, 1.0] {
                let n = 5000u64;
                check_stream(&(0..n).collect::<Vec<_>>(), q, gamma);
                check_stream(&(0..n).rev().collect::<Vec<_>>(), q, gamma);
                check_stream(&vec![42u64; n as usize], q, gamma);
                check_stream(&(0..n).map(|x| x % 17).collect::<Vec<_>>(), q, gamma);
            }
        }
    }

    #[test]
    fn query_is_correct_mid_iteration() {
        let mut state = 23u64;
        let vals: Vec<u64> = (0..3000).map(|_| splitmix(&mut state) % 10_000).collect();
        let q = 16;
        let mut qm = DeamortizedQMax::new(q, 0.5);
        for (i, &v) in vals.iter().enumerate() {
            qm.insert(i as u32, v);
            if i % 97 == 0 {
                let mut got: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
                got.sort_unstable();
                assert_eq!(got, top_q_reference(&vals[..=i], q), "at i={i}");
            }
        }
    }

    #[test]
    fn no_forced_completions_on_long_streams() {
        let mut state = 5u64;
        for gamma in [0.05, 0.5] {
            let mut qm = DeamortizedQMax::new(100, gamma);
            for i in 0..200_000u64 {
                qm.insert(i as u32, splitmix(&mut state));
            }
            assert_eq!(
                qm.stats().forced_completions,
                0,
                "selection work bound was violated for gamma={gamma}"
            );
            assert!(qm.stats().iterations > 0);
        }
    }

    #[test]
    fn per_step_work_is_bounded() {
        let mut state = 5u64;
        let q = 1000usize;
        let gamma = 0.1;
        let mut qm = DeamortizedQMax::new(q, gamma);
        for i in 0..500_000u64 {
            qm.insert(i as u32, splitmix(&mut state));
        }
        // Worst-case per-arrival work must stay within the configured
        // budget plus one indivisible unit.
        let budget = qm.step_budget() as u64;
        assert!(
            qm.stats().max_step_ops <= budget + 32,
            "max step ops {} exceeds budget {budget}",
            qm.stats().max_step_ops
        );
    }

    #[test]
    fn threshold_monotone_and_filters() {
        let mut state = 77u64;
        let mut qm = DeamortizedQMax::new(10, 0.3);
        let mut last: Option<u64> = None;
        for i in 0..50_000u64 {
            qm.insert(i as u32, splitmix(&mut state) % 1_000_000);
            if let Some(t) = qm.threshold() {
                if let Some(l) = last {
                    assert!(t >= l);
                }
                last = Some(t);
            }
        }
        assert!(qm.stats().filtered > 0);
        let t = qm.threshold().unwrap();
        assert!(
            !qm.insert(0, t),
            "value equal to threshold must be rejected"
        );
    }

    #[test]
    fn expected_update_count_is_logarithmic() {
        // Theorem 2: for i.i.d. streams the number of admitted items is
        // O(q log(|S|/q)). Check we are within a small factor.
        let mut state = 31u64;
        let q = 100usize;
        let stream = 1_000_000usize;
        let mut qm = DeamortizedQMax::new(q, 0.5);
        for i in 0..stream {
            qm.insert(i as u32, splitmix(&mut state));
        }
        let bound = 4.0 * (q as f64) * ((stream as f64) / (q as f64)).ln();
        assert!(
            (qm.stats().admitted as f64) < bound + 4.0 * q as f64,
            "admitted {} exceeds Theorem-2 style bound {bound}",
            qm.stats().admitted
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut qm = DeamortizedQMax::new(5, 0.5);
        for v in 0u64..1000 {
            qm.insert(v as u32, v);
        }
        qm.reset();
        assert!(qm.is_empty());
        assert_eq!(qm.threshold(), None);
        for v in 0u64..10 {
            qm.insert(v as u32, v);
        }
        let got = qm.query();
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn tiny_q_and_gamma() {
        check_stream(
            &(0..2000u64).map(|x| x * 7 % 1000).collect::<Vec<_>>(),
            1,
            0.01,
        );
    }

    #[test]
    fn stats_account_for_every_arrival() {
        let mut state = 41u64;
        let mut qm = DeamortizedQMax::new(64, 0.5);
        let n = 50_000u64;
        for i in 0..n {
            qm.insert(i as u32, splitmix(&mut state) % 10_000);
        }
        let st = qm.stats();
        assert_eq!(st.admitted + st.filtered, n, "arrival accounting leak");
        assert!(st.total_ops > 0);
        // Iterations consume exactly g admitted arrivals each (plus the
        // warm-up fill of q + g).
        let g = (qm.capacity() - qm.q()) / 2;
        let expected_iters = (st.admitted.saturating_sub(qm.q() as u64)) / g as u64;
        assert!(
            st.iterations <= expected_iters + 1 && st.iterations + 1 >= expected_iters.min(1),
            "iterations {} vs expected ~{expected_iters}",
            st.iterations
        );
    }

    #[test]
    fn capacity_and_budget_scale_with_gamma() {
        let tight: DeamortizedQMax<u32, u64> = DeamortizedQMax::new(1000, 0.05);
        let loose: DeamortizedQMax<u32, u64> = DeamortizedQMax::new(1000, 1.0);
        assert!(tight.capacity() < loose.capacity());
        assert!(
            tight.step_budget() > loose.step_budget(),
            "smaller gamma must mean more work per arrival"
        );
    }
}
