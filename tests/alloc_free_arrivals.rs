//! Allocation-freedom of de-amortized arrivals.
//!
//! The de-amortized q-MAX promises a worst-case bound on *every*
//! arrival, so an arrival must not touch the allocator: the slots are
//! allocated at construction and the selection machine is re-armed in
//! place at every iteration boundary, keeping the frame stack it
//! reserved up front. These tests count allocator calls from the end of
//! construction through the warm-up fill and at least ten iterations, on
//! both buffer layouts and through both arrival paths.
//!
//! The counter is thread-local, so allocations made by other test
//! threads of this binary do not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qmax_core::{BatchInsert, Deamortized, Entry, QMax, Slots};
use qmax_select::PairedLanes;

/// Counts, per thread, every allocator call that can return new memory.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

const GAMMA: f64 = 0.25;

/// A uniform random stream: Ψ soon filters almost everything, so the
/// iterations come from the rare admissions.
fn random_stream(n: usize) -> Vec<(u64, u64)> {
    let mut state = 17u64;
    (0..n as u64).map(|i| (i, splitmix(&mut state))).collect()
}

/// A rising stream with every third item drawn small: two thirds of the
/// arrivals are admitted, so a large `q` cycles through many iterations.
fn rising_stream(n: usize) -> Vec<(u64, u64)> {
    let mut state = 29u64;
    (0..n as u64)
        .map(|i| {
            let noise = splitmix(&mut state) & 0xFFFF;
            let v = if i % 3 == 0 { noise } else { (i << 16) | noise };
            (i, v)
        })
        .collect()
}

/// Builds a q-MAX over layout `S`, then feeds `items` through `insert`
/// or `insert_batch`; returns the allocator calls made by the arrivals
/// and the iterations they completed.
fn arrivals<S: Slots<u64, u64>>(q: usize, items: &[(u64, u64)], batched: bool) -> (usize, u64) {
    let mut qm = Deamortized::<u64, u64, S>::new(q, GAMMA);
    let before = ALLOC_CALLS.with(Cell::get);
    if batched {
        for chunk in items.chunks(256) {
            qm.insert_batch(chunk);
        }
    } else {
        for &(id, v) in items {
            qm.insert(id, v);
        }
    }
    let calls = ALLOC_CALLS.with(Cell::get) - before;
    assert_eq!(qm.stats().forced_completions, 0);
    (calls, qm.stats().iterations)
}

fn check_layout<S: Slots<u64, u64>>(layout: &str) {
    let random = random_stream(200_000);
    let rising = rising_stream(60_000);
    for (stream, items, q) in [("random", &random, 256), ("rising", &rising, 10_000)] {
        for batched in [false, true] {
            let (calls, iterations) = arrivals::<S>(q, items, batched);
            assert!(
                iterations >= 10,
                "{layout}/{stream}/batched={batched}: only {iterations} iterations"
            );
            assert_eq!(
                calls, 0,
                "{layout}/{stream}/batched={batched}: {calls} allocations over {iterations} iterations"
            );
        }
    }
}

#[test]
fn aos_arrivals_do_not_allocate() {
    check_layout::<Vec<Entry<u64, u64>>>("aos");
}

#[test]
fn soa_arrivals_do_not_allocate() {
    check_layout::<PairedLanes<u64, u64>>("soa");
}
