//! Allocation-freedom of q-MAX construction and arrivals.
//!
//! The de-amortized q-MAX promises a worst-case bound on *every*
//! arrival, so an arrival must not touch the allocator: the slots are
//! allocated at construction and the selection machine is re-armed in
//! place at every iteration boundary, keeping the frame stack it
//! reserved up front. These tests count allocator calls from the end of
//! construction through the warm-up fill and at least ten iterations, on
//! both buffer layouts and through both arrival paths.
//!
//! The amortized q-MAX allocates its storage lazily instead: construction
//! and `fresh()` allocate nothing, and the slots, the pivot sample and
//! (structure-of-arrays) the partition scratch lanes are sized by the
//! first fill and the first sampled compaction. After that warm-up, its
//! arrivals, compactions included, allocate nothing on either layout.
//!
//! The counter is thread-local, so allocations made by other test
//! threads of this binary do not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qmax_core::{
    AdaptiveBackend, Amortized, AmortizedQMax, BatchInsert, Deamortized, Entry, IntervalBackend,
    QMax, Slots, SoaAmortizedQMax,
};
use qmax_select::kernels::SAMPLED_COMPACT_MIN;
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

/// Allocator calls made on this thread while running `f`.
fn calls_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOC_CALLS.with(Cell::get);
    let out = f();
    (ALLOC_CALLS.with(Cell::get) - before, out)
}

/// Feeds `items` through `insert` or, in chunks of 256, `insert_batch`.
fn feed<B: BatchInsert<u64, u64>>(qm: &mut B, items: &[(u64, u64)], batched: bool) {
    if batched {
        for chunk in items.chunks(256) {
            qm.insert_batch(chunk);
        }
    } else {
        for &(id, v) in items {
            qm.insert(id, v);
        }
    }
}

/// Builds a q-MAX over layout `S`, then feeds `items` through `insert`
/// or `insert_batch`; returns the allocator calls made by the arrivals
/// and the iterations they completed.
fn arrivals<S: Slots<u64, u64>>(q: usize, items: &[(u64, u64)], batched: bool) -> (usize, u64) {
    let mut qm = Deamortized::<u64, u64, S>::new(q, GAMMA);
    let (calls, ()) = calls_during(|| feed(&mut qm, items, batched));
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

/// Builds an amortized q-MAX over layout `S` with a sampled-compaction
/// capacity, warms it up to its first compaction, then feeds the rest of
/// `items`; returns the allocator calls made after the warm-up and the
/// compactions they include.
fn amortized_arrivals<S: Slots<u64, u64>>(items: &[(u64, u64)], batched: bool) -> (usize, u64) {
    let mut qm = Amortized::<u64, u64, S>::new(2048, GAMMA);
    assert!(qm.capacity() >= SAMPLED_COMPACT_MIN);
    let mut warm = 0;
    while qm.compactions() == 0 {
        let (id, v) = items[warm];
        qm.insert(id, v);
        warm += 1;
    }
    let (calls, ()) = calls_during(|| feed(&mut qm, &items[warm..], batched));
    (calls, qm.compactions() - 1)
}

fn check_amortized_layout<S: Slots<u64, u64>>(layout: &str) {
    let rising = rising_stream(60_000);
    for batched in [false, true] {
        let (calls, compactions) = amortized_arrivals::<S>(&rising, batched);
        assert!(
            compactions >= 10,
            "{layout}/batched={batched}: only {compactions} compactions"
        );
        assert_eq!(
            calls, 0,
            "{layout}/batched={batched}: {calls} allocations over {compactions} compactions"
        );
    }
}

#[test]
fn aos_amortized_arrivals_do_not_allocate() {
    check_amortized_layout::<Vec<Entry<u64, u64>>>("aos");
}

#[test]
fn soa_amortized_arrivals_do_not_allocate() {
    check_amortized_layout::<PairedLanes<u64, u64>>("soa");
}

/// Allocator calls of a second `build()` and of a `fresh()` block from
/// it; the first `build()` fills the process-wide caches (kernel tier,
/// backend policy).
fn construction_calls<B: IntervalBackend<u64, u64>>(build: impl Fn() -> B) -> (usize, usize) {
    drop(build());
    let (built, proto) = calls_during(&build);
    let (fresh, _) = calls_during(|| proto.fresh());
    (built, fresh)
}

#[test]
fn amortized_construction_does_not_allocate() {
    const Q: usize = 100_000;
    let cases = [
        (
            "aos",
            construction_calls(|| AmortizedQMax::try_new(Q, GAMMA).unwrap()),
        ),
        (
            "soa",
            construction_calls(|| SoaAmortizedQMax::try_new(Q, GAMMA).unwrap()),
        ),
        (
            "adaptive",
            construction_calls(|| AdaptiveBackend::try_new(Q, GAMMA).unwrap()),
        ),
    ];
    for (backend, (built, fresh)) in cases {
        assert_eq!(built, 0, "{backend}: try_new allocated {built} times");
        assert_eq!(fresh, 0, "{backend}: fresh allocated {fresh} times");
    }
}
