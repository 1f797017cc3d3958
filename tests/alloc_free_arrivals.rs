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
//! The keyed LRFU caches and the exponential-decay wrapper keep their
//! per-request and per-batch scratch buffers as fields: once warmed up
//! through several maintenance passes (compactions), their requests
//! (batches) allocate nothing either. The duplicate-merging q-MAX keeps
//! its merge table as a field and drains it at every compaction, so its
//! arrivals, merges included, allocate nothing after the first.
//!
//! Construction is pinned as well: a de-amortized build allocates only
//! the buffers its arrivals will use, and a sharded engine of them only
//! its fixed bookkeeping besides.
//!
//! The counter is thread-local, so allocations made by other test
//! threads of this binary do not reach it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qmax_core::{
    AdaptiveBackend, Amortized, AmortizedQMax, BatchInsert, Deamortized, DeamortizedQMax,
    DedupQMax, Entry, ExpDecayQMax, IntervalBackend, OrderedF64, QMax, Slots, SoaAmortizedQMax,
    SoaDeamortizedQMax,
};
use qmax_engine::ShardedQMax;
use qmax_lrfu::{Cache, DeamortizedLrfu, QMaxLrfu};
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

/// Allocator calls of a first `build()` and of a `fresh()` block from
/// it: construction fills no process-wide cache, so the first build is
/// already the steady one.
fn construction_calls<B: IntervalBackend<u64, u64>>(build: impl FnOnce() -> B) -> (usize, usize) {
    let (built, proto) = calls_during(build);
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

/// The de-amortized q-MAX allocates everything its arrivals use at
/// construction, so its buffers are all a build allocates: the slots
/// and the selection machine's frame stack, with the structure-of-arrays
/// slots as two lanes. A four-shard engine makes two calls per shard plus
/// one each for its boxed shard factory and its shard, health and
/// conserved-count vectors. A buffer of 128 KB or more costs an `mmap`
/// and a first-touch fault in a fresh process, so an extra one shows in
/// the first construction.
#[test]
fn deamortized_construction_allocates_only_its_buffers() {
    const Q: usize = 10_000;
    let cases = [
        (
            "aos",
            2,
            calls_during(|| DeamortizedQMax::<u64, u64>::try_new(Q, GAMMA).unwrap()).0,
        ),
        (
            "soa",
            3,
            calls_during(|| SoaDeamortizedQMax::<u64, u64>::try_new(Q, GAMMA).unwrap()).0,
        ),
        (
            "sharded-4",
            12,
            calls_during(|| ShardedQMax::<u64, u64>::new(Q, GAMMA, 4)).0,
        ),
    ];
    for (structure, expect, built) in cases {
        assert_eq!(
            built, expect,
            "{structure}: a build allocated {built} times"
        );
    }
}

/// Cache requests over a 20k-key universe: a mix of hits and misses
/// that keeps the maintenance passes coming.
fn request_stream(n: usize) -> Vec<u64> {
    let mut state = 41u64;
    (0..n).map(|_| splitmix(&mut state) % 20_000).collect()
}

#[test]
fn deamortized_lrfu_requests_do_not_allocate() {
    let requests = request_stream(200_000);
    let mut cache = DeamortizedLrfu::new(1_000, 0.25, 0.75);
    // The first pipeline iterations snapshot fewer keys than the
    // snapshot backend holds, so its first compaction (which sizes the
    // pivot sample) waits until the population has grown past that.
    let mut warm = 0;
    while cache.stats().iterations < 10 {
        cache.request(requests[warm]);
        warm += 1;
    }
    let before = cache.stats().iterations;
    let (calls, ()) = calls_during(|| {
        for &k in &requests[warm..] {
            cache.request(k);
        }
    });
    let iterations = cache.stats().iterations - before;
    assert!(iterations >= 10, "only {iterations} pipeline iterations");
    assert_eq!(
        calls,
        0,
        "{calls} allocations over {} requests ({iterations} iterations)",
        requests.len() - warm
    );
}

#[test]
fn qmax_lrfu_steady_state_requests_do_not_allocate() {
    let requests = request_stream(200_000);
    let mut cache = QMaxLrfu::new(1_000, 0.5, 0.75);
    let mut warm = 0;
    while cache.maintenance_passes() < 5 {
        cache.request(requests[warm]);
        warm += 1;
    }
    let before = cache.maintenance_passes();
    let (calls, ()) = calls_during(|| {
        for &k in &requests[warm..] {
            cache.request(k);
        }
    });
    let passes = cache.maintenance_passes() - before;
    assert!(passes >= 10, "only {passes} passes");
    assert_eq!(
        calls, 0,
        "{calls} allocations over {passes} maintenance passes"
    );
}

#[test]
fn exp_decay_batches_do_not_allocate() {
    let mut state = 53u64;
    let items: Vec<(u64, OrderedF64)> = (0..100_000u64)
        .map(|i| (i, OrderedF64(1.0 + (splitmix(&mut state) % 1_000) as f64)))
        .collect();
    let mut decayed = ExpDecayQMax::new(AdaptiveBackend::new(2048, GAMMA), 0.999);
    let mut chunks = items.chunks(256);
    while decayed.backend().compactions() < 2 {
        decayed.insert_batch(chunks.next().expect("warm-up compacts"));
    }
    let before = decayed.backend().compactions();
    let (calls, ()) = calls_during(|| {
        for chunk in chunks {
            decayed.insert_batch(chunk);
        }
    });
    let compactions = decayed.backend().compactions() - before;
    assert!(compactions >= 10, "only {compactions} compactions");
    assert_eq!(
        calls, 0,
        "{calls} allocations over {compactions} compactions"
    );
}

/// Duplicate-merging q-MAX over 5,000 keys whose values mostly rise:
/// two thirds of the arrivals are admitted, so the buffer fills and
/// merges every few hundred arrivals.
#[test]
fn dedup_arrivals_do_not_allocate() {
    let mut state = 61u64;
    let items: Vec<(u64, u64)> = rising_stream(300_000)
        .into_iter()
        .map(|(_, v)| (splitmix(&mut state) % 5_000, v))
        .collect();
    for batched in [false, true] {
        let mut dedup = DedupQMax::new(1_000, GAMMA);
        let mut warm = 0;
        while dedup.compactions() == 0 {
            let (id, v) = items[warm];
            dedup.insert(id, v);
            warm += 1;
        }
        let (calls, ()) = calls_during(|| feed(&mut dedup, &items[warm..], batched));
        let compactions = dedup.compactions() - 1;
        assert!(
            compactions >= 10,
            "batched={batched}: only {compactions} compactions"
        );
        assert_eq!(
            calls, 0,
            "batched={batched}: {calls} allocations over {compactions} compactions"
        );
    }
}
