//! Allocation-freedom of the slack-window steady state.
//!
//! The block ring behind every slack window recycles expired blocks *in
//! place* (`IntervalBackend::reset` keeps the materialized storage), so
//! once a window has cycled through all of its blocks, further arrivals
//! — including epoch advances that retire and recycle blocks — must not
//! touch the allocator at all. This test pins that property with a
//! counting global allocator: any regression that re-allocates or clones
//! a block per epoch shows up as a nonzero delta.
//!
//! The lazy window is deliberately absent: completing a base block
//! extracts a top-q summary into a fresh `Vec`, which is an accepted
//! `O(q)`-per-block allocation, not ring churn.
//!
//! This file holds exactly one `#[test]` so no concurrent test thread
//! can perturb the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qmax_core::{
    BasicSlackQMax, BatchInsert, HierSlackQMax, QMax, SoaAmortizedQMax, TimeSlackQMax,
};

/// Counts every allocator call that can return a new block of memory.
struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
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

/// Runs `body` and returns how many allocator calls it made.
fn alloc_delta(body: impl FnOnce()) -> usize {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    body();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_window_inserts_do_not_allocate() {
    const Q: usize = 32;
    const GAMMA: f64 = 0.5;
    const W: usize = 10_000;
    const TAU: f64 = 0.1;

    // --- Basic slack window, AoS backend, singleton inserts ---
    let mut basic = BasicSlackQMax::<u64, u64>::new(Q, GAMMA, W, TAU);
    let mut rng = 1u64;
    // Warm-up: cycle through every block at least twice so all block
    // buffers are materialized and every slot has been recycled once.
    for i in 0..(3 * basic.effective_window()) as u64 {
        basic.insert(i, splitmix(&mut rng));
    }
    let steady = 3 * basic.effective_window();
    let delta = alloc_delta(|| {
        for i in 0..steady as u64 {
            basic.insert(i, splitmix(&mut rng));
        }
    });
    assert_eq!(
        delta,
        0,
        "AoS basic window allocated {delta} times across {} epoch advances",
        steady / basic.block_size()
    );

    // --- Basic slack window, SoA backend, batched inserts ---
    let mut soa = BasicSlackQMax::with_backend(W, TAU, SoaAmortizedQMax::<u64, u64>::new(Q, GAMMA));
    let mut batch: Vec<(u64, u64)> = Vec::with_capacity(256);
    for i in 0..(3 * soa.effective_window()) as u64 {
        soa.insert(i, splitmix(&mut rng));
    }
    for chunk_start in 0..steady / 256 {
        batch.clear();
        for i in 0..256u64 {
            batch.push((chunk_start as u64 * 256 + i, splitmix(&mut rng)));
        }
        let delta = alloc_delta(|| {
            soa.insert_batch(&batch);
        });
        assert_eq!(delta, 0, "SoA basic window allocated during a batch");
    }

    // --- Hierarchical slack window, AoS + SoA backends ---
    let mut hier = HierSlackQMax::<u64, u64>::new(Q, GAMMA, W, TAU, 2);
    let mut hier_soa =
        HierSlackQMax::with_backend(W, TAU, 2, SoaAmortizedQMax::<u64, u64>::new(Q, GAMMA));
    for i in 0..(3 * hier.effective_window()) as u64 {
        hier.insert(i, splitmix(&mut rng));
        hier_soa.insert(i, splitmix(&mut rng));
    }
    let delta = alloc_delta(|| {
        for i in 0..steady as u64 {
            hier.insert(i, splitmix(&mut rng));
            hier_soa.insert(i, splitmix(&mut rng));
        }
    });
    assert_eq!(delta, 0, "hierarchical windows allocated in steady state");

    // --- Time-based slack window, AoS + SoA backends ---
    // One block per 1000 ns; sweep enough time to lap the ring twice
    // during warm-up, then assert the lapping itself is allocation-free.
    let mut tw = TimeSlackQMax::<u64, u64>::new(Q, GAMMA, 10_000, TAU);
    let mut tw_soa =
        TimeSlackQMax::with_backend(10_000, TAU, SoaAmortizedQMax::<u64, u64>::new(Q, GAMMA));
    for i in 0..30_000u64 {
        tw.insert(i, splitmix(&mut rng), i);
        tw_soa.insert(i, splitmix(&mut rng), i);
    }
    let delta = alloc_delta(|| {
        for i in 30_000..60_000u64 {
            tw.insert(i, splitmix(&mut rng), i);
            tw_soa.insert(i, splitmix(&mut rng), i);
        }
    });
    assert_eq!(delta, 0, "time windows allocated in steady state");

    // The structures still answer queries correctly after the whole run
    // (queries may allocate; that is outside the steady-state contract).
    assert_eq!(basic.query().len(), Q);
    assert_eq!(soa.query().len(), Q);
    assert_eq!(hier.query().len(), Q);
    assert_eq!(hier_soa.query().len(), Q);
}
