//! Lock-free single-producer/single-consumer batch rings — the
//! ingestion spine of the threaded shard drivers.
//!
//! The paper's throughput thesis is that measurement wins come from
//! shaving constant factors off the per-update hot path. Routing every
//! admitted batch through `std::sync::mpsc` bounded channels put
//! mutex-and-condvar machinery on the hottest cross-thread path in the
//! system: every `send`/`recv` pair took an internal lock and possibly
//! a futex syscall. This module replaces that plumbing with classic
//! Lamport SPSC rings specialized for the drivers' traffic shape —
//! whole owned batches (`Vec<(I, V)>`), one ring per (ingestion
//! thread × shard), so the PR 5 admit kernel's contiguous runs travel
//! intact and nothing on the steady-state path takes a lock:
//!
//! * **Publish/consume protocol** — `head` counts completed pops,
//!   `tail` counts completed pushes; both are monotonic `u64`s on their
//!   own cache lines ([`CachePadded`]), so occupancy is `tail - head`
//!   and the slot for operation `k` is `k & mask`. The producer writes
//!   the slot *then* publishes with a `Release` store of `tail + 1`;
//!   the consumer `Acquire`-loads `tail` before reading the slot, and
//!   releases the slot back with a `Release` store of `head + 1` that
//!   the producer `Acquire`-loads before reusing it. That pair of
//!   edges is the entire synchronization story — no CAS, no RMW, no
//!   lock on the steady-state path.
//! * **Spin-then-park consumption** — [`Consumer::recv`] spins briefly
//!   (cheap when traffic is flowing), then yields, then parks with a
//!   bounded timeout. The producer unparks after a push only when the
//!   consumer advertised it was parking, so an idle shard costs no CPU
//!   while a hot shard never syscalls. Parking always uses a timeout,
//!   so a lost wakeup race costs one timeout, never a hang.
//! * **Occupancy observability** — the producer records the high-water
//!   occupancy it observes ([`Producer::high_water`]), the backpressure
//!   signal [`crate::DriverReport::per_shard_ring_high_water`]
//!   surfaces; both handles can read the monotonic
//!   [push](Producer::pushed)/[consumed](Producer::consumed) counters.
//! * **Failure visibility** — dropping the [`Producer`] closes the
//!   ring (the consumer drains the leftovers and sees end-of-stream);
//!   dropping the [`Consumer`] (e.g. a worker thread unwinding) raises
//!   a flag the producer polls instead of blocking forever on a ring
//!   nobody will ever drain.
//!
//! In-flight elements are dropped with the ring itself, whichever side
//! outlives the other.

// The one crate module that needs `unsafe`: the slot array is
// `UnsafeCell<MaybeUninit<T>>` handed off between exactly two threads
// by the Acquire/Release protocol documented above. Everything outside
// this module stays forbidden territory; the protocol itself is pinned
// by the `ring::` unit tests, which CI also runs under Miri.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::Duration;

/// Pads (and aligns) a value to its own 128-byte cache-line pair, so
/// the producer-owned `tail` and consumer-owned `head` never
/// false-share (128 covers the adjacent-line prefetcher on x86).
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// Consumer-side park/wake state, kept off the hot indices' lines.
struct ParkState {
    /// Set by the consumer immediately before parking; cleared by
    /// whichever side wakes it. The producer only takes the handle
    /// lock when this is set, so steady-state pushes never lock.
    parked: AtomicBool,
    /// The consumer's thread handle, registered on first `recv`.
    consumer: Mutex<Option<Thread>>,
}

/// Shared state of one SPSC ring. `buf.len()` is a power of two ≥ the
/// logical capacity; fullness is judged against the logical capacity so
/// `with_capacity(depth)` admits exactly `depth` in-flight elements,
/// matching the bounded-channel semantics it replaces.
struct RingShared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: u64,
    cap: u64,
    /// Completed pops (consumer-written, producer-read).
    head: CachePadded<AtomicU64>,
    /// Completed pushes (producer-written, consumer-read).
    tail: CachePadded<AtomicU64>,
    /// Highest occupancy the producer ever observed (≤ `cap`).
    high_water: AtomicU64,
    /// Producer dropped/closed: consume the leftovers, then stop.
    closed: AtomicBool,
    /// Consumer dropped (worker thread died): pushes can never drain.
    consumer_gone: AtomicBool,
    park: ParkState,
}

// SAFETY: the ring hands each `T` from exactly one producer thread to
// exactly one consumer thread, with the slot write/read ordered by the
// Release(tail)/Acquire(tail) and Release(head)/Acquire(head) edges;
// `&RingShared` is otherwise only used for atomics and the park mutex.
unsafe impl<T: Send> Send for RingShared<T> {}
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Exclusive access: both handles are gone. Drop the in-flight
        // elements the consumer never claimed.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for k in head..tail {
            let slot = self.buf[(k & self.mask) as usize].get();
            // SAFETY: slots in [head, tail) were written by a push and
            // never popped; nobody else can touch them now.
            unsafe { (*slot).assume_init_drop() };
        }
    }
}

/// The producing half of an SPSC ring (not `Clone`: single producer).
pub struct Producer<T> {
    shared: Arc<RingShared<T>>,
}

/// The consuming half of an SPSC ring (not `Clone`: single consumer).
pub struct Consumer<T> {
    shared: Arc<RingShared<T>>,
    registered: bool,
}

/// Creates a bounded SPSC ring admitting exactly `capacity` in-flight
/// elements (`capacity` is clamped to ≥ 1).
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(1) as u64;
    let slots = cap.next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..slots)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(RingShared {
        buf,
        mask: slots - 1,
        cap,
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
        high_water: AtomicU64::new(0),
        closed: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
        park: ParkState {
            parked: AtomicBool::new(false),
            consumer: Mutex::new(None),
        },
    });
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer {
            shared,
            registered: false,
        },
    )
}

/// How long a parked consumer sleeps before re-checking on its own —
/// the bound on the cost of a lost wakeup race, not the common path
/// (the producer unparks eagerly).
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// Busy-poll iterations before a waiter starts yielding its timeslice.
/// Deliberately small: on an oversubscribed box (including the 1-core
/// CI container) the peer needs the core more than we need the spin.
const SPIN_LIMIT: u32 = 64;

/// Yield rounds after the spin phase before a consumer parks.
const YIELD_LIMIT: u32 = SPIN_LIMIT + 8;

/// One step of the shared spin→yield escalation used by both the
/// consumer's receive wait and the producer's full-ring wait.
#[inline]
pub(crate) fn backoff(step: u32) {
    if step < SPIN_LIMIT {
        std::hint::spin_loop();
    } else {
        thread::yield_now();
    }
}

impl<T> Producer<T> {
    /// Attempts to publish `t`; returns it back if the ring is full.
    /// Never blocks, never locks (except to wake a parked consumer).
    #[inline]
    pub fn try_push(&mut self, t: T) -> Result<(), T> {
        let sh = &*self.shared;
        let tail = sh.tail.0.load(Ordering::Relaxed);
        let head = sh.head.0.load(Ordering::Acquire);
        let occ = tail - head;
        if occ == sh.cap {
            // Full: record that backpressure pinned occupancy at
            // capacity — the signal the overload policy acts on.
            sh.high_water.fetch_max(occ, Ordering::Relaxed);
            return Err(t);
        }
        let slot = sh.buf[(tail & sh.mask) as usize].get();
        // SAFETY: head ≤ tail - cap < tail means this slot's previous
        // element (operation tail - slots) was popped, and the Acquire
        // load of `head` ordered that pop's slot read before this
        // write. Only this producer writes slots.
        unsafe { (*slot).write(t) };
        sh.tail.0.store(tail + 1, Ordering::Release);
        sh.high_water.fetch_max(occ + 1, Ordering::Relaxed);
        if sh.park.parked.swap(false, Ordering::AcqRel) {
            if let Some(thread) = sh.park.consumer.lock().unwrap().as_ref() {
                thread.unpark();
            }
        }
        Ok(())
    }

    /// Publishes `t`, waiting out a full ring with the bounded
    /// spin→yield escalation. Returns `Err(t)` only if the consumer
    /// died (its side dropped), i.e. the ring can never drain.
    pub fn push_wait(&mut self, mut t: T) -> Result<(), T> {
        let mut step = 0u32;
        loop {
            match self.try_push(t) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    if self.consumer_gone() {
                        return Err(back);
                    }
                    t = back;
                    backoff(step);
                    step = step.saturating_add(1);
                }
            }
        }
    }

    /// Elements currently in flight (pushed, not yet popped).
    pub fn occupancy(&self) -> u64 {
        let sh = &*self.shared;
        sh.tail.0.load(Ordering::Relaxed) - sh.head.0.load(Ordering::Acquire)
    }

    /// Logical capacity (the bound `try_push` enforces).
    pub fn capacity(&self) -> u64 {
        self.shared.cap
    }

    /// Highest occupancy ever observed by the producer, including
    /// full-ring rejections; ≤ [`capacity`](Self::capacity).
    pub fn high_water(&self) -> u64 {
        self.shared.high_water.load(Ordering::Relaxed)
    }

    /// Total elements ever pushed.
    pub fn pushed(&self) -> u64 {
        self.shared.tail.0.load(Ordering::Relaxed)
    }

    /// Total elements ever popped by the consumer (monotonic).
    pub fn consumed(&self) -> u64 {
        self.shared.head.0.load(Ordering::Acquire)
    }

    /// Whether the consumer handle was dropped (its worker died):
    /// anything pushed from now on will never drain.
    pub fn consumer_gone(&self) -> bool {
        self.shared.consumer_gone.load(Ordering::Acquire)
    }

    /// Closes the ring: the consumer drains what is in flight, then
    /// sees end-of-stream. Dropping the producer does the same.
    pub fn close(&mut self) {
        let sh = &*self.shared;
        sh.closed.store(true, Ordering::Release);
        if sh.park.parked.swap(false, Ordering::AcqRel) {
            if let Some(thread) = sh.park.consumer.lock().unwrap().as_ref() {
                thread.unpark();
            }
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> Consumer<T> {
    /// Attempts to pop the oldest element. Never blocks.
    #[inline]
    pub fn try_pop(&mut self) -> Option<T> {
        let sh = &*self.shared;
        let head = sh.head.0.load(Ordering::Relaxed);
        let tail = sh.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = sh.buf[(head & sh.mask) as usize].get();
        // SAFETY: head < tail and the Acquire load of `tail` ordered
        // the producer's slot write before this read. Only this
        // consumer reads-and-releases slots.
        let t = unsafe { (*slot).assume_init_read() };
        sh.head.0.store(head + 1, Ordering::Release);
        Some(t)
    }

    /// Pops the next element, spinning then yielding then parking while
    /// the ring is empty. Returns `None` once the ring is closed *and*
    /// drained — the end-of-stream a worker loop terminates on.
    pub fn recv(&mut self) -> Option<T> {
        if let Some(t) = self.try_pop() {
            return Some(t);
        }
        if !self.registered {
            *self.shared.park.consumer.lock().unwrap() = Some(thread::current());
            self.registered = true;
        }
        let mut step = 0u32;
        loop {
            if let Some(t) = self.try_pop() {
                return Some(t);
            }
            // Closed is checked *after* a failed pop: a producer that
            // pushes then closes always has its push observed.
            if self.shared.closed.load(Ordering::Acquire) {
                return self.try_pop();
            }
            if step < YIELD_LIMIT {
                backoff(step);
                step += 1;
                continue;
            }
            // Park with a timeout: the producer's unpark makes the
            // common wake immediate, the timeout bounds the rare race
            // where the push lands between our last pop attempt and
            // the park.
            self.shared.park.parked.store(true, Ordering::Release);
            if let Some(t) = self.try_pop() {
                self.shared.park.parked.store(false, Ordering::Release);
                return Some(t);
            }
            thread::park_timeout(PARK_TIMEOUT);
            self.shared.park.parked.store(false, Ordering::Release);
        }
    }

    /// Total elements ever popped.
    pub fn consumed(&self) -> u64 {
        self.shared.head.0.load(Ordering::Relaxed)
    }

    /// Whether the producing side has closed the ring (elements may
    /// still be in flight).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_gone.store(true, Ordering::Release);
    }
}

/// Pins the calling thread to `core` (Linux `sched_setaffinity` on the
/// current thread, issued as a raw syscall — the workspace carries no
/// libc dependency). Returns whether pinning took effect; on
/// unsupported platforms it is a no-op returning `false`, so
/// `DriverConfig::pin_threads` degrades to plain scheduling.
pub fn pin_current_thread(core: usize) -> bool {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        const MASK_WORDS: usize = 16; // 1024 CPUs
        if core >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[core / 64] |= 1u64 << (core % 64);
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: sched_setaffinity(2) with pid 0 (the calling thread),
        // a correctly sized cpu_set_t buffer, and no memory written by
        // the kernel; clobbers follow the x86_64 syscall ABI.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 203isize => ret, // SYS_sched_setaffinity
                in("rdi") 0usize,
                in("rsi") MASK_WORDS * 8,
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, readonly)
            );
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above, via the aarch64 svc ABI.
        unsafe {
            std::arch::asm!(
                "svc 0",
                inlateout("x0") 0usize => ret,
                in("x1") MASK_WORDS * 8,
                in("x2") mask.as_ptr(),
                in("x8") 122usize, // SYS_sched_setaffinity
                options(nostack, readonly)
            );
        }
        ret == 0
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        let _ = core;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Drop-counting payload for the reclamation tests.
    #[derive(Debug)]
    struct Counted<'a>(u64, &'a AtomicUsize);
    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn fifo_order_and_wraparound() {
        let (mut tx, mut rx) = ring::<u64>(3);
        assert_eq!(tx.capacity(), 3);
        // Several laps around the (4-slot) buffer with a capacity-3
        // bound: order is preserved and fullness is judged against the
        // logical capacity, not the slot count.
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for _ in 0..10 {
            while tx.try_push(next_in).is_ok() {
                next_in += 1;
            }
            assert_eq!(tx.occupancy(), 3);
            while let Some(v) = rx.try_pop() {
                assert_eq!(v, next_out);
                next_out += 1;
            }
            assert_eq!(next_in, next_out);
        }
        assert_eq!(next_out, 30);
    }

    #[test]
    fn empty_and_full_transitions() {
        let (mut tx, mut rx) = ring::<u32>(1);
        assert!(rx.try_pop().is_none());
        assert!(tx.try_push(7).is_ok());
        assert_eq!(tx.try_push(8), Err(8));
        assert_eq!(rx.try_pop(), Some(7));
        assert!(rx.try_pop().is_none());
        assert!(tx.try_push(9).is_ok());
        assert_eq!(rx.try_pop(), Some(9));
    }

    #[test]
    fn high_water_tracks_peak_occupancy_and_caps_at_capacity() {
        let (mut tx, mut rx) = ring::<u8>(4);
        assert_eq!(tx.high_water(), 0);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.high_water(), 2);
        rx.try_pop();
        rx.try_pop();
        // Draining never lowers the recorded peak.
        assert_eq!(tx.high_water(), 2);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(9), Err(9));
        assert_eq!(tx.high_water(), 4);
        assert_eq!(tx.high_water(), tx.capacity());
    }

    #[test]
    fn close_drains_then_ends_stream() {
        let (mut tx, mut rx) = ring::<u64>(8);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        tx.close();
        assert!(rx.is_closed());
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn dropping_producer_closes() {
        let (mut tx, mut rx) = ring::<u64>(2);
        tx.try_push(5).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(5));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn dropping_consumer_is_visible_and_push_wait_escapes() {
        let (mut tx, rx) = ring::<u64>(1);
        assert!(!tx.consumer_gone());
        tx.try_push(1).unwrap();
        drop(rx);
        assert!(tx.consumer_gone());
        // Ring is full and nobody will ever drain it: push_wait must
        // hand the element back instead of waiting forever.
        assert_eq!(tx.push_wait(2), Err(2));
    }

    #[test]
    fn inflight_elements_drop_with_the_ring() {
        let drops = AtomicUsize::new(0);
        {
            let (mut tx, mut rx) = ring::<Counted>(4);
            tx.try_push(Counted(1, &drops)).unwrap();
            tx.try_push(Counted(2, &drops)).unwrap();
            tx.try_push(Counted(3, &drops)).unwrap();
            let popped = rx.try_pop().unwrap();
            assert_eq!(popped.0, 1);
            drop(popped);
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        }
        // The two unclaimed elements died with the ring — exactly once.
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn consumed_and_pushed_counters_are_monotonic() {
        let (mut tx, mut rx) = ring::<u64>(2);
        assert_eq!((tx.pushed(), tx.consumed()), (0, 0));
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!((tx.pushed(), tx.consumed()), (2, 0));
        rx.try_pop();
        assert_eq!((tx.pushed(), tx.consumed()), (2, 1));
        assert_eq!(rx.consumed(), 1);
        rx.try_pop();
        assert_eq!(tx.consumed(), 2);
    }

    /// The cross-thread publish/consume ordering test CI also runs
    /// under Miri: every popped payload must be fully initialized and
    /// arrive exactly once, in order, across the handoff.
    #[test]
    fn cross_thread_transfer_is_exact_and_ordered() {
        let n: u64 = if cfg!(miri) { 200 } else { 200_000 };
        let (mut tx, mut rx) = ring::<Box<u64>>(8);
        let sum = thread::scope(|scope| {
            let consumer = scope.spawn(move || {
                let mut expect = 0u64;
                let mut sum = 0u64;
                while let Some(v) = rx.recv() {
                    assert_eq!(*v, expect, "reordered or duplicated element");
                    expect += 1;
                    sum = sum.wrapping_add(*v);
                }
                assert_eq!(expect, n, "lost elements");
                sum
            });
            for i in 0..n {
                tx.push_wait(Box::new(i)).unwrap();
            }
            drop(tx);
            consumer.join().unwrap()
        });
        assert_eq!(sum, (0..n).fold(0u64, u64::wrapping_add));
    }

    /// Park/unpark path: a slow producer forces the consumer through
    /// the spin→yield→park escalation; nothing may be lost or hang.
    #[test]
    fn parked_consumer_wakes_on_push_and_on_close() {
        let n: u64 = if cfg!(miri) { 5 } else { 50 };
        let (mut tx, mut rx) = ring::<u64>(2);
        thread::scope(|scope| {
            let consumer = scope.spawn(move || {
                let mut got = 0u64;
                while let Some(v) = rx.recv() {
                    assert_eq!(v, got);
                    got += 1;
                }
                got
            });
            for i in 0..n {
                if !cfg!(miri) {
                    // Let the consumer reach the parked state.
                    thread::sleep(Duration::from_micros(300));
                }
                tx.push_wait(i).unwrap();
            }
            drop(tx); // close wakes the parked consumer for shutdown
            assert_eq!(consumer.join().unwrap(), n);
        });
    }

    #[test]
    fn pin_current_thread_is_safe_to_call() {
        // On Linux pinning to core 0 should succeed; elsewhere the stub
        // returns false. Either way it must not crash or wedge.
        let ok = pin_current_thread(0);
        if cfg!(target_os = "linux") {
            assert!(ok, "sched_setaffinity(0) failed on linux");
        }
        // Out-of-range cores are rejected, not UB.
        assert!(!pin_current_thread(1 << 20));
    }
}
