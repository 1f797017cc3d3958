//! # Sharded, batch-insert q-MAX engine
//!
//! The paper's OVS integration (Section 6.6) runs **one measurement
//! instance per PMD thread** and merges them at query time; that is what
//! lets q-MAX ride a multi-queue NIC to 10G/40G line rate. This crate
//! generalizes the pattern into a reusable engine:
//!
//! * [`ShardedQMax`] — `S` independent q-MAX shards (any [`QMax`]
//!   backend, [`DeamortizedQMax`] by default). Item ids are
//!   hash-partitioned over shards ([`ShardKey`]), so each shard sees a
//!   disjoint sub-stream, exactly like RSS spreading flows over PMD
//!   threads.
//! * **Batched hot path** — [`ShardedQMax::insert_batch`] snapshots each
//!   shard's admission threshold Ψ once per call and drops sub-threshold
//!   items with a single compare, routing the survivors into per-shard
//!   runs handed to each backend as one [`BatchInsert`] batch. Since Ψ
//!   only rises, the snapshot is always a safe under-approximation: the
//!   pre-filter never drops an item the shard would have admitted, and
//!   the shard re-checks its exact Ψ internally.
//! * **Structure-of-arrays shards** — [`ShardedQMax::with_backends`]
//!   with `|_| SoaDeamortizedQMax::new(q, γ)` (or `SoaAmortizedQMax`)
//!   builds shards from the split-lane
//!   [`qmax_core::SoaDeamortizedQMax`] /
//!   [`qmax_core::SoaAmortizedQMax`] backends: branchless batch
//!   admission and value-only selection kernels for `Copy` primitive
//!   ids/values, the hot-loop constant the paper's throughput argument
//!   rests on.
//! * **Merge on query** — each shard retains its local top-`q`; any
//!   global top-`q` item is beaten by at most `q − 1` items globally, so
//!   certainly by at most `q − 1` within its own shard. The union of the
//!   `S` local top-`q` sets therefore contains the global top-`q`, which
//!   a final `O(S·q)` selection ([`qmax_core::retain_top_q`]) extracts
//!   exactly.
//! * **Multi-threaded driver** — [`ShardedQMax::run_threaded`] spawns
//!   one worker per shard (scoped `std` threads + lock-free SPSC
//!   [`ring`] buffers; no external dependencies), routes a stream into
//!   per-shard batches, and reports per-shard load, ring high-water
//!   occupancy, and aggregate insert throughput; optional core pinning
//!   via [`DriverConfig::pin_threads`], and
//!   [`ShardedQMax::run_threaded_partitioned`] fans P ingestion
//!   threads out over one ring per (thread × shard). Both are short
//!   calls into one driver core (one producer routine, one worker loop,
//!   one recovery path, one reassembly) over [`Checkpoint`] backends,
//!   and no lock sits on the per-batch path of either.
//! * **Fault tolerance** — worker panics are caught and isolated: the
//!   failing shard is quarantined and rebuilt from the engine's stored
//!   backend factory while the other workers keep running
//!   ([`DriverReport::failures`]); [`OverloadPolicy::Shed`] bounds
//!   producer latency under a slow shard by shedding a budgeted number
//!   of items instead of blocking; and the [`fault`] module provides a
//!   deterministic fault-injection harness ([`FaultyBackend`]) to test
//!   all of it reproducibly.
//! * **Supervision** — purely [`DriverConfig`] on the same core:
//!   [`DriverConfig::checkpoint_every`] adds checkpointed **warm
//!   recovery** (a panicking shard restores from its last
//!   [`Checkpoint`] snapshot, bounding loss to one checkpoint
//!   interval; the de-amortized backends restore by query
//!   equivalence), [`DriverConfig::watchdog`] a **stall watchdog**
//!   (heartbeat-silent workers are replaced under bounded exponential
//!   backoff with deterministic jitter); every run keeps a full
//!   [`ShardLifecycle`] transition log, and coverage-annotated degraded
//!   queries ([`ShardedQMax::query_with_coverage`]).
//! * **Observability** — per-shard [`DeamortizedStats`] roll up via
//!   [`ShardedQMax::aggregate_stats`], so the worst-case-bound
//!   invariants (`forced_completions == 0`, bounded `max_step_ops`)
//!   remain checkable per shard in a sharded deployment.
//!
//! ## Quick start
//!
//! ```
//! use qmax_engine::ShardedQMax;
//! use qmax_core::QMax;
//!
//! // Track the global top-4 across 4 hash-partitioned shards.
//! let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(4, 0.25, 4);
//! let items: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i * 7 % 9973)).collect();
//! engine.insert_batch(&items);
//! let mut top: Vec<u64> = engine.query().into_iter().map(|(_, v)| v).collect();
//! top.sort_unstable();
//! assert_eq!(top, vec![9969, 9970, 9971, 9972]);
//! ```

#![warn(missing_docs)]
// `unsafe` is denied crate-wide and allowed in exactly one place: the
// [`ring`] module's SPSC slot handoff, whose Acquire/Release protocol
// is documented there and exercised under Miri in CI.
#![deny(unsafe_code)]

mod driver;
pub mod fault;
pub mod ring;
mod shard_key;
mod sharded;
mod supervisor;

pub use driver::{DriverConfig, DriverReport, OverloadPolicy, ShardFailure};
pub use fault::{FaultKind, FaultSchedule, FaultSilenceGuard, FaultyBackend};
pub use shard_key::ShardKey;
pub use sharded::{CoverageQuery, ShardHealth, ShardedQMax};
pub use supervisor::{LifecycleEvent, ShardLifecycle, ShardState, WatchdogConfig};

pub use qmax_core::{
    BackendSnapshot, BatchInsert, Checkpoint, DeamortizedQMax, DeamortizedStats, QMax,
    SoaAmortizedQMax, SoaDeamortizedQMax,
};
