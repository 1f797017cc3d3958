//! Sharded-engine scaling sweep (the engine-crate counterpart of the
//! paper's per-PMD deployment, Section 6.6).
//!
//! For each trace and shard count this times (a) the single-threaded
//! batched insert path and (b) the multi-threaded driver, and reports
//! millions of inserts per second plus the driver's load balance. A
//! second series prices the threaded driver's resilience options on a
//! Zipf stream: the overload policy on a healthy run, and one warm
//! recovery across checkpoint cadences. On a single hardware core the
//! threaded numbers measure coordination overhead rather than speedup;
//! the CSVs record whatever the machine actually delivers.

use crate::scale::Scale;
use crate::{fmt, mpps, Report};
use qmax_core::AmortizedQMax;
use qmax_engine::fault::silence_fault_panics;
use qmax_engine::{
    DriverConfig, DriverReport, FaultSchedule, FaultyBackend, OverloadPolicy, QMax, ShardedQMax,
};
use qmax_traces::gen::{caida_like, random_u64_stream};
use qmax_traces::zipf::ZipfSampler;
use std::time::Instant;

const BATCH: usize = 1024;

/// The widest checkpoint cadence the recovery series prices.
const MAX_CADENCE: u64 = 4096;

/// Floor on the recovery series' stream length: shard 0 panics at item
/// `n / 8` (half its even share of four shards), which this puts at two
/// of the widest cadences, after its first checkpoint at every cadence.
const RECOVERY_MIN_STREAM: usize = 16 * MAX_CADENCE as usize;

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut flows = ZipfSampler::new(1_000_000, 1.0, seed);
    random_u64_stream(n, seed ^ 0x5EED)
        .map(|v| (flows.sample() as u64, v))
        .collect()
}

fn caida_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    caida_like(n, seed)
        .map(|p| (p.flow().as_u64(), p.len as u64))
        .collect()
}

fn sorted_values(engine: &mut ShardedQMax<u64, u64>) -> Vec<u64> {
    let mut v: Vec<u64> = engine.query().into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

/// Sweeps shard count ∈ {1, 2, 4, 8} on Zipf and CAIDA-like streams,
/// mirroring the series as `results/sharded_scaling.csv`.
///
/// Rows with `producers == 1` time the single-ingestion-thread driver
/// (`run_threaded`); rows with `producers > 1` split the stream into
/// that many contiguous sub-streams and time the multi-producer driver
/// (`run_threaded_partitioned`, one SPSC ring per producer × shard).
/// Shard routing hashes keys, so every variant must rebuild the same
/// reservoir as the single-threaded batched path — asserted per row.
/// Then prices the driver's overload policy and one warm recovery on a
/// Zipf stream, mirrored as `results/sharded_resilience.csv`.
pub fn sharded_scaling(scale: &Scale) {
    println!(
        "# Sharded engine: insert throughput vs shard and producer count (q=10^4, gamma=0.25)"
    );
    let n = scale.stream(2_000_000);
    let q = 10_000;
    let traces = [("zipf", zipf_stream(n, 7)), ("caida", caida_stream(n, 9))];
    let mut rep = Report::new(
        "sharded_scaling",
        &[
            "trace",
            "shards",
            "producers",
            "batch_mips",
            "threaded_mips",
            "load_factor",
        ],
    );
    for (name, items) in &traces {
        for shards in [1usize, 2, 4, 8] {
            let mut batched: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
            let start = Instant::now();
            for chunk in items.chunks(BATCH) {
                batched.insert_batch(chunk);
            }
            let batch_mips = mpps(items.len(), start.elapsed());
            let reference = sorted_values(&mut batched);
            for producers in [1usize, 2, 4, 8] {
                let mut threaded: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
                let report = if producers == 1 {
                    threaded.run_threaded(items.iter().copied(), DriverConfig::default())
                } else {
                    let chunk = items.len().div_ceil(producers);
                    let streams: Vec<_> = items.chunks(chunk).map(|c| c.iter().copied()).collect();
                    threaded.run_threaded_partitioned(streams, DriverConfig::default())
                };
                assert_eq!(
                    sorted_values(&mut threaded),
                    reference,
                    "batched and threaded paths diverged on {name} ({producers} producers)"
                );
                rep.row(&[
                    name.to_string(),
                    shards.to_string(),
                    producers.to_string(),
                    fmt(batch_mips),
                    fmt(report.throughput_mips()),
                    fmt(report.max_load_factor()),
                ]);
            }
        }
    }
    resilience(scale, q);
}

/// The threaded driver's resilience options on Zipf streams of 400,000
/// items (at scale 1) into four shards, one `run_threaded` per row.
///
/// Every row's `mips` counts the items the workers drained, not the
/// items routed: an item `Shed` drops was never processed, so counting
/// it would let a policy read faster by dropping.
///
/// * `overload`: `Block` (the lossless baseline) vs `Shed` (`try_send`
///   plus budget bookkeeping on the producer). Where the producer
///   outruns the workers, `Block` throttles it to their pace, while
///   under `Shed` it keeps routing and dropping at full speed and so
///   competes with the workers for cores. On a 2-vCPU host `Shed`
///   drops 80–85% of the stream and drains at 5.5–8.8 Mips against
///   7.4–14.3 for `Block` (six default-scale runs): the rows price what
///   shedding costs an overloaded run, not a healthy one.
/// * `recovery`: `no-fault` prices the checkpointing tax alone at the
///   default cadence (1024); each `panic-ckpt-*` row adds one scripted
///   panic on shard 0 halfway through its even share, warm-restored
///   from its last checkpoint at that cadence, so its delta over
///   `no-fault` is the end-to-end cost of a single recovery. The series
///   runs at least [`RECOVERY_MIN_STREAM`] items, so at every scale the
///   panic lands after shard 0's first checkpoint and each such row
///   asserts that its restore re-adopted entries.
///
/// The `overload` rows run the default de-amortized shards and the
/// `recovery` rows amortized shards behind `FaultyBackend`, so compare
/// rows within a series only.
fn resilience(scale: &Scale, q: usize) {
    let drained_mips =
        |r: &DriverReport| mpps(r.per_shard_drained.iter().sum::<u64>() as usize, r.elapsed);
    println!("# Sharded engine: overload policy and warm recovery (4 shards, q=10^4)");
    let n = scale.stream(400_000);
    let shards = 4;
    let mut rep = Report::new(
        "sharded_resilience",
        &["series", "variant", "mips", "dropped", "recovered"],
    );
    let items = zipf_stream(n, 11);
    let policies = [
        ("block", OverloadPolicy::Block),
        (
            "shed",
            OverloadPolicy::Shed {
                max_dropped: n as u64,
            },
        ),
    ];
    for (name, overload) in policies {
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
        let config = DriverConfig {
            overload,
            ..DriverConfig::default()
        };
        let report = engine.run_threaded(items.iter().copied(), config);
        rep.row(&[
            "overload".into(),
            name.into(),
            fmt(drained_mips(&report)),
            report.dropped().to_string(),
            report.recovered().to_string(),
        ]);
    }

    let _silence = silence_fault_panics();
    let n = n.max(RECOVERY_MIN_STREAM);
    let items = zipf_stream(n, 13);
    let cadences: [(&str, Option<u64>); 4] = [
        ("no-fault", None),
        ("panic-ckpt-256", Some(256)),
        ("panic-ckpt-1024", Some(1024)),
        ("panic-ckpt-4096", Some(MAX_CADENCE)),
    ];
    for (name, fault_ckpt) in cadences {
        let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
            ShardedQMax::with_backends(q, shards, move |s| {
                let schedule = if s == 0 && fault_ckpt.is_some() {
                    FaultSchedule::panic_at(n as u64 / (2 * shards as u64))
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(AmortizedQMax::new(q, 0.25), schedule)
            });
        let config = DriverConfig {
            checkpoint_every: Some(fault_ckpt.unwrap_or(1024)),
            ..DriverConfig::default()
        };
        let report = engine.run_threaded(items.iter().copied(), config);
        if fault_ckpt.is_some() {
            assert!(
                report.recovered() > 0,
                "{name}: the warm restore re-adopted no checkpointed entries"
            );
        }
        rep.row(&[
            "recovery".into(),
            name.into(),
            fmt(drained_mips(&report)),
            report.dropped().to_string(),
            report.recovered().to_string(),
        ]);
    }
}
