//! Differential battery for the SPSC-ring ingestion path (PR 10).
//!
//! The ring driver replaced the mpsc-channel hand-off underneath
//! `run_threaded` and `run_supervised`; `run_threaded_mpsc` is kept as
//! the executable reference. Under the blocking overload policy every
//! shard's sub-stream — and therefore its offered-insert fault clock —
//! is deterministic, so the two drivers must agree on the *entire*
//! failure-accounting report, not just totals. Shedding is
//! timing-dependent by design, so the shed scenarios check the
//! conservation invariant, the loss budget, and the new occupancy
//! evidence (a shard can only shed once its ring high-water has hit
//! capacity) on both drivers instead of exact equality.

use qmax_core::{AmortizedQMax, DeamortizedQMax, QMax};
use qmax_engine::fault::silence_fault_panics;
use qmax_engine::{
    DriverConfig, DriverReport, FaultSchedule, FaultyBackend, OverloadPolicy, ShardedQMax,
    WatchdogConfig,
};
use qmax_traces::gen::random_u64_stream;
use std::time::Duration;

const SEEDS: [u64; 3] = [1, 7, 23];

fn stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    random_u64_stream(n, seed)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect()
}

fn sorted_vals(pairs: Vec<(u64, u64)>) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

fn assert_balanced(report: &DriverReport) {
    for s in 0..report.per_shard_items.len() {
        assert_eq!(
            report.per_shard_items[s],
            report.per_shard_drained[s]
                + report.per_shard_dropped[s]
                + report.per_shard_quarantined[s],
            "shard {s} accounting does not balance"
        );
        if report.ring_capacity > 0 {
            assert!(
                report.per_shard_ring_high_water[s] <= report.ring_capacity,
                "shard {s} high-water exceeds ring capacity"
            );
        }
    }
}

fn chaos_engine(
    seed: u64,
    q: usize,
    shards: usize,
) -> ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> {
    ShardedQMax::with_backends(q, shards, move |s| {
        FaultyBackend::new(
            DeamortizedQMax::new(q, 0.25),
            FaultSchedule::seeded(seed.wrapping_mul(0x9E37).wrapping_add(s as u64), 256),
        )
    })
}

/// Blocking policy, seeded chaos on every shard: the ring driver and
/// the mpsc reference must produce identical accounting — per-shard
/// items, drains, quarantines, failure records, and the merged
/// reservoir — across the CI seed matrix.
#[test]
fn ring_and_mpsc_agree_exactly_under_blocking_chaos() {
    let _silence = silence_fault_panics();
    let q = 256;
    let shards = 4;
    for seed in SEEDS {
        let items = stream(60_000, seed);
        let config = DriverConfig {
            batch_size: 256,
            queue_depth: 2,
            overload: OverloadPolicy::Block,
            ..DriverConfig::default()
        };
        let mut ring_engine = chaos_engine(seed, q, shards);
        let ring_report = ring_engine.run_threaded(items.iter().copied(), config);
        let mut mpsc_engine = chaos_engine(seed, q, shards);
        let mpsc_report = mpsc_engine.run_threaded_mpsc(items.iter().copied(), config);

        assert_balanced(&ring_report);
        assert_balanced(&mpsc_report);
        assert_eq!(ring_report.items, mpsc_report.items, "seed {seed}");
        assert_eq!(
            ring_report.per_shard_items, mpsc_report.per_shard_items,
            "seed {seed}: routing diverged"
        );
        assert_eq!(
            ring_report.per_shard_drained, mpsc_report.per_shard_drained,
            "seed {seed}: drains diverged"
        );
        assert_eq!(
            ring_report.per_shard_dropped, mpsc_report.per_shard_dropped,
            "seed {seed}: drops diverged under Block (must be zero-for-zero)"
        );
        assert_eq!(
            ring_report.per_shard_quarantined, mpsc_report.per_shard_quarantined,
            "seed {seed}: quarantines diverged"
        );
        let ring_failures: Vec<(usize, u64)> = ring_report
            .failures
            .iter()
            .map(|f| (f.shard, f.items_lost))
            .collect();
        let mpsc_failures: Vec<(usize, u64)> = mpsc_report
            .failures
            .iter()
            .map(|f| (f.shard, f.items_lost))
            .collect();
        assert_eq!(
            ring_failures, mpsc_failures,
            "seed {seed}: failures diverged"
        );
        assert_eq!(
            sorted_vals(ring_engine.query()),
            sorted_vals(mpsc_engine.query()),
            "seed {seed}: merged reservoirs diverged"
        );
        // Only the ring driver reports occupancy evidence; the
        // reference predates the ring and must say so explicitly.
        assert!(ring_report.ring_capacity > 0);
        assert_eq!(mpsc_report.ring_capacity, 0);
    }
}

/// Full-ring shedding: a stalling shard backs its ring up to capacity
/// and the shed policy converts the overflow into budgeted, accounted
/// loss. Exact drop counts are timing-dependent, so both drivers are
/// held to the invariants instead: conservation balance, the loss
/// budget, and — on the ring driver — the rule that a shard can only
/// shed after its ring high-water pinned at capacity.
#[test]
fn full_ring_shed_balances_and_shows_saturation_on_both_drivers() {
    let _silence = silence_fault_panics();
    let q = 256;
    let shards = 4;
    let budget = 30_000u64;
    for seed in SEEDS {
        let items = stream(80_000, seed);
        let stalling = (seed % shards as u64) as usize;
        let config = DriverConfig {
            batch_size: 64,
            queue_depth: 1,
            overload: OverloadPolicy::Shed {
                max_dropped: budget,
            },
            ..DriverConfig::default()
        };
        let build = move || -> ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> {
            ShardedQMax::with_backends(q, shards, move |s| {
                let schedule = if s == stalling {
                    FaultSchedule::stall_at(2_000, 80)
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(DeamortizedQMax::new(q, 0.25), schedule)
            })
        };
        let mut ring_engine = build();
        let ring_report = ring_engine.run_threaded(items.iter().copied(), config);
        let mut mpsc_engine = build();
        let mpsc_report = mpsc_engine.run_threaded_mpsc(items.iter().copied(), config);

        for report in [&ring_report, &mpsc_report] {
            assert_balanced(report);
            assert_eq!(report.items, items.len() as u64, "seed {seed}");
            // The shed budget bounds each shard's loss independently
            // (same contract the chaos example pins).
            for &d in &report.per_shard_dropped {
                assert!(d <= budget, "seed {seed}: shed beyond per-shard budget");
            }
        }
        for s in 0..shards {
            if ring_report.per_shard_dropped[s] > 0 {
                assert!(
                    ring_report.saturated(s),
                    "seed {seed}: shard {s} shed without its ring high-water hitting capacity"
                );
            }
        }
        let _ = (ring_engine.query(), mpsc_engine.query());
    }
}

/// Supervision is configuration: with no checkpoint cadence and no
/// watchdog, `run_supervised` has nothing to add, so under the blocking
/// policy and seeded chaos it must report exactly what `run_threaded`
/// reports — per-shard accounting, failure records, the engine's shard
/// health afterwards, and the merged reservoir.
#[test]
fn bare_supervised_run_matches_threaded_under_blocking_chaos() {
    let _silence = silence_fault_panics();
    let q = 256;
    let shards = 4;
    let build = |seed: u64| -> ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> {
        ShardedQMax::with_backends(q, shards, move |s| {
            FaultyBackend::new(
                AmortizedQMax::new(q, 0.25),
                FaultSchedule::seeded(seed.wrapping_mul(0x9E37).wrapping_add(s as u64), 256),
            )
        })
    };
    let config = DriverConfig {
        batch_size: 256,
        queue_depth: 2,
        overload: OverloadPolicy::Block,
        checkpoint_every: None,
        watchdog: None,
        pin_threads: false,
    };
    for seed in SEEDS {
        let items = stream(60_000, seed);
        let mut threaded = build(seed);
        let t = threaded.run_threaded(items.iter().copied(), config);
        let mut supervised = build(seed);
        let u = supervised.run_supervised(items.iter().copied(), config);

        assert_balanced(&t);
        assert_balanced(&u);
        assert_eq!(t.per_shard_items, u.per_shard_items, "seed {seed}: items");
        assert_eq!(t.per_shard_drained, u.per_shard_drained, "seed {seed}");
        assert_eq!(t.per_shard_dropped, u.per_shard_dropped, "seed {seed}");
        assert_eq!(
            t.per_shard_quarantined, u.per_shard_quarantined,
            "seed {seed}: quarantines diverged"
        );
        let failures = |r: &DriverReport| -> Vec<(usize, u64)> {
            r.failures.iter().map(|f| (f.shard, f.items_lost)).collect()
        };
        assert_eq!(failures(&t), failures(&u), "seed {seed}: failures diverged");
        assert_eq!(
            threaded.shard_health(),
            supervised.shard_health(),
            "seed {seed}: shard health diverged"
        );
        assert_eq!(
            sorted_vals(threaded.query()),
            sorted_vals(supervised.query()),
            "seed {seed}: merged reservoirs diverged"
        );
    }
}

/// Supervised shedding: a stalling shard behind a one-batch ring sheds
/// under the budget while the watchdog may fail it over. The exact
/// drops are timing-dependent, so the run is held to the invariants:
/// per-shard conservation, the per-shard loss budget, and shedding only
/// after the shard's ring high-water (folded across worker
/// generations) pinned at capacity.
#[test]
fn supervised_shedding_balances_within_budget() {
    let _silence = silence_fault_panics();
    let q = 256;
    let shards = 4;
    let budget = 2_000u64;
    for seed in SEEDS {
        let items = stream(80_000, seed);
        let stalling = (seed % shards as u64) as usize;
        let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
            ShardedQMax::with_backends(q, shards, {
                let mut builds = vec![0u32; shards];
                move |s| {
                    builds[s] += 1;
                    let schedule = if s == stalling && builds[s] == 1 {
                        FaultSchedule::stall_at(2_000, 80)
                    } else {
                        FaultSchedule::none()
                    };
                    FaultyBackend::new(AmortizedQMax::new(q, 0.25), schedule)
                }
            });
        let config = DriverConfig {
            batch_size: 64,
            queue_depth: 1,
            overload: OverloadPolicy::Shed {
                max_dropped: budget,
            },
            checkpoint_every: Some(1024),
            watchdog: Some(WatchdogConfig {
                deadline: Duration::from_millis(40),
                poll_interval: Duration::from_millis(5),
                backoff_base: Duration::from_millis(2),
                seed,
                ..WatchdogConfig::default()
            }),
            pin_threads: false,
        };
        let report = engine.run_supervised(items.iter().copied(), config);
        assert_balanced(&report);
        assert_eq!(report.items, items.len() as u64, "seed {seed}");
        for s in 0..shards {
            assert!(
                report.per_shard_dropped[s] <= budget,
                "seed {seed}: shard {s} shed {} > budget {budget}",
                report.per_shard_dropped[s]
            );
            if report.per_shard_dropped[s] > 0 {
                assert!(
                    report.saturated(s),
                    "seed {seed}: shard {s} shed without its ring high-water hitting capacity"
                );
            }
        }
        assert_eq!(
            engine.query().len(),
            q,
            "seed {seed}: engine must stay queryable"
        );
    }
}

/// Multi-producer ingestion is pure re-partitioning: shard routing
/// hashes keys, so any split of the stream across producer threads
/// must land the same multiset on each shard and rebuild the same
/// reservoir as the single-producer driver.
#[test]
fn partitioned_ingestion_matches_single_producer_driver() {
    let q = 512;
    let shards = 4;
    let items = stream(50_000, 3);
    let mut reference: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
    let ref_report = reference.run_threaded(items.iter().copied(), DriverConfig::default());
    let ref_vals = sorted_vals(reference.query());
    for producers in [2usize, 4] {
        let chunk = items.len().div_ceil(producers);
        let streams: Vec<_> = items.chunks(chunk).map(|c| c.iter().copied()).collect();
        let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(q, 0.25, shards);
        let report = engine.run_threaded_partitioned(streams, DriverConfig::default());
        assert_balanced(&report);
        assert_eq!(report.items, ref_report.items);
        assert_eq!(
            report.per_shard_items, ref_report.per_shard_items,
            "{producers} producers: hash routing must not depend on the split"
        );
        assert_eq!(sorted_vals(engine.query()), ref_vals);
    }
}

/// PR 10's small-fix acceptance test: a watchdog-visible stall must
/// also be visible in the occupancy stats. The stalled worker stops
/// consuming, the blocked producer backs the ring up, and by the time
/// the watchdog fails the shard over its recorded ring high-water has
/// pinned at capacity — `DriverReport::saturated` returns true for
/// exactly that shard's stall even though the shard ends Healthy.
#[test]
fn stall_pins_ring_high_water_at_capacity_before_failover() {
    let _silence = silence_fault_panics();
    let q = 512;
    let shards = 4;
    let stalling = 1usize;
    let items = stream(200_000, 17);
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, {
            let mut builds = vec![0u32; shards];
            move |s| {
                builds[s] += 1;
                let schedule = if s == stalling && builds[s] == 1 {
                    FaultSchedule::stall_at(10_000, 300)
                } else {
                    FaultSchedule::none()
                };
                FaultyBackend::new(AmortizedQMax::new(q, 0.25), schedule)
            }
        });
    let config = DriverConfig {
        batch_size: 512,
        queue_depth: 2,
        overload: OverloadPolicy::Block,
        checkpoint_every: Some(1024),
        watchdog: Some(WatchdogConfig {
            deadline: Duration::from_millis(60),
            poll_interval: Duration::from_millis(10),
            backoff_base: Duration::from_millis(5),
            seed: 17,
            ..WatchdogConfig::default()
        }),
        pin_threads: false,
    };
    let report = engine.run_supervised(items.iter().copied(), config);
    assert_balanced(&report);
    assert!(
        report.lifecycle.restarts(stalling) >= 1,
        "watchdog must fail the stalled shard over"
    );
    assert!(
        report.saturated(stalling),
        "stalled shard's ring high-water must pin at capacity ({} < {})",
        report.per_shard_ring_high_water[stalling],
        report.ring_capacity
    );
    assert_eq!(engine.query().len(), q, "engine must stay queryable");
}

/// The pinning knob must not change any observable result — same
/// accounting, same reservoir — whether or not the scheduler honours
/// the affinity request (on a single-core host it is a near no-op).
#[test]
fn pinned_supervised_run_agrees_with_unpinned() {
    let q = 256;
    let shards = 2;
    let items = stream(30_000, 5);
    let run = |pin: bool| {
        let mut engine: ShardedQMax<u64, u64, AmortizedQMax<u64, u64>> =
            ShardedQMax::with_backends(q, shards, move |_| AmortizedQMax::new(q, 0.25));
        let config = DriverConfig {
            checkpoint_every: Some(2048),
            watchdog: Some(WatchdogConfig::default()),
            pin_threads: pin,
            ..DriverConfig::default()
        };
        let report = engine.run_supervised(items.iter().copied(), config);
        (report, sorted_vals(engine.query()))
    };
    let (unpinned, unpinned_vals) = run(false);
    let (pinned, pinned_vals) = run(true);
    assert_balanced(&unpinned);
    assert_balanced(&pinned);
    assert_eq!(unpinned.per_shard_items, pinned.per_shard_items);
    assert_eq!(unpinned.per_shard_drained, pinned.per_shard_drained);
    assert_eq!(unpinned_vals, pinned_vals);
}
