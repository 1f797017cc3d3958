//! Acceptance tests for the fault-tolerant shard driver: a panicking
//! shard is quarantined and rebuilt while the rest of the engine keeps
//! measuring — the per-PMD independence the paper's deployment relies
//! on, made mechanical.

use qmax_core::{AmortizedQMax, Checkpoint, DeamortizedQMax, QMax};
use qmax_engine::fault::silence_fault_panics;
use qmax_engine::{
    DriverConfig, DriverReport, FaultSchedule, FaultyBackend, OverloadPolicy, ShardHealth,
    ShardState, ShardedQMax, WatchdogConfig,
};
use qmax_traces::gen::random_u64_stream;
use std::time::Duration;

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
        assert!(report.per_shard_admitted[s] <= report.per_shard_drained[s]);
        // Warm restores re-adopt at most one checkpoint's candidate
        // entries (≤ the backend capacity), while every recovery
        // quarantines at least the in-flight batch — so recovery never
        // "creates" more items than the fault cost.
        assert!(
            report.per_shard_recovered[s] <= report.per_shard_quarantined[s],
            "shard {s}: recovered {} > quarantined {}",
            report.per_shard_recovered[s],
            report.per_shard_quarantined[s]
        );
    }
}

/// The pinned CI scenario: 100k items, one shard scripted to panic
/// mid-stream. The run completes without panicking, reports exactly one
/// failure, leaves the engine queryable, and the surviving shards'
/// merged top-q equals a sequential reference over the items routed to
/// healthy shards.
#[test]
fn one_shard_panic_is_isolated_and_reported() {
    let _silence = silence_fault_panics();
    let q = 256;
    let gamma = 0.25;
    let shards = 4;
    let failing = 2usize;
    let items: Vec<(u64, u64)> = random_u64_stream(100_000, 42)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();

    let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, move |s| {
            // The first ⌈q(1+γ)⌉ = 320 offered inserts reach the backend
            // unfiltered (no Ψ yet), so insert 300 is guaranteed to
            // arrive — mid-stream, while the reservoir is still filling.
            let schedule = if s == failing {
                FaultSchedule::panic_at(300)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(DeamortizedQMax::new(q, gamma), schedule)
        });

    let report = engine.run_threaded(items.iter().copied(), DriverConfig::default());

    assert_eq!(report.items, 100_000);
    assert_eq!(report.failures.len(), 1, "exactly one shard failure");
    let failure = &report.failures[0];
    assert_eq!(failure.shard, failing);
    assert!(
        failure.message.contains("fault-injected"),
        "unexpected panic message: {}",
        failure.message
    );
    assert_eq!(failure.items_lost, report.per_shard_quarantined[failing]);
    assert!(failure.items_lost > 0);
    assert_eq!(report.dropped(), 0, "Block policy never sheds");
    assert_balanced(&report);
    assert_eq!(report.healthy_shards().len(), shards - 1);

    // The engine is queryable and the quarantined slot is live + empty.
    assert!(engine.shards()[failing].is_empty());
    let got = sorted_vals(engine.query());
    assert_eq!(got.len(), q);

    // Sequential reference restricted to healthy-shard ids (same seed →
    // same routing).
    let mut reference: ShardedQMax<u64, u64> = ShardedQMax::new(q, gamma, shards);
    for &(id, v) in &items {
        if reference.shard_of(&id) != failing {
            reference.insert(id, v);
        }
    }
    assert_eq!(
        got,
        sorted_vals(reference.query()),
        "surviving shards diverged from the sequential reference"
    );

    // The rebuilt shard accepts new items immediately.
    let probe_id = (0..)
        .find(|id: &u64| engine.shard_of(id) == failing)
        .unwrap();
    engine.insert(probe_id, u64::MAX);
    let top = sorted_vals(engine.query());
    assert_eq!(top.last(), Some(&u64::MAX));
}

/// Every shard panicking still terminates the run: all items are
/// accounted, all shards report failures, and the engine comes back as
/// `S` empty-but-live reservoirs.
#[test]
fn all_shards_panicking_still_terminates() {
    let _silence = silence_fault_panics();
    let q = 16;
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, 3, move |_| {
            FaultyBackend::new(DeamortizedQMax::new(q, 0.5), FaultSchedule::panic_at(1))
        });
    let items: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i, i)).collect();
    let report = engine.run_threaded(items.into_iter(), DriverConfig::default());
    assert_eq!(report.failures.len(), 3);
    assert_eq!(report.quarantined(), 10_000);
    assert_eq!(report.max_load_factor(), 0.0);
    assert_balanced(&report);
    // Queryable (empty) afterwards. Note the rebuilt backends carry a
    // re-armed copy of the fault script — the factory stamps the shard
    // *as configured*, scripted faults included — so no insert probe
    // here: it would just fire `panic_at(1)` again.
    assert!(engine.query().is_empty());
    for s in engine.shards() {
        assert!(s.is_empty());
    }
}

/// A persistently slow shard under `Shed` completes with bounded,
/// budgeted loss and no failures; the healthy shard stays exact.
#[test]
fn stalled_shard_sheds_within_budget() {
    let _silence = silence_fault_panics();
    let q = 32;
    let budget = 5_000u64;
    let slow = 0usize;
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<DeamortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, 2, move |s| {
            let schedule = if s == slow {
                FaultSchedule::stall_every(64, 1)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(DeamortizedQMax::new(q, 0.5), schedule)
        });
    let items: Vec<(u64, u64)> = random_u64_stream(60_000, 5)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();
    let report = engine.run_threaded(
        items.iter().copied(),
        DriverConfig {
            batch_size: 32,
            queue_depth: 1,
            overload: OverloadPolicy::Shed {
                max_dropped: budget,
            },
            ..DriverConfig::default()
        },
    );
    assert!(report.failures.is_empty());
    for (s, &d) in report.per_shard_dropped.iter().enumerate() {
        assert!(d <= budget, "shard {s} shed {d} > budget {budget}");
    }
    assert_balanced(&report);
    // Stalls slow a shard but never corrupt it: the engine is fully
    // queryable and every drained item went through the normal insert
    // path, so the merged top-q is exact over the non-shed items — a
    // subset of the stream, hence bounded below by the top-q of any
    // particular subset we can name. The whole-stream maximum has a
    // 1/queue-ful chance of being shed, so assert on structure instead:
    // a full reservoir of q values came back.
    assert_eq!(sorted_vals(engine.query()).len(), q);
}

/// The upgraded one-shard-panic acceptance scenario: with checkpointing
/// enabled, the panicking shard warm-restores from its last checkpoint
/// and the post-recovery merged top-q differs from a sequential
/// reference **only** in the items offered to the failed shard after
/// that checkpoint — bounded loss, versus PR 4's whole-shard loss.
///
/// Batch boundaries are deterministic (single producer, `Block`
/// policy), the checkpoint cadence equals the batch size (a snapshot at
/// every batch boundary), and `panic_at(1800)` fires inside the failing
/// shard's 4th batch — so the lost set is exactly sub-stream positions
/// `[1536, 2048)` of the failing shard, and nothing else.
#[test]
fn one_shard_panic_warm_recovers_with_bounded_loss() {
    warm_recovery_scenario(AmortizedQMax::new);
}

/// The same scenario on the default shard backend: the de-amortized
/// layout restores by query equivalence, which is all the bounded-loss
/// reference comparison needs.
#[test]
fn one_shard_panic_warm_recovers_with_bounded_loss_deamortized() {
    warm_recovery_scenario(DeamortizedQMax::new);
}

fn warm_recovery_scenario<B>(backend: fn(usize, f64) -> B)
where
    B: QMax<u64, u64> + Checkpoint<u64, u64> + Send + 'static,
{
    let _silence = silence_fault_panics();
    let q = 64;
    let gamma = 0.25;
    let shards = 4;
    let failing = 2usize;
    let batch = 512usize;
    let items: Vec<(u64, u64)> = random_u64_stream(100_000, 42)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();

    let mut engine: ShardedQMax<u64, u64, FaultyBackend<B>> =
        ShardedQMax::with_backends(q, shards, move |s| {
            let schedule = if s == failing {
                FaultSchedule::panic_at(1800)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(backend(q, gamma), schedule)
        });

    let report = engine.run_supervised(
        items.iter().copied(),
        DriverConfig {
            batch_size: batch,
            checkpoint_every: Some(batch as u64),
            ..DriverConfig::default()
        },
    );

    // The shard recovered in place: no quarantined slot, one restart.
    assert!(report.failures.is_empty(), "warm restart is not a failure");
    assert_eq!(report.lifecycle.restarts(failing), 1);
    assert_eq!(report.lifecycle.final_state(failing), ShardState::Healthy);
    for s in (0..shards).filter(|&s| s != failing) {
        assert_eq!(report.lifecycle.restarts(s), 0);
    }
    // Exactly the panicking batch was lost; the checkpointed prefix was
    // re-adopted (once) by the warm restore.
    assert_eq!(report.per_shard_quarantined[failing], batch as u64);
    assert!(report.per_shard_recovered[failing] > 0);
    assert_balanced(&report);

    // Bounded loss: the merged top-q equals a sequential reference over
    // every item EXCEPT the failing shard's post-checkpoint batch
    // (sub-stream positions [1536, 2048) — `panic_at(1800)` fired in
    // the batch after the checkpoint at position 1536).
    let mut reference: ShardedQMax<u64, u64, AmortizedQMax<u64, u64>> =
        ShardedQMax::with_backends(q, shards, move |_| AmortizedQMax::new(q, gamma));
    let mut failing_pos = 0u64;
    for &(id, v) in &items {
        if reference.shard_of(&id) == failing {
            let lost = (1536..2048).contains(&failing_pos);
            failing_pos += 1;
            if lost {
                continue;
            }
        }
        reference.insert(id, v);
    }
    assert_eq!(
        sorted_vals(engine.query()),
        sorted_vals(reference.query()),
        "warm recovery lost more than the post-checkpoint batch"
    );

    // Coverage is whole again: the restored shard represents all of its
    // conserved items, and is flagged as restored (not exact-healthy).
    let annotated = engine.query_with_coverage();
    assert_eq!(annotated.coverage, 1.0);
    assert_eq!(annotated.degraded_shards, vec![failing]);
    assert_eq!(engine.shard_health()[failing], ShardHealth::Restored);
}

/// The seeded stall acceptance scenario: a one-shot 400 ms stall on one
/// shard. The watchdog flags the shard suspect, restarts it under
/// backoff within the deadline (while the stalled worker is still
/// asleep), live coverage dips below 1.0 during the outage, and the
/// warm-restored replacement brings coverage back to exactly 1.0.
#[test]
fn stall_watchdog_restarts_and_recovers_coverage() {
    let _silence = silence_fault_panics();
    let q = 64;
    let gamma = 0.25;
    let shards = 3;
    let stalled = 1usize;
    // Only the *first* backend built for the stalled shard carries the
    // stall script: replacement spares (stamped from the same factory)
    // come up clean, so the restarted shard does not re-stall.
    let mut builds = [0u32; 3];
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, move |s| {
            builds[s] += 1;
            let schedule = if s == stalled && builds[s] == 1 {
                FaultSchedule::stall_at(600, 400)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(AmortizedQMax::new(q, gamma), schedule)
        });
    let items: Vec<(u64, u64)> = random_u64_stream(60_000, 7)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();

    let report = engine.run_supervised(
        items.iter().copied(),
        DriverConfig {
            batch_size: 128,
            queue_depth: 2,
            checkpoint_every: Some(128),
            watchdog: Some(WatchdogConfig {
                deadline: Duration::from_millis(80),
                poll_interval: Duration::from_millis(10),
                max_restarts: 3,
                backoff_base: Duration::from_millis(5),
                backoff_jitter: 0.5,
                seed: 7,
            }),
            ..DriverConfig::default()
        },
    );

    // Detected and restarted exactly once, and the shard ended healthy.
    assert!(report.failures.is_empty());
    assert_eq!(report.lifecycle.restarts(stalled), 1);
    assert_eq!(report.lifecycle.final_state(stalled), ShardState::Healthy);
    let states: Vec<ShardState> = report
        .lifecycle
        .events()
        .iter()
        .filter(|e| e.shard == stalled)
        .map(|e| e.state)
        .collect();
    assert!(
        states.contains(&ShardState::Suspect),
        "watchdog never flagged the stalled shard suspect: {states:?}"
    );
    assert!(states.contains(&ShardState::Restarting(1)));

    // The restart happened while the stalled worker was still asleep:
    // its in-flight batch (and any queued leftovers) were abandoned
    // into the quarantine bucket, and the replacement re-adopted the
    // last checkpoint.
    assert!(report.per_shard_quarantined[stalled] >= 128);
    assert!(report.per_shard_recovered[stalled] > 0);
    assert_balanced(&report);

    // Live coverage dipped below 1.0 during the outage…
    assert!(
        report.lifecycle.min_coverage() < 1.0,
        "no coverage dip recorded: {:?}",
        report.lifecycle
    );
    // …and the warm restore brought it back to exactly 1.0: every
    // conserved item is represented by a healthy or restored shard.
    let annotated = engine.query_with_coverage();
    assert_eq!(annotated.coverage, 1.0);
    assert_eq!(annotated.degraded_shards, vec![stalled]);
    assert_eq!(engine.shard_health()[stalled], ShardHealth::Restored);
    assert_eq!(annotated.items.len(), q);
}

/// A stall that starts and ends while the shard's ring is only partly
/// full: a slow stream never fills the ring, so the producer is never
/// forced onto its full-ring path. It must still move to the
/// replacement's ring at its next batch after the failover, the stalled
/// worker's leftovers must not count as pending for the idle
/// replacement (no second failover while the stalled worker sleeps),
/// and only what was queued at the failover is lost.
#[test]
fn failover_adopts_replacement_ring_before_the_stalled_ring_fills() {
    let _silence = silence_fault_panics();
    let q = 64;
    let batch = 16usize;
    // One shard, so batch k holds items 16k..16k+16 and the stall on
    // insert 161 hits the first item of batch 10.
    let mut builds = 0u32;
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, 1, move |_| {
            builds += 1;
            let schedule = if builds == 1 {
                FaultSchedule::stall_at(161, 300)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(AmortizedQMax::new(q, 0.25), schedule)
        });
    let items: Vec<(u64, u64)> = random_u64_stream(40 * batch, 3)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();
    // The stream dispatches batches 0..=14 at once, then goes quiet
    // for longer than the stall before sending the other 25.
    let throttled = items.iter().copied().enumerate().map(|(i, item)| {
        if i == 15 * batch {
            std::thread::sleep(Duration::from_millis(350));
        }
        item
    });

    let report = engine.run_supervised(
        throttled,
        DriverConfig {
            batch_size: batch,
            queue_depth: 64,
            checkpoint_every: Some(batch as u64),
            watchdog: Some(WatchdogConfig {
                deadline: Duration::from_millis(40),
                poll_interval: Duration::from_millis(5),
                max_restarts: 3,
                backoff_base: Duration::from_millis(5),
                backoff_jitter: 0.0,
                seed: 3,
            }),
            ..DriverConfig::default()
        },
    );

    assert_balanced(&report);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(!report.saturated(0), "the ring must never fill: {report:?}");
    assert_eq!(
        report.lifecycle.restarts(0),
        1,
        "one stall, one failover: {:?}",
        report.lifecycle
    );
    assert_eq!(report.lifecycle.final_state(0), ShardState::Healthy);
    assert!(report.per_shard_recovered[0] > 0);
    // Queued at the failover: the stalled batch 10 and batches 11..=14
    // behind it. Everything after went to the replacement.
    let queued_at_failover = 5 * batch as u64;
    assert!(
        report.per_shard_quarantined[0] <= queued_at_failover + batch as u64,
        "lost {} items, {queued_at_failover} were queued at the failover",
        report.per_shard_quarantined[0]
    );
    assert!(report.per_shard_drained[0] >= items.len() as u64 - queued_at_failover - batch as u64);
}

/// A stall that exhausts the restart budget without checkpoints: the
/// shard is retired and rebuilt cold, so the items it drained before the
/// stall are no longer represented. Like a retired panicking shard, it
/// keeps them counted as drained, and coverage stays below 1.0 while the
/// shard is `Degraded`.
#[test]
fn stall_retirement_without_checkpoints_keeps_coverage_below_one() {
    let _silence = silence_fault_panics();
    let q = 64;
    let shards = 3;
    let stalled = 1usize;
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, shards, move |s| {
            let schedule = if s == stalled {
                FaultSchedule::stall_at(600, 300)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(AmortizedQMax::new(q, 0.25), schedule)
        });
    let items: Vec<(u64, u64)> = random_u64_stream(60_000, 7)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();

    let report = engine.run_supervised(
        items.iter().copied(),
        DriverConfig {
            batch_size: 128,
            queue_depth: 2,
            checkpoint_every: None,
            watchdog: Some(WatchdogConfig {
                deadline: Duration::from_millis(80),
                poll_interval: Duration::from_millis(10),
                max_restarts: 0,
                backoff_base: Duration::from_millis(5),
                backoff_jitter: 0.5,
                seed: 7,
            }),
            ..DriverConfig::default()
        },
    );

    assert_balanced(&report);
    assert_eq!(
        report.lifecycle.final_state(stalled),
        ShardState::Quarantined
    );
    assert!(
        report.failures.iter().any(|f| f.shard == stalled),
        "{:?}",
        report.failures
    );
    // The stall hit the shard's fifth batch: the four before it were
    // drained into the backend the cold rebuild discarded.
    assert_eq!(report.per_shard_drained[stalled], 4 * 128);
    assert_eq!(engine.shard_health()[stalled], ShardHealth::Degraded);
    let annotated = engine.query_with_coverage();
    assert!(
        annotated.coverage < 1.0,
        "a cold-rebuilt shard reported full coverage: {report:?}"
    );
    assert!(annotated.degraded_shards.contains(&stalled));
}

/// A failover that loses the race with run shutdown: the stream ends
/// while the watchdog backs off before its restore, so the hand-off of
/// the replacement's rings is refused. The shard must still leave
/// `Restarting` with a named outcome, not end the run mid-restart with a
/// generic "lost" failure.
#[test]
fn failover_racing_shutdown_still_resolves_the_restart() {
    let _silence = silence_fault_panics();
    let q = 64;
    let batch = 16usize;
    let mut builds = 0u32;
    let mut engine: ShardedQMax<u64, u64, FaultyBackend<AmortizedQMax<u64, u64>>> =
        ShardedQMax::with_backends(q, 1, move |_| {
            builds += 1;
            let schedule = if builds == 1 {
                FaultSchedule::stall_at(161, 600)
            } else {
                FaultSchedule::none()
            };
            FaultyBackend::new(AmortizedQMax::new(q, 0.25), schedule)
        });
    let items: Vec<(u64, u64)> = random_u64_stream(40 * batch, 3)
        .enumerate()
        .map(|(i, v)| (i as u64, v))
        .collect();
    // The stall is detected at ~40 ms; the stream resumes at 100 ms and
    // ends long before the 300 ms backoff is over.
    let throttled = items.iter().copied().enumerate().map(|(i, item)| {
        if i == 15 * batch {
            std::thread::sleep(Duration::from_millis(100));
        }
        item
    });

    let report = engine.run_supervised(
        throttled,
        DriverConfig {
            batch_size: batch,
            queue_depth: 64,
            checkpoint_every: Some(batch as u64),
            watchdog: Some(WatchdogConfig {
                deadline: Duration::from_millis(40),
                poll_interval: Duration::from_millis(5),
                max_restarts: 3,
                backoff_base: Duration::from_millis(300),
                backoff_jitter: 0.0,
                seed: 3,
            }),
            ..DriverConfig::default()
        },
    );

    assert_balanced(&report);
    assert_eq!(report.lifecycle.restarts(0), 1, "{:?}", report.lifecycle);
    // Every restart ends in Healthy or Quarantined.
    let states: Vec<ShardState> = report.lifecycle.events().iter().map(|e| e.state).collect();
    for (i, state) in states.iter().enumerate() {
        if let ShardState::Restarting(_) = state {
            assert!(
                states[i + 1..]
                    .iter()
                    .any(|s| matches!(s, ShardState::Healthy | ShardState::Quarantined)),
                "restart left unresolved: {states:?}"
            );
        }
    }
    assert!(
        !matches!(report.lifecycle.final_state(0), ShardState::Restarting(_)),
        "{:?}",
        report.lifecycle
    );
    for failure in &report.failures {
        assert_ne!(failure.message, "shard backend lost without a panic");
    }
}
