//! Snapshot/restore round-trip properties for checkpointable backends.
//!
//! The supervision layer's warm-recovery guarantee reduces to one
//! backend-level contract: for any reachable state `b`,
//! `restore(snapshot(b))` into a fresh same-geometry backend yields a
//! structure that is *behaviorally identical* to `b` — same top-`q`,
//! same admission threshold Ψ, same statistics counters, and the same
//! response to any future insert stream. This suite pins that contract
//! with 256 randomized cases per backend family (AoS, SoA),
//! plus deterministic probes of the two states a per-batch checkpoint
//! cadence is most likely to capture: a buffer sitting just below
//! capacity (mid-compaction pressure) and a freshly-recycled block
//! (immediately after a compaction, and after a `reset()` refill). The
//! de-amortized layouts (AoS and SoA) promise less — the same answers,
//! not the same steps — and get their own 256-case property.

use proptest::prelude::*;
use qmax_core::{
    AmortizedQMax, BatchInsert, Checkpoint, DeamortizedQMax, QMax, SoaAmortizedQMax,
    SoaDeamortizedQMax,
};
use qmax_traces::gen::caida_like;

fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    caida_like(n, seed)
        .map(|p| (p.flow().as_u64(), p.len as u64))
        .collect()
}

fn sorted_pairs(mut pairs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    pairs.sort_unstable();
    pairs
}

fn sorted_vals(pairs: Vec<(u64, u64)>) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

/// The de-amortized contract is *query* equivalence: `prefix` goes in
/// one arrival at a time, the snapshot restores into `fresh` (after it
/// took `suffix`, so a merge would show), and the
/// restored copy must answer the same top-`q` values, immediately and
/// after both sides take `suffix` in batches of `chunk`. Ψ may restart
/// anywhere in [snapshot Ψ, q-th largest snapshot value]; `filtered`
/// and `iterations` are carried; the replayed selection keeps the
/// worst-case step bound `per_step_work_is_bounded` uses.
macro_rules! assert_query_roundtrip {
    ($original:expr, $fresh:expr, $prefix:expr, $suffix:expr, $chunk:expr) => {{
        let (mut original, mut restored) = ($original, $fresh);
        for &(id, v) in $prefix {
            original.insert(id, v);
        }
        let snap = original.snapshot();
        prop_assert_eq!(snap.len(), original.len(), "snapshot candidate count");
        // Restore overwrites whatever the target held; it never merges.
        for &(id, v) in $suffix {
            restored.insert(id, v);
        }
        restored.restore(&snap);
        let q = original.q();
        prop_assert_eq!(sorted_vals(original.query()), sorted_vals(restored.query()));
        prop_assert!(
            restored.threshold() >= snap.threshold,
            "Ψ fell below the snapshot's"
        );
        if let Some(psi) = restored.threshold() {
            let mut vals: Vec<u64> = snap.entries.iter().map(|e| e.val).collect();
            vals.sort_unstable_by(|a, b| b.cmp(a));
            prop_assert!(
                vals.len() >= q && psi <= vals[q - 1],
                "Ψ above the q-th largest"
            );
        }
        let (o, r) = (original.stats(), restored.stats());
        prop_assert_eq!((o.filtered, o.iterations), (r.filtered, r.iterations));
        for chunk in $suffix.chunks($chunk) {
            original.insert_batch(chunk);
            restored.insert_batch(chunk);
        }
        prop_assert_eq!(
            sorted_vals(original.query()),
            sorted_vals(restored.query()),
            "top-q diverged after the restored copy resumed"
        );
        for b in [original.stats(), restored.stats()] {
            prop_assert_eq!(b.forced_completions, 0);
            let bound = restored.step_budget() as u64 + 32;
            prop_assert!(
                b.max_step_ops <= bound,
                "step ops {} > {bound}",
                b.max_step_ops
            );
        }
    }};
}

/// Feeds `prefix` into a backend, snapshots it, restores the snapshot
/// into `fresh`, and asserts behavioral identity — immediately and
/// again after both sides consume the same `suffix`.
macro_rules! assert_roundtrip {
    ($original:expr, $fresh:expr, $prefix:expr, $suffix:expr) => {{
        let mut original = $original;
        let mut restored = $fresh;
        for &(id, v) in $prefix {
            original.insert(id, v);
        }
        let snap = original.snapshot();
        assert_eq!(snap.len(), original.len(), "snapshot candidate count");
        restored.restore(&snap);
        assert_eq!(
            original.len(),
            restored.len(),
            "candidate count diverged at restore"
        );

        assert_eq!(
            sorted_pairs(original.query()),
            sorted_pairs(restored.query()),
            "candidate multiset diverged at restore"
        );
        assert_eq!(
            original.threshold(),
            restored.threshold(),
            "Ψ diverged at restore"
        );
        assert_eq!(original.compactions(), restored.compactions());
        assert_eq!(original.filtered(), restored.filtered());
        assert_eq!(original.pivot_fallbacks(), restored.pivot_fallbacks());

        // A snapshot must capture *all* state that future behavior
        // depends on: the same suffix must drive both copies through
        // identical compaction schedules to identical results.
        for &(id, v) in $suffix {
            original.insert(id, v);
            restored.insert(id, v);
        }
        assert_eq!(
            sorted_pairs(original.query()),
            sorted_pairs(restored.query()),
            "candidate multiset diverged after the restored copy resumed"
        );
        assert_eq!(
            original.threshold(),
            restored.threshold(),
            "Ψ diverged after resume"
        );
        assert_eq!(original.compactions(), restored.compactions());
        assert_eq!(original.filtered(), restored.filtered());
        assert_eq!(original.pivot_fallbacks(), restored.pivot_fallbacks());
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary reachable states round-trip on every checkpointable
    /// backend family. The split point sweeps the snapshot over the
    /// whole fill/compact cycle, so cases land on empty, reservoir-fill,
    /// buffer-nearly-full, and just-compacted states.
    #[test]
    fn restore_of_snapshot_preserves_behavior(
        stream_seed in any::<u64>(),
        n in 1usize..1500,
        split in 0usize..1500,
        q in 1usize..48,
        gamma_idx in 0usize..3,
    ) {
        let gamma = [0.05, 0.25, 1.0][gamma_idx];
        let items = zipf_stream(n, stream_seed);
        let split = split.min(items.len());
        let (prefix, suffix) = items.split_at(split);

        assert_roundtrip!(
            AmortizedQMax::<u64, u64>::new(q, gamma),
            AmortizedQMax::<u64, u64>::new(q, gamma),
            prefix,
            suffix
        );
        assert_roundtrip!(
            SoaAmortizedQMax::<u64, u64>::new(q, gamma),
            SoaAmortizedQMax::<u64, u64>::new(q, gamma),
            prefix,
            suffix
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both de-amortized layouts round-trip by query over prefixes that
    /// stop in the filling phase (`phase` 0), right after an iteration
    /// completes (1), or mid-iteration (2).
    #[test]
    fn deamortized_restore_preserves_queries(
        stream_seed in any::<u64>(),
        n in 1usize..3000,
        q in 1usize..48,
        gamma_idx in 0usize..3,
        phase in 0usize..3,
        pick in any::<usize>(),
        chunk in 1usize..200,
    ) {
        let gamma = [0.05, 0.25, 1.0][gamma_idx];
        let items = zipf_stream(n, stream_seed);
        // The arrival after which each prefix length ends, classified
        // on a probe: no Ψ yet, an iteration just completed, or neither.
        let mut probe = DeamortizedQMax::<u64, u64>::new(q, gamma);
        let mut ends: [Vec<usize>; 3] = Default::default();
        for (i, &(id, v)) in items.iter().enumerate() {
            let before = probe.stats().iterations;
            probe.insert(id, v);
            let class = match probe.stats().iterations {
                0 => 0,
                after if after > before => 1,
                _ => 2,
            };
            ends[class].push(i + 1);
        }
        let split = match &ends[phase] {
            e if e.is_empty() => items.len(),
            e => e[pick % e.len()],
        };
        let (prefix, suffix) = items.split_at(split);
        assert_query_roundtrip!(
            DeamortizedQMax::<u64, u64>::new(q, gamma),
            DeamortizedQMax::<u64, u64>::new(q, gamma),
            prefix,
            suffix,
            chunk
        );
        assert_query_roundtrip!(
            SoaDeamortizedQMax::<u64, u64>::new(q, gamma),
            SoaDeamortizedQMax::<u64, u64>::new(q, gamma),
            prefix,
            suffix,
            chunk
        );
    }
}

/// A buffer one slot below capacity — the state a per-batch checkpoint
/// captures right before the compaction that would recycle it.
#[test]
fn mid_compaction_pressure_roundtrips() {
    let (q, gamma) = (16, 0.5);
    let cap = AmortizedQMax::<u64, u64>::new(q, gamma).capacity();
    // Distinct ascending values: nothing is filtered, every insert
    // lands in the buffer, so `cap - 1` inserts leave it one below full.
    let prefix: Vec<(u64, u64)> = (0..cap as u64 - 1).map(|i| (i, 1000 + i)).collect();
    let suffix: Vec<(u64, u64)> = (0..64u64).map(|i| (500 + i, 2000 + i)).collect();

    let mut probe = AmortizedQMax::<u64, u64>::new(q, gamma);
    for &(id, v) in &prefix {
        probe.insert(id, v);
    }
    assert_eq!(
        probe.compactions(),
        0,
        "probe compacted early; state is not mid-pressure"
    );
    assert_eq!(probe.len(), cap - 1);

    assert_roundtrip!(
        AmortizedQMax::<u64, u64>::new(q, gamma),
        AmortizedQMax::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
    assert_roundtrip!(
        SoaAmortizedQMax::<u64, u64>::new(q, gamma),
        SoaAmortizedQMax::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
}

/// A freshly-recycled block: the snapshot is taken immediately after
/// the first compaction collapsed the buffer back to its top-`q`.
#[test]
fn freshly_recycled_block_roundtrips() {
    let (q, gamma) = (16, 0.5);
    let cap = AmortizedQMax::<u64, u64>::new(q, gamma).capacity();
    let prefix: Vec<(u64, u64)> = (0..cap as u64).map(|i| (i, 1000 + i)).collect();
    let suffix: Vec<(u64, u64)> = (0..64u64).map(|i| (500 + i, 3000 + i)).collect();

    let mut probe = AmortizedQMax::<u64, u64>::new(q, gamma);
    for &(id, v) in &prefix {
        probe.insert(id, v);
    }
    assert!(
        probe.compactions() >= 1,
        "fill to capacity must have recycled the block"
    );

    assert_roundtrip!(
        AmortizedQMax::<u64, u64>::new(q, gamma),
        AmortizedQMax::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
    assert_roundtrip!(
        SoaAmortizedQMax::<u64, u64>::new(q, gamma),
        SoaAmortizedQMax::<u64, u64>::new(q, gamma),
        &prefix,
        &suffix
    );
}

/// `reset()` followed by a partial refill — the state a shard is in
/// right after the engine recycles it between measurement epochs.
#[test]
fn reset_refill_roundtrips() {
    let (q, gamma) = (8, 0.25);
    let warmup: Vec<(u64, u64)> = (0..200u64).map(|i| (i, i * 7 % 997)).collect();
    let refill: Vec<(u64, u64)> = (0..5u64).map(|i| (i, 4000 + i)).collect();
    let suffix: Vec<(u64, u64)> = (0..64u64).map(|i| (900 + i, 5000 + i)).collect();

    macro_rules! reset_case {
        ($ctor:expr) => {{
            let mut original = $ctor;
            for &(id, v) in &warmup {
                original.insert(id, v);
            }
            original.reset();
            for &(id, v) in &refill {
                original.insert(id, v);
            }
            // Hand the pre-filled original to the round-trip checker
            // with an empty prefix: its state is the reset-refill one.
            assert_roundtrip!(original, $ctor, &[] as &[(u64, u64)], &suffix);
        }};
    }
    reset_case!(AmortizedQMax::<u64, u64>::new(q, gamma));
    reset_case!(SoaAmortizedQMax::<u64, u64>::new(q, gamma));
}
