//! Differential battery for the SIMD-probed open-addressing flow table:
//! [`FlowTable`] must be observationally equivalent to `std::collections::
//! HashMap` on every interleaved insert/lookup/remove stream — including
//! streams sized to force incremental resizes mid-stream and streams
//! crafted to pile every key into a handful of probe groups.
//!
//! Every property runs *two* flow tables side by side against the oracle:
//! one with the runtime-dispatched probe kernel and one pinned to the
//! scalar reference via [`ProbeKernel::scalar`]. Any divergence between
//! them is a probe-kernel bug (SSE2/NEON `match_byte` disagreeing with
//! the scalar loop); any joint divergence from the `HashMap` is a table
//! bug (backward-shift deletion, migration, or probe-chain logic).
//!
//! The in-tree proptest shim does not persist shrunk failures, so the
//! pinned cases in `proptest_flow_table.proptest-regressions` are
//! replicated here as explicit `#[test]`s (see `pinned_*` below and the
//! convention note in DESIGN.md §7).

use proptest::prelude::*;
use qmax_core::flow_table::FX_K;
use qmax_core::FlowTable;
use qmax_select::ProbeKernel;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Multiplicative inverse of the FxHash key `FX_K` modulo 2^64 (the
/// constant is odd, hence invertible; six Newton iterations converge).
fn fx_inv() -> u64 {
    let mut inv: u64 = 1;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(FX_K.wrapping_mul(inv)));
    }
    assert_eq!(FX_K.wrapping_mul(inv), 1);
    inv
}

/// A `u64` key whose FxHash is exactly `(g << 7) | t`: home group `g`
/// (masked by the live table's group count) and control tag `t`. Lets
/// the generators aim unbounded numbers of keys at one probe group.
fn crafted_key(g: u64, t: u64) -> u64 {
    ((g << 7) | (t & 0x7F)).wrapping_mul(fx_inv())
}

/// The three key-stream shapes from the issue: Zipf-skewed (heavy
/// duplicates), all-equal (one key the whole stream), and adversarial
/// same-bucket (every key crafted to home into groups 0..4, so probe
/// chains span many groups and deletions must backward-shift across
/// group boundaries).
fn key_for(mode: u8, raw: u64, shift: u32, seed: u64) -> u64 {
    match mode {
        0 => raw >> shift,
        1 => seed | 1,
        _ => crafted_key(raw & 3, raw >> 57),
    }
}

fn sorted_pairs(t: &FlowTable<u64, u64>) -> Vec<(u64, u64)> {
    let mut v = Vec::new();
    t.for_each(|&k, &val| v.push((k, val)));
    v.sort_unstable();
    v
}

fn sorted_oracle(m: &HashMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = m.iter().map(|(&k, &val)| (k, val)).collect();
    v.sort_unstable();
    v
}

/// Replays one op stream on {dispatched, forced-scalar} flow tables and
/// the `HashMap` oracle, asserting equivalence after every single op.
/// Returns the dispatched table for post-conditions. Panics (rather than
/// `prop_assert!`s) so the pinned `#[test]`s below can reuse it.
fn replay_stream(mode: u8, seed: u64, ops: &[(u8, u64, u32)]) -> FlowTable<u64, u64> {
    let mut det: FlowTable<u64, u64> = FlowTable::new();
    let mut sca: FlowTable<u64, u64> = FlowTable::with_capacity_and_probe(0, ProbeKernel::scalar());
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for (i, &(op, raw, shift)) in ops.iter().enumerate() {
        let k = key_for(mode, raw, shift, seed);
        let v = i as u64;
        match op % 16 {
            // Insert-heavy mix: tables only resize under insert pressure.
            0..=8 => {
                let want = oracle.insert(k, v);
                assert_eq!(det.insert(k, v), want, "insert diverged at op {i}");
                assert_eq!(sca.insert(k, v), want, "scalar insert diverged at op {i}");
            }
            9..=12 => {
                let want = oracle.get(&k).copied();
                assert_eq!(det.get(&k).copied(), want, "get diverged at op {i}");
                assert_eq!(sca.get(&k).copied(), want, "scalar get diverged at op {i}");
                assert_eq!(det.contains_key(&k), want.is_some());
            }
            _ => {
                let want = oracle.remove(&k);
                assert_eq!(det.remove(&k), want, "remove diverged at op {i}");
                assert_eq!(sca.remove(&k), want, "scalar remove diverged at op {i}");
            }
        }
        assert_eq!(det.len(), oracle.len(), "len diverged at op {i}");
        assert_eq!(sca.len(), oracle.len(), "scalar len diverged at op {i}");
    }
    assert_eq!(sorted_pairs(&det), sorted_oracle(&oracle));
    assert_eq!(sorted_pairs(&sca), sorted_oracle(&oracle));
    assert_eq!(
        det.resizes(),
        sca.resizes(),
        "probe kernel choice changed the resize schedule"
    );
    det
}

/// Replays one upsert stream through [`FlowTable::entry`] on a
/// dispatched and a forced-scalar table, against a singleton
/// `get_mut`/`insert` replay on a third flow table and `HashMap::entry`
/// on the oracle. The upsert counts occurrences, so a repeated key must
/// observe the value its earlier upserts wrote, and the hit/miss flag
/// `entry` returns must match the oracle key-for-key. After every
/// `span` keys, `get` on both tables is checked against the oracle for
/// that span's keys (catching stale reads while a migration is in
/// flight), and the run ends with a `get_mut` sweep plus full-content
/// and resize-schedule comparisons — the one-probe upsert must not move
/// a single resize point. Panics (rather than `prop_assert!`s) so the
/// pinned `#[test]`s below can reuse it.
fn replay_entry_keys(keys: &[u64], span: usize) -> FlowTable<u64, u64> {
    let span = span.max(1);
    let mut det: FlowTable<u64, u64> = FlowTable::new();
    let mut sca: FlowTable<u64, u64> = FlowTable::with_capacity_and_probe(0, ProbeKernel::scalar());
    let mut single: FlowTable<u64, u64> = FlowTable::new();
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    for (s, chunk) in keys.chunks(span).enumerate() {
        for (j, &k) in chunk.iter().enumerate() {
            let want = match oracle.entry(k) {
                Entry::Occupied(mut o) => {
                    *o.get_mut() += 1;
                    true
                }
                Entry::Vacant(v) => {
                    v.insert(1);
                    false
                }
            };
            match single.get_mut(&k) {
                Some(v) => *v += 1,
                None => {
                    single.insert(k, 1);
                }
            }
            for table in [&mut det, &mut sca] {
                let (v, present) = table.entry(k, || 1);
                if present {
                    *v += 1;
                }
                assert_eq!(
                    present, want,
                    "entry hit/miss diverged at key {j} of span {s}"
                );
                assert_eq!(
                    *v, oracle[&k],
                    "entry value diverged at key {j} of span {s}"
                );
            }
        }
        assert_eq!(det.len(), oracle.len(), "len diverged after span {s}");
        assert_eq!(
            sca.len(),
            oracle.len(),
            "scalar len diverged after span {s}"
        );
        let expect: Vec<Option<u64>> = chunk.iter().map(|k| oracle.get(k).copied()).collect();
        let got: Vec<Option<u64>> = chunk.iter().map(|k| det.get(k).copied()).collect();
        assert_eq!(got, expect, "get diverged after span {s}");
        let got_sca: Vec<Option<u64>> = chunk.iter().map(|k| sca.get(k).copied()).collect();
        assert_eq!(got_sca, expect, "scalar get diverged after span {s}");
    }
    // Closing sweep: bump every resident (plus one guaranteed-absent
    // key) through get_mut, mirrored in the oracle.
    let mut all: Vec<u64> = sorted_oracle(&oracle).into_iter().map(|(k, _)| k).collect();
    let absent = (0..)
        .map(|i| u64::MAX - i)
        .find(|k| !oracle.contains_key(k))
        .unwrap();
    all.push(absent);
    for table in [&mut det, &mut sca] {
        let mut misses = 0usize;
        for k in &all {
            match table.get_mut(k) {
                Some(v) => *v += 7,
                None => misses += 1,
            }
        }
        assert_eq!(misses, 1, "get_mut must miss exactly the absent key");
    }
    for k in &all[..all.len() - 1] {
        *oracle.get_mut(k).unwrap() += 7;
        *single.get_mut(k).unwrap() += 7;
    }
    assert_eq!(sorted_pairs(&det), sorted_oracle(&oracle));
    assert_eq!(sorted_pairs(&sca), sorted_oracle(&oracle));
    assert_eq!(sorted_pairs(&single), sorted_oracle(&oracle));
    assert_eq!(
        det.resizes(),
        single.resizes(),
        "entry changed the resize schedule"
    );
    assert_eq!(sca.resizes(), single.resizes());
    det
}

/// Applies an interleaved insert / `entry` upsert / get / remove stream
/// to a {dispatched, forced-scalar} table pair that may already hold
/// entries — or have been drained, cleared or retain-rebuilt — mirroring
/// every op in the `HashMap` oracle. `len()` and `contains_key` of the
/// op's key are checked on both tables after every op. Panics (rather
/// than `prop_assert!`s), like the replays above.
fn apply_mixed_ops(
    tables: &mut [FlowTable<u64, u64>; 2],
    oracle: &mut HashMap<u64, u64>,
    mode: u8,
    seed: u64,
    ops: &[(u8, u64, u32)],
    phase: &str,
) {
    for (i, &(op, raw, shift)) in ops.iter().enumerate() {
        let k = key_for(mode, raw, shift, seed);
        let v = i as u64;
        match op % 16 {
            0..=5 => {
                let want = oracle.insert(k, v);
                for t in tables.iter_mut() {
                    assert_eq!(t.insert(k, v), want, "{phase}: insert diverged at op {i}");
                }
            }
            6..=9 => {
                let want = oracle.contains_key(&k);
                oracle.entry(k).and_modify(|x| *x += 1).or_insert(v);
                for t in tables.iter_mut() {
                    let (x, present) = t.entry(k, || v);
                    if present {
                        *x += 1;
                    }
                    assert_eq!(present, want, "{phase}: entry hit/miss diverged at op {i}");
                    assert_eq!(*x, oracle[&k], "{phase}: entry value diverged at op {i}");
                }
            }
            10..=11 => {
                let want = oracle.get(&k).copied();
                for t in tables.iter() {
                    assert_eq!(t.get(&k).copied(), want, "{phase}: get diverged at op {i}");
                }
            }
            _ => {
                let want = oracle.remove(&k);
                for t in tables.iter_mut() {
                    assert_eq!(t.remove(&k), want, "{phase}: remove diverged at op {i}");
                }
            }
        }
        for t in tables.iter() {
            assert_eq!(t.len(), oracle.len(), "{phase}: len diverged at op {i}");
            assert_eq!(
                t.contains_key(&k),
                oracle.contains_key(&k),
                "{phase}: contains_key diverged at op {i}"
            );
        }
    }
}

/// Inserts fresh keys (mirrored in the oracle) until both tables are
/// mid-migration (`migrating`) or at rest (`!migrating`). Inserts step
/// a migration, and distinct keys eventually force a resize, so either
/// state is reached within a few thousand inserts.
fn drive_to_migration_state(
    tables: &mut [FlowTable<u64, u64>; 2],
    oracle: &mut HashMap<u64, u64>,
    seed: u64,
    migrating: bool,
) {
    for j in 0u64..100_000 {
        assert_eq!(
            tables[0].is_migrating(),
            tables[1].is_migrating(),
            "probe kernel choice changed the migration schedule"
        );
        if tables[0].is_migrating() == migrating {
            return;
        }
        let k = (seed ^ 0xA5A5_5A5A)
            .wrapping_add(j)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let want = oracle.insert(k, j);
        for t in tables.iter_mut() {
            assert_eq!(t.insert(k, j), want, "fill insert diverged at {j}");
        }
    }
    panic!("tables never reached migrating == {migrating}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Core oracle property: FlowTable (dispatched *and* forced-scalar)
    /// ≡ HashMap op-for-op on all three stream shapes.
    #[test]
    fn flow_table_matches_hashmap_oracle(
        mode in 0u8..3,
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), 0u32..48), 1..400),
    ) {
        replay_stream(mode, seed, &ops);
    }

    /// Resize-under-fire: enough distinct inserts to force at least two
    /// incremental table doublings *mid-stream*, with removals and
    /// lookups interleaved so gets/deletes hit the old core, the live
    /// core, and pass-through DRAINED slots while migration is running.
    /// All-equal streams are excluded — one key can never trigger a
    /// resize — and the crafted mode pins every key into groups 0..8 so
    /// the whole migration happens on maximally clustered chains.
    #[test]
    fn incremental_resize_is_equivalent_midstream(
        crafted in 0u8..2,
        seed in any::<u64>(),
        distinct in 220usize..900,
        remove_stride in 2usize..7,
    ) {
        let mut det: FlowTable<u64, u64> = FlowTable::new();
        let mut sca: FlowTable<u64, u64> =
            FlowTable::with_capacity_and_probe(0, ProbeKernel::scalar());
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut migrating_observed = false;

        let key = |i: usize| -> u64 {
            if crafted == 1 {
                // Distinct (group, tag) pairs, all homed into groups 0..8.
                crafted_key((i % 8) as u64, (i / 8) as u64)
            } else {
                seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
        };
        for i in 0..distinct {
            let k = key(i);
            let want = oracle.insert(k, i as u64);
            prop_assert_eq!(det.insert(k, i as u64), want);
            prop_assert_eq!(sca.insert(k, i as u64), want);
            migrating_observed |= det.is_migrating();
            if i % remove_stride == 0 && i > 0 {
                // Delete a key inserted a while ago: during migration it
                // may still live in the old core.
                let victim = key(i / 2);
                let want = oracle.remove(&victim);
                prop_assert_eq!(det.remove(&victim), want, "remove diverged at {}", i);
                prop_assert_eq!(sca.remove(&victim), want);
            }
            // Probe a sliding window around the migration frontier.
            for probe in [i / 2, i.saturating_sub(1), i / 3] {
                let k = key(probe);
                let want = oracle.get(&k).copied();
                prop_assert_eq!(det.get(&k).copied(), want, "get diverged at {}", i);
                prop_assert_eq!(sca.get(&k).copied(), want);
            }
            prop_assert_eq!(det.len(), oracle.len());
        }
        // 220+ distinct keys from 16 slots must double at least twice
        // (16 → 32 → 64 …), and the stride-based removals cannot keep
        // the table below the 7/8 trigger for long.
        prop_assert!(det.resizes() >= 2, "only {} resizes", det.resizes());
        prop_assert!(migrating_observed, "migration never observed mid-stream");
        prop_assert_eq!(sorted_pairs(&det), sorted_oracle(&oracle));
        prop_assert_eq!(sorted_pairs(&sca), sorted_oracle(&oracle));
    }

    /// `entry` upserts ≡ singleton replay ≡ `HashMap::entry` on all
    /// three stream shapes (Zipf-skewed, all-equal, adversarial
    /// same-bucket), with `get` cross-checks every `span` keys, on the
    /// dispatched *and* the forced-scalar kernel.
    #[test]
    fn batched_probes_match_singleton_replay(
        mode in 0u8..3,
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u64>(), 0u32..48), 1..600),
        span in 1usize..96,
    ) {
        let keys: Vec<u64> = ops
            .iter()
            .map(|&(raw, shift)| key_for(mode, raw, shift, seed))
            .collect();
        replay_entry_keys(&keys, span);
    }

    /// `entry` upserts with enough distinct keys that incremental
    /// resizes trigger *inside* a span between `get` cross-checks:
    /// later keys must probe through the old core, the live core, and
    /// DRAINED pass-through slots mid-migration — and the resize
    /// schedule must land on exactly the same inserts as the singleton
    /// replay.
    #[test]
    fn batched_upserts_resize_mid_span(
        crafted in 0u8..2,
        seed in any::<u64>(),
        distinct in 260usize..500,
        span in 33usize..257,
    ) {
        let key = |i: usize| -> u64 {
            if crafted == 1 {
                // Distinct (group, tag) pairs, all homed into groups 0..8.
                crafted_key((i % 8) as u64, (i / 8) as u64)
            } else {
                seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }
        };
        // Each distinct key appears twice (second pass all hits), and
        // every span is long enough to hold a migration's first steps.
        let keys: Vec<u64> = (0..distinct).chain(0..distinct).map(key).collect();
        let det = replay_entry_keys(&keys, span);
        prop_assert!(det.resizes() >= 2, "only {} resizes", det.resizes());
    }

    /// `retain_with` ≡ `HashMap::retain` under the same predicate, and
    /// `drain_each` empties the table while yielding exactly the oracle's
    /// contents — including while a migration is in flight.
    #[test]
    fn retain_and_drain_match_oracle(
        mode in 0u8..3,
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), 0u32..48), 1..300),
        keep_mod in 2u64..5,
    ) {
        let mut det = replay_stream(mode, seed, &ops);
        let mut oracle: HashMap<u64, u64> = sorted_pairs(&det).into_iter().collect();

        det.retain_with(|_, v| *v % keep_mod != 0);
        oracle.retain(|_, v| *v % keep_mod != 0);
        prop_assert_eq!(sorted_pairs(&det), sorted_oracle(&oracle));

        let mut drained: Vec<(u64, u64)> = Vec::new();
        det.drain_each(|k, v| drained.push((k, v)));
        drained.sort_unstable();
        prop_assert_eq!(drained, sorted_oracle(&oracle));
        prop_assert!(det.is_empty());
    }
    /// Table reuse, the way the keyed consumers reuse theirs: after a
    /// `retain_with` (PBA's purge), a `drain_each` (`DedupQMax`'s
    /// compaction) or a `clear()` (every `reset`) — taken at rest or
    /// in the middle of a migration — the same tables keep taking an
    /// interleaved insert/`entry`/remove stream three times the length
    /// of the one that filled them, op-for-op against the oracle.
    #[test]
    fn reused_table_keeps_matching_oracle(
        mode in 0u8..3,
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), 0u32..48), 1..300),
        more in prop::collection::vec((any::<u8>(), any::<u64>(), 0u32..48), 900..901),
        reuse in 0u8..3,
        mid_migration in any::<bool>(),
        keep_mod in 2u64..5,
    ) {
        let mut tables = [
            FlowTable::new(),
            FlowTable::with_capacity_and_probe(0, ProbeKernel::scalar()),
        ];
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        apply_mixed_ops(&mut tables, &mut oracle, mode, seed, &ops, "fill");
        drive_to_migration_state(&mut tables, &mut oracle, seed, mid_migration);

        match reuse {
            0 => {
                oracle.retain(|_, v| *v % keep_mod != 0);
                for t in tables.iter_mut() {
                    t.retain_with(|_, v| *v % keep_mod != 0);
                    prop_assert_eq!(sorted_pairs(t), sorted_oracle(&oracle));
                }
            }
            1 => {
                for t in tables.iter_mut() {
                    let mut drained: Vec<(u64, u64)> = Vec::new();
                    t.drain_each(|k, v| drained.push((k, v)));
                    drained.sort_unstable();
                    prop_assert_eq!(drained, sorted_oracle(&oracle));
                }
                oracle.clear();
            }
            _ => {
                for t in tables.iter_mut() {
                    t.clear();
                }
                oracle.clear();
            }
        }
        for t in tables.iter() {
            prop_assert_eq!(t.len(), oracle.len());
            prop_assert!(!t.is_migrating(), "reuse left a migration in flight");
        }

        let ops_after = &more[..3 * ops.len()];
        apply_mixed_ops(&mut tables, &mut oracle, mode, seed, ops_after, "reuse");
        for t in tables.iter() {
            prop_assert_eq!(sorted_pairs(t), sorted_oracle(&oracle));
        }
        prop_assert_eq!(tables[0].resizes(), tables[1].resizes());
    }
}

/// Pinned case from `proptest_flow_table.proptest-regressions` (the
/// in-tree proptest shim replays nothing automatically): an adversarial
/// same-bucket stream that interleaves deletions with the growth that
/// crosses two resize boundaries, exercising backward-shift relocation
/// across group boundaries while the old core still holds DRAINED slots.
#[test]
fn pinned_same_bucket_churn_through_two_resizes() {
    // xorshift64* with the seed recorded in the regression file.
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut ops: Vec<(u8, u64, u32)> = Vec::new();
    for _ in 0..600 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        ops.push(((s % 16) as u8, s.wrapping_mul(0x2545_F491_4F6C_DD1D), 0));
    }
    let t = replay_stream(2, 0, &ops);
    assert!(
        !t.is_empty(),
        "stream must leave residents so the final sweep is non-trivial"
    );
}

/// Pinned case: all-equal stream where every op lands on one key — the
/// degenerate shape that once distinguished "update in place" from
/// "insert a duplicate" bugs in open-addressing tables.
#[test]
fn pinned_all_equal_single_key_stream() {
    let ops: Vec<(u8, u64, u32)> = (0..200u64).map(|i| ((i % 16) as u8, i, 0)).collect();
    replay_stream(1, 0xDEAD_BEEF, &ops);
}

/// Pinned case from `proptest_flow_table.proptest-regressions`: `entry`
/// upserts over adversarial same-bucket keys (groups 0..4), checked in
/// spans of 48, sized so both incremental resizes trigger mid-span
/// while the probe chains are maximally clustered.
#[test]
fn pinned_batched_same_bucket_spans_through_resizes() {
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = Vec::new();
    for _ in 0..900 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let raw = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
        keys.push(key_for(2, raw, 0, 0));
    }
    let det = replay_entry_keys(&keys, 48);
    assert!(!det.is_empty());
}

/// Pinned case: an entire span made of one repeated key — every
/// upsert after the first must see `present == true` and the value
/// written by the previous one, the shape that breaks if a miss
/// inserts a duplicate instead of finding the resident key.
#[test]
fn pinned_batched_all_equal_span_of_one_key() {
    let keys = vec![0xDEAD_BEEF_u64 | 1; 300];
    let det = replay_entry_keys(&keys, 64);
    assert_eq!(det.len(), 1);
    assert_eq!(
        det.get(&(0xDEAD_BEEF_u64 | 1)).copied(),
        Some(300 + 7),
        "inserted at 1, bumped by 299 in-span hits, then the +7 sweep"
    );
}
