//! Differential property tests for the adaptive backend layer: a
//! structure built on [`AdaptiveBackend`] must be observationally
//! identical — same top-q value multisets, same admission threshold Ψ,
//! same arrival accounting — no matter which layout the rules pick.
//! The layout moves *performance*, never semantics: the AoS arm, the
//! SoA arm and the layout the rules pick for the drawn shape must answer
//! every query the same way.
//!
//! Each arm is reached through the fill hint of
//! [`AdaptiveBackend::try_with_fill_hint`]: a one-item lifetime fill
//! gives AoS, no hint on a `u64` lane gives SoA, and every property
//! asserts [`AdaptiveBackend::choice`] so neither arm goes unexercised.
//!
//! Streams cover the shapes named by the paper's workloads: Zipf-skewed
//! values, all-equal values, slack fractions τ from 0.003 to 1.0, and
//! streams long enough to recycle window blocks mid-run.

use proptest::prelude::*;
use qmax_core::{
    AdaptiveBackend, AdaptiveBasicSlackQMax, BackendChoice, BasicSlackQMax, BatchInsert,
    HierSlackQMax, LazySlackQMax, QMax,
};
use qmax_engine::ShardedQMax;
use qmax_traces::zipf::ZipfSampler;

const TAUS: [f64; 6] = [0.003, 0.01, 0.1, 0.33, 0.9, 1.0];

/// The adaptive prototypes the differential tests sweep: the AoS arm,
/// the SoA arm, and whichever arm the rules pick for `hint`.
fn arms(q: usize, gamma: f64, hint: Option<usize>) -> Vec<AdaptiveBackend<u32, u64>> {
    let build = |fill| AdaptiveBackend::try_with_fill_hint(q, gamma, fill).unwrap();
    let (aos, soa) = (build(Some(1)), build(None));
    assert_eq!(aos.choice(), BackendChoice::Aos);
    assert_eq!(soa.choice(), BackendChoice::Soa);
    vec![aos, soa, build(hint)]
}

fn value_stream(n: usize, seed: u64, all_equal: bool) -> Vec<u64> {
    if all_equal {
        return vec![seed | 1; n];
    }
    let mut zipf = ZipfSampler::new(5_000, 1.0, seed);
    (0..n).map(|_| zipf.sample() as u64).collect()
}

fn sorted_vals(pairs: Vec<(u32, u64)>) -> Vec<u64> {
    let mut v: Vec<u64> = pairs.into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Plain interval reservoir: every arm admits the
    /// same items, reports the same Ψ, and answers the same top-q —
    /// singleton and batched arrivals alike.
    #[test]
    fn adaptive_interval_is_policy_invariant(
        seed in any::<u64>(),
        n in 16usize..3000,
        q in 1usize..48,
        gamma in 0.05f64..1.5,
        all_equal in 0usize..2,
        chunk in 1usize..400,
        fill_hint in 0usize..3,
    ) {
        let vals = value_stream(n, seed, all_equal == 1);
        let hint = match fill_hint {
            0 => None,
            1 => Some(1),
            _ => Some(n),
        };
        let mut backends = arms(q, gamma, hint);
        // Feed the first backend singleton-wise, the rest batched.
        for (i, &v) in vals.iter().enumerate() {
            backends[0].insert(i as u32, v);
        }
        let items: Vec<(u32, u64)> = vals.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect();
        for b in backends.iter_mut().skip(1) {
            for span in items.chunks(chunk) {
                b.insert_batch(span);
            }
        }
        let reference = sorted_vals(backends[0].query());
        let psi = backends[0].threshold();
        let filtered = backends[0].filtered();
        for (k, b) in backends.iter_mut().enumerate().skip(1) {
            prop_assert_eq!(
                sorted_vals(b.query()),
                reference.clone(),
                "policy {} diverged on top-q",
                k
            );
            prop_assert_eq!(b.threshold(), psi, "policy {} diverged on psi", k);
            prop_assert_eq!(b.filtered(), filtered, "policy {} diverged on accounting", k);
        }
    }

    /// Basic slack window over adaptive blocks: every arm
    /// agrees at mid-stream (blocks recycled in place) and at
    /// end-of-stream, across τ ∈ [0.003, 1] and both stream shapes.
    #[test]
    fn adaptive_basic_window_is_policy_invariant(
        seed in any::<u64>(),
        n in 32usize..2500,
        q in 1usize..40,
        w in 1usize..1000,
        tau_sel in 0usize..6,
        all_equal in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..400,
    ) {
        let tau = TAUS[tau_sel];
        let vals = value_stream(n, seed, all_equal == 1);
        let block = w.div_ceil(((1.0 / tau).ceil() as usize).max(1)).max(1);
        let mut windows: Vec<BasicSlackQMax<u32, u64, AdaptiveBackend<u32, u64>>> =
            arms(q, gamma, Some(block))
                .into_iter()
                .map(|proto| BasicSlackQMax::try_with_backend(w, tau, proto).unwrap())
                .collect();
        let items: Vec<(u32, u64)> = vals.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect();
        // Two checkpoints: mid-stream (short streams) and end-of-stream
        // (n can exceed w several times over, so rings recycle blocks
        // in place between the checkpoints).
        for stop in [n / 2, n] {
            let start = if stop == n { n / 2 } else { 0 };
            for (k, sw) in windows.iter_mut().enumerate() {
                if k == 0 {
                    for &(id, v) in &items[start..stop] {
                        sw.insert(id, v);
                    }
                } else {
                    for span in items[start..stop].chunks(chunk) {
                        sw.insert_batch(span);
                    }
                }
            }
            let reference = sorted_vals(windows[0].query());
            for (k, sw) in windows.iter_mut().enumerate().skip(1) {
                prop_assert_eq!(
                    sorted_vals(sw.query()),
                    reference.clone(),
                    "policy {} diverged at position {}",
                    k,
                    stop
                );
            }
        }
    }

    /// Hierarchical slack window over adaptive blocks: same contract
    /// across 1–3 layers.
    #[test]
    fn adaptive_hier_window_is_policy_invariant(
        seed in any::<u64>(),
        n in 32usize..2000,
        q in 1usize..32,
        w in 1usize..1000,
        tau_sel in 0usize..6,
        c in 1usize..4,
        all_equal in 0usize..2,
        gamma in 0.05f64..1.5,
        chunk in 1usize..300,
    ) {
        let tau = TAUS[tau_sel];
        let vals = value_stream(n, seed, all_equal == 1);
        let mut windows: Vec<HierSlackQMax<u32, u64, AdaptiveBackend<u32, u64>>> =
            arms(q, gamma, None)
                .into_iter()
                .map(|proto| HierSlackQMax::try_with_backend(w, tau, c, proto).unwrap())
                .collect();
        let items: Vec<(u32, u64)> = vals.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect();
        for (k, sw) in windows.iter_mut().enumerate() {
            if k == 0 {
                for (i, &v) in vals.iter().enumerate() {
                    sw.insert(i as u32, v);
                }
            } else {
                for span in items.chunks(chunk) {
                    sw.insert_batch(span);
                }
            }
        }
        let reference = sorted_vals(windows[0].query());
        for (k, sw) in windows.iter_mut().enumerate().skip(1) {
            prop_assert_eq!(
                sorted_vals(sw.query()),
                reference.clone(),
                "policy {} diverged",
                k
            );
        }
    }
}

/// Layout determinism on one longer stream: whichever arm holds the
/// block, query results and Ψ are identical.
#[test]
fn policy_modes_are_observationally_identical() {
    let mut zipf = ZipfSampler::new(10_000, 1.0, 0xCA11);
    let items: Vec<(u32, u64)> = (0..50_000u32).map(|i| (i, zipf.sample() as u64)).collect();
    let mut reference: Option<(Vec<u64>, Option<u64>)> = None;
    for mut b in arms(500, 0.25, None) {
        let arm = b.choice();
        for span in items.chunks(777) {
            b.insert_batch(span);
        }
        let got = (sorted_vals(b.query()), b.threshold());
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "{arm:?} arm diverged"),
        }
    }
}

fn label(choice: BackendChoice) -> &'static str {
    match choice {
        BackendChoice::Aos => "qmax-adaptive-aos",
        BackendChoice::Soa => "qmax-adaptive-soa",
    }
}

/// The `adaptive_label` the committed `BENCH_windows.json` records for
/// one (variant, tau) row.
fn recorded_label(bench: &str, variant: &str, tau: &str) -> String {
    let key = format!("\"variant\": \"{variant}\", \"tau\": \"{tau}\"");
    let row = bench
        .lines()
        .find(|l| l.contains(&key))
        .unwrap_or_else(|| panic!("BENCH_windows.json has no row {key}"));
    let field = "\"adaptive_label\": \"";
    let start = row.find(field).expect("row has an adaptive_label") + field.len();
    row[start..start + row[start..].find('"').unwrap()].to_string()
}

/// Layout choices are a pure function of (capacity, lifetime fill,
/// value-lane type), pinned on the shapes this repository ships: the
/// qbench workloads and the windows-backend experiment's geometry
/// (q = 10⁴, γ = 0.25, W = 10⁶). Each shipped constructor's label is
/// checked exactly, and the windows-backend rows also against the
/// `adaptive_label` column of the committed `BENCH_windows.json`.
#[test]
fn auto_choices_are_pinned_to_shipped_shapes() {
    use BackendChoice::{Aos, Soa};

    // qbench workloads.
    let random_q1e5 = AdaptiveBackend::<u64, u64>::new(100_000, 0.25);
    assert_eq!(random_q1e5.backend_label(), label(Soa));
    let driver = ShardedQMax::with_backends(10_000, 1, |_| {
        AdaptiveBackend::<u64, u64>::new(10_000, 0.25)
    });
    assert_eq!(driver.shard_backend_labels(), [label(Soa)]);
    let window = ShardedQMax::<u64, u64, AdaptiveBasicSlackQMax<u64, u64>>::new_windowed(
        1_000,
        0.25,
        1,
        1 << 20,
        0.1,
    );
    assert_eq!(window.shard_backend_labels(), [label(Soa)]);

    // windows-backend rows, against the committed artifact.
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_windows.json"))
        .expect("BENCH_windows.json is committed at the repository root");
    let (q, gamma, w) = (10_000, 0.25, 1_000_000);
    for (tau, basic) in [(0.01, Aos), (0.1, Soa)] {
        let t = format!("{tau}");
        let rows: [(&str, BackendChoice, &'static str); 3] = [
            (
                "basic",
                basic,
                AdaptiveBasicSlackQMax::<u64, u64>::new_adaptive(q, gamma, w, tau).backend_label(),
            ),
            (
                "hier-c2",
                Soa,
                HierSlackQMax::<u64, u64, _>::with_backend(
                    w,
                    tau,
                    2,
                    AdaptiveBackend::new(q, gamma),
                )
                .backend_label(),
            ),
            (
                "lazy-c2",
                Soa,
                LazySlackQMax::<u64, u64, _>::with_backend(
                    w,
                    tau,
                    2,
                    AdaptiveBackend::new(q, gamma),
                )
                .backend_label(),
            ),
        ];
        for (variant, expect, built) in rows {
            assert_eq!(built, label(expect), "{variant} tau={t}");
            assert_eq!(
                recorded_label(&bench, variant, &t),
                label(expect),
                "{variant} tau={t}"
            );
        }
    }
}
