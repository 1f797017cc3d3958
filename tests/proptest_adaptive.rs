//! Differential property tests for the adaptive backend layer: a
//! structure built on [`AdaptiveBackend`] must be observationally
//! identical — same top-q value multisets, same admission threshold Ψ,
//! same arrival accounting — no matter which layout the policy picks.
//! The policy moves *performance*, never semantics: forced-AoS,
//! forced-SoA, and `auto` must answer every query the same way.
//!
//! Modes are pinned through [`AdaptiveBackend::try_with_policy`] /
//! window prototypes rather than the `QMAX_BACKEND_POLICY` environment
//! variable: the global mode is cached in a `OnceLock`, so env
//! overrides cannot be varied within one process. The env parsing
//! itself is covered by the policy module's unit tests; here we cover
//! every mode the env knob can select.
//!
//! Streams cover the shapes named by the paper's workloads: Zipf-skewed
//! values, all-equal values, slack fractions τ from 0.003 to 1.0, and
//! streams long enough to recycle window blocks mid-run.

use proptest::prelude::*;
use qmax_core::{
    AdaptiveBackend, AdaptiveBasicSlackQMax, AdaptiveHierSlackQMax, AdaptiveLazySlackQMax,
    BackendChoice, BasicSlackQMax, BatchInsert, HierSlackQMax, OrderedF64, PolicyMode, QMax,
};
use qmax_engine::ShardedQMax;
use qmax_lrfu::AdaptiveQMaxLrfu;
use qmax_traces::zipf::ZipfSampler;

const TAUS: [f64; 6] = [0.003, 0.01, 0.1, 0.33, 0.9, 1.0];

/// The modes the differential tests sweep — every layout decision
/// `QMAX_BACKEND_POLICY` can induce.
const MODES: [PolicyMode; 3] = [PolicyMode::ForceAos, PolicyMode::ForceSoa, PolicyMode::Auto];

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

    /// Plain interval reservoir: every mode admits the
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
        let mut backends: Vec<AdaptiveBackend<u32, u64>> = MODES
            .iter()
            .map(|&m| AdaptiveBackend::try_with_policy(q, gamma, hint, m).unwrap())
            .collect();
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

    /// Basic slack window over adaptive blocks: every mode
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
        let mut windows: Vec<BasicSlackQMax<u32, u64, AdaptiveBackend<u32, u64>>> = MODES
            .iter()
            .map(|&m| {
                let proto =
                    AdaptiveBackend::try_with_policy(q, gamma, Some(block), m).unwrap();
                BasicSlackQMax::try_with_backend(w, tau, proto).unwrap()
            })
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
        let mut windows: Vec<HierSlackQMax<u32, u64, AdaptiveBackend<u32, u64>>> = MODES
            .iter()
            .map(|&m| {
                let proto = AdaptiveBackend::try_with_policy(q, gamma, None, m).unwrap();
                HierSlackQMax::try_with_backend(w, tau, c, proto).unwrap()
            })
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

/// Mode determinism on one longer stream: whatever mode the env knob
/// selects, query results and Ψ are identical.
#[test]
fn policy_modes_are_observationally_identical() {
    let mut zipf = ZipfSampler::new(10_000, 1.0, 0xCA11);
    let items: Vec<(u32, u64)> = (0..50_000u32).map(|i| (i, zipf.sample() as u64)).collect();
    let mut reference: Option<(Vec<u64>, Option<u64>)> = None;
    for mode in MODES {
        let mut b: AdaptiveBackend<u32, u64> =
            AdaptiveBackend::try_with_policy(500, 0.25, None, mode).unwrap();
        for span in items.chunks(777) {
            b.insert_batch(span);
        }
        let got = (sorted_vals(b.query()), b.threshold());
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "mode {mode:?} diverged"),
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

/// Auto-mode choices are a pure function of (capacity, lifetime fill,
/// value-lane type), pinned on the shapes this repository ships: the
/// qbench workloads and the windows-backend experiment's geometry
/// (q = 10⁴, γ = 0.25, W = 10⁶). The shipped constructors consult the
/// process-wide mode, so they are checked against what that mode
/// picks; the auto answers are also checked against the
/// `adaptive_label` column of the committed `BENCH_windows.json`.
#[test]
fn auto_choices_are_pinned_to_shipped_shapes() {
    use BackendChoice::{Aos, Soa};
    let global = PolicyMode::global();
    let under_global = |auto: BackendChoice| match global {
        PolicyMode::Auto => auto,
        PolicyMode::ForceAos => Aos,
        PolicyMode::ForceSoa => Soa,
    };

    // The rules alone, on each shape's (capacity, fill, lane type).
    let auto = PolicyMode::Auto;
    assert_eq!(auto.choose::<u64>(125_000, None), Soa); // random-q1e5
    assert_eq!(auto.choose::<u64>(12_500, None), Soa); // caida-driver
    assert_eq!(auto.choose::<u64>(1_250, Some(104_858)), Soa); // caida-window
    assert_eq!(auto.choose::<u64>(12_500, Some(10_000)), Aos); // basic τ = 0.01
    assert_eq!(auto.choose::<u64>(12_500, Some(100_000)), Soa); // basic τ = 0.1
    assert_eq!(auto.choose::<OrderedF64>(62_500, None), Aos); // LRFU log

    // qbench workloads.
    let random_q1e5 = AdaptiveBackend::<u64, u64>::new(100_000, 0.25);
    assert_eq!(random_q1e5.backend_label(), label(under_global(Soa)));
    let driver = ShardedQMax::with_backends(10_000, 1, |_| {
        AdaptiveBackend::<u64, u64>::new(10_000, 0.25)
    });
    assert_eq!(driver.shard_backend_labels(), [label(under_global(Soa))]);
    let window = ShardedQMax::<u64, u64, AdaptiveBasicSlackQMax<u64, u64>>::new_windowed(
        1_000,
        0.25,
        1,
        1 << 20,
        0.1,
    );
    assert_eq!(window.shard_backend_labels(), [label(under_global(Soa))]);

    // windows-backend rows, against the committed artifact.
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_windows.json"))
        .expect("BENCH_windows.json is committed at the repository root");
    assert!(bench.contains("\"backend_policy_mode\": \"Auto\""));
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
                AdaptiveHierSlackQMax::<u64, u64>::new_adaptive(q, gamma, w, tau, 2)
                    .backend_label(),
            ),
            (
                "lazy-c2",
                Soa,
                AdaptiveLazySlackQMax::<u64, u64>::new_adaptive(q, gamma, w, tau, 2)
                    .backend_label(),
            ),
        ];
        for (variant, expect, built) in rows {
            assert_eq!(built, label(under_global(expect)), "{variant} tau={t}");
            assert_eq!(
                recorded_label(&bench, variant, &t),
                label(expect),
                "{variant} tau={t}"
            );
        }
    }
    for lrfu_gamma in [0.25, 1.0] {
        let built =
            AdaptiveQMaxLrfu::<u64>::new_adaptive(50_000, lrfu_gamma, 0.75).log_backend_label();
        assert_eq!(built, label(under_global(Aos)), "lrfu gamma={lrfu_gamma}");
        let variant = format!("lrfu-g{lrfu_gamma}");
        assert_eq!(
            recorded_label(&bench, &variant, "-"),
            label(Aos),
            "{variant}"
        );
    }
}
