//! Ablations of the design choices DESIGN.md calls out: amortized vs
//! de-amortized compaction, and the selection algorithm inside it.

use crate::scale::Scale;
use crate::{fmt, time_stream, Backend, Report};
use qmax_core::{DeamortizedQMax, QMax};
use qmax_select::{mom_nth_smallest, nth_smallest, Direction, MachineStatus, NthElementMachine};
use qmax_traces::gen::random_u64_stream;
use std::time::Instant;

/// Ablation: amortized vs de-amortized q-MAX — average throughput and
/// the worst-case work a single arrival performs.
///
/// The amortized variant is faster on average (the paper benchmarks
/// it); the de-amortized variant bounds *every* update, which is what
/// a line-rate datapath actually needs. This prints both sides.
pub fn ablate_deamortize(scale: &Scale) {
    println!("# Ablation: amortized vs de-amortized compaction");
    let stream: Vec<u64> = random_u64_stream(scale.stream(10_000_000), 8).collect();
    let mut rep = Report::new(
        "ablate_deamortize",
        &["q", "gamma", "variant", "mpps", "max_step_ops", "budget"],
    );
    for &q in &[10_000usize, 1_000_000] {
        for gamma in [0.05, 0.25, 1.0] {
            let m = time_stream(Backend::QMax { gamma }.build_u64(q).as_mut(), &stream);
            rep.row(&[
                q.to_string(),
                format!("{gamma}"),
                "amortized".into(),
                fmt(m),
                // The amortized variant's worst single update is a full
                // O(q(1+gamma)) compaction.
                format!("~{}", ((q as f64) * (1.0 + gamma) * 2.0) as u64),
                "-".into(),
            ]);
            let mut dqm = DeamortizedQMax::new(q, gamma);
            let start = Instant::now();
            for (i, &v) in stream.iter().enumerate() {
                dqm.insert(i as u32, v);
            }
            let m = crate::mpps(stream.len(), start.elapsed());
            rep.row(&[
                q.to_string(),
                format!("{gamma}"),
                "deamortized".into(),
                fmt(m),
                dqm.stats().max_step_ops.to_string(),
                dqm.step_budget().to_string(),
            ]);
            assert_eq!(dqm.stats().forced_completions, 0);
        }
    }
}

/// A selector under test: rearranges `buf` and returns its `k`-th
/// smallest element.
type Select = fn(&mut [u64], usize) -> u64;

/// `slice::select_nth_unstable`: the standard library's selection, the
/// baseline the hand-written selectors are measured against.
fn std_select(buf: &mut [u64], k: usize) -> u64 {
    *buf.select_nth_unstable(k).1
}

/// The de-amortized compaction's suspendable machine, run to completion
/// in one call.
fn machine_run(buf: &mut [u64], k: usize) -> u64 {
    let mut m = NthElementMachine::new(0, buf.len(), k, Direction::Ascending);
    let i = m.run_to_completion(buf);
    buf[i]
}

/// The same machine driven in 64-op steps: its delta over
/// `machine_run` is the per-step overhead of suspending and resuming.
fn machine_budget64(buf: &mut [u64], k: usize) -> u64 {
    let mut m = NthElementMachine::new(0, buf.len(), k, Direction::Ascending);
    while m.step(buf, 64) == MachineStatus::InProgress {}
    buf[m.result_index().expect("machine finished")]
}

/// Ablation: the selection algorithm inside the compaction, on
/// compaction-shaped inputs (a `q(1+γ)` buffer whose top part is
/// partially ordered from previous compactions): the standard library's
/// `select_nth_unstable`, introselect, pure median-of-medians, and the
/// de-amortized machine (run to completion, and in 64-op steps). Every
/// run's answer is checked against a sorted copy of its input.
pub fn ablate_select(scale: &Scale) {
    println!("# Ablation: selection algorithm (std, introselect, median-of-medians, machine)");
    let mut rep = Report::new("ablate_select", &["n", "input", "algorithm", "ns_per_elem"]);
    let sizes = if scale.full {
        vec![100_000usize, 1_000_000, 10_000_000]
    } else {
        vec![100_000usize, 1_000_000]
    };
    let algorithms: [(&str, Select); 5] = [
        ("std", std_select),
        ("introselect", |b, k| *nth_smallest(b, k)),
        ("mom", |b, k| *mom_nth_smallest(b, k)),
        ("machine_run", machine_run),
        ("machine_budget64", machine_budget64),
    ];
    for &n in &sizes {
        let random: Vec<u64> = random_u64_stream(n, 9).collect();
        let mut sorted = random.clone();
        sorted.sort_unstable();
        let mut reversed = sorted.clone();
        reversed.reverse();
        let few: Vec<u64> = random.iter().map(|v| v % 4).collect();
        for (iname, input) in [
            ("random", &random),
            ("sorted", &sorted),
            ("reversed", &reversed),
            ("few-distinct", &few),
        ] {
            let mut expect = input.clone();
            expect.sort_unstable();
            for (aname, f) in algorithms {
                let reps = 5;
                let mut total = std::time::Duration::ZERO;
                for r in 0..reps {
                    let mut buf = input.clone();
                    let k = (n / 2 + r) % n;
                    let start = Instant::now();
                    let got = std::hint::black_box(f(&mut buf, k));
                    total += start.elapsed();
                    assert_eq!(
                        got, expect[k],
                        "{aname} selected the wrong element on {iname}"
                    );
                }
                let ns = total.as_nanos() as f64 / (reps * n) as f64;
                rep.row(&[n.to_string(), iname.into(), aname.into(), fmt(ns)]);
            }
        }
    }
}

/// Ablation: per-update latency distribution — the concrete case for
/// de-amortization. The amortized variant's average is better, but its
/// tail contains `O(q)` compaction spikes; the de-amortized variant's
/// tail is flat. Reports p50 / p99 / p99.99 / max per-update latency.
pub fn ablate_tail(scale: &Scale) {
    println!("# Ablation: per-update latency tail (amortized vs de-amortized)");
    let n = scale.stream(2_000_000);
    let stream: Vec<u64> = random_u64_stream(n, 10).collect();
    let mut rep = Report::new(
        "ablate_tail",
        &["q", "variant", "p50_ns", "p99_ns", "p9999_ns", "max_ns"],
    );
    for &q in &[10_000usize, 1_000_000] {
        for (name, mut qm) in [
            ("amortized", Backend::QMax { gamma: 0.25 }.build_u64(q)),
            (
                "deamortized",
                Backend::QMaxDeamortized { gamma: 0.25 }.build_u64(q),
            ),
        ] {
            let mut lat: Vec<u32> = Vec::with_capacity(n);
            for (i, &v) in stream.iter().enumerate() {
                let t = Instant::now();
                qm.insert(i as u32, v);
                lat.push(t.elapsed().subsec_nanos());
            }
            lat.sort_unstable();
            let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
            rep.row(&[
                q.to_string(),
                name.into(),
                pct(0.5).to_string(),
                pct(0.99).to_string(),
                pct(0.9999).to_string(),
                lat.last().unwrap().to_string(),
            ]);
        }
    }
}

/// Ablation: γ space/time trade-off including the de-amortized
/// variant's per-arrival budget (complements Figure 4 with worst-case
/// numbers).
pub fn ablate_gamma(scale: &Scale) {
    println!("# Ablation: gamma trade-off, worst-case step budget");
    let _ = scale;
    let mut rep = Report::new(
        "ablate_gamma",
        &["q", "gamma", "space_slots", "step_budget"],
    );
    for &q in &[10_000usize, 1_000_000] {
        for gamma in [0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0] {
            let dqm: DeamortizedQMax<u32, u64> = DeamortizedQMax::new(q, gamma);
            rep.row(&[
                q.to_string(),
                format!("{gamma}"),
                dqm.capacity().to_string(),
                dqm.step_budget().to_string(),
            ]);
        }
    }
}
