//! Micro-benchmarks of the core structure: Figures 4–7 and Table 1.

use crate::scale::Scale;
use crate::{fmt, time_stream, Backend, Report};
use qmax_core::{AmortizedQMax, OrderedF64};
use qmax_core::{ExpDecayQMax, HeapQMax, QMax, SkipListQMax};
use qmax_traces::gen::random_u64_stream;
use std::time::Instant;

/// Figure 4: q-MAX throughput as a function of γ, per `q`, with the
/// Heap and SkipList throughput as reference rows (random stream).
pub fn fig4(scale: &Scale) {
    println!("# Figure 4: q-MAX throughput vs gamma (random stream)");
    let stream: Vec<u64> = random_u64_stream(scale.stream(15_000_000), 1).collect();
    let mut rep = Report::new("fig4", &["q", "structure", "mpps"]);
    for &q in &scale.qs() {
        for gamma in scale.gammas() {
            let b = Backend::QMax { gamma };
            let mpps = time_stream(b.build_u64(q).as_mut(), &stream);
            rep.row(&[q.to_string(), b.label(), fmt(mpps)]);
        }
        for b in [Backend::Heap, Backend::SkipList] {
            let mpps = time_stream(b.build_u64(q).as_mut(), &stream);
            rep.row(&[q.to_string(), b.label(), fmt(mpps)]);
        }
    }
}

/// Table 1: minimum and maximum speedup of q-MAX over Heap and
/// SkipList for each γ (across the `q` sweep).
pub fn table1(scale: &Scale) {
    println!("# Table 1: q-MAX speedup ranges vs Heap and SkipList");
    let stream: Vec<u64> = random_u64_stream(scale.stream(15_000_000), 1).collect();
    let qs = scale.qs();
    let mut heap_mpps = Vec::new();
    let mut skip_mpps = Vec::new();
    for &q in &qs {
        heap_mpps.push(time_stream(Backend::Heap.build_u64(q).as_mut(), &stream));
        skip_mpps.push(time_stream(
            Backend::SkipList.build_u64(q).as_mut(),
            &stream,
        ));
    }
    let mut rep = Report::new(
        "table1",
        &[
            "gamma",
            "min_vs_heap",
            "max_vs_heap",
            "min_vs_skip",
            "max_vs_skip",
        ],
    );
    for gamma in scale.gammas() {
        let mut vs_heap: Vec<f64> = Vec::new();
        let mut vs_skip: Vec<f64> = Vec::new();
        for (i, &q) in qs.iter().enumerate() {
            let m = time_stream(Backend::QMax { gamma }.build_u64(q).as_mut(), &stream);
            vs_heap.push(m / heap_mpps[i]);
            vs_skip.push(m / skip_mpps[i]);
        }
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);
        rep.row(&[
            format!("{gamma}"),
            format!("x{:.2}", min(&vs_heap)),
            format!("x{:.2}", max(&vs_heap)),
            format!("x{:.2}", min(&vs_skip)),
            format!("x{:.2}", max(&vs_skip)),
        ]);
    }
}

/// Figure 5: throughput as a function of `q` for q-MAX (several γ),
/// Heap, and SkipList.
pub fn fig5(scale: &Scale) {
    println!("# Figure 5: throughput vs q (random stream)");
    let stream: Vec<u64> = random_u64_stream(scale.stream(15_000_000), 2).collect();
    let mut rep = Report::new("fig5", &["q", "structure", "mpps"]);
    let backends = [
        Backend::QMax { gamma: 0.05 },
        Backend::QMax { gamma: 0.25 },
        Backend::QMax { gamma: 1.0 },
        Backend::QMaxDeamortized { gamma: 0.25 },
        Backend::Heap,
        Backend::SkipList,
    ];
    for &q in &scale.qs() {
        for b in backends {
            let mpps = time_stream(b.build_u64(q).as_mut(), &stream);
            rep.row(&[q.to_string(), b.label(), fmt(mpps)]);
        }
    }
}

/// Figure 6: throughput measured per stream segment — all structures
/// accelerate as the admission threshold rises; q-MAX stays fastest.
pub fn fig6(scale: &Scale) {
    println!("# Figure 6: throughput vs position in the trace");
    let n = scale.stream(15_000_000);
    let stream: Vec<u64> = random_u64_stream(n, 3).collect();
    let segments = 10;
    let seg = n / segments;
    let mut rep = Report::new("fig6", &["q", "structure", "segment", "mpps"]);
    for &q in &[10_000usize, 1_000_000] {
        for b in [
            Backend::QMax { gamma: 0.1 },
            Backend::Heap,
            Backend::SkipList,
        ] {
            let mut qm = b.build_u64(q);
            for s in 0..segments {
                let chunk = &stream[s * seg..(s + 1) * seg];
                let start = Instant::now();
                for (i, &v) in chunk.iter().enumerate() {
                    qm.insert((s * seg + i) as u32, v);
                }
                let mpps = crate::mpps(chunk.len(), start.elapsed());
                rep.row(&[q.to_string(), b.label(), s.to_string(), fmt(mpps)]);
            }
        }
    }
}

/// Figure 7: exponential-decay q-MAX throughput vs γ (c = 0.75), with
/// exponential-decay Heap / SkipList references.
pub fn fig7(scale: &Scale) {
    println!("# Figure 7: exponential-decay q-MAX throughput vs gamma (c=0.75)");
    let n = scale.stream(8_000_000);
    let vals: Vec<f64> = random_u64_stream(n, 4)
        .map(|v| (v % 100_000) as f64 + 1.0)
        .collect();
    let c = 0.75;
    let mut rep = Report::new("fig7", &["q", "structure", "mpps"]);
    for &q in &scale.qs() {
        for gamma in scale.gammas() {
            let mut ed = ExpDecayQMax::new(AmortizedQMax::new(q, gamma), c);
            let start = Instant::now();
            for (i, &v) in vals.iter().enumerate() {
                ed.insert(i as u32, v);
            }
            let mpps = crate::mpps(n, start.elapsed());
            rep.row(&[q.to_string(), format!("ed-qmax(g={gamma})"), fmt(mpps)]);
        }
        // Baselines under the same log-domain transform.
        let mut edh = ExpDecayQMax::new(HeapQMax::new(q), c);
        let start = Instant::now();
        for (i, &v) in vals.iter().enumerate() {
            edh.insert(i as u32, v);
        }
        rep.row(&[
            q.to_string(),
            "ed-heap".into(),
            fmt(crate::mpps(n, start.elapsed())),
        ]);
        let mut eds: ExpDecayQMax<SkipListQMax<u32, OrderedF64>, u32> =
            ExpDecayQMax::new(SkipListQMax::new(q), c);
        let start = Instant::now();
        for (i, &v) in vals.iter().enumerate() {
            eds.insert(i as u32, v);
        }
        rep.row(&[
            q.to_string(),
            "ed-skiplist".into(),
            fmt(crate::mpps(n, start.elapsed())),
        ]);
    }
    // Keep the compiler honest about the query path too.
    let mut ed = ExpDecayQMax::new(AmortizedQMax::new(16, 0.5), c);
    ed.insert(0u32, 1.0);
    let _: Vec<(u32, OrderedF64)> = ed.query();
}
