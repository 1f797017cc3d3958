//! Criterion microbenchmark: LRFU request cost per policy (behind
//! Figure 9), including the structure-of-arrays log-buffer backends.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qmax_core::SoaAmortizedQMax;
use qmax_lrfu::{Cache, DeamortizedLrfu, HeapLrfu, QMaxLrfu, ScanLrfu, SoaQMaxLrfu};
use qmax_traces::gen::arc_like;

fn bench_lrfu(c: &mut Criterion) {
    let trace = arc_like(300_000, 50_000, 9);
    let q = 5_000;
    let decay = 0.75;
    let mut group = c.benchmark_group("lrfu_request");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(10);
    group.bench_function("qmax_g0.25", |b| {
        b.iter(|| {
            let mut cache = QMaxLrfu::new(q, 0.25, decay);
            for &k in &trace {
                cache.request(k);
            }
            cache.len()
        })
    });
    group.bench_function("qmax_g1.0", |b| {
        b.iter(|| {
            let mut cache = QMaxLrfu::new(q, 1.0, decay);
            for &k in &trace {
                cache.request(k);
            }
            cache.len()
        })
    });
    group.bench_function("qmax_g0.25_soa", |b| {
        b.iter(|| {
            let mut cache = SoaQMaxLrfu::new_soa(q, 0.25, decay);
            for &k in &trace {
                cache.request(k);
            }
            cache.len()
        })
    });
    group.bench_function("qmax_g0.25_soa_batch", |b| {
        b.iter(|| {
            let mut cache = SoaQMaxLrfu::new_soa(q, 0.25, decay);
            let mut hits = 0;
            for chunk in trace.chunks(1024) {
                hits += cache.request_batch(chunk);
            }
            hits
        })
    });
    group.bench_function("qmax_wc_g0.25", |b| {
        b.iter(|| {
            let mut cache = DeamortizedLrfu::new(q, 0.25, decay);
            for &k in &trace {
                cache.request(k);
            }
            cache.len()
        })
    });
    group.bench_function("qmax_wc_g0.25_soa", |b| {
        b.iter(|| {
            let mut cache: DeamortizedLrfu<u64, _> =
                DeamortizedLrfu::with_snapshot(0.25, decay, SoaAmortizedQMax::new(q, 0.25));
            for &k in &trace {
                cache.request(k);
            }
            cache.len()
        })
    });
    group.bench_function("heap", |b| {
        b.iter(|| {
            let mut cache = HeapLrfu::new(q, decay);
            for &k in &trace {
                cache.request(k);
            }
            cache.len()
        })
    });
    group.bench_function("scan", |b| {
        b.iter(|| {
            let mut cache = ScanLrfu::new(q, decay);
            for &k in &trace[..50_000] {
                cache.request(k);
            }
            cache.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lrfu);
criterion_main!(benches);
