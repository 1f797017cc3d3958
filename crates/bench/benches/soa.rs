//! Criterion microbenchmark: AoS vs SoA layout on the q-MAX insert hot
//! loop. This is the acceptance gauge for the structure-of-arrays fast
//! path: at q = 10⁴, γ = 1 on a Zipf(1.0) stream the SoA batched insert
//! must clearly beat the AoS singleton-insert loop (see BENCH_soa.json
//! for the recorded series and machine caveats).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qmax_core::{
    AmortizedQMax, BatchInsert, DeamortizedQMax, SoaAmortizedQMax, SoaDeamortizedQMax,
};
use qmax_engine::{QMax, ShardedQMax};
use qmax_traces::gen::random_u64_stream;
use qmax_traces::zipf::ZipfSampler;

const STREAM: usize = 400_000;
const Q: usize = 10_000;
const BATCH: usize = 1024;
const GAMMAS: [f64; 3] = [0.25, 1.0, 4.0];

/// Zipf(1.0) flow ids over a million-flow universe with random ranks.
fn zipf_stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
    let mut flows = ZipfSampler::new(1_000_000, 1.0, seed);
    random_u64_stream(n, seed ^ 0x5EED)
        .map(|v| (flows.sample() as u64, v))
        .collect()
}

fn run_batched<B: BatchInsert<u64, u64>>(mut qm: B, items: &[(u64, u64)]) -> usize {
    for chunk in items.chunks(BATCH) {
        qm.insert_batch(chunk);
    }
    qm.len()
}

fn bench_layouts(c: &mut Criterion) {
    let items = zipf_stream(STREAM, 7);
    let mut group = c.benchmark_group("soa_insert/zipf");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.sample_size(10);
    for gamma in GAMMAS {
        group.bench_with_input(BenchmarkId::new("aos_amortized", gamma), &gamma, |b, &g| {
            b.iter(|| run_batched(AmortizedQMax::new(Q, g), &items))
        });
        group.bench_with_input(BenchmarkId::new("soa_amortized", gamma), &gamma, |b, &g| {
            b.iter(|| run_batched(SoaAmortizedQMax::new(Q, g), &items))
        });
        group.bench_with_input(
            BenchmarkId::new("aos_deamortized", gamma),
            &gamma,
            |b, &g| b.iter(|| run_batched(DeamortizedQMax::new(Q, g), &items)),
        );
        group.bench_with_input(
            BenchmarkId::new("soa_deamortized", gamma),
            &gamma,
            |b, &g| b.iter(|| run_batched(SoaDeamortizedQMax::new(Q, g), &items)),
        );
    }
    group.finish();
}

fn bench_sharded_soa(c: &mut Criterion) {
    let items = zipf_stream(STREAM, 7);
    let mut group = c.benchmark_group("soa_sharded/zipf");
    group.throughput(Throughput::Elements(items.len() as u64));
    group.sample_size(10);
    for shards in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("aos", shards), &shards, |b, &s| {
            b.iter(|| {
                let mut engine: ShardedQMax<u64, u64> = ShardedQMax::new(Q, 1.0, s);
                for chunk in items.chunks(BATCH) {
                    engine.insert_batch(chunk);
                }
                engine.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("soa", shards), &shards, |b, &s| {
            b.iter(|| {
                let mut engine =
                    ShardedQMax::with_backends(Q, s, |_| SoaDeamortizedQMax::new(Q, 1.0));
                for chunk in items.chunks(BATCH) {
                    engine.insert_batch(chunk);
                }
                engine.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layouts, bench_sharded_soa);
criterion_main!(benches);
