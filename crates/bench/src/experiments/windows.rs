//! Sliding-window experiments: Figures 10–11, the window ablation, and
//! the AoS-vs-SoA backend comparison for the windowed workloads.

use crate::scale::Scale;
use crate::{fmt, mpps, Report};
use qmax_core::{
    AmortizedQMax, BasicSlackQMax, BatchInsert, HierSlackQMax, LazySlackQMax, QMax,
    SoaAmortizedQMax,
};
use qmax_traces::gen::random_u64_stream;
use qmax_traces::zipf::ZipfSampler;
use std::time::Instant;

/// Figure 10: interval q-MAX vs sliding-window q-MAX throughput over
/// the course of the trace (γ = 0.1, τ = 1): the interval structure
/// accelerates as its threshold rises; the window structure is flat.
pub fn fig10(scale: &Scale) {
    println!("# Figure 10: interval vs sliding q-MAX over the trace (gamma=0.1, tau=1)");
    let n = scale.stream(15_000_000);
    let stream: Vec<u64> = random_u64_stream(n, 5).collect();
    let segments = 10;
    let seg = n / segments;
    let mut rep = Report::new("fig10", &["q", "structure", "segment", "mpps"]);
    for &q in &scale.qs() {
        let w = (4 * q).max(1_000_000);
        let mut interval: Box<dyn QMax<u32, u64>> = Box::new(AmortizedQMax::new(q, 0.1));
        let mut sliding: Box<dyn QMax<u32, u64>> = Box::new(BasicSlackQMax::new(q, 0.1, w, 1.0));
        for (name, qm) in [("interval", &mut interval), ("sliding", &mut sliding)] {
            for s in 0..segments {
                let chunk = &stream[s * seg..(s + 1) * seg];
                let start = Instant::now();
                for (i, &v) in chunk.iter().enumerate() {
                    qm.insert((s * seg + i) as u32, v);
                }
                rep.row(&[
                    q.to_string(),
                    name.to_string(),
                    s.to_string(),
                    fmt(mpps(chunk.len(), start.elapsed())),
                ]);
            }
        }
    }
}

/// Figure 11: sliding q-MAX throughput as a function of the slack τ,
/// for several window sizes `W` and γ values (q fixed).
pub fn fig11(scale: &Scale) {
    println!("# Figure 11: sliding q-MAX throughput vs tau");
    let n = scale.stream(15_000_000);
    let stream: Vec<u64> = random_u64_stream(n, 6).collect();
    let q = if scale.full { 1_000_000 } else { 100_000 };
    let mut rep = Report::new("fig11", &["W", "gamma", "tau", "mpps"]);
    let ws = if scale.full {
        vec![4_000_000usize, 16_000_000]
    } else {
        vec![1_000_000usize, 4_000_000]
    };
    for &w in &ws {
        for gamma in [0.1, 0.5] {
            for tau in [0.01, 0.05, 0.1, 0.25, 0.5, 1.0] {
                let mut sw = BasicSlackQMax::new(q, gamma, w, tau);
                let start = Instant::now();
                for (i, &v) in stream.iter().enumerate() {
                    sw.insert(i as u32, v);
                }
                rep.row(&[
                    w.to_string(),
                    format!("{gamma}"),
                    format!("{tau}"),
                    fmt(mpps(n, start.elapsed())),
                ]);
            }
        }
    }
}

/// Window ablation (DESIGN.md §4): basic (Alg. 3) vs hierarchical
/// (Alg. 4, varying `c`) vs lazy (Thm. 7) — update throughput and
/// query latency as τ shrinks.
pub fn ablate_window(scale: &Scale) {
    println!("# Ablation: slack-window variants (update vs query trade-off)");
    let n = scale.stream(8_000_000);
    let stream: Vec<u64> = random_u64_stream(n, 7).collect();
    let q = 10_000;
    let w = 2_000_000;
    let mut rep = Report::new(
        "ablate_window",
        &["variant", "tau", "update_mpps", "query_ms", "stored"],
    );
    for tau in [0.001, 0.01, 0.1] {
        let variants: Vec<(String, Box<dyn QMax<u32, u64>>)> = vec![
            (
                "basic".into(),
                Box::new(BasicSlackQMax::new(q, 0.25, w, tau)),
            ),
            (
                "hier-c2".into(),
                Box::new(HierSlackQMax::new(q, 0.25, w, tau, 2)),
            ),
            (
                "hier-c3".into(),
                Box::new(HierSlackQMax::new(q, 0.25, w, tau, 3)),
            ),
            (
                "lazy-c2".into(),
                Box::new(LazySlackQMax::new(q, 0.25, w, tau, 2)),
            ),
        ];
        for (name, mut sw) in variants {
            let start = Instant::now();
            for (i, &v) in stream.iter().enumerate() {
                sw.insert(i as u32, v);
            }
            let update = mpps(n, start.elapsed());
            let qstart = Instant::now();
            let mut res_len = 0;
            let reps = 10;
            for _ in 0..reps {
                res_len = sw.query().len();
            }
            let query_ms = qstart.elapsed().as_secs_f64() * 1e3 / reps as f64;
            assert_eq!(res_len, q);
            rep.row(&[
                name,
                format!("{tau}"),
                fmt(update),
                fmt(query_ms),
                sw.len().to_string(),
            ]);
        }
    }
}

const BATCH: usize = 1024;

/// Timed interleaved rounds per configuration; each round measures both
/// layouts back-to-back and the per-layout best is reported. Six rounds
/// = three full rotations of the measurement order (see
/// [`paired_window_mips`]), enough that the CI gate at 0.95 measures the
/// layouts and not single-round scheduler or allocator interference
/// (observed at 5–10% on the ~10 ms basic-window rows).
const PASSES: usize = 6;

/// A timed pass must cover at least this much wall clock: the fastest
/// window configs stream the whole item set in ~10 ms, where scheduler
/// jitter alone moves single measurements by ±10% — far more than the
/// 5% the CI gate resolves. [`stream_reps`] repeats the stream until a
/// pass reaches this floor.
const MIN_PASS_MS: f64 = 80.0;

/// How many times to replay `items` per timed pass so the pass lasts
/// at least [`MIN_PASS_MS`], estimated from one untimed warm-up pass.
/// The count is computed once per configuration and then shared by
/// every layout and round, so all measurements stay replay-identical.
fn stream_reps(est_mips: f64, n_items: usize) -> usize {
    let est_ms = n_items as f64 / est_mips / 1e3;
    ((MIN_PASS_MS / est_ms).ceil() as usize).clamp(1, 16)
}

/// Times `reps` replays of the windowed batch path and returns
/// `(mips, sorted top-q)`.
fn time_window_batch<S>(sw: &mut S, items: &[(u64, u64)], reps: usize) -> (f64, Vec<u64>)
where
    S: BatchInsert<u64, u64> + QMax<u64, u64>,
{
    let start = Instant::now();
    for _ in 0..reps {
        for chunk in items.chunks(BATCH) {
            sw.insert_batch(chunk);
        }
    }
    let mips = mpps(items.len() * reps, start.elapsed());
    let mut vals: Vec<u64> = sw.query().into_iter().map(|(_, v)| v).collect();
    vals.sort_unstable();
    (mips, vals)
}

/// Interleaved best-of-[`PASSES`] over the two layouts of one window
/// variant: each round rebuilds and replays AoS and SoA back to back,
/// and each layout keeps its fastest round. Interleaving is what makes
/// the `soa_vs_best` ratio trustworthy on a shared machine — slow drift
/// (frequency scaling, allocator warm-up, container interference) hits
/// both layouts alike instead of whichever config happened to run last,
/// and taking the per-layout max discards the rounds interference
/// slowed down. The measurement order alternates each round: position
/// within a round carries its own bias (the first layout runs against
/// colder caches), and under a fixed order that bias lands entirely on
/// one layout's max. The deterministic replay also cross-checks that
/// both layouts and every round answer the same top-q.
///
/// Returns the per-layout best throughputs `[aos, soa]` plus the
/// **round-paired** `soa_vs_best` ratio: the best over rounds of
/// `soa / max(aos, soa)` *within that round*. The two measurements of
/// one round run back to back, so whatever the machine was doing that
/// round divides out of the ratio — on a shared CI box single-pass
/// throughput wobbles ±5–10%, which cross-round max-vs-max ratios
/// inherit and a 0.95 gate then trips on noise. A layout that is
/// genuinely slower (the 20–60% regressions the gate exists to catch)
/// cannot manufacture a single ≥ 0.95 round.
fn paired_window_mips<A, B, FA, FB>(
    mut make_aos: FA,
    mut make_soa: FB,
    items: &[(u64, u64)],
    context: &str,
) -> ([f64; 2], f64)
where
    A: BatchInsert<u64, u64> + QMax<u64, u64>,
    B: BatchInsert<u64, u64> + QMax<u64, u64>,
    FA: FnMut() -> A,
    FB: FnMut() -> B,
{
    let (est, _) = time_window_batch(&mut make_aos(), items, 1);
    let reps = stream_reps(est, items.len());
    let mut best = [0.0f64; 2];
    let mut soa_vs_best = 0.0f64;
    let mut reference: Option<Vec<u64>> = None;
    for round in 0..PASSES {
        let ((aos, top_aos), (soa, top_soa)) = if round % 2 == 0 {
            let a = time_window_batch(&mut make_aos(), items, reps);
            (a, time_window_batch(&mut make_soa(), items, reps))
        } else {
            let s = time_window_batch(&mut make_soa(), items, reps);
            (time_window_batch(&mut make_aos(), items, reps), s)
        };
        assert_eq!(top_aos, top_soa, "{context}: layouts diverged");
        match &reference {
            None => reference = Some(top_aos),
            Some(t) => assert_eq!(t, &top_aos, "{context}: replay diverged between rounds"),
        }
        best[0] = best[0].max(aos);
        best[1] = best[1].max(soa);
        soa_vs_best = soa_vs_best.max(soa / aos.max(soa));
    }
    (best, soa_vs_best)
}

/// AoS-vs-SoA block backend comparison on the windowed hot loops.
///
/// Every slack-window algorithm is generic over its interval backend;
/// this experiment measures what the structure-of-arrays backend — the
/// block layout `ShardedQMax::new_windowed` ships — buys each variant
/// on a Zipf-skewed stream fed through the batched insert path, and
/// asserts both layouts produce identical top-q value multisets. Series
/// mirror to `results/windows_backend_compare.csv` (with a
/// `soa_vs_best` column for the CI gate) and `BENCH_windows.json`.
pub fn windows_backend(scale: &Scale) {
    println!("# Windowed q-MAX: AoS vs SoA block backends (batched inserts)");
    let n = scale.stream(4_000_000);
    let q = 10_000;
    let gamma = 0.25;
    let w = (n / 4).max(4 * q);
    let mut flows = ZipfSampler::new(1_000_000, 1.0, 11);
    let stream: Vec<(u64, u64)> = random_u64_stream(n, 11 ^ 0x5EED)
        .map(|v| (flows.sample() as u64, v))
        .collect();
    let mut rep = Report::new(
        "windows_backend_compare",
        &[
            "variant",
            "tau",
            "aos_mips",
            "soa_mips",
            "speedup",
            "soa_vs_best",
        ],
    );
    let mut body = Vec::new();
    for tau in [0.01, 0.1] {
        let soa_block = || SoaAmortizedQMax::new(q, gamma);
        let measured = [
            (
                "basic",
                paired_window_mips(
                    || BasicSlackQMax::new(q, gamma, w, tau),
                    || BasicSlackQMax::with_backend(w, tau, soa_block()),
                    &stream,
                    &format!("basic tau={tau}"),
                ),
            ),
            (
                "hier-c2",
                paired_window_mips(
                    || HierSlackQMax::new(q, gamma, w, tau, 2),
                    || HierSlackQMax::with_backend(w, tau, 2, soa_block()),
                    &stream,
                    &format!("hier tau={tau}"),
                ),
            ),
            (
                "lazy-c2",
                paired_window_mips(
                    || LazySlackQMax::new(q, gamma, w, tau, 2),
                    || LazySlackQMax::with_backend(w, tau, 2, soa_block()),
                    &stream,
                    &format!("lazy tau={tau}"),
                ),
            ),
        ];
        for (variant, ([aos, soa], vs_best)) in measured {
            rep.row(&[
                variant.to_string(),
                format!("{tau}"),
                fmt(aos),
                fmt(soa),
                fmt(soa / aos),
                fmt(vs_best),
            ]);
            body.push(format!(
                concat!(
                    "    {{\"variant\": \"{}\", \"tau\": \"{}\", ",
                    "\"aos_mips\": {:.3}, \"soa_mips\": {:.3}, ",
                    "\"speedup\": {:.3}, \"soa_vs_best\": {:.3}}}"
                ),
                variant,
                tau,
                aos,
                soa,
                soa / aos,
                vs_best,
            ));
        }
    }
    write_bench_json(&body.join(",\n"), n, q);
}

/// Hand-rolled JSON mirror (no serde in the dependency-free build).
fn write_bench_json(body: &str, stream_len: usize, q: usize) {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"windows_backend_compare\",\n",
            "  \"generated_unix_secs\": {ts},\n",
            "  \"q\": {q},\n",
            "  \"stream_len\": {n},\n",
            "  \"batch\": {batch},\n",
            "  \"machine_caveats\": \"wall-clock timing on a shared, unpinned machine ",
            "(no CPU isolation, no frequency control, container noise); ",
            "relative AoS-vs-SoA speedups are the signal, absolute MIPS are not ",
            "comparable across machines or runs\",\n",
            "  \"series\": [\n{body}\n  ]\n",
            "}}\n"
        ),
        ts = ts,
        q = q,
        n = stream_len,
        batch = BATCH,
        body = body,
    );
    crate::write_bench_json("windows", &json);
}
