//! LRFU experiments: Figure 9 (throughput), Table 2 (hit ratios), and
//! the keyed-path flow-table-vs-HashMap index comparison.

use crate::scale::Scale;
use crate::{fmt, mpps, Report};
use qmax_apps::{CountDistinct, Pba};
use qmax_core::{
    AmortizedQMax, BatchInsert, DedupQMax, FlowTable, IndexedHeapQMax, Minimal, OrderedF64, QMax,
    StdIndex,
};
use qmax_lrfu::{hit_ratio, Cache, DeamortizedLrfu, DecayScore, HeapLrfu, QMaxLrfu, ScanLrfu};
use qmax_traces::gen::{arc_like, random_u64_stream};
use qmax_traces::zipf::ZipfSampler;
use std::io::Write;
use std::time::Instant;

fn request_rate<C: Cache<u64>>(cache: &mut C, trace: &[u64]) -> f64 {
    let start = Instant::now();
    for &k in trace {
        cache.request(k);
    }
    mpps(trace.len(), start.elapsed())
}

/// Figure 9: LRFU request throughput (c = 0.75) on the ARC-like cache
/// trace for q ∈ {10⁴, 10⁵, 10⁶}: q-MAX LRFU across γ vs the indexed
/// heap (`O(log q)`) and scan (`O(q)`, the paper's no-sift-heap
/// behaviour) baselines.
pub fn fig9(scale: &Scale) {
    println!("# Figure 9: LRFU throughput (c=0.75) on the ARC-like trace");
    let n = scale.stream(3_000_000);
    let c = 0.75;
    let mut rep = Report::new("fig9", &["q", "policy", "mreq_s"]);
    for &q in &[10_000usize, 100_000, 1_000_000] {
        let trace = arc_like(n, 10 * q, 9);
        for gamma in [0.05, 0.1, 0.25, 0.5, 1.0] {
            let m = request_rate(&mut QMaxLrfu::new(q, gamma, c), &trace);
            rep.row(&[q.to_string(), format!("lrfu-qmax(g={gamma})"), fmt(m)]);
        }
        let m = request_rate(&mut DeamortizedLrfu::new(q, 0.25, c), &trace);
        rep.row(&[q.to_string(), "lrfu-qmax-wc(g=0.25)".into(), fmt(m)]);
        let m = request_rate(&mut HeapLrfu::new(q, c), &trace);
        rep.row(&[q.to_string(), "lrfu-heap".into(), fmt(m)]);
        // The O(q) scan baseline is hopeless at large q; warm the cache
        // to capacity (so misses really pay the O(q) eviction scan) and
        // cap the timed portion so the experiment finishes.
        let mut scan = ScanLrfu::new(q, c);
        for i in 0..q as u64 {
            scan.request(u64::MAX - i);
        }
        let cap = ((2_000_000_000u64 / q as u64) as usize).clamp(5_000, n);
        let m = request_rate(&mut scan, &trace[..cap]);
        rep.row(&[q.to_string(), "lrfu-scan".into(), fmt(m)]);
    }
}

/// Table 2: hit ratio of q-MAX based LRFU vs the exact q-sized and
/// q(1+γ)-sized LRFU caches (q = 10⁴, c = 0.75, ARC-like trace).
pub fn table2(scale: &Scale) {
    println!("# Table 2: LRFU hit ratios (q=10^4, c=0.75)");
    let n = scale.stream(3_000_000);
    let q = 10_000;
    let c = 0.75;
    let trace = arc_like(n, 20 * q, 17);
    let mut rep = Report::new("table2", &["gamma", "policy", "hit_ratio"]);
    let base = hit_ratio(&mut HeapLrfu::new(q, c), &trace);
    rep.row(&[
        "-".into(),
        "q-sized LRFU".into(),
        format!("{:.1}%", base * 100.0),
    ]);
    for gamma in [0.1, 0.5, 1.0] {
        let ours = hit_ratio(&mut QMaxLrfu::new(q, gamma, c), &trace);
        let big = ((q as f64) * (1.0 + gamma)).ceil() as usize;
        let upper = hit_ratio(&mut HeapLrfu::new(big, c), &trace);
        rep.row(&[
            format!("{:.0}%", gamma * 100.0),
            "q-MAX based LRFU".into(),
            format!("{:.1}%", ours * 100.0),
        ]);
        rep.row(&[
            format!("{:.0}%", gamma * 100.0),
            "q(1+g)-sized LRFU".into(),
            format!("{:.1}%", upper * 100.0),
        ]);
    }
}

/// Request batch size for the LRFU index comparison — same as the
/// `windows-backend` experiment that produced the BENCH_windows.json
/// baseline numbers.
const BATCH: usize = 1024;

/// The `lrfu-g1` AoS throughput recorded in BENCH_windows.json before
/// the flow-table rewrite (std `HashMap` + SipHash keyed index). The
/// keyed paths were the ~60× bottleneck this number documents.
const HASHMAP_ERA_LRFU_G1_MIPS: f64 = 5.936;

/// Pre-change recording of the maintenance selection that materialized
/// `(score, slot)` pairs for `nth_smallest`, taken on the same machine
/// immediately before the scores-only `count_gt_eq` rewrite landed
/// (full-scale run; the paired JSON fields are the "after"). The
/// residual is what one `lrfu-g1` request pays beyond its probe and
/// merge — selection, eviction removes, log append, bookkeeping.
const PAIR_SELECTION_RESIDUAL_NS: f64 = 39.2;
/// `lrfu-g1` total ns/request in the same pre-change recording.
const PAIR_SELECTION_LRFU_G1_TOTAL_NS: f64 = 73.8;
/// `lrfu-g1` flow-table MIPS at batch 1024 in the same recording.
const PAIR_SELECTION_LRFU_G1_MIPS: f64 = 13.550;

struct IndexRow {
    workload: String,
    batch: usize,
    std_mips: f64,
    flow_mips: f64,
}

/// Per-component cost estimates for one LRFU request (nanoseconds),
/// measured by standalone micro-loops on the same machine and stream.
struct ComponentNs {
    /// One flow-table `get` on a warm q-sized table.
    flow_probe: f64,
    /// One exact `logaddexp` score merge (dependent chain).
    exact_merge: f64,
    /// One table-interpolated fast score merge (dependent chain).
    fast_merge: f64,
    /// Total per-request cost of the flow-table `lrfu-g1` run; the
    /// remainder after probes and the merge is selection + bookkeeping.
    lrfu_g1_total: f64,
}

/// Keyed-path comparison: every structure whose hot loop is dominated
/// by a key→slot index, timed twice — once with the HashMap-era
/// [`StdIndex`] and once with the SIMD-probed [`qmax_core::FlowTable`]
/// (the default). Both runs feed identical streams and every pair is
/// cross-checked (hits, stats, query multisets, estimates) so the
/// speedups cannot come from divergent behavior. Every keyed operation
/// probes its index once, and LRFU scores merge via the bounded-error
/// fast `logaddexp` on *both* sides, so the flow-vs-std ratio isolates
/// the index. A request-span sweep (1/64/256/1024) on `lrfu-g1` shows
/// what batching the log appends (one backend `insert_batch` per span)
/// is worth. Series mirror to `results/lrfu_flow_table.csv` and
/// `BENCH_lrfu.json`.
pub fn lrfu_flow_table(scale: &Scale) {
    println!("# Keyed paths: SIMD-probed flow table vs std HashMap index");
    let c = 0.75;
    let q = 50_000;
    let reqs = scale.stream(2_000_000);
    let trace = arc_like(reqs, 200_000, 11);
    let mut rep = Report::new(
        "lrfu_flow_table",
        &["workload", "batch", "std_mips", "flow_mips", "speedup"],
    );
    let mut rows: Vec<IndexRow> = Vec::new();

    // q-MAX LRFU (batched requests + fast merge), the structures
    // BENCH_windows.json showed at 3–6 MIPS against 237–428 MIPS for
    // the core reservoirs. The γ=1 point also sweeps the request span:
    // span 1 appends each log entry through its own backend call,
    // longer spans append a whole between-maintenance run at once.
    // Each request probes the index once either way.
    for gamma in [0.25, 1.0] {
        let sweep: &[usize] = if gamma == 1.0 {
            &[1, 64, 256, BATCH]
        } else {
            &[BATCH]
        };
        for &b in sweep {
            let mut std_cache =
                QMaxLrfu::<u64, _, StdIndex>::new_in(q, gamma, c).with_fast_merge(true);
            let mut flow_cache = QMaxLrfu::new(q, gamma, c).with_fast_merge(true);
            let (mut std_hits, mut flow_hits) = (0usize, 0usize);
            let start = Instant::now();
            for chunk in trace.chunks(b) {
                std_hits += std_cache.request_batch(chunk);
            }
            let std_mips = mpps(reqs, start.elapsed());
            let start = Instant::now();
            for chunk in trace.chunks(b) {
                flow_hits += flow_cache.request_batch(chunk);
            }
            let flow_mips = mpps(reqs, start.elapsed());
            assert_eq!(std_hits, flow_hits, "indexes diverged at gamma={gamma}");
            rows.push(IndexRow {
                workload: format!("lrfu-g{gamma}"),
                batch: b,
                std_mips,
                flow_mips,
            });
        }
    }

    // De-amortized LRFU: one registry upsert per request, and the
    // refresh feed reads the registry with one `get_mut` per slot.
    {
        let mut std_cache =
            DeamortizedLrfu::<u64, _, StdIndex>::new_in(q, 0.25, c).with_fast_merge(true);
        let mut flow_cache = DeamortizedLrfu::new(q, 0.25, c).with_fast_merge(true);
        let start = Instant::now();
        let std_hits = trace.iter().filter(|&&k| std_cache.request(k)).count();
        let std_mips = mpps(reqs, start.elapsed());
        let start = Instant::now();
        let flow_hits = trace.iter().filter(|&&k| flow_cache.request(k)).count();
        let flow_mips = mpps(reqs, start.elapsed());
        assert_eq!(std_hits, flow_hits, "de-amortized indexes diverged");
        assert_eq!(std_cache.stats(), flow_cache.stats());
        rows.push(IndexRow {
            workload: "lrfu-wc-g0.25".into(),
            batch: 1,
            std_mips,
            flow_mips,
        });
    }

    // Keyed apps: zipf-skewed ids so the index sees heavy re-touches.
    let app_q = 10_000;
    let mut ids = ZipfSampler::new(1_000_000, 1.0, 7);
    let pairs: Vec<(u64, u64)> = random_u64_stream(reqs, 7 ^ 0x5EED)
        .map(|v| (ids.sample() as u64, v))
        .collect();

    // Duplicate-merging q-MAX (PBA's reservoir): spans go through
    // `insert_batch`; every triggered compaction merges the buffer with
    // one `entry` upsert per entry.
    {
        let mut std_qm = DedupQMax::<u64, u64, StdIndex>::new_in(app_q, 0.25);
        let mut flow_qm = DedupQMax::new(app_q, 0.25);
        let std_mips = time_insert_batches(&mut std_qm, &pairs);
        let flow_mips = time_insert_batches(&mut flow_qm, &pairs);
        assert_eq!(
            sorted_query_vals(&mut std_qm),
            sorted_query_vals(&mut flow_qm),
            "dedup indexes diverged"
        );
        rows.push(IndexRow {
            workload: "dedup".into(),
            batch: BATCH,
            std_mips,
            flow_mips,
        });
    }

    // Indexed-heap keyed baseline (update-in-place top-q, singleton —
    // the sift chain is inherently serial).
    {
        let mut std_qm = IndexedHeapQMax::<u64, u64, StdIndex>::new_in(app_q);
        let mut flow_qm = IndexedHeapQMax::new(app_q);
        let std_mips = time_inserts(&mut std_qm, &pairs);
        let flow_mips = time_inserts(&mut flow_qm, &pairs);
        assert_eq!(
            sorted_query_vals(&mut std_qm),
            sorted_query_vals(&mut flow_qm),
            "indexed-heap indexes diverged"
        );
        rows.push(IndexRow {
            workload: "indexed-heap".into(),
            batch: 1,
            std_mips,
            flow_mips,
        });
    }

    // KMV count-distinct: one admitted-set membership test per key.
    {
        let mut std_cd = CountDistinct::<_, StdIndex>::new_in(
            AmortizedQMax::<u64, Minimal<u64>>::new(app_q, 0.5),
            3,
        );
        let mut flow_cd =
            CountDistinct::new(AmortizedQMax::<u64, Minimal<u64>>::new(app_q, 0.5), 3);
        let keys: Vec<u64> = pairs.iter().map(|&(id, _)| id).collect();
        let start = Instant::now();
        for &k in &keys {
            std_cd.observe(k);
        }
        let std_mips = mpps(reqs, start.elapsed());
        let start = Instant::now();
        for &k in &keys {
            flow_cd.observe(k);
        }
        let flow_mips = mpps(reqs, start.elapsed());
        assert_eq!(
            std_cd.estimate().to_bits(),
            flow_cd.estimate().to_bits(),
            "count-distinct indexes diverged"
        );
        assert_eq!(std_cd.admitted_count(), flow_cd.admitted_count());
        rows.push(IndexRow {
            workload: "count-distinct".into(),
            batch: 1,
            std_mips,
            flow_mips,
        });
    }

    // Priority-based aggregation: one aggregate upsert per arrival.
    {
        let mut std_pba = Pba::<_, StdIndex>::new_in(
            DedupQMax::<u64, OrderedF64, StdIndex>::new_in(app_q, 0.25),
            1,
        );
        let mut flow_pba = Pba::new(DedupQMax::<u64, OrderedF64>::new(app_q, 0.25), 1);
        let arrivals: Vec<(u64, f64)> = pairs
            .iter()
            .map(|&(id, v)| (id, 1.0 + (v % 1024) as f64))
            .collect();
        let start = Instant::now();
        for &(k, w) in &arrivals {
            std_pba.observe(k, w);
        }
        let std_mips = mpps(reqs, start.elapsed());
        let start = Instant::now();
        for &(k, w) in &arrivals {
            flow_pba.observe(k, w);
        }
        let flow_mips = mpps(reqs, start.elapsed());
        assert_eq!(
            std_pba.tracked_keys(),
            flow_pba.tracked_keys(),
            "pba aggregate maps diverged"
        );
        assert_eq!(std_pba.sample().len(), flow_pba.sample().len());
        rows.push(IndexRow {
            workload: "pba".into(),
            batch: 1,
            std_mips,
            flow_mips,
        });
    }

    for r in &rows {
        rep.row(&[
            r.workload.clone(),
            r.batch.to_string(),
            fmt(r.std_mips),
            fmt(r.flow_mips),
            fmt(r.flow_mips / r.std_mips),
        ]);
    }

    let lrfu_g1_total = rows
        .iter()
        .find(|r| r.workload == "lrfu-g1" && r.batch == BATCH)
        .map_or(0.0, |r| 1e3 / r.flow_mips);
    let comps = component_estimates(&trace, q, c, lrfu_g1_total);
    println!("# per-request component estimates (ns)");
    println!(
        "flow-probe {:.1}  exact-merge {:.1}  fast-merge {:.1}  lrfu-g1 total {:.1}  \
         selection+bookkeeping residual {:.1}",
        comps.flow_probe,
        comps.exact_merge,
        comps.fast_merge,
        comps.lrfu_g1_total,
        comps.residual(),
    );
    write_lrfu_bench_json(&rows, &comps, reqs, q);
}

impl ComponentNs {
    /// What is left of one `lrfu-g1` request after its single index
    /// probe (the request-path upsert; maintenance folds through
    /// request-time arena hints and probes nothing) and one score
    /// merge: the selection pass, eviction removes, log append, and
    /// buffer bookkeeping.
    fn residual(&self) -> f64 {
        (self.lrfu_g1_total - self.flow_probe - self.fast_merge).max(0.0)
    }
}

/// Standalone micro-loops sizing the components of one LRFU request.
fn component_estimates(trace: &[u64], q: usize, c: f64, lrfu_g1_total: f64) -> ComponentNs {
    // `get` probes against a warm q-sized flow table, keys remapped so
    // every probe hits (the request path's common case).
    let mut table: FlowTable<u64, u64> = FlowTable::new();
    for i in 0..q as u64 {
        table.insert(i, i);
    }
    let keys: Vec<u64> = trace.iter().map(|&k| k % q as u64).collect();
    let mut acc = 0u64;
    let start = Instant::now();
    for k in &keys {
        acc += table.get(k).copied().unwrap_or(0);
    }
    let flow_probe = start.elapsed().as_secs_f64() * 1e9 / keys.len() as f64;
    std::hint::black_box(acc);

    // Score merges as a dependent chain (each merge waits on the last,
    // like a key's running score does).
    let merge_ns = |ds: DecayScore| {
        let iters = 2_000_000u64.min(trace.len() as u64 * 4).max(100_000);
        let mut w = ds.access(1);
        let start = Instant::now();
        for t in 2..iters {
            w = ds.bump(w, t);
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / (iters - 2) as f64;
        std::hint::black_box(w);
        ns
    };
    let exact_merge = merge_ns(DecayScore::new(c));
    let fast_merge = merge_ns(DecayScore::new_fast(c));
    ComponentNs {
        flow_probe,
        exact_merge,
        fast_merge,
        lrfu_g1_total,
    }
}

fn time_inserts<Q: QMax<u64, u64>>(qm: &mut Q, pairs: &[(u64, u64)]) -> f64 {
    let start = Instant::now();
    for &(id, v) in pairs {
        qm.insert(id, v);
    }
    mpps(pairs.len(), start.elapsed())
}

fn time_insert_batches<Q: BatchInsert<u64, u64>>(qm: &mut Q, pairs: &[(u64, u64)]) -> f64 {
    let start = Instant::now();
    for span in pairs.chunks(BATCH) {
        qm.insert_batch(span);
    }
    mpps(pairs.len(), start.elapsed())
}

fn sorted_query_vals<Q: QMax<u64, u64>>(qm: &mut Q) -> Vec<u64> {
    let mut v: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
    v.sort_unstable();
    v
}

/// Hand-rolled JSON mirror (no serde in the dependency-free build).
fn write_lrfu_bench_json(rows: &[IndexRow], comps: &ComponentNs, stream_len: usize, q: usize) {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            concat!(
                "    {{\"workload\": \"{}\", \"batch\": {}, \"std_mips\": {:.3}, ",
                "\"flow_mips\": {:.3}, \"speedup\": {:.3}}}"
            ),
            r.workload,
            r.batch,
            r.std_mips,
            r.flow_mips,
            r.flow_mips / r.std_mips,
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"lrfu_flow_table\",\n",
            "  \"generated_unix_secs\": {ts},\n",
            "  \"lrfu_q\": {q},\n",
            "  \"stream_len\": {n},\n",
            "  \"batch\": {batch},\n",
            "  \"fast_merge\": true,\n",
            "  \"hashmap_era_baseline\": {{\"source\": \"BENCH_windows.json\", ",
            "\"lrfu_g1_aos_mips\": {base}}},\n",
            "  \"machine_caveats\": \"wall-clock timing on a shared, unpinned machine ",
            "(no CPU isolation, no frequency control, container noise); ",
            "relative flow-vs-std speedups are the signal, absolute MIPS are not ",
            "comparable across machines or runs — use the unchanged indexed-heap row ",
            "as the cross-run anchor when comparing against an earlier recording\",\n",
            "  \"target_note\": \"every keyed operation probes its index once ",
            "(KeyIndex::entry finds or inserts in one probe, with no prefetch stage); ",
            "LRFU requests record each key's score-arena slot at probe time, so a ",
            "maintenance pass folds its log with zero additional index probes and ",
            "survivors are never reinserted into the log; score merges use the ",
            "bounded-error fast logaddexp (abs err <= 2e-8, proptest-enforced) on ",
            "both index variants, so the flow-vs-std ratio isolates the index; the ",
            "lrfu-g1 batch sweep varies only how many log entries share one backend ",
            "insert_batch call; batch 1 rows run singleton calls\",\n",
            "  \"component_ns\": {{\"flow_probe\": {probe:.1}, \"exact_merge\": ",
            "{exact:.1}, \"fast_merge\": {fast:.1}, \"lrfu_g1_total\": {total:.1}, ",
            "\"selection_and_bookkeeping_residual\": {resid:.1}}},\n",
            "  \"pair_selection_baseline\": {{\"note\": \"same-machine recording taken ",
            "immediately before the maintenance selection was rewritten to rank the ",
            "dense arena score column with a count_gt_eq kernel census (pivot via ",
            "scores-only quickselect + one ascending-slot eviction sweep) instead of ",
            "materializing (score, slot) pairs; compare against component_ns and the ",
            "lrfu-g1 batch-{batch} series row of this file for the after\", ",
            "\"selection_and_bookkeeping_residual_ns\": {pair_resid:.1}, ",
            "\"lrfu_g1_total_ns\": {pair_total:.1}, ",
            "\"lrfu_g1_flow_mips\": {pair_mips:.3}}},\n",
            "  \"series\": [\n{body}\n  ]\n",
            "}}\n"
        ),
        ts = ts,
        q = q,
        n = stream_len,
        batch = BATCH,
        base = HASHMAP_ERA_LRFU_G1_MIPS,
        pair_resid = PAIR_SELECTION_RESIDUAL_NS,
        pair_total = PAIR_SELECTION_LRFU_G1_TOTAL_NS,
        pair_mips = PAIR_SELECTION_LRFU_G1_MIPS,
        probe = comps.flow_probe,
        exact = comps.exact_merge,
        fast = comps.fast_merge,
        total = comps.lrfu_g1_total,
        resid = comps.residual(),
        body = body,
    );
    match std::fs::File::create("BENCH_lrfu.json").and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => eprintln!("[lrfu] wrote BENCH_lrfu.json"),
        Err(e) => eprintln!("[lrfu] could not write BENCH_lrfu.json: {e}"),
    }
}
