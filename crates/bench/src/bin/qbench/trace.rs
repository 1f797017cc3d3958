//! The per-layer trace: spans around every call the benchmark makes
//! into the engine, and replays of the workload's stream through each
//! layer's public API, so each layer's cost can be read on its own.

use crate::stats::{median, self_time_ns};
use crate::workload::{backend, driver_engine, zipf_engine, Input, Item, Workload, BATCH, EPOCH};
use crate::workload::{GAMMA, TAU, WINDOW};
use qmax_core::{AdaptiveBasicSlackQMax, BatchInsert, QMax};
use qmax_engine::{ring, DriverConfig, ShardedQMax};
use qmax_select::Kernel;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::thread;
use std::time::Instant;

/// One timed call: `parent` 0 is the root.
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans in memory while on; records nothing while off, so
/// the untraced passes run the very same code.
pub struct Tracer {
    origin: Instant,
    on: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            origin: Instant::now(),
            on: false,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            spans: Vec::with_capacity(1 << 14),
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh span id, for a span whose children are recorded before
    /// it closes.
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Records span `id` over `[start, end)`.
    pub fn close(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            let (start_ns, end_ns) = (ns(start), ns(end));
            self.spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records a span with no children.
    pub fn leaf(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.id();
            self.close(name, id, parent, start, end);
        }
    }

    /// Total self time of the spans called `name`.
    fn self_ns(&self, name: &str) -> u64 {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let kids = children.get_mut(&s.id).map_or(&mut [][..], |v| &mut v[..]);
                self_time_ns(s.start_ns, s.end_ns, kids)
            })
            .sum()
    }

    /// Duration of the spans called `name`.
    fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == 0 {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                r#"{{"name": "{}", "id": {}, "parent": {}, "start_ns": {}, "end_ns": {}}}"#,
                s.name, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Every per-layer metric `--trace` reports, with its unit.
pub const METRICS: [(&str, &str); 25] = [
    ("kernels.admit_ns_per_item", "ns/item"),
    ("backend.ns_per_item", "ns/item"),
    ("backend.admit_frac", "fraction"),
    ("backend.compactions", "count"),
    ("backend.compacting_batch_p50_us", "us"),
    ("backend.query_us", "us"),
    ("window.ns_per_item", "ns/item"),
    ("window.overhead_ns_per_item", "ns/item"),
    ("window.query_us", "us"),
    ("sharded.ns_per_item", "ns/item"),
    ("sharded.tax_ns_per_item", "ns/item"),
    ("sharded.prefilter_frac", "fraction"),
    ("sharded.merge_query_us", "us"),
    ("sharded.max_load_factor", "ratio"),
    ("ring.ns_per_batch", "ns/batch"),
    ("ring.high_water", "count"),
    ("driver.ns_per_item", "ns/item"),
    ("driver.increment_ns_per_item", "ns/item"),
    ("driver.saturated_runs", "count"),
    ("driver.ring_high_water", "count"),
    ("supervisor.ns_per_item", "ns/item"),
    ("supervisor.vs_driver", "ratio"),
    ("supervisor.saturated_runs", "count"),
    ("trace_overhead", "ratio"),
    ("budget_residual_frac", "fraction"),
];

/// The layers, named after their modules, in the order of round 0.
const LAYERS: [&str; 7] = [
    "select.kernels",
    "core.backend",
    "core.window",
    "engine.sharded",
    "engine.ring",
    "engine.driver",
    "engine.supervisor",
];

/// Replay rounds; the layer order rotates by one each round so no layer
/// always runs first (cold) or last.
const ROUNDS: usize = 3;

/// Items between supervised checkpoints in the supervisor replay.
const CHECKPOINT_EVERY: u64 = 65_536;

type Metrics = BTreeMap<&'static str, f64>;

/// The workload's stream and query points, shared by every replay.
struct Replay<'a> {
    items: &'a [Item],
    points: &'a [usize],
    q: usize,
    /// Backend Ψ after each batch, which the kernel replay filters at.
    psi: Vec<Option<u64>>,
    /// Most-loaded of 4 shards over the mean, from the routing alone.
    load_factor: f64,
}

/// Feeds the stream in `BATCH`-item calls, querying at the query
/// points; `on_batch` sees the engine and each call's nanoseconds.
/// Returns the ingest nanoseconds and the query latencies in µs.
fn feed<E: BatchInsert<u64, u64>>(
    engine: &mut E,
    r: &Replay,
    query: bool,
    mut on_batch: impl FnMut(&E, u64),
) -> (u64, Vec<f64>) {
    let (mut ingest, mut queries, mut done) = (0u64, Vec::new(), 0usize);
    for chunk in r.items.chunks(BATCH) {
        let t0 = Instant::now();
        engine.insert_batch(chunk);
        let dt = t0.elapsed().as_nanos() as u64;
        ingest += dt;
        on_batch(engine, dt);
        done += chunk.len();
        if query && r.points.contains(&done) {
            let t0 = Instant::now();
            std::hint::black_box(engine.query());
            queries.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    (ingest, queries)
}

/// Median, or 0 for no samples (a layer that never did the thing).
fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Replays the stream through one layer, adding its metrics to `m`.
fn replay(layer: &str, r: &Replay, m: &mut Metrics) {
    let n = r.items.len() as f64;
    match layer {
        "select.kernels" => {
            let kernel = Kernel::<u64>::detect();
            let (mut vals, mut ids) = (vec![0u64; BATCH], vec![0u64; BATCH]);
            let t0 = Instant::now();
            let mut kept = 0usize;
            for (b, chunk) in r.items.chunks(BATCH).enumerate() {
                let psi = b.checked_sub(1).and_then(|p| r.psi[p]);
                kept += kernel.admit_pairs(chunk, psi, &mut vals, &mut ids, 0, chunk.len());
            }
            std::hint::black_box(kept);
            m.insert(
                "kernels.admit_ns_per_item",
                t0.elapsed().as_nanos() as f64 / n,
            );
        }
        "core.backend" => {
            let mut b = backend(r.q);
            let (mut last, mut compacting) = (0u64, Vec::new());
            let (ns, queries) = feed(&mut b, r, true, |b, dt| {
                if b.compactions() > last {
                    compacting.push(dt as f64 / 1e3);
                }
                last = b.compactions();
            });
            m.insert("backend.ns_per_item", ns as f64 / n);
            m.insert("backend.admit_frac", 1.0 - b.filtered() as f64 / n);
            m.insert("backend.compactions", b.compactions() as f64);
            m.insert(
                "backend.compacting_batch_p50_us",
                median_or_zero(&compacting),
            );
            m.insert("backend.query_us", median_or_zero(&queries));
        }
        "core.window" => {
            let mut w = AdaptiveBasicSlackQMax::<u64, u64>::new_adaptive(r.q, GAMMA, WINDOW, TAU);
            let (ns, queries) = feed(&mut w, r, true, |_, _| {});
            m.insert("window.ns_per_item", ns as f64 / n);
            m.insert("window.query_us", median_or_zero(&queries));
        }
        "engine.sharded" => {
            let mut s4 = zipf_engine(r.q);
            let (ns4, queries) = feed(&mut s4, r, true, |_, _| {});
            let mut s1: ShardedQMax<u64, u64> = ShardedQMax::new(r.q, GAMMA, 1);
            let (ns1, _) = feed(&mut s1, r, false, |_, _| {});
            m.insert("sharded.ns_per_item", ns4 as f64 / n);
            m.insert("sharded.tax_ns_per_item", (ns4 as f64 - ns1 as f64) / n);
            m.insert("sharded.prefilter_frac", s4.prefiltered() as f64 / n);
            m.insert("sharded.merge_query_us", median_or_zero(&queries));
            m.insert("sharded.max_load_factor", r.load_factor);
        }
        "engine.ring" => {
            // Owned batches are built untimed; the timed part is only
            // the hand-off to a consumer that drops them.
            let batches: Vec<Vec<Item>> = r.items.chunks(BATCH).map(<[Item]>::to_vec).collect();
            let count = batches.len() as f64;
            let (mut tx, mut rx) = ring::ring::<Vec<Item>>(8);
            let t0 = Instant::now();
            let high_water = thread::scope(|s| {
                let consumer = s.spawn(move || while rx.recv().is_some() {});
                for b in batches {
                    tx.push_wait(b).expect("ring consumer exited early");
                }
                let hw = tx.high_water();
                drop(tx);
                consumer.join().expect("ring consumer panicked");
                hw
            });
            m.insert("ring.ns_per_batch", t0.elapsed().as_nanos() as f64 / count);
            m.insert("ring.high_water", high_water as f64);
        }
        "engine.driver" | "engine.supervisor" => {
            let supervised = layer == "engine.supervisor";
            let mut e = driver_engine(r.q);
            let (mut ns, mut saturated, mut high_water) = (0u128, 0u64, 0u64);
            for epoch in r.items.chunks(EPOCH) {
                let t0 = Instant::now();
                let report = if supervised {
                    let config = DriverConfig {
                        checkpoint_every: Some(CHECKPOINT_EVERY),
                        ..DriverConfig::default()
                    };
                    e.run_supervised(epoch.iter().copied(), config)
                } else {
                    e.run_threaded(epoch.iter().copied(), DriverConfig::default())
                };
                ns += t0.elapsed().as_nanos();
                saturated += u64::from(report.saturated(0));
                high_water = high_water.max(report.per_shard_ring_high_water[0]);
            }
            if supervised {
                m.insert("supervisor.ns_per_item", ns as f64 / n);
                m.insert("supervisor.saturated_runs", saturated as f64);
            } else {
                m.insert("driver.ns_per_item", ns as f64 / n);
                m.insert("driver.saturated_runs", saturated as f64);
                m.insert("driver.ring_high_water", high_water as f64);
            }
        }
        other => unreachable!("unknown layer {other}"),
    }
}

/// The per-layer report of one traced run.
pub fn per_layer(
    input: &Input,
    untraced_mips: f64,
    traced_mips: f64,
    tracer: &mut Tracer,
) -> Metrics {
    let (items, q) = (input.pass_items(0), input.workload.q());
    let mut psi_probe = backend(q);
    let mut psi = Vec::with_capacity(items.len() / BATCH + 1);
    let probe = Replay {
        items,
        points: &[],
        q,
        psi: Vec::new(),
        load_factor: 0.0,
    };
    feed(&mut psi_probe, &probe, false, |b, _| {
        psi.push(b.threshold())
    });
    let router = zipf_engine(q);
    let mut loads = [0u64; 4];
    for (id, _) in items {
        loads[router.shard_of(id)] += 1;
    }
    let mean = items.len() as f64 / loads.len() as f64;
    let r = Replay {
        psi,
        points: &input.query_points,
        load_factor: *loads.iter().max().expect("4 shards") as f64 / mean,
        ..probe
    };

    let mut rounds: Vec<Metrics> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (rid, rstart) = (tracer.id(), Instant::now());
        let mut m = Metrics::new();
        for k in 0..LAYERS.len() {
            let layer = LAYERS[(k + round) % LAYERS.len()];
            let t0 = Instant::now();
            replay(layer, &r, &mut m);
            tracer.leaf(layer, rid, t0, Instant::now());
        }
        tracer.close("replay_round", rid, 0, rstart, Instant::now());
        // Increments are paired within the round, so slow drift of the
        // host cancels.
        let backend_ns = m["backend.ns_per_item"];
        m.insert(
            "window.overhead_ns_per_item",
            m["window.ns_per_item"] - backend_ns,
        );
        m.insert(
            "driver.increment_ns_per_item",
            m["driver.ns_per_item"] - backend_ns,
        );
        m.insert(
            "supervisor.vs_driver",
            m["supervisor.ns_per_item"] / m["driver.ns_per_item"],
        );
        rounds.push(m);
    }
    let mut out: Metrics = rounds[0]
        .keys()
        .map(|&k| (k, median(&rounds.iter().map(|m| m[k]).collect::<Vec<_>>())))
        .collect();
    out.insert("trace_overhead", traced_mips / untraced_mips);
    let residual = budget_residual(input.workload, items.len() as f64, &out, tracer);
    out.insert("budget_residual_frac", residual);
    out
}

/// How far the self times of the layers on the workload's path (the
/// bottom layer plus each increment above it, and its query layer)
/// miss the traced pass's time inside engine calls. 0 means the layers
/// account for the end-to-end pass exactly; negative, they fall short.
fn budget_residual(w: Workload, items: f64, m: &Metrics, tracer: &Tracer) -> f64 {
    let path_self_ns: &[&str] = match w {
        Workload::ZipfS4 => &["sharded.ns_per_item"],
        Workload::RandomQ1e5 => &["backend.ns_per_item"],
        Workload::CaidaDriver => &["backend.ns_per_item", "driver.increment_ns_per_item"],
        Workload::CaidaWindow => &["backend.ns_per_item", "window.overhead_ns_per_item"],
    };
    let query_us = match w {
        Workload::ZipfS4 => m["sharded.merge_query_us"],
        Workload::RandomQ1e5 | Workload::CaidaDriver => m["backend.query_us"],
        Workload::CaidaWindow => m["window.query_us"],
    };
    let queries = tracer.spans.iter().filter(|s| s.name == "query").count() as f64;
    let layers_ns =
        path_self_ns.iter().map(|k| m[k]).sum::<f64>() * items + query_us * 1e3 * queries;
    // Engine time of the pass = the pass minus the harness around the
    // calls (the self time of the pass and epoch spans).
    let harness = tracer.self_ns("pass") + tracer.self_ns("epoch");
    let engine_ns = tracer.total_ns("pass").saturating_sub(harness) as f64;
    (layers_ns - engine_ns) / engine_ns
}
