//! The four workloads: the stream each one generates from the seed, the
//! engine it drives, its answer references, and one measured pass.

use crate::check::{self, Checker, Fingerprint, WindowRef};
use crate::trace::Tracer;
use qmax_core::{AdaptiveBackend, AdaptiveBasicSlackQMax, BatchInsert, QMax};
use qmax_engine::{DriverConfig, ShardedQMax};
use qmax_traces::{gen, hash, zipf::ZipfSampler};
use std::time::{Duration, Instant};

/// Items per pass; every pass feeds a fresh engine.
pub const PASS_ITEMS: usize = 4_000_000;
/// Distance between the starts of consecutive pass windows (see
/// [`Workload::windows`]).
const SHIFT: usize = 1 << 16;
/// Items per `insert_batch` call, and per timed producer pull.
pub const BATCH: usize = 1024;
/// Items per `run_threaded` call of the driver workload.
pub const EPOCH: usize = 1 << 20;
/// Space slack of every reservoir.
pub const GAMMA: f64 = 0.25;
/// Window length of the windowed workload.
pub const WINDOW: usize = 1 << 20;
/// Window slack fraction of the windowed workload.
pub const TAU: f64 = 0.1;

/// One benchmark workload. Why each exists is in the README; in short,
/// each one puts the time in a different layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf flows into 4 de-amortized shards fed in the calling thread:
    /// routing, the Ψ pre-filter and per-shard runs.
    ZipfS4,
    /// The paper's uniform random stream into one adaptive backend:
    /// admit kernel, selection and compaction pauses.
    RandomQ1e5,
    /// CAIDA-like packets through the threaded driver (producer + one
    /// worker): batching, ring hand-off and thread start-up.
    CaidaDriver,
    /// CAIDA-like flows with random priorities into a slack window,
    /// queried often: no pre-filter, block recycling, merge on query.
    CaidaWindow,
}

/// A stream item: (id, value).
pub type Item = (u64, u64);

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ZipfS4,
        Workload::RandomQ1e5,
        Workload::CaidaDriver,
        Workload::CaidaWindow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfS4 => "zipf-s4",
            Workload::RandomQ1e5 => "random-q1e5",
            Workload::CaidaDriver => "caida-driver",
            Workload::CaidaWindow => "caida-window",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Reservoir size.
    pub fn q(self) -> usize {
        match self {
            Workload::ZipfS4 | Workload::CaidaDriver => 10_000,
            Workload::RandomQ1e5 => 100_000,
            Workload::CaidaWindow => 1_000,
        }
    }

    /// Passes every run makes: a fixed count, so parent and change do
    /// identical work.
    pub fn passes(self) -> usize {
        match self {
            Workload::ZipfS4 => 100,
            Workload::RandomQ1e5 => 300,
            Workload::CaidaDriver => 300,
            Workload::CaidaWindow => 200,
        }
    }

    /// How many different `PASS_ITEMS` windows of the seeded stream the
    /// passes cycle through, each starting [`SHIFT`] items after the
    /// last. A compaction's cost depends on where its sampled pivot
    /// lands, and a query's on where the reservoir is in its compaction
    /// cycle. Both are fixed by the exact stream, so a run replaying one
    /// stream would measure one seed's luck; sixteen alignments average
    /// it out. The window workload keeps one: its references cost a
    /// suffix scan per query point, and its timings do not depend on the
    /// seed.
    pub fn windows(self) -> usize {
        match self {
            Workload::CaidaWindow => 1,
            _ => 16,
        }
    }

    /// Item counts after which a pass queries: after each driver call
    /// (one per [`EPOCH`], the last one short), every 2²⁰ items in the
    /// other prefix workloads and every 2¹⁶ items in the window.
    pub fn query_points(self) -> Vec<usize> {
        let every = match self {
            Workload::ZipfS4 | Workload::RandomQ1e5 => 1 << 20,
            Workload::CaidaWindow => 1 << 16,
            Workload::CaidaDriver => {
                return (EPOCH..PASS_ITEMS + EPOCH)
                    .step_by(EPOCH)
                    .map(|t| t.min(PASS_ITEMS))
                    .collect()
            }
        };
        (every..=PASS_ITEMS).step_by(every).collect()
    }

    /// The seeded stream every pass window is cut from, a pure function
    /// of `seed`. The engine sees only these items.
    pub fn stream(self, seed: u64) -> Vec<Item> {
        let len = PASS_ITEMS + (self.windows() - 1) * SHIFT;
        let values = || gen::random_u64_stream(len, hash::mix64(seed ^ 0x7661_6c75_6573));
        let mut items = Vec::with_capacity(len);
        match self {
            Workload::ZipfS4 => {
                let mut flows = ZipfSampler::new(1_000_000, 1.0, seed);
                items.extend(values().map(|v| (u64::from(flows.sample()), v)));
            }
            Workload::RandomQ1e5 => items.extend((0u64..).zip(values())),
            Workload::CaidaDriver => items
                .extend(gen::caida_like(len, seed).map(|p| (p.flow().as_u64(), u64::from(p.len)))),
            Workload::CaidaWindow => items.extend(
                gen::caida_like(len, seed)
                    .zip(values())
                    .map(|(p, v)| (p.flow().as_u64(), v)),
            ),
        }
        items
    }

    /// Times one construction of the workload's engine (not its drop)
    /// and names the reservoir layout it picked.
    pub fn construct(self) -> (Duration, &'static str) {
        fn timed<E>(
            build: impl FnOnce() -> E,
            label: impl Fn(&E) -> &'static str,
        ) -> (Duration, &'static str) {
            let t0 = Instant::now();
            let engine = std::hint::black_box(build());
            (t0.elapsed(), label(&engine))
        }
        let q = self.q();
        match self {
            Workload::ZipfS4 => timed(|| zipf_engine(q), |e| e.shard_backend_labels()[0]),
            Workload::RandomQ1e5 => timed(|| backend(q), |e| e.backend_label()),
            Workload::CaidaDriver => timed(|| driver_engine(q), |e| e.shard_backend_labels()[0]),
            Workload::CaidaWindow => timed(|| window_engine(q), |e| e.shard_backend_labels()[0]),
        }
    }
}

/// 4 hash-partitioned de-amortized shards (the engine's default).
pub fn zipf_engine(q: usize) -> ShardedQMax<u64, u64> {
    ShardedQMax::new(q, GAMMA, 4)
}

/// One layout-adaptive interval backend.
pub fn backend(q: usize) -> AdaptiveBackend<u64, u64> {
    AdaptiveBackend::new(q, GAMMA)
}

/// One adaptive shard behind the threaded driver.
pub fn driver_engine(q: usize) -> ShardedQMax<u64, u64, AdaptiveBackend<u64, u64>> {
    ShardedQMax::with_backends(q, 1, move |_| AdaptiveBackend::new(q, GAMMA))
}

/// One slack-window shard; S = 1 keeps the window exact in global
/// arrivals, so the slack check below is exact too.
pub fn window_engine(q: usize) -> ShardedQMax<u64, u64, AdaptiveBasicSlackQMax<u64, u64>> {
    ShardedQMax::new_windowed(q, GAMMA, 1, WINDOW, TAU)
}

/// What a correct answer at each query point is.
enum Refs {
    /// Fingerprint of the exact top-`q` values of the prefix.
    Prefix(Vec<Fingerprint>),
    /// Top-`q` of some admissible window suffix.
    Window(Vec<WindowRef>),
}

/// A run's input: the stream, its query points and, for every pass
/// window, their references.
pub struct Input {
    pub workload: Workload,
    stream: Vec<Item>,
    pub query_points: Vec<usize>,
    /// One entry per pass window.
    refs: Vec<Refs>,
}

impl Input {
    /// Generates the stream for `seed` and computes every reference.
    pub fn new(workload: Workload, seed: u64) -> Input {
        let stream = workload.stream(seed);
        let query_points = workload.query_points();
        let q = workload.q();
        let refs = (0..workload.windows())
            .map(|w| {
                let items = &stream[w * SHIFT..w * SHIFT + PASS_ITEMS];
                match workload {
                    Workload::CaidaWindow => {
                        // The window answers for a suffix of between
                        // `effective − block` and `effective` items.
                        let probe = window_engine(q);
                        let shard = &probe.shards()[0];
                        let (eff, block) = (shard.effective_window(), shard.block_size());
                        Refs::Window(check::window_references(
                            items,
                            q,
                            &query_points,
                            (eff - block, eff),
                        ))
                    }
                    _ => Refs::Prefix(check::prefix_references(items, q, &query_points)),
                }
            })
            .collect();
        Input {
            workload,
            stream,
            query_points,
            refs,
        }
    }

    /// The items of pass `pass`: the passes cycle through the windows.
    pub fn pass_items(&self, pass: usize) -> &[Item] {
        let start = pass % self.refs.len() * SHIFT;
        &self.stream[start..start + PASS_ITEMS]
    }

    /// Whether `answer` is correct at query point `k` of pass `pass`.
    fn answer_ok(&self, checker: &mut Checker, pass: usize, k: usize, answer: &[Item]) -> bool {
        match &self.refs[pass % self.refs.len()] {
            Refs::Prefix(r) => r.get(k).is_some_and(|e| check::prefix_matches(e, answer)),
            Refs::Window(r) => r.get(k).is_some_and(|e| checker.window_matches(e, answer)),
        }
    }
}

/// One pass's throughput.
pub struct Pass {
    /// Items ÷ wall time of the pass's ingest calls, Mitems/s.
    pub mips: f64,
    /// Whether a clock ran inside the producer's per-item loop (a
    /// driver latency pass), which makes `mips` no throughput sample.
    pub clocked: bool,
}

/// Everything the passes of a run measured. The sample vectors are
/// allocated and touched before timing starts, so recording never
/// grows the process while its peak memory is being measured.
pub struct Log {
    /// Per-batch acceptance times (full batches only), nanoseconds.
    pub batch_ns: Vec<u32>,
    /// Per-query latencies, nanoseconds.
    pub query_ns: Vec<u32>,
    pub passes: Vec<Pass>,
    /// Items ingested.
    pub items: u64,
    /// Answer and conservation checks run.
    pub checks: u64,
    /// Checks that failed.
    pub failed_checks: u64,
    /// Items the driver dropped or quarantined.
    pub lost: u64,
}

impl Log {
    pub fn new(input: &Input, max_passes: usize) -> Log {
        // Filled with a non-zero value so every page is really written:
        // a zeroed allocation may stay unmapped until first use.
        let touched = |n: usize| {
            let mut v = vec![1u32; n];
            v.clear();
            v
        };
        Log {
            batch_ns: touched(max_passes * (PASS_ITEMS / BATCH)),
            query_ns: touched(max_passes * input.query_points.len()),
            passes: Vec::with_capacity(max_passes),
            items: 0,
            checks: 0,
            failed_checks: 0,
            lost: 0,
        }
    }
}

/// Saturating nanoseconds of a duration, as a compact sample.
pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Runs one pass on a fresh engine, recording into `log` (and into
/// `tracer` when it is on). Driver passes alternate, one cycle through
/// the pass windows at a time, between throughput and latency passes,
/// so both kinds see every window; a traced driver pass is a latency
/// pass.
pub fn run_pass(input: &Input, log: &mut Log, checker: &mut Checker, tracer: &mut Tracer) {
    let q = input.workload.q();
    let pass = log.passes.len();
    let cycle = pass / input.workload.windows();
    let clocked = input.workload == Workload::CaidaDriver && (cycle % 2 == 1 || tracer.is_on());
    let ingest_ns = match input.workload {
        Workload::ZipfS4 => in_thread(zipf_engine(q), pass, input, log, checker, tracer),
        Workload::RandomQ1e5 => in_thread(backend(q), pass, input, log, checker, tracer),
        Workload::CaidaDriver => driver_pass(pass, input, log, checker, tracer, clocked),
        Workload::CaidaWindow => in_thread(window_engine(q), pass, input, log, checker, tracer),
    };
    log.items += PASS_ITEMS as u64;
    log.passes.push(Pass {
        mips: PASS_ITEMS as f64 / ingest_ns.max(1) as f64 * 1e3,
        clocked,
    });
}

/// Queries, times and checks the answer at query point `k` of `pass`.
#[allow(clippy::too_many_arguments)]
fn query_and_check<E: QMax<u64, u64>>(
    engine: &mut E,
    pass: usize,
    k: usize,
    input: &Input,
    log: &mut Log,
    checker: &mut Checker,
    tracer: &mut Tracer,
    parent: u64,
) {
    let t0 = Instant::now();
    let answer = engine.query();
    let t1 = Instant::now();
    log.query_ns.push(ns32(t1 - t0));
    tracer.leaf("query", parent, t0, t1);
    log.checks += 1;
    if !input.answer_ok(checker, pass, k, &answer) {
        log.failed_checks += 1;
    }
}

/// Pass `index`: `insert_batch` calls in the calling thread, each
/// timed, with a query at each query point.
fn in_thread<E: BatchInsert<u64, u64>>(
    mut engine: E,
    index: usize,
    input: &Input,
    log: &mut Log,
    checker: &mut Checker,
    tracer: &mut Tracer,
) -> u64 {
    let (pass, pass_start) = (tracer.id(), Instant::now());
    let (mut epoch, mut epoch_start) = (tracer.id(), pass_start);
    let mut ingest_ns = 0u64;
    let mut done = 0usize;
    let mut next_query = 0usize;
    for chunk in input.pass_items(index).chunks(BATCH) {
        let t0 = Instant::now();
        engine.insert_batch(chunk);
        let t1 = Instant::now();
        ingest_ns += (t1 - t0).as_nanos() as u64;
        if chunk.len() == BATCH {
            log.batch_ns.push(ns32(t1 - t0));
        }
        tracer.leaf("insert_batch", epoch, t0, t1);
        done += chunk.len();
        if input.query_points.get(next_query) == Some(&done) {
            query_and_check(
                &mut engine,
                index,
                next_query,
                input,
                log,
                checker,
                tracer,
                epoch,
            );
            next_query += 1;
            let now = Instant::now();
            tracer.close("epoch", epoch, pass, epoch_start, now);
            (epoch, epoch_start) = (tracer.id(), now);
        }
    }
    let end = Instant::now();
    if done > *input.query_points.last().unwrap_or(&0) {
        tracer.close("epoch", epoch, pass, epoch_start, end);
    }
    tracer.close("pass", pass, 0, pass_start, end);
    ingest_ns
}

/// The stream handed to `run_threaded` on latency passes, timing the
/// producer's pull of each `BATCH` items: route, buffer, push and any
/// ring back-pressure. The clock is read only when stepping to the next
/// batch, yet any wrapper around the slice iterator slows the producer's
/// tight per-item loop by a fifth to a third, so these passes are kept
/// out of `ingest_mips`.
struct TimedPull<'a> {
    batches: std::slice::Chunks<'a, Item>,
    current: std::slice::Iter<'a, Item>,
    /// When the current batch's first item was pulled, if it is full.
    started: Option<Instant>,
    samples: &'a mut Vec<u32>,
    tracer: &'a mut Tracer,
    parent: u64,
}

impl<'a> TimedPull<'a> {
    fn new(
        items: &'a [Item],
        samples: &'a mut Vec<u32>,
        tracer: &'a mut Tracer,
        parent: u64,
    ) -> Self {
        TimedPull {
            batches: items.chunks(BATCH),
            current: [].iter(),
            started: None,
            samples,
            tracer,
            parent,
        }
    }

    #[cold]
    #[inline(never)]
    fn next_batch(&mut self) -> Option<Item> {
        let now = Instant::now();
        if let Some(start) = self.started.take() {
            self.samples.push(ns32(now - start));
            self.tracer.leaf("batch", self.parent, start, now);
        }
        let batch = self.batches.next()?;
        self.started = (batch.len() == BATCH).then_some(now);
        self.current = batch.iter();
        self.current.next().copied()
    }
}

impl Iterator for TimedPull<'_> {
    type Item = Item;

    #[inline]
    fn next(&mut self) -> Option<Item> {
        match self.current.next() {
            Some(&item) => Some(item),
            None => self.next_batch(),
        }
    }
}

/// Pass `index`: one `run_threaded` call per epoch (producer = this
/// thread, one worker), each followed by a query and a conservation
/// check. The stream is either handed over as a plain slice iterator
/// (throughput passes) or wrapped to time each batch (latency passes,
/// `timed`).
fn driver_pass(
    index: usize,
    input: &Input,
    log: &mut Log,
    checker: &mut Checker,
    tracer: &mut Tracer,
    timed: bool,
) -> u64 {
    let mut engine = driver_engine(input.workload.q());
    let (pass, pass_start) = (tracer.id(), Instant::now());
    let mut ingest_ns = 0u64;
    for (k, epoch_items) in input.pass_items(index).chunks(EPOCH).enumerate() {
        let (epoch, epoch_start) = (tracer.id(), Instant::now());
        let call = tracer.id();
        let t0 = Instant::now();
        let report = if timed {
            let pull = TimedPull::new(epoch_items, &mut log.batch_ns, tracer, call);
            engine.run_threaded(pull, DriverConfig::default())
        } else {
            engine.run_threaded(epoch_items.iter().copied(), DriverConfig::default())
        };
        let t1 = Instant::now();
        ingest_ns += (t1 - t0).as_nanos() as u64;
        tracer.close("run_threaded", call, epoch, t0, t1);
        log.checks += 1;
        if !check::conserves(&report) {
            log.failed_checks += 1;
        }
        log.lost += report.dropped() + report.quarantined();
        query_and_check(&mut engine, index, k, input, log, checker, tracer, epoch);
        tracer.close("epoch", epoch, pass, epoch_start, Instant::now());
    }
    tracer.close("pass", pass, 0, pass_start, Instant::now());
    ingest_ns
}
