//! `qbench`: the q-MAX engine's one benchmark — end-to-end metrics and
//! a per-layer trace over four workloads. README.md next to this file
//! explains the workloads, metrics and bounds.
//!
//! ```text
//! qbench --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]]
//!        [--out <dir>] [--smoke] [--repeat <n>]
//! ```
//!
//! Every workload makes a fixed number of passes; `--seconds` only caps
//! how long they may take. The last line of standard output is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`;
//! the exit status is non-zero when any answer check failed.

mod check;
mod stats;
mod trace;
mod workload;

use check::Checker;
use stats::{highest_supported_percentile, median, percentile, quartiles};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workload::{run_pass, Input, Log, Workload, PASS_ITEMS};

const USAGE: &str = "usage: qbench --workload <zipf-s4|random-q1e5|caida-driver|caida-window|all> \
--seed <n> [--seconds <s>] [--trace [0|1]] [--out <dir>] [--smoke] [--repeat <n>]";

/// An end-to-end metric: what a user of the engine sees.
struct Metric {
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    bound: f64,
    /// A worsening no larger than this, in the metric's unit, never
    /// counts, whatever share of the median it is.
    floor: f64,
}

const fn metric(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
        floor: 0.0,
    }
}

const fn floored(name: &'static str, unit: &'static str, bound: f64, floor: f64) -> Metric {
    Metric {
        floor,
        ..metric(name, unit, false, bound)
    }
}

/// The end-to-end metrics that hold their bound on every workload.
/// `failed_frac` is the share of items dropped or quarantined plus
/// failed checks among items plus checks; its bound of 0 means every
/// run must read 0, and any failure already makes a run exit non-zero.
const E2E: [Metric; 3] = [
    floored("setup_s", "s", 0.10, 0.001),
    floored("peak_mem_mb", "MB", 0.10, 1.0),
    metric("failed_frac", "fraction", false, 0.0),
];

/// End-to-end metrics moved to the per-layer list: ten runs of the same
/// code spread wider than their 10% bound on a shared 2-vCPU host, and
/// more passes did not narrow them (README, "Moved to the per-layer
/// list"). They are still measured, printed and repeated; their
/// `--repeat` rows show the spread against 10% but do not gate.
const MOVED: [Metric; 4] = [
    metric("ingest_mips", "Mitems/s", true, 0.10),
    metric("batch_p50_us", "us", false, 0.10),
    metric("batch_p999_us", "us", false, 0.10),
    metric("query_p50_us", "us", false, 0.10),
];

/// The metrics on the untraced result line: the end-to-end metrics
/// whose bound `BENCHMARK.json` can state as a share of the median on
/// every workload. `peak_mem_mb`'s 1 MB floor is no such share (the
/// driver workload's 0.7–1.0 MB moves by a quarter between runs), and
/// `failed_frac` is the line's own `failed` ÷ `attempted`.
const UNTRACED: [&str; 1] = ["setup_s"];

/// Starts the line before the result: the same JSON object with every
/// measured metric, which `--repeat` reads.
const ALL_PREFIX: &str = "# all: ";

const SMOKE_PASSES: usize = 2;
/// Fresh processes whose first construction `setup_s` is the median of.
const SETUP_PROBES: usize = 21;
/// A run whose timed passes take longer than this many times
/// `--seconds` stops without a result: the host is too slow for its
/// numbers to mean anything, and the run must end in bounded time.
const OVERRUN: f64 = 4.0;

struct Opts {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    /// Safety cap on the timed passes (see [`OVERRUN`]); it never
    /// changes how many passes a run makes.
    seconds: Option<f64>,
    trace: bool,
    out: PathBuf,
    smoke: bool,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: PathBuf::from("target/qbench"),
        smoke: false,
        repeat: None,
    };
    let mut named = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                named = true;
                if v != "all" {
                    o.workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
                }
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                let v = it.next_if(|v| matches!(v.as_str(), "0" | "1"));
                o.trace = v.is_none_or(|v| v == "1");
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--smoke" => o.smoke = true,
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs per set".into());
                }
                o.repeat = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(o)
}

/// Arguments that rerun `o` as a child process on one workload, with
/// the trace on only if `trace`.
fn child_args(o: &Opts, w: Workload, seed: u64, trace: bool) -> Vec<String> {
    let mut a = vec![
        "--workload".into(),
        w.name().into(),
        "--seed".into(),
        seed.to_string(),
    ];
    if let Some(s) = o.seconds {
        a.extend(["--seconds".into(), s.to_string()]);
    }
    if trace {
        a.push("--trace".into());
    }
    if o.smoke {
        a.push("--smoke".into());
    }
    a.extend(["--out".into(), o.out.display().to_string()]);
    a
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, name] = &args[..] {
        if flag == "--setup-probe" {
            return setup_probe(name);
        }
    }
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every mode reruns this executable: as set-up probes or per-workload
    // child runs.
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("qbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    match (o.repeat, o.workload) {
        (Some(n), _) => repeat(&exe, &o, n),
        (None, Some(w)) => run_one(&exe, w, &o),
        (None, None) => run_all(&exe, &o),
    }
}

/// Child-process body of the set-up measurement: times the first
/// construction in a fresh process — kernel detection and backend-policy
/// calibration included — and prints it in seconds.
fn setup_probe(name: &str) -> ExitCode {
    let Some(w) = Workload::parse(name) else {
        eprintln!("qbench: unknown workload {name}");
        return ExitCode::from(2);
    };
    println!("{}", w.construct().0.as_secs_f64());
    ExitCode::SUCCESS
}

/// Median first-construction time over [`SETUP_PROBES`] fresh
/// processes: once-per-process work only shows in a new process.
fn setup_seconds(exe: &Path, w: Workload) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(exe)
            .args(["--setup-probe", w.name()])
            .output()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.trim().parse::<f64>() {
            Ok(t) if out.status.success() => times.push(t),
            _ => return Err(format!("set-up probe failed: {}", out.status)),
        }
    }
    Ok(median(&times))
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`).
fn status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("memory use is read from /proc/self/status (Linux only)");
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix(key)?
                .strip_prefix(':')?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("{key} missing from /proc/self/status"))
}

/// A value for the human-readable lines: four decimals, or four
/// significant digits when that would print zero.
fn show(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The last stdout line: the machine-readable result.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!(r#""{k}": {{"value": {v}, "unit": "{u}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// Whether a result line says every check passed.
fn result_correct(line: &str) -> bool {
    line.contains(r#""correct": true"#)
}

/// A whole-number field of a result line (`attempted`, `failed`).
fn result_count(line: &str, key: &str) -> Option<u64> {
    let after = &line[line.find(&format!(r#""{key}": "#))? + key.len() + 4..];
    after[..after.find(',')?].parse().ok()
}

/// The `(name, value)` pairs of a result line's metrics.
fn result_metrics(line: &str) -> Vec<(String, f64)> {
    const KEY: &str = r#"": {"value": "#;
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find(KEY) {
        let name = &rest[rest[..i].rfind('"').map_or(0, |j| j + 1)..i];
        let after = &rest[i + KEY.len()..];
        let end = after.find([',', '}']).unwrap_or(after.len());
        if let Ok(v) = after[..end].trim().parse() {
            out.push((name.to_string(), v));
        }
        rest = &after[end..];
    }
    out
}

/// Runs one workload in this process and prints its result.
fn run_one(exe: &Path, w: Workload, o: &Opts) -> ExitCode {
    // Build the engine once first, as a service does at start-up: the
    // once-per-process set-up (kernel detection, the backend policy's
    // timed calibration) then runs in a quiet process. Calibrating after
    // the stream was generated, or right after the set-up probes,
    // picked the slower layout in up to 4 of 10 processes on a 2-vCPU
    // host, which made every timing bimodal. `setup_s` measures that
    // set-up in fresh processes.
    let (_, layout) = w.construct();
    let setup_s = if o.smoke {
        None
    } else {
        match setup_seconds(exe, w) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("qbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let input = Input::new(w, o.seed);
    let passes = if o.smoke { SMOKE_PASSES } else { w.passes() };
    // One spare pass for the traced one.
    let mut log = Log::new(&input, passes + 1);
    let mut checker = Checker::new(w.q());
    let mut untraced = Tracer::off();

    // Everything the benchmark itself holds is resident from here on:
    // the stream, the references and the touched sample buffers.
    let rss_before = status_kb("VmRSS");
    let start = Instant::now();
    while log.passes.len() < passes {
        run_pass(&input, &mut log, &mut checker, &mut untraced);
        if let Some(s) = o.seconds {
            if start.elapsed().as_secs_f64() > OVERRUN * s {
                eprintln!(
                    "qbench: {} passes of {} took over {OVERRUN} x --seconds {s}; no result",
                    log.passes.len(),
                    w.name()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    let peak_mem_mb = status_kb("VmHWM").saturating_sub(rss_before) as f64 / 1024.0;

    // Driver latency passes read a clock inside the producer's loop, so
    // only the other passes are throughput samples.
    let throughput: Vec<f64> = log
        .passes
        .iter()
        .filter(|p| !p.clocked)
        .map(|p| p.mips)
        .collect();
    println!(
        "# qbench {} seed={} passes={} items/pass={PASS_ITEMS} timed={timed_s:.1}s",
        w.name(),
        o.seed,
        log.passes.len(),
    );
    let mut measured: Vec<(&str, f64, &str)> = Vec::new();
    if o.smoke {
        println!("# smoke run: {SMOKE_PASSES} passes, answer checks only; not a measurement");
    } else {
        let (q1, q3) = quartiles(&throughput);
        println!(
            "# pass throughput: q1 {} / q3 {} Mitems/s over {} passes",
            show(q1),
            show(q3),
            throughput.len()
        );
        let mut batch = log.batch_ns.clone();
        batch.sort_unstable();
        let queries: Vec<f64> = log.query_ns.iter().map(|&ns| f64::from(ns) / 1e3).collect();
        measured.push(("ingest_mips", median(&throughput), "Mitems/s"));
        measured.push((
            "batch_p50_us",
            f64::from(percentile(&batch, 5_000)) / 1e3,
            "us",
        ));
        if highest_supported_percentile(batch.len()) >= Some(9_990) {
            measured.push((
                "batch_p999_us",
                f64::from(percentile(&batch, 9_990)) / 1e3,
                "us",
            ));
        } else {
            println!(
                "{:<16} {:>14} (refused: {} batch samples, p99.9 needs 10000)",
                "batch_p999_us",
                "-",
                batch.len()
            );
        }
        measured.push(("query_p50_us", median(&queries), "us"));
        measured.push(("setup_s", setup_s.expect("set-up measured"), "s"));
        measured.push(("peak_mem_mb", peak_mem_mb, "MB"));
        for (name, value, unit) in &measured {
            println!("{name:<16} {:>14} {unit}", show(*value));
        }
        println!("{:<16} {:>14} count", "batch_samples", batch.len());
    }
    let mut all = measured.clone();
    let (untraced_line, traced_line): (Vec<_>, Vec<_>) = measured
        .into_iter()
        .partition(|(name, _, _)| UNTRACED.contains(name));

    let mut report = untraced_line;
    if o.trace {
        let typical_mips = median(&throughput);
        let mut tracer = Tracer::on();
        run_pass(&input, &mut log, &mut checker, &mut tracer);
        let traced_mips = log.passes.last().expect("the traced pass ran").mips;
        let layers = trace::per_layer(&input, typical_mips, traced_mips, &mut tracer);
        let path = o.out.join(format!("{}.spans.jsonl", w.name()));
        if let Err(e) = std::fs::create_dir_all(&o.out).and_then(|()| tracer.write_jsonl(&path)) {
            eprintln!("qbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# per-layer trace; spans in {}", path.display());
        report = traced_line
            .into_iter()
            .chain(
                trace::METRICS
                    .iter()
                    .map(|&(name, unit)| (name, layers[name], unit)),
            )
            .collect();
        for (name, value, unit) in &report {
            println!("{name:<34} {:>14} {unit}", show(*value));
        }
    }

    let attempted = log.items + log.checks;
    let failed = log.lost + log.failed_checks;
    println!(
        "{:<16} {:>14} fraction  ({failed} of {attempted} items + checks; {} of {} checks failed)",
        "failed_frac",
        failed as f64 / attempted as f64,
        log.failed_checks,
        log.checks
    );
    println!(
        "# host: nproc={} kernel={:?} QMAX_BACKEND_POLICY={} layout={layout}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        qmax_select::Kernel::<u64>::detect().kind(),
        std::env::var("QMAX_BACKEND_POLICY").unwrap_or_else(|_| "unset".into()),
    );
    if o.smoke {
        report.clear();
        all.clear();
    }
    println!(
        "{ALL_PREFIX}{}",
        result_json(failed == 0, attempted, failed, &all)
    );
    println!("{}", result_json(failed == 0, attempted, failed, &report));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh child process so set-up and
/// memory are measured per workload.
fn run_all(exe: &Path, o: &Opts) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(exe)
            .args(child_args(o, w, o.seed, o.trace))
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two sets of `n` sequential untraced child runs per workload (seeds
/// `seed .. seed + n` in each set): prints each metric's set medians,
/// interquartile spreads and drift. It fails an end-to-end metric whose
/// spread (except `setup_s`) or whose worsening from set A to set B
/// exceeds its bound, and `failed_frac` unless every run reads 0; the
/// moved metrics are shown against their old bound without gating. The
/// last line is a JSON baseline over all `2n` runs.
fn repeat(exe: &Path, o: &Opts, n: usize) -> ExitCode {
    let workloads = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    let mut baseline = Vec::new();
    for w in workloads {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for seed in o.seed..o.seed + n as u64 {
                let out = Command::new(exe)
                    .args(child_args(o, w, seed, false))
                    .output();
                let line = out
                    .as_ref()
                    .ok()
                    .and_then(|out| {
                        String::from_utf8_lossy(&out.stdout)
                            .lines()
                            .find_map(|l| l.strip_prefix(ALL_PREFIX).map(str::to_string))
                    })
                    .unwrap_or_default();
                if !(out.is_ok_and(|out| out.status.success()) && result_correct(&line)) {
                    eprintln!("qbench: {} seed {seed} failed", w.name());
                    ok = false;
                }
                let mut metrics = result_metrics(&line);
                if let (Some(failed), Some(attempted)) = (
                    result_count(&line, "failed"),
                    result_count(&line, "attempted"),
                ) {
                    metrics.push(("failed_frac".into(), failed as f64 / attempted as f64));
                }
                set.push(metrics);
            }
        }
        println!(
            "# {}: 2 sets x {n} runs, seeds {}..{}",
            w.name(),
            o.seed,
            o.seed + n as u64 - 1
        );
        println!(
            "{:<16} {:>9} {:>6} {:>9} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
            "metric", "unit", "bound", "floor", "median A", "median B", "IQR A", "IQR B", "worse"
        );
        let mut rows = Vec::new();
        for (m, gated) in E2E
            .iter()
            .map(|m| (m, true))
            .chain(MOVED.iter().map(|m| (m, false)))
        {
            let values = |set: &[Vec<(String, f64)>]| -> Vec<f64> {
                set.iter()
                    .filter_map(|run| run.iter().find(|(k, _)| k == m.name).map(|&(_, v)| v))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() < 2 || b.len() < 2 {
                println!("{:<16} missing from some runs", m.name);
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let iqr = |xs: &[f64]| {
                let (q1, q3) = quartiles(xs);
                q3 - q1
            };
            let (ia, ib) = (iqr(&a), iqr(&b));
            let worse = if m.higher_is_better { ma - mb } else { mb - ma };
            // What a change may add: the bound's share of the median, or
            // the floor when that is larger.
            let allowed = |med: f64| (m.bound * med).max(m.floor);
            let pass = if m.bound == 0.0 {
                a.iter().chain(&b).all(|&v| v == 0.0)
            } else {
                let spread_ok = m.name == "setup_s" || (ia <= allowed(ma) && ib <= allowed(mb));
                spread_ok && worse <= allowed(ma)
            };
            let verdict = match (gated, pass) {
                (true, true) => "pass",
                (true, false) => "FAIL",
                (false, true) => "moved (within)",
                (false, false) => "moved (outside)",
            };
            ok &= pass || !gated;
            // Shares of a zero median (failed_frac) read as 0.
            let pct = |x: f64, of: f64| if x == 0.0 { 0.0 } else { x / of * 100.0 };
            println!(
                "{:<16} {:>9} {:>5.0}% {:>9} {:>14} {:>14} {:>7.2}% {:>7.2}% {:>7.2}%  {verdict}",
                m.name,
                m.unit,
                m.bound * 100.0,
                if m.floor > 0.0 {
                    show(m.floor)
                } else {
                    "-".into()
                },
                show(ma),
                show(mb),
                pct(ia, ma),
                pct(ib, mb),
                pct(worse, ma),
            );
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let (q1, q3) = quartiles(&all);
            rows.push(format!(
                r#""{}": {{"unit": "{}", "median": {}, "q1": {q1}, "q3": {q3}}}"#,
                m.name,
                m.unit,
                median(&all)
            ));
        }
        baseline.push(format!(r#""{}": {{{}}}"#, w.name(), rows.join(", ")));
    }
    println!("{{{}}}", baseline.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = result_json(
            true,
            12,
            0,
            &[
                ("ingest_mips", 33.25, "Mitems/s"),
                ("setup_s", 0.000123, "s"),
            ],
        );
        assert!(result_correct(&line));
        assert_eq!(
            result_metrics(&line),
            vec![
                ("ingest_mips".to_string(), 33.25),
                ("setup_s".to_string(), 0.000123)
            ]
        );
        assert!(!result_correct(&result_json(false, 1, 1, &[])));
        assert_eq!(result_count(&line, "attempted"), Some(12));
        assert_eq!(result_count(&line, "failed"), Some(0));
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args("--workload zipf-s4 --trace 0 --seed 3")).unwrap();
        assert!(!o.trace);
        assert_eq!(o.seed, 3);
        let o = parse_args(&args("--workload all --trace --seed 3")).unwrap();
        assert!(o.trace && o.workload.is_none());
        let o = parse_args(&args("--trace 1 --workload caida-window")).unwrap();
        assert!(o.trace && o.workload == Some(Workload::CaidaWindow));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
