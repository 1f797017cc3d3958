//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! The `figures` binary (`cargo run -p qmax-bench --release --bin
//! figures -- <id>`) uses these helpers to time streams through the
//! competing reservoir structures and print the series each figure
//! plots.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod scale;

use qmax_core::{
    AmortizedQMax, DeamortizedQMax, HeapQMax, QMax, SkipListQMax, SoaAmortizedQMax,
    SoaDeamortizedQMax, SortedVecQMax,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The reservoir structures compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Amortized q-MAX (the paper's evaluated variant) with slack γ.
    QMax {
        /// Space-slack parameter γ.
        gamma: f64,
    },
    /// De-amortized q-MAX (worst-case constant time) with slack γ.
    QMaxDeamortized {
        /// Space-slack parameter γ.
        gamma: f64,
    },
    /// Structure-of-arrays amortized q-MAX (split lanes, branchless
    /// batch admission) with slack γ.
    QMaxSoa {
        /// Space-slack parameter γ.
        gamma: f64,
    },
    /// Structure-of-arrays de-amortized q-MAX with slack γ.
    QMaxSoaDeamortized {
        /// Space-slack parameter γ.
        gamma: f64,
    },
    /// Binary min-heap baseline.
    Heap,
    /// Skip-list baseline.
    SkipList,
    /// Sorted-array baseline.
    SortedVec,
}

impl Backend {
    /// Short label used in output rows.
    pub fn label(&self) -> String {
        match self {
            Backend::QMax { gamma } => format!("qmax(g={gamma})"),
            Backend::QMaxDeamortized { gamma } => format!("qmax-wc(g={gamma})"),
            Backend::QMaxSoa { gamma } => format!("qmax-soa(g={gamma})"),
            Backend::QMaxSoaDeamortized { gamma } => format!("qmax-soa-wc(g={gamma})"),
            Backend::Heap => "heap".into(),
            Backend::SkipList => "skiplist".into(),
            Backend::SortedVec => "sortedvec".into(),
        }
    }

    /// Builds the backend as a boxed [`QMax`] over `(u32, u64)` items.
    pub fn build_u64(&self, q: usize) -> Box<dyn QMax<u32, u64>> {
        match *self {
            Backend::QMax { gamma } => Box::new(AmortizedQMax::new(q, gamma)),
            Backend::QMaxDeamortized { gamma } => Box::new(DeamortizedQMax::new(q, gamma)),
            Backend::QMaxSoa { gamma } => Box::new(SoaAmortizedQMax::new(q, gamma)),
            Backend::QMaxSoaDeamortized { gamma } => Box::new(SoaDeamortizedQMax::new(q, gamma)),
            Backend::Heap => Box::new(HeapQMax::new(q)),
            Backend::SkipList => Box::new(SkipListQMax::new(q)),
            Backend::SortedVec => Box::new(SortedVecQMax::new(q)),
        }
    }
}

/// Feeds `stream` into `qm` and returns the throughput in millions of
/// updates per second.
pub fn time_stream(qm: &mut dyn QMax<u32, u64>, stream: &[u64]) -> f64 {
    let start = Instant::now();
    for (i, &v) in stream.iter().enumerate() {
        qm.insert(i as u32, v);
    }
    mpps(stream.len(), start.elapsed())
}

/// Converts an item count and duration to millions of items per second.
pub fn mpps(items: usize, elapsed: std::time::Duration) -> f64 {
    items as f64 / elapsed.as_secs_f64() / 1e6
}

/// A figure/table emitter: prints aligned rows to stdout and mirrors
/// them as CSV under `results/<id>.csv`.
pub struct Report {
    csv: Option<std::fs::File>,
    columns: Vec<String>,
}

/// Where the harness writes its CSV and JSON mirrors: `$QMAX_RESULTS_DIR`
/// when set, else `default` (relative to the working directory).
fn results_dir(default: &str) -> PathBuf {
    std::env::var_os("QMAX_RESULTS_DIR").map_or_else(|| default.into(), PathBuf::from)
}

impl Report {
    /// Opens a report for experiment `id` with the given column names.
    /// CSVs go under `results/` in the working directory, or under
    /// `$QMAX_RESULTS_DIR` when set.
    pub fn new(id: &str, columns: &[&str]) -> Self {
        Self::in_dir(&results_dir("results"), id, columns)
    }

    /// [`Report::new`] mirroring its CSV under `dir`.
    fn in_dir(dir: &Path, id: &str, columns: &[&str]) -> Self {
        let csv = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(dir.join(format!("{id}.csv"))))
            .ok();
        let mut r = Report {
            csv,
            columns: columns.iter().map(|s| s.to_string()).collect(),
        };
        let header: Vec<String> = r.columns.clone();
        r.emit_row(&header);
        r
    }

    /// Emits one row (must match the column count).
    pub fn row(&mut self, values: &[String]) {
        assert_eq!(values.len(), self.columns.len(), "column mismatch");
        self.emit_row(values);
    }

    fn emit_row(&mut self, values: &[String]) {
        let line: Vec<String> = values.iter().map(|v| format!("{v:>14}")).collect();
        println!("{}", line.join(" "));
        if let Some(f) = &mut self.csv {
            let _ = writeln!(f, "{}", values.join(","));
        }
    }
}

/// Writes an experiment's `BENCH_<name>.json` mirror under
/// `$QMAX_RESULTS_DIR` when set, else in the working directory, so a
/// scaled run pointed elsewhere leaves the committed full-scale files
/// alone. Reports the outcome on stderr.
pub fn write_bench_json(name: &str, json: &str) {
    write_bench_json_in(&results_dir("."), name, json);
}

/// [`write_bench_json`] writing under `dir`.
fn write_bench_json_in(dir: &Path, name: &str, json: &str) {
    // A failure here surfaces as the write's error below.
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("[{name}] wrote {}", path.display()),
        Err(e) => eprintln!("[{name}] could not write {}: {e}", path.display()),
    }
}

/// Formats a float with three significant decimals for report rows.
pub fn fmt(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_build_and_agree() {
        let stream: Vec<u64> = (0..5000u64)
            .map(|x| x.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut results: Vec<Vec<u64>> = Vec::new();
        for b in [
            Backend::QMax { gamma: 0.5 },
            Backend::QMaxDeamortized { gamma: 0.5 },
            Backend::QMaxSoa { gamma: 0.5 },
            Backend::QMaxSoaDeamortized { gamma: 0.5 },
            Backend::Heap,
            Backend::SkipList,
            Backend::SortedVec,
        ] {
            let mut qm = b.build_u64(64);
            let t = time_stream(qm.as_mut(), &stream);
            assert!(t > 0.0);
            let mut vals: Vec<u64> = qm.query().into_iter().map(|(_, v)| v).collect();
            vals.sort_unstable();
            results.push(vals);
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(123.456), "123.5");
        assert_eq!(fmt(1.23456), "1.235");
    }

    #[test]
    fn scale_defaults_and_full_mode() {
        use crate::scale::Scale;
        let s = Scale::default();
        assert_eq!(s.stream(1000), 1000);
        assert!(!s.qs().contains(&10_000_000));
        let full = Scale {
            factor: 2.0,
            full: true,
        };
        assert_eq!(full.stream(1000), 2000);
        assert!(full.qs().contains(&10_000_000));
        // Tiny factors are floored so experiments never degenerate.
        let tiny = Scale {
            factor: 1e-9,
            full: false,
        };
        assert_eq!(tiny.stream(10_000_000), 1000);
    }

    #[test]
    fn report_writes_csv() {
        let dir = std::env::temp_dir().join("qmax_report_test");
        {
            let mut r = Report::in_dir(&dir, "unit_test", &["a", "b"]);
            r.row(&["1".into(), "2".into()]);
        }
        write_bench_json_in(&dir, "unit_test", "{}\n");
        let content = std::fs::read_to_string(dir.join("unit_test.csv")).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        let json = std::fs::read_to_string(dir.join("BENCH_unit_test.json")).unwrap();
        assert_eq!(json, "{}\n");
        assert!(!Path::new("BENCH_unit_test.json").exists());
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn report_row_width_is_checked() {
        let dir = std::env::temp_dir().join("qmax_report_width_test");
        let mut r = Report::in_dir(&dir, "unit_test_width", &["a", "b"]);
        r.row(&["only-one".into()]);
    }
}
