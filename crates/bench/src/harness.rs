//! The in-tree benchmark harness — the zero-dependency replacement for
//! Criterion in this workspace.
//!
//! A bench binary builds a [`Suite`], registers benchmarks with
//! [`Suite::bench`], and calls [`Suite::finish`], which writes the
//! machine-readable `BENCH_<suite>.json` at the workspace root — the
//! committed record of the rows `perfbench` cannot see.
//!
//! Methodology per benchmark:
//!
//! 1. **Warmup** — the closure runs until a time budget elapses, letting
//!    caches, branch predictors, and the allocator settle, and yielding a
//!    per-iteration estimate.
//! 2. **Sampling** — the closure runs 15 batches of
//!    `iters_per_sample` iterations (sized so one batch takes tens of
//!    milliseconds); each batch yields one mean-nanoseconds-per-iteration
//!    observation.
//! 3. **Statistics** — the observations are summarised as median, p95,
//!    minimum, and mean. Median and p95 are what the report is read
//!    for: the median is robust to scheduler noise, the p95 bounds it.
//!
//! Return values are routed through [`std::hint::black_box`] so the
//! optimizer cannot delete the measured work.
//!
//! CLI flags (after `cargo bench --bench <suite> --`):
//!
//! * `--quick` — 1 sample × 1 iteration, no warmup: a smoke test that
//!   every benchmark still runs, in seconds instead of minutes. It
//!   writes no report: one-sample numbers must never reach the
//!   committed file.
//! * `--filter SUBSTR` (or a bare positional) — only run benchmarks whose
//!   name contains `SUBSTR`; a partial pass writes no report either.

use manet_sim_engine::json_escape;
use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Target wall-clock time for one warmup phase.
const WARMUP_BUDGET: Duration = Duration::from_millis(150);
/// Target wall-clock time for one sample batch.
const SAMPLE_BUDGET: Duration = Duration::from_millis(40);
/// Sample batches per benchmark.
const SAMPLES: usize = 15;

/// The summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark name (unique within the suite).
    pub name: String,
    /// Iterations per sample batch.
    pub iters_per_sample: u64,
    /// Number of sample batches.
    pub samples: usize,
    /// Median of the per-sample means.
    pub median_ns: f64,
    /// 95th percentile of the per-sample means.
    pub p95_ns: f64,
    /// Fastest per-sample mean.
    pub min_ns: f64,
    /// Mean of the per-sample means.
    pub mean_ns: f64,
}

/// A named collection of benchmarks sharing CLI configuration and one
/// JSON report.
#[derive(Debug)]
pub struct Suite {
    name: String,
    quick: bool,
    filter: Option<String>,
    records: Vec<BenchRecord>,
}

impl Suite {
    /// Creates a suite configured from the process's command-line
    /// arguments (see the module docs for the flags).
    ///
    /// # Panics
    ///
    /// Panics on unknown options or missing flag values.
    pub fn from_args(name: &str) -> Suite {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Suite::parse(name, &args)
    }

    fn parse(name: &str, args: &[String]) -> Suite {
        let mut suite = Suite {
            name: name.to_string(),
            quick: false,
            filter: None,
            records: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => suite.quick = true,
                "--filter" => {
                    let value = iter.next().expect("--filter needs a value");
                    suite.filter = Some(value.clone());
                }
                // Cargo passes `--bench` to harness-less bench targets.
                "--bench" | "--test" => {}
                other if other.starts_with('-') => panic!("unknown option '{other}'"),
                positional => suite.filter = Some(positional.to_string()),
            }
        }
        suite
    }

    /// Runs one benchmark and records its statistics.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let (samples, iters) = if self.quick {
            (1, 1)
        } else {
            // Warmup until the budget elapses; the measured mean sizes
            // the sample batches.
            let mut spent = Duration::ZERO;
            let mut warm_iters: u32 = 0;
            while spent < WARMUP_BUDGET {
                let started = Instant::now();
                black_box(f());
                spent += started.elapsed();
                warm_iters += 1;
            }
            let per_iter = spent / warm_iters;
            let iters =
                (SAMPLE_BUDGET.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64;
            (SAMPLES, iters)
        };

        let mut sample_means_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            sample_means_ns.push(started.elapsed().as_nanos() as f64 / iters as f64);
        }

        let record = summarize(name, iters, &mut sample_means_ns);
        println!(
            "{}/{:<42} median {:>12}  p95 {:>12}  ({} samples x {} iters)",
            self.name,
            record.name,
            format_ns(record.median_ns),
            format_ns(record.p95_ns),
            record.samples,
            record.iters_per_sample,
        );
        self.records.push(record);
    }

    /// Where a full pass writes its report: `BENCH_<suite>.json` at the
    /// workspace root.
    fn report_path(&self) -> PathBuf {
        workspace_root().join(format!("BENCH_{}.json", self.name))
    }

    /// Writes `BENCH_<suite>.json` and prints its location; a `--quick`
    /// or filtered pass writes nothing, so only a full run of every row
    /// can replace the committed report.
    ///
    /// # Panics
    ///
    /// Panics if the JSON report cannot be written.
    pub fn finish(self) {
        if self.quick || self.filter.is_some() {
            println!("[bench] quick or filtered pass: no report written");
            return;
        }
        let path = &self.report_path();
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", json_escape(&self.name)));
        out.push_str("  \"quick\": false,\n");
        out.push_str("  \"benches\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters_per_sample\": {}, \"samples\": {}, \
                 \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"min_ns\": {:.1}, \
                 \"mean_ns\": {:.1}}}{comma}\n",
                json_escape(&r.name),
                r.iters_per_sample,
                r.samples,
                r.median_ns,
                r.p95_ns,
                r.min_ns,
                r.mean_ns,
            ));
        }
        out.push_str("  ]\n}\n");
        let mut file = std::fs::File::create(path)
            .unwrap_or_else(|err| panic!("cannot create {}: {err}", path.display()));
        file.write_all(out.as_bytes())
            .unwrap_or_else(|err| panic!("cannot write {}: {err}", path.display()));
        println!("[bench] wrote {}", path.display());
    }
}

/// Cargo runs bench binaries with the *package* directory as CWD; the
/// report belongs at the workspace root so a re-recording overwrites
/// one well-known file. Walk up to the `[workspace]` manifest,
/// falling back to the CWD when run outside the repo.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for dir in cwd.ancestors() {
        if let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) {
            if manifest.contains("[workspace]") {
                return dir.to_path_buf();
            }
        }
    }
    cwd
}

fn summarize(name: &str, iters: u64, sample_means_ns: &mut [f64]) -> BenchRecord {
    sample_means_ns.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
    let n = sample_means_ns.len();
    let median = if n % 2 == 1 {
        sample_means_ns[n / 2]
    } else {
        (sample_means_ns[n / 2 - 1] + sample_means_ns[n / 2]) / 2.0
    };
    let p95 = sample_means_ns[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];
    BenchRecord {
        name: name.to_string(),
        iters_per_sample: iters,
        samples: n,
        median_ns: median,
        p95_ns: p95,
        min_ns: sample_means_ns[0],
        mean_ns: sample_means_ns.iter().sum::<f64>() / n as f64,
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics_are_order_free() {
        let mut samples = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let r = summarize("x", 7, &mut samples);
        assert_eq!(r.median_ns, 3.0);
        assert_eq!(r.min_ns, 1.0);
        assert_eq!(r.p95_ns, 5.0);
        assert_eq!(r.mean_ns, 3.0);
        assert_eq!(r.iters_per_sample, 7);
    }

    #[test]
    fn even_sample_counts_interpolate_the_median() {
        let mut samples = vec![1.0, 2.0, 3.0, 4.0];
        let r = summarize("x", 1, &mut samples);
        assert_eq!(r.median_ns, 2.5);
    }

    #[test]
    fn a_quick_pass_leaves_the_report_path_untouched() {
        let args = ["--quick".to_string()];
        let mut suite = Suite::parse("harness_quick_selftest", &args);
        suite.bench("noop", || 1 + 1);
        assert_eq!(suite.records.len(), 1, "the benchmark itself still runs");
        let path = suite.report_path();
        suite.finish();
        assert!(!path.exists(), "{} was written", path.display());
    }

    #[test]
    fn nanosecond_formatting_picks_units() {
        assert_eq!(format_ns(12.0), "12 ns");
        assert_eq!(format_ns(1_500.0), "1.500 us");
        assert_eq!(format_ns(2_500_000.0), "2.500 ms");
        assert_eq!(format_ns(3_200_000_000.0), "3.200 s");
    }
}
