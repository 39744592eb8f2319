//! In-tree shim for the `criterion` crate (the build environment is offline).
//!
//! Implements the subset the workspace benches use — [`Criterion`],
//! [`BenchmarkGroup`], [`Bencher::iter`], [`black_box`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros — as a straightforward
//! wall-clock harness. Beyond printing a summary table, every benchmark
//! group writes a machine-readable `BENCH_<group>.json` report so the perf
//! trajectory of the hot paths is tracked across PRs (see the root README's
//! "Benchmarks" section for the schema and knobs).
//!
//! Environment knobs:
//!
//! * `BENCH_JSON_DIR` — directory for `BENCH_<group>.json` (default: the
//!   workspace root if discoverable from `CARGO_MANIFEST_DIR`, else `.`).
//! * `BENCH_SAMPLE_MS` — target wall-clock budget per sample in milliseconds
//!   (default 50); long-running benchmarks always run at least one iteration
//!   per sample.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level handle collecting benchmark groups (criterion-compatible API).
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
            results: Vec::new(),
            finished: false,
        }
    }
}

/// Timing statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark id within the group.
    pub name: String,
    /// Mean time per iteration.
    pub mean_ns: f64,
    /// Sample standard deviation of the per-sample means.
    pub std_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

/// A named group of benchmarks; writes its JSON report on [`finish`].
///
/// [`finish`]: BenchmarkGroup::finish
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    results: Vec<BenchStats>,
    finished: bool,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark (min 3).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Runs one benchmark: a warmup call, an iteration-count calibration,
    /// then `sample_size` timed samples.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let budget = sample_budget();

        // Warmup + calibration: time a single iteration.
        let mut bencher = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        let once = bencher.elapsed.max(Duration::from_nanos(1));
        let iters_per_sample = (budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut sample_means_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut bencher = Bencher {
                iters: iters_per_sample,
                elapsed: Duration::ZERO,
            };
            f(&mut bencher);
            sample_means_ns.push(bencher.elapsed.as_nanos() as f64 / iters_per_sample as f64);
        }
        sample_means_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = sample_means_ns.len();
        let mean = sample_means_ns.iter().sum::<f64>() / n as f64;
        let var = sample_means_ns
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n.max(2) - 1) as f64;
        let stats = BenchStats {
            name: id,
            mean_ns: mean,
            std_ns: var.sqrt(),
            min_ns: sample_means_ns[0],
            median_ns: sample_means_ns[n / 2],
            samples: n,
            iters_per_sample,
        };
        println!(
            "{:<40} {:>14} /iter (± {:>12}, min {:>14}, {} samples × {} iters)",
            format!("{}/{}", self.name, stats.name),
            fmt_ns(stats.mean_ns),
            fmt_ns(stats.std_ns),
            fmt_ns(stats.min_ns),
            stats.samples,
            stats.iters_per_sample,
        );
        self.results.push(stats);
        self
    }

    /// Accumulated statistics for this group.
    pub fn results(&self) -> &[BenchStats] {
        &self.results
    }

    /// Writes `BENCH_<group>.json` and prints the output path.
    pub fn finish(&mut self) {
        self.finished = true;
        let dir = json_dir();
        let path = dir.join(format!("BENCH_{}.json", self.name));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, self.to_json())) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"group\": {},", json_str(&self.name));
        let _ = writeln!(out, "  \"unit\": \"ns_per_iter\",");
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 == self.results.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": {}, \"mean_ns\": {:.1}, \"std_ns\": {:.1}, \"min_ns\": {:.1}, \"median_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}{comma}",
                json_str(&r.name), r.mean_ns, r.std_ns, r.min_ns, r.median_ns, r.samples, r.iters_per_sample,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl Drop for BenchmarkGroup<'_> {
    fn drop(&mut self) {
        if !self.finished && !self.results.is_empty() {
            self.finish();
        }
    }
}

/// Per-benchmark timing handle passed to the closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` over this sample's iteration count.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn sample_budget() -> Duration {
    let ms = std::env::var("BENCH_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(50);
    Duration::from_millis(ms.max(1))
}

fn json_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("BENCH_JSON_DIR") {
        return dir.into();
    }
    // Benches run with cwd = the bench crate; prefer the workspace root two
    // levels up when it looks like this repository.
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    for candidate in [cwd.clone(), cwd.join(".."), cwd.join("../..")] {
        if candidate.join("Cargo.toml").exists() && candidate.join("crates").is_dir() {
            return candidate;
        }
    }
    cwd
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Collects benchmark functions into a single runner function, mirroring
/// criterion's macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `fn main` running the given groups, mirroring criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_produces_stats() {
        std::env::set_var("BENCH_SAMPLE_MS", "1");
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_selftest");
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let stats = &group.results()[0];
        assert_eq!(stats.name, "sum");
        assert!(stats.mean_ns > 0.0);
        assert!(stats.samples >= 3);
        // Avoid writing a JSON report from the unit test.
        group.finished = true;
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
