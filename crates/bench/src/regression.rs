//! Bench regression gate: compares freshly produced `BENCH_*.json` reports
//! against the committed baselines and flags mean-time regressions.
//!
//! The reports are written by the criterion shim (see the README's
//! "Benchmarks" section); the schema is a flat object with a `benchmarks`
//! array of `{"name": …, "mean_ns": …}` entries. Parsing is a minimal
//! hand-rolled scan of exactly that shape — the files are produced by this
//! workspace, not arbitrary JSON.
//!
//! The CI job runs every bench group into a scratch directory and then calls
//! the `bench_gate` binary, which fails the job when any benchmark name
//! present in **both** the baseline and the fresh report regressed by more
//! than the threshold (25 % by default). Benchmarks that exist on only one
//! side (added or retired) are ignored, so adding a bench never breaks the
//! gate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One benchmark's mean time, keyed by its name within the group.
pub type BenchMeans = BTreeMap<String, f64>;

/// A mean-time regression of one benchmark beyond the gate threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Report file name (e.g. `BENCH_layer_throughput.json`).
    pub file: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Committed baseline mean, in nanoseconds per iteration.
    pub baseline_ns: f64,
    /// Freshly measured mean, in nanoseconds per iteration.
    pub fresh_ns: f64,
}

impl Regression {
    /// Slowdown factor of the fresh measurement over the baseline.
    pub fn ratio(&self) -> f64 {
        self.fresh_ns / self.baseline_ns
    }
}

/// A benchmark whose recorded mean cannot anchor a regression ratio: zero,
/// negative, NaN or infinite. A committed baseline like this would make the
/// ratio `fresh / baseline` meaningless (divide-by-zero, NaN comparisons are
/// always false), silently disabling the gate for that benchmark — so the
/// gate reports it as a hard failure instead.
#[derive(Debug, Clone, PartialEq)]
pub struct DegenerateMean {
    /// Report file name.
    pub file: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Which side carries the degenerate value (`"baseline"` or `"fresh"`).
    pub side: &'static str,
    /// The offending mean.
    pub mean_ns: f64,
}

/// Per-report comparison coverage: how many benchmark names landed on both
/// sides versus only one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompareCounts {
    /// Names present in both baseline and fresh (actually gated).
    pub compared: usize,
    /// Baseline-only names (retired benchmarks, skipped).
    pub skipped: usize,
    /// Fresh-only names (newly added benchmarks, nothing to gate against).
    pub new: usize,
}

impl CompareCounts {
    fn add(&mut self, other: CompareCounts) {
        self.compared += other.compared;
        self.skipped += other.skipped;
        self.new += other.new;
    }
}

/// Outcome of gating one pair of report directories.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Benchmark-name coverage summed over all compared report files.
    pub counts: CompareCounts,
    /// Report files compared.
    pub files: usize,
    /// Regressions beyond the threshold, worst first.
    pub regressions: Vec<Regression>,
    /// Benchmarks whose baseline or fresh mean is unusable (zero, negative
    /// or non-finite) — a misconfiguration, reported loudly instead of
    /// silently passing.
    pub degenerate: Vec<DegenerateMean>,
}

/// Extracts `(name, mean_ns)` pairs from a `BENCH_*.json` report produced by
/// the criterion shim. Unparseable input yields an empty map (the gate then
/// simply has nothing to compare). An entry whose `mean_ns` is missing or
/// unparsable is recorded as NaN — visibly degenerate — instead of being
/// dropped (dropping it would silently shrink the compared set, and an
/// earlier version even stopped scanning there, hiding every later entry).
pub fn parse_bench_means(json: &str) -> BenchMeans {
    let mut means = BenchMeans::new();
    // Each benchmark entry is emitted on one line as
    // `{"name": "...", "mean_ns": 123.4, ...}`; scan for the two fields.
    let mut rest = json;
    while let Some(pos) = rest.find("\"name\":") {
        rest = &rest[pos + "\"name\":".len()..];
        let Some(open) = rest.find('"') else { break };
        let after = &rest[open + 1..];
        let Some(close) = after.find('"') else { break };
        let name = &after[..close];
        rest = &after[close + 1..];
        // The mean must belong to THIS entry: stop at the next entry's
        // "name" key if one appears first.
        let next_name = rest.find("\"name\":").unwrap_or(rest.len());
        let Some(mpos) = rest[..next_name].find("\"mean_ns\":") else {
            means.insert(name.to_string(), f64::NAN);
            continue;
        };
        let after_mean = rest[mpos + "\"mean_ns\":".len()..].trim_start();
        let end = after_mean
            .find(|c: char| {
                c != '.'
                    && c != '-'
                    && c != '+'
                    && c != 'e'
                    && c != 'N'
                    && c != 'a'
                    && c != 'i'
                    && c != 'n'
                    && c != 'f'
                    && !c.is_ascii_digit()
            })
            .unwrap_or(after_mean.len());
        let mean = after_mean[..end].trim().parse::<f64>().unwrap_or(f64::NAN);
        means.insert(name.to_string(), mean);
        rest = &after_mean[end..];
    }
    means
}

/// Whether a recorded mean can anchor a regression ratio.
fn usable_mean(mean: f64) -> bool {
    mean.is_finite() && mean > 0.0
}

/// Compares one baseline report against its fresh counterpart, returning the
/// regressions beyond `threshold` (fractional slowdown, e.g. `0.25` = 25 %),
/// the degenerate entries (zero/NaN/non-finite means on either side, which
/// would otherwise yield a bogus ratio or silently disable the comparison),
/// and the comparison coverage (compared / baseline-only / fresh-only
/// counts).
pub fn compare_reports(
    file: &str,
    baseline: &BenchMeans,
    fresh: &BenchMeans,
    threshold: f64,
) -> (Vec<Regression>, Vec<DegenerateMean>, CompareCounts) {
    let mut regressions = Vec::new();
    let mut degenerate = Vec::new();
    let mut counts = CompareCounts::default();
    for (name, &base) in baseline {
        let Some(&new) = fresh.get(name) else {
            counts.skipped += 1;
            continue;
        };
        counts.compared += 1;
        let mut flag = |side: &'static str, mean_ns: f64| {
            degenerate.push(DegenerateMean {
                file: file.to_string(),
                name: name.clone(),
                side,
                mean_ns,
            });
        };
        if !usable_mean(base) {
            flag("baseline", base);
        }
        if !usable_mean(new) {
            flag("fresh", new);
        }
        if usable_mean(base) && usable_mean(new) && new > base * (1.0 + threshold) {
            regressions.push(Regression {
                file: file.to_string(),
                name: name.clone(),
                baseline_ns: base,
                fresh_ns: new,
            });
        }
    }
    counts.new = fresh.len() - counts.compared;
    (regressions, degenerate, counts)
}

/// Lists the `BENCH_*.json` report files directly inside `dir`.
pub fn list_reports(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut reports = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let is_report = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"));
        if is_report && path.is_file() {
            reports.push(path);
        }
    }
    reports.sort();
    Ok(reports)
}

/// Gates a fresh report directory against a baseline directory: every
/// benchmark name present in both sides of a same-named report pair must not
/// have regressed by more than `threshold`.
///
/// # Errors
///
/// Returns an error when a directory cannot be read.
pub fn gate_dirs(baseline: &Path, fresh: &Path, threshold: f64) -> std::io::Result<GateOutcome> {
    let mut outcome = GateOutcome::default();
    for base_path in list_reports(baseline)? {
        let file = base_path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let fresh_path = fresh.join(&file);
        if !fresh_path.is_file() {
            continue;
        }
        let base_means = parse_bench_means(&std::fs::read_to_string(&base_path)?);
        let fresh_means = parse_bench_means(&std::fs::read_to_string(&fresh_path)?);
        let (mut regressions, mut degenerate, counts) =
            compare_reports(&file, &base_means, &fresh_means, threshold);
        outcome.files += 1;
        outcome.counts.add(counts);
        outcome.regressions.append(&mut regressions);
        outcome.degenerate.append(&mut degenerate);
    }
    outcome
        .regressions
        .sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "group": "layer_throughput",
  "unit": "ns_per_iter",
  "benchmarks": [
    {"name": "gemm_64", "mean_ns": 1000.0, "std_ns": 1.0, "min_ns": 900.0, "median_ns": 990.0, "samples": 10, "iters_per_sample": 5},
    {"name": "conv_fwd", "mean_ns": 2500.5, "std_ns": 2.0, "min_ns": 2400.0, "median_ns": 2490.0, "samples": 10, "iters_per_sample": 3}
  ]
}"#;

    #[test]
    fn parses_names_and_means() {
        let means = parse_bench_means(SAMPLE);
        assert_eq!(means.len(), 2);
        assert_eq!(means["gemm_64"], 1000.0);
        assert_eq!(means["conv_fwd"], 2500.5);
        assert!(parse_bench_means("not json at all").is_empty());
        assert!(parse_bench_means("{\"benchmarks\": []}").is_empty());
    }

    #[test]
    fn flags_only_regressions_beyond_threshold() {
        let baseline = parse_bench_means(SAMPLE);
        let mut fresh = baseline.clone();
        // 20% slower: inside a 25% gate.
        fresh.insert("gemm_64".into(), 1200.0);
        let (regs, degen, counts) = compare_reports("f", &baseline, &fresh, 0.25);
        assert_eq!((regs.len(), degen.len(), counts.compared), (0, 0, 2));
        // 30% slower: flagged.
        fresh.insert("gemm_64".into(), 1300.0);
        let (regs, _, _) = compare_reports("f", &baseline, &fresh, 0.25);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "gemm_64");
        assert!((regs[0].ratio() - 1.3).abs() < 1e-9);
        // Speedups never flag.
        fresh.insert("gemm_64".into(), 10.0);
        let (regs, _, _) = compare_reports("f", &baseline, &fresh, 0.25);
        assert!(regs.is_empty());
    }

    #[test]
    fn names_on_only_one_side_are_ignored_but_counted() {
        let baseline = parse_bench_means(SAMPLE);
        let mut fresh = BenchMeans::new();
        fresh.insert("brand_new_bench".into(), 1.0);
        fresh.insert("gemm_64".into(), 1001.0);
        let (regs, degen, counts) = compare_reports("f", &baseline, &fresh, 0.25);
        assert_eq!((regs.len(), degen.len()), (0, 0));
        // gemm_64 on both sides; conv_fwd retired; brand_new_bench added.
        assert_eq!(
            counts,
            CompareCounts {
                compared: 1,
                skipped: 1,
                new: 1,
            }
        );
    }

    #[test]
    fn degenerate_means_are_flagged_not_silently_passed() {
        // A zero baseline mean previously disabled the comparison for that
        // benchmark (`base > 0.0` guard) and a NaN on either side made every
        // comparison false — both silently passing the gate. They are now
        // hard findings.
        let mut baseline = parse_bench_means(SAMPLE);
        let mut fresh = baseline.clone();
        baseline.insert("gemm_64".into(), 0.0);
        let (regs, degen, counts) = compare_reports("f", &baseline, &fresh, 0.25);
        assert_eq!((regs.len(), counts.compared), (0, 2));
        assert_eq!(degen.len(), 1);
        assert_eq!(
            (degen[0].name.as_str(), degen[0].side, degen[0].mean_ns),
            ("gemm_64", "baseline", 0.0)
        );
        // NaN fresh mean (e.g. a zero-sample run) is flagged on the fresh
        // side; a regression elsewhere is still detected.
        baseline.insert("gemm_64".into(), 1000.0);
        fresh.insert("gemm_64".into(), f64::NAN);
        fresh.insert("conv_fwd".into(), 5000.0);
        let (regs, degen, _) = compare_reports("f", &baseline, &fresh, 0.25);
        assert_eq!(degen.len(), 1);
        assert_eq!(degen[0].side, "fresh");
        assert!(degen[0].mean_ns.is_nan());
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "conv_fwd");
        // Negative and infinite means are equally unusable.
        baseline.insert("conv_fwd".into(), -3.0);
        fresh.insert("gemm_64".into(), f64::INFINITY);
        let (_, degen, _) = compare_reports("f", &baseline, &fresh, 0.25);
        assert_eq!(degen.len(), 2);
    }

    #[test]
    fn missing_mean_parses_as_nan_without_dropping_later_entries() {
        // An entry without a usable mean_ns must not hide the entries after
        // it (the old scanner stopped at the first malformed entry).
        let broken = r#"{"benchmarks": [
            {"name": "first", "samples": 0},
            {"name": "second", "mean_ns": 12.5}
        ]}"#;
        let means = parse_bench_means(broken);
        assert_eq!(means.len(), 2);
        assert!(means["first"].is_nan());
        assert_eq!(means["second"], 12.5);
        // And a NaN literal in the report parses as NaN, not as a dropped
        // entry.
        let nan = r#"{"benchmarks": [{"name": "zero_samples", "mean_ns": NaN}]}"#;
        let means = parse_bench_means(nan);
        assert!(means["zero_samples"].is_nan());
        // A degenerate committed baseline therefore fails the gate loudly.
        let fresh =
            parse_bench_means(r#"{"benchmarks": [{"name": "zero_samples", "mean_ns": 10.0}]}"#);
        let (_, degen, _) = compare_reports("f", &means, &fresh, 0.25);
        assert_eq!(degen.len(), 1);
        assert_eq!(degen[0].side, "baseline");
    }

    /// A committed report of this workspace: the shape the gate trusts.
    const REPORT: &str = include_str!("../../../BENCH_elementwise.json");

    /// Every `(name, mean_ns)` entry of `REPORT`, read line by line without
    /// the scanner under test.
    fn report_entries() -> Vec<(String, f64)> {
        REPORT
            .lines()
            .filter_map(|line| {
                let name = line.split("\"name\": \"").nth(1)?.split('"').next()?;
                let mean = line.split("\"mean_ns\": ").nth(1)?.split(',').next()?;
                Some((name.to_string(), mean.parse().ok()?))
            })
            .collect()
    }

    /// Byte range of the `k`-th (mod count) `"name": "…", ` key-value pair.
    fn name_pair(k: usize) -> std::ops::Range<usize> {
        let starts: Vec<usize> = REPORT.match_indices("\"name\":").map(|(i, _)| i).collect();
        let start = starts[k % starts.len()];
        let end = start
            + REPORT[start..]
                .find("\"mean_ns\"")
                .expect("entry has a mean");
        start..end
    }

    fn assert_means_exact(means: &BenchMeans, expected: &[(String, f64)]) {
        assert_eq!(means.len(), expected.len(), "{means:?}");
        for (name, mean) in expected {
            assert_eq!(means[name].to_bits(), mean.to_bits(), "{name}");
        }
    }

    #[test]
    fn real_report_parses_exactly_and_survives_every_truncation() {
        let expected = report_entries();
        assert!(expected.len() >= 5, "{expected:?}");
        assert_means_exact(&parse_bench_means(REPORT), &expected);
        for (end, _) in REPORT.char_indices() {
            parse_bench_means(&REPORT[..end]);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_bench_scan_never_panics(
            bytes in proptest::collection::vec(0u16..256, 0..400),
            op in 0usize..4,
            at in 0usize..1 << 20,
            value in 0u16..256,
        ) {
            // Arbitrary bytes, read as lossy UTF-8.
            let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
            parse_bench_means(&String::from_utf8_lossy(&raw));
            // One mutation of a real report.
            let expected = report_entries();
            let k = at % expected.len();
            match op {
                0 => {
                    let mut end = at % (REPORT.len() + 1);
                    while !REPORT.is_char_boundary(end) {
                        end -= 1;
                    }
                    parse_bench_means(&REPORT[..end]);
                }
                1 => {
                    let mut damaged = REPORT.as_bytes().to_vec();
                    damaged[at % REPORT.len()] = value as u8;
                    parse_bench_means(&String::from_utf8_lossy(&damaged));
                }
                2 => {
                    // A duplicated name key still leaves every mean exact.
                    let pair = name_pair(k);
                    let duplicated = [&REPORT[..pair.end], &REPORT[pair.clone()], &REPORT[pair.end..]];
                    assert_means_exact(&parse_bench_means(&duplicated.concat()), &expected);
                }
                _ => {
                    // A deleted name key drops exactly that entry.
                    let pair = name_pair(k);
                    let deleted = [&REPORT[..pair.start], &REPORT[pair.end..]].concat();
                    let mut rest = expected.clone();
                    rest.remove(k);
                    assert_means_exact(&parse_bench_means(&deleted), &rest);
                }
            }
        }
    }

    #[test]
    fn gate_dirs_end_to_end() {
        let root = std::env::temp_dir().join(format!("bench_gate_test_{}", std::process::id()));
        let base_dir = root.join("base");
        let fresh_dir = root.join("fresh");
        std::fs::create_dir_all(&base_dir).unwrap();
        std::fs::create_dir_all(&fresh_dir).unwrap();
        std::fs::write(base_dir.join("BENCH_a.json"), SAMPLE).unwrap();
        // Fresh report: conv_fwd regressed 2×, gemm_64 unchanged.
        let fresh = SAMPLE.replace("2500.5", "5001.0");
        std::fs::write(fresh_dir.join("BENCH_a.json"), fresh).unwrap();
        // A baseline-only report is skipped.
        std::fs::write(base_dir.join("BENCH_only_base.json"), SAMPLE).unwrap();
        // A non-report file is ignored.
        std::fs::write(base_dir.join("notes.txt"), "hi").unwrap();
        let outcome = gate_dirs(&base_dir, &fresh_dir, 0.25).unwrap();
        assert_eq!(outcome.files, 1);
        assert_eq!(
            outcome.counts,
            CompareCounts {
                compared: 2,
                skipped: 0,
                new: 0,
            }
        );
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].name, "conv_fwd");
        std::fs::remove_dir_all(&root).ok();
    }
}
