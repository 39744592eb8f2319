//! Measures one workload in this process: set-ups, the timed closed loop of
//! sweeps, the correctness checks, and the report.
//!
//! With tracing off every timed sweep is untraced. With tracing on, sweeps
//! alternate untraced and traced, so the traced numbers and the tracing
//! overhead come from the same run, under the same host noise.

use crate::host;
use crate::stats::{median, percentile, sweep_p90, P90_MIN_SWEEPS};
use crate::workloads::{self, BenchSpans, Check, SetupTimes, Workload, ENGINE_THREADS};
use crate::Metric;
use invnorm_imc::telemetry::{Counter, Phase, Telemetry};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Per-layer metrics of the traced run, with their units, in report order.
const PER_LAYER: [(&str, &str); 24] = [
    ("imc.inject_ms", "ms"),
    ("imc.inject_ns_per_weight", "ns"),
    ("imc.restore_ms", "ms"),
    ("imc.metric_ms", "ms"),
    ("nn.plan_compile_ms", "ms"),
    ("nn.plan_forward_ms", "ms"),
    ("nn.forward_other_ms", "ms"),
    ("tensor.gemm_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.im2col_ms", "ms"),
    ("tensor.pack_ms", "ms"),
    ("tensor.repack_ms", "ms"),
    ("core.predict_ms", "ms"),
    ("datasets.prepare_s", "s"),
    ("nn.train_s", "s"),
    ("tensor.rows_repacked", "count"),
    ("tensor.cell_scatters", "count"),
    ("tensor.uniform_scales", "count"),
    ("tensor.wide_gemms", "count"),
    ("nn.frozen_input_hit_ratio", "ratio"),
    ("imc.tail_recompiles", "count"),
    ("bench.traced_sweep_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.tracing_overhead_pct", "%"),
];

/// Program counters that must repeat exactly from one traced sweep to the
/// next.
const COUNTERS: [Counter; 7] = [
    Counter::RowsRepacked,
    Counter::CellScatters,
    Counter::UniformScales,
    Counter::WideGemms,
    Counter::FrozenInputHits,
    Counter::FrozenInputMisses,
    Counter::TailRecompiles,
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

fn index_of(name: &str) -> usize {
    PER_LAYER
        .iter()
        .position(|(n, _)| *n == name)
        .expect("per-layer metric is declared")
}

/// What one run measured, ready to print.
pub struct Outcome {
    pub report: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

/// The layer numbers of one traced sweep, indexed like [`PER_LAYER`].
struct TracedSweep {
    values: [f64; PER_LAYER.len()],
    counters: [u64; COUNTERS.len()],
}

/// One timed sweep: wall time, per-run metrics, and the layer numbers when
/// it was traced.
type Timed = (f64, Vec<f32>, Option<TracedSweep>);

fn untraced_sweep(w: &mut dyn Workload) -> workloads::Result<Timed> {
    let start = Instant::now();
    let per_run = w.sweep()?;
    Ok((start.elapsed().as_secs_f64() * 1e3, per_run, None))
}

/// One sweep with the program's telemetry on and benchmark spans around the
/// public calls the benchmark makes.
fn traced_sweep(w: &mut dyn Workload) -> workloads::Result<Timed> {
    let mut spans = BenchSpans::default();
    Telemetry::enable();
    let before = Telemetry::snapshot();
    let start = Instant::now();
    let result = w.traced_sweep(&mut spans);
    let wall = start.elapsed().as_secs_f64() * 1e3;
    let after = Telemetry::snapshot();
    Telemetry::disable();
    let per_run = result?;

    let phase = |p| (after.phase_ns(p) - before.phase_ns(p)) as f64 / 1e6;
    let counter = |c| after.counter(c) - before.counter(c);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let inject = spans.inject.map_or_else(|| phase(Phase::Inject), ms);
    let (compile, forward, metric) = (
        phase(Phase::Compile),
        phase(Phase::Forward),
        phase(Phase::Metric),
    );
    let (gemm, im2col) = (phase(Phase::Gemm), phase(Phase::Im2col));
    let (predict, restore) = (ms(spans.predict), ms(spans.restore));
    // Compile, inject, forward and metric are the engine's top-level phases
    // (pack, repack, gemm and im2col nest inside compile and forward); the
    // benchmark's inject, predict and restore spans tile paper_resnet.
    let claimed = compile + inject + forward + metric + predict + restore;
    let hits = counter(Counter::FrozenInputHits);
    let lookups = hits + counter(Counter::FrozenInputMisses);
    let weights = w.weights_per_sweep();

    let mut values = [0.0; PER_LAYER.len()];
    let mut set = |name: &str, value: f64| values[index_of(name)] = value;
    set("imc.inject_ms", inject);
    if weights > 0 {
        set("imc.inject_ns_per_weight", inject * 1e6 / weights as f64);
    }
    set("imc.restore_ms", restore);
    set("imc.metric_ms", metric);
    set("nn.plan_compile_ms", compile);
    set("nn.plan_forward_ms", forward);
    if forward > 0.0 {
        set("nn.forward_other_ms", forward - gemm - im2col);
    }
    set("tensor.gemm_ms", gemm);
    if let Some(flops) = w.flops_per_sweep().filter(|_| gemm > 0.0) {
        set("tensor.gemm_gflops", flops / (gemm * 1e6));
    }
    set("tensor.im2col_ms", im2col);
    set("tensor.pack_ms", phase(Phase::Pack));
    set("tensor.repack_ms", phase(Phase::Repack));
    set("core.predict_ms", predict);
    set(
        "tensor.rows_repacked",
        counter(Counter::RowsRepacked) as f64,
    );
    set(
        "tensor.cell_scatters",
        counter(Counter::CellScatters) as f64,
    );
    set(
        "tensor.uniform_scales",
        counter(Counter::UniformScales) as f64,
    );
    set("tensor.wide_gemms", counter(Counter::WideGemms) as f64);
    if lookups > 0 {
        set("nn.frozen_input_hit_ratio", hits as f64 / lookups as f64);
    }
    set(
        "imc.tail_recompiles",
        counter(Counter::TailRecompiles) as f64,
    );
    set("bench.traced_sweep_ms", wall);
    set("bench.unattributed_ms", wall - claimed);
    let counters = COUNTERS.map(counter);
    Ok((wall, per_run, Some(TracedSweep { values, counters })))
}

fn instances_per_s(instances: usize, sweep_ms: &[f64]) -> f64 {
    instances as f64 * sweep_ms.len() as f64 / (sweep_ms.iter().sum::<f64>() / 1e3)
}

fn setup_median(setups: &[SetupTimes], field: fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(field).collect::<Vec<_>>())
}

/// Sets `name` up, runs the timed loop for `seconds`, checks every sweep,
/// and returns the report.
///
/// The first set-up comes before timing; the other [`SETUPS`] − 1 repeats
/// are spread evenly over the timed loop (and are not timed as sweeps), so
/// the median set-up time samples the whole run rather than its first second.
pub fn measure(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let (mut workload, first_setup) =
        workloads::prepare(name, seed).map_err(|e| format!("{name} set-up failed: {e}"))?;
    let w = workload.as_mut();

    let mut repeats = Vec::with_capacity(SETUPS - 1);
    let (mut untraced_ms, mut traced_ms, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut errors = Vec::new();
    let budget = Duration::from_secs(seconds);
    let setup_every = budget / SETUPS as u32;
    let min_sweeps = if trace { 2 } else { 1 };
    let mut clock_ms = vec![host::clock_probe_ms()];
    let cpu_before = host::cpu_times();
    let start = Instant::now();
    while attempted < min_sweeps || start.elapsed() < budget {
        let due = setup_every * (repeats.len() + 1) as u32;
        if repeats.len() < SETUPS - 1 && start.elapsed() >= due {
            repeats.push(w.set_up_again());
            clock_ms.push(host::clock_probe_ms());
            continue;
        }
        let traced_turn = trace && attempted % 2 == 1;
        attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if traced_turn {
                traced_sweep(w)
            } else {
                untraced_sweep(w)
            }
        }));
        match result {
            Ok(Ok((_, per_run, _))) if w.check(&per_run) == Check::Mismatched => {
                failed += 1;
                errors.push(format!("sweep {attempted} differs from the reference"));
            }
            Ok(Ok((ms, _, Some(t)))) => {
                traced_ms.push(ms);
                traced.push(t);
            }
            Ok(Ok((ms, _, None))) => untraced_ms.push(ms),
            Ok(Err(e)) => {
                failed += 1;
                errors.push(format!("sweep {attempted} failed: {e}"));
            }
            Err(_) => {
                failed += 1;
                errors.push(format!("sweep {attempted} panicked"));
            }
        }
    }
    let steal = host::steal_pct(cpu_before, host::cpu_times());
    while repeats.len() < SETUPS - 1 {
        repeats.push(w.set_up_again());
        clock_ms.push(host::clock_probe_ms());
    }
    let mut setups = vec![first_setup];
    let mut setups_agree = true;
    for repeat in repeats {
        match repeat {
            Ok((times, agrees)) => {
                setups.push(times);
                if !agrees {
                    setups_agree = false;
                    errors.push("a repeated set-up's cold sweep differs from the first".into());
                }
            }
            Err(e) => {
                setups_agree = false;
                errors.push(format!("repeated set-up failed: {e}"));
            }
        }
    }
    match w.verify_after() {
        Ok(0) => {}
        Ok(n) => {
            failed += n;
            errors.push(format!("{n} timed sweeps differ from their replay"));
        }
        Err(e) => {
            failed = attempted;
            errors.push(format!("replay failed: {e}"));
        }
    }
    let correct = failed == 0 && setups_agree;

    let instances = w.instances();
    let mut report = vec![
        format!(
            "# sweepbench {name}: seed={seed} seconds={seconds} trace={}",
            u8::from(trace)
        ),
        host::provenance(ENGINE_THREADS),
        w.describe(),
        format!(
            "# timed sweeps: {attempted} ({} untraced, {} traced), {instances} instances each; \
             host steal during timing: {}; clock probe: {:.3} ms (median of {}, min {:.3})",
            untraced_ms.len(),
            traced_ms.len(),
            steal.map_or_else(|| "unknown".into(), |s| format!("{s:.2}%")),
            median(&clock_ms),
            clock_ms.len(),
            clock_ms.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        format!(
            "# set-ups: {} (median reported); every repeat's cold sweep matched the first: {}",
            setups.len(),
            if setups_agree { "yes" } else { "NO" }
        ),
    ];
    report.extend(errors.iter().map(|e| format!("# error: {e}")));
    if untraced_ms.is_empty() || (trace && traced.is_empty()) {
        return Err(format!("{name}: no sweep completed\n{}", report.join("\n")));
    }

    let untraced_ips = instances_per_s(instances, &untraced_ms);
    let ips = Metric::new("instances_per_s", untraced_ips, "1/s");
    let p50 = Metric::new("sweep_p50_ms", median(&untraced_ms), "ms");
    let p90 = sweep_p90(&untraced_ms).map(|v| Metric::new("sweep_p90_ms", v, "ms"));
    let setup = Metric::new("setup_s", setup_median(&setups, |s| s.total), "s");
    let rss = Metric::new(
        "peak_rss_mb",
        host::peak_rss_mib().unwrap_or(f64::NAN),
        "MiB",
    );
    let failed_frac = Metric::new("failed_frac", failed as f64 / attempted as f64, "fraction");
    report.push(format!(
        "# untraced sweep ms: p10 {:.2}, p25 {:.2}, p50 {:.2}, p75 {:.2}, p90 {:.2}",
        percentile(&untraced_ms, 0.1),
        percentile(&untraced_ms, 0.25),
        percentile(&untraced_ms, 0.5),
        percentile(&untraced_ms, 0.75),
        percentile(&untraced_ms, 0.9),
    ));
    report.push(format!("metric {:<34} {:>16} unit", "name", "value"));
    report.push(ips.row());
    report.push(p50.row());
    // The p90 is reported but left out of the result line: it lands in the
    // slow mode of the sweep times as soon as host contention covers a tenth
    // of a run, so it measures the host rather than the program (see
    // README.md).
    report.push(match &p90 {
        Some(m) => m.row(),
        None => format!(
            "metric {:<34} {:>16} ms ({} sweeps < {P90_MIN_SWEEPS})",
            "sweep_p90_ms",
            "missing",
            untraced_ms.len()
        ),
    });
    report.push(setup.row());
    report.push(rss.row());
    report.push(format!(
        "{} ({failed} of {attempted} sweeps)",
        failed_frac.row()
    ));
    let end_to_end = vec![ips, p50, setup, rss];

    let metrics = if trace {
        let mut per_layer: Vec<Metric> = PER_LAYER
            .iter()
            .enumerate()
            .map(|(i, (n, u))| {
                let samples: Vec<f64> = traced.iter().map(|t| t.values[i]).collect();
                Metric::new(n, median(&samples), u)
            })
            .collect();
        per_layer[index_of("datasets.prepare_s")].value = setup_median(&setups, |s| s.prepare);
        per_layer[index_of("nn.train_s")].value = setup_median(&setups, |s| s.train);
        per_layer[index_of("bench.tracing_overhead_pct")].value =
            100.0 * (1.0 - instances_per_s(instances, &traced_ms) / untraced_ips);
        let repeat = traced.windows(2).all(|p| p[0].counters == p[1].counters);
        report.push(format!(
            "# per-layer: median over {} traced sweeps; counters repeat exactly: {}",
            traced.len(),
            if repeat { "yes" } else { "no" }
        ));
        let sweep_ms = per_layer[index_of("bench.traced_sweep_ms")].value;
        for m in &per_layer {
            let share = (m.unit == "ms" && m.name != "bench.traced_sweep_ms")
                .then(|| format!(" ({:.1}% of sweep)", 100.0 * m.value / sweep_ms));
            report.push(format!("{}{}", m.row(), share.unwrap_or_default()));
        }
        per_layer
    } else {
        end_to_end
    };
    Ok(Outcome {
        report,
        metrics,
        attempted,
        failed,
        correct,
    })
}
