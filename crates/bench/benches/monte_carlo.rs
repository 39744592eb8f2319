//! Monte-Carlo engine throughput: the sequential engine
//! ([`MonteCarloEngine::run_supervised`]) vs the planned engine
//! ([`MonteCarloEngine::execute`]) at B = 1 and B = 16 fault realizations
//! per forward pass.
//!
//! The workload is the paper's actual evaluation shape: a **small** model
//! (the 64×512→256 linear probe and a compact CNN) evaluated over ~tens of
//! Monte-Carlo chip instances. At these sizes a single instance cannot
//! saturate the blocked GEMM, so the sequential engine pays per-instance
//! snapshot/restore clones, packing and allocator traffic; the planned
//! engine compiles each worker's model once and re-packs only dirty weight
//! panels, and at B > 1 also shares each forward's input-derived work
//! across the stacked realizations. Results are written to
//! `BENCH_monte_carlo.json`; the `*_planned_*` / `*_sequential` pairs are
//! the tracked speedup. The B = 1 points keep the name `*_planned_t4` and
//! the B = 16 points `*_planned_batched_b16_t4`, so `bench_gate` compares
//! them against the committed baseline rows.
//!
//! Both engines produce bit-identical per-run metrics (tested in
//! `invnorm-imc`), so these benchmarks compare equal work, not
//! approximations.

use criterion::{criterion_group, criterion_main, Criterion};
use invnorm_imc::fault::{FaultModel, LineOrientation};
use invnorm_imc::montecarlo::{MonteCarloEngine, MonteCarloSummary, Sweep};
use invnorm_imc::telemetry::Telemetry;
use invnorm_imc::{SweepControl, SweepDomain, TileShape};
use invnorm_nn::activation::Relu;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::layer::{Layer, Mode};
use invnorm_nn::linear::Linear;
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::quantized::{QuantizedConv2d, QuantizedLinear};
use invnorm_nn::reshape::Flatten;
use invnorm_nn::Sequential;
use invnorm_tensor::{Rng, Tensor};

/// Chip instances per engine run (kept below the paper's 100 so every
/// benchmark iteration is one full engine invocation).
const RUNS: usize = 32;
/// Fault realizations fused per planned forward pass.
const BATCH: usize = 16;
/// Worker threads for the planned engine.
const THREADS: usize = 4;

/// The paper's linear probe shape: one 512→256 dense layer on a 64-row
/// evaluation batch.
fn linear_model(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new().with(Box::new(Linear::new(512, 256, &mut rng)))
}

fn linear_input() -> Tensor {
    Tensor::randn(&[64, 512], 0.0, 1.0, &mut Rng::seed_from(7))
}

/// A compact LeNet-style CNN on CIFAR-shaped inputs: one 5×5 conv stage,
/// pooling, and a dense head.
fn cnn_model(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    Sequential::new()
        .with(Box::new(Conv2d::new(3, 8, 5, 1, 2, &mut rng)))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(Linear::new(8 * 16 * 16, 10, &mut rng)))
}

fn cnn_input() -> Tensor {
    Tensor::randn(&[8, 3, 32, 32], 0.0, 1.0, &mut Rng::seed_from(8))
}

fn quantized_linear_model(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    let l = Linear::new(512, 256, &mut rng);
    Sequential::new().with(Box::new(QuantizedLinear::from_linear(&l, 8).unwrap()))
}

fn quantized_cnn_model(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    let conv = Conv2d::new(3, 8, 5, 1, 2, &mut rng);
    let head = Linear::new(8 * 16 * 16, 10, &mut rng);
    Sequential::new()
        .with(Box::new(QuantizedConv2d::from_conv2d(&conv, 8).unwrap()))
        .with(Box::new(Relu::new()))
        .with(Box::new(MaxPool2d::new(2)))
        .with(Box::new(Flatten::new()))
        .with(Box::new(QuantizedLinear::from_linear(&head, 8).unwrap()))
}

/// The fault models of the benchmark sweep: the paper's conductance
/// variation, a programming-fault model, retention drift, and the two
/// structured topologies (whole stuck crossbar lines, per-tile correlated
/// drift) whose sparse packed-domain realizations stress a different path
/// than the dense per-cell models.
fn sweep_faults() -> [FaultModel; 5] {
    let tile = TileShape { rows: 64, cols: 64 };
    [
        FaultModel::AdditiveVariation { sigma: 0.1 },
        FaultModel::StuckAt { rate: 0.05 },
        FaultModel::Drift {
            nu: 0.05,
            time_ratio: 100.0,
        },
        FaultModel::LineDefect {
            orientation: LineOrientation::Row,
            rate: 0.02,
            tile,
        },
        FaultModel::CorrelatedDrift {
            nu: 0.05,
            time_ratio: 100.0,
            sigma_nu: 0.3,
            tile,
        },
    ]
}

/// One planned-engine invocation of `THREADS` workers and `batch`
/// realizations per forward, summing each realization's output.
fn sweep<F>(
    factory: F,
    fault: FaultModel,
    domain: SweepDomain,
    input: &Tensor,
    batch: usize,
) -> MonteCarloSummary
where
    F: Fn() -> Sequential + Sync,
{
    let sweep = Sweep {
        domain,
        batch,
        threads: THREADS,
        ..Sweep::new(factory, fault, input, |out: &Tensor| Ok(out.sum()))
    };
    MonteCarloEngine::new(RUNS, 0xC0FFEE)
        .execute(&sweep, &SweepControl::new())
        .and_then(|outcome| outcome.into_summary())
        .unwrap()
}

fn bench_model<F>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    factory: F,
    input: &Tensor,
    quantized: bool,
) where
    F: Fn() -> Sequential + Sync + Copy,
{
    let engine = MonteCarloEngine::new(RUNS, 0xC0FFEE);
    let domain = if quantized {
        SweepDomain::Codes
    } else {
        SweepDomain::Weights
    };
    for fault in sweep_faults() {
        let tag = match fault {
            FaultModel::AdditiveVariation { .. } => "additive",
            FaultModel::StuckAt { .. } => "stuckat",
            FaultModel::Drift { .. } => "drift",
            FaultModel::LineDefect { .. } => "linedefect",
            FaultModel::CorrelatedDrift { .. } => "corrdrift",
            _ => "other",
        };
        // Sequential reference engine.
        group.bench_function(format!("{name}_{tag}_sequential"), |b| {
            b.iter(|| {
                let mut net = factory();
                let x = input.clone();
                engine
                    .run_supervised(
                        domain,
                        &mut net,
                        fault,
                        |n| Ok(n.forward(&x, Mode::Eval)?.sum()),
                        &SweepControl::new(),
                    )
                    .and_then(|outcome| outcome.into_summary())
                    .unwrap()
                    .mean
            })
        });
        // Compiled-plan engine: per-worker plans amortize shape inference,
        // buffer allocation and weight packing across the whole simulation;
        // only dirty panels are re-packed between realizations. B = 1 runs
        // one realization per forward; B = 16 streams the frozen activation
        // panels against 16 cached weight panels per forward, and sparse
        // stuck-at lands in the panels cell by cell.
        for (batch, id) in [
            (1, format!("{name}_{tag}_planned_t{THREADS}")),
            (
                BATCH,
                format!("{name}_{tag}_planned_batched_b{BATCH}_t{THREADS}"),
            ),
        ] {
            group.bench_function(id, |b| {
                b.iter(|| sweep(factory, fault, domain, input, batch).mean)
            });
        }
    }
}

fn bench_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte_carlo");
    group.sample_size(10);

    let xc = cnn_input();
    bench_model(&mut group, "cnn_f32", || cnn_model(2), &xc, false);
    bench_model(
        &mut group,
        "cnn_quant",
        || quantized_cnn_model(2),
        &xc,
        true,
    );

    let x = linear_input();
    bench_model(&mut group, "linear_f32", || linear_model(1), &x, false);
    bench_model(
        &mut group,
        "linear_quant",
        || quantized_linear_model(1),
        &x,
        true,
    );

    group.finish();
    emit_telemetry_artifacts();
}

/// Mirrors the criterion shim's `BENCH_JSON_DIR` resolution so the telemetry
/// artifacts land next to `BENCH_monte_carlo.json`.
fn json_dir() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("BENCH_JSON_DIR") {
        return dir.into();
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
    for candidate in [cwd.clone(), cwd.join(".."), cwd.join("../..")] {
        if candidate.join("Cargo.toml").exists() && candidate.join("crates").is_dir() {
            return candidate;
        }
    }
    cwd
}

/// One untimed, telemetry-enabled engine invocation per model family after
/// the timed samples: dumps the chrome trace (`TRACE_monte_carlo.json`) and
/// the per-run counter/phase report (`TELEMETRY_monte_carlo.json`) so every
/// benchmark run ships a profile of where the engine time and cache behavior
/// went. The timed samples above all run with telemetry disabled, so the
/// numbers in `BENCH_monte_carlo.json` are unaffected.
fn emit_telemetry_artifacts() {
    let fault = FaultModel::StuckAt { rate: 0.05 };
    let domain = SweepDomain::Weights;
    Telemetry::reset();
    Telemetry::enable();
    let cnn = sweep(|| cnn_model(2), fault, domain, &cnn_input(), BATCH);
    let linear = sweep(|| linear_model(1), fault, domain, &linear_input(), BATCH);
    Telemetry::disable();

    let dir = json_dir();
    let trace_path = dir.join("TRACE_monte_carlo.json");
    match Telemetry::write_chrome_trace(&trace_path) {
        Ok(()) => println!("wrote {}", trace_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }
    let report_path = dir.join("TELEMETRY_monte_carlo.json");
    let mut report = String::from("{\n  \"group\": \"monte_carlo\",\n");
    for (name, summary) in [("cnn_f32", &cnn), ("linear_f32", &linear)] {
        let telemetry = summary
            .telemetry
            .as_ref()
            .expect("enabled run must attach telemetry");
        report.push_str(&format!("  \"{name}\": {},\n", telemetry.to_json()));
    }
    report.push_str("  \"fault\": \"stuck-at 5%\"\n}\n");
    match std::fs::write(&report_path, report) {
        Ok(()) => println!("wrote {}", report_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", report_path.display()),
    }
}

criterion_group!(benches, bench_monte_carlo);
criterion_main!(benches);
