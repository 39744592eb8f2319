//! The three workloads. Each builds its inputs from the workload seed and
//! then answers sweeps: one sweep is one complete call of one fixed
//! configuration, so every sample costs the same work. A set-up runs from
//! nothing through the first (cold) sweep, and can be repeated from scratch
//! so that set-up time is a median.
//!
//! - `probe_additive`: a 512→256 linear probe under additive variation. The
//!   sweep is bound by fault injection, and its 16 stacked weight panels
//!   overflow L2.
//! - `cnn_drift`: a small CNN under retention drift, a deterministic uniform
//!   scale, so injection costs nothing and plan compile plus planned forward
//!   are the sweep. The control for injection work.
//! - `paper_resnet`: the paper's own protocol, a trained binary MicroResNet
//!   with inverted norm and affine dropout under bit flips, scored with
//!   Bayesian MC passes. It never touches plans, so it is the control for
//!   plan and engine work.

use invnorm_bench::faults::{evaluate_under_fault, fault_target, FaultTarget};
use invnorm_bench::tasks::ImageTask;
use invnorm_bench::ExperimentScale;
use invnorm_imc::fault::FaultModel;
use invnorm_imc::montecarlo::{DegradationPolicy, EngineKind, MonteCarloEngine};
use invnorm_imc::WeightFaultInjector;
use invnorm_models::{BuiltModel, NormVariant};
use invnorm_nn::activation::Relu;
use invnorm_nn::conv::Conv2d;
use invnorm_nn::layer::{Layer, Mode};
use invnorm_nn::linear::Linear;
use invnorm_nn::pool::MaxPool2d;
use invnorm_nn::reshape::Flatten;
use invnorm_nn::{NnError, Sequential};
use invnorm_tensor::{Rng, Tensor};
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["probe_additive", "cnn_drift", "paper_resnet"];

/// Engine worker threads: the benchmark is a single-threaded baseline.
pub const ENGINE_THREADS: usize = 1;

/// Chip instances per engine sweep.
const ENGINE_INSTANCES: usize = 32;

/// Fault realizations fused per planned-batched forward.
const ENGINE_BATCH: usize = 16;

/// Timed `paper_resnet` sweeps the twin model replays after timing.
const REPLAYED_SWEEPS: usize = 5;

pub type Result<T> = std::result::Result<T, NnError>;

/// Benchmark-side spans of one traced sweep, around the public calls the
/// benchmark makes. `None`/zero where the workload makes no such call.
#[derive(Debug, Default)]
pub struct BenchSpans {
    pub inject: Option<Duration>,
    pub predict: Duration,
    pub restore: Duration,
}

/// Spans of one set-up, in seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub total: f64,
    pub prepare: f64,
    pub train: f64,
}

/// Outcome of checking one sweep's per-run metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    Matched,
    Mismatched,
    /// Checked after timing by [`Workload::verify_after`].
    Deferred,
}

pub trait Workload {
    /// Chip instances one sweep simulates.
    fn instances(&self) -> usize;
    /// Weights the injector targets per sweep (`would_target`, summed over
    /// instances).
    fn weights_per_sweep(&self) -> u64;
    /// GEMM floating-point operations per sweep, computed from layer shapes.
    fn flops_per_sweep(&self) -> Option<f64>;
    /// One sweep through the program's public API.
    fn sweep(&mut self) -> Result<Vec<f32>>;
    /// The same sweep, with benchmark-side spans.
    fn traced_sweep(&mut self, spans: &mut BenchSpans) -> Result<Vec<f32>>;
    /// Checks one timed sweep's per-run metrics.
    fn check(&mut self, per_run: &[f32]) -> Check;
    /// Repeats the set-up from scratch, and tells whether the repeat's cold
    /// sweep reproduced the first one bit for bit.
    fn set_up_again(&mut self) -> Result<(SetupTimes, bool)>;
    /// Runs the deferred checks; returns how many sweeps failed them.
    fn verify_after(&mut self) -> Result<usize>;
    /// One report line on how the sweeps ran.
    fn describe(&self) -> String;
}

/// Sets `name` up once from `seed`.
pub fn prepare(name: &str, seed: u64) -> Result<(Box<dyn Workload>, SetupTimes)> {
    fn boxed<W: Workload + 'static>((w, t): (W, SetupTimes)) -> (Box<dyn Workload>, SetupTimes) {
        (Box::new(w), t)
    }
    match name {
        "probe_additive" => EngineWorkload::prepare(EngineModel::Probe, seed).map(boxed),
        "cnn_drift" => EngineWorkload::prepare(EngineModel::Cnn, seed).map(boxed),
        "paper_resnet" => ResnetWorkload::prepare(seed).map(boxed),
        _ => Err(NnError::Config(format!("unknown workload {name}"))),
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn targeted_weights(model: &mut dyn Layer, fault: FaultModel) -> Result<u64> {
    let injector = WeightFaultInjector::new(fault)?;
    let mut n = 0u64;
    model.visit_params(&mut |p| {
        if injector.would_target(p) {
            n += p.value.numel() as u64;
        }
    });
    Ok(n)
}

#[derive(Debug, Clone, Copy)]
enum EngineModel {
    /// 512→256 linear probe on a 64×512 input.
    Probe,
    /// Conv 3→8 5×5, ReLU, 2×2 max-pool, linear 2048→10 on 8×3×32×32.
    Cnn,
}

impl EngineModel {
    fn build(self, seed: u64) -> Sequential {
        let mut rng = Rng::seed_from(seed);
        match self {
            EngineModel::Probe => Sequential::new().with(Box::new(Linear::new(512, 256, &mut rng))),
            EngineModel::Cnn => Sequential::new()
                .with(Box::new(Conv2d::new(3, 8, 5, 1, 2, &mut rng)))
                .with(Box::new(Relu::new()))
                .with(Box::new(MaxPool2d::new(2)))
                .with(Box::new(Flatten::new()))
                .with(Box::new(Linear::new(8 * 16 * 16, 10, &mut rng))),
        }
    }

    fn input_dims(self) -> &'static [usize] {
        match self {
            EngineModel::Probe => &[64, 512],
            EngineModel::Cnn => &[8, 3, 32, 32],
        }
    }

    fn fault(self) -> FaultModel {
        match self {
            EngineModel::Probe => FaultModel::AdditiveVariation { sigma: 0.1 },
            EngineModel::Cnn => FaultModel::Drift {
                nu: 0.05,
                time_ratio: 100.0,
            },
        }
    }

    /// GEMM FLOPs of one forward (2 per multiply-add).
    fn flops_per_instance(self) -> f64 {
        let gemm = |m: usize, k: usize, n: usize| 2.0 * (m * k * n) as f64;
        match self {
            EngineModel::Probe => gemm(64, 512, 256),
            // im2col conv: [8·32·32, 3·5·5] × [75, 8]; head: [8, 2048] × [2048, 10].
            EngineModel::Cnn => gemm(8 * 32 * 32, 3 * 5 * 5, 8) + gemm(8, 2048, 10),
        }
    }
}

/// `probe_additive` and `cnn_drift`: 32 instances through `run_auto`.
struct EngineWorkload {
    model: EngineModel,
    seed: u64,
    model_seed: u64,
    input: Tensor,
    engine: MonteCarloEngine,
    /// Per-run metrics of `MonteCarloEngine::run`, the sequential oracle.
    reference: Vec<f32>,
    weights_per_instance: u64,
    ran_on: Option<(EngineKind, usize)>,
}

impl EngineWorkload {
    /// Builds the inputs from `seed` and runs the cold sweep.
    fn set_up(model: EngineModel, seed: u64) -> Result<(Self, Vec<f32>, SetupTimes)> {
        let start = Instant::now();
        let mut seeds = Rng::seed_from(seed);
        let model_seed = seeds.next_u64();
        let input = Tensor::randn(
            model.input_dims(),
            0.0,
            1.0,
            &mut Rng::seed_from(seeds.next_u64()),
        );
        let engine = MonteCarloEngine::new(ENGINE_INSTANCES, seeds.next_u64());
        let mut w = Self {
            model,
            seed,
            model_seed,
            input,
            engine,
            reference: Vec::new(),
            weights_per_instance: 0,
            ran_on: None,
        };
        let cold = w.sweep()?;
        let times = SetupTimes {
            total: start.elapsed().as_secs_f64(),
            ..SetupTimes::default()
        };
        Ok((w, cold, times))
    }

    fn prepare(model: EngineModel, seed: u64) -> Result<(Self, SetupTimes)> {
        let (mut w, cold, times) = Self::set_up(model, seed)?;
        // The weight count and the reference are the benchmark's own work,
        // not set-up: computed after the set-up is timed.
        w.weights_per_instance = targeted_weights(&mut model.build(w.model_seed), model.fault())?;
        let x = w.input.clone();
        w.reference = w
            .engine
            .run(&mut model.build(w.model_seed), model.fault(), |n| {
                Ok(n.forward(&x, Mode::Eval)?.sum())
            })?
            .per_run;
        if !bits_equal(&cold, &w.reference) {
            return Err(NnError::Config(
                "the cold sweep differs from MonteCarloEngine::run".into(),
            ));
        }
        Ok((w, times))
    }
}

impl Workload for EngineWorkload {
    fn instances(&self) -> usize {
        ENGINE_INSTANCES
    }

    fn weights_per_sweep(&self) -> u64 {
        self.weights_per_instance * ENGINE_INSTANCES as u64
    }

    fn flops_per_sweep(&self) -> Option<f64> {
        Some(self.model.flops_per_instance() * ENGINE_INSTANCES as f64)
    }

    fn sweep(&mut self) -> Result<Vec<f32>> {
        let (model, seed) = (self.model, self.model_seed);
        let out = self.engine.run_auto(
            || model.build(seed),
            model.fault(),
            &self.input,
            |y: &Tensor| Ok(y.sum()),
            ENGINE_BATCH,
            ENGINE_THREADS,
            DegradationPolicy::Graceful,
        )?;
        self.ran_on = Some((out.engine, out.fallbacks.len()));
        Ok(out.summary.per_run)
    }

    fn traced_sweep(&mut self, _spans: &mut BenchSpans) -> Result<Vec<f32>> {
        self.sweep()
    }

    fn check(&mut self, per_run: &[f32]) -> Check {
        if bits_equal(per_run, &self.reference) {
            Check::Matched
        } else {
            Check::Mismatched
        }
    }

    fn set_up_again(&mut self) -> Result<(SetupTimes, bool)> {
        let (_, cold, times) = Self::set_up(self.model, self.seed)?;
        Ok((times, bits_equal(&cold, &self.reference)))
    }

    fn verify_after(&mut self) -> Result<usize> {
        Ok(0)
    }

    fn describe(&self) -> String {
        match self.ran_on {
            Some((engine, fallbacks)) => format!(
                "# engine: {engine} ({fallbacks} ladder fallbacks), batch {ENGINE_BATCH}, \
                 checked against MonteCarloEngine::run"
            ),
            None => "# engine: not run".into(),
        }
    }
}

/// `paper_resnet`: one `evaluate_under_fault` call of 3 instances × 3 MC
/// passes on the trained proposed-variant MicroResNet.
struct ResnetWorkload {
    task: ImageTask,
    model: BuiltModel,
    /// The first repeated set-up's model: trained from the same seeds as
    /// `model`, it replays the first timed sweeps.
    twin: Option<BuiltModel>,
    fault_seed: u64,
    runs: usize,
    weights_per_instance: u64,
    /// Per-run metrics of the cold sweep.
    cold: Vec<f32>,
    /// Per-run metrics of the first timed sweeps, for the twin to replay.
    history: Vec<Vec<f32>>,
}

/// One `paper_resnet` sweep: a single `evaluate_under_fault` call.
fn library_sweep(
    task: &ImageTask,
    model: &mut BuiltModel,
    fault: FaultModel,
    runs: usize,
    seed: u64,
) -> Result<Vec<f32>> {
    Ok(evaluate_under_fault(model, fault, runs, seed, |m| task.accuracy(m))?.per_run)
}

impl ResnetWorkload {
    const FAULT: FaultModel = FaultModel::BinaryBitFlip { rate: 0.1 };

    /// Generates the data, trains the model and runs the cold sweep.
    fn set_up(fault_seed: u64) -> Result<(ImageTask, BuiltModel, Vec<f32>, SetupTimes)> {
        let scale = ExperimentScale::quick();
        let start = Instant::now();
        let task = ImageTask::prepare(&scale);
        let prepare = start.elapsed().as_secs_f64();
        let mut model = task.train(NormVariant::proposed())?;
        let train = start.elapsed().as_secs_f64() - prepare;
        let cold = library_sweep(&task, &mut model, Self::FAULT, scale.mc_runs, fault_seed)?;
        let times = SetupTimes {
            total: start.elapsed().as_secs_f64(),
            prepare,
            train,
        };
        Ok((task, model, cold, times))
    }

    fn prepare(seed: u64) -> Result<(Self, SetupTimes)> {
        let fault_seed = Rng::seed_from(seed).next_u64();
        let (task, mut model, cold, times) = Self::set_up(fault_seed)?;
        // The traced sweep replays evaluate_under_fault's weight route.
        if fault_target(&model, &Self::FAULT) != FaultTarget::Weights {
            return Err(NnError::Config(
                "paper_resnet expects bit flips to target the weights".into(),
            ));
        }
        let weights_per_instance = targeted_weights(&mut model, Self::FAULT)?;
        let w = Self {
            task,
            model,
            twin: None,
            fault_seed,
            runs: ExperimentScale::quick().mc_runs,
            weights_per_instance,
            cold,
            history: Vec::with_capacity(REPLAYED_SWEEPS),
        };
        Ok((w, times))
    }
}

impl Workload for ResnetWorkload {
    fn instances(&self) -> usize {
        self.runs
    }

    fn weights_per_sweep(&self) -> u64 {
        self.weights_per_instance * self.runs as u64
    }

    fn flops_per_sweep(&self) -> Option<f64> {
        None
    }

    fn sweep(&mut self) -> Result<Vec<f32>> {
        library_sweep(
            &self.task,
            &mut self.model,
            Self::FAULT,
            self.runs,
            self.fault_seed,
        )
    }

    /// `evaluate_under_fault`'s weight route, call for call, with a span
    /// around each call it makes. The twin replay checks it against the
    /// library bit for bit.
    fn traced_sweep(&mut self, spans: &mut BenchSpans) -> Result<Vec<f32>> {
        let mut per_run = Vec::with_capacity(self.runs);
        let mut inject = Duration::ZERO;
        for run in 0..self.runs {
            let mut rng = Rng::seed_from(
                self.fault_seed ^ (run as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut injector = WeightFaultInjector::new(Self::FAULT)?;
            let t = Instant::now();
            injector.inject(&mut self.model, &mut rng)?;
            inject += t.elapsed();
            let t = Instant::now();
            let value = self.task.accuracy(&mut self.model);
            spans.predict += t.elapsed();
            let t = Instant::now();
            injector.restore(&mut self.model)?;
            spans.restore += t.elapsed();
            per_run.push(value?);
        }
        spans.inject = Some(inject);
        Ok(per_run)
    }

    fn check(&mut self, per_run: &[f32]) -> Check {
        if self.history.len() < REPLAYED_SWEEPS {
            self.history.push(per_run.to_vec());
        }
        Check::Deferred
    }

    fn set_up_again(&mut self) -> Result<(SetupTimes, bool)> {
        let (_, model, cold, times) = Self::set_up(self.fault_seed)?;
        self.twin.get_or_insert(model);
        Ok((times, bits_equal(&cold, &self.cold)))
    }

    fn verify_after(&mut self) -> Result<usize> {
        let twin = self
            .twin
            .as_mut()
            .ok_or_else(|| NnError::Config("no twin model: the set-up was not repeated".into()))?;
        let mut failed = 0;
        for expected in &self.history {
            let got = library_sweep(&self.task, twin, Self::FAULT, self.runs, self.fault_seed)?;
            if !bits_equal(&got, expected) {
                failed += 1;
            }
        }
        Ok(failed)
    }

    fn describe(&self) -> String {
        format!(
            "# protocol: evaluate_under_fault, {} instances x {} MC passes, {}; \
             twin model replays the first {} timed sweeps",
            self.runs,
            ExperimentScale::quick().mc_passes,
            Self::FAULT.label(),
            self.history.len(),
        )
    }
}
