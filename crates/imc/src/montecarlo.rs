//! Monte-Carlo fault simulation (the paper's evaluation protocol).
//!
//! Every robustness number in the paper is the mean ± standard deviation of a
//! metric over 100 Monte-Carlo fault-simulation runs, each run representing
//! one simulated chip instance with its own random fault realization.
//! [`MonteCarloEngine`] reproduces that protocol: it repeatedly injects a
//! fresh fault realization into the network, evaluates a caller-provided
//! metric, restores the clean weights, and aggregates the results.
//!
//! Every instance derives its RNG stream from the base seed and its own
//! index alone, so the per-run metrics — and therefore the aggregate
//! statistics — are **bit-identical** across engines, batch sizes, thread
//! counts and scheduling orders. Five entry points:
//!
//! - [`MonteCarloEngine::run`] — the sequential oracle on one network, which
//!   every bit-identity test compares against.
//! - [`MonteCarloEngine::run_supervised`] — the same loop in either
//!   [`SweepDomain`] (f32 weights or i8 codes) under a [`SweepControl`].
//! - [`MonteCarloEngine::execute_on`] — runs a [`Sweep`] request (model
//!   factory, fault, domain, input, metric, batch, threads) on one engine:
//!   [`EngineKind::Planned`] compiles each worker's model into an
//!   `invnorm_nn::plan::Plan` holding `batch ≥ 1` stacked realizations and
//!   evaluates each stack in one planned forward; [`EngineKind::Parallel`]
//!   injects and restores per instance on the direct eval path, and runs
//!   every layer, including the `Lstm` that plans cannot run.
//! - [`MonteCarloEngine::execute`] — the ladder: planned first, parallel when
//!   a layer rejects plans, with a typed reason per skipped rung.
//! - [`MonteCarloEngine::run_auto`] — the ladder, returning a plain summary.
//!
//! Every engine body is supervised (see [`crate::supervise`]): it honors a
//! budget, quarantines panicking and non-finite runs, and resumes from a
//! checkpoint. `run` and `run_auto` map the outcome back to a summary with
//! [`SweepOutcome::into_summary`].

use crate::fault::{FaultLifetime, FaultModel, FaultSpec};
use crate::injector::{CodeFaultInjector, WeightFaultInjector};
use crate::supervise::{Attempt, RunLedger, SweepControl, SweepDomain, SweepOutcome};
use crate::Result;
use invnorm_nn::layer::{Layer, Mode};
use invnorm_nn::plan::Plan;
use invnorm_nn::{CheckpointFault, NnError};
use invnorm_tensor::stats::RunningStats;
use invnorm_tensor::telemetry::{self, RunScope, RunTelemetry};
use invnorm_tensor::{Rng, Tensor};
use serde::{Deserialize, Serialize};
use std::iter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Aggregated result of a Monte-Carlo fault simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonteCarloSummary {
    /// The fault model that was simulated.
    pub fault_label: String,
    /// Metric value of every run (chip instance).
    pub per_run: Vec<f32>,
    /// Mean metric over all runs.
    pub mean: f32,
    /// Standard deviation of the metric over all runs.
    pub std: f32,
    /// Smallest observed metric.
    pub min: f32,
    /// Largest observed metric.
    pub max: f32,
    /// The SIMD kernel tier the sweep executed under (see
    /// `invnorm_tensor::dispatch`) — the reproducibility boundary of the f32
    /// metrics: results are bit-identical across engines, fault models,
    /// batch sizes and thread counts *within* a tier.
    pub kernel_tier: &'static str,
    /// Per-engine-invocation telemetry (phase breakdown, counter deltas and
    /// the convergence stream). `Some` only when the run executed while
    /// [`telemetry::Telemetry::enabled`] was on; always `None` otherwise, so
    /// the statistics above stay bit-identical either way.
    pub telemetry: Option<RunTelemetry>,
}

impl MonteCarloSummary {
    /// Aggregates the per-run metrics of a sweep under `fault_label`, tagged
    /// with the active kernel tier and no telemetry.
    pub fn from_runs(fault_label: String, per_run: Vec<f32>) -> Self {
        let mut stats = RunningStats::new();
        stats.extend_from_slice(&per_run);
        Self {
            fault_label,
            mean: stats.mean(),
            std: stats.std(),
            min: stats.min(),
            max: stats.max(),
            per_run,
            kernel_tier: invnorm_tensor::dispatch::active().name(),
            telemetry: None,
        }
    }

    /// Number of simulated chip instances.
    pub fn runs(&self) -> usize {
        self.per_run.len()
    }
}

/// One engine of the Monte-Carlo ladder, fastest first. Reported by
/// [`MonteCarloEngine::execute`] and [`MonteCarloEngine::run_auto`] (which
/// engine produced a summary, which rungs were skipped) and recorded in
/// sweep checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Compiled plans with B ≥ 1 fused fault realizations per forward.
    Planned,
    /// Per-instance inject/restore on the direct eval path over a worker
    /// pool — supports every layer, including the `Lstm` that compiled
    /// plans cannot run.
    Parallel,
    /// The single-threaded loop of [`MonteCarloEngine::run`] and
    /// [`MonteCarloEngine::run_supervised`]. Never chosen by the ladder;
    /// appears in checkpoints taken from those entry points.
    Sequential,
}

impl EngineKind {
    /// The engine's name, as used in reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Planned => "planned",
            EngineKind::Parallel => "parallel",
            EngineKind::Sequential => "sequential",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How [`MonteCarloEngine::run_auto`] reacts when a fault configuration and
/// an engine do not fit together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationPolicy {
    /// Fall down the engine ladder ([`MonteCarloEngine::execute`]: planned →
    /// parallel), recording a typed reason per skipped rung. Per-run metrics
    /// are bit-identical across rungs wherever both engines support the
    /// configuration, so degrading never changes the statistics — only the
    /// throughput.
    #[default]
    Graceful,
    /// No fallback: run the planned engine
    /// ([`MonteCarloEngine::execute_on`] with [`EngineKind::Planned`]) and
    /// propagate its error loudly.
    Strict,
}

/// Why [`MonteCarloEngine::execute`] stepped past an engine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FallbackReason {
    /// The engine has no fault-lifetime model: its realizations outlive a
    /// single forward pass (snapshot/restore brackets), so it cannot honor a
    /// per-inference fault lifetime.
    Lifetime,
    /// A layer rejected the engine's evaluation protocol
    /// (from [`NnError::Unsupported`]).
    Unsupported {
        /// The offending layer's name.
        layer: &'static str,
        /// The operation the layer does not support.
        op: &'static str,
    },
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackReason::Lifetime => f.write_str("no per-inference fault lifetime model"),
            FallbackReason::Unsupported { layer, op } => {
                write!(f, "layer {layer} does not support {op}")
            }
        }
    }
}

/// One skipped rung of the ladder: which engine was bypassed and why.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FallbackStep {
    /// The engine that was skipped.
    pub engine: EngineKind,
    /// Why it could not run this configuration.
    pub reason: FallbackReason,
}

impl std::fmt::Display for FallbackStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "skipped {}: {}", self.engine, self.reason)
    }
}

/// Result of [`MonteCarloEngine::run_auto`]: the summary plus a report of
/// which engine produced it and every rung skipped on the way down.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LadderOutcome {
    /// The aggregated Monte-Carlo summary.
    pub summary: MonteCarloSummary,
    /// The engine that produced the summary.
    pub engine: EngineKind,
    /// The rungs skipped before `engine`, in ladder order (empty when the
    /// fastest engine ran).
    pub fallbacks: Vec<FallbackStep>,
}

impl std::fmt::Display for LadderOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{}]: {} runs, mean {:.6} ± {:.6} (min {:.6}, max {:.6})",
            self.summary.fault_label,
            self.engine,
            self.summary.runs(),
            self.summary.mean,
            self.summary.std,
            self.summary.min,
            self.summary.max,
        )?;
        for step in &self.fallbacks {
            write!(f, "\n  {step}")?;
        }
        Ok(())
    }
}

/// Result of [`MonteCarloEngine::execute`]: the supervised sweep outcome
/// plus the ladder report.
#[derive(Debug, Clone)]
pub struct SupervisedLadderOutcome {
    /// The (complete or interrupted) sweep outcome.
    pub outcome: SweepOutcome,
    /// The engine that produced it.
    pub engine: EngineKind,
    /// The rungs skipped before `engine`, in ladder order (always empty when
    /// resuming from a checkpoint — resume pins the engine).
    pub fallbacks: Vec<FallbackStep>,
}

/// One Monte-Carlo sweep for the factory-driven engines
/// ([`MonteCarloEngine::execute`] and [`MonteCarloEngine::execute_on`]).
///
/// Each worker builds its own model copy with `factory` (trained networks
/// are not `Clone`; factories must reproduce identical weights, e.g. by
/// re-training with a fixed seed or loading a shared checkpoint), evaluates
/// `input` under every fault realization, and scores each realization's
/// output with `metric`. Start from [`Sweep::new`] and set the other fields
/// with struct-update syntax:
///
/// ```
/// use invnorm_imc::montecarlo::{MonteCarloEngine, Sweep};
/// use invnorm_imc::{FaultModel, SweepControl};
/// use invnorm_nn::linear::Linear;
/// use invnorm_tensor::{Rng, Tensor};
///
/// let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut Rng::seed_from(1));
/// let fault = FaultModel::AdditiveVariation { sigma: 0.1 };
/// let sweep = Sweep {
///     batch: 4,
///     threads: 2,
///     ..Sweep::new(
///         || Linear::new(8, 2, &mut Rng::seed_from(2)),
///         fault,
///         &x,
///         |out: &Tensor| Ok(out.sum()),
///     )
/// };
/// let ladder = MonteCarloEngine::new(8, 3).execute(&sweep, &SweepControl::new())?;
/// assert_eq!(ladder.outcome.summary().runs(), 8);
/// # Ok::<(), invnorm_nn::NnError>(())
/// ```
pub struct Sweep<'a, F, E> {
    /// Builds one model copy per worker (again after a quarantined panic).
    pub factory: F,
    /// The fault model and its lifetime.
    pub fault: FaultSpec,
    /// Whether faults land on the f32 weights or on the i8 codes.
    pub domain: SweepDomain,
    /// The input of every evaluation forward.
    pub input: &'a Tensor,
    /// Scores one realization's output.
    pub metric: E,
    /// Fault realizations stacked per planned forward (`≥ 1`); the parallel
    /// engine evaluates one at a time.
    pub batch: usize,
    /// Rayon worker threads.
    pub threads: usize,
}

impl<'a, F, E> Sweep<'a, F, E> {
    /// A sweep on the f32 weights, one realization per forward, on one
    /// thread.
    pub fn new(factory: F, fault: impl Into<FaultSpec>, input: &'a Tensor, metric: E) -> Self {
        Self {
            factory,
            fault: fault.into(),
            domain: SweepDomain::Weights,
            input,
            metric,
            batch: 1,
            threads: 1,
        }
    }
}

/// Injector dispatch, so the f32 and code-domain loops are literally the
/// same code.
enum AnyInjector {
    Weights(WeightFaultInjector),
    Codes(CodeFaultInjector),
}

impl AnyInjector {
    fn new(domain: SweepDomain, fault: FaultModel) -> Self {
        match domain {
            SweepDomain::Weights => AnyInjector::Weights(WeightFaultInjector::new_unchecked(fault)),
            SweepDomain::Codes => AnyInjector::Codes(CodeFaultInjector::new_unchecked(fault)),
        }
    }

    fn inject<L: Layer + ?Sized>(&mut self, network: &mut L, rng: &mut Rng) -> Result<()> {
        match self {
            AnyInjector::Weights(i) => i.inject(network, rng),
            AnyInjector::Codes(i) => i.inject(network, rng),
        }
    }

    fn restore<L: Layer + ?Sized>(&mut self, network: &mut L) -> Result<()> {
        match self {
            AnyInjector::Weights(i) => i.restore(network),
            AnyInjector::Codes(i) => i.restore(network),
        }
    }

    fn realize_plan_batch<L: Layer + ?Sized>(
        &mut self,
        network: &mut L,
        rngs: &mut [Rng],
    ) -> Result<()> {
        match self {
            AnyInjector::Weights(i) => i.realize_plan_batch(network, rngs),
            AnyInjector::Codes(i) => i.realize_plan_batch(network, rngs),
        }
    }
}

/// Monte-Carlo fault-simulation engine.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloEngine {
    runs: usize,
    seed: u64,
}

impl MonteCarloEngine {
    /// Creates an engine running `runs` chip instances (at least one) from a
    /// base seed; instance `i` uses an independent RNG stream derived from
    /// `seed` and `i`.
    pub fn new(runs: usize, seed: u64) -> Self {
        Self {
            runs: runs.max(1),
            seed,
        }
    }

    /// The paper's setting: 100 chip instances.
    pub fn paper_default() -> Self {
        Self::new(100, 0xC0FFEE)
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Number of chip instances a parallel worker claims per steal. Small
    /// enough to balance heterogeneous evaluation times, large enough to
    /// amortize the atomic increment.
    pub const CHUNK: usize = 4;

    /// Independent RNG stream for chip instance `run`, identical regardless of
    /// which thread (or call order) simulates it.
    fn run_rng(seed: u64, run: usize) -> Rng {
        Rng::seed_from(seed ^ (run as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Validates the model of `spec` and rejects a per-inference lifetime on
    /// behalf of an engine whose realizations outlive a single forward pass
    /// (snapshot/restore brackets). Returns the bare model for engines that
    /// realize once per run.
    fn require_static(spec: FaultSpec, engine: &'static str) -> Result<FaultModel> {
        spec.model.validate()?;
        if spec.lifetime == FaultLifetime::PerInference {
            return Err(NnError::fault_unsupported(
                engine,
                "per-inference fault lifetime",
            ));
        }
        Ok(spec.model)
    }

    /// Runs the simulation on a single network, injecting and restoring
    /// faults around every evaluation — the sequential oracle every other
    /// engine is checked against bit for bit.
    ///
    /// `evaluate` receives the faulty network and returns the metric of
    /// interest (accuracy, mIoU, RMSE, NLL, ...).
    ///
    /// Accepts a [`FaultModel`] or a [`FaultSpec`]; the snapshot/restore
    /// bracket holds each realization fixed across the whole `evaluate`
    /// call, so a per-inference fault lifetime is rejected with
    /// [`NnError::FaultUnsupported`] — use the planned engine for that.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault configuration is invalid or
    /// unsupported, or when injection, evaluation or restoration fails; the
    /// network is restored to its clean weights before the error is returned
    /// whenever possible. A non-finite metric or a panicking evaluation
    /// fails the sweep with the lowest such run (see
    /// [`SweepOutcome::into_summary`]).
    pub fn run<L, F>(
        &self,
        network: &mut L,
        fault: impl Into<FaultSpec>,
        evaluate: F,
    ) -> Result<MonteCarloSummary>
    where
        L: Layer + ?Sized,
        F: FnMut(&mut L) -> Result<f32>,
    {
        self.run_supervised(
            SweepDomain::Weights,
            network,
            fault,
            evaluate,
            &SweepControl::new(),
        )?
        .into_summary()
    }

    /// The sequential engine in either fault domain, under `control`:
    /// honors the control's [`crate::supervise::RunBudget`] between chip
    /// instances, quarantines panicking and non-finite runs instead of
    /// failing the sweep, and resumes from the control's checkpoint when one
    /// is given. See [`crate::supervise`] for the full semantics.
    ///
    /// With [`SweepDomain::Codes`] each realization is injected **directly
    /// into the i8 weight codes** (via [`CodeFaultInjector`]) of a network
    /// built from `invnorm_nn::quantized` layers: faults land on the
    /// representation the hardware programs, and every forward inside
    /// `evaluate` runs through the integer GEMM on the faulty codes. Chip
    /// instance `i` uses the same `(seed, i)` stream in both domains, so a
    /// quantized simulation is directly comparable to its f32 counterpart.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault configuration is invalid or
    /// unsupported, when a resume checkpoint does not match this sweep, or
    /// when injection, evaluation or restoration fails *with a genuine
    /// error* (an `Err` from `evaluate` still propagates — only panics and
    /// non-finite metrics are quarantined).
    pub fn run_supervised<L, F>(
        &self,
        domain: SweepDomain,
        network: &mut L,
        fault: impl Into<FaultSpec>,
        mut evaluate: F,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        L: Layer + ?Sized,
        F: FnMut(&mut L) -> Result<f32>,
    {
        let fault = Self::require_static(fault.into(), "MonteCarloEngine::run")?;
        let scope = RunScope::begin();
        let mut ledger = RunLedger::new(
            EngineKind::Sequential,
            domain,
            self.seed,
            self.runs,
            fault.label(),
            control.resume.as_ref(),
        )?;
        for run in 0..self.runs {
            if ledger.is_done(run) {
                continue;
            }
            if control.budget.interrupted().is_some() {
                break;
            }
            let attempt = Self::simulate_one(network, domain, fault, self.seed, run, &mut evaluate);
            ledger.record_attempt(run, 1, attempt.map(|r| r.map(iter::once)))?;
        }
        Ok(ledger.finish(scope, &control.budget))
    }

    /// Injects, evaluates and restores a single chip instance — the inner
    /// step of the sequential and parallel engines. A panic in `evaluate` is
    /// caught and the clean weights are still restored; a genuine
    /// evaluation error takes precedence over a restore failure. Depends
    /// only on `(seed, run)`, not on which thread executes it.
    // lint: no_alloc
    fn simulate_one<M: Layer + ?Sized>(
        model: &mut M,
        domain: SweepDomain,
        fault: FaultModel,
        seed: u64,
        run: usize,
        evaluate: impl FnOnce(&mut M) -> Result<f32>,
    ) -> Attempt<f32> {
        let mut rng = Self::run_rng(seed, run);
        let mut injector = AnyInjector::new(domain, fault);
        if let Err(e) = injector.inject(model, &mut rng) {
            return Ok(Err(e));
        }
        // The closure fuses forward and metric; span both together.
        let result = {
            let _span = telemetry::span(telemetry::Phase::Forward);
            catch_unwind(AssertUnwindSafe(|| evaluate(model)))
        };
        let restored = injector.restore(model);
        match result {
            Ok(Err(e)) => Ok(Err(e)),
            Ok(Ok(metric)) => Ok(restored.map(|()| metric)),
            Err(payload) => restored.map_or_else(|e| Ok(Err(e)), |()| Err(payload)),
        }
    }

    /// Runs `sweep` on one engine, without the ladder.
    ///
    /// - [`EngineKind::Planned`]: each worker builds its model once and
    ///   compiles it into a plan for the shape of `input`
    ///   (`Plan::compile_batched`): one-shot shape inference, arena-backed
    ///   buffers, and — per weighted layer — `batch` stacked faulty buffers
    ///   with per-realization cached packed panels, all reserved at compile
    ///   time. Per batch of chip instances, the injector materializes the
    ///   realizations from the per-instance RNG streams straight into the
    ///   stacked buffers ([`WeightFaultInjector::realize_plan_batch`] /
    ///   [`CodeFaultInjector::realize_plan_batch`]; the clean weights are
    ///   never touched) — sparse stuck-at realizations land in the packed
    ///   panels cell by cell, drift scales the whole panel stack in place,
    ///   dense models re-pack only dirty rows — and ONE planned forward
    ///   evaluates the whole stack, with the cached activation panels
    ///   streamed against every realization's weight panel. `metric` then
    ///   scores each realization's rows of the stacked output. The stack is
    ///   capped so every worker gets at least one batch, and a smaller tail
    ///   batch recompiles the worker's plan. Both fault lifetimes are
    ///   supported: under [`FaultLifetime::PerInference`] the plan
    ///   re-realizes before every forward and disables its frozen-input
    ///   caching; since the engine runs one forward per chip instance, the
    ///   per-run metrics equal the static lifetime's. The network must be
    ///   built from plan-capable layers; a layer with fault-targetable
    ///   weights but no plan support — today only `Lstm` — is rejected with
    ///   [`NnError::Unsupported`]. A panic quarantines its whole batch (one
    ///   fused forward is one failure domain), and the worker rebuilds its
    ///   model and recompiles.
    /// - [`EngineKind::Parallel`]: every worker claims chip instances in
    ///   chunks of [`MonteCarloEngine::CHUNK`] from a shared atomic counter
    ///   (work stealing) and evaluates `metric(&model.forward(input,
    ///   Mode::Eval)?)` between an inject and a restore — the sequential
    ///   step on its own model copy, so it runs every layer. A panic
    ///   quarantines its run and the worker rebuilds its model. It has no
    ///   fault-lifetime model and rejects a per-inference lifetime with
    ///   [`NnError::FaultUnsupported`].
    /// - [`EngineKind::Sequential`] needs a network, not a factory: it is
    ///   rejected with [`NnError::FaultUnsupported`]; call
    ///   [`MonteCarloEngine::run_supervised`].
    ///
    /// Both engines use the `(seed, i)` stream of instance `i` and write its
    /// metric slot, so their per-run metrics are **bit-identical** to
    /// [`MonteCarloEngine::run_supervised`] evaluating
    /// `metric(network.forward(input))` in the same domain, for every batch
    /// size and thread count. Networks that are stochastic at evaluation time
    /// are not reproducible across engines. Budgets, quarantine and resume
    /// follow `control` (see [`crate::supervise`]); a resumed batch re-runs
    /// whole and the ledger ignores its re-records.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault configuration is invalid or
    /// unsupported, when a resume checkpoint does not match this sweep and
    /// engine, or when compilation, injection, evaluation or the metric
    /// fails with a genuine error; with several, the lowest-indexed failing
    /// instance (or batch) is reported.
    pub fn execute_on<M, F, E>(
        &self,
        engine: EngineKind,
        sweep: &Sweep<'_, F, E>,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        match engine {
            EngineKind::Planned => self.planned_body(sweep, control),
            EngineKind::Parallel => self.parallel_body(sweep, control),
            EngineKind::Sequential => Err(NnError::fault_unsupported(
                "the sequential engine",
                "a factory-driven sweep (it runs one network: call \
                 MonteCarloEngine::run_supervised)",
            )),
        }
    }

    /// The parallel engine body (see [`MonteCarloEngine::execute_on`]).
    fn parallel_body<M, F, E>(
        &self,
        sweep: &Sweep<'_, F, E>,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        let fault = Self::require_static(sweep.fault, "the parallel engine")?;
        let scope = RunScope::begin();
        let mut ledger = RunLedger::new(
            EngineKind::Parallel,
            sweep.domain,
            self.seed,
            self.runs,
            fault.label(),
            control.resume.as_ref(),
        )?;
        let done = ledger.done_mask();
        let budget = &control.budget;
        let (seed, runs, domain, input) = (self.seed, self.runs, sweep.domain, sweep.input);
        let threads = sweep.threads.clamp(1, runs);
        let n_chunks = runs.div_ceil(Self::CHUNK);
        let next_chunk = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, Attempt<f32>)>> = Mutex::new(Vec::with_capacity(runs));
        rayon::scope(|s| {
            for _ in 0..threads {
                let next_chunk = &next_chunk;
                let collected = &collected;
                let factory = &sweep.factory;
                let metric = &sweep.metric;
                let done = &done;
                s.spawn(move || {
                    let mut model = factory();
                    let mut local: Vec<(usize, Attempt<f32>)> = Vec::new();
                    'steal: loop {
                        let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                        if chunk >= n_chunks {
                            break;
                        }
                        let start = chunk * Self::CHUNK;
                        let end = (start + Self::CHUNK).min(runs);
                        for run in start..end {
                            if done[run] {
                                continue;
                            }
                            if budget.interrupted().is_some() {
                                break 'steal;
                            }
                            let attempt =
                                Self::simulate_one(&mut model, domain, fault, seed, run, |m| {
                                    metric(&m.forward(input, Mode::Eval)?)
                                });
                            if attempt.is_err() {
                                // The panic left the model in an unknown
                                // state; rebuild it.
                                model = factory();
                            }
                            local.push((run, attempt));
                        }
                    }
                    collected
                        .lock()
                        .expect("monte-carlo result lock poisoned")
                        .append(&mut local);
                });
            }
        });
        let mut collected = collected
            .into_inner()
            .expect("monte-carlo result lock poisoned");
        collected.sort_by_key(|(run, _)| *run);
        for (run, attempt) in collected {
            ledger.record_attempt(run, 1, attempt.map(|r| r.map(iter::once)))?;
        }
        Ok(ledger.finish(scope, budget))
    }

    /// The planned engine body (see [`MonteCarloEngine::execute_on`]).
    fn planned_body<M, F, E>(
        &self,
        sweep: &Sweep<'_, F, E>,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        sweep.fault.model.validate()?;
        let scope = RunScope::begin();
        let (fault, lifetime) = (sweep.fault.model, sweep.fault.lifetime);
        let (seed, runs, domain, input) = (self.seed, self.runs, sweep.domain, sweep.input);
        let mut ledger = RunLedger::new(
            EngineKind::Planned,
            domain,
            seed,
            runs,
            fault.label(),
            control.resume.as_ref(),
        )?;
        let done = ledger.done_mask();
        let budget = &control.budget;
        // Cap the stack size so every worker gets at least one batch:
        // per-run metrics depend only on `(seed, run)`, so regrouping runs
        // into smaller stacks is bit-identical — but leaving workers idle
        // is pure wall-clock loss.
        let batch = sweep
            .batch
            .clamp(1, runs)
            .min(runs.div_ceil(sweep.threads.max(1)))
            .max(1);
        let n_batches = runs.div_ceil(batch);
        let threads = sweep.threads.clamp(1, n_batches);
        let next_batch = AtomicUsize::new(0);
        type BatchEntry = (usize, usize, Attempt<Vec<f32>>);
        let collected: Mutex<Vec<BatchEntry>> = Mutex::new(Vec::with_capacity(n_batches));
        rayon::scope(|s| {
            for _ in 0..threads {
                let next_batch = &next_batch;
                let collected = &collected;
                let factory = &sweep.factory;
                let metric = &sweep.metric;
                let done = &done;
                s.spawn(move || {
                    let mut model = factory();
                    // Compiled lazily on the first claimed batch so a
                    // compilation failure is attributed to a concrete run;
                    // recompiled (at most once per worker in practice) when
                    // a tail batch arrives with a smaller size.
                    let mut plan: Option<Plan> = None;
                    let mut rngs: Vec<Rng> = Vec::with_capacity(batch);
                    // Reusable per-worker staging for one realization's
                    // slice of the stacked output, so scoring metrics does
                    // not allocate per run.
                    let mut realization: Option<Tensor> = None;
                    let mut local: Vec<BatchEntry> = Vec::new();
                    loop {
                        let bi = next_batch.fetch_add(1, Ordering::Relaxed);
                        if bi >= n_batches {
                            break;
                        }
                        let start = bi * batch;
                        let bsize = batch.min(runs - start);
                        // Skip fully-accounted batches (resume) before any
                        // compile work; a partially-done batch re-runs whole
                        // — the replayed values are identical and the ledger
                        // ignores re-records.
                        if done[start..start + bsize].iter().all(|d| *d) {
                            continue;
                        }
                        if budget.interrupted().is_some() {
                            break;
                        }
                        if plan.as_ref().is_none_or(|p| p.batch() != bsize) {
                            // The first compile is unavoidable; only a
                            // size-mismatched tail batch counts as a recompile.
                            if plan.is_some() {
                                telemetry::count(telemetry::Counter::TailRecompiles, 1);
                            }
                            model.plan_end();
                            match Plan::compile_batched(&mut model, input, bsize) {
                                Ok(mut p) => {
                                    p.set_fault_lifetime(lifetime);
                                    plan = Some(p);
                                }
                                Err(e) => {
                                    local.push((start, bsize, Ok(Err(e))));
                                    break;
                                }
                            }
                        }
                        let plan_ref = plan.as_mut().expect("plan compiled above");
                        rngs.clear();
                        rngs.extend((0..bsize).map(|i| Self::run_rng(seed, start + i)));
                        let attempt = catch_unwind(AssertUnwindSafe(|| {
                            Self::simulate_planned_batch(
                                &mut model,
                                plan_ref,
                                domain,
                                fault,
                                &mut rngs,
                                &mut realization,
                                metric,
                            )
                        }));
                        if attempt.is_err() {
                            // The panic left the model, its plan and the
                            // staging tensor in an unknown state; rebuild
                            // everything (the next claimed batch recompiles
                            // lazily).
                            plan = None;
                            model = factory();
                            realization = None;
                        }
                        local.push((start, bsize, attempt));
                    }
                    model.plan_end();
                    collected
                        .lock()
                        .expect("monte-carlo result lock poisoned")
                        .append(&mut local);
                });
            }
        });
        let mut collected = collected
            .into_inner()
            .expect("monte-carlo result lock poisoned");
        collected.sort_by_key(|(start, _, _)| *start);
        for (start, bsize, attempt) in collected {
            ledger.record_attempt(start, bsize, attempt)?;
        }
        Ok(ledger.finish(scope, budget))
    }

    /// Injects one batch of realizations into the plan's stacked faulty
    /// buffers, runs ONE fused planned forward, and scores each
    /// realization's rows of the stacked output — the inner step of the
    /// planned engine. Depends only on the streams in `rngs`, not on which
    /// thread executes it.
    #[allow(clippy::too_many_arguments)]
    fn simulate_planned_batch<M: Layer + ?Sized>(
        model: &mut M,
        plan: &mut Plan,
        domain: SweepDomain,
        fault: FaultModel,
        rngs: &mut [Rng],
        realization: &mut Option<Tensor>,
        metric: &impl Fn(&Tensor) -> Result<f32>,
    ) -> Result<Vec<f32>> {
        let bsize = rngs.len();
        AnyInjector::new(domain, fault).realize_plan_batch(model, rngs)?;
        let out = {
            let _span = telemetry::span(telemetry::Phase::Forward);
            plan.forward(model)?
        };
        let d0 = out.dims()[0];
        if !d0.is_multiple_of(bsize) {
            return Err(NnError::Config(format!(
                "stacked output rows {d0} not divisible by batch {bsize}"
            )));
        }
        let per = out.numel() / bsize;
        let mut dims = out.dims().to_vec();
        dims[0] = d0 / bsize;
        // (Re)shape the worker's staging tensor only when the
        // per-realization shape changes (first batch, or a tail batch).
        if realization.as_ref().map(Tensor::dims) != Some(dims.as_slice()) {
            *realization = Some(Tensor::zeros(&dims));
        }
        let stage = realization.as_mut().expect("staging tensor initialized");
        let _span = telemetry::span(telemetry::Phase::Metric);
        let mut metrics = Vec::with_capacity(bsize);
        for b in 0..bsize {
            stage
                .data_mut()
                .copy_from_slice(&out.data()[b * per..(b + 1) * per]);
            metrics.push(metric(stage)?);
        }
        Ok(metrics)
    }

    /// Runs `sweep` on the fastest engine that supports its fault
    /// configuration and network, degrading down the ladder planned →
    /// parallel and reporting every skipped rung with a typed reason.
    ///
    /// Two kinds of capability gaps trigger a fallback:
    ///
    /// - **Lifetime**: a per-inference fault lifetime is only honored by the
    ///   planned engine; the parallel rung is skipped pre-flight with
    ///   [`FallbackReason::Lifetime`].
    /// - **Layer support**: a layer that rejects compiled plans (today only
    ///   `Lstm`) surfaces as [`NnError::Unsupported`], recorded as
    ///   [`FallbackReason::Unsupported`]; the ladder continues downward. The
    ///   parallel rung at the bottom supports every layer.
    ///
    /// Per-run metrics are **bit-identical** across both rungs for every
    /// configuration both engines support, so degrading never changes the
    /// reported statistics — only throughput.
    ///
    /// When `control.resume` carries a checkpoint, the ladder is **not**
    /// consulted: the checkpoint pins the engine that produced it (resuming
    /// on a different rung would be answering a different question about
    /// which engine's failure domains quarantined which runs), so the sweep
    /// resumes directly on `checkpoint.engine` with an empty fallback
    /// report, and the engine's ledger rejects a checkpoint whose domain,
    /// seed, run count or fault label differ from `sweep`. A checkpoint
    /// taken from the sequential engine is rejected with
    /// [`CheckpointFault::Mismatch`] — the ladder never produces one, so
    /// being handed one is a caller bug.
    ///
    /// # Errors
    ///
    /// Propagates the first non-capability error immediately, and returns
    /// [`NnError::FaultUnsupported`] listing every rung's reason when the
    /// whole ladder is exhausted (e.g. an unplannable layer combined with a
    /// per-inference lifetime). Fails with a typed [`NnError::Checkpoint`]
    /// when the resume checkpoint does not match the sweep.
    pub fn execute<M, F, E>(
        &self,
        sweep: &Sweep<'_, F, E>,
        control: &SweepControl,
    ) -> Result<SupervisedLadderOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        if let Some(checkpoint) = control.resume.as_ref() {
            let engine = checkpoint.engine;
            if engine == EngineKind::Sequential {
                return Err(NnError::Checkpoint(CheckpointFault::Mismatch {
                    field: "engine",
                    expected: "a ladder engine (the ladder never runs the sequential engine)"
                        .into(),
                    got: engine.name().into(),
                }));
            }
            return Ok(SupervisedLadderOutcome {
                outcome: self.execute_on(engine, sweep, control)?,
                engine,
                fallbacks: Vec::new(),
            });
        }
        let mut fallbacks: Vec<FallbackStep> = Vec::new();
        for engine in [EngineKind::Planned, EngineKind::Parallel] {
            // Pre-flight: the parallel engine has no fault-lifetime model
            // (its realizations outlive a forward pass), so a per-inference
            // lifetime cannot reach it.
            if sweep.fault.lifetime == FaultLifetime::PerInference && engine == EngineKind::Parallel
            {
                telemetry::count(telemetry::Counter::LadderFallbacks, 1);
                fallbacks.push(FallbackStep {
                    engine,
                    reason: FallbackReason::Lifetime,
                });
                continue;
            }
            match self.execute_on(engine, sweep, control) {
                Ok(outcome) => {
                    return Ok(SupervisedLadderOutcome {
                        outcome,
                        engine,
                        fallbacks,
                    })
                }
                // A capability gap, not a failure: record it and degrade.
                Err(NnError::Unsupported { layer, op }) => {
                    telemetry::count(telemetry::Counter::LadderFallbacks, 1);
                    fallbacks.push(FallbackStep {
                        engine,
                        reason: FallbackReason::Unsupported { layer, op },
                    });
                }
                Err(e) => return Err(e),
            }
        }
        let reasons = fallbacks
            .iter()
            .map(|step| format!("{} ({})", step.engine.name(), step.reason))
            .collect::<Vec<_>>()
            .join(", ");
        Err(NnError::fault_unsupported(
            "MonteCarloEngine::execute",
            format!("the fault configuration on any engine: {reasons}"),
        ))
    }

    /// [`MonteCarloEngine::execute`] on an f32-weight sweep of `batch`
    /// stacked realizations over `threads` workers, returning a plain
    /// summary: [`DegradationPolicy::Graceful`] walks the ladder,
    /// [`DegradationPolicy::Strict`] runs
    /// [`MonteCarloEngine::execute_on`] with [`EngineKind::Planned`] and
    /// propagates its error loudly. The outcome maps through
    /// [`SweepOutcome::into_summary`].
    ///
    /// # Errors
    ///
    /// See [`MonteCarloEngine::execute`] and
    /// [`SweepOutcome::into_summary`]; under `Strict`, returns the planned
    /// engine's error.
    #[allow(clippy::too_many_arguments)]
    pub fn run_auto<M, F, E>(
        &self,
        factory: F,
        fault: impl Into<FaultSpec>,
        input: &Tensor,
        metric: E,
        batch: usize,
        threads: usize,
        policy: DegradationPolicy,
    ) -> Result<LadderOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        let sweep = Sweep {
            batch,
            threads,
            ..Sweep::new(factory, fault, input, metric)
        };
        let control = SweepControl::new();
        let ladder = match policy {
            DegradationPolicy::Graceful => self.execute(&sweep, &control)?,
            DegradationPolicy::Strict => SupervisedLadderOutcome {
                outcome: self.execute_on(EngineKind::Planned, &sweep, &control)?,
                engine: EngineKind::Planned,
                fallbacks: Vec::new(),
            },
        };
        Ok(LadderOutcome {
            summary: ladder.outcome.into_summary()?,
            engine: ladder.engine,
            fallbacks: ladder.fallbacks,
        })
    }
}

impl Default for MonteCarloEngine {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invnorm_nn::layer::Mode;
    use invnorm_nn::linear::Linear;
    use invnorm_nn::Sequential;
    use invnorm_tensor::Tensor;

    fn simple_net(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from(seed);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(4, 4, &mut rng)));
        net.push(Box::new(Linear::new(4, 2, &mut rng)));
        net
    }

    /// `sweep` on one engine under a default control, as a plain summary.
    fn sweep_on<M, F, E>(
        mc: &MonteCarloEngine,
        engine: EngineKind,
        sweep: &Sweep<'_, F, E>,
    ) -> Result<MonteCarloSummary>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        mc.execute_on(engine, sweep, &SweepControl::new())?
            .into_summary()
    }

    /// The sequential engine on the i8 codes, as a plain summary.
    fn run_codes<F>(
        mc: &MonteCarloEngine,
        network: &mut Sequential,
        fault: impl Into<FaultSpec>,
        evaluate: F,
    ) -> Result<MonteCarloSummary>
    where
        F: FnMut(&mut Sequential) -> Result<f32>,
    {
        mc.run_supervised(
            SweepDomain::Codes,
            network,
            fault,
            evaluate,
            &SweepControl::new(),
        )?
        .into_summary()
    }

    #[test]
    fn fault_free_simulation_has_zero_variance() {
        let mut net = simple_net(1);
        let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut Rng::seed_from(2));
        let engine = MonteCarloEngine::new(10, 42);
        let summary = engine
            .run(&mut net, FaultModel::None, |n| {
                Ok(n.forward(&x, Mode::Eval)?.sum())
            })
            .unwrap();
        assert_eq!(summary.runs(), 10);
        assert!(summary.std < 1e-6);
        assert_eq!(summary.min, summary.max);
        assert!(summary.fault_label.contains("fault-free"));
    }

    #[test]
    fn faulty_simulation_varies_and_restores_weights() {
        let mut net = simple_net(3);
        let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut Rng::seed_from(4));
        let clean_out = net.forward(&x, Mode::Eval).unwrap();
        let engine = MonteCarloEngine::new(20, 7);
        let summary = engine
            .run(
                &mut net,
                FaultModel::AdditiveVariation { sigma: 0.3 },
                |n| Ok(n.forward(&x, Mode::Eval)?.sum()),
            )
            .unwrap();
        assert!(summary.std > 0.0, "fault runs should differ");
        // Clean weights restored.
        let after = net.forward(&x, Mode::Eval).unwrap();
        assert!(clean_out.approx_eq(&after, 1e-6));
    }

    #[test]
    fn stronger_faults_cause_larger_deviation() {
        let mut net = simple_net(5);
        let x = Tensor::randn(&[16, 4], 0.0, 1.0, &mut Rng::seed_from(6));
        let clean = net.forward(&x, Mode::Eval).unwrap().mean();
        let engine = MonteCarloEngine::new(30, 9);
        let deviation = |sigma: f32, net: &mut Sequential| {
            engine
                .run(net, FaultModel::AdditiveVariation { sigma }, |n| {
                    Ok((n.forward(&x, Mode::Eval)?.mean() - clean).abs())
                })
                .unwrap()
                .mean
        };
        let weak = deviation(0.05, &mut net);
        let strong = deviation(0.8, &mut net);
        assert!(strong > weak, "strong {strong} vs weak {weak}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut Rng::seed_from(10));
        let run = |seed: u64| {
            let mut net = simple_net(11);
            MonteCarloEngine::new(5, seed)
                .run(
                    &mut net,
                    FaultModel::BitFlip {
                        rate: 0.05,
                        bits: 8,
                    },
                    |n| Ok(n.forward(&x, Mode::Eval)?.sum()),
                )
                .unwrap()
                .per_run
        };
        assert_eq!(run(123), run(123));
        assert_ne!(run(123), run(456));
    }

    #[test]
    fn parallel_matches_sequential_statistics() {
        let x = Tensor::randn(&[16, 4], 0.0, 1.0, &mut Rng::seed_from(14));
        let engine = MonteCarloEngine::new(16, 77);
        let fault = FaultModel::AdditiveVariation { sigma: 0.3 };
        let mut net = simple_net(15);
        let sequential = engine
            .run(&mut net, fault, |n| Ok(n.forward(&x, Mode::Eval)?.sum()))
            .unwrap();
        let parallel = sweep_on(
            &engine,
            EngineKind::Parallel,
            &Sweep {
                threads: 4,
                ..Sweep::new(|| simple_net(15), fault, &x, |out: &Tensor| Ok(out.sum()))
            },
        )
        .unwrap();
        assert_eq!(parallel.runs(), sequential.runs());
        // Same seeds and same model weights → per-run metrics bit-identical
        // to the sequential engine, in run order, regardless of which thread
        // executed each chip instance.
        assert_eq!(parallel.per_run, sequential.per_run);
        assert_eq!(parallel.mean.to_bits(), sequential.mean.to_bits());
        assert_eq!(parallel.std.to_bits(), sequential.std.to_bits());
    }

    #[test]
    fn parallel_is_bit_identical_for_every_thread_count() {
        let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut Rng::seed_from(21));
        let engine = MonteCarloEngine::new(13, 99);
        let fault = FaultModel::BitFlip {
            rate: 0.08,
            bits: 8,
        };
        let run_with = |threads: usize| {
            let sweep = Sweep {
                threads,
                ..Sweep::new(|| simple_net(22), fault, &x, |out: &Tensor| Ok(out.sum()))
            };
            sweep_on(&engine, EngineKind::Parallel, &sweep)
                .unwrap()
                .per_run
        };
        let reference = run_with(1);
        for threads in [2, 3, 7, 13] {
            let got = run_with(threads);
            let same = reference
                .iter()
                .zip(got.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same && got.len() == reference.len(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_error_reports_lowest_failing_run() {
        let engine = MonteCarloEngine::new(8, 5);
        let x = Tensor::ones(&[2, 4]);
        let result = sweep_on(
            &engine,
            EngineKind::Parallel,
            &Sweep {
                threads: 4,
                ..Sweep::new(
                    || simple_net(23),
                    FaultModel::None,
                    &x,
                    |_out: &Tensor| Err(NnError::Config("boom".into())),
                )
            },
        );
        assert!(result.is_err());
        // Every instance yields a non-finite metric; the reported error must
        // name the lowest-indexed instance (run 0) no matter which worker
        // finished first — the documented error-ordering contract.
        let result = sweep_on(
            &engine,
            EngineKind::Parallel,
            &Sweep {
                threads: 4,
                ..Sweep::new(
                    || simple_net(23),
                    FaultModel::AdditiveVariation { sigma: 0.1 },
                    &x,
                    |_out: &Tensor| Ok(f32::NAN),
                )
            },
        );
        let err = result.unwrap_err().to_string();
        assert!(err.contains("on run 0"), "unexpected error: {err}");
    }

    #[test]
    fn evaluation_error_still_restores_weights() {
        let mut net = simple_net(16);
        let x = Tensor::randn(&[4, 4], 0.0, 1.0, &mut Rng::seed_from(17));
        let clean = net.forward(&x, Mode::Eval).unwrap();
        let engine = MonteCarloEngine::new(3, 5);
        let mut calls = 0;
        let result = engine.run(
            &mut net,
            FaultModel::AdditiveVariation { sigma: 0.5 },
            |_n| {
                calls += 1;
                Err(NnError::Config("simulated evaluation failure".into()))
            },
        );
        assert!(result.is_err());
        assert_eq!(calls, 1);
        let after = net.forward(&x, Mode::Eval).unwrap();
        assert!(clean.approx_eq(&after, 1e-6));
    }

    #[test]
    fn non_finite_metric_is_rejected() {
        let mut net = simple_net(18);
        let engine = MonteCarloEngine::new(2, 5);
        let result = engine.run(&mut net, FaultModel::None, |_n| Ok(f32::NAN));
        assert!(result.is_err());
    }

    fn paired_float_and_quantized_nets(seed: u64) -> (Sequential, Sequential) {
        use invnorm_nn::quantized::QuantizedLinear;
        let mut rng = Rng::seed_from(seed);
        let l1 = Linear::new(16, 12, &mut rng);
        let l2 = Linear::new(12, 4, &mut rng);
        let q1 = QuantizedLinear::from_linear(&l1, 8).unwrap();
        let q2 = QuantizedLinear::from_linear(&l2, 8).unwrap();
        let mut fnet = Sequential::new();
        fnet.push(Box::new(l1));
        fnet.push(Box::new(l2));
        let mut qnet = Sequential::new();
        qnet.push(Box::new(q1));
        qnet.push(Box::new(q2));
        (fnet, qnet)
    }

    #[test]
    fn quantized_run_reproduces_float_path_within_quantization_tolerance() {
        let (mut fnet, mut qnet) = paired_float_and_quantized_nets(40);
        let x = Tensor::randn(&[16, 16], 0.0, 1.0, &mut Rng::seed_from(41));
        // Fault-free: the integer path must track the float path closely.
        let clean_f = fnet.forward(&x, Mode::Eval).unwrap();
        let clean_q = qnet.forward(&x, Mode::Eval).unwrap();
        let quant_err = clean_f.sub(&clean_q).unwrap().abs().max();
        let out_scale = clean_f.abs().max();
        assert!(
            quant_err <= 0.05 * out_scale,
            "quantization error {quant_err} vs output scale {out_scale}"
        );
        // Under bit-flip faults, the quantized engine (faults on codes,
        // integer forward) must reproduce the f32 engine's accuracy metric —
        // mean absolute deviation from each path's own clean output — to
        // within quantization tolerance.
        let engine = MonteCarloEngine::new(24, 7);
        let fault = FaultModel::BitFlip {
            rate: 0.03,
            bits: 8,
        };
        let cf = clean_f.clone();
        let float_summary = engine
            .run(&mut fnet, fault, |n| {
                Ok(n.forward(&x, Mode::Eval)?.sub(&cf)?.abs().mean())
            })
            .unwrap();
        let cq = clean_q.clone();
        let quant_summary = run_codes(&engine, &mut qnet, fault, |n| {
            Ok(n.forward(&x, Mode::Eval)?.sub(&cq)?.abs().mean())
        })
        .unwrap();
        assert!(float_summary.mean > 0.0 && quant_summary.mean > 0.0);
        let diff = (float_summary.mean - quant_summary.mean).abs();
        let scale = float_summary.mean.max(quant_summary.mean);
        assert!(
            diff <= 0.5 * scale,
            "float-path mean {} vs quantized-path mean {} (diff {diff})",
            float_summary.mean,
            quant_summary.mean
        );
        // The quantized engine restored the clean codes.
        let after = qnet.forward(&x, Mode::Eval).unwrap();
        assert!(clean_q.approx_eq(&after, 0.0));
    }

    #[test]
    fn quantized_run_is_deterministic_and_rejects_non_finite() {
        let run_means = |seed: u64| {
            let (_, mut qnet) = paired_float_and_quantized_nets(42);
            let x = Tensor::randn(&[4, 16], 0.0, 1.0, &mut Rng::seed_from(43));
            let engine = MonteCarloEngine::new(6, seed);
            run_codes(&engine, &mut qnet, FaultModel::StuckAt { rate: 0.2 }, |n| {
                Ok(n.forward(&x, Mode::Eval)?.sum())
            })
            .unwrap()
            .per_run
        };
        assert_eq!(run_means(9), run_means(9));
        assert_ne!(run_means(9), run_means(10));
        let (_, mut qnet) = paired_float_and_quantized_nets(42);
        let result = run_codes(
            &MonteCarloEngine::new(2, 1),
            &mut qnet,
            FaultModel::None,
            |_n| Ok(f32::NAN),
        );
        assert!(result.is_err());
    }

    /// All eight fault models of the catalogue, at strengths that actually
    /// perturb something.
    fn all_fault_models() -> [FaultModel; 8] {
        [
            FaultModel::None,
            FaultModel::AdditiveVariation { sigma: 0.3 },
            FaultModel::MultiplicativeVariation { sigma: 0.2 },
            FaultModel::UniformNoise { strength: 0.25 },
            FaultModel::BitFlip {
                rate: 0.05,
                bits: 8,
            },
            FaultModel::BinaryBitFlip { rate: 0.1 },
            FaultModel::StuckAt { rate: 0.15 },
            FaultModel::Drift {
                nu: 0.05,
                time_ratio: 100.0,
            },
        ]
    }

    /// An MLP with a normalization layer in the middle: the norm's rank-1
    /// affine parameters shift the global parameter indices, exercising the
    /// index re-basing that keeps the plan's RNG streams aligned with the
    /// sequential injector.
    fn mlp_with_norm(seed: u64) -> Sequential {
        use invnorm_nn::activation::Relu;
        use invnorm_nn::norm::GroupNorm;
        let mut rng = Rng::seed_from(seed);
        Sequential::new()
            .with(Box::new(Linear::new(8, 16, &mut rng)))
            .with(Box::new(GroupNorm::layer_norm(16)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Linear::new(16, 4, &mut rng)))
    }

    fn small_cnn(seed: u64) -> Sequential {
        use invnorm_nn::activation::Relu;
        use invnorm_nn::conv::Conv2d;
        use invnorm_nn::pool::MaxPool2d;
        use invnorm_nn::reshape::Flatten;
        let mut rng = Rng::seed_from(seed);
        Sequential::new()
            .with(Box::new(Conv2d::new(2, 4, 3, 1, 1, &mut rng)))
            .with(Box::new(Relu::new()))
            .with(Box::new(MaxPool2d::new(2)))
            .with(Box::new(Conv2d::new(4, 6, 3, 1, 1, &mut rng)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Flatten::new()))
            .with(Box::new(Linear::new(6 * 4 * 4, 3, &mut rng)))
    }

    fn quantized_net(seed: u64) -> Sequential {
        use invnorm_nn::activation::Relu;
        use invnorm_nn::quantized::QuantizedLinear;
        let mut rng = Rng::seed_from(seed);
        let l1 = Linear::new(12, 10, &mut rng);
        let l2 = Linear::new(10, 4, &mut rng);
        Sequential::new()
            .with(Box::new(QuantizedLinear::from_linear(&l1, 8).unwrap()))
            .with(Box::new(Relu::new()))
            .with(Box::new(QuantizedLinear::from_linear(&l2, 6).unwrap()))
    }

    #[test]
    fn planned_batched_is_bit_identical_to_sequential_for_all_fault_models() {
        let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut Rng::seed_from(250));
        let engine = MonteCarloEngine::new(10, 1234);
        for fault in all_fault_models() {
            let mut net = mlp_with_norm(251);
            let xc = x.clone();
            let sequential = engine
                .run(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
                .unwrap();
            // batch = runs exercises the single-batch case; 3 leaves a tail
            // batch of 1 (per-worker plan recompilation); 1 evaluates one
            // realization per forward.
            for batch in [1usize, 3, 10] {
                for threads in [1usize, 4] {
                    let sweep = Sweep {
                        batch,
                        threads,
                        ..Sweep::new(
                            || mlp_with_norm(251),
                            fault,
                            &x,
                            |out: &Tensor| Ok(out.sum()),
                        )
                    };
                    let fused = sweep_on(&engine, EngineKind::Planned, &sweep).unwrap();
                    assert_eq!(fused.runs(), sequential.runs());
                    let identical = sequential
                        .per_run
                        .iter()
                        .zip(fused.per_run.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        identical,
                        "{fault:?} batch={batch} threads={threads}: {:?} vs {:?}",
                        sequential.per_run, fused.per_run
                    );
                    assert_eq!(fused.mean.to_bits(), sequential.mean.to_bits());
                    assert_eq!(fused.std.to_bits(), sequential.std.to_bits());
                }
            }
        }
    }

    #[test]
    fn planned_batched_cnn_and_residual_are_bit_identical_to_sequential() {
        let x = Tensor::randn(&[3, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(260));
        let engine = MonteCarloEngine::new(9, 77);
        for fault in [
            FaultModel::AdditiveVariation { sigma: 0.2 },
            FaultModel::StuckAt { rate: 0.1 },
            FaultModel::Drift {
                nu: 0.05,
                time_ratio: 100.0,
            },
        ] {
            let mut net = small_cnn(261);
            let xc = x.clone();
            let sequential = engine
                .run(&mut net, fault, |n| {
                    Ok(n.forward(&xc, Mode::Eval)?.abs().mean())
                })
                .unwrap();
            for (batch, threads) in [(1usize, 1usize), (1, 4), (4, 1), (3, 4), (9, 2)] {
                let sweep = Sweep {
                    batch,
                    threads,
                    ..Sweep::new(
                        || small_cnn(261),
                        fault,
                        &x,
                        |out: &Tensor| Ok(out.abs().mean()),
                    )
                };
                let fused = sweep_on(&engine, EngineKind::Planned, &sweep).unwrap();
                let identical = sequential
                    .per_run
                    .iter()
                    .zip(fused.per_run.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(identical, "{fault:?} batch={batch} threads={threads}");
            }
        }

        // Residual block (identity skip + post activation) on the stacked
        // edges.
        use invnorm_nn::activation::Relu;
        use invnorm_nn::Residual;
        let build = |seed: u64| -> Sequential {
            let mut rng = Rng::seed_from(seed);
            let main = Sequential::new()
                .with(Box::new(Linear::new(6, 6, &mut rng)))
                .with(Box::new(Relu::new()));
            Sequential::new()
                .with(Box::new(
                    Residual::new(main).with_post(Box::new(Relu::new())),
                ))
                .with(Box::new(Linear::new(6, 2, &mut rng)))
        };
        let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut Rng::seed_from(262));
        let fault = FaultModel::AdditiveVariation { sigma: 0.25 };
        let engine = MonteCarloEngine::new(8, 99);
        let mut net = build(263);
        let xc = x.clone();
        let sequential = engine
            .run(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
            .unwrap();
        for batch in [1usize, 3] {
            let sweep = Sweep {
                batch,
                threads: 2,
                ..Sweep::new(|| build(263), fault, &x, |out: &Tensor| Ok(out.sum()))
            };
            let fused = sweep_on(&engine, EngineKind::Planned, &sweep).unwrap();
            let identical = sequential
                .per_run
                .iter()
                .zip(fused.per_run.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "residual planned batch={batch} diverged");
        }
    }

    #[test]
    fn planned_batched_quantized_is_bit_identical_to_sequential_for_all_fault_models() {
        let x = Tensor::randn(&[5, 12], 0.0, 1.0, &mut Rng::seed_from(270));
        let engine = MonteCarloEngine::new(10, 4321);
        for fault in all_fault_models() {
            let mut net = quantized_net(271);
            let xc = x.clone();
            let sequential = run_codes(&engine, &mut net, fault, |n| {
                Ok(n.forward(&xc, Mode::Eval)?.sum())
            })
            .unwrap();
            for batch in [1usize, 3, 10] {
                for threads in [1usize, 4] {
                    let sweep = Sweep {
                        domain: SweepDomain::Codes,
                        batch,
                        threads,
                        ..Sweep::new(
                            || quantized_net(271),
                            fault,
                            &x,
                            |out: &Tensor| Ok(out.sum()),
                        )
                    };
                    let fused = sweep_on(&engine, EngineKind::Planned, &sweep).unwrap();
                    // Same streams, same integer GEMM, same dequantization
                    // expression: the quantized planned path is not merely
                    // within quantization tolerance — it is bit-identical.
                    let identical = sequential
                        .per_run
                        .iter()
                        .zip(fused.per_run.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(identical, "{fault:?} batch={batch} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn planned_rejects_unsupported_layers_loudly() {
        use invnorm_nn::lstm::Lstm;
        let build = || -> Sequential {
            let mut rng = Rng::seed_from(180);
            Sequential::new().with(Box::new(Lstm::new(4, 6, false, &mut rng)))
        };
        let x = Tensor::randn(&[2, 5, 4], 0.0, 1.0, &mut Rng::seed_from(181));
        let engine = MonteCarloEngine::new(4, 7);
        for batch in [1usize, 2] {
            let sweep = Sweep {
                batch,
                ..Sweep::new(
                    build,
                    FaultModel::AdditiveVariation { sigma: 0.1 },
                    &x,
                    |out: &Tensor| Ok(out.sum()),
                )
            };
            let err = sweep_on(&engine, EngineKind::Planned, &sweep)
                .unwrap_err()
                .to_string();
            assert!(
                err.contains("compiled plans") && err.contains("Lstm"),
                "batch={batch}: {err}"
            );
        }
    }

    #[test]
    fn planned_metric_errors_and_non_finite_metrics_are_reported() {
        let engine = MonteCarloEngine::new(6, 5);
        let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut Rng::seed_from(190));
        for batch in [1usize, 2] {
            let sweep = Sweep {
                batch,
                threads: 2,
                ..Sweep::new(
                    || mlp_with_norm(191),
                    FaultModel::None,
                    &x,
                    |_out: &Tensor| Err(NnError::Config("boom".into())),
                )
            };
            assert!(sweep_on(&engine, EngineKind::Planned, &sweep).is_err());
            // A non-finite metric names the lowest failing run.
            let sweep = Sweep {
                batch,
                threads: 2,
                ..Sweep::new(
                    || mlp_with_norm(191),
                    FaultModel::AdditiveVariation { sigma: 0.1 },
                    &x,
                    |_out: &Tensor| Ok(f32::NAN),
                )
            };
            let err = sweep_on(&engine, EngineKind::Planned, &sweep)
                .unwrap_err()
                .to_string();
            assert!(err.contains("on run 0"), "batch={batch}: {err}");
        }
    }

    #[test]
    fn run_count_is_at_least_one() {
        assert_eq!(MonteCarloEngine::new(0, 1).runs(), 1);
        assert_eq!(MonteCarloEngine::paper_default().runs(), 100);
        assert_eq!(MonteCarloEngine::default().runs(), 100);
    }

    fn structured_fault_models() -> [FaultModel; 3] {
        use crate::crossbar::TileShape;
        use crate::fault::LineOrientation;
        [
            FaultModel::LineDefect {
                orientation: LineOrientation::Row,
                rate: 0.25,
                tile: TileShape { rows: 4, cols: 4 },
            },
            FaultModel::LineDefect {
                orientation: LineOrientation::Col,
                rate: 0.25,
                tile: TileShape { rows: 3, cols: 5 },
            },
            FaultModel::CorrelatedDrift {
                nu: 0.08,
                time_ratio: 100.0,
                sigma_nu: 0.4,
                tile: TileShape { rows: 4, cols: 4 },
            },
        ]
    }

    /// The tentpole guarantee: structured topologies (whole stuck lines,
    /// per-tile correlated drift) run on every engine of the ladder with
    /// per-run metrics bit-identical to the sequential reference, for every
    /// thread count — on a norm-bearing MLP and a CNN.
    #[test]
    fn structured_faults_are_bit_identical_across_all_engines() {
        type NetCase = (fn(u64) -> Sequential, u64, &'static [usize]);
        let engine = MonteCarloEngine::new(8, 2024);
        let nets: [NetCase; 2] = [
            (mlp_with_norm, 211, &[5, 8]),
            (small_cnn, 212, &[2, 2, 8, 8]),
        ];
        for (build, seed, dims) in nets {
            let x = Tensor::randn(dims, 0.0, 1.0, &mut Rng::seed_from(seed ^ 0xF00D));
            for fault in structured_fault_models() {
                let mut net = build(seed);
                let xc = x.clone();
                let sequential = engine
                    .run(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
                    .unwrap();
                for threads in [1usize, 4] {
                    let on = |engine_kind, batch| {
                        let sweep = Sweep {
                            batch,
                            threads,
                            ..Sweep::new(|| build(seed), fault, &x, |out: &Tensor| Ok(out.sum()))
                        };
                        sweep_on(&engine, engine_kind, &sweep).unwrap()
                    };
                    let parallel = on(EngineKind::Parallel, 1);
                    let planned = on(EngineKind::Planned, 1);
                    let planned_b3 = on(EngineKind::Planned, 3);
                    for (name, summary) in [
                        ("parallel", &parallel),
                        ("planned batch=1", &planned),
                        ("planned batch=3", &planned_b3),
                    ] {
                        let identical = sequential
                            .per_run
                            .iter()
                            .zip(summary.per_run.iter())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(
                            identical,
                            "{fault:?} {name} threads={threads}: {:?} vs {:?}",
                            sequential.per_run, summary.per_run
                        );
                    }
                }
            }
        }
    }

    /// Code-domain counterpart: structured faults land on the i8 codes and
    /// the planned and parallel engines stay bit-identical to the
    /// code-domain sequential engine.
    #[test]
    fn structured_code_faults_are_bit_identical_across_quantized_engines() {
        let x = Tensor::randn(&[5, 12], 0.0, 1.0, &mut Rng::seed_from(221));
        let engine = MonteCarloEngine::new(8, 4025);
        for fault in structured_fault_models() {
            let mut net = quantized_net(222);
            let xc = x.clone();
            let sequential = run_codes(&engine, &mut net, fault, |n| {
                Ok(n.forward(&xc, Mode::Eval)?.sum())
            })
            .unwrap();
            for threads in [1usize, 4] {
                for (engine_kind, batch) in [
                    (EngineKind::Planned, 1usize),
                    (EngineKind::Planned, 3),
                    (EngineKind::Parallel, 1),
                ] {
                    let sweep = Sweep {
                        domain: SweepDomain::Codes,
                        batch,
                        threads,
                        ..Sweep::new(
                            || quantized_net(222),
                            fault,
                            &x,
                            |out: &Tensor| Ok(out.sum()),
                        )
                    };
                    let summary = sweep_on(&engine, engine_kind, &sweep).unwrap();
                    let identical = sequential
                        .per_run
                        .iter()
                        .zip(summary.per_run.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        identical,
                        "{fault:?} {engine_kind} batch={batch} threads={threads}"
                    );
                }
            }
        }
    }

    /// The lifetime protocol at the plan level: under `PerInference` the
    /// harness re-realizes before every forward from one continuing stream,
    /// so consecutive forwards of the same chip instance differ; under
    /// `Static` one realization is evaluated repeatedly and every forward is
    /// bit-identical.
    #[test]
    fn per_inference_lifetime_redraws_noise_between_forwards() {
        let fault = FaultModel::AdditiveVariation { sigma: 0.2 };
        let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut Rng::seed_from(231));

        let mut net = mlp_with_norm(232);
        let mut plan = Plan::compile(&mut net, &x).unwrap();
        plan.set_fault_lifetime(FaultLifetime::PerInference);
        assert_eq!(plan.fault_lifetime(), FaultLifetime::PerInference);
        let mut rng = Rng::seed_from(7);
        WeightFaultInjector::new_unchecked(fault)
            .realize_plan_batch(&mut net, std::slice::from_mut(&mut rng))
            .unwrap();
        let out1 = plan.forward(&mut net).unwrap().clone();
        WeightFaultInjector::new_unchecked(fault)
            .realize_plan_batch(&mut net, std::slice::from_mut(&mut rng))
            .unwrap();
        let out2 = plan.forward(&mut net).unwrap().clone();
        net.plan_end();
        assert!(
            !out1.approx_eq(&out2, 1e-6),
            "per-inference realizations must differ between forwards"
        );

        let mut net = mlp_with_norm(232);
        let mut plan = Plan::compile(&mut net, &x).unwrap();
        assert_eq!(plan.fault_lifetime(), FaultLifetime::Static);
        let mut rng = Rng::seed_from(7);
        WeightFaultInjector::new_unchecked(fault)
            .realize_plan_batch(&mut net, std::slice::from_mut(&mut rng))
            .unwrap();
        let a = plan.forward(&mut net).unwrap().clone();
        let b = plan.forward(&mut net).unwrap().clone();
        net.plan_end();
        let identical = a
            .data()
            .iter()
            .zip(b.data().iter())
            .all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(identical, "static realizations must repeat bit-identically");
    }

    /// The documented reproducibility boundary: the Monte-Carlo engines run
    /// exactly one forward per chip instance, so a per-inference lifetime
    /// yields per-run metrics bit-identical to the static lifetime on the
    /// planned engine at every batch size — and the non-frozen execution
    /// path it switches on is bit-identical to the frozen one.
    #[test]
    fn per_inference_matches_static_for_single_forward_metrics() {
        let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut Rng::seed_from(241));
        let engine = MonteCarloEngine::new(8, 3003);
        for fault in [
            FaultModel::AdditiveVariation { sigma: 0.3 },
            structured_fault_models()[0],
            structured_fault_models()[2],
        ] {
            let per_inference = FaultSpec::per_inference(fault);
            for threads in [1usize, 4] {
                let run = |spec: FaultSpec, batch: usize| {
                    let sweep = Sweep {
                        batch,
                        threads,
                        ..Sweep::new(|| mlp_with_norm(242), spec, &x, |o: &Tensor| Ok(o.sum()))
                    };
                    sweep_on(&engine, EngineKind::Planned, &sweep).unwrap()
                };
                let (st, pi) = (run(fault.into(), 1), run(per_inference, 1));
                let (st_b, pi_b) = (run(fault.into(), 3), run(per_inference, 3));
                for (name, a, b) in [
                    ("batch=1", &st, &pi),
                    ("batch=3", &st_b, &pi_b),
                    ("static batch=1 vs batch=3", &st, &st_b),
                ] {
                    let identical = a
                        .per_run
                        .iter()
                        .zip(b.per_run.iter())
                        .all(|(p, q)| p.to_bits() == q.to_bits());
                    assert!(identical, "{fault:?} {name} threads={threads}");
                }
            }
        }
    }

    /// The direct engines have no fault-lifetime model: a per-inference
    /// spec is rejected loudly with a typed `FaultUnsupported`, naming the
    /// engine.
    #[test]
    fn direct_engines_reject_per_inference_lifetime() {
        let engine = MonteCarloEngine::new(4, 9);
        let spec = FaultSpec::per_inference(FaultModel::AdditiveVariation { sigma: 0.1 });
        let x = Tensor::randn(&[3, 8], 0.0, 1.0, &mut Rng::seed_from(251));

        let mut net = mlp_with_norm(252);
        let xc = x.clone();
        let err = engine
            .run(&mut net, spec, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
            .unwrap_err();
        assert!(
            matches!(err, NnError::FaultUnsupported { .. }),
            "unexpected error: {err}"
        );
        assert_eq!(
            err.to_string(),
            "MonteCarloEngine::run does not support per-inference fault lifetime"
        );

        let sweep = Sweep {
            threads: 2,
            ..Sweep::new(|| mlp_with_norm(252), spec, &x, |o: &Tensor| Ok(o.sum()))
        };
        let err = sweep_on(&engine, EngineKind::Parallel, &sweep).unwrap_err();
        assert!(
            matches!(err, NnError::FaultUnsupported { .. }),
            "unexpected error: {err}"
        );
        assert_eq!(
            err.to_string(),
            "the parallel engine does not support per-inference fault lifetime"
        );

        let xq = Tensor::randn(&[3, 12], 0.0, 1.0, &mut Rng::seed_from(253));
        let mut qnet = quantized_net(254);
        let err = run_codes(&engine, &mut qnet, spec, |n| {
            Ok(n.forward(&xq, Mode::Eval)?.sum())
        })
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "MonteCarloEngine::run does not support per-inference fault lifetime"
        );
    }

    /// The ladder on a fully-capable network: the fastest engine wins, no
    /// fallbacks are recorded, and the outcome matches the sequential
    /// reference bit for bit.
    #[test]
    fn run_auto_uses_fastest_engine_when_supported() {
        let x = Tensor::randn(&[5, 8], 0.0, 1.0, &mut Rng::seed_from(261));
        let engine = MonteCarloEngine::new(8, 777);
        let fault = structured_fault_models()[0];
        let mut net = mlp_with_norm(262);
        let xc = x.clone();
        let sequential = engine
            .run(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
            .unwrap();
        for policy in [DegradationPolicy::Graceful, DegradationPolicy::Strict] {
            let outcome = engine
                .run_auto(
                    || mlp_with_norm(262),
                    fault,
                    &x,
                    |o| Ok(o.sum()),
                    3,
                    2,
                    policy,
                )
                .unwrap();
            assert_eq!(outcome.engine, EngineKind::Planned);
            assert!(outcome.fallbacks.is_empty());
            let identical = sequential
                .per_run
                .iter()
                .zip(outcome.summary.per_run.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "{policy:?}");
        }
    }

    /// An unplannable layer (Lstm) degrades to the parallel engine under the
    /// graceful policy, with one typed reason for the skipped planned rung —
    /// and still reproduces the sequential reference.
    #[test]
    fn run_auto_degrades_to_parallel_for_unsupported_layers() {
        use invnorm_nn::lstm::Lstm;
        let build = || -> Sequential {
            let mut rng = Rng::seed_from(271);
            Sequential::new().with(Box::new(Lstm::new(4, 6, false, &mut rng)))
        };
        let x = Tensor::randn(&[2, 5, 4], 0.0, 1.0, &mut Rng::seed_from(272));
        let engine = MonteCarloEngine::new(5, 31);
        let fault = FaultModel::AdditiveVariation { sigma: 0.1 };
        let mut net = build();
        let xc = x.clone();
        let sequential = engine
            .run(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
            .unwrap();
        let outcome = engine
            .run_auto(
                build,
                fault,
                &x,
                |o| Ok(o.sum()),
                2,
                1,
                DegradationPolicy::Graceful,
            )
            .unwrap();
        assert_eq!(outcome.engine, EngineKind::Parallel);
        assert_eq!(
            outcome.fallbacks,
            vec![FallbackStep {
                engine: EngineKind::Planned,
                reason: FallbackReason::Unsupported {
                    layer: "Lstm",
                    op: "compiled plans",
                },
            }]
        );
        let identical = sequential
            .per_run
            .iter()
            .zip(outcome.summary.per_run.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical);

        // Strict mode keeps today's loud failure instead of degrading.
        let err = engine
            .run_auto(
                build,
                fault,
                &x,
                |o| Ok(o.sum()),
                2,
                1,
                DegradationPolicy::Strict,
            )
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("compiled plans") && err.contains("Lstm"),
            "unexpected error: {err}"
        );
    }

    /// A per-inference lifetime rules out the direct engine pre-flight; an
    /// unplannable layer rules out the planned one. Together they exhaust
    /// the ladder, and the error lists every rung's reason.
    #[test]
    fn run_auto_reports_exhausted_ladder() {
        use invnorm_nn::lstm::Lstm;
        let build = || -> Sequential {
            let mut rng = Rng::seed_from(281);
            Sequential::new().with(Box::new(Lstm::new(4, 6, false, &mut rng)))
        };
        let x = Tensor::randn(&[2, 5, 4], 0.0, 1.0, &mut Rng::seed_from(282));
        let engine = MonteCarloEngine::new(4, 13);
        let spec = FaultSpec::per_inference(FaultModel::AdditiveVariation { sigma: 0.1 });
        let err = engine
            .run_auto(
                build,
                spec,
                &x,
                |o| Ok(o.sum()),
                2,
                1,
                DegradationPolicy::Graceful,
            )
            .unwrap_err();
        assert!(matches!(err, NnError::FaultUnsupported { .. }));
        let msg = err.to_string();
        for part in [
            "MonteCarloEngine::execute",
            "planned (layer Lstm does not support compiled plans)",
            "parallel (no per-inference fault lifetime model)",
        ] {
            assert!(msg.contains(part), "missing {part:?} in: {msg}");
        }

        // A per-inference lifetime alone (plannable network) still runs —
        // on the fastest rung, with no fallbacks.
        let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut Rng::seed_from(283));
        let outcome = engine
            .run_auto(
                || mlp_with_norm(284),
                spec,
                &x,
                |o| Ok(o.sum()),
                2,
                1,
                DegradationPolicy::Graceful,
            )
            .unwrap();
        assert_eq!(outcome.engine, EngineKind::Planned);
        assert!(outcome.fallbacks.is_empty());
    }
}
