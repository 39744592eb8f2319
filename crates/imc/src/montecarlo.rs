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
//! counts and scheduling orders. Two engines behind four entry points:
//!
//! - [`MonteCarloEngine::run`] — the sequential oracle on one network, which
//!   every bit-identity test compares against.
//! - [`MonteCarloEngine::run_supervised`] — the same loop in either
//!   [`SweepDomain`] (f32 weights or i8 codes) under a [`SweepControl`].
//! - [`MonteCarloEngine::execute`] — the planned engine: runs a [`Sweep`]
//!   request (model factory, fault, domain, input, metric, batch cap,
//!   threads) by compiling each worker's model into an
//!   `invnorm_nn::plan::Plan` holding a stack of realizations — as many as
//!   fill one microkernel tile on the plan's frozen layer, at most `batch`
//!   — and evaluating each stack in one planned forward.
//! - [`MonteCarloEngine::run_auto`] — `execute` on an f32 sweep, returning a
//!   plain summary.
//!
//! Every engine body is supervised (see [`crate::supervise`]): it honors a
//! budget, quarantines panicking and non-finite runs, and resumes from a
//! checkpoint. `run` and `run_auto` map the outcome back to a summary with
//! [`SweepOutcome::into_summary`].

use crate::fault::FaultModel;
use crate::injector::{CodeFaultInjector, WeightFaultInjector};
use crate::supervise::{Attempt, RunLedger, SweepControl, SweepDomain, SweepOutcome};
use crate::Result;
use invnorm_nn::layer::Layer;
use invnorm_nn::plan::Plan;
use invnorm_nn::NnError;
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

/// The engine that produced a sweep, reported by
/// [`MonteCarloEngine::run_auto`] and recorded in sweep checkpoints (a
/// resume must run on the engine that took the checkpoint: the two engines
/// quarantine at different granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Compiled plans with B ≥ 1 fused fault realizations per forward
    /// ([`MonteCarloEngine::execute`]).
    Planned,
    /// The single-threaded loop of [`MonteCarloEngine::run`] and
    /// [`MonteCarloEngine::run_supervised`].
    Sequential,
}

impl EngineKind {
    /// The engine's name, as used in reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Planned => "planned",
            EngineKind::Sequential => "sequential",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The policy argument of [`MonteCarloEngine::run_auto`], kept for existing
/// callers: there is one engine to run, so there is nothing to degrade to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradationPolicy {
    /// The only value: run the planned engine and propagate its error.
    #[default]
    Graceful,
}

/// Result of [`MonteCarloEngine::run_auto`]: the summary plus the engine
/// that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LadderOutcome {
    /// The aggregated Monte-Carlo summary.
    pub summary: MonteCarloSummary,
    /// The engine that produced the summary (always
    /// [`EngineKind::Planned`]).
    pub engine: EngineKind,
    /// Always empty; kept for existing callers, which report its length.
    pub fallbacks: Vec<EngineKind>,
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
        )
    }
}

/// One Monte-Carlo sweep for the factory-driven planned engine
/// ([`MonteCarloEngine::execute`]).
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
/// let outcome = MonteCarloEngine::new(8, 3).execute(&sweep, &SweepControl::new())?;
/// assert_eq!(outcome.summary().runs(), 8);
/// # Ok::<(), invnorm_nn::NnError>(())
/// ```
pub struct Sweep<'a, F, E> {
    /// Builds one model copy per worker (again after a quarantined panic).
    pub factory: F,
    /// The fault model, drawn once per chip instance.
    pub fault: FaultModel,
    /// Whether faults land on the f32 weights or on the i8 codes.
    pub domain: SweepDomain,
    /// The input of every evaluation forward.
    pub input: &'a Tensor,
    /// Scores one realization's output.
    pub metric: E,
    /// The cap on the fault realizations one planned forward stacks
    /// (`≥ 1`). The engine stacks `min(batch, ceil(runs / threads),
    /// ceil(NR / w))`: no more than fill one microkernel tile (NR columns)
    /// on the plan's narrowest frozen layer (w output columns per
    /// realization), and 1 without a frozen layer (see
    /// [`MonteCarloEngine::execute`]).
    pub batch: usize,
    /// Rayon worker threads.
    pub threads: usize,
}

impl<'a, F, E> Sweep<'a, F, E> {
    /// A sweep on the f32 weights, capped at one realization per forward,
    /// on one thread.
    pub fn new(factory: F, fault: FaultModel, input: &'a Tensor, metric: E) -> Self {
        Self {
            factory,
            fault,
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

    fn realize_plan_batch(&mut self, plan: &mut Plan, rngs: &mut [Rng]) -> Result<()> {
        match self {
            AnyInjector::Weights(i) => i.realize_plan_batch(plan, rngs),
            AnyInjector::Codes(i) => i.realize_plan_batch(plan, rngs),
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

    /// Independent RNG stream for chip instance `run`, identical regardless of
    /// which thread (or call order) simulates it.
    fn run_rng(seed: u64, run: usize) -> Rng {
        Rng::seed_from(seed ^ (run as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Runs the simulation on a single network, injecting and restoring
    /// faults around every evaluation — the sequential oracle every other
    /// engine is checked against bit for bit.
    ///
    /// `evaluate` receives the faulty network and returns the metric of
    /// interest (accuracy, mIoU, RMSE, NLL, ...); each realization holds
    /// for the whole `evaluate` call.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault configuration is invalid, or when
    /// injection, evaluation or restoration fails; the network is restored
    /// to its clean weights before the error is returned whenever possible.
    /// A non-finite metric or a panicking evaluation fails the sweep with
    /// the lowest such run (see
    /// [`SweepOutcome::into_summary`]).
    pub fn run<L, F>(
        &self,
        network: &mut L,
        fault: FaultModel,
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
    /// Returns an error when the fault configuration is invalid, when a
    /// resume checkpoint does not match this sweep, or when injection,
    /// evaluation or restoration fails *with a genuine error* (an `Err`
    /// from `evaluate` still propagates — only panics and non-finite
    /// metrics are quarantined).
    pub fn run_supervised<L, F>(
        &self,
        domain: SweepDomain,
        network: &mut L,
        fault: FaultModel,
        mut evaluate: F,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        L: Layer + ?Sized,
        F: FnMut(&mut L) -> Result<f32>,
    {
        fault.validate()?;
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
    /// step of the sequential engine. A panic in `evaluate` is
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

    /// The planned engine: runs `sweep` on compiled plans.
    ///
    /// Each worker holds one model, compiled into a plan for the shape of
    /// `input` (`Plan::compile_batched`): one-shot shape inference,
    /// arena-backed buffers, and — per registered weight or code operand —
    /// one stacked faulty buffer per realization with its cached packs (one
    /// over the whole stack for a frozen layer, one per realization
    /// otherwise), all built at compile time, where each operand's RNG fork
    /// index is also fixed.
    ///
    /// How many realizations a plan stacks follows one rule, applied once
    /// per sweep before any worker starts. The engine builds one model,
    /// compiles it at B = 1 and reads the plan's frozen fill
    /// (`Plan::frozen_fill`: `ceil(NR / w)` for the narrowest frozen layer,
    /// w output columns on a microkernel NR columns wide). The stack is
    /// `min(sweep.batch, ceil(runs / threads), ceil(NR / w))`: stacking pays
    /// only through a frozen layer's fused wide GEMM, and only until the
    /// stack fills one register tile. Without a frozen weighted layer the
    /// stack is 1. When the rule stacks more, that plan is recompiled once
    /// at the stack; the first worker runs on it, the others compile at the
    /// stack directly, and batch `i` is runs `i·stack..`. With telemetry on,
    /// the run's `RunTelemetry::plan` reports the stack and that plan's
    /// arena bytes.
    ///
    /// Per batch of chip instances, the injector
    /// materializes the realizations from the per-instance RNG streams
    /// straight into the plan's operands
    /// ([`WeightFaultInjector::realize_plan_batch`] /
    /// [`CodeFaultInjector::realize_plan_batch`]; the clean weights are never
    /// touched) — sparse stuck-at and line-defect realizations land in the
    /// packed panels cell by cell, drift scales the whole panel stack in
    /// place in both domains, dense models re-pack only dirty rows — and ONE
    /// planned forward evaluates the whole stack, with each frozen layer's
    /// cached activation panel streamed once against the stacked weight
    /// pack. `metric` then scores each realization's rows of the stacked
    /// output. A smaller tail batch recompiles the worker's plan. Each chip
    /// instance runs one forward on one realization, which is the paper's
    /// protocol.
    ///
    /// The network must be built from plan-capable layers (every weighted
    /// layer in this workspace, the `Lstm` included): a layer with
    /// fault-targetable weights but no plan is rejected with
    /// [`NnError::Unsupported`] — [`MonteCarloEngine::run_supervised`] still
    /// runs it — and one that plans itself without registering its operand
    /// fails the compile with [`NnError::Config`].
    ///
    /// Instance `i` uses the `(seed, i)` stream and writes its metric slot,
    /// so the per-run metrics are **bit-identical** to
    /// [`MonteCarloEngine::run_supervised`] evaluating
    /// `metric(network.forward(input))` in the same domain, for every batch
    /// size and thread count. Networks that are stochastic at evaluation
    /// time are not reproducible across engines. Budgets, quarantine and
    /// resume follow `control` (see [`crate::supervise`]): a panic
    /// quarantines its whole batch (one fused forward is one failure domain)
    /// and the worker rebuilds its model and recompiles; a resumed batch
    /// re-runs whole and the ledger ignores its re-records. A checkpoint
    /// taken on the sequential engine is rejected with a typed
    /// [`NnError::Checkpoint`] mismatch on its `engine` field, since the two
    /// engines quarantine different runs.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault configuration is invalid, when a
    /// resume checkpoint does not match this sweep and engine, or when
    /// compilation, injection, evaluation or the metric fails with a genuine
    /// error; with several, the lowest-indexed failing batch is reported.
    pub fn execute<M, F, E>(
        &self,
        sweep: &Sweep<'_, F, E>,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        sweep.fault.validate()?;
        let mut scope = RunScope::begin();
        let fault = sweep.fault;
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
        let compile = |model: &mut M, b: usize| -> Result<Plan> {
            // Release the previous plan's operands first.
            model.plan_end();
            Plan::compile_batched(model, input, b)
        };
        // One model and plan, built here, fix the stack for every worker:
        // the rule reads the frozen fill off a B = 1 compile, which is
        // recompiled once when the rule stacks more. The first worker runs
        // on that plan; a compile failure fails the sweep at run 0.
        let mut model = (sweep.factory)();
        let mut plan = compile(&mut model, 1)?;
        let cap = stack_cap(sweep.batch, runs, sweep.threads);
        let stack = stack_size(cap, plan.frozen_fill());
        if stack > 1 {
            drop(plan);
            plan = compile(&mut model, stack)?;
        }
        scope.record_plan(plan.footprint());
        let mut seeded = Some((model, plan));
        let n_batches = runs.div_ceil(stack);
        let threads = sweep.threads.clamp(1, n_batches);
        let next_batch = AtomicUsize::new(0);
        type BatchEntry = (usize, usize, Attempt<Vec<f32>>);
        let collected: Mutex<Vec<BatchEntry>> = Mutex::new(Vec::with_capacity(n_batches));
        rayon::scope(|s| {
            for _ in 0..threads {
                let seeded = seeded.take();
                let (next_batch, collected, compile) = (&next_batch, &collected, &compile);
                let factory = &sweep.factory;
                let metric = &sweep.metric;
                let done = &done;
                s.spawn(move || {
                    let (mut model, mut plan) = match seeded {
                        Some((model, plan)) => (model, Some(plan)),
                        None => (factory(), None),
                    };
                    let mut rngs: Vec<Rng> = Vec::with_capacity(stack);
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
                        let start = bi * stack;
                        let bsize = stack.min(runs - start);
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
                            if bsize < stack {
                                telemetry::count(telemetry::Counter::TailRecompiles, 1);
                            }
                            drop(plan.take());
                            match compile(&mut model, bsize) {
                                Ok(p) => plan = Some(p),
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
                            // at the stack).
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
        AnyInjector::new(domain, fault).realize_plan_batch(plan, rngs)?;
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

    /// [`MonteCarloEngine::execute`] on an f32-weight sweep over `threads`
    /// workers with `batch` as the stack cap ([`Sweep::batch`]; the engine
    /// stacks what fills one microkernel tile, at most `batch`), returning a
    /// plain summary through [`SweepOutcome::into_summary`]. `policy` has one
    /// value and changes nothing; the outcome always reports
    /// [`EngineKind::Planned`] and no fallbacks.
    ///
    /// # Errors
    ///
    /// See [`MonteCarloEngine::execute`] and [`SweepOutcome::into_summary`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_auto<M, F, E>(
        &self,
        factory: F,
        fault: FaultModel,
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
        let DegradationPolicy::Graceful = policy;
        let sweep = Sweep {
            batch,
            threads,
            ..Sweep::new(factory, fault, input, metric)
        };
        Ok(LadderOutcome {
            summary: self.execute(&sweep, &SweepControl::new())?.into_summary()?,
            engine: EngineKind::Planned,
            fallbacks: Vec::new(),
        })
    }
}

impl Default for MonteCarloEngine {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The upper bound of the planned engine's stack: [`Sweep::batch`], and at
/// least one stack per worker (`ceil(runs / threads)`). Per-run metrics
/// depend only on `(seed, run)`, so regrouping runs into smaller stacks is
/// bit-identical — but leaving workers idle is pure wall-clock loss.
fn stack_cap(batch: usize, runs: usize, threads: usize) -> usize {
    batch.clamp(1, runs).min(runs.div_ceil(threads.max(1)))
}

/// The planned engine's stack rule: how many fault realizations one planned
/// forward stacks, below `cap` ([`stack_cap`]).
///
/// Stacking pays through one GEMM only: a frozen layer's fused
/// `[rows, B·w]` product over all realizations. That product reaches the
/// microkernel's full width once `B·w ≥ NR`; beyond one register tile,
/// further realizations only push the working set out of L2 (Goto & van de
/// Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS
/// 2008). So the stack is `min(cap, fill)`, with `fill = ceil(NR / w)` for
/// the plan's narrowest frozen layer ([`Plan::frozen_fill`]), and 1 when no
/// weighted layer reads the plan input.
fn stack_size(cap: usize, fill: Option<usize>) -> usize {
    fill.map_or(1, |fill| cap.min(fill))
}

#[cfg(test)]
mod tests {
    use super::*;
    use invnorm_nn::layer::{Mode, Param};
    use invnorm_nn::linear::Linear;
    use invnorm_nn::Sequential;
    use invnorm_tensor::Tensor;

    const W: SweepDomain = SweepDomain::Weights;

    fn simple_net(seed: u64) -> Sequential {
        let mut rng = Rng::seed_from(seed);
        let mut net = Sequential::new();
        net.push(Box::new(Linear::new(4, 4, &mut rng)));
        net.push(Box::new(Linear::new(4, 2, &mut rng)));
        net
    }

    /// The metric of most engine tests: the sum of the output.
    fn sum(out: &Tensor) -> Result<f32> {
        Ok(out.sum())
    }

    /// The sequential engine in `domain`, as a plain summary.
    fn run_in<F>(
        mc: &MonteCarloEngine,
        domain: SweepDomain,
        network: &mut Sequential,
        fault: FaultModel,
        evaluate: F,
    ) -> Result<MonteCarloSummary>
    where
        F: FnMut(&mut Sequential) -> Result<f32>,
    {
        mc.run_supervised(domain, network, fault, evaluate, &SweepControl::new())?
            .into_summary()
    }

    /// The sequential oracle scoring the `sum` of `network`'s output on `x`.
    fn oracle(
        mc: &MonteCarloEngine,
        domain: SweepDomain,
        network: &mut Sequential,
        fault: FaultModel,
        x: &Tensor,
    ) -> Result<MonteCarloSummary> {
        run_in(mc, domain, network, fault, |n| {
            sum(&n.forward(x, Mode::Eval)?)
        })
    }

    /// `sweep` on the planned engine under a default control, as a plain
    /// summary.
    fn sweep_on<M, F, E>(
        mc: &MonteCarloEngine,
        sweep: &Sweep<'_, F, E>,
    ) -> Result<MonteCarloSummary>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        mc.execute(sweep, &SweepControl::new())?.into_summary()
    }

    /// The planned engine scoring the `sum` of `build()`'s output on `x`,
    /// with `(batch, threads)`. Asserts, through the run's telemetry, that
    /// the engine ran the stack its rule picks for `build()`'s frozen width.
    fn planned(
        mc: &MonteCarloEngine,
        domain: SweepDomain,
        build: impl Fn() -> Sequential + Sync,
        fault: FaultModel,
        x: &Tensor,
        (batch, threads): (usize, usize),
    ) -> Result<MonteCarloSummary> {
        // Telemetry is bit-invisible; no test of this crate needs it off.
        telemetry::Telemetry::enable();
        let sweep = Sweep {
            domain,
            batch,
            threads,
            ..Sweep::new(&build, fault, x, sum)
        };
        let summary = sweep_on(mc, &sweep)?;
        let ran = summary.telemetry.as_ref().and_then(|t| t.plan);
        let expected = expected_stack(mc, build, x, (batch, threads));
        assert_eq!(
            ran.map(|p| p.stack),
            Some(expected),
            "{fault:?} {batch} {threads}"
        );
        Ok(summary)
    }

    /// The stack the rule must pick for `build()` on `x`: `min(cap, fill)`
    /// for the plan's frozen fill. Every net a test stacks has a frozen
    /// layer at most [`NARROW`] wide, so its fill is at least
    /// `ceil(8 / 2) = 4` on every tier (NR ≥ 8): no test asking for B > 1
    /// silently falls to B = 1.
    fn expected_stack(
        mc: &MonteCarloEngine,
        build: impl Fn() -> Sequential,
        x: &Tensor,
        (batch, threads): (usize, usize),
    ) -> usize {
        let cap = batch.min(mc.runs().div_ceil(threads));
        if cap == 1 {
            return 1;
        }
        let fill = Plan::compile(&mut build(), x).unwrap().frozen_fill();
        let fill = fill.expect("a stacked test net has a frozen layer");
        assert!(
            fill >= 4,
            "fill {fill}: the frozen layer is wider than {NARROW}"
        );
        cap.min(fill)
    }

    /// Asserts `b` reproduces `a`'s per-run metrics bit for bit.
    fn assert_same_runs(a: &MonteCarloSummary, b: &MonteCarloSummary, what: &str) {
        let same = a.per_run.len() == b.per_run.len()
            && a.per_run
                .iter()
                .zip(&b.per_run)
                .all(|(p, q)| p.to_bits() == q.to_bits());
        assert!(same, "{what}: {:?} vs {:?}", a.per_run, b.per_run);
    }

    /// Asserts the planned engine reproduces the sequential oracle on
    /// `build()` in `domain`, for every fault and `(batch, threads)` shape.
    fn assert_planned_matches_oracle(
        mc: &MonteCarloEngine,
        domain: SweepDomain,
        build: impl Fn() -> Sequential + Sync + Copy,
        faults: impl IntoIterator<Item = FaultModel>,
        x: &Tensor,
        shapes: &[(usize, usize)],
    ) {
        for fault in faults {
            let reference = oracle(mc, domain, &mut build(), fault, x).unwrap();
            for &shape in shapes {
                let fused = planned(mc, domain, build, fault, x, shape).unwrap();
                assert_same_runs(&reference, &fused, &format!("{fault:?} {shape:?}"));
            }
        }
    }

    #[test]
    fn fault_free_simulation_has_zero_variance() {
        let mut net = simple_net(1);
        let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut Rng::seed_from(2));
        let summary = oracle(
            &MonteCarloEngine::new(10, 42),
            W,
            &mut net,
            FaultModel::None,
            &x,
        )
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
        let fault = FaultModel::AdditiveVariation { sigma: 0.3 };
        let summary = oracle(&MonteCarloEngine::new(20, 7), W, &mut net, fault, &x).unwrap();
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
        let fault = FaultModel::BitFlip {
            rate: 0.05,
            bits: 8,
        };
        let run = |seed: u64| {
            let mc = MonteCarloEngine::new(5, seed);
            oracle(&mc, W, &mut simple_net(11), fault, &x)
                .unwrap()
                .per_run
        };
        assert_eq!(run(123), run(123));
        assert_ne!(run(123), run(456));
    }

    /// The planned engine on four workers reproduces the sequential engine
    /// in run order, whichever worker ran each chip instance.
    #[test]
    fn parallel_matches_sequential_statistics() {
        let x = Tensor::randn(&[16, 4], 0.0, 1.0, &mut Rng::seed_from(14));
        let mc = MonteCarloEngine::new(16, 77);
        let fault = FaultModel::AdditiveVariation { sigma: 0.3 };
        let sequential = oracle(&mc, W, &mut simple_net(15), fault, &x).unwrap();
        let parallel = planned(&mc, W, || simple_net(15), fault, &x, (1, 4)).unwrap();
        assert_same_runs(&sequential, &parallel, "threads=4");
        assert_eq!(parallel.mean.to_bits(), sequential.mean.to_bits());
        assert_eq!(parallel.std.to_bits(), sequential.std.to_bits());
    }

    #[test]
    fn parallel_is_bit_identical_for_every_thread_count() {
        let x = Tensor::randn(&[8, 4], 0.0, 1.0, &mut Rng::seed_from(21));
        let mc = MonteCarloEngine::new(13, 99);
        let fault = FaultModel::BitFlip {
            rate: 0.08,
            bits: 8,
        };
        let run_with = |threads| planned(&mc, W, || simple_net(22), fault, &x, (1, threads));
        let reference = run_with(1).unwrap();
        for threads in [2, 3, 7, 13] {
            assert_same_runs(
                &reference,
                &run_with(threads).unwrap(),
                &format!("{threads}"),
            );
        }
    }

    #[test]
    fn parallel_error_reports_lowest_failing_run() {
        let engine = MonteCarloEngine::new(8, 5);
        let x = Tensor::ones(&[2, 4]);
        let sweep = |fault: FaultModel, metric: fn(&Tensor) -> Result<f32>| Sweep {
            threads: 4,
            ..Sweep::new(|| simple_net(23), fault, &x, metric)
        };
        let boom = sweep(FaultModel::None, |_| Err(NnError::Config("boom".into())));
        assert!(sweep_on(&engine, &boom).is_err());
        // Every instance yields a non-finite metric; the reported error must
        // name the lowest-indexed instance (run 0) no matter which of the
        // four workers finished first — the documented error-ordering
        // contract.
        let nan = sweep(FaultModel::AdditiveVariation { sigma: 0.1 }, |_| {
            Ok(f32::NAN)
        });
        let err = sweep_on(&engine, &nan).unwrap_err().to_string();
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
        let fnet = Sequential::new().with(Box::new(l1)).with(Box::new(l2));
        let qnet = Sequential::new().with(Box::new(q1)).with(Box::new(q2));
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
        let deviation = |domain, net: &mut Sequential, clean: &Tensor| {
            run_in(&engine, domain, net, fault, |n| {
                Ok(n.forward(&x, Mode::Eval)?.sub(clean)?.abs().mean())
            })
            .unwrap()
            .mean
        };
        let float_mean = deviation(W, &mut fnet, &clean_f);
        let quant_mean = deviation(SweepDomain::Codes, &mut qnet, &clean_q);
        assert!(float_mean > 0.0 && quant_mean > 0.0);
        let diff = (float_mean - quant_mean).abs();
        assert!(
            diff <= 0.5 * float_mean.max(quant_mean),
            "float-path mean {float_mean} vs quantized-path mean {quant_mean} (diff {diff})"
        );
        // The quantized engine restored the clean codes.
        let after = qnet.forward(&x, Mode::Eval).unwrap();
        assert!(clean_q.approx_eq(&after, 0.0));
    }

    #[test]
    fn quantized_run_is_deterministic_and_rejects_non_finite() {
        let x = Tensor::randn(&[4, 16], 0.0, 1.0, &mut Rng::seed_from(43));
        let run_means = |seed: u64| {
            let (_, mut qnet) = paired_float_and_quantized_nets(42);
            let mc = MonteCarloEngine::new(6, seed);
            let fault = FaultModel::StuckAt { rate: 0.2 };
            oracle(&mc, SweepDomain::Codes, &mut qnet, fault, &x)
                .unwrap()
                .per_run
        };
        assert_eq!(run_means(9), run_means(9));
        assert_ne!(run_means(9), run_means(10));
        let (_, mut qnet) = paired_float_and_quantized_nets(42);
        let mc = MonteCarloEngine::new(2, 1);
        let result = run_in(&mc, SweepDomain::Codes, &mut qnet, FaultModel::None, |_n| {
            Ok(f32::NAN)
        });
        assert!(result.is_err());
    }

    /// The eight unstructured fault models of the catalogue, at strengths
    /// that actually perturb something. The other two, line defects (in
    /// both orientations) and correlated drift, are in
    /// `structured_fault_models`.
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

    /// Output width of every test net's plan-input layer: narrow enough
    /// that the stack rule stacks on every tier.
    const NARROW: usize = 2;

    /// An MLP with a normalization layer in the middle: the norm's rank-1
    /// affine parameters shift the global parameter indices, exercising the
    /// compile-time fork indices that keep the plan's RNG streams aligned
    /// with the sequential injector.
    fn mlp_with_norm(seed: u64) -> Sequential {
        use invnorm_nn::activation::Relu;
        use invnorm_nn::norm::GroupNorm;
        let mut rng = Rng::seed_from(seed);
        Sequential::new()
            .with(Box::new(Linear::new(8, NARROW, &mut rng)))
            .with(Box::new(Linear::new(NARROW, 16, &mut rng)))
            .with(Box::new(GroupNorm::layer_norm(16)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Linear::new(16, 4, &mut rng)))
    }

    /// Two convolutions: the frozen first one takes the fused wide path, the
    /// second unfolds each stacked realization's tile in turn.
    fn small_cnn(seed: u64) -> Sequential {
        use invnorm_nn::activation::Relu;
        use invnorm_nn::conv::Conv2d;
        use invnorm_nn::pool::MaxPool2d;
        use invnorm_nn::reshape::Flatten;
        let mut rng = Rng::seed_from(seed);
        Sequential::new()
            .with(Box::new(Conv2d::new(2, NARROW, 3, 1, 1, &mut rng)))
            .with(Box::new(Relu::new()))
            .with(Box::new(MaxPool2d::new(2)))
            .with(Box::new(Conv2d::new(NARROW, 6, 3, 1, 1, &mut rng)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Flatten::new()))
            .with(Box::new(Linear::new(6 * 4 * 4, 3, &mut rng)))
    }

    /// A residual block reading the plan input (projection shortcut + post
    /// activation) under a dense head: both branches run frozen.
    fn residual_net(seed: u64) -> Sequential {
        use invnorm_nn::activation::Relu;
        use invnorm_nn::Residual;
        let mut rng = Rng::seed_from(seed);
        let main = Sequential::new()
            .with(Box::new(Linear::new(6, NARROW, &mut rng)))
            .with(Box::new(Relu::new()));
        let shortcut = Sequential::new().with(Box::new(Linear::new(6, NARROW, &mut rng)));
        Sequential::new()
            .with(Box::new(
                Residual::with_shortcut(main, shortcut).with_post(Box::new(Relu::new())),
            ))
            .with(Box::new(Linear::new(NARROW, 2, &mut rng)))
    }

    fn quantized_net(seed: u64) -> Sequential {
        use invnorm_nn::activation::Relu;
        use invnorm_nn::quantized::QuantizedLinear;
        let mut rng = Rng::seed_from(seed);
        let l1 = Linear::new(12, NARROW, &mut rng);
        let l2 = Linear::new(NARROW, 10, &mut rng);
        let l3 = Linear::new(10, 4, &mut rng);
        Sequential::new()
            .with(Box::new(QuantizedLinear::from_linear(&l1, 8).unwrap()))
            .with(Box::new(QuantizedLinear::from_linear(&l2, 8).unwrap()))
            .with(Box::new(Relu::new()))
            .with(Box::new(QuantizedLinear::from_linear(&l3, 6).unwrap()))
    }

    /// Batch 1 is one realization per forward, 3 leaves a tail batch of 1
    /// (per-worker plan recompilation) and 10 (= runs) is one stack; each
    /// on one and four workers.
    const SHAPES: [(usize, usize); 6] = [(1, 1), (1, 4), (3, 1), (3, 4), (10, 1), (10, 4)];

    #[test]
    fn planned_batched_is_bit_identical_to_sequential_for_all_fault_models() {
        let x = Tensor::randn(&[6, 8], 0.0, 1.0, &mut Rng::seed_from(250));
        let mc = MonteCarloEngine::new(10, 1234);
        let build = || mlp_with_norm(251);
        assert_planned_matches_oracle(&mc, W, build, all_fault_models(), &x, &SHAPES);
    }

    #[test]
    fn planned_batched_cnn_and_residual_are_bit_identical_to_sequential() {
        let x = Tensor::randn(&[3, 2, 8, 8], 0.0, 1.0, &mut Rng::seed_from(260));
        let faults = [
            FaultModel::AdditiveVariation { sigma: 0.2 },
            FaultModel::StuckAt { rate: 0.1 },
            FaultModel::Drift {
                nu: 0.05,
                time_ratio: 100.0,
            },
        ];
        let shapes = [(1, 1), (1, 4), (4, 1), (3, 4), (9, 2)];
        let mc = MonteCarloEngine::new(9, 77);
        assert_planned_matches_oracle(&mc, W, || small_cnn(261), faults, &x, &shapes);

        // The residual block runs on the stacked edges.
        let x = Tensor::randn(&[4, 6], 0.0, 1.0, &mut Rng::seed_from(262));
        let fault = [FaultModel::AdditiveVariation { sigma: 0.25 }];
        let mc = MonteCarloEngine::new(8, 99);
        assert_planned_matches_oracle(&mc, W, || residual_net(263), fault, &x, &[(1, 2), (3, 2)]);
    }

    /// Same streams, same integer GEMM, same dequantization expression: the
    /// quantized planned path is not merely within quantization tolerance —
    /// it is bit-identical.
    #[test]
    fn planned_batched_quantized_is_bit_identical_to_sequential_for_all_fault_models() {
        let x = Tensor::randn(&[5, 12], 0.0, 1.0, &mut Rng::seed_from(270));
        let mc = MonteCarloEngine::new(10, 4321);
        let build = || quantized_net(271);
        let codes = SweepDomain::Codes;
        assert_planned_matches_oracle(&mc, codes, build, all_fault_models(), &x, &SHAPES);
    }

    /// A user layer with a rank-2 weight and no plan: it scales its input
    /// by the weight's first element.
    struct Unplannable {
        weight: Param,
    }

    impl Unplannable {
        fn net() -> Sequential {
            let weight = Param::new(Tensor::ones(&[2, 2]));
            Sequential::new().with(Box::new(Unplannable { weight }))
        }
    }

    impl Layer for Unplannable {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Result<Tensor> {
            Ok(input.scale(self.weight.value.data()[0]))
        }
        fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
            Ok(grad_output.clone())
        }
        fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
            visitor(&mut self.weight);
        }
        fn name(&self) -> &'static str {
            "Unplannable"
        }
    }

    /// A weighted layer without a plan fails the planned engine and
    /// `run_auto` loudly with a typed `Unsupported`, instead of evaluating
    /// clean weights; the sequential oracle still runs it.
    #[test]
    fn planned_rejects_unsupported_layers_loudly() {
        let x = Tensor::randn(&[2, 4], 0.0, 1.0, &mut Rng::seed_from(181));
        let mc = MonteCarloEngine::new(4, 7);
        let fault = FaultModel::AdditiveVariation { sigma: 0.1 };
        let unsupported = |err: NnError| {
            let expected = matches!(
                err,
                NnError::Unsupported {
                    layer: "Unplannable",
                    op: "compiled plans"
                }
            );
            assert!(expected, "unexpected error: {err}");
        };
        for batch in [1usize, 2] {
            unsupported(planned(&mc, W, Unplannable::net, fault, &x, (batch, 1)).unwrap_err());
            let policy = DegradationPolicy::Graceful;
            let auto = mc.run_auto(Unplannable::net, fault, &x, sum, batch, 1, policy);
            unsupported(auto.unwrap_err());
        }
        let sequential = oracle(&mc, W, &mut Unplannable::net(), fault, &x).unwrap();
        assert_eq!(sequential.runs(), 4);
    }

    #[test]
    fn planned_metric_errors_and_non_finite_metrics_are_reported() {
        let engine = MonteCarloEngine::new(6, 5);
        let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut Rng::seed_from(190));
        for batch in [1usize, 2] {
            let sweep = |fault: FaultModel, metric: fn(&Tensor) -> Result<f32>| Sweep {
                batch,
                threads: 2,
                ..Sweep::new(|| mlp_with_norm(191), fault, &x, metric)
            };
            let boom = sweep(FaultModel::None, |_| Err(NnError::Config("boom".into())));
            assert!(sweep_on(&engine, &boom).is_err());
            // A non-finite metric names the lowest failing run.
            let nan = sweep(FaultModel::AdditiveVariation { sigma: 0.1 }, |_| {
                Ok(f32::NAN)
            });
            let err = sweep_on(&engine, &nan).unwrap_err().to_string();
            assert!(err.contains("on run 0"), "batch={batch}: {err}");
        }
    }

    /// The stack rule as a pure function: the smallest stack that fills one
    /// microkernel tile on the narrowest frozen layer, under both caps.
    #[test]
    fn stack_rule_fills_one_microkernel_tile() {
        use invnorm_tensor::dispatch::KernelTier::{Avx2, Avx512, Portable};
        use invnorm_tensor::gemm;
        // A frozen layer `w` columns wide on a kernel `nr` columns wide.
        let frozen = |nr: usize, w: usize| Some(nr.div_ceil(w));
        let rule = |fill| stack_size(stack_cap(16, 32, 1), fill);
        assert_eq!(rule(frozen(gemm::nr::<f32>(Portable), 8)), 1);
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(rule(frozen(gemm::nr::<f32>(Avx512), 8)), 4);
            assert_eq!(rule(frozen(gemm::nr::<f32>(Avx2), 8)), 2);
            // The integer kernels are 32 and 16 columns wide.
            assert_eq!(rule(frozen(gemm::nr::<i8>(Avx512), 8)), 4);
            assert_eq!(rule(frozen(gemm::nr::<i8>(Avx2), 8)), 2);
        }
        for tier in [Portable, Avx2, Avx512] {
            assert_eq!(rule(frozen(gemm::nr::<f32>(tier), 256)), 1);
            assert_eq!(rule(frozen(gemm::nr::<i8>(tier), 256)), 1);
        }
        // Both caps: `Sweep::batch`, then one stack per worker at least.
        let narrow = frozen(gemm::nr::<f32>(Portable), 1);
        assert_eq!(stack_size(stack_cap(3, 32, 1), narrow), 3);
        assert_eq!(stack_size(stack_cap(16, 10, 4), narrow), 3);
        assert_eq!(stack_size(stack_cap(16, 2, 1), narrow), 2);
        assert_eq!(stack_size(stack_cap(16, 32, 1), narrow), 8);
        // No frozen layer: one realization per forward.
        assert_eq!(stack_size(16, None), 1);
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

    /// Structured topologies (whole stuck lines, per-tile correlated drift)
    /// run on the planned engine with per-run metrics bit-identical to the
    /// sequential reference, for every batch size and thread count — on a
    /// norm-bearing MLP and a CNN.
    #[test]
    fn structured_faults_are_bit_identical_across_all_engines() {
        type NetCase = (fn(u64) -> Sequential, u64, &'static [usize]);
        let mc = MonteCarloEngine::new(8, 2024);
        let nets: [NetCase; 2] = [
            (mlp_with_norm, 211, &[5, 8]),
            (small_cnn, 212, &[2, 2, 8, 8]),
        ];
        let shapes = [(1, 1), (1, 4), (3, 1), (3, 4)];
        for (build, seed, dims) in nets {
            let x = Tensor::randn(dims, 0.0, 1.0, &mut Rng::seed_from(seed ^ 0xF00D));
            let faults = structured_fault_models();
            assert_planned_matches_oracle(&mc, W, || build(seed), faults, &x, &shapes);
        }
    }

    /// Code-domain counterpart: structured faults land on the i8 codes and
    /// the planned engine stays bit-identical to the code-domain sequential
    /// engine.
    #[test]
    fn structured_code_faults_are_bit_identical_across_quantized_engines() {
        let x = Tensor::randn(&[5, 12], 0.0, 1.0, &mut Rng::seed_from(221));
        let mc = MonteCarloEngine::new(8, 4025);
        let (codes, faults) = (SweepDomain::Codes, structured_fault_models());
        let shapes = [(1, 1), (1, 4), (3, 1), (3, 4)];
        assert_planned_matches_oracle(&mc, codes, || quantized_net(222), faults, &x, &shapes);
    }

    /// A plan evaluates whatever the injector last realized: a harness
    /// that re-realizes before every forward from one continuing stream
    /// (per-inference read noise) gets a different output from each
    /// forward, while one realization evaluated repeatedly (the engine's
    /// per-instance protocol) gives bit-identical forwards.
    #[test]
    fn per_inference_lifetime_redraws_noise_between_forwards() {
        let injector =
            WeightFaultInjector::new_unchecked(FaultModel::AdditiveVariation { sigma: 0.2 });
        let x = Tensor::randn(&[4, 8], 0.0, 1.0, &mut Rng::seed_from(231));
        let mut rng = [Rng::seed_from(7)];

        let mut net = mlp_with_norm(232);
        let mut plan = Plan::compile(&mut net, &x).unwrap();
        injector.realize_plan_batch(&mut plan, &mut rng).unwrap();
        let out1 = plan.forward(&mut net).unwrap().clone();
        injector.realize_plan_batch(&mut plan, &mut rng).unwrap();
        let out2 = plan.forward(&mut net).unwrap().clone();
        net.plan_end();
        assert!(
            !out1.approx_eq(&out2, 1e-6),
            "per-inference realizations must differ between forwards"
        );

        let mut net = mlp_with_norm(232);
        let mut plan = Plan::compile(&mut net, &x).unwrap();
        rng[0] = Rng::seed_from(7);
        injector.realize_plan_batch(&mut plan, &mut rng).unwrap();
        let a = plan.forward(&mut net).unwrap().clone();
        let b = plan.forward(&mut net).unwrap().clone();
        net.plan_end();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "static realizations must repeat");
    }

    /// The recurrent stack of the paper's forecaster behind a frozen
    /// `NARROW`-wide front: a `Conv1d` over `[N, 1, 6]` whose `[N, 2, 6]`
    /// output is read as a 6-step sequence of 2 features (a reshape, not a
    /// transpose), then a sequence-returning `Lstm` feeding one that is not,
    /// under a dense head. The front lets the engine stack the `Lstm`s.
    fn lstm_stack(seed: u64) -> Sequential {
        use invnorm_nn::conv::Conv1d;
        use invnorm_nn::lstm::Lstm;
        use invnorm_nn::reshape::Reshape;
        let mut rng = Rng::seed_from(seed);
        Sequential::new()
            .with(Box::new(Conv1d::new(1, NARROW, 3, 1, 1, &mut rng)))
            .with(Box::new(Reshape::new(&[6, NARROW])))
            .with(Box::new(Lstm::new(NARROW, 6, true, &mut rng)))
            .with(Box::new(Lstm::new(6, 6, false, &mut rng)))
            .with(Box::new(Linear::new(6, 1, &mut rng)))
    }

    /// Stacking regroups runs without changing one bit: the planned
    /// engine's per-run metrics at a stack cap of 3 equal those at 1, on
    /// one and four workers, on a norm-bearing MLP and on the `Lstm` stack.
    #[test]
    fn stacked_sweeps_match_one_realization_sweeps() {
        type NetCase = (fn(u64) -> Sequential, u64, &'static [usize]);
        let mc = MonteCarloEngine::new(8, 3003);
        let nets: [NetCase; 2] = [(mlp_with_norm, 242, &[6, 8]), (lstm_stack, 243, &[2, 1, 6])];
        let [line, _, drift] = structured_fault_models();
        for (build, seed, dims) in nets {
            let x = Tensor::randn(dims, 0.0, 1.0, &mut Rng::seed_from(241));
            for fault in [FaultModel::AdditiveVariation { sigma: 0.3 }, line, drift] {
                for threads in [1usize, 4] {
                    let run = |batch| {
                        planned(&mc, W, || build(seed), fault, &x, (batch, threads)).unwrap()
                    };
                    let what = format!("{dims:?} {fault:?} batch=1 vs batch=3 threads={threads}");
                    assert_same_runs(&run(1), &run(3), &what);
                }
            }
        }
    }

    /// `run_auto` reports the planned engine and no fallbacks, matches the
    /// sequential reference bit for bit, and runs the stack its rule picks:
    /// on a plannable MLP, and on the `Lstm` stack.
    fn assert_run_auto_matches_oracle(build: fn(u64) -> Sequential, fault: FaultModel, x: &Tensor) {
        let mc = MonteCarloEngine::new(8, 777);
        let sequential = oracle(&mc, W, &mut build(262), fault, x).unwrap();
        let policy = DegradationPolicy::Graceful;
        telemetry::Telemetry::enable();
        let outcome = mc
            .run_auto(|| build(262), fault, x, sum, 3, 2, policy)
            .unwrap();
        assert_eq!(outcome.engine, EngineKind::Planned);
        assert!(outcome.fallbacks.is_empty());
        assert_same_runs(&sequential, &outcome.summary, &format!("{fault:?}"));
        let ran = outcome.summary.telemetry.and_then(|t| t.plan);
        let expected = expected_stack(&mc, || build(262), x, (3, 2));
        assert_eq!(ran.map(|p| p.stack), Some(expected));
    }

    #[test]
    fn run_auto_uses_fastest_engine_when_supported() {
        let x = Tensor::randn(&[5, 8], 0.0, 1.0, &mut Rng::seed_from(261));
        assert_run_auto_matches_oracle(mlp_with_norm, structured_fault_models()[0], &x);
    }

    #[test]
    fn run_auto_runs_the_lstm_stack() {
        let x = Tensor::randn(&[2, 1, 6], 0.0, 1.0, &mut Rng::seed_from(282));
        let fault = FaultModel::AdditiveVariation { sigma: 0.1 };
        assert_run_auto_matches_oracle(lstm_stack, fault, &x);
    }
}
