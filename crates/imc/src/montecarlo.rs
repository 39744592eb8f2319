//! Monte-Carlo fault simulation (the paper's evaluation protocol).
//!
//! Every robustness number in the paper is the mean ± standard deviation of a
//! metric over 100 Monte-Carlo fault-simulation runs, each run representing
//! one simulated chip instance with its own random fault realization.
//! [`MonteCarloEngine`] reproduces that protocol: it repeatedly injects a
//! fresh fault realization into the network, evaluates a caller-provided
//! metric, restores the clean weights, and aggregates the results.
//!
//! For sweeps over many fault strengths, [`MonteCarloEngine::run_parallel`]
//! distributes chip instances over rayon worker threads using model
//! *factories* (each worker builds its own model copy once and reuses it
//! across the chip instances it claims), since trained networks are not
//! `Clone`. Chip instances are claimed in fixed-size chunks from a shared
//! atomic counter (work stealing), and every instance derives its RNG stream
//! from the base seed and its own index alone, so the per-run metrics — and
//! therefore the aggregate statistics — are **bit-identical** to the
//! sequential [`MonteCarloEngine::run`] regardless of thread count or
//! scheduling order.
//!
//! [`MonteCarloEngine::run_planned`] is the fused engine: each worker
//! compiles its model into an `invnorm_nn::plan::Plan` holding `batch ≥ 1`
//! stacked fault realizations, materializes them from the same per-instance
//! streams, and evaluates each stack in one planned forward — again
//! bit-identical to `run`. [`MonteCarloEngine::run_auto`] tries it first and
//! falls back to `run_parallel` only for a layer that plans cannot run
//! (today only `Lstm`). The sequential and planned engines also have a
//! `*_quantized` form that injects into i8 codes, and every engine has a
//! `*_supervised` form with budgets, quarantine and resume (see
//! [`crate::supervise`]).

use crate::fault::{FaultLifetime, FaultModel, FaultSpec};
use crate::injector::{CodeFaultInjector, WeightFaultInjector};
use crate::supervise::{
    panic_message, QuarantineCause, QuarantinedRun, RunLedger, SweepControl, SweepDomain,
    SweepOutcome,
};
use crate::Result;
use invnorm_nn::layer::{Layer, Mode};
use invnorm_nn::plan::Plan;
use invnorm_nn::{CheckpointFault, NnError};
use invnorm_tensor::stats::RunningStats;
use invnorm_tensor::telemetry::{self, RunScope, RunTelemetry};
use invnorm_tensor::{Rng, Tensor};
use serde::{Deserialize, Serialize};
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
    pub(crate) fn from_runs(fault_label: String, per_run: Vec<f32>) -> Self {
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

/// One rung of the Monte-Carlo engine ladder, fastest first. Used by
/// [`MonteCarloEngine::run_auto`] to report which engine actually produced a
/// summary and which rungs were skipped on the way down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// [`MonteCarloEngine::run_planned`]: compiled plans with B ≥ 1 fused
    /// fault realizations per forward.
    Planned,
    /// [`MonteCarloEngine::run_parallel`]: per-instance snapshot/restore on
    /// the direct eval path — supports every layer, including the `Lstm`
    /// that compiled plans cannot run.
    Parallel,
    /// [`MonteCarloEngine::run`] / [`MonteCarloEngine::run_quantized`]: the
    /// single-threaded reference engine. Never chosen by the ladder (it is
    /// `run_parallel` with one worker, minus the pool); appears in
    /// supervised-sweep checkpoints taken from the sequential entry points.
    Sequential,
}

impl EngineKind {
    /// The engine entry-point name, as used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Planned => "MonteCarloEngine::run_planned",
            EngineKind::Parallel => "MonteCarloEngine::run_parallel",
            EngineKind::Sequential => "MonteCarloEngine::run",
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
    /// Fall down the engine ladder (`run_planned` → `run_parallel`),
    /// recording a typed reason per skipped rung. Per-run metrics are
    /// bit-identical across rungs wherever both engines support the
    /// configuration, so degrading never changes the statistics — only the
    /// throughput.
    #[default]
    Graceful,
    /// No fallback: run the planned engine and propagate its error loudly.
    Strict,
}

/// Why [`MonteCarloEngine::run_auto`] stepped past an engine.
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

/// Result of [`MonteCarloEngine::run_auto_supervised`]: the supervised sweep
/// outcome plus the ladder report.
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

/// What one worker attempt at a chip instance produced. `Panicked` only
/// occurs on the supervised paths (the legacy entry points let panics
/// propagate, preserving their pre-supervision behavior).
enum Attempt {
    Metric(Result<f32>),
    Panicked(String),
}

/// Per-batch counterpart of [`Attempt`]: a fused forward is a fused failure
/// domain, so a panic quarantines the whole batch.
enum BatchAttempt {
    Metrics(Result<Vec<f32>>),
    Panicked(String),
}

/// Injector dispatch shared by the sequential supervised body, so the f32
/// and code-domain loops are literally the same code.
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
    /// faults around every evaluation.
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
    /// whenever possible.
    pub fn run<F>(
        &self,
        network: &mut dyn Layer,
        fault: impl Into<FaultSpec>,
        evaluate: F,
    ) -> Result<MonteCarloSummary>
    where
        F: FnMut(&mut dyn Layer) -> Result<f32>,
    {
        let outcome = self.run_seq_impl(
            network,
            fault.into(),
            evaluate,
            SweepDomain::Weights,
            &SweepControl::default(),
            false,
        )?;
        Self::unwrap_legacy(outcome)
    }

    /// The supervised counterpart of [`MonteCarloEngine::run`]: honors the
    /// control's [`crate::supervise::RunBudget`] between chip instances,
    /// quarantines panicking and non-finite runs instead of failing the
    /// sweep, and resumes from the control's checkpoint when one is given.
    /// See [`crate::supervise`] for the full semantics.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault configuration is invalid or
    /// unsupported, when a resume checkpoint does not match this sweep, or
    /// when injection, evaluation or restoration fails *with a genuine
    /// error* (an `Err` from `evaluate` still propagates — only panics and
    /// non-finite metrics are quarantined).
    pub fn run_supervised<F>(
        &self,
        network: &mut dyn Layer,
        fault: impl Into<FaultSpec>,
        evaluate: F,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        F: FnMut(&mut dyn Layer) -> Result<f32>,
    {
        self.run_seq_impl(
            network,
            fault.into(),
            evaluate,
            SweepDomain::Weights,
            control,
            true,
        )
    }

    /// Shared body of the sequential engines (`run` / `run_quantized` and
    /// their supervised variants). `catch` is true only on the supervised
    /// paths: the legacy entry points keep their pre-supervision panic
    /// semantics (propagate) and map the lowest quarantined run back to the
    /// historical error message via [`MonteCarloEngine::unwrap_legacy`].
    fn run_seq_impl<F>(
        &self,
        network: &mut dyn Layer,
        spec: FaultSpec,
        mut evaluate: F,
        domain: SweepDomain,
        control: &SweepControl,
        catch: bool,
    ) -> Result<SweepOutcome>
    where
        F: FnMut(&mut dyn Layer) -> Result<f32>,
    {
        let entry = match domain {
            SweepDomain::Weights => "MonteCarloEngine::run",
            SweepDomain::Codes => "MonteCarloEngine::run_quantized",
        };
        let fault = Self::require_static(spec, entry)?;
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
            // Kept in lockstep with `simulate_one` (the run_parallel inner
            // step); they cannot share code because the `&mut dyn Layer` in
            // `F`'s bound cannot unify with a `?Sized` type parameter
            // (diagonal higher-ranked lifetime). Any divergence is caught by
            // the `parallel_*_bit_identical*` tests below.
            let mut rng = Self::run_rng(self.seed, run);
            let mut injector = AnyInjector::new(domain, fault);
            injector.inject(network, &mut rng)?;
            // The user closure fuses forward and metric; span both together.
            let result = {
                let _span = telemetry::span(telemetry::Phase::Forward);
                if catch {
                    match catch_unwind(AssertUnwindSafe(|| evaluate(network))) {
                        Ok(r) => Attempt::Metric(r),
                        Err(payload) => Attempt::Panicked(panic_message(payload)),
                    }
                } else {
                    Attempt::Metric(evaluate(network))
                }
            };
            // Always restore, even if evaluation failed or panicked: the
            // injector's snapshot is intact either way.
            let restore_result = injector.restore(network);
            match result {
                Attempt::Metric(Ok(metric)) => {
                    restore_result?;
                    ledger.record(run, metric);
                }
                // A genuine evaluation error takes precedence over a
                // restore failure, matching the historical ordering.
                Attempt::Metric(Err(e)) => return Err(e),
                Attempt::Panicked(message) => {
                    restore_result?;
                    ledger.record_panic(run, message);
                }
            }
        }
        Ok(ledger.finish(scope, &control.budget))
    }

    /// Maps a supervised outcome back onto the legacy contract: a complete,
    /// quarantine-free sweep returns its summary, and the lowest quarantined
    /// run reproduces the historical non-finite error message. Interrupts
    /// cannot occur (legacy calls pass an unbounded default control).
    fn unwrap_legacy(outcome: SweepOutcome) -> Result<MonteCarloSummary> {
        match outcome {
            SweepOutcome::Complete {
                summary,
                quarantined,
            } => match quarantined.into_iter().min_by_key(|q| q.run) {
                None => Ok(summary),
                Some(q) => Err(Self::legacy_quarantine_error(&q)),
            },
            SweepOutcome::Interrupted { .. } => Err(NnError::Config(
                "sweep interrupted under an unbounded budget (internal error)".into(),
            )),
        }
    }

    fn legacy_quarantine_error(q: &QuarantinedRun) -> NnError {
        match &q.cause {
            QuarantineCause::NonFinite { value } => NnError::Config(format!(
                "evaluation returned a non-finite metric ({value}) on run {}",
                q.run
            )),
            QuarantineCause::Panic { message } => {
                NnError::Config(format!("evaluation panicked ({message}) on run {}", q.run))
            }
        }
    }

    /// Runs the simulation with per-worker model copies built by `factory`,
    /// spreading chip instances over `threads` rayon workers.
    ///
    /// This is the variant used for the larger sweeps in `invnorm-bench`;
    /// each worker builds its own model once (factories are expected to
    /// reproduce identical weights, e.g. by re-training with a fixed seed or
    /// loading a shared checkpoint) and then claims chip instances in chunks
    /// of [`MonteCarloEngine::CHUNK`] from a shared atomic counter, so slow
    /// instances do not leave workers idle.
    ///
    /// Because instance `i` always uses the RNG stream derived from
    /// `(seed, i)` and writes metric slot `i`, the result is bit-identical to
    /// [`MonteCarloEngine::run`] on an identically-weighted model, for every
    /// thread count and schedule.
    ///
    /// # Errors
    ///
    /// Returns an error when any instance fails; with several failures, the
    /// error of the lowest-indexed failing instance is returned (matching
    /// what the sequential engine would report first).
    pub fn run_parallel<M, F, E>(
        &self,
        factory: F,
        fault: impl Into<FaultSpec>,
        evaluate: E,
        threads: usize,
    ) -> Result<MonteCarloSummary>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&mut M) -> Result<f32> + Sync,
    {
        let outcome = self.run_parallel_impl(
            factory,
            fault.into(),
            evaluate,
            threads,
            &SweepControl::default(),
            false,
        )?;
        Self::unwrap_legacy(outcome)
    }

    /// The supervised counterpart of [`MonteCarloEngine::run_parallel`]:
    /// workers honor the control's budget between chip instances, a
    /// panicking run is quarantined (the worker rebuilds its model from the
    /// factory and keeps claiming work — the pool survives), non-finite
    /// metrics are quarantined at record time, and the control's checkpoint
    /// resumes only the missing instances. See [`crate::supervise`].
    ///
    /// # Errors
    ///
    /// See [`MonteCarloEngine::run_supervised`]; with several genuine
    /// errors, the lowest-indexed failing instance is reported.
    pub fn run_parallel_supervised<M, F, E>(
        &self,
        factory: F,
        fault: impl Into<FaultSpec>,
        evaluate: E,
        threads: usize,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&mut M) -> Result<f32> + Sync,
    {
        self.run_parallel_impl(factory, fault.into(), evaluate, threads, control, true)
    }

    fn run_parallel_impl<M, F, E>(
        &self,
        factory: F,
        spec: FaultSpec,
        evaluate: E,
        threads: usize,
        control: &SweepControl,
        catch: bool,
    ) -> Result<SweepOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&mut M) -> Result<f32> + Sync,
    {
        let fault = Self::require_static(spec, "MonteCarloEngine::run_parallel")?;
        let scope = RunScope::begin();
        let mut ledger = RunLedger::new(
            EngineKind::Parallel,
            SweepDomain::Weights,
            self.seed,
            self.runs,
            fault.label(),
            control.resume.as_ref(),
        )?;
        let done = ledger.done_mask();
        let budget = &control.budget;
        let threads = threads.clamp(1, self.runs);
        let n_chunks = self.runs.div_ceil(Self::CHUNK);
        let seed = self.seed;
        let runs = self.runs;
        let next_chunk = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, Attempt)>> = Mutex::new(Vec::with_capacity(runs));
        rayon::scope(|s| {
            for _ in 0..threads {
                let next_chunk = &next_chunk;
                let collected = &collected;
                let factory = &factory;
                let evaluate = &evaluate;
                let done = &done;
                s.spawn(move || {
                    let mut model = factory();
                    let mut local: Vec<(usize, Attempt)> = Vec::new();
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
                            if catch {
                                match catch_unwind(AssertUnwindSafe(|| {
                                    Self::simulate_one(&mut model, fault, seed, run, evaluate)
                                })) {
                                    Ok(r) => local.push((run, Attempt::Metric(r))),
                                    Err(payload) => {
                                        local
                                            .push((run, Attempt::Panicked(panic_message(payload))));
                                        // The panic left the model in an
                                        // unknown state; rebuild it.
                                        model = factory();
                                    }
                                }
                            } else {
                                local.push((
                                    run,
                                    Attempt::Metric(Self::simulate_one(
                                        &mut model, fault, seed, run, evaluate,
                                    )),
                                ));
                            }
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
            match attempt {
                Attempt::Metric(Ok(metric)) => ledger.record(run, metric),
                // Lowest-indexed genuine error wins (the drain is sorted).
                Attempt::Metric(Err(e)) => return Err(e),
                Attempt::Panicked(message) => ledger.record_panic(run, message),
            }
        }
        Ok(ledger.finish(scope, budget))
    }

    /// Number of chip instances a worker claims per steal. Small enough to
    /// balance heterogeneous evaluation times, large enough to amortize the
    /// atomic increment.
    pub const CHUNK: usize = 4;

    /// Runs the simulation on a **quantized** network, injecting each fault
    /// realization **directly into the i8 weight codes**
    /// (via [`CodeFaultInjector`]) instead of the f32 parameters. This is
    /// the protocol for integer-inference models built from
    /// `invnorm_nn::quantized` layers: faults are applied on the
    /// representation the hardware programs, and every forward pass inside
    /// `evaluate` runs through the integer GEMM on the faulty codes.
    ///
    /// Chip instance `i` uses the same `(seed, i)`-derived RNG stream as
    /// [`MonteCarloEngine::run`], so a quantized simulation is directly
    /// comparable to its f32 counterpart run with the same engine.
    ///
    /// # Errors
    ///
    /// Returns an error when injection, evaluation or restoration fails, or
    /// when a metric is non-finite; the clean codes are restored before the
    /// error is returned whenever possible.
    pub fn run_quantized<F>(
        &self,
        network: &mut dyn Layer,
        fault: impl Into<FaultSpec>,
        evaluate: F,
    ) -> Result<MonteCarloSummary>
    where
        F: FnMut(&mut dyn Layer) -> Result<f32>,
    {
        let outcome = self.run_seq_impl(
            network,
            fault.into(),
            evaluate,
            SweepDomain::Codes,
            &SweepControl::default(),
            false,
        )?;
        Self::unwrap_legacy(outcome)
    }

    /// The supervised counterpart of [`MonteCarloEngine::run_quantized`]:
    /// same code-domain protocol, plus budgets, quarantine and resume — see
    /// [`MonteCarloEngine::run_supervised`] and [`crate::supervise`].
    ///
    /// # Errors
    ///
    /// See [`MonteCarloEngine::run_supervised`].
    pub fn run_quantized_supervised<F>(
        &self,
        network: &mut dyn Layer,
        fault: impl Into<FaultSpec>,
        evaluate: F,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        F: FnMut(&mut dyn Layer) -> Result<f32>,
    {
        self.run_seq_impl(
            network,
            fault.into(),
            evaluate,
            SweepDomain::Codes,
            control,
            true,
        )
    }

    /// Runs the simulation on **compiled inference plans with B fault
    /// realizations fused into each forward pass** (`batch ≥ 1`).
    ///
    /// Each worker builds its model once and compiles it into a plan for
    /// the shape of `input` (`Plan::compile_batched`): one-shot shape
    /// inference, arena-backed buffers, and — per weighted layer — `batch`
    /// stacked faulty buffers with per-realization cached packed panels,
    /// all reserved at compile time. Per batch of chip instances, the
    /// injector materializes the realizations from the sequential
    /// per-instance RNG streams straight into the stacked buffers
    /// ([`WeightFaultInjector::realize_plan_batch`]; the clean weights are
    /// never touched, so there is no snapshot/restore) — sparse stuck-at
    /// realizations land in the packed panels cell by cell, drift scales
    /// the whole panel stack in place, dense models re-pack only dirty rows
    /// — and ONE planned forward evaluates the whole stack, with the cached
    /// activation panels (packed/unfolded/quantized once per simulation,
    /// not once per batch) streamed against every realization's weight
    /// panel. `metric` then scores each realization's rows of the stacked
    /// output. Batches are distributed over `threads` rayon workers exactly
    /// like [`MonteCarloEngine::run_parallel`] distributes instances.
    ///
    /// `batch = 1` evaluates one realization per forward; larger stacks
    /// share each forward's input-derived work across realizations. The
    /// stack is capped so every worker gets at least one batch, and a
    /// smaller tail batch recompiles the worker's plan.
    ///
    /// Chip instance `i` perturbs its weights with the same `(seed, i)`
    /// derived streams as [`MonteCarloEngine::run`], and realization `b`'s
    /// rows of the stacked output are arithmetically identical to a direct
    /// forward on its faulty weights, so the per-run metrics are
    /// **bit-identical** to the sequential engine evaluating
    /// `metric(network.forward(input))` — for every batch size and thread
    /// count (tested for all eight fault models).
    ///
    /// The network must be built from plan-capable layers (the dense, conv,
    /// quantized, container, activation, pooling, reshape, upsampling and
    /// norm layers); a layer with fault-targetable weights but no plan
    /// support — today only `Lstm` — is rejected loudly with
    /// `NnError::Unsupported`. Networks that are stochastic at evaluation
    /// time are not reproducible against the sequential engine.
    ///
    /// Both fault lifetimes are supported: pass a [`FaultSpec`] with
    /// [`FaultLifetime::PerInference`] (e.g. transient read noise) and the
    /// plan re-realizes before every forward and disables its frozen-input
    /// caching, so each forward sees a fresh realization. Since this engine
    /// runs exactly one forward per chip instance, per-run metrics remain
    /// bit-identical to the static lifetime — the lifetime only changes
    /// behavior for callers driving several forwards per realization.
    ///
    /// # Errors
    ///
    /// Returns an error when compilation, injection, evaluation or the
    /// metric fails, or when a metric is non-finite; with several failures,
    /// the error of the lowest-indexed failing batch is returned.
    pub fn run_planned<M, F, E>(
        &self,
        factory: F,
        fault: impl Into<FaultSpec>,
        input: &Tensor,
        metric: E,
        batch: usize,
        threads: usize,
    ) -> Result<MonteCarloSummary>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        let outcome = self.run_planned_in(
            SweepDomain::Weights,
            factory,
            fault.into(),
            input,
            metric,
            batch,
            threads,
            &SweepControl::default(),
            false,
        )?;
        Self::unwrap_legacy(outcome)
    }

    /// The supervised counterpart of [`MonteCarloEngine::run_planned`]:
    /// workers honor the [`SweepControl`] budget between batches, and the
    /// control's checkpoint resumes only batches with missing instances
    /// (a partially-done batch re-runs whole; deterministic streams make
    /// the replayed values identical). Because a batch shares one fused
    /// forward, the whole batch is its failure domain: a panic quarantines
    /// every instance in it, and the worker drops its plan, rebuilds its
    /// model and recompiles — the pool survives. See [`crate::supervise`].
    ///
    /// # Errors
    ///
    /// See [`MonteCarloEngine::run_supervised`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_planned_supervised<M, F, E>(
        &self,
        factory: F,
        fault: impl Into<FaultSpec>,
        input: &Tensor,
        metric: E,
        batch: usize,
        threads: usize,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        self.run_planned_in(
            SweepDomain::Weights,
            factory,
            fault.into(),
            input,
            metric,
            batch,
            threads,
            control,
            true,
        )
    }

    /// The **quantized** counterpart of [`MonteCarloEngine::run_planned`]:
    /// realizations land directly in the plan's stacked i8 code buffers
    /// (via [`CodeFaultInjector::realize_plan_batch`] streams),
    /// per-realization dirty code rows drive the panel re-packing, and the
    /// fused planned forward stays in the integer domain. Per-run metrics
    /// are bit-identical to [`MonteCarloEngine::run_quantized`] evaluating
    /// `metric(network.forward(input))`.
    ///
    /// # Errors
    ///
    /// See [`MonteCarloEngine::run_planned`].
    pub fn run_planned_quantized<M, F, E>(
        &self,
        factory: F,
        fault: impl Into<FaultSpec>,
        input: &Tensor,
        metric: E,
        batch: usize,
        threads: usize,
    ) -> Result<MonteCarloSummary>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        let outcome = self.run_planned_in(
            SweepDomain::Codes,
            factory,
            fault.into(),
            input,
            metric,
            batch,
            threads,
            &SweepControl::default(),
            false,
        )?;
        Self::unwrap_legacy(outcome)
    }

    /// The supervised counterpart of
    /// [`MonteCarloEngine::run_planned_quantized`] — see
    /// [`MonteCarloEngine::run_planned_supervised`].
    ///
    /// # Errors
    ///
    /// See [`MonteCarloEngine::run_supervised`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_planned_quantized_supervised<M, F, E>(
        &self,
        factory: F,
        fault: impl Into<FaultSpec>,
        input: &Tensor,
        metric: E,
        batch: usize,
        threads: usize,
        control: &SweepControl,
    ) -> Result<SweepOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        self.run_planned_in(
            SweepDomain::Codes,
            factory,
            fault.into(),
            input,
            metric,
            batch,
            threads,
            control,
            true,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_planned_in<M, F, E>(
        &self,
        domain: SweepDomain,
        factory: F,
        spec: FaultSpec,
        input: &Tensor,
        metric: E,
        batch: usize,
        threads: usize,
        control: &SweepControl,
        catch: bool,
    ) -> Result<SweepOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        spec.model.validate()?;
        let scope = RunScope::begin();
        let fault = spec.model;
        let lifetime = spec.lifetime;
        let runs = self.runs;
        let seed = self.seed;
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
        let batch = batch
            .clamp(1, runs)
            .min(runs.div_ceil(threads.max(1)))
            .max(1);
        let n_batches = runs.div_ceil(batch);
        let threads = threads.clamp(1, n_batches);
        let next_batch = AtomicUsize::new(0);
        type BatchEntry = (usize, usize, BatchAttempt);
        let collected: Mutex<Vec<BatchEntry>> = Mutex::new(Vec::with_capacity(n_batches));
        rayon::scope(|s| {
            for _ in 0..threads {
                let next_batch = &next_batch;
                let collected = &collected;
                let factory = &factory;
                let metric = &metric;
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
                                    local.push((start, bsize, BatchAttempt::Metrics(Err(e))));
                                    break;
                                }
                            }
                        }
                        let plan_ref = plan.as_mut().expect("plan compiled above");
                        rngs.clear();
                        rngs.extend((0..bsize).map(|i| Self::run_rng(seed, start + i)));
                        if catch {
                            match catch_unwind(AssertUnwindSafe(|| {
                                Self::simulate_planned_batch(
                                    &mut model,
                                    plan_ref,
                                    domain,
                                    fault,
                                    &mut rngs,
                                    &mut realization,
                                    metric,
                                )
                            })) {
                                Ok(r) => local.push((start, bsize, BatchAttempt::Metrics(r))),
                                Err(payload) => {
                                    local.push((
                                        start,
                                        bsize,
                                        BatchAttempt::Panicked(panic_message(payload)),
                                    ));
                                    // The panic left the model, its plan and
                                    // the staging tensor in an unknown state;
                                    // rebuild everything (the next claimed
                                    // batch recompiles lazily).
                                    plan = None;
                                    model = factory();
                                    realization = None;
                                }
                            }
                        } else {
                            local.push((
                                start,
                                bsize,
                                BatchAttempt::Metrics(Self::simulate_planned_batch(
                                    &mut model,
                                    plan_ref,
                                    domain,
                                    fault,
                                    &mut rngs,
                                    &mut realization,
                                    metric,
                                )),
                            ));
                        }
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
            match attempt {
                BatchAttempt::Metrics(Ok(metrics)) => {
                    for (offset, metric) in metrics.into_iter().enumerate() {
                        ledger.record(start + offset, metric);
                    }
                }
                // Lowest-indexed genuine error wins (the drain is sorted).
                BatchAttempt::Metrics(Err(e)) => return Err(e),
                BatchAttempt::Panicked(message) => {
                    for run in start..start + bsize {
                        ledger.record_panic(run, message.clone());
                    }
                }
            }
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
        match domain {
            SweepDomain::Weights => {
                WeightFaultInjector::new_unchecked(fault).realize_plan_batch(model, rngs)?;
            }
            SweepDomain::Codes => {
                CodeFaultInjector::new_unchecked(fault).realize_plan_batch(model, rngs)?;
            }
        }
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

    /// Injects, evaluates and restores a single chip instance — the inner
    /// step of [`MonteCarloEngine::run_parallel`], kept in lockstep with the
    /// loop body of [`MonteCarloEngine::run`] (see the comment there for why
    /// they cannot literally share code). Depends only on `(seed, run)`, not
    /// on which thread executes it.
    // lint: no_alloc
    fn simulate_one<M: Layer + ?Sized>(
        model: &mut M,
        fault: FaultModel,
        seed: u64,
        run: usize,
        evaluate: impl FnOnce(&mut M) -> Result<f32>,
    ) -> Result<f32> {
        let mut rng = Self::run_rng(seed, run);
        let mut injector = WeightFaultInjector::new_unchecked(fault);
        injector.inject(model, &mut rng)?;
        // The user closure fuses forward and metric; span both together.
        let result = {
            let _span = telemetry::span(telemetry::Phase::Forward);
            evaluate(model)
        };
        // Always restore, even if evaluation failed.
        let restore_result = injector.restore(model);
        let metric = result?;
        restore_result?;
        Ok(metric)
    }

    /// Runs the simulation on the fastest engine that supports the fault
    /// configuration and the network, degrading gracefully down the ladder
    /// `run_planned` → `run_parallel` and reporting every skipped rung with
    /// a typed reason.
    ///
    /// Two kinds of capability gaps trigger a fallback:
    ///
    /// - **Lifetime**: a per-inference fault lifetime is only honored by the
    ///   planned engine (the plan re-realizes before every forward and
    ///   disables frozen-input caching); `run_parallel` is skipped
    ///   pre-flight with [`FallbackReason::Lifetime`].
    /// - **Layer support**: a layer that rejects compiled plans (today only
    ///   `Lstm`) surfaces as [`NnError::Unsupported`], recorded as
    ///   [`FallbackReason::Unsupported`]; the ladder continues downward.
    ///   `run_parallel` at the bottom supports every layer.
    ///
    /// Per-run metrics are **bit-identical** across both rungs for every
    /// configuration both engines support, so degrading never changes the
    /// reported statistics — only throughput. Under
    /// [`DegradationPolicy::Strict`] no fallback happens: the planned
    /// engine runs and any error propagates loudly, preserving the
    /// pre-ladder behavior.
    ///
    /// # Errors
    ///
    /// Returns the planned engine's error under `Strict`; under `Graceful`,
    /// propagates the first non-capability error immediately, and returns
    /// [`NnError::FaultUnsupported`] listing every rung's reason when the
    /// whole ladder is exhausted (e.g. an unplannable layer combined with a
    /// per-inference lifetime). Also fails when the fault model itself is
    /// invalid, or when any metric is non-finite.
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
        let spec = fault.into();
        spec.model.validate()?;
        if policy == DegradationPolicy::Strict {
            let summary = self.run_planned(factory, spec, input, metric, batch, threads)?;
            return Ok(LadderOutcome {
                summary,
                engine: EngineKind::Planned,
                fallbacks: Vec::new(),
            });
        }
        let mut fallbacks: Vec<FallbackStep> = Vec::new();
        for engine in [EngineKind::Planned, EngineKind::Parallel] {
            // Pre-flight: the direct engine has no fault-lifetime model (its
            // realizations outlive a forward pass), so a per-inference
            // lifetime cannot reach it.
            if spec.lifetime == FaultLifetime::PerInference && engine == EngineKind::Parallel {
                telemetry::count(telemetry::Counter::LadderFallbacks, 1);
                fallbacks.push(FallbackStep {
                    engine,
                    reason: FallbackReason::Lifetime,
                });
                continue;
            }
            let result = match engine {
                EngineKind::Planned => {
                    self.run_planned(&factory, spec, input, &metric, batch, threads)
                }
                EngineKind::Parallel => self.run_parallel(
                    &factory,
                    spec,
                    |m: &mut M| {
                        let out = m.forward(input, Mode::Eval)?;
                        metric(&out)
                    },
                    threads,
                ),
                EngineKind::Sequential => unreachable!("the ladder never visits run"),
            };
            match result {
                Ok(summary) => {
                    return Ok(LadderOutcome {
                        summary,
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
            "MonteCarloEngine::run_auto",
            format!("the fault configuration on any engine: {reasons}"),
        ))
    }

    /// The supervised counterpart of [`MonteCarloEngine::run_auto`]: the same
    /// graceful-degradation ladder, but every rung honors the
    /// [`SweepControl`] budget (deadline / cancellation), quarantines
    /// panicking or non-finite runs instead of aborting the sweep, and an
    /// interrupted sweep returns a [`SweepCheckpoint`] in
    /// [`SweepOutcome::Interrupted`].
    ///
    /// When `control.resume` carries a checkpoint, the ladder is **not**
    /// consulted: the checkpoint pins the engine that produced it (resuming
    /// on a different rung would be answering a different question about
    /// which engine's failure domains quarantined which runs), so the sweep
    /// resumes directly on `checkpoint.engine` with an empty fallback
    /// report. A checkpoint taken from one of the sequential entry points is
    /// rejected with [`CheckpointFault::Mismatch`] — `run_auto_supervised`
    /// never produces one, so being handed one is a caller bug.
    ///
    /// # Errors
    ///
    /// See [`MonteCarloEngine::run_auto`]; additionally fails with a typed
    /// [`NnError::Checkpoint`] when the resume checkpoint does not match the
    /// sweep configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn run_auto_supervised<M, F, E>(
        &self,
        factory: F,
        fault: impl Into<FaultSpec>,
        input: &Tensor,
        metric: E,
        batch: usize,
        threads: usize,
        policy: DegradationPolicy,
        control: &SweepControl,
    ) -> Result<SupervisedLadderOutcome>
    where
        M: Layer + Send,
        F: Fn() -> M + Sync,
        E: Fn(&Tensor) -> Result<f32> + Sync,
    {
        let spec = fault.into();
        spec.model.validate()?;
        if let Some(checkpoint) = control.resume.as_ref() {
            let engine = checkpoint.engine;
            let outcome = match engine {
                EngineKind::Planned => self.run_planned_in(
                    checkpoint.domain,
                    factory,
                    spec,
                    input,
                    metric,
                    batch,
                    threads,
                    control,
                    true,
                )?,
                EngineKind::Parallel => self.run_parallel_supervised(
                    factory,
                    spec,
                    |m: &mut M| {
                        let out = m.forward(input, Mode::Eval)?;
                        metric(&out)
                    },
                    threads,
                    control,
                )?,
                EngineKind::Sequential => {
                    return Err(NnError::Checkpoint(CheckpointFault::Mismatch {
                        field: "engine",
                        expected: "a ladder engine (run_auto_supervised never runs \
                                   the sequential engine)"
                            .into(),
                        got: engine.name().into(),
                    }))
                }
            };
            return Ok(SupervisedLadderOutcome {
                outcome,
                engine,
                fallbacks: Vec::new(),
            });
        }
        if policy == DegradationPolicy::Strict {
            let outcome =
                self.run_planned_supervised(factory, spec, input, metric, batch, threads, control)?;
            return Ok(SupervisedLadderOutcome {
                outcome,
                engine: EngineKind::Planned,
                fallbacks: Vec::new(),
            });
        }
        let mut fallbacks: Vec<FallbackStep> = Vec::new();
        for engine in [EngineKind::Planned, EngineKind::Parallel] {
            // Pre-flight: same lifetime capability gap as the legacy ladder.
            if spec.lifetime == FaultLifetime::PerInference && engine == EngineKind::Parallel {
                telemetry::count(telemetry::Counter::LadderFallbacks, 1);
                fallbacks.push(FallbackStep {
                    engine,
                    reason: FallbackReason::Lifetime,
                });
                continue;
            }
            let result = match engine {
                EngineKind::Planned => self.run_planned_supervised(
                    &factory, spec, input, &metric, batch, threads, control,
                ),
                EngineKind::Parallel => self.run_parallel_supervised(
                    &factory,
                    spec,
                    |m: &mut M| {
                        let out = m.forward(input, Mode::Eval)?;
                        metric(&out)
                    },
                    threads,
                    control,
                ),
                EngineKind::Sequential => unreachable!("the ladder never visits run"),
            };
            match result {
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
            "MonteCarloEngine::run_auto",
            format!("the fault configuration on any engine: {reasons}"),
        ))
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
        let x_par = x.clone();
        let parallel = engine
            .run_parallel(
                || simple_net(15),
                fault,
                move |n| Ok(n.forward(&x_par, Mode::Eval)?.sum()),
                4,
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
            let x = x.clone();
            engine
                .run_parallel(
                    || simple_net(22),
                    fault,
                    move |n: &mut Sequential| Ok(n.forward(&x, Mode::Eval)?.sum()),
                    threads,
                )
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
        let result = engine.run_parallel(
            || simple_net(23),
            FaultModel::None,
            |_n: &mut Sequential| Err(NnError::Config("boom".into())),
            4,
        );
        assert!(result.is_err());
        // Every instance yields a non-finite metric; the reported error must
        // name the lowest-indexed instance (run 0) no matter which worker
        // finished first — the documented error-ordering contract.
        let result = engine.run_parallel(
            || simple_net(23),
            FaultModel::AdditiveVariation { sigma: 0.1 },
            |_n: &mut Sequential| Ok(f32::NAN),
            4,
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
        let quant_summary = engine
            .run_quantized(&mut qnet, fault, |n| {
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
            MonteCarloEngine::new(6, seed)
                .run_quantized(&mut qnet, FaultModel::StuckAt { rate: 0.2 }, |n| {
                    Ok(n.forward(&x, Mode::Eval)?.sum())
                })
                .unwrap()
                .per_run
        };
        assert_eq!(run_means(9), run_means(9));
        assert_ne!(run_means(9), run_means(10));
        let (_, mut qnet) = paired_float_and_quantized_nets(42);
        let result = MonteCarloEngine::new(2, 1)
            .run_quantized(&mut qnet, FaultModel::None, |_n| Ok(f32::NAN));
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
                    let fused = engine
                        .run_planned(
                            || mlp_with_norm(251),
                            fault,
                            &x,
                            |out| Ok(out.sum()),
                            batch,
                            threads,
                        )
                        .unwrap();
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
                let fused = engine
                    .run_planned(
                        || small_cnn(261),
                        fault,
                        &x,
                        |out| Ok(out.abs().mean()),
                        batch,
                        threads,
                    )
                    .unwrap();
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
            let fused = engine
                .run_planned(|| build(263), fault, &x, |out| Ok(out.sum()), batch, 2)
                .unwrap();
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
            let sequential = engine
                .run_quantized(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
                .unwrap();
            for batch in [1usize, 3, 10] {
                for threads in [1usize, 4] {
                    let fused = engine
                        .run_planned_quantized(
                            || quantized_net(271),
                            fault,
                            &x,
                            |out| Ok(out.sum()),
                            batch,
                            threads,
                        )
                        .unwrap();
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
            let err = engine
                .run_planned(
                    build,
                    FaultModel::AdditiveVariation { sigma: 0.1 },
                    &x,
                    |out| Ok(out.sum()),
                    batch,
                    1,
                )
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
            let result = engine.run_planned(
                || mlp_with_norm(191),
                FaultModel::None,
                &x,
                |_out| Err(NnError::Config("boom".into())),
                batch,
                2,
            );
            assert!(result.is_err());
            // A non-finite metric names the lowest failing run.
            let err = engine
                .run_planned(
                    || mlp_with_norm(191),
                    FaultModel::AdditiveVariation { sigma: 0.1 },
                    &x,
                    |_out| Ok(f32::NAN),
                    batch,
                    2,
                )
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
                    let xc = x.clone();
                    let parallel = engine
                        .run_parallel(
                            || build(seed),
                            fault,
                            |m: &mut Sequential| Ok(m.forward(&xc, Mode::Eval)?.sum()),
                            threads,
                        )
                        .unwrap();
                    let planned = engine
                        .run_planned(|| build(seed), fault, &x, |out| Ok(out.sum()), 1, threads)
                        .unwrap();
                    let planned_b3 = engine
                        .run_planned(|| build(seed), fault, &x, |out| Ok(out.sum()), 3, threads)
                        .unwrap();
                    for (name, summary) in [
                        ("run_parallel", &parallel),
                        ("run_planned batch=1", &planned),
                        ("run_planned batch=3", &planned_b3),
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
    /// the quantized planned engine stays bit-identical to `run_quantized`.
    #[test]
    fn structured_code_faults_are_bit_identical_across_quantized_engines() {
        let x = Tensor::randn(&[5, 12], 0.0, 1.0, &mut Rng::seed_from(221));
        let engine = MonteCarloEngine::new(8, 4025);
        for fault in structured_fault_models() {
            let mut net = quantized_net(222);
            let xc = x.clone();
            let sequential = engine
                .run_quantized(&mut net, fault, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
                .unwrap();
            for threads in [1usize, 4] {
                for batch in [1usize, 3] {
                    let summary = engine
                        .run_planned_quantized(
                            || quantized_net(222),
                            fault,
                            &x,
                            |out| Ok(out.sum()),
                            batch,
                            threads,
                        )
                        .unwrap();
                    let identical = sequential
                        .per_run
                        .iter()
                        .zip(summary.per_run.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(identical, "{fault:?} batch={batch} threads={threads}");
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
                    engine
                        .run_planned(
                            || mlp_with_norm(242),
                            spec,
                            &x,
                            |o| Ok(o.sum()),
                            batch,
                            threads,
                        )
                        .unwrap()
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
    /// engine entry point.
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

        let xc = x.clone();
        let err = engine
            .run_parallel(
                || mlp_with_norm(252),
                spec,
                |m: &mut Sequential| Ok(m.forward(&xc, Mode::Eval)?.sum()),
                2,
            )
            .unwrap_err()
            .to_string();
        assert!(err.contains("MonteCarloEngine::run_parallel"), "{err}");

        let xq = Tensor::randn(&[3, 12], 0.0, 1.0, &mut Rng::seed_from(253));
        let mut qnet = quantized_net(254);
        let xc = xq.clone();
        let err = engine
            .run_quantized(&mut qnet, spec, |n| Ok(n.forward(&xc, Mode::Eval)?.sum()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("MonteCarloEngine::run_quantized"), "{err}");
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

    /// An unplannable layer (Lstm) degrades to `run_parallel` under the
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
            "MonteCarloEngine::run_auto",
            "run_planned",
            "run_parallel",
            "Lstm",
            "no per-inference fault lifetime model",
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
