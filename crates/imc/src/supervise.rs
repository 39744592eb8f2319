//! Sweep supervision: run budgets, cooperative cancellation, panic and
//! non-finite quarantine, and bit-identical checkpoint/resume for the
//! Monte-Carlo engines.
//!
//! The paper's robustness numbers come from long Monte-Carlo fault sweeps,
//! and a sweep that is only useful when it runs to completion cannot back a
//! service: a caller hangs up, a deadline expires at run 900 of 1000, a
//! worker panics on a pathological realization. This module gives every
//! engine in the ladder the machinery to survive all three:
//!
//! * [`RunBudget`] — a wall-clock deadline and/or a cooperative
//!   [`CancelToken`], checked by the workers **between** chip instances (a
//!   single relaxed atomic load plus an `Instant` compare, nothing per
//!   element). An interrupted sweep returns
//!   [`SweepOutcome::Interrupted`] carrying the partial summary and a
//!   resumable checkpoint instead of discarding completed work.
//! * [`QuarantinedRun`] — a panicking or non-finite run is excluded from the
//!   aggregate with a typed diagnostic (run index, engine, fault model,
//!   cause) and an explicit count, rather than silently poisoning the mean
//!   or aborting the remaining workers.
//! * [`SweepCheckpoint`] — engine kind, fault domain, master seed, run
//!   count, fault label, the per-run metrics recorded so far and the
//!   quarantine ledger. Because chip instance `i` derives its RNG stream
//!   from `(seed, i)` alone, resuming replays **only** the missing instances
//!   and the final summary is bit-identical to an uninterrupted sweep — for
//!   every engine, fault model and thread count.

use crate::montecarlo::{EngineKind, MonteCarloSummary};
use crate::Result;
use invnorm_nn::checkpoint::{frame, verify_frame};
use invnorm_nn::{CheckpointFault, NnError};
use invnorm_tensor::telemetry::{self, RunScope};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle shared between a sweep and its caller.
///
/// Cloning shares the underlying flag; calling [`CancelToken::cancel`] from
/// any clone (typically another thread) makes every worker stop claiming new
/// chip instances at its next between-instance check. The flag is a single
/// relaxed atomic: checking it costs one uncontended load, and cancellation
/// is sticky — once set it stays set.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; sticky and idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Bounds on a sweep: an optional wall-clock deadline and an optional
/// [`CancelToken`]. The default budget is unbounded and adds no measurable
/// overhead (two `Option` checks per chip instance).
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    deadline: Option<Instant>,
    token: Option<CancelToken>,
}

impl RunBudget {
    /// An unbounded budget: never interrupts.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Bounds the sweep to finish within `limit` from now.
    #[must_use]
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(Instant::now() + limit);
        self
    }

    /// Bounds the sweep to finish before the absolute instant `at`.
    #[must_use]
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attaches a cancellation token (shared with the caller).
    #[must_use]
    pub fn with_token(mut self, token: &CancelToken) -> Self {
        self.token = Some(token.clone());
        self
    }

    /// Whether this budget can interrupt at all.
    pub fn is_bounded(&self) -> bool {
        self.deadline.is_some() || self.token.is_some()
    }

    /// Returns the cause if the sweep should stop claiming new instances.
    /// Cancellation wins over an expired deadline when both hold, and both
    /// conditions are sticky, so every worker (and the final aggregation)
    /// observes the same cause.
    pub fn interrupted(&self) -> Option<InterruptCause> {
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                return Some(InterruptCause::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(InterruptCause::DeadlineExpired);
            }
        }
        None
    }
}

/// Why a sweep stopped before simulating every chip instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterruptCause {
    /// The caller's [`CancelToken`] was cancelled.
    Cancelled,
    /// The [`RunBudget`] deadline expired.
    DeadlineExpired,
}

impl fmt::Display for InterruptCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptCause::Cancelled => f.write_str("cancelled"),
            InterruptCause::DeadlineExpired => f.write_str("deadline expired"),
        }
    }
}

/// Which weight representation a sweep perturbs — mirrors the engine split
/// between [`crate::injector::WeightFaultInjector`] (f32 parameters) and
/// [`crate::injector::CodeFaultInjector`] (i8 quantization codes). Recorded
/// in checkpoints so a code-domain sweep cannot resume onto the f32 path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepDomain {
    /// Faults land on the f32 weights.
    Weights,
    /// Faults land on the i8 quantization codes.
    Codes,
}

impl fmt::Display for SweepDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepDomain::Weights => f.write_str("f32 weights"),
            SweepDomain::Codes => f.write_str("i8 codes"),
        }
    }
}

/// Why a chip instance was excluded from the aggregate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum QuarantineCause {
    /// The run body panicked; the worker pool survived, the worker rebuilt
    /// its model from the factory, and the remaining instances finished.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The metric came back NaN or ±Inf — detected at record time, before it
    /// could poison the mean.
    NonFinite {
        /// The offending value.
        value: f32,
    },
}

impl PartialEq for QuarantineCause {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (QuarantineCause::Panic { message: a }, QuarantineCause::Panic { message: b }) => {
                a == b
            }
            // Bit compare so NaN causes are equal to themselves (checkpoint
            // round-trips must be able to assert equality).
            (QuarantineCause::NonFinite { value: a }, QuarantineCause::NonFinite { value: b }) => {
                a.to_bits() == b.to_bits()
            }
            _ => false,
        }
    }
}

impl fmt::Display for QuarantineCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineCause::Panic { message } => write!(f, "panicked: {message}"),
            QuarantineCause::NonFinite { value } => {
                write!(f, "non-finite metric ({value})")
            }
        }
    }
}

/// One quarantined chip instance: which run, on which engine, under which
/// fault model, and why.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedRun {
    /// The chip-instance index.
    pub run: usize,
    /// The engine that executed (or tried to execute) the run.
    pub engine: EngineKind,
    /// Label of the fault model being simulated.
    pub fault_label: String,
    /// Why the run was excluded.
    pub cause: QuarantineCause,
}

impl fmt::Display for QuarantinedRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {} quarantined on {} [{}]: {}",
            self.run, self.engine, self.fault_label, self.cause
        )
    }
}

/// Resumable state of an interrupted sweep.
///
/// Identity fields (engine, domain, seed, run count, fault label) pin the
/// checkpoint to one exact sweep configuration; resuming against anything
/// else is rejected with a typed [`CheckpointFault::Mismatch`]. The payload
/// carries every metric recorded so far plus the quarantine ledger, so a
/// resumed sweep replays only the missing instances and — because instance
/// `i`'s RNG stream depends on `(seed, i)` alone — finishes with a summary
/// bit-identical to an uninterrupted sweep.
///
/// Serialized with [`SweepCheckpoint::to_bytes`] behind the same
/// magic/version/checksum frame as model checkpoints, so truncation,
/// corruption and version skew are all rejected before any field is trusted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// The engine the sweep ran on (resume must use the same engine).
    pub engine: EngineKind,
    /// Whether faults land on f32 weights or i8 codes.
    pub domain: SweepDomain,
    /// The engine's master seed.
    pub seed: u64,
    /// Total chip instances of the sweep.
    pub runs: usize,
    /// Label of the fault model being simulated.
    pub fault_label: String,
    /// `(run, metric)` for every finished instance, sorted by run index.
    pub completed: Vec<(usize, f32)>,
    /// Instances excluded from the aggregate (they are *not* replayed on
    /// resume: quarantine is deterministic per `(seed, run)`).
    pub quarantined: Vec<QuarantinedRun>,
}

impl SweepCheckpoint {
    /// Format magic for serialized sweep checkpoints.
    pub const MAGIC: [u8; 4] = *b"INSW";
    /// Current sweep-checkpoint format version. Version 2 renumbered the
    /// engine tags when the ladder shrank to planned → parallel; a version 1
    /// checkpoint is rejected with [`CheckpointFault::VersionSkew`].
    pub const VERSION: u32 = 2;

    /// Instances already accounted for (finished or quarantined).
    pub fn accounted_runs(&self) -> usize {
        self.completed.len() + self.quarantined.len()
    }

    /// Instances a resume still has to simulate.
    pub fn remaining_runs(&self) -> usize {
        self.runs.saturating_sub(self.accounted_runs())
    }

    /// Serializes to the framed byte format (magic, version, checksum, then
    /// the payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.seed.to_le_bytes());
        push_u32(&mut out, self.runs as u32);
        out.push(engine_tag(self.engine));
        out.push(match self.domain {
            SweepDomain::Weights => 0,
            SweepDomain::Codes => 1,
        });
        push_str(&mut out, &self.fault_label);
        push_u32(&mut out, self.completed.len() as u32);
        for &(run, metric) in &self.completed {
            push_u32(&mut out, run as u32);
            push_u32(&mut out, metric.to_bits());
        }
        push_u32(&mut out, self.quarantined.len() as u32);
        for q in &self.quarantined {
            push_u32(&mut out, q.run as u32);
            match &q.cause {
                QuarantineCause::Panic { message } => {
                    out.push(0);
                    push_str(&mut out, message);
                }
                QuarantineCause::NonFinite { value } => {
                    out.push(1);
                    push_u32(&mut out, value.to_bits());
                }
            }
        }
        frame(out, Self::MAGIC, Self::VERSION)
    }

    /// Parses a serialized checkpoint, verifying the frame (magic, version,
    /// content checksum) before trusting any field.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Checkpoint`] with a typed [`CheckpointFault`] on
    /// truncation, corruption, version skew or an inconsistent payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let payload = verify_frame(bytes, Self::MAGIC, Self::VERSION)?;
        let mut r = Reader::new(payload);
        let seed = r.u64()?;
        let runs = r.u32()? as usize;
        let engine = engine_from_tag(r.u8()?)?;
        let domain = match r.u8()? {
            0 => SweepDomain::Weights,
            1 => SweepDomain::Codes,
            other => {
                return Err(mismatch("fault domain tag", "0 or 1", other));
            }
        };
        let fault_label = r.str()?;
        // Bound each declared count by the bytes left before allocating: a
        // completed record is 8 bytes, a quarantined one at least 9.
        let n_completed = r.count(COMPLETED_RECORD_BYTES)?;
        let mut completed = Vec::with_capacity(n_completed);
        for _ in 0..n_completed {
            let run = r.u32()? as usize;
            let metric = f32::from_bits(r.u32()?);
            completed.push((run, metric));
        }
        let n_quarantined = r.count(MIN_QUARANTINED_RECORD_BYTES)?;
        let mut quarantined = Vec::with_capacity(n_quarantined);
        for _ in 0..n_quarantined {
            let run = r.u32()? as usize;
            let cause = match r.u8()? {
                0 => QuarantineCause::Panic { message: r.str()? },
                1 => QuarantineCause::NonFinite {
                    value: f32::from_bits(r.u32()?),
                },
                other => {
                    return Err(mismatch("quarantine cause tag", "0 or 1", other));
                }
            };
            quarantined.push(QuarantinedRun {
                run,
                engine,
                fault_label: fault_label.clone(),
                cause,
            });
        }
        r.expect_end()?;
        Ok(Self {
            engine,
            domain,
            seed,
            runs,
            fault_label,
            completed,
            quarantined,
        })
    }
}

/// Everything an engine call can be given beyond the sweep itself: an
/// interrupt budget and an optional checkpoint to resume from. The default
/// control is unbounded and starts from scratch — what
/// [`crate::MonteCarloEngine::run`] and [`crate::MonteCarloEngine::run_auto`]
/// pass.
#[derive(Debug, Clone, Default)]
pub struct SweepControl {
    /// Deadline / cancellation bounds.
    pub budget: RunBudget,
    /// Resume state from a previously interrupted sweep.
    pub resume: Option<SweepCheckpoint>,
}

impl SweepControl {
    /// Unbounded, from-scratch control.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the interrupt budget.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Resumes from `checkpoint` instead of starting from scratch.
    #[must_use]
    pub fn with_resume(mut self, checkpoint: SweepCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }
}

/// Result of a supervised sweep.
#[derive(Debug, Clone)]
pub enum SweepOutcome {
    /// Every chip instance was simulated (or quarantined).
    Complete {
        /// Aggregate over the non-quarantined runs.
        summary: MonteCarloSummary,
        /// Runs excluded from the aggregate, sorted by run index.
        quarantined: Vec<QuarantinedRun>,
    },
    /// The budget interrupted the sweep; completed work is preserved.
    Interrupted {
        /// Aggregate over the runs that did finish (in run order; gaps from
        /// unfinished instances are simply absent).
        partial: MonteCarloSummary,
        /// Runs excluded from the aggregate, sorted by run index.
        quarantined: Vec<QuarantinedRun>,
        /// What interrupted the sweep.
        cause: InterruptCause,
        /// Resume state: feed to [`SweepControl::with_resume`] to finish the
        /// sweep bit-identically later.
        checkpoint: SweepCheckpoint,
    },
}

impl SweepOutcome {
    /// The (complete or partial) summary.
    pub fn summary(&self) -> &MonteCarloSummary {
        match self {
            SweepOutcome::Complete { summary, .. } => summary,
            SweepOutcome::Interrupted { partial, .. } => partial,
        }
    }

    /// Runs excluded from the aggregate.
    pub fn quarantined(&self) -> &[QuarantinedRun] {
        match self {
            SweepOutcome::Complete { quarantined, .. }
            | SweepOutcome::Interrupted { quarantined, .. } => quarantined,
        }
    }

    /// Whether every instance was simulated (or quarantined).
    pub fn is_complete(&self) -> bool {
        matches!(self, SweepOutcome::Complete { .. })
    }

    /// The resume checkpoint, when interrupted.
    pub fn checkpoint(&self) -> Option<&SweepCheckpoint> {
        match self {
            SweepOutcome::Complete { .. } => None,
            SweepOutcome::Interrupted { checkpoint, .. } => Some(checkpoint),
        }
    }

    /// Maps the outcome onto the plain-summary contract of
    /// [`crate::MonteCarloEngine::run`] and
    /// [`crate::MonteCarloEngine::run_auto`]: a complete sweep with nothing
    /// quarantined returns its summary.
    ///
    /// # Errors
    ///
    /// The lowest quarantined run becomes the error (`"evaluation returned a
    /// non-finite metric (…) on run N"` or `"evaluation panicked (…) on run
    /// N"`), and an interrupted sweep returns an error naming its cause.
    pub fn into_summary(self) -> Result<MonteCarloSummary> {
        match self {
            SweepOutcome::Complete {
                summary,
                quarantined,
            } => match quarantined.first() {
                None => Ok(summary),
                Some(q) => Err(NnError::Config(match &q.cause {
                    QuarantineCause::NonFinite { value } => format!(
                        "evaluation returned a non-finite metric ({value}) on run {}",
                        q.run
                    ),
                    QuarantineCause::Panic { message } => {
                        format!("evaluation panicked ({message}) on run {}", q.run)
                    }
                })),
            },
            SweepOutcome::Interrupted {
                cause, checkpoint, ..
            } => Err(NnError::Config(format!(
                "sweep interrupted ({cause}) with {} of {} runs left",
                checkpoint.remaining_runs(),
                checkpoint.runs
            ))),
        }
    }
}

/// What one attempt at a chip instance (or at one fused batch of them)
/// produced: `Err(payload)` when the evaluation panicked, its result
/// otherwise.
pub(crate) type Attempt<T> = std::thread::Result<Result<T>>;

/// Per-run bookkeeping shared by every engine body. Records land on the main
/// thread only (workers hand their results back after they join), so the
/// ledger itself needs no synchronization.
#[derive(Debug, Clone)]
enum Slot {
    Pending,
    Done(f32),
    Quarantined(QuarantineCause),
}

#[derive(Debug)]
pub(crate) struct RunLedger {
    engine: EngineKind,
    domain: SweepDomain,
    seed: u64,
    fault_label: String,
    slots: Vec<Slot>,
}

impl RunLedger {
    /// Builds a ledger for `runs` instances, pre-filling it from `resume`
    /// after validating that the checkpoint matches this exact sweep.
    pub(crate) fn new(
        engine: EngineKind,
        domain: SweepDomain,
        seed: u64,
        runs: usize,
        fault_label: String,
        resume: Option<&SweepCheckpoint>,
    ) -> Result<Self> {
        let mut slots = vec![Slot::Pending; runs];
        if let Some(cp) = resume {
            check_match("engine", cp.engine.name(), engine.name())?;
            check_match("fault domain", &cp.domain.to_string(), &domain.to_string())?;
            check_match("seed", &cp.seed.to_string(), &seed.to_string())?;
            check_match("runs", &cp.runs.to_string(), &runs.to_string())?;
            check_match("fault label", &cp.fault_label, &fault_label)?;
            for &(run, metric) in &cp.completed {
                let slot = slots
                    .get_mut(run)
                    .ok_or_else(|| mismatch("run index", format!("< {runs}"), run))?;
                *slot = Slot::Done(metric);
            }
            for q in &cp.quarantined {
                let slot = slots
                    .get_mut(q.run)
                    .ok_or_else(|| mismatch("run index", format!("< {runs}"), q.run))?;
                *slot = Slot::Quarantined(q.cause.clone());
            }
            telemetry::count(telemetry::Counter::ResumeSkips, cp.accounted_runs() as u64);
        }
        Ok(Self {
            engine,
            domain,
            seed,
            fault_label,
            slots,
        })
    }

    /// Snapshot of which runs need no simulation (taken before workers
    /// spawn; recording happens after they join, so it cannot go stale).
    pub(crate) fn done_mask(&self) -> Vec<bool> {
        self.slots
            .iter()
            .map(|s| !matches!(s, Slot::Pending))
            .collect()
    }

    /// Whether `run` is already accounted for.
    pub(crate) fn is_done(&self, run: usize) -> bool {
        !matches!(self.slots[run], Slot::Pending)
    }

    /// Records a finished run; a non-finite metric is quarantined instead of
    /// recorded. Re-records of an already-accounted run (a resumed batch
    /// re-runs its whole stack) are ignored — per-run values are
    /// deterministic, so the replay produced the identical value anyway.
    pub(crate) fn record(&mut self, run: usize, metric: f32) {
        if !matches!(self.slots[run], Slot::Pending) {
            return;
        }
        if metric.is_finite() {
            self.slots[run] = Slot::Done(metric);
        } else {
            telemetry::count(telemetry::Counter::QuarantinedRuns, 1);
            self.slots[run] = Slot::Quarantined(QuarantineCause::NonFinite { value: metric });
        }
    }

    /// Quarantines a run whose body panicked.
    pub(crate) fn record_panic(&mut self, run: usize, message: String) {
        if !matches!(self.slots[run], Slot::Pending) {
            return;
        }
        telemetry::count(telemetry::Counter::QuarantinedRuns, 1);
        self.slots[run] = Slot::Quarantined(QuarantineCause::Panic { message });
    }

    /// Records one attempt at runs `start..start + len`: its metrics in run
    /// order, or — when it panicked — a quarantine of every run it covered
    /// (a fused forward is one failure domain).
    ///
    /// # Errors
    ///
    /// Returns the attempt's genuine error; callers record in run order, so
    /// the lowest-indexed failing attempt is the one reported.
    pub(crate) fn record_attempt(
        &mut self,
        start: usize,
        len: usize,
        attempt: Attempt<impl IntoIterator<Item = f32>>,
    ) -> Result<()> {
        match attempt {
            Ok(Ok(metrics)) => {
                for (run, metric) in (start..).zip(metrics) {
                    self.record(run, metric);
                }
            }
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                let message = panic_message(payload);
                for run in start..start + len {
                    self.record_panic(run, message.clone());
                }
            }
        }
        Ok(())
    }

    /// Closes the sweep: aggregates the finished runs, finalizes telemetry,
    /// and — when instances are still pending — packages a resume checkpoint
    /// under the budget's interrupt cause.
    pub(crate) fn finish(self, scope: RunScope, budget: &RunBudget) -> SweepOutcome {
        let runs = self.slots.len();
        let mut per_run = Vec::with_capacity(runs);
        let mut completed = Vec::with_capacity(runs);
        let mut quarantined = Vec::new();
        let mut missing = 0usize;
        for (run, slot) in self.slots.iter().enumerate() {
            match slot {
                Slot::Done(metric) => {
                    per_run.push(*metric);
                    completed.push((run, *metric));
                }
                Slot::Quarantined(cause) => quarantined.push(QuarantinedRun {
                    run,
                    engine: self.engine,
                    fault_label: self.fault_label.clone(),
                    cause: cause.clone(),
                }),
                Slot::Pending => missing += 1,
            }
        }
        let mut summary = MonteCarloSummary::from_runs(self.fault_label.clone(), per_run);
        summary.telemetry = scope.finish(&summary.per_run);
        if missing == 0 {
            return SweepOutcome::Complete {
                summary,
                quarantined,
            };
        }
        telemetry::count(telemetry::Counter::CancelledRuns, missing as u64);
        // Both interrupt conditions are sticky, so the cause the workers
        // observed is still observable here; the fallback only guards a
        // worker that stopped for a reason that has since cleared (which
        // cannot happen with the current token/deadline semantics).
        let cause = budget.interrupted().unwrap_or(InterruptCause::Cancelled);
        let checkpoint = SweepCheckpoint {
            engine: self.engine,
            domain: self.domain,
            seed: self.seed,
            runs,
            fault_label: self.fault_label,
            completed,
            quarantined: quarantined.clone(),
        };
        SweepOutcome::Interrupted {
            partial: summary,
            quarantined,
            cause,
            checkpoint,
        }
    }
}

/// Renders a panic payload for quarantine diagnostics.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serialized size of one `(run, metric)` record.
const COMPLETED_RECORD_BYTES: usize = 8;
/// Smallest serialized quarantine record: run index plus cause tag, then at
/// least a 4-byte string length or metric.
const MIN_QUARANTINED_RECORD_BYTES: usize = 9;

fn engine_tag(engine: EngineKind) -> u8 {
    match engine {
        EngineKind::Planned => 0,
        EngineKind::Parallel => 1,
        EngineKind::Sequential => 2,
    }
}

fn engine_from_tag(tag: u8) -> Result<EngineKind> {
    Ok(match tag {
        0 => EngineKind::Planned,
        1 => EngineKind::Parallel,
        2 => EngineKind::Sequential,
        other => return Err(mismatch("engine tag", "0..=2", other)),
    })
}

fn mismatch(field: &'static str, expected: impl fmt::Display, got: impl fmt::Display) -> NnError {
    NnError::Checkpoint(CheckpointFault::Mismatch {
        field,
        expected: expected.to_string(),
        got: got.to_string(),
    })
}

fn check_match(field: &'static str, from_checkpoint: &str, from_sweep: &str) -> Result<()> {
    if from_checkpoint == from_sweep {
        Ok(())
    } else {
        Err(mismatch(field, from_sweep, from_checkpoint))
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over a verified payload with typed truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let available = self.bytes.len() - self.pos;
        if available < n {
            return Err(NnError::Checkpoint(CheckpointFault::Truncated {
                needed: n,
                available,
            }));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a record count and rejects it as truncated unless the payload
    /// still holds `count` records of at least `record_bytes` each — so a
    /// crafted count can never drive an allocation past the input size.
    fn count(&mut self, record_bytes: usize) -> Result<usize> {
        let count = self.u32()? as usize;
        let available = self.bytes.len() - self.pos;
        let needed = count.saturating_mul(record_bytes);
        if needed > available {
            return Err(NnError::Checkpoint(CheckpointFault::Truncated {
                needed,
                available,
            }));
        }
        Ok(count)
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| mismatch("string encoding", "utf-8", "invalid bytes"))
    }

    fn expect_end(&self) -> Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(mismatch("payload length", self.pos, self.bytes.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> SweepCheckpoint {
        SweepCheckpoint {
            engine: EngineKind::Planned,
            domain: SweepDomain::Codes,
            seed: 0xDEAD_BEEF,
            runs: 12,
            fault_label: "additive σ=0.3".into(),
            completed: vec![(0, 1.25), (2, -0.5), (7, 3.0)],
            quarantined: vec![
                QuarantinedRun {
                    run: 3,
                    engine: EngineKind::Planned,
                    fault_label: "additive σ=0.3".into(),
                    cause: QuarantineCause::Panic {
                        message: "index out of bounds".into(),
                    },
                },
                QuarantinedRun {
                    run: 5,
                    engine: EngineKind::Planned,
                    fault_label: "additive σ=0.3".into(),
                    cause: QuarantineCause::NonFinite { value: f32::NAN },
                },
            ],
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let cp = sample_checkpoint();
        let bytes = cp.to_bytes();
        let back = SweepCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.accounted_runs(), 5);
        assert_eq!(back.remaining_runs(), 7);
    }

    #[test]
    fn checkpoint_rejects_corruption_and_skew() {
        let bytes = sample_checkpoint().to_bytes();
        // Bit flip in the payload → checksum mismatch.
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            SweepCheckpoint::from_bytes(&corrupt),
            Err(NnError::Checkpoint(
                CheckpointFault::ChecksumMismatch { .. }
            ))
        ));
        // Truncation.
        assert!(matches!(
            SweepCheckpoint::from_bytes(&bytes[..9]),
            Err(NnError::Checkpoint(CheckpointFault::Truncated { .. }))
        ));
        // Wrong magic: a *model* checkpoint frame is not a sweep checkpoint.
        let mut wrong = bytes.clone();
        wrong[..4].copy_from_slice(b"INCK");
        assert!(matches!(
            SweepCheckpoint::from_bytes(&wrong),
            Err(NnError::Checkpoint(CheckpointFault::BadMagic))
        ));
        // Version skew.
        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            SweepCheckpoint::from_bytes(&future),
            Err(NnError::Checkpoint(CheckpointFault::VersionSkew {
                expected: 2,
                got: 9
            }))
        ));
    }

    /// A hand-built payload prefix (seed, runs, engine tag, domain, label)
    /// up to the completed-run count.
    fn payload_head(engine_tag: u8, runs: u32) -> Vec<u8> {
        let mut p = 7u64.to_le_bytes().to_vec();
        push_u32(&mut p, runs);
        p.push(engine_tag);
        p.push(0);
        push_str(&mut p, "additive");
        p
    }

    fn framed(payload: Vec<u8>) -> Vec<u8> {
        frame(payload, SweepCheckpoint::MAGIC, SweepCheckpoint::VERSION)
    }

    #[test]
    fn checkpoint_rejects_v1_frames_and_unknown_engine_tags() {
        // A version 1 frame is skew, whatever its payload: tag 1 meant
        // `Planned` then and means `Parallel` now.
        let mut p = payload_head(1, 4);
        push_u32(&mut p, 0);
        push_u32(&mut p, 0);
        let v1 = frame(p.clone(), SweepCheckpoint::MAGIC, 1);
        assert!(matches!(
            SweepCheckpoint::from_bytes(&v1),
            Err(NnError::Checkpoint(CheckpointFault::VersionSkew {
                expected: 2,
                got: 1
            }))
        ));
        assert_eq!(
            SweepCheckpoint::from_bytes(&framed(p)).unwrap().engine,
            EngineKind::Parallel
        );
        for (tag, engine) in [
            (0u8, EngineKind::Planned),
            (1, EngineKind::Parallel),
            (2, EngineKind::Sequential),
        ] {
            assert_eq!(engine_tag(engine), tag);
        }
        let mut p = payload_head(3, 4);
        push_u32(&mut p, 0);
        push_u32(&mut p, 0);
        assert!(matches!(
            SweepCheckpoint::from_bytes(&framed(p)),
            Err(NnError::Checkpoint(CheckpointFault::Mismatch {
                field: "engine tag",
                ..
            }))
        ));
    }

    #[test]
    fn checkpoint_rejects_crafted_record_counts_before_allocating() {
        // runs = completed = u32::MAX with no records behind the count: a
        // trusted count would ask for a 64 GiB buffer.
        let mut p = payload_head(0, u32::MAX);
        push_u32(&mut p, u32::MAX);
        assert!(matches!(
            SweepCheckpoint::from_bytes(&framed(p)),
            Err(NnError::Checkpoint(CheckpointFault::Truncated { .. }))
        ));
        // The same for the quarantine ledger.
        let mut p = payload_head(0, u32::MAX);
        push_u32(&mut p, 0);
        push_u32(&mut p, u32::MAX);
        assert!(matches!(
            SweepCheckpoint::from_bytes(&framed(p)),
            Err(NnError::Checkpoint(CheckpointFault::Truncated { .. }))
        ));
        // One completed record too many for the bytes left.
        let mut p = payload_head(0, 4);
        push_u32(&mut p, 2);
        push_u32(&mut p, 0);
        push_u32(&mut p, 1.0f32.to_bits());
        push_u32(&mut p, 0);
        assert!(matches!(
            SweepCheckpoint::from_bytes(&framed(p)),
            Err(NnError::Checkpoint(CheckpointFault::Truncated { .. }))
        ));
    }

    #[test]
    fn budget_interrupts_on_token_and_deadline() {
        let budget = RunBudget::unbounded();
        assert!(!budget.is_bounded());
        assert_eq!(budget.interrupted(), None);

        let token = CancelToken::new();
        let budget = RunBudget::unbounded().with_token(&token);
        assert!(budget.is_bounded());
        assert_eq!(budget.interrupted(), None);
        token.cancel();
        assert_eq!(budget.interrupted(), Some(InterruptCause::Cancelled));
        // Sticky.
        assert_eq!(budget.interrupted(), Some(InterruptCause::Cancelled));

        let budget = RunBudget::unbounded().with_deadline(Duration::ZERO);
        assert_eq!(budget.interrupted(), Some(InterruptCause::DeadlineExpired));
        let budget = RunBudget::unbounded().with_deadline(Duration::from_secs(3600));
        assert_eq!(budget.interrupted(), None);

        // Cancellation wins when both hold.
        let budget = RunBudget::unbounded()
            .with_token(&token)
            .with_deadline(Duration::ZERO);
        assert_eq!(budget.interrupted(), Some(InterruptCause::Cancelled));
    }

    #[test]
    fn ledger_validates_resume_identity() {
        let cp = sample_checkpoint();
        // Matching identity loads.
        let ledger = RunLedger::new(
            EngineKind::Planned,
            SweepDomain::Codes,
            0xDEAD_BEEF,
            12,
            "additive σ=0.3".into(),
            Some(&cp),
        )
        .unwrap();
        assert!(ledger.is_done(0) && ledger.is_done(3) && ledger.is_done(5));
        assert!(!ledger.is_done(1) && !ledger.is_done(11));
        let mask = ledger.done_mask();
        assert_eq!(mask.iter().filter(|d| **d).count(), 5);

        // Each identity field is pinned.
        for (engine, domain, seed, runs, label) in [
            (
                EngineKind::Parallel,
                SweepDomain::Codes,
                0xDEAD_BEEFu64,
                12usize,
                "additive σ=0.3",
            ),
            (
                EngineKind::Planned,
                SweepDomain::Weights,
                0xDEAD_BEEF,
                12,
                "additive σ=0.3",
            ),
            (
                EngineKind::Planned,
                SweepDomain::Codes,
                7,
                12,
                "additive σ=0.3",
            ),
            (
                EngineKind::Planned,
                SweepDomain::Codes,
                0xDEAD_BEEF,
                13,
                "additive σ=0.3",
            ),
            (
                EngineKind::Planned,
                SweepDomain::Codes,
                0xDEAD_BEEF,
                12,
                "stuck-at 0.2",
            ),
        ] {
            let err =
                RunLedger::new(engine, domain, seed, runs, label.into(), Some(&cp)).unwrap_err();
            assert!(
                matches!(err, NnError::Checkpoint(CheckpointFault::Mismatch { .. })),
                "{err}"
            );
        }

        // An out-of-range run index is rejected, not a panic.
        let mut bad = sample_checkpoint();
        bad.completed.push((99, 1.0));
        let err = RunLedger::new(
            EngineKind::Planned,
            SweepDomain::Codes,
            0xDEAD_BEEF,
            12,
            "additive σ=0.3".into(),
            Some(&bad),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            NnError::Checkpoint(CheckpointFault::Mismatch {
                field: "run index",
                ..
            })
        ));
    }

    #[test]
    fn ledger_quarantines_non_finite_and_dedups_rerecords() {
        let mut ledger = RunLedger::new(
            EngineKind::Sequential,
            SweepDomain::Weights,
            1,
            4,
            "test".into(),
            None,
        )
        .unwrap();
        ledger.record(0, 1.0);
        ledger.record(1, f32::INFINITY);
        ledger.record_panic(2, "boom".into());
        ledger.record(3, 4.0);
        // Re-records of accounted runs are ignored.
        ledger.record(0, 999.0);
        ledger.record(1, 5.0);
        let outcome = ledger.finish(RunScope::begin(), &RunBudget::unbounded());
        match outcome {
            SweepOutcome::Complete {
                summary,
                quarantined,
            } => {
                assert_eq!(summary.per_run, vec![1.0, 4.0]);
                assert_eq!(quarantined.len(), 2);
                assert_eq!(quarantined[0].run, 1);
                assert!(matches!(
                    quarantined[0].cause,
                    QuarantineCause::NonFinite { .. }
                ));
                assert_eq!(quarantined[1].run, 2);
                assert!(matches!(
                    quarantined[1].cause,
                    QuarantineCause::Panic { .. }
                ));
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn ledger_packages_interrupts_into_checkpoints() {
        let token = CancelToken::new();
        token.cancel();
        let budget = RunBudget::unbounded().with_token(&token);
        let mut ledger = RunLedger::new(
            EngineKind::Parallel,
            SweepDomain::Weights,
            9,
            5,
            "test".into(),
            None,
        )
        .unwrap();
        ledger.record(0, 1.0);
        ledger.record(2, 3.0);
        let outcome = ledger.finish(RunScope::begin(), &budget);
        match outcome {
            SweepOutcome::Interrupted {
                partial,
                cause,
                checkpoint,
                ..
            } => {
                assert_eq!(partial.per_run, vec![1.0, 3.0]);
                assert_eq!(cause, InterruptCause::Cancelled);
                assert_eq!(checkpoint.completed, vec![(0, 1.0), (2, 3.0)]);
                assert_eq!(checkpoint.remaining_runs(), 3);
                // Round-trip through bytes and reload into a fresh ledger.
                let back = SweepCheckpoint::from_bytes(&checkpoint.to_bytes()).unwrap();
                let resumed = RunLedger::new(
                    EngineKind::Parallel,
                    SweepDomain::Weights,
                    9,
                    5,
                    "test".into(),
                    Some(&back),
                )
                .unwrap();
                assert_eq!(resumed.done_mask(), vec![true, false, true, false, false]);
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }
}
