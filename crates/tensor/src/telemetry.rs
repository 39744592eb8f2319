//! Zero-allocation runtime telemetry: phase spans, engine counters and
//! chrome-trace export.
//!
//! The Monte-Carlo engines' performance hinges on internals that are
//! invisible from the outside — frozen-input cache hits, dirty-row repacks
//! vs uniform-scale vs sparse cell scatters, wide-GEMM batching, tail-batch
//! recompiles. This module makes those internals observable without touching
//! the arithmetic or the allocation story:
//!
//! * **Span layer** — [`span`] returns an RAII guard over a fixed [`Phase`]
//!   enum; on drop it adds the elapsed nanoseconds to a global per-phase
//!   accumulator and records a `(phase, start, end)` event into a
//!   preallocated per-thread ring buffer. In steady state (after the first
//!   span on a thread materializes its ring) an enabled span performs **zero
//!   heap allocations** — enforced by a counting-allocator test.
//! * **Counter registry** — [`count`] bumps one of the fixed [`Counter`]
//!   slots with a relaxed atomic add. Counters record *decisions* (cache
//!   hit vs miss, repack vs scale vs scatter) that wall time alone cannot
//!   separate.
//! * **Exporters** — [`Telemetry::chrome_trace`] renders every ring as a
//!   `chrome://tracing` / Perfetto `trace.json` with balanced `B`/`E`
//!   events; [`RunTelemetry`] captures the per-run delta of phases and
//!   counters (via [`RunScope`]) with a human-readable `Display` table, a
//!   hand-rolled JSON rendering, and a per-run Welford convergence stream
//!   over the Monte-Carlo metric vector.
//!
//! Everything is gated behind the process-wide [`Telemetry::enable`] switch,
//! which defaults to **off**: a disabled span or counter costs one relaxed
//! atomic load and a predicted branch, so instrumented hot paths stay within
//! noise of the uninstrumented build. Instrumentation never changes any
//! computed value — bit-identity of the engine stack is untouched either way
//! (tested).
//!
//! The registry is process-global: phase totals and counters sum over every
//! thread (worker spans accumulate in parallel, so phase totals behave like
//! CPU time, not wall time), and concurrent Monte-Carlo runs share one
//! registry. Scope one run at a time for attributable reports.
//!
//! lint: no_alloc

use crate::stats::RunningStats;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The instrumented phases of the Monte-Carlo stack, fixed at compile time
/// so span recording indexes a flat array instead of hashing names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum Phase {
    /// Plan compilation (`Plan::compile` / `Plan::compile_batched`).
    Compile = 0,
    /// Initial operand packing (`PackedA/B::pack`, `QPackedA/B::pack`).
    Pack = 1,
    /// Panel refresh between realizations (`repack_rows`, `scale_from`).
    Repack = 2,
    /// Fault realization (injector `inject`/`realize_*` entry points).
    Inject = 3,
    /// Network forward evaluation (direct, batched or planned).
    Forward = 4,
    /// Blocked (q)GEMM kernel invocations.
    Gemm = 5,
    /// im2col patch-matrix extraction.
    Im2col = 6,
    /// Metric evaluation over a realization's output.
    Metric = 7,
}

/// Number of [`Phase`] variants (the span accumulators are flat arrays).
pub const PHASE_COUNT: usize = 8;

/// Every phase, in `repr` order.
pub const PHASES: [Phase; PHASE_COUNT] = [
    Phase::Compile,
    Phase::Pack,
    Phase::Repack,
    Phase::Inject,
    Phase::Forward,
    Phase::Gemm,
    Phase::Im2col,
    Phase::Metric,
];

impl Phase {
    /// Stable display/export name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compile => "compile",
            Phase::Pack => "pack",
            Phase::Repack => "repack",
            Phase::Inject => "inject",
            Phase::Forward => "forward",
            Phase::Gemm => "gemm",
            Phase::Im2col => "im2col",
            Phase::Metric => "metric",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fixed engine-counter registry: each slot is a relaxed [`AtomicU64`]
/// recording how often an invisible decision fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum Counter {
    /// Frozen-input cache consulted and valid (packed activation panel /
    /// im2col patches / quantized codes reused).
    FrozenInputHits = 0,
    /// Frozen-input cache consulted but stale — the input-derived operands
    /// were re-derived and re-cached.
    FrozenInputMisses = 1,
    /// Weight-matrix rows re-packed through `repack_rows` (dirty-row panel
    /// refresh), summed over realizations.
    RowsRepacked = 2,
    /// `scale_from` uniform-scale fast paths taken (retention drift folded
    /// into the packed panels without touching the weights).
    UniformScales = 3,
    /// Sparse packed-domain cell scatters via `write_cell` (stuck-at /
    /// line-defect realizations landing straight in the panels).
    CellScatters = 4,
    /// Fused wide-GEMM invocations (`[N, B·out]` product over the stacked
    /// realization operand of a frozen layer).
    WideGemms = 5,
    /// Batched-plan recompilations triggered by a tail batch smaller than
    /// the steady-state stack.
    TailRecompiles = 6,
    /// Chip instances left unexecuted when a sweep was interrupted by its
    /// `RunBudget` (deadline expiry or cooperative cancellation).
    CancelledRuns = 7,
    /// Chip instances quarantined out of the aggregate (panicking worker or
    /// non-finite per-run metric).
    QuarantinedRuns = 8,
    /// Chip instances skipped on resume because a `SweepCheckpoint` already
    /// carried their metric.
    ResumeSkips = 9,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = 10;

/// Every counter, in `repr` order.
pub const COUNTERS: [Counter; COUNTER_COUNT] = [
    Counter::FrozenInputHits,
    Counter::FrozenInputMisses,
    Counter::RowsRepacked,
    Counter::UniformScales,
    Counter::CellScatters,
    Counter::WideGemms,
    Counter::TailRecompiles,
    Counter::CancelledRuns,
    Counter::QuarantinedRuns,
    Counter::ResumeSkips,
];

impl Counter {
    /// Stable display/export name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FrozenInputHits => "frozen_input_hits",
            Counter::FrozenInputMisses => "frozen_input_misses",
            Counter::RowsRepacked => "rows_repacked",
            Counter::UniformScales => "uniform_scales",
            Counter::CellScatters => "cell_scatters",
            Counter::WideGemms => "wide_gemms",
            Counter::TailRecompiles => "tail_recompiles",
            Counter::CancelledRuns => "cancelled_runs",
            Counter::QuarantinedRuns => "quarantined_runs",
            Counter::ResumeSkips => "resume_skips",
        }
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Span events retained per thread for the chrome-trace export; older events
/// wrap around (the phase/counter totals are never lossy, only the trace).
pub const RING_CAPACITY: usize = 8192;

// Ordering contract: Relaxed everywhere. Telemetry is monotonic counting —
// readers only need eventually-consistent totals, never happens-before
// edges with the counted work, and a hot-path fetch_add must stay as cheap
// as the instrumented code around it.
static ENABLED: AtomicBool = AtomicBool::new(false);
// Ordering contract: Relaxed — same monotonic-counter rationale as ENABLED.
static PHASE_NS: [AtomicU64; PHASE_COUNT] = [const { AtomicU64::new(0) }; PHASE_COUNT];
// Ordering contract: Relaxed — same monotonic-counter rationale as ENABLED.
static PHASE_HITS: [AtomicU64; PHASE_COUNT] = [const { AtomicU64::new(0) }; PHASE_COUNT];
// Ordering contract: Relaxed — same monotonic-counter rationale as ENABLED.
static COUNTER_SLOTS: [AtomicU64; COUNTER_COUNT] = [const { AtomicU64::new(0) }; COUNTER_COUNT];
// Ordering contract: Relaxed — tid allocation only needs uniqueness, which
// fetch_add provides at any ordering; nothing is published through it.
static NEXT_TID: AtomicUsize = AtomicUsize::new(1);
static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());
static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace anchor (first telemetry use).
#[inline]
fn now_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One completed span: phase plus its `[start, end]` nanosecond interval.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    phase: Phase,
    start_ns: u64,
    end_ns: u64,
}

/// Fixed-capacity per-thread event buffer. Writes come only from the owning
/// thread; the exporter locks the same mutex, so no unsafe sharing.
#[derive(Debug)]
struct RingBuf {
    records: Vec<SpanRecord>,
    /// Next overwrite position once `records` reached capacity.
    next: usize,
    /// Events discarded by wrap-around since the last [`Telemetry::reset`].
    dropped: u64,
}

#[derive(Debug)]
struct ThreadRing {
    tid: usize,
    buf: Mutex<RingBuf>,
}

thread_local! {
    static LOCAL_RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

/// Registers (on first use per thread) and returns this thread's ring.
// lint: alloc_ok(one-time per-thread ring materialization; every later span
// on the thread reuses the fixed-capacity buffer — the zero-alloc claim is
// for the steady state and is enforced by the counting-allocator test)
fn with_local_ring(f: impl FnOnce(&ThreadRing)) {
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let ring = Arc::new(ThreadRing {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                buf: Mutex::new(RingBuf {
                    records: Vec::with_capacity(RING_CAPACITY),
                    next: 0,
                    dropped: 0,
                }),
            });
            REGISTRY
                .lock()
                .expect("telemetry registry poisoned")
                .push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

/// RAII phase timer returned by [`span`]. Dropping it adds the elapsed time
/// to the phase accumulators and appends a trace event to the calling
/// thread's ring buffer — allocation-free once the thread's ring exists.
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    phase: Phase,
    start_ns: u64,
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        let idx = self.phase as usize;
        PHASE_NS[idx].fetch_add(end_ns.saturating_sub(self.start_ns), Ordering::Relaxed);
        PHASE_HITS[idx].fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            phase: self.phase,
            start_ns: self.start_ns,
            end_ns,
        };
        with_local_ring(|ring| {
            let mut buf = ring.buf.lock().expect("telemetry ring poisoned");
            if buf.records.len() < RING_CAPACITY {
                buf.records.push(record);
            } else {
                let next = buf.next;
                buf.records[next] = record;
                buf.next = (next + 1) % RING_CAPACITY;
                buf.dropped += 1;
            }
        });
    }
}

/// Opens a phase span. With telemetry disabled this is two instructions (a
/// relaxed load and a branch) and the returned guard is inert.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            phase,
            start_ns: 0,
            active: false,
        };
    }
    SpanGuard {
        phase,
        start_ns: now_ns(),
        active: true,
    }
}

/// Bumps `counter` by `n`. With telemetry disabled this is a relaxed load
/// and a predicted branch.
#[inline]
pub fn count(counter: Counter, n: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    COUNTER_SLOTS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// A point-in-time copy of every phase accumulator and counter, used to
/// compute per-run deltas (see [`RunScope`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    phase_ns: [u64; PHASE_COUNT],
    phase_hits: [u64; PHASE_COUNT],
    counters: [u64; COUNTER_COUNT],
}

impl TelemetrySnapshot {
    /// Accumulated nanoseconds of `phase` at snapshot time.
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Number of completed `phase` spans at snapshot time.
    pub fn phase_hits(&self, phase: Phase) -> u64 {
        self.phase_hits[phase as usize]
    }

    /// Value of `counter` at snapshot time.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }
}

/// The process-wide telemetry switchboard. All state is global (see the
/// module docs); this type only namespaces the entry points.
#[derive(Debug, Clone, Copy)]
pub struct Telemetry;

impl Telemetry {
    /// Turns instrumentation on.
    pub fn enable() {
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turns instrumentation off (spans already open still record on drop).
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Whether instrumentation is currently on.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Zeroes every phase accumulator and counter and clears all trace
    /// rings. Retains each thread's ring allocation, so steady-state
    /// recording stays allocation-free across resets.
    pub fn reset() {
        for slot in PHASE_NS.iter().chain(&PHASE_HITS).chain(&COUNTER_SLOTS) {
            slot.store(0, Ordering::Relaxed);
        }
        for ring in REGISTRY.lock().expect("telemetry registry poisoned").iter() {
            let mut buf = ring.buf.lock().expect("telemetry ring poisoned");
            buf.records.clear();
            buf.next = 0;
            buf.dropped = 0;
        }
    }

    /// Current value of one counter.
    pub fn counter(counter: Counter) -> u64 {
        COUNTER_SLOTS[counter as usize].load(Ordering::Relaxed)
    }

    /// Accumulated nanoseconds of one phase (summed over threads).
    pub fn phase_ns(phase: Phase) -> u64 {
        PHASE_NS[phase as usize].load(Ordering::Relaxed)
    }

    /// Trace events discarded by ring wrap-around since the last reset.
    pub fn dropped_events() -> u64 {
        REGISTRY
            .lock()
            .expect("telemetry registry poisoned")
            .iter()
            .map(|ring| ring.buf.lock().expect("telemetry ring poisoned").dropped)
            .sum()
    }

    /// Copies every accumulator for later delta computation.
    pub fn snapshot() -> TelemetrySnapshot {
        let load = |slots: &[AtomicU64]| {
            let mut out = [0u64; PHASE_COUNT];
            for (o, s) in out.iter_mut().zip(slots) {
                *o = s.load(Ordering::Relaxed);
            }
            out
        };
        let mut counters = [0u64; COUNTER_COUNT];
        for (o, s) in counters.iter_mut().zip(&COUNTER_SLOTS) {
            *o = s.load(Ordering::Relaxed);
        }
        TelemetrySnapshot {
            phase_ns: load(&PHASE_NS),
            phase_hits: load(&PHASE_HITS),
            counters,
        }
    }

    /// Renders every thread's retained span events as a `chrome://tracing` /
    /// Perfetto JSON document with **balanced, well-nested `B`/`E` event
    /// pairs** per thread (each retained span contributes exactly one of
    /// each; spans on one thread are properly nested by RAII, and any
    /// wrap-around-surviving subset of nested-or-disjoint intervals is still
    /// nested-or-disjoint). Timestamps are microseconds from the process
    /// trace anchor.
    ///
    /// Call from a quiesced point (after a run), not while workers are mid-
    /// span; spans still open are simply absent from the trace.
    // lint: alloc_ok(offline exporter, runs after the measured region)
    pub fn chrome_trace() -> String {
        let rings: Vec<Arc<ThreadRing>> = REGISTRY
            .lock()
            .expect("telemetry registry poisoned")
            .iter()
            .map(Arc::clone)
            .collect();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut emit = |out: &mut String, ph: char, phase: Phase, ts_ns: u64, tid: usize| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"invnorm\",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":{}}}",
                phase.name(),
                ph,
                ts_ns / 1_000,
                ts_ns % 1_000,
                tid
            );
        };
        for ring in rings {
            let mut records: Vec<SpanRecord> = {
                let buf = ring.buf.lock().expect("telemetry ring poisoned");
                buf.records.clone()
            };
            // Outermost-first within a thread: by start, longest first on
            // ties, so the emission stack below nests correctly.
            records.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
            let mut open: Vec<(u64, Phase)> = Vec::new();
            for r in &records {
                while let Some(&(end_ns, phase)) = open.last() {
                    if end_ns > r.start_ns {
                        break;
                    }
                    emit(&mut out, 'E', phase, end_ns, ring.tid);
                    open.pop();
                }
                emit(&mut out, 'B', r.phase, r.start_ns, ring.tid);
                open.push((r.end_ns, r.phase));
            }
            while let Some((end_ns, phase)) = open.pop() {
                emit(&mut out, 'E', phase, end_ns, ring.tid);
            }
        }
        out.push_str("\n]}");
        out
    }

    /// Writes [`Telemetry::chrome_trace`] to `path` (load it via
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-write error.
    pub fn write_chrome_trace(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, Self::chrome_trace())
    }
}

/// One phase's share of a [`RunTelemetry`] report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// The phase.
    pub phase: Phase,
    /// Nanoseconds spent in the phase during the run (summed over threads).
    pub total_ns: u64,
    /// Completed spans of the phase during the run.
    pub count: u64,
}

/// One counter's delta over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterStat {
    /// The counter.
    pub counter: Counter,
    /// Its increase during the run.
    pub value: u64,
}

/// One point of the per-run Welford convergence stream: the running mean,
/// sample standard deviation and 95 % confidence half-width after `runs`
/// Monte-Carlo chip instances. This is the statistic an adaptive
/// sequential-stopping driver (ROADMAP item 5) thresholds on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergencePoint {
    /// Number of runs accumulated so far.
    pub runs: u64,
    /// Running mean of the metric.
    pub mean: f32,
    /// Running *sample* standard deviation (0 below two runs).
    pub std: f32,
    /// Normal-approximation 95 % confidence half-width
    /// (`1.96 · std / √runs`, 0 below two runs).
    pub half_width95: f32,
}

/// Builds the Welford convergence stream over a per-run metric vector — one
/// [`ConvergencePoint`] per prefix.
// lint: alloc_ok(offline reporting, runs after the measured region)
pub fn convergence_stream(per_run: &[f32]) -> Vec<ConvergencePoint> {
    let mut stats = RunningStats::new();
    let mut points = Vec::with_capacity(per_run.len());
    for &x in per_run {
        stats.push(x);
        let runs = stats.count();
        let std = stats.sample_std();
        points.push(ConvergencePoint {
            runs,
            mean: stats.mean(),
            std,
            half_width95: if runs < 2 {
                0.0
            } else {
                1.96 * std / (runs as f32).sqrt()
            },
        });
    }
    points
}

/// The compiled plan a planned Monte-Carlo run executed on: how many fault
/// realizations it stacked per forward, and the bytes of its three arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanFootprint {
    /// Fault realizations stacked per planned forward (the engine's stack).
    pub stack: usize,
    /// Bytes of the f32 arena (activations, patch matrices, GEMM staging).
    pub f32_bytes: usize,
    /// Bytes of the i8 arena (activation codes, code patch matrices).
    pub i8_bytes: usize,
    /// Bytes of the i32 arena (integer-GEMM accumulators).
    pub i32_bytes: usize,
}

/// The telemetry delta of one Monte-Carlo run: wall time, per-phase
/// breakdown, counter deltas, the plan the run stacked realizations on, and
/// the metric convergence stream. Attached to every engine summary when
/// telemetry is enabled; render it with `Display` (aligned table) or
/// [`RunTelemetry::to_json`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTelemetry {
    /// Wall-clock duration of the run in nanoseconds.
    pub wall_ns: u64,
    phase_ns: [u64; PHASE_COUNT],
    phase_hits: [u64; PHASE_COUNT],
    counters: [u64; COUNTER_COUNT],
    /// The SIMD kernel tier ([`crate::dispatch::active`]) the run executed
    /// under — the reproducibility boundary of the f32 results.
    pub kernel_tier: &'static str,
    /// The plan a planned run compiled at its stack before any batch ran:
    /// the stack and that plan's arena bytes. `None` for the sequential
    /// engine, which compiles no plan.
    pub plan: Option<PlanFootprint>,
    /// Per-run Welford convergence stream over the metric vector.
    pub convergence: Vec<ConvergencePoint>,
}

impl RunTelemetry {
    /// Nanoseconds the run spent in `phase` (summed over worker threads, so
    /// phases overlapping in parallel can exceed `wall_ns`).
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.phase_ns[phase as usize]
    }

    /// Spans of `phase` completed during the run.
    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.phase_hits[phase as usize]
    }

    /// `counter`'s increase during the run.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Per-phase statistics in declaration order.
    pub fn phases(&self) -> impl Iterator<Item = PhaseStat> + '_ {
        PHASES.iter().map(|&phase| PhaseStat {
            phase,
            total_ns: self.phase_ns[phase as usize],
            count: self.phase_hits[phase as usize],
        })
    }

    /// Counter deltas in declaration order.
    pub fn counters(&self) -> impl Iterator<Item = CounterStat> + '_ {
        COUNTERS.iter().map(|&counter| CounterStat {
            counter,
            value: self.counters[counter as usize],
        })
    }

    /// Hand-rolled JSON rendering (the workspace's serde is an offline
    /// marker shim), stable enough to diff across runs.
    // lint: alloc_ok(offline exporter, runs after the measured region)
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(out, "  \"kernel_tier\": \"{}\",", self.kernel_tier);
        match &self.plan {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "  \"plan\": {{\"stack\": {}, \"arena_bytes\": {{\"f32\": {}, \"i8\": {}, \"i32\": {}}}}},",
                    p.stack, p.f32_bytes, p.i8_bytes, p.i32_bytes
                );
            }
            None => out.push_str("  \"plan\": null,\n"),
        }
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases().enumerate() {
            let _ = write!(
                out,
                "    {{\"phase\": \"{}\", \"total_ns\": {}, \"count\": {}}}",
                p.phase.name(),
                p.total_ns,
                p.count
            );
            out.push_str(if i + 1 < PHASE_COUNT { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"counters\": [\n");
        for (i, c) in self.counters().enumerate() {
            let _ = write!(
                out,
                "    {{\"counter\": \"{}\", \"value\": {}}}",
                c.counter.name(),
                c.value
            );
            out.push_str(if i + 1 < COUNTER_COUNT { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"convergence\": [\n");
        for (i, p) in self.convergence.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"runs\": {}, \"mean\": {}, \"std\": {}, \"half_width95\": {}}}",
                p.runs, p.mean, p.std, p.half_width95
            );
            out.push_str(if i + 1 < self.convergence.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}");
        out
    }
}

// lint: alloc_ok(offline report formatting, runs after the measured region)
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

impl std::fmt::Display for RunTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "run telemetry (wall {}, kernel tier {}):",
            fmt_ns(self.wall_ns),
            self.kernel_tier
        )?;
        writeln!(f, "  {:<10} {:>14} {:>10}", "phase", "total", "spans")?;
        for p in self.phases() {
            if p.count == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<10} {:>14} {:>10}",
                p.phase.name(),
                fmt_ns(p.total_ns),
                p.count
            )?;
        }
        if let Some(p) = &self.plan {
            writeln!(
                f,
                "  plan: stack {}, arena bytes f32 {} / i8 {} / i32 {}",
                p.stack, p.f32_bytes, p.i8_bytes, p.i32_bytes
            )?;
        }
        writeln!(f, "  {:<22} {:>12}", "counter", "delta")?;
        for c in self.counters() {
            writeln!(f, "  {:<22} {:>12}", c.counter.name(), c.value)?;
        }
        if let Some(last) = self.convergence.last() {
            writeln!(
                f,
                "  convergence: {} runs, mean {:.6} ± {:.6} (95% half-width {:.6})",
                last.runs, last.mean, last.std, last.half_width95
            )?;
        }
        Ok(())
    }
}

/// Brackets one engine run: captures the accumulators on entry and produces
/// the [`RunTelemetry`] delta on exit. Inert (and `finish` returns `None`)
/// when telemetry was disabled at `begin`.
#[derive(Debug)]
pub struct RunScope {
    start: Option<(TelemetrySnapshot, Instant)>,
    plan: Option<PlanFootprint>,
}

impl RunScope {
    /// Snapshots the accumulators if telemetry is enabled.
    pub fn begin() -> Self {
        Self {
            start: Telemetry::enabled().then(|| (Telemetry::snapshot(), Instant::now())),
            plan: None,
        }
    }

    /// Records the plan the run stacked its realizations on (reported as
    /// [`RunTelemetry::plan`]).
    pub fn record_plan(&mut self, plan: PlanFootprint) {
        self.plan = Some(plan);
    }

    /// Computes the per-run delta and the convergence stream over `per_run`.
    pub fn finish(self, per_run: &[f32]) -> Option<RunTelemetry> {
        let (before, t0) = self.start?;
        let after = Telemetry::snapshot();
        let sub = |a: &[u64], b: &[u64], out: &mut [u64]| {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                *o = x.saturating_sub(y);
            }
        };
        let mut phase_ns = [0u64; PHASE_COUNT];
        let mut phase_hits = [0u64; PHASE_COUNT];
        let mut counters = [0u64; COUNTER_COUNT];
        sub(&after.phase_ns, &before.phase_ns, &mut phase_ns);
        sub(&after.phase_hits, &before.phase_hits, &mut phase_hits);
        sub(&after.counters, &before.counters, &mut counters);
        Some(RunTelemetry {
            wall_ns: t0.elapsed().as_nanos() as u64,
            phase_ns,
            phase_hits,
            counters,
            kernel_tier: crate::dispatch::active().name(),
            plan: self.plan,
            convergence: convergence_stream(per_run),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the telemetry tests in this module: they share the global
    /// registry, and concurrent enable/reset would cross-contaminate.
    ///
    /// While one of these tests holds telemetry *enabled*, other lib tests
    /// in this binary (gemm/pack/conv) may record spans concurrently — so
    /// exact-count assertions below only use phases and counters that are
    /// wired up in downstream crates (`Compile`/`Inject`/`Forward`/`Metric`,
    /// `WideGemms`/`TailRecompiles`), which nothing in
    /// `invnorm_tensor` itself can bump.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_and_counters_record_nothing() {
        let _guard = locked();
        Telemetry::disable();
        Telemetry::reset();
        {
            let _s = span(Phase::Forward);
            count(Counter::TailRecompiles, 5);
        }
        assert_eq!(Telemetry::phase_ns(Phase::Forward), 0);
        assert_eq!(Telemetry::counter(Counter::TailRecompiles), 0);
        let trace = Telemetry::chrome_trace();
        assert!(!trace.contains("\"name\":\"forward\""));
    }

    #[test]
    fn enabled_spans_accumulate_and_counters_add() {
        let _guard = locked();
        Telemetry::enable();
        Telemetry::reset();
        {
            let _outer = span(Phase::Forward);
            let _inner = span(Phase::Inject);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        count(Counter::WideGemms, 2);
        count(Counter::WideGemms, 3);
        Telemetry::disable();
        assert!(Telemetry::phase_ns(Phase::Forward) >= 1_000_000);
        assert!(Telemetry::phase_ns(Phase::Inject) >= 1_000_000);
        assert_eq!(Telemetry::counter(Counter::WideGemms), 5);
        let snap = Telemetry::snapshot();
        assert_eq!(snap.phase_hits(Phase::Forward), 1);
        assert_eq!(snap.phase_hits(Phase::Inject), 1);
        assert_eq!(snap.counter(Counter::WideGemms), 5);
        Telemetry::reset();
        assert_eq!(Telemetry::phase_ns(Phase::Forward), 0);
        assert_eq!(Telemetry::counter(Counter::WideGemms), 0);
    }

    #[test]
    fn chrome_trace_has_balanced_nested_events() {
        let _guard = locked();
        Telemetry::enable();
        Telemetry::reset();
        {
            let _outer = span(Phase::Forward);
            {
                let _inner = span(Phase::Inject);
            }
            {
                let _inner = span(Phase::Metric);
            }
        }
        {
            let _solo = span(Phase::Compile);
        }
        Telemetry::disable();
        let trace = Telemetry::chrome_trace();
        // Every retained span contributes exactly one B and one E.
        let begins = trace.matches("\"ph\":\"B\"").count();
        let ends = trace.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends);
        for name in ["forward", "inject", "metric", "compile"] {
            let b = trace
                .matches(&format!(
                    "\"name\":\"{name}\",\"cat\":\"invnorm\",\"ph\":\"B\""
                ))
                .count();
            let e = trace
                .matches(&format!(
                    "\"name\":\"{name}\",\"cat\":\"invnorm\",\"ph\":\"E\""
                ))
                .count();
            assert_eq!(b, 1, "one B event for {name}");
            assert_eq!(e, 1, "one E event for {name}");
        }
        // Same-thread events are emitted in stack order: the Forward B must
        // precede the nested Inject B, which must close before Metric opens.
        let fwd_b = trace.find("\"name\":\"forward\",\"cat\":\"invnorm\",\"ph\":\"B\"");
        let inj_b = trace.find("\"name\":\"inject\",\"cat\":\"invnorm\",\"ph\":\"B\"");
        let inj_e = trace.find("\"name\":\"inject\",\"cat\":\"invnorm\",\"ph\":\"E\"");
        let met_b = trace.find("\"name\":\"metric\",\"cat\":\"invnorm\",\"ph\":\"B\"");
        assert!(fwd_b.unwrap() < inj_b.unwrap());
        assert!(inj_e.unwrap() < met_b.unwrap());
    }

    #[test]
    fn run_scope_reports_deltas_and_convergence() {
        let _guard = locked();
        Telemetry::enable();
        Telemetry::reset();
        let scope = RunScope::begin();
        {
            let _s = span(Phase::Inject);
        }
        count(Counter::TailRecompiles, 7);
        let report = scope.finish(&[1.0, 2.0, 3.0, 4.0]).expect("enabled");
        Telemetry::disable();
        assert_eq!(report.phase_count(Phase::Inject), 1);
        assert_eq!(report.counter(Counter::TailRecompiles), 7);
        assert_eq!(report.convergence.len(), 4);
        let last = report.convergence.last().unwrap();
        assert_eq!(last.runs, 4);
        assert!((last.mean - 2.5).abs() < 1e-6);
        assert!(last.std > 0.0 && last.half_width95 > 0.0);
        // Both renderings mention every phase and counter they carry.
        let text = report.to_string();
        assert!(text.contains("inject") && text.contains("tail_recompiles"));
        let json = report.to_json();
        assert!(json.contains("\"wall_ns\"") && json.contains("\"half_width95\""));
    }

    #[test]
    fn disabled_run_scope_yields_none() {
        let _guard = locked();
        Telemetry::disable();
        assert!(RunScope::begin().finish(&[1.0]).is_none());
    }

    #[test]
    fn convergence_stream_matches_direct_statistics() {
        let xs = [0.5f32, 1.5, 0.25, 2.0, 1.0];
        let points = convergence_stream(&xs);
        assert_eq!(points.len(), xs.len());
        assert_eq!(points[0].runs, 1);
        assert_eq!(points[0].std, 0.0);
        let mut stats = RunningStats::new();
        stats.extend_from_slice(&xs);
        let last = points.last().unwrap();
        assert!((last.mean - stats.mean()).abs() < 1e-6);
        assert!((last.std - stats.sample_std()).abs() < 1e-6);
    }
}
