//! The workspace invariant policy: which files may hold `unsafe`, where
//! `#[target_feature]` may appear, and the per-module atomic-ordering table.
//!
//! This is deliberately data, not configuration: the policy *is* part of the
//! reviewed source. Widening it (a new unsafe module, a new ordering) is a
//! diff on this file that a reviewer sees, exactly like an allowlist entry.
//!
//! Paths are workspace-relative with forward slashes.

/// Directory prefixes in which `unsafe` code is permitted (rule R2).
///
/// `crates/tensor` is the only production crate allowed to contain `unsafe`:
/// the SIMD microkernels (`gemm`/`qgemm`/`vecmath`), the disjoint-slice
/// arena views (`arena`), and the parallel GEMM output sharing all live
/// there, each behind a safe API. Everything else must stay safe Rust —
/// enforced belt-and-braces by this rule *and* by `#![forbid(unsafe_code)]`
/// on every other crate root.
pub const UNSAFE_DIRS: &[&str] = &["crates/tensor/"];

/// Files that may contain `#[target_feature]` functions (rule R5).
///
/// The runtime dispatcher (`invnorm_tensor::dispatch`) resolves a
/// `KernelTier` once and every `#[target_feature]` trampoline is reached
/// only through that tier check, so feature-gated code must stay in the
/// modules the dispatcher routes: the GEMM/qgemm microkernels and the
/// vecmath elementwise bodies.
pub const TARGET_FEATURE_FILES: &[&str] = &[
    "crates/tensor/src/gemm.rs",
    "crates/tensor/src/qgemm.rs",
    "crates/tensor/src/vecmath.rs",
    "crates/tensor/src/dispatch.rs",
];

/// Files whose `#[target_feature]` functions may be `pub` (rule R5).
///
/// Only the dispatch surface itself may ever export one; today it exports
/// none, and the kernel modules must keep theirs private so the dispatch
/// tier check cannot be bypassed from outside the crate.
pub const PUB_TARGET_FEATURE_FILES: &[&str] = &["crates/tensor/src/dispatch.rs"];

/// Per-module atomic-ordering policy (rule R4): `(file, allowed orderings)`.
///
/// A module that uses `std::sync::atomic::Ordering` **must** appear here; an
/// unlisted module using atomics is a violation ("declare your policy"), so
/// new concurrent code cannot land with an unreviewed ordering choice. A
/// listed module that names no atomic type or ordering is a violation too
/// (a stale row), so a later atomic there cannot land on a pre-approval
/// nobody reviewed for it.
///
/// Rationale per entry:
///
/// * `telemetry.rs` — counters and the enable flag are monotonic statistics;
///   no reader derives happens-before from them, so `Relaxed` only.
/// * `dispatch.rs` — the cached kernel tier is write-once-idempotent (every
///   racer computes the same value) and the payload it guards is immutable
///   code, not data, so `Relaxed` is documented as sufficient.
/// * `gemm.rs` — the work-stealing block counter only needs atomicity of
///   `fetch_add`; the rayon scope join provides the happens-before edge for
///   the produced data.
/// * `imc/supervise.rs` — `CancelToken` is an advisory flag polled between
///   chip instances; missing one poll delays cancellation by one instance
///   and transfers no data, so `Relaxed` only.
/// * `imc/montecarlo.rs` — the planned engine's work-stealing batch counter
///   only needs atomicity of `fetch_add`; the rayon scope join provides the
///   happens-before edge for the collected results.
/// * `shims/rayon` — the `spawned` worker tally (read by its tests) and the
///   test-module counters only need atomic increments; task hand-off and
///   scope completion synchronize through the queue and latch mutexes, not
///   through atomics.
/// * `tests/hardened_sweeps.rs`, `examples/resumable_sweep.rs` — panic
///   tripwires count calls; only the increment must be atomic.
pub const ATOMIC_POLICY: &[(&str, &[&str])] = &[
    ("crates/tensor/src/telemetry.rs", &["Relaxed"]),
    ("crates/tensor/src/dispatch.rs", &["Relaxed"]),
    ("crates/tensor/src/gemm.rs", &["Relaxed"]),
    ("crates/imc/src/supervise.rs", &["Relaxed"]),
    ("crates/imc/src/montecarlo.rs", &["Relaxed"]),
    ("shims/rayon/src/lib.rs", &["Relaxed"]),
    ("tests/hardened_sweeps.rs", &["Relaxed"]),
    ("examples/resumable_sweep.rs", &["Relaxed"]),
];

/// The atomic `Ordering` variants (used to tell `sync::atomic::Ordering`
/// apart from `cmp::Ordering`, whose variants are Less/Equal/Greater).
pub const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Crate roots exempt from the `#![forbid(unsafe_code)]` requirement and
/// instead required to carry `#![deny(unsafe_op_in_unsafe_fn)]` (rule R2):
/// the kernel crate that holds the product code's `unsafe`, and the rayon
/// shim, whose one `unsafe` is a reviewed `lint_allow.toml` entry.
pub const UNSAFE_CRATE_ROOTS: &[&str] = &["crates/tensor/src/lib.rs", "shims/rayon/src/lib.rs"];

/// Method names whose receiver-call allocates (rule R3).
pub const ALLOC_METHODS: &[&str] = &[
    "to_vec",
    "to_string",
    "to_owned",
    "clone",
    "collect",
    "into_boxed_slice",
];

/// `Type::constructor` pairs that allocate (rule R3).
pub const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("Box", "new"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Rc", "new"),
    ("Arc", "new"),
    ("HashMap", "new"),
    ("HashMap", "with_capacity"),
    ("BTreeMap", "new"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
];

/// Macros that allocate (rule R3).
pub const ALLOC_MACROS: &[&str] = &["vec", "format"];
