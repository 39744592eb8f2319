//! Runtime SIMD kernel dispatch.
//!
//! The GEMM microkernels (f32 and i8) and the vectorized elementwise paths
//! ([`crate::vecmath`]) are selected at **runtime** from a ladder of kernel
//! tiers rather than at compile time. A binary built for a generic `x86-64`
//! target therefore still runs the AVX2 or AVX-512 kernels when the host
//! supports them, and a binary built with `target-cpu=native` can still be
//! pinned to the portable tier for reproducibility experiments.
//!
//! The active tier is resolved **once** per process (first use) and cached in
//! an atomic, so the per-call dispatch cost is a single relaxed load. The
//! resolution order is:
//!
//! 1. an explicit [`force`] call (tests/benches),
//! 2. the `INVNORM_KERNEL_TIER` environment variable (`portable` / `avx2` /
//!    `avx512`), clamped to what the host actually supports,
//! 3. CPU feature detection via `is_x86_feature_detected!`.
//!
//! ## Reproducibility boundary
//!
//! Within a tier every engine, fault model, batch size, and thread count is
//! bit-identical — the tier is the *only* reproducibility boundary, and only
//! for f32 GEMM: the integer i8 GEMM kernels are exact and bit-identical
//! across **all** tiers, the elementwise [`crate::vecmath`] ops are defined
//! by per-lane scalar semantics and bit-identical across all tiers, and the
//! AVX2 and AVX-512 f32 GEMM kernels share the same per-element FMA
//! accumulation order and are bit-identical to each other. The only
//! divergent pair is portable f32 GEMM (separate multiply + add rounding
//! steps) vs the FMA tiers. The active tier is surfaced on every
//! [`RunTelemetry`](crate::telemetry::RunTelemetry) so results carry their
//! kernel provenance.

use std::sync::atomic::{AtomicU8, Ordering};

/// One rung of the runtime kernel ladder.
///
/// Tiers are totally ordered: `Portable < Avx2 < Avx512`. A tier is usable
/// only if the host CPU supports every feature it needs; [`detected`] returns
/// the best usable tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum KernelTier {
    /// Scalar kernels, available on every target. The only f32 tier whose
    /// GEMM rounds multiply and add separately (no FMA).
    #[default]
    Portable = 0,
    /// AVX2 + FMA: 6×16 f32 GEMM tiles, 4×16 `maddubs` sign-split i8 GEMM
    /// tiles.
    Avx2 = 1,
    /// AVX-512F/BW/VNNI: 14×32 f32 GEMM tiles, 8×32 `vpdpbusd` i8 GEMM
    /// tiles.
    Avx512 = 2,
}

impl KernelTier {
    /// Stable lower-case name, used by telemetry and the
    /// `INVNORM_KERNEL_TIER` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
        }
    }

    /// Parses a tier name as accepted by `INVNORM_KERNEL_TIER`
    /// (case-insensitive). Returns `None` for unknown names.
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "portable" | "scalar" => Some(KernelTier::Portable),
            "avx2" => Some(KernelTier::Avx2),
            "avx512" | "avx-512" => Some(KernelTier::Avx512),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> KernelTier {
        match v {
            0 => KernelTier::Portable,
            1 => KernelTier::Avx2,
            2 => KernelTier::Avx512,
            _ => unreachable!("invalid kernel tier tag {v}"),
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `u8::MAX` marks "not yet resolved"; otherwise the tier discriminant.
const UNRESOLVED: u8 = u8::MAX;

// Ordering contract: Relaxed everywhere. ACTIVE is a monotonic cache of a
// pure function of the host CPU (plus an idempotent env read); racing
// resolvers compute the same value, and no other memory is published
// through it, so no acquire/release pairing is needed.
static ACTIVE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// Returns the best kernel tier the host CPU supports, ignoring overrides.
pub fn detected() -> KernelTier {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vnni")
        {
            return KernelTier::Avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return KernelTier::Avx2;
        }
    }
    KernelTier::Portable
}

/// Returns the active kernel tier, resolving and caching it on first use.
///
/// Resolution honours `INVNORM_KERNEL_TIER` (clamped to [`detected`], with a
/// warning on stderr when the request exceeds the host's capabilities or is
/// unparseable) and otherwise uses feature detection.
pub fn active() -> KernelTier {
    match ACTIVE.load(Ordering::Relaxed) {
        UNRESOLVED => {
            let tier = resolve();
            // Competing first callers all compute the same value, so a plain
            // store is fine; `force` afterwards still wins.
            ACTIVE.store(tier as u8, Ordering::Relaxed);
            tier
        }
        v => KernelTier::from_u8(v),
    }
}

fn resolve() -> KernelTier {
    let best = detected();
    match std::env::var("INVNORM_KERNEL_TIER") {
        Ok(raw) => match KernelTier::parse(&raw) {
            Some(req) if req <= best => req,
            Some(req) => {
                eprintln!(
                    "invnorm: INVNORM_KERNEL_TIER={} exceeds host support; using {}",
                    req.name(),
                    best.name()
                );
                best
            }
            None => {
                eprintln!(
                    "invnorm: unrecognised INVNORM_KERNEL_TIER={raw:?} \
                     (expected portable|avx2|avx512); using {}",
                    best.name()
                );
                best
            }
        },
        Err(_) => best,
    }
}

/// Pins the active kernel tier for the rest of the process (until the next
/// [`force`] or [`reset`]).
///
/// Intended for tests and benches that exercise the tier matrix. Panics if
/// the host does not support `tier` — a forced tier silently falling back
/// would defeat the point of pinning.
///
/// This is process-global: callers that mix forced tiers with concurrent
/// kernel work must serialize externally (prepacked operands remember the
/// tier they were packed for, so packing and multiplying under different
/// forced tiers is caught by assertions, not silent corruption).
pub fn force(tier: KernelTier) {
    assert!(
        tier <= detected(),
        "cannot force kernel tier {} on a host that only supports {}",
        tier.name(),
        detected().name()
    );
    ACTIVE.store(tier as u8, Ordering::Relaxed);
}

/// Clears any cached or forced tier; the next [`active`] call re-resolves
/// from the environment and CPU detection.
pub fn reset() {
    ACTIVE.store(UNRESOLVED, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names() {
        assert_eq!(KernelTier::parse("portable"), Some(KernelTier::Portable));
        assert_eq!(KernelTier::parse("scalar"), Some(KernelTier::Portable));
        assert_eq!(KernelTier::parse(" AVX2 "), Some(KernelTier::Avx2));
        assert_eq!(KernelTier::parse("avx512"), Some(KernelTier::Avx512));
        assert_eq!(KernelTier::parse("AVX-512"), Some(KernelTier::Avx512));
        assert_eq!(KernelTier::parse("neon"), None);
        assert_eq!(KernelTier::parse(""), None);
    }

    #[test]
    fn tier_order_matches_capability_ladder() {
        assert!(KernelTier::Portable < KernelTier::Avx2);
        assert!(KernelTier::Avx2 < KernelTier::Avx512);
    }

    #[test]
    fn names_round_trip() {
        for tier in [KernelTier::Portable, KernelTier::Avx2, KernelTier::Avx512] {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
            assert_eq!(format!("{tier}"), tier.name());
        }
    }

    #[test]
    fn active_is_at_most_detected() {
        // Whatever the environment says, `active` never exceeds the host.
        assert!(active() <= detected());
    }
}
