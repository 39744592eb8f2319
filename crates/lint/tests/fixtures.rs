//! Fixture tests for the five invariant rules: every rule has at least one
//! firing and one non-firing source fixture, plus the tricky-lexing cases
//! (markers inside strings, nested block comments, raw strings) that would
//! defeat a grep-based checker.
//!
//! Fixtures are written as raw strings so their `unsafe` tokens lex as
//! opaque literals here and cannot trip the linter on this file itself.

use invnorm_lint::rules::{lint_file, stale_atomic_row};

/// Rule IDs of every violation `src` produces when linted at `path`.
fn fire(path: &str, src: &str) -> Vec<String> {
    lint_file(path, src)
        .iter()
        .map(|v| format!("{}:{}", v.rule.id(), v.line))
        .collect()
}

// ---------------------------------------------------------------- R1

#[test]
fn r1_fires_without_safety_comment() {
    let src = r#"
fn caller(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    let v = fire("crates/tensor/src/x.rs", src);
    assert_eq!(v, ["R1:3"], "{v:?}");
}

#[test]
fn r1_quiet_with_safety_comment() {
    let src = r#"
fn caller(p: *const u8) -> u8 {
    // SAFETY: caller guarantees `p` is valid for reads.
    unsafe { *p }
}
"#;
    assert!(fire("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn r1_accepts_doc_safety_section() {
    let src = r#"
/// Reads a byte.
///
/// # Safety
///
/// `p` must be valid for reads.
unsafe fn read(p: *const u8) -> u8 {
    // SAFETY: forwarded from the fn contract.
    unsafe { *p }
}
"#;
    assert!(fire("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn r1_one_comment_covers_send_sync_pair() {
    let src = r#"
struct P(*mut f32);
// SAFETY: the pointer is only dereferenced behind disjoint-range claims.
unsafe impl Send for P {}
unsafe impl Sync for P {}
"#;
    assert!(fire("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn r1_ignores_unsafe_in_strings_and_comments() {
    // `unsafe` appearing in a string literal, a line comment, a nested
    // block comment and a raw string must not count as unsafe code.
    let src = "
fn f() -> &'static str {
    // this comment says unsafe but means nothing
    /* outer /* nested unsafe */ still a comment */
    let s = r##\"unsafe { boom() }\"##;
    let _ = s;
    \"unsafe\"
}
";
    assert!(fire("crates/tensor/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- R2

#[test]
fn r2_fires_outside_confined_crate() {
    let src = r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: irrelevant — wrong crate entirely.
    unsafe { *p }
}
"#;
    let v = fire("crates/nn/src/x.rs", src);
    assert_eq!(v, ["R2:4"], "{v:?}");
}

#[test]
fn r2_quiet_inside_confined_crate() {
    let src = r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: caller contract.
    unsafe { *p }
}
"#;
    assert!(fire("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn r2_requires_forbid_on_unsafe_free_crate_root() {
    let clean = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    let dirty = "pub fn f() {}\n";
    assert!(fire("crates/nn/src/lib.rs", clean).is_empty());
    assert_eq!(fire("crates/nn/src/lib.rs", dirty), ["R2:1"]);
    // The in-tree shims are crate roots too.
    assert!(fire("shims/serde/src/lib.rs", clean).is_empty());
    assert_eq!(fire("shims/serde/src/lib.rs", dirty), ["R2:1"]);
}

#[test]
fn r2_requires_deny_unsafe_op_on_kernel_crate_root() {
    let clean = "#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}\n";
    let dirty = "pub fn f() {}\n";
    assert!(fire("crates/tensor/src/lib.rs", clean).is_empty());
    assert_eq!(fire("crates/tensor/src/lib.rs", dirty), ["R2:1"]);
}

// ---------------------------------------------------------------- R3

#[test]
fn r3_fires_in_no_alloc_module() {
    let src = r#"//! Module docs.
//!
//! lint: no_alloc

fn hot() -> Vec<u32> {
    vec![1, 2, 3]
}
"#;
    let v = fire("crates/tensor/src/x.rs", src);
    assert_eq!(v, ["R3:6"], "{v:?}");
}

#[test]
fn r3_quiet_without_module_marker() {
    let src = r#"//! Module docs that merely *mention* lint: no_alloc mid-sentence.

fn cold() -> Vec<u32> {
    vec![1, 2, 3]
}
"#;
    assert!(fire("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn r3_alloc_ok_exempts_setup_fn() {
    let src = r#"//! Module docs.
//!
//! lint: no_alloc

// lint: alloc_ok(build-phase constructor)
fn setup() -> Vec<u32> {
    vec![1, 2, 3]
}
"#;
    assert!(fire("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn r3_test_mod_is_exempt() {
    let src = r#"//! Module docs.
//!
//! lint: no_alloc

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = vec![1];
    }
}
"#;
    assert!(fire("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn r3_fn_level_marker_scopes_to_that_fn() {
    let src = r#"
// lint: no_alloc
fn hot() {
    let _ = vec![1];
}

fn cold() {
    let _ = vec![2];
}
"#;
    let v = fire("crates/nn/src/x.rs", src);
    assert_eq!(v, ["R3:4"], "{v:?}");
}

#[test]
fn r3_static_initializer_is_exempt() {
    // `static` initializers are const-evaluated; `Vec::new()` there cannot
    // allocate at runtime.
    let src = r#"//! Module docs.
//!
//! lint: no_alloc

use std::sync::Mutex;
static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());
"#;
    assert!(fire("crates/tensor/src/x.rs", src).is_empty());
}

#[test]
fn r3_detects_collect_and_turbofish() {
    let src = r#"//! lint: no_alloc

fn hot(xs: &[u32]) -> Vec<u32> {
    xs.iter().copied().collect::<Vec<u32>>()
}
"#;
    let v = fire("crates/tensor/src/x.rs", src);
    assert_eq!(v, ["R3:4"], "{v:?}");
}

// ---------------------------------------------------------------- R4

#[test]
fn r4_fires_on_policy_violation() {
    let src = r#"
use std::sync::atomic::{AtomicUsize, Ordering};
fn f(c: &AtomicUsize) {
    c.fetch_add(1, Ordering::SeqCst);
}
"#;
    let v = fire("crates/tensor/src/telemetry.rs", src);
    assert_eq!(v, ["R4:4"], "{v:?}");
}

#[test]
fn r4_quiet_within_policy() {
    let src = r#"
use std::sync::atomic::{AtomicUsize, Ordering};
fn f(c: &AtomicUsize) {
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    assert!(fire("crates/tensor/src/telemetry.rs", src).is_empty());
}

#[test]
fn r4_fires_in_module_without_policy() {
    let src = r#"
use std::sync::atomic::{AtomicUsize, Ordering};
fn f(c: &AtomicUsize) {
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    let v = fire("crates/nn/src/x.rs", src);
    assert_eq!(v, ["R4:4"], "{v:?}");
}

#[test]
fn r4_cmp_ordering_is_not_an_atomic_ordering() {
    // `Ordering::Less` is `core::cmp::Ordering` — no atomic policy applies.
    let src = r#"
use std::cmp::Ordering;
fn f(a: u32, b: u32) -> bool {
    a.cmp(&b) == Ordering::Less
}
"#;
    assert!(fire("crates/nn/src/x.rs", src).is_empty());
}

#[test]
fn r4_static_atomic_needs_ordering_contract() {
    let dirty = r#"
use std::sync::atomic::AtomicU8;
static ACTIVE: AtomicU8 = AtomicU8::new(0);
"#;
    let clean = r#"
use std::sync::atomic::AtomicU8;
// Ordering contract: Relaxed — monotonic cache, no publication.
static ACTIVE: AtomicU8 = AtomicU8::new(0);
"#;
    assert_eq!(fire("crates/tensor/src/dispatch.rs", dirty), ["R4:3"]);
    assert!(fire("crates/tensor/src/dispatch.rs", clean).is_empty());
}

#[test]
fn r4_non_atomic_static_needs_no_contract() {
    let src = r#"
static NAMES: [&str; 2] = ["a", "b"];
"#;
    assert!(fire("crates/tensor/src/dispatch.rs", src).is_empty());
}

#[test]
fn r4_fires_on_listed_module_without_atomics() {
    // A policy row whose module no longer uses atomics is stale: it would
    // pre-approve the next atomic there without review.
    let stale = |path: &str, src: &str| {
        stale_atomic_row(path, src).map(|v| format!("{}:{}", v.rule.id(), v.line))
    };
    let cmp_only = r#"
use std::cmp::Ordering;
fn f(a: u32, b: u32) -> bool {
    a.cmp(&b) == Ordering::Less
}
"#;
    let atomic = r#"
use std::sync::atomic::{AtomicUsize, Ordering};
fn f(c: &AtomicUsize) {
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    assert_eq!(
        stale("crates/tensor/src/telemetry.rs", cmp_only).as_deref(),
        Some("R4:1")
    );
    assert_eq!(stale("crates/tensor/src/telemetry.rs", atomic), None);
    // Unlisted modules have no row to go stale.
    assert_eq!(stale("crates/nn/src/x.rs", cmp_only), None);
}

// ---------------------------------------------------------------- R5

#[test]
fn r5_fires_outside_dispatch_files() {
    let src = r#"
#[target_feature(enable = "avx2")]
unsafe fn k() {}
"#;
    let v = fire("crates/nn/src/x.rs", src);
    // Out-of-place file; the `unsafe` also needs its SAFETY story, and the
    // crate confinement fires too — R5 is the one under test.
    assert!(v.iter().any(|v| v.starts_with("R5:")), "{v:?}");
}

#[test]
fn r5_fires_on_safe_target_feature_fn() {
    // Rust allows safe `#[target_feature]` fns since 1.86; this workspace
    // forbids them so every feature-gated call site stays visibly unsafe.
    let src = r#"
#[target_feature(enable = "avx2")]
fn k() {}
"#;
    let v = fire("crates/tensor/src/gemm.rs", src);
    assert!(v.iter().any(|v| v.starts_with("R5:")), "{v:?}");
}

#[test]
fn r5_fires_on_pub_target_feature_fn() {
    let src = r#"
/// # Safety
///
/// Host must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn k() {}
"#;
    let v = fire("crates/tensor/src/gemm.rs", src);
    assert!(v.iter().any(|v| v.starts_with("R5:")), "{v:?}");
}

#[test]
fn r5_quiet_on_confined_private_unsafe_kernel() {
    let src = r#"
/// # Safety
///
/// Host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn k() {}
"#;
    assert!(fire("crates/tensor/src/gemm.rs", src).is_empty());
}
