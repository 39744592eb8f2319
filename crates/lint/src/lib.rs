//! # invnorm-lint
//!
//! In-tree invariant linter for the invnorm workspace: a static-analysis
//! pass that checks, at CI time, the invariants the rest of the repository
//! otherwise enforces only at runtime or by convention — `unsafe` hygiene
//! and confinement, the hot-path zero-allocation discipline, the
//! relaxed-atomic ordering policy, and `#[target_feature]` dispatch
//! confinement. See [`rules`] for the rule table (R1–R5), [`policy`] for
//! the reviewed policy data, and `lint_allow.toml` at the workspace root
//! for the commented exception list.
//!
//! Run it with:
//!
//! ```text
//! cargo run -p invnorm_lint --bin repo_lint
//! ```
//!
//! Exit codes: `0` clean, `1` violations (or stale allowlist entries),
//! `2` usage/IO errors. Every violation prints as
//! `path:line: R# (rule-name): message`.
//!
//! The implementation is dependency-free by construction (the workspace
//! builds offline): a hand-rolled, comment- and string-aware Rust lexer
//! ([`lexer`]) feeds a token-level rule engine ([`rules`]) — no external
//! parser. That buys robustness against the classic grep traps (`unsafe`
//! inside strings, nested block comments, raw strings) without the weight
//! of real syntax trees, and the same integration-tested binary lints the
//! workspace in CI and in `cargo test`.

#![forbid(unsafe_code)]

pub mod allow;
pub mod lexer;
pub mod policy;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use allow::AllowEntry;
pub use rules::{lint_file, Rule, Violation};

/// Directories under the workspace root that the linter walks.
pub const LINT_DIRS: &[&str] = &["crates", "src", "tests", "examples", "shims"];

/// Result of linting the whole workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not suppressed by the allowlist, in path/line order.
    pub violations: Vec<Violation>,
    /// Number of violations suppressed by allowlist entries.
    pub suppressed: usize,
    /// Allowlist entries that matched nothing (stale — these fail the run).
    pub unused_allow: Vec<AllowEntry>,
    /// Number of `.rs` files linted.
    pub files: usize,
}

impl Report {
    /// True when the workspace is clean: no live violations and no stale
    /// allowlist entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unused_allow.is_empty()
    }
}

/// Errors from the filesystem walk or the allowlist parse.
#[derive(Debug)]
pub enum LintError {
    Io(PathBuf, std::io::Error),
    Allow(allow::AllowParseError),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            LintError::Allow(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LintError {}

/// Recursively collects every `.rs` file under
/// `root/{crates,src,tests,examples,shims}`, sorted for deterministic output.
/// `target/` and hidden directories are skipped. The in-tree `shims/` stand
/// in for crates.io dependencies, but they run in every build — the rayon
/// shim schedules every planned worker and GEMM row block — so they are held
/// to the same rules.
pub fn collect_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    for dir in LINT_DIRS {
        let path = root.join(dir);
        if path.is_dir() {
            walk(&path, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root` against `allowlist` entries.
pub fn lint_workspace(root: &Path, allowlist: &[AllowEntry]) -> Result<Report, LintError> {
    let files = collect_files(root)?;
    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    let mut allow_used = vec![false; allowlist.len()];
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(file).map_err(|e| LintError::Io(file.clone(), e))?;
        let stale_row = rules::stale_atomic_row(&rel, &src);
        for violation in rules::lint_file(&rel, &src).into_iter().chain(stale_row) {
            let mut suppressed = false;
            for (i, entry) in allowlist.iter().enumerate() {
                if entry.matches(violation.rule.id(), &violation.path, &violation.line_text) {
                    allow_used[i] = true;
                    suppressed = true;
                    break;
                }
            }
            if suppressed {
                report.suppressed += 1;
            } else {
                report.violations.push(violation);
            }
        }
    }
    report.unused_allow = allowlist
        .iter()
        .zip(&allow_used)
        .filter(|(_, used)| !**used)
        .map(|(e, _)| e.clone())
        .collect();
    Ok(report)
}

/// Loads and parses the allowlist file; a missing file is an empty list.
pub fn load_allowlist(path: &Path) -> Result<Vec<AllowEntry>, LintError> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let src = fs::read_to_string(path).map_err(|e| LintError::Io(path.to_path_buf(), e))?;
    allow::parse(&src).map_err(LintError::Allow)
}
