//! The five invariant rules and the per-file rule engine.
//!
//! | ID | Name | Invariant |
//! |----|------|-----------|
//! | R1 | `safety-comment` | every `unsafe` is immediately preceded by a `// SAFETY:` comment (or `# Safety` doc section) stating the proof obligation |
//! | R2 | `unsafe-confinement` | `unsafe` only under `crates/tensor` (or behind a reviewed allowlist entry); every other crate root under `crates/` and `shims/` carries `#![forbid(unsafe_code)]`, the unsafe-bearing roots carry `#![deny(unsafe_op_in_unsafe_fn)]` |
//! | R3 | `hot-path-alloc` | no allocating calls in `//! lint: no_alloc` modules / `// lint: no_alloc` functions, outside `// lint: alloc_ok` setup functions |
//! | R4 | `atomic-ordering` | every `Ordering::X` matches the per-module policy table, and every module the table lists uses atomics; every `static` atomic carries an ordering-contract comment |
//! | R5 | `target-feature-confinement` | `#[target_feature]` functions are `unsafe`, non-`pub`, and live only in the dispatch-routed kernel modules |
//!
//! All rules work on the comment-and-string-aware token stream from
//! [`crate::lexer`] — `unsafe` inside a string literal or a doc example
//! never fires.
//!
//! ## Marker comments
//!
//! * `// SAFETY: <proof>` (or a `/// # Safety` doc section) — discharges R1
//!   for the *immediately following* run of `unsafe`-bearing lines; the
//!   lookup walks upward over attributes, other comment lines, and
//!   already-covered `unsafe` lines (so one comment covers back-to-back
//!   `unsafe impl Send`/`Sync` pairs), and stops at the first blank or
//!   ordinary code line.
//! * `//! lint: no_alloc` — marks the whole module hot (R3).
//! * `// lint: no_alloc` immediately above an `fn` — marks that function
//!   (and everything lexically inside it) hot (R3).
//! * `// lint: alloc_ok(<why>)` immediately above an `fn` — exempts a
//!   setup/compile-time function inside a hot module (R3).
//! * `#[cfg(test)] mod …` blocks are exempt from R3 entirely.

use crate::lexer::{self, Attr, Comment, Lexed};
use crate::policy;

/// The comment's text with its sigil (`//!`, `///`, `//`) stripped and
/// leading whitespace trimmed — lint markers must *start* the comment, so
/// prose that merely mentions a marker (like this module's docs) never
/// activates it.
fn marker_text(c: &Comment) -> &str {
    let t = c.text.as_str();
    let t = t
        .strip_prefix("//!")
        .or_else(|| t.strip_prefix("///"))
        .or_else(|| t.strip_prefix("//"))
        .unwrap_or(t);
    t.trim_start()
}

/// The five invariant rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    SafetyComment,
    UnsafeConfinement,
    HotPathAlloc,
    AtomicOrdering,
    TargetFeatureConfinement,
}

impl Rule {
    /// Stable rule ID used in output and in `lint_allow.toml`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::SafetyComment => "R1",
            Rule::UnsafeConfinement => "R2",
            Rule::HotPathAlloc => "R3",
            Rule::AtomicOrdering => "R4",
            Rule::TargetFeatureConfinement => "R5",
        }
    }

    /// Human-readable rule name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::UnsafeConfinement => "unsafe-confinement",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::TargetFeatureConfinement => "target-feature-confinement",
        }
    }
}

/// One rule violation at a `file:line` location.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: Rule,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
    /// The flagged source line, trimmed (allowlist `contains` matches this).
    pub line_text: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} ({}): {}",
            self.path,
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.message
        )
    }
}

/// Per-line classification derived from the lexed file.
#[derive(Debug, Default, Clone)]
struct LineInfo {
    has_code: bool,
    /// Line has code tokens and every one of them belongs to an attribute.
    attr_only: bool,
    has_unsafe: bool,
    has_comment: bool,
    /// Indices into `Lexed::comments` of comments covering this line.
    comment_ids: Vec<usize>,
}

/// Everything the rules need about one file, computed once.
pub struct FileContext<'a> {
    pub path: &'a str,
    pub src: &'a str,
    pub lexed: Lexed,
    pub attrs: Vec<Attr>,
    lines: Vec<LineInfo>,
    src_lines: Vec<&'a str>,
    fn_spans: Vec<FnSpan>,
    test_mod_spans: Vec<(usize, usize)>,
    module_no_alloc: bool,
}

/// One `fn` item with its body's line extent and lint markers.
#[derive(Debug, Clone)]
struct FnSpan {
    body_start: usize,
    body_end: usize,
    alloc_ok: bool,
    no_alloc: bool,
}

impl<'a> FileContext<'a> {
    pub fn new(path: &'a str, src: &'a str) -> Self {
        let lexed = lexer::lex(src);
        let attrs = lexer::attributes(&lexed.tokens);

        let mut lines = vec![LineInfo::default(); lexed.line_count + 2];
        // Token membership in attributes, for attr-only line classification.
        let mut in_attr = vec![false; lexed.tokens.len()];
        for attr in &attrs {
            for flag in in_attr
                .iter_mut()
                .take(attr.tok_end + 1)
                .skip(attr.tok_start)
            {
                *flag = true;
            }
        }
        let mut line_all_attr = vec![true; lexed.line_count + 2];
        for (idx, tok) in lexed.tokens.iter().enumerate() {
            let li = &mut lines[tok.line];
            li.has_code = true;
            if tok.is_ident("unsafe") {
                li.has_unsafe = true;
            }
            if !in_attr[idx] {
                line_all_attr[tok.line] = false;
            }
        }
        for (l, li) in lines.iter_mut().enumerate() {
            li.attr_only = li.has_code && line_all_attr[l];
        }
        for (cid, c) in lexed.comments.iter().enumerate() {
            for l in c.line_start..=c.line_end.min(lexed.line_count) {
                lines[l].has_comment = true;
                lines[l].comment_ids.push(cid);
            }
        }

        let module_no_alloc = lexed
            .comments
            .iter()
            .any(|c| c.inner_doc && marker_text(c).starts_with("lint: no_alloc"));

        let mut ctx = FileContext {
            path,
            src,
            lexed,
            attrs,
            lines,
            src_lines: src.lines().collect(),
            fn_spans: Vec::new(),
            test_mod_spans: Vec::new(),
            module_no_alloc,
        };
        ctx.fn_spans = ctx.collect_fn_spans();
        ctx.test_mod_spans = ctx.collect_test_mod_spans();
        ctx
    }

    fn line_text(&self, line: usize) -> String {
        self.src_lines
            .get(line.saturating_sub(1))
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    }

    fn violation(&self, rule: Rule, line: usize, message: String) -> Violation {
        Violation {
            rule,
            path: self.path.to_string(),
            line,
            message,
            line_text: self.line_text(line),
        }
    }

    /// Does any comment covering `line` satisfy `pred`?
    fn comment_matches(&self, line: usize, pred: &dyn Fn(&Comment) -> bool) -> bool {
        self.lines.get(line).is_some_and(|li| {
            li.comment_ids
                .iter()
                .any(|&cid| pred(&self.lexed.comments[cid]))
        })
    }

    /// Walks upward from `line` looking for a marker comment, skipping
    /// attribute-only lines, comment lines, and lines for which `chain`
    /// holds (used to let one comment cover a run of `unsafe` lines).
    /// Stops at the first blank or ordinary code line. The starting line's
    /// own (trailing) comment also counts.
    fn marker_above(
        &self,
        line: usize,
        pred: &dyn Fn(&Comment) -> bool,
        chain: &dyn Fn(&LineInfo) -> bool,
    ) -> bool {
        if self.comment_matches(line, pred) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            let li = &self.lines[l];
            if li.has_comment && self.comment_matches(l, pred) {
                return true;
            }
            let comment_only = li.has_comment && !li.has_code;
            if comment_only || li.attr_only || chain(li) {
                continue;
            }
            return false;
        }
        false
    }

    /// Collects every `fn` item with a body, its line extent, and any
    /// `lint:` markers in the comment run above it.
    fn collect_fn_spans(&self) -> Vec<FnSpan> {
        let toks = &self.lexed.tokens;
        let mut spans = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("fn") {
                continue;
            }
            // `fn` must introduce an item/closure header: the next token is
            // its name (fn-pointer types like `unsafe fn(…)` have `(` next
            // and carry no body of their own).
            let Some(name_tok) = toks.get(i + 1) else {
                continue;
            };
            if name_tok.ident().is_none() {
                continue;
            }
            // Find the body `{` (or `;` for bodyless trait methods) at
            // bracket/paren depth 0 from the fn keyword.
            let mut j = i + 1;
            let mut depth = 0i32;
            let mut body_open = None;
            while let Some(tok) = toks.get(j) {
                match tok.tok {
                    lexer::Tok::Punct('(') | lexer::Tok::Punct('[') => depth += 1,
                    lexer::Tok::Punct(')') | lexer::Tok::Punct(']') => depth -= 1,
                    lexer::Tok::Punct('{') if depth == 0 => {
                        body_open = Some(j);
                        break;
                    }
                    lexer::Tok::Punct(';') if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = body_open else { continue };
            let mut brace = 0i32;
            let mut close = open;
            for (k, tok) in toks.iter().enumerate().skip(open) {
                match tok.tok {
                    lexer::Tok::Punct('{') => brace += 1,
                    lexer::Tok::Punct('}') => {
                        brace -= 1;
                        if brace == 0 {
                            close = k;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            // Markers must sit in the contiguous comment/attribute run
            // directly above the `fn` line — no chaining through code.
            let chain = |_: &LineInfo| false;
            let alloc_ok = self.marker_above(
                t.line,
                &|c: &Comment| marker_text(c).starts_with("lint: alloc_ok"),
                &chain,
            );
            let no_alloc = self.marker_above(
                t.line,
                &|c: &Comment| !c.inner_doc && marker_text(c).starts_with("lint: no_alloc"),
                &chain,
            );
            spans.push(FnSpan {
                body_start: toks[open].line,
                body_end: toks[close].line,
                alloc_ok,
                no_alloc,
            });
        }
        spans
    }

    /// Line spans of `#[cfg(test)] mod … { … }` blocks.
    fn collect_test_mod_spans(&self) -> Vec<(usize, usize)> {
        let toks = &self.lexed.tokens;
        let mut spans = Vec::new();
        for attr in &self.attrs {
            if attr.inner || !attr.has_ident("cfg") || !attr.has_ident("test") {
                continue;
            }
            // Skip any further attributes between this one and the item.
            let mut j = attr.tok_end + 1;
            while let Some(next) = self.attrs.iter().find(|a| a.tok_start == j) {
                j = next.tok_end + 1;
            }
            // Accept `pub`/visibility modifiers before `mod`.
            while toks.get(j).is_some_and(|t| {
                t.is_ident("pub")
                    || t.is_punct('(')
                    || t.is_punct(')')
                    || t.ident().is_some_and(|i| i == "crate" || i == "super")
            }) {
                j += 1;
            }
            if !toks.get(j).is_some_and(|t| t.is_ident("mod")) {
                continue;
            }
            // Find the opening brace and match it.
            let mut k = j;
            while toks
                .get(k)
                .is_some_and(|t| !t.is_punct('{') && !t.is_punct(';'))
            {
                k += 1;
            }
            if !toks.get(k).is_some_and(|t| t.is_punct('{')) {
                continue;
            }
            let mut brace = 0i32;
            let mut close = k;
            for (m, tok) in toks.iter().enumerate().skip(k) {
                match tok.tok {
                    lexer::Tok::Punct('{') => brace += 1,
                    lexer::Tok::Punct('}') => {
                        brace -= 1;
                        if brace == 0 {
                            close = m;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            spans.push((toks[k].line, toks[close].line));
        }
        spans
    }

    fn in_test_mod(&self, line: usize) -> bool {
        self.test_mod_spans
            .iter()
            .any(|&(s, e)| line >= s && line <= e)
    }
}

/// Runs every rule over one file. `path` must be workspace-relative with
/// forward slashes — R2/R4/R5 key their policy on it.
pub fn lint_file(path: &str, src: &str) -> Vec<Violation> {
    let ctx = FileContext::new(path, src);
    let mut v = Vec::new();
    rule_safety_comment(&ctx, &mut v);
    rule_unsafe_confinement(&ctx, &mut v);
    rule_hot_path_alloc(&ctx, &mut v);
    rule_atomic_ordering(&ctx, &mut v);
    rule_target_feature(&ctx, &mut v);
    v.sort_by_key(|x| x.line);
    v
}

/// R1: every line bearing an `unsafe` token needs a `SAFETY:` comment (or a
/// `# Safety` doc section) immediately above (attributes, comment runs, and
/// already-covered `unsafe` lines may intervene) or trailing on the line.
fn rule_safety_comment(ctx: &FileContext, out: &mut Vec<Violation>) {
    let pred = |c: &Comment| c.text.contains("SAFETY:") || c.text.contains("# Safety");
    let mut flagged = std::collections::BTreeSet::new();
    for t in &ctx.lexed.tokens {
        if !t.is_ident("unsafe") || flagged.contains(&t.line) {
            continue;
        }
        let chain = |li: &LineInfo| li.has_unsafe;
        if !ctx.marker_above(t.line, &pred, &chain) {
            flagged.insert(t.line);
            out.push(
                ctx.violation(
                    Rule::SafetyComment,
                    t.line,
                    "`unsafe` without an immediately preceding `// SAFETY:` comment stating the \
                 proof obligation"
                        .to_string(),
                ),
            );
        }
    }
}

/// R2: `unsafe` tokens are only permitted under [`policy::UNSAFE_DIRS`];
/// crate roots must carry their required crate-level lint attribute.
fn rule_unsafe_confinement(ctx: &FileContext, out: &mut Vec<Violation>) {
    let allowed = policy::UNSAFE_DIRS.iter().any(|d| ctx.path.starts_with(d));
    if !allowed {
        let mut flagged = std::collections::BTreeSet::new();
        for t in &ctx.lexed.tokens {
            if t.is_ident("unsafe") && flagged.insert(t.line) {
                out.push(ctx.violation(
                    Rule::UnsafeConfinement,
                    t.line,
                    format!(
                        "`unsafe` outside the confined kernel crate ({}); move the code behind \
                         a safe `invnorm_tensor` API or add a reviewed allowlist entry",
                        policy::UNSAFE_DIRS.join(", ")
                    ),
                ));
            }
        }
    }
    // Crate-root attribute obligations.
    let is_crate_root = (ctx.path.starts_with("crates/") || ctx.path.starts_with("shims/"))
        && ctx.path.ends_with("/src/lib.rs");
    let is_workspace_root_lib = ctx.path == "src/lib.rs";
    if is_crate_root || is_workspace_root_lib {
        if policy::UNSAFE_CRATE_ROOTS.contains(&ctx.path) {
            let has = ctx
                .attrs
                .iter()
                .any(|a| a.inner && a.has_ident("deny") && a.has_ident("unsafe_op_in_unsafe_fn"));
            if !has {
                out.push(
                    ctx.violation(
                        Rule::UnsafeConfinement,
                        1,
                        "unsafe-bearing crate root must carry `#![deny(unsafe_op_in_unsafe_fn)]`"
                            .to_string(),
                    ),
                );
            }
        } else {
            let has = ctx
                .attrs
                .iter()
                .any(|a| a.inner && a.has_ident("forbid") && a.has_ident("unsafe_code"));
            if !has {
                out.push(ctx.violation(
                    Rule::UnsafeConfinement,
                    1,
                    "unsafe-free crate root must carry `#![forbid(unsafe_code)]`".to_string(),
                ));
            }
        }
    }
}

/// R3: allocating calls inside `no_alloc` scope.
fn rule_hot_path_alloc(ctx: &FileContext, out: &mut Vec<Violation>) {
    let no_alloc_fns: Vec<&FnSpan> = ctx.fn_spans.iter().filter(|f| f.no_alloc).collect();
    if !ctx.module_no_alloc && no_alloc_fns.is_empty() {
        return;
    }
    // `static`/`const` item initializers are const-evaluated: a `Vec::new()`
    // there is guaranteed allocation-free at runtime, so they are exempt.
    let const_init_spans = const_initializer_spans(&ctx.lexed.tokens);
    let in_scope = |line: usize| -> bool {
        if ctx.in_test_mod(line) {
            return false;
        }
        if const_init_spans
            .iter()
            .any(|&(s, e)| line >= s && line <= e)
        {
            return false;
        }
        let hot = ctx.module_no_alloc
            || no_alloc_fns
                .iter()
                .any(|f| line >= f.body_start && line <= f.body_end);
        if !hot {
            return false;
        }
        // Exempt when any enclosing fn is marked alloc_ok.
        !ctx.fn_spans
            .iter()
            .any(|f| f.alloc_ok && line >= f.body_start && line <= f.body_end)
    };
    let toks = &ctx.lexed.tokens;
    let flag = |line: usize, what: &str, out: &mut Vec<Violation>| {
        if in_scope(line) {
            out.push(ctx.violation(
                Rule::HotPathAlloc,
                line,
                format!(
                    "{what} allocates inside a `lint: no_alloc` scope; hoist it into a setup \
                     function marked `// lint: alloc_ok(<why>)` or reuse a preallocated buffer"
                ),
            ));
        }
    };
    for (i, t) in toks.iter().enumerate() {
        // `vec!` / `format!` macros.
        if let Some(name) = t.ident() {
            if policy::ALLOC_MACROS.contains(&name)
                && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            {
                flag(t.line, &format!("`{name}!`"), out);
                continue;
            }
            // `Vec::new`-style constructor paths.
            if i + 3 < toks.len() && toks[i + 1].is_punct(':') && toks[i + 2].is_punct(':') {
                if let Some(m) = toks[i + 3].ident() {
                    if policy::ALLOC_PATHS
                        .iter()
                        .any(|&(ty, me)| ty == name && me == m)
                    {
                        flag(t.line, &format!("`{name}::{m}`"), out);
                        continue;
                    }
                }
            }
        }
        // `.to_vec()` / `.clone()` / `.collect…` method calls.
        if t.is_punct('.') {
            if let Some(m) = toks.get(i + 1).and_then(|x| x.ident()) {
                if policy::ALLOC_METHODS.contains(&m)
                    && toks
                        .get(i + 2)
                        .is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
                {
                    flag(toks[i + 1].line, &format!("`.{m}()`"), out);
                }
            }
        }
    }
}

/// Line spans of `static NAME: … = …;` / `const NAME: … = …;` item
/// initializers. These are const-evaluated by definition, so nothing in
/// them can allocate at runtime (R3 exempts them).
fn const_initializer_spans(toks: &[lexer::Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(kw) = t.ident() else { continue };
        if kw != "static" && kw != "const" {
            continue;
        }
        // `static [mut] NAME :` / `const NAME :` — anything else (`*const`,
        // `const {…}` blocks, const generics) lacks the `ident :` shape.
        let mut j = i + 1;
        if kw == "static" && toks.get(j).is_some_and(|x| x.is_ident("mut")) {
            j += 1;
        }
        if toks.get(j).and_then(|x| x.ident()).is_none() {
            continue;
        }
        if !toks.get(j + 1).is_some_and(|x| x.is_punct(':')) {
            continue;
        }
        // Find `=` then the terminating `;` at bracket depth 0.
        let mut k = j + 2;
        let mut depth = 0i32;
        let mut eq = None;
        while let Some(tok) = toks.get(k) {
            match tok.tok {
                lexer::Tok::Punct('(') | lexer::Tok::Punct('[') | lexer::Tok::Punct('{') => {
                    depth += 1
                }
                lexer::Tok::Punct(')') | lexer::Tok::Punct(']') | lexer::Tok::Punct('}') => {
                    depth -= 1
                }
                lexer::Tok::Punct('=') if depth == 0 && eq.is_none() => eq = Some(k),
                lexer::Tok::Punct(';') if depth == 0 => {
                    if let Some(eq) = eq {
                        spans.push((toks[eq].line, tok.line));
                    }
                    break;
                }
                _ => {}
            }
            k += 1;
        }
    }
    spans
}

/// The atomic ordering named by `Ordering::<variant>` at token `i`, if any
/// (`cmp::Ordering::{Less,Equal,Greater}` and other paths are not atomic).
fn atomic_ordering_at(toks: &[lexer::Token], i: usize) -> Option<&str> {
    let named = toks[i].is_ident("Ordering")
        && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
        && toks.get(i + 2).is_some_and(|x| x.is_punct(':'));
    let variant = toks.get(i + 3).and_then(|x| x.ident()).filter(|_| named)?;
    policy::ATOMIC_ORDERINGS
        .contains(&variant)
        .then_some(variant)
}

/// R4's stale-row check, which [`crate::lint_workspace`] runs on every file:
/// a module [`policy::ATOMIC_POLICY`] lists must still name an atomic type
/// or ordering, or its row would pre-approve the next atomic there without
/// review — the policy-table counterpart of a stale allowlist entry. (It
/// stays out of [`lint_file`], whose fixtures use listed paths as stand-ins
/// for any module of the confined crate.)
pub fn stale_atomic_row(path: &str, src: &str) -> Option<Violation> {
    if !policy::ATOMIC_POLICY.iter().any(|(p, _)| *p == path) {
        return None;
    }
    let ctx = FileContext::new(path, src);
    let toks = &ctx.lexed.tokens;
    let names_atomics = (0..toks.len()).any(|i| {
        atomic_ordering_at(toks, i).is_some()
            || toks[i].ident().is_some_and(|id| id.starts_with("Atomic"))
    });
    (!names_atomics).then(|| {
        ctx.violation(
            Rule::AtomicOrdering,
            1,
            "listed in `policy::ATOMIC_POLICY` but names no atomic type or ordering; delete \
             its stale row"
                .to_string(),
        )
    })
}

/// R4: atomic-ordering policy conformance plus ordering-contract comments on
/// static atomics.
fn rule_atomic_ordering(ctx: &FileContext, out: &mut Vec<Violation>) {
    let toks = &ctx.lexed.tokens;
    let module_policy = policy::ATOMIC_POLICY
        .iter()
        .find(|(p, _)| *p == ctx.path)
        .map(|(_, o)| *o);
    // Ordering uses.
    for (i, t) in toks.iter().enumerate() {
        let Some(variant) = atomic_ordering_at(toks, i) else {
            continue;
        };
        match module_policy {
            None => out.push(ctx.violation(
                Rule::AtomicOrdering,
                t.line,
                format!(
                    "`Ordering::{variant}` in a module with no declared atomic-ordering policy; \
                     add this file to `policy::ATOMIC_POLICY` with a rationale"
                ),
            )),
            Some(allowed) if !allowed.contains(&variant) => out.push(ctx.violation(
                Rule::AtomicOrdering,
                t.line,
                format!(
                    "`Ordering::{variant}` violates this module's policy (allowed: {})",
                    allowed.join(", ")
                ),
            )),
            Some(_) => {}
        }
    }
    // Static atomics need an ordering-contract comment.
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("static") {
            continue;
        }
        // `static NAME: <type…> =` — scan the type tokens for `Atomic*`.
        let Some(name) = toks.get(i + 1).and_then(|x| x.ident()) else {
            continue;
        };
        if !toks.get(i + 2).is_some_and(|x| x.is_punct(':')) {
            continue;
        }
        let mut j = i + 3;
        let mut is_atomic = false;
        while let Some(tok) = toks.get(j) {
            match &tok.tok {
                lexer::Tok::Punct('=') | lexer::Tok::Punct(';') => break,
                lexer::Tok::Ident(ty) if ty.starts_with("Atomic") => {
                    is_atomic = true;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        if !is_atomic {
            continue;
        }
        let pred = |c: &Comment| c.text.to_ascii_lowercase().contains("ordering");
        let chain = |_: &LineInfo| false;
        if !ctx.marker_above(t.line, &pred, &chain) {
            out.push(ctx.violation(
                Rule::AtomicOrdering,
                t.line,
                format!(
                    "static atomic `{name}` lacks an ordering-contract comment (state which \
                     orderings its users rely on and why they suffice)"
                ),
            ));
        }
    }
}

/// R5: `#[target_feature]` confinement.
fn rule_target_feature(ctx: &FileContext, out: &mut Vec<Violation>) {
    let toks = &ctx.lexed.tokens;
    for attr in &ctx.attrs {
        if attr.inner || !attr.has_ident("target_feature") {
            continue;
        }
        let line = attr.line_start;
        if !policy::TARGET_FEATURE_FILES.contains(&ctx.path) {
            out.push(ctx.violation(
                Rule::TargetFeatureConfinement,
                line,
                "`#[target_feature]` outside the dispatch-routed kernel modules; feature-gated \
                 code must be reachable only via `invnorm_tensor::dispatch`"
                    .to_string(),
            ));
            continue;
        }
        // Skip trailing attributes to the fn header and collect modifiers.
        let mut j = attr.tok_end + 1;
        while let Some(next) = ctx.attrs.iter().find(|a| a.tok_start == j) {
            j = next.tok_end + 1;
        }
        let mut is_pub = false;
        let mut is_unsafe = false;
        let mut found_fn = false;
        while let Some(tok) = toks.get(j) {
            match tok.ident() {
                Some("pub") => is_pub = true,
                Some("unsafe") => is_unsafe = true,
                Some("fn") => {
                    found_fn = true;
                    break;
                }
                Some("extern") | Some("const") => {}
                _ => {
                    // Visibility scope `pub(crate)` parens.
                    if !(tok.is_punct('(') || tok.is_punct(')')) {
                        break;
                    }
                }
            }
            j += 1;
        }
        if !found_fn {
            continue;
        }
        if !is_unsafe {
            out.push(
                ctx.violation(
                    Rule::TargetFeatureConfinement,
                    line,
                    "`#[target_feature]` fn must be declared `unsafe` so every call site states \
                 the CPU-support proof"
                        .to_string(),
                ),
            );
        }
        if is_pub && !policy::PUB_TARGET_FEATURE_FILES.contains(&ctx.path) {
            out.push(ctx.violation(
                Rule::TargetFeatureConfinement,
                line,
                "`#[target_feature]` fn must not be `pub` outside the dispatch surface; export \
                 a safe trampoline from `invnorm_tensor::dispatch` instead"
                    .to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        lint_file(path, src)
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule.id()).collect()
    }

    const TENSOR: &str = "crates/tensor/src/gemm.rs";

    #[test]
    fn fn_spans_cover_markers() {
        let src = "\
//! lint: no_alloc
// lint: alloc_ok(per-model setup)
pub fn setup() {
    let v = Vec::new();
}
fn hot() {
    let v = Vec::new();
}
";
        let ctx = FileContext::new(TENSOR, src);
        assert!(ctx.module_no_alloc);
        assert_eq!(ctx.fn_spans.len(), 2);
        assert!(ctx.fn_spans[0].alloc_ok);
        assert!(!ctx.fn_spans[1].alloc_ok);
        let v = lint(TENSOR, src);
        let r3: Vec<_> = v.iter().filter(|x| x.rule == Rule::HotPathAlloc).collect();
        assert_eq!(r3.len(), 1);
        assert_eq!(r3[0].line, 7);
    }

    #[test]
    fn safety_chain_covers_send_sync_pair() {
        let src = "\
// SAFETY: the raw pointer is only dereferenced at disjoint row offsets.
unsafe impl Send for P {}
unsafe impl Sync for P {}
";
        let v = lint(TENSOR, src);
        assert!(
            !rules_of(&v).contains(&"R1"),
            "chained unsafe lines should share one SAFETY comment: {v:?}"
        );
    }

    #[test]
    fn safety_comment_must_be_adjacent() {
        let src = "\
// SAFETY: stale comment.
fn other() {}

fn f(p: *mut u8) {
    unsafe { *p = 0; }
}
";
        let v = lint(TENSOR, src);
        assert!(rules_of(&v).contains(&"R1"), "{v:?}");
    }
}
