//! The lint rules, run over the token stream of one file at a time.
//!
//! Rules are heuristic but *sound against the failure mode they police*:
//!
//! 1. **hash-iter** — iterating a `HashMap`/`HashSet` feeds nondeterministic
//!    order into whatever consumes it; with float accumulation downstream
//!    that breaks the bit-determinism contract of DESIGN.md §6. Iteration
//!    sites must either not exist or carry an explicit, reasoned waiver.
//! 2. **unsafe-confinement** — `unsafe` may only appear in the audited
//!    kernel modules, and every occurrence needs a nearby `SAFETY:` note.
//! 3. **wall-clock** — time and OS entropy make runs unreproducible, so
//!    they are confined to the bench crate.
//! 4. **panic-ratchet** — `.unwrap()`/`.expect(` counts per crate may not
//!    grow past the committed baseline (`lint-baseline.toml`).
//! 5. **hot-path-alloc** — allocation inside the hot-path function set
//!    (`forward_step`, `backward*`, `step`, `*_into`, `*_accumulate`, the
//!    sparse optimizer applies, ...) undoes the zero-alloc steady state the
//!    `tests/alloc_steady_state.rs` harness proves dynamically. Sites are
//!    counted per crate and ratcheted in `lint-baseline.toml`
//!    (`[hot-path-alloc]`), like the panic ratchet. Scope-aware: uses the
//!    brace-tree parser to attribute each site to its enclosing `fn`.
//! 6. **float-reduction-order** — `.sum::<f32/f64>()`, `.product()` and
//!    `fold` with a float accumulator outside the fixed-iteration-order
//!    allowlist can silently change summation order and break the bitwise
//!    1/2/4-thread equality `tests/determinism.rs` pins.
//! 7. **unused-waiver** — a `lint: allow` directive whose rule never fires
//!    on the covered lines is stale and must be deleted; stale waivers
//!    would silently swallow the next real regression at that site.
//!
//! Suppression convention (documented in DESIGN.md §7/§10): a comment
//! `// lint: allow(<rule>, reason="...")` on the offending line or the line
//! directly above waives rules 1, 3, 5 and 6 at that site. A waiver without
//! a reason is itself an error — the reason is the audit trail.

use crate::lexer::{Tok, Token};
use crate::parser::{body_open, Tree};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Rule identifiers; `Display` gives the names used in diagnostics and in
/// `lint: allow(...)` directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    HashIter,
    UnsafeConfinement,
    WallClock,
    PanicRatchet,
    HotPathAlloc,
    FloatReductionOrder,
    UnusedWaiver,
    PanicFree,
    DeterminismCone,
    NoBlockingCone,
    Config,
    Directive,
    Lex,
    Parse,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIter => "hash-iter",
            Rule::UnsafeConfinement => "unsafe-confinement",
            Rule::WallClock => "wall-clock",
            Rule::PanicRatchet => "panic-ratchet",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::FloatReductionOrder => "float-reduction-order",
            Rule::UnusedWaiver => "unused-waiver",
            Rule::PanicFree => "panic-free",
            Rule::DeterminismCone => "determinism-cone",
            Rule::NoBlockingCone => "no-blocking-cone",
            Rule::Config => "lint-config",
            Rule::Directive => "lint-directive",
            Rule::Lex => "lex",
            Rule::Parse => "parse",
        }
    }
}

/// One finding, formatted as `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub path: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
    /// For reachability rules: the full, unelided witness call chain
    /// (`root -> ... -> site fn`). The human `message` may elide long
    /// chains; emitters that want the whole path (`--github`, `--json`,
    /// `--sarif`) read this instead.
    pub witness: Option<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// What a file is, as far as rule scoping is concerned.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path with `/` separators, e.g.
    /// `crates/data/src/vocab.rs`.
    pub rel_path: String,
    /// Short crate key: `tensor`, `nn`, `core`, `models`, `metrics`,
    /// `data`, `bench`, `lint`, or `root` for the top-level crate.
    pub crate_key: String,
    /// Whole file is test code (integration tests, proptest modules).
    pub is_test_file: bool,
}

/// Crates whose non-test code the hash-iter rule applies to.
const HASH_ITER_CRATES: &[&str] = &["tensor", "nn", "core", "models", "metrics", "data", "serve"];

/// Modules allowed to contain `unsafe` (with SAFETY comments).
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/tensor/src/pool.rs",
    // The SIMD matmul backends: packed-panel FMA microkernels are the one
    // place intrinsics buy the remaining 2-4x (DESIGN.md §13).
    "crates/tensor/src/kernels.rs",
    "crates/nn/src/embedding.rs",
    // The counting global allocator: `unsafe impl GlobalAlloc` is the only
    // way to observe heap traffic from safe Rust.
    "tests/alloc_steady_state.rs",
];

/// Crate keys exempt from the wall-clock/entropy rule.
const WALL_CLOCK_EXEMPT: &[&str] = &["bench"];

/// Identifiers that read wall-clock (or monotonic OS) time.
const CLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "UNIX_EPOCH"];

/// Identifiers that reach for OS entropy.
const ENTROPY_IDENTS: &[&str] = &[
    "OsRng",
    "thread_rng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

/// Methods whose call can park the calling thread: mutex locks, condvar
/// waits, blocking channel receives. Feeds the `Blocks` effect
/// (`effects.rs`) and through it the no-blocking-cone rule.
const BLOCKING_METHODS: &[&str] = &[
    "lock",
    "wait",
    "wait_timeout",
    "wait_while",
    "recv",
    "recv_timeout",
];

/// Methods that iterate a hash container.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Maximum number of non-comment tokens the SAFETY-comment search walks
/// back over before giving up (covers attributes and `pub unsafe fn` heads
/// between the comment and the `unsafe` token).
const SAFETY_LOOKBACK_TOKENS: usize = 30;

/// Crates exempt from the hot-path-alloc rule: the bench crate measures
/// (and may allocate freely around the measured region) and the linter has
/// no training hot path.
pub(crate) const HOT_PATH_EXEMPT_CRATES: &[&str] = &["bench", "lint"];

/// Function names that ARE the hot path: exact matches.
const HOT_FN_EXACT: &[&str] = &[
    "step",
    "step_weights",
    "step_arch",
    "step_row",
    "train_batch",
    "apply_adam",
    "apply_sgd",
    "forward_step",
];

/// Hot-path name prefixes (`backward`, `backward_mlp`, `accumulate_grad*`).
const HOT_FN_PREFIXES: &[&str] = &["backward", "accumulate_grad"];

/// Hot-path name suffixes: the `_into`/`_inplace` buffer-reuse convention
/// and the `*_accumulate` gradient paths.
const HOT_FN_SUFFIXES: &[&str] = &["_into", "_accumulate", "_inplace"];

/// Crates exempt from the float-reduction-order rule (no training-path
/// reductions: bench aggregates its own timings, the linter has no floats).
const FLOAT_REDUCTION_EXEMPT_CRATES: &[&str] = &["bench", "lint"];

/// Modules that guarantee fixed iteration order for their float
/// reductions: the sequential tensor kernels (whose summation order is the
/// determinism *reference*, see DESIGN.md §6) and the calibration metric,
/// which reduces over pre-sorted slices.
pub(crate) const FLOAT_REDUCTION_ALLOWLIST: &[&str] = &[
    "crates/tensor/src/matrix.rs",
    "crates/tensor/src/kernels.rs",
    "crates/tensor/src/ops.rs",
    "crates/tensor/src/stats.rs",
    "crates/metrics/src/calibration.rs",
];

/// Per-file analysis output: diagnostics plus the ratchet tallies.
pub struct FileAnalysis {
    pub diagnostics: Vec<Diagnostic>,
    /// `.unwrap()` / `.expect(` sites in non-test code.
    pub unwrap_expect_count: usize,
    /// `unsafe` tokens in non-test code (ratcheted per crate via
    /// `[unsafe-sites]`, independently of the allowlist diagnostics).
    pub unsafe_count: usize,
    /// Unwaived allocation sites in hot-path fns (ratcheted per crate, so
    /// they are collected here rather than pushed into `diagnostics`).
    pub hot_path_alloc: Vec<Diagnostic>,
}

/// Everything the workspace pipeline needs per file: the prelude rules'
/// diagnostics plus the retained token stream, brace tree and waiver state
/// that the cross-file rules (derived hot set, panic-free reachability)
/// run over afterwards.
pub struct FileCtx {
    pub meta: FileMeta,
    pub tokens: Vec<Token>,
    /// Comment-free token indices.
    pub code: Vec<usize>,
    pub test_mask: Vec<bool>,
    pub(crate) allows: Allows,
    /// `None` on a brace-tree parse error (reported in `diagnostics`).
    pub tree: Option<Tree>,
    pub diagnostics: Vec<Diagnostic>,
    pub unwrap_expect_count: usize,
    pub unsafe_count: usize,
    /// Filled by `hot_path_alloc_rule`, glob- or reachability-scoped.
    pub hot_path_alloc: Vec<Diagnostic>,
}

/// Runs the purely-local rules (1, 2, 3, 6, the unwrap tally) and parses
/// the brace tree, retaining everything the cross-file rules need. The
/// unused-waiver pass is NOT run here — it must come after every rule that
/// can mark a waiver used, which in workspace mode includes panic-free.
pub(crate) fn analyze_prelude(meta: &FileMeta, tokens: Vec<Token>) -> FileCtx {
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.tok, Tok::Comment(_)))
        .map(|(i, _)| i)
        .collect();
    let test_mask = test_mask(&tokens, &code, meta.is_test_file);
    let mut allows = collect_allows(meta, &tokens);
    // Directive errors (malformed / reason-less waivers) lead so rule
    // diagnostics keep their historical relative order within a file.
    let mut diagnostics = std::mem::take(&mut allows.errors);

    hash_iter_rule(meta, &tokens, &code, &test_mask, &allows, &mut diagnostics);
    let unsafe_count = unsafe_rule(meta, &tokens, &code, &test_mask, &mut diagnostics);
    wall_clock_rule(meta, &tokens, &code, &allows, &mut diagnostics);
    float_reduction_rule(meta, &tokens, &code, &test_mask, &allows, &mut diagnostics);
    let unwrap_expect_count = count_unwrap_expect(&tokens, &code, &test_mask);

    // The scope-aware rules need the brace tree; a parse failure is
    // reported like a lex failure (the file would not compile anyway) and
    // suppresses the tree-based rules and the unused-waiver check, whose
    // usage records would be incomplete.
    let tree = match Tree::parse(&tokens) {
        Ok(tree) => Some(tree),
        Err(e) => {
            diagnostics.push(Diagnostic {
                path: meta.rel_path.clone(),
                line: e.line,
                rule: Rule::Parse,
                witness: None,
                message: format!("brace-tree parse error: {}", e.message),
            });
            None
        }
    };

    FileCtx {
        meta: meta.clone(),
        tokens,
        code,
        test_mask,
        allows,
        tree,
        diagnostics,
        unwrap_expect_count,
        unsafe_count,
        hot_path_alloc: Vec::new(),
    }
}

impl FileCtx {
    /// Runs the unused-waiver pass and returns the finished per-file
    /// analysis, diagnostics sorted by line. Call after every rule that
    /// can mark a waiver used has run.
    pub(crate) fn finish(mut self) -> FileAnalysis {
        if self.tree.is_some() {
            self.allows.report_unused(&self.meta, &mut self.diagnostics);
        }
        self.diagnostics.sort_by_key(|d| d.line);
        FileAnalysis {
            diagnostics: self.diagnostics,
            unwrap_expect_count: self.unwrap_expect_count,
            unsafe_count: self.unsafe_count,
            hot_path_alloc: self.hot_path_alloc,
        }
    }
}

/// Runs every per-file rule standalone, with the hot-path set defined by
/// the name globs (the workspace pipeline in `lib.rs` instead derives the
/// set from call-graph reachability). The ratchet comparisons against the
/// baseline happen at workspace level, from the summed counts.
pub fn analyze_file(meta: &FileMeta, tokens: &[Token]) -> FileAnalysis {
    let mut ctx = analyze_prelude(meta, tokens.to_vec());
    if let Some(tree) = ctx.tree.take() {
        let mut sites = Vec::new();
        hot_path_alloc_rule(
            &ctx.meta,
            &ctx.tokens,
            &ctx.code,
            &tree,
            &ctx.test_mask,
            &ctx.allows,
            &mut sites,
        );
        ctx.hot_path_alloc = sites;
        ctx.tree = Some(tree);
    }
    ctx.finish()
}

/// Crate-public entry to [`test_mask`] for the call graph, which marks
/// every fn inside a test item as test code, and for the effect-inference
/// seeding tests, which build their own [`crate::effects::SeedSource`]s.
pub(crate) fn test_mask_for(tokens: &[Token], code: &[usize], whole_file: bool) -> Vec<bool> {
    test_mask(tokens, code, whole_file)
}

/// Marks every token that lives inside `#[cfg(test)]` / `#[test]` items.
/// A file-level inner attribute `#![cfg(test)]` masks the whole file.
fn test_mask(tokens: &[Token], code: &[usize], whole_file: bool) -> Vec<bool> {
    let mut mask = vec![whole_file; tokens.len()];
    if whole_file {
        return mask;
    }
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    // Leading inner attributes: `#![...]` only appears at the head of the
    // file (module-level inner attributes in nested mods are not used in
    // this workspace), so scanning the prefix is enough.
    let mut head = 0;
    while head + 2 < n
        && *tok(head) == Tok::Punct('#')
        && *tok(head + 1) == Tok::Punct('!')
        && *tok(head + 2) == Tok::Punct('[')
    {
        let mut depth = 0usize;
        let mut j = head + 2;
        let mut attr_head: Option<&str> = None;
        let mut is_test_attr = false;
        while j < n {
            match tok(j) {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(name) => {
                    if attr_head.is_none() {
                        attr_head = Some(name);
                    }
                    if name == "test" && matches!(attr_head, Some("test") | Some("cfg")) {
                        is_test_attr = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if is_test_attr {
            return vec![true; tokens.len()];
        }
        head = j + 1;
    }
    let mut ci = 0;
    while ci < n {
        if *tok(ci) != Tok::Punct('#') || ci + 1 >= n || *tok(ci + 1) != Tok::Punct('[') {
            ci += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching ']'.
        let attr_start = ci;
        let mut depth = 0usize;
        let mut j = ci + 1;
        let mut is_test_attr = false;
        let mut attr_head: Option<&str> = None;
        while j < n {
            match tok(j) {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(name) => {
                    if attr_head.is_none() {
                        attr_head = Some(name);
                    }
                    // `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]`,
                    // but not `#[cfg(feature = "test-utils")]` — the bare
                    // ident `test` only appears as a predicate.
                    if name == "test" && matches!(attr_head, Some("test") | Some("cfg")) {
                        is_test_attr = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            ci = j + 1;
            continue;
        }
        // Skip any further attributes, then span the annotated item: up to
        // the matching '}' of its first top-level brace, or a ';' for
        // brace-less items (`#[cfg(test)] use ...;`, `mod tests;`).
        let mut k = j + 1;
        while k + 1 < n && *tok(k) == Tok::Punct('#') && *tok(k + 1) == Tok::Punct('[') {
            let mut d = 0usize;
            k += 1;
            while k < n {
                match tok(k) {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut brace_depth = 0usize;
        let end;
        loop {
            if k >= n {
                end = n - 1;
                break;
            }
            match tok(k) {
                Tok::Punct('{') => brace_depth += 1,
                Tok::Punct('}') => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if brace_depth == 0 {
                        end = k;
                        break;
                    }
                }
                Tok::Punct(';') if brace_depth == 0 => {
                    end = k;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for &ti in &code[attr_start..=end.min(n - 1)] {
            mask[ti] = true;
        }
        ci = end + 1;
    }
    mask
}

/// Parsed `lint: allow` directives.
///
/// `suppressed` maps rule name -> covered line -> the directive's own line
/// (a directive covers its line and the next). Suppression hits are
/// recorded in `used` so that, after every rule has run, any directive
/// that never suppressed anything is flagged by the unused-waiver rule.
/// `used` is interior-mutable because the rules hold `&Allows`.
pub(crate) struct Allows {
    suppressed: BTreeMap<&'static str, BTreeMap<u32, u32>>,
    /// Every well-formed directive, as (rule name, directive line).
    directives: Vec<(&'static str, u32)>,
    used: RefCell<BTreeSet<(&'static str, u32)>>,
    errors: Vec<Diagnostic>,
}

impl Allows {
    /// Is `rule` waived at `line`? A hit marks the directive as used.
    pub(crate) fn is_suppressed(&self, rule: Rule, line: u32) -> bool {
        let Some(&directive_line) = self.suppressed.get(rule.name()).and_then(|m| m.get(&line))
        else {
            return false;
        };
        self.used.borrow_mut().insert((rule.name(), directive_line));
        true
    }

    /// Flags every directive whose rule never fired on a covered line.
    fn report_unused(&self, meta: &FileMeta, diagnostics: &mut Vec<Diagnostic>) {
        let used = self.used.borrow();
        for &(rule_key, line) in &self.directives {
            if used.contains(&(rule_key, line)) {
                continue;
            }
            diagnostics.push(Diagnostic {
                path: meta.rel_path.clone(),
                line,
                rule: Rule::UnusedWaiver,
                witness: None,
                message: format!(
                    "waiver for `{rule_key}` never fires on this line or the next — delete \
                     it (a stale waiver would silently swallow the next real regression \
                     at this site)"
                ),
            });
        }
    }
}

fn collect_allows(meta: &FileMeta, tokens: &[Token]) -> Allows {
    let mut suppressed: BTreeMap<&'static str, BTreeMap<u32, u32>> = BTreeMap::new();
    let mut directives = Vec::new();
    let mut directive_lines: BTreeSet<u32> = BTreeSet::new();
    let mut errors = Vec::new();
    for t in tokens {
        let Tok::Comment(text) = &t.tok else { continue };
        // A directive must START the comment (`// lint: allow(...)`); prose
        // that merely mentions the convention mid-sentence is not one.
        let body = text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim_start();
        let Some(rest) = body.strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split(')').next())
        else {
            errors.push(Diagnostic {
                path: meta.rel_path.clone(),
                line: t.line,
                rule: Rule::Directive,
                witness: None,
                message: "malformed lint directive; expected `lint: allow(<rule>, reason=\"...\")`"
                    .to_string(),
            });
            continue;
        };
        let mut parts = args.splitn(2, ',');
        let rule_name = parts.next().unwrap_or("").trim();
        let reason = parts.next().unwrap_or("").trim();
        let known = match rule_name {
            "hash-iter" => Some(Rule::HashIter.name()),
            "wall-clock" => Some(Rule::WallClock.name()),
            "hot-path-alloc" => Some(Rule::HotPathAlloc.name()),
            "float-reduction-order" => Some(Rule::FloatReductionOrder.name()),
            "panic-free" => Some(Rule::PanicFree.name()),
            "determinism-cone" => Some(Rule::DeterminismCone.name()),
            "no-blocking-cone" => Some(Rule::NoBlockingCone.name()),
            _ => None,
        };
        let Some(rule_key) = known else {
            errors.push(Diagnostic {
                path: meta.rel_path.clone(),
                line: t.line,
                rule: Rule::Directive,
                witness: None,
                message: format!(
                    "unknown or non-waivable rule `{rule_name}` in lint directive (waivable: \
                     hash-iter, wall-clock, hot-path-alloc, float-reduction-order, panic-free, \
                     determinism-cone, no-blocking-cone)"
                ),
            });
            continue;
        };
        let has_reason = reason
            .strip_prefix("reason=\"")
            .map(|r| r.trim_end_matches('"').trim())
            .is_some_and(|r| !r.is_empty());
        if !has_reason {
            errors.push(Diagnostic {
                path: meta.rel_path.clone(),
                line: t.line,
                rule: Rule::Directive,
                witness: None,
                message: format!(
                    "lint: allow({rule_key}) without a reason — add reason=\"...\" \
                     explaining why the site is order-independent"
                ),
            });
            continue;
        }
        directive_lines.insert(t.line);
        directives.push((rule_key, t.line));
    }
    // A directive covers its own line and the first *non-directive* line
    // below it, stacking through any adjacent directive lines in between —
    // so two waivers for different rules can sit on consecutive comment
    // lines above one shared site (e.g. a `lock()` that needs both a
    // panic-free and a no-blocking-cone waiver).
    for &(rule_key, line) in &directives {
        let entry = suppressed.entry(rule_key).or_default();
        entry.insert(line, line);
        let mut covered = line + 1;
        while directive_lines.contains(&covered) {
            entry.insert(covered, line);
            covered += 1;
        }
        entry.insert(covered, line);
    }
    Allows {
        suppressed,
        directives,
        used: RefCell::new(BTreeSet::new()),
        errors,
    }
}

/// Code-index ranges (inclusive, in `code` space) of every `fn` body,
/// found by [`body_open`]; a signature without one is a bodiless
/// declaration.
fn fn_spans(tokens: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    let mut spans = Vec::new();
    for ci in 0..n {
        if !matches!(tok(ci), Tok::Ident(s) if s == "fn") {
            continue;
        }
        // `fn` must introduce a named item — this skips `Fn(...)` bounds
        // and `fn(...)` pointer types, which have no name after `fn`.
        if ci + 1 >= n || !matches!(tok(ci + 1), Tok::Ident(_)) {
            continue;
        }
        let Some(open) = body_open(tok, ci + 1, n) else {
            continue;
        };
        let mut depth = 0usize;
        let mut k = open;
        while k < n {
            match tok(k) {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        spans.push((ci, k.min(n - 1)));
    }
    spans
}

/// Identifiers bound (or typed) as `HashMap`/`HashSet`, each with the span
/// of its enclosing fn (`None` = item scope: struct fields, statics).
/// Scoping to the enclosing fn stops a `counts: &HashMap` parameter in one
/// function from tainting a `counts: Vec<HashMap>` local in another; within
/// a function the tracking is still flow-insensitive, which only
/// over-approximates (stricter lint, never unsound).
struct HashBindings {
    by_name: BTreeMap<String, Vec<Option<(usize, usize)>>>,
}

impl HashBindings {
    fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Is `name` hash-bound at code index `site`?
    fn is_bound_at(&self, name: &str, site: usize) -> bool {
        self.by_name.get(name).is_some_and(|spans| {
            spans
                .iter()
                .any(|s| s.is_none_or(|(a, b)| a <= site && site <= b))
        })
    }
}

/// Collects hash-container bindings: `name: [&][mut] [path::]HashMap<...>`
/// annotations (let bindings, fn params, struct fields) and
/// `let [mut] name = HashMap::new()`-style initialisations.
fn hash_bound_idents(tokens: &[Token], code: &[usize]) -> HashBindings {
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    let spans = fn_spans(tokens, code);
    let innermost = |site: usize| -> Option<(usize, usize)> {
        spans
            .iter()
            .filter(|&&(a, b)| a <= site && site <= b)
            .max_by_key(|&&(a, _)| a)
            .copied()
    };
    let mut out = HashBindings {
        by_name: BTreeMap::new(),
    };
    let mut bind = |name: &str, site: usize| {
        out.by_name
            .entry(name.to_string())
            .or_default()
            .push(innermost(site));
    };
    let is_hash_ty = |name: &str| name == "HashMap" || name == "HashSet";
    for ci in 0..n {
        // Pattern A: Ident ':' <type path ending in HashMap/HashSet>
        if let Tok::Ident(name) = tok(ci) {
            if ci + 2 < n && *tok(ci + 1) == Tok::Punct(':') {
                // Skip `&`, `&&`, `mut`, lifetimes before the path.
                let mut j = ci + 2;
                while j < n {
                    match tok(j) {
                        Tok::Punct('&') | Tok::Lifetime(_) => j += 1,
                        Tok::Ident(k) if k == "mut" => j += 1,
                        _ => break,
                    }
                }
                // Walk the path `a::b::HashMap` up to `<`, `(`, etc.
                let mut last_seg: Option<&str> = None;
                while j < n {
                    match tok(j) {
                        Tok::Ident(seg) => {
                            last_seg = Some(seg);
                            j += 1;
                        }
                        Tok::Punct(':') if j + 1 < n && *tok(j + 1) == Tok::Punct(':') => {
                            j += 2;
                        }
                        _ => break,
                    }
                }
                if last_seg.is_some_and(is_hash_ty) {
                    bind(name, ci);
                }
            }
        }
        // Pattern B: `let [mut] name = [path::]Hash{Map,Set}::...`
        if *tok(ci) == Tok::Ident("let".to_string()) {
            let mut j = ci + 1;
            if j < n && *tok(j) == Tok::Ident("mut".to_string()) {
                j += 1;
            }
            let Tok::Ident(name) = tok(j) else { continue };
            if j + 1 >= n || *tok(j + 1) != Tok::Punct('=') {
                continue;
            }
            let mut k = j + 2;
            let mut last_seg: Option<&str> = None;
            while k < n {
                match tok(k) {
                    Tok::Ident(seg) => {
                        if is_hash_ty(seg) {
                            last_seg = Some(seg);
                        }
                        k += 1;
                        // Only look at the head of the initialiser.
                        if !matches!(tok(k), Tok::Punct(':')) {
                            break;
                        }
                    }
                    Tok::Punct(':') if k + 1 < n && *tok(k + 1) == Tok::Punct(':') => k += 2,
                    _ => break,
                }
            }
            if last_seg.is_some() {
                bind(name, j);
            }
        }
    }
    out
}

/// One hash-container iteration site: the receiver identifier's code
/// index, its name, and how it iterates (`.iter()`, `for-in`).
pub(crate) struct HashIterSite {
    pub ci: usize,
    pub name: String,
    pub how: String,
}

/// Hash-container iteration sites, before crate/test/waiver policy.
/// Reported at the receiver's code index so an allow directive on the
/// line above covers a multiline method chain.
pub(crate) fn hash_iter_sites(tokens: &[Token], code: &[usize]) -> Vec<HashIterSite> {
    let bindings = hash_bound_idents(tokens, code);
    if bindings.is_empty() {
        return Vec::new();
    }
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    let mut out = Vec::new();
    for ci in 0..n {
        // `name.iter()` and friends.
        if let Tok::Ident(name) = tok(ci) {
            if bindings.is_bound_at(name, ci)
                && ci + 3 < n
                && *tok(ci + 1) == Tok::Punct('.')
                && matches!(tok(ci + 2), Tok::Ident(m) if HASH_ITER_METHODS.contains(&m.as_str()))
                && *tok(ci + 3) == Tok::Punct('(')
            {
                let Tok::Ident(m) = tok(ci + 2) else {
                    unreachable!()
                };
                out.push(HashIterSite {
                    ci,
                    name: name.clone(),
                    how: format!(".{m}()"),
                });
            }
        }
        // `for pat in [&][mut] name {`.
        if *tok(ci) == Tok::Ident("for".to_string()) {
            // Find the `in` belonging to this `for` (patterns cannot
            // contain the `in` keyword).
            let mut j = ci + 1;
            let mut found_in = None;
            while j < n && j - ci < 64 {
                match tok(j) {
                    Tok::Ident(k) if k == "in" => {
                        found_in = Some(j);
                        break;
                    }
                    Tok::Punct('{') | Tok::Punct(';') => break,
                    _ => j += 1,
                }
            }
            let Some(in_ci) = found_in else { continue };
            let mut k = in_ci + 1;
            while k < n {
                match tok(k) {
                    Tok::Punct('&') => k += 1,
                    Tok::Ident(m) if m == "mut" => k += 1,
                    _ => break,
                }
            }
            if let Tok::Ident(name) = tok(k) {
                if bindings.is_bound_at(name, k) && k + 1 < n && *tok(k + 1) == Tok::Punct('{') {
                    out.push(HashIterSite {
                        ci: k,
                        name: name.clone(),
                        how: "for-in".to_string(),
                    });
                }
            }
        }
    }
    out
}

fn hash_iter_rule(
    meta: &FileMeta,
    tokens: &[Token],
    code: &[usize],
    test_mask: &[bool],
    allows: &Allows,
    diagnostics: &mut Vec<Diagnostic>,
) {
    if !HASH_ITER_CRATES.contains(&meta.crate_key.as_str()) {
        return;
    }
    for site in hash_iter_sites(tokens, code) {
        let l = tokens[code[site.ci]].line;
        if test_mask[code[site.ci]] || allows.is_suppressed(Rule::HashIter, l) {
            continue;
        }
        let (name, how) = (&site.name, &site.how);
        diagnostics.push(Diagnostic {
            path: meta.rel_path.clone(),
            line: l,
            rule: Rule::HashIter,
            witness: None,
            message: format!(
                "iteration over hash container `{name}` ({how}): order depends on the hash \
                 seed and can break bit-determinism; sort the keys first or waive with \
                 `// lint: allow(hash-iter, reason=\"...\")`"
            ),
        });
    }
}

/// Returns the number of `unsafe` tokens in non-test code, which feeds
/// the per-crate `[unsafe-sites]` ratchet: every new site shows up as a
/// ceiling bump even inside an allowlisted module.
fn unsafe_rule(
    meta: &FileMeta,
    tokens: &[Token],
    code: &[usize],
    test_mask: &[bool],
    diagnostics: &mut Vec<Diagnostic>,
) -> usize {
    let allowlisted = UNSAFE_ALLOWLIST.contains(&meta.rel_path.as_str());
    let mut count = 0usize;
    for (pos, &ti) in code.iter().enumerate() {
        if tokens[ti].tok != Tok::Ident("unsafe".to_string()) {
            continue;
        }
        if !test_mask[ti] {
            count += 1;
        }
        if !allowlisted {
            diagnostics.push(Diagnostic {
                path: meta.rel_path.clone(),
                line: tokens[ti].line,
                rule: Rule::UnsafeConfinement,
                witness: None,
                message: format!(
                    "`unsafe` outside the audited kernel allowlist ({}); \
                     use the safe pool APIs (Pool::for_rows and friends) or move the \
                     code into an allowlisted module",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
            continue;
        }
        // Allowlisted module: still demand a SAFETY comment close by.
        // Walk the raw token stream backwards from the `unsafe`, giving up
        // after SAFETY_LOOKBACK_TOKENS non-comment tokens.
        let mut seen_code = 0usize;
        let mut found = false;
        let mut i = ti;
        while i > 0 && seen_code < SAFETY_LOOKBACK_TOKENS {
            i -= 1;
            match &tokens[i].tok {
                Tok::Comment(text) => {
                    if text.contains("SAFETY") || text.contains("# Safety") {
                        found = true;
                        break;
                    }
                }
                _ => seen_code += 1,
            }
        }
        let _ = pos;
        if !found {
            diagnostics.push(Diagnostic {
                path: meta.rel_path.clone(),
                line: tokens[ti].line,
                rule: Rule::UnsafeConfinement,
                witness: None,
                message: "`unsafe` without a preceding `// SAFETY:` comment justifying it"
                    .to_string(),
            });
        }
    }
    count
}

/// One token-level effect site before any policy (crate exemptions, test
/// masks, waivers). The collectors below are pure detectors shared by the
/// per-file rules and the interprocedural effect seeding (`effects.rs`) —
/// sharing them is what makes the effect summaries a
/// superset-by-construction of the per-file detections.
pub(crate) struct RawSite {
    /// Code index of the anchor token (its line is the diagnostic line).
    pub ci: usize,
    /// Display label: `Instant`, `.lock()`, `` `.sum::<f32>()` ``.
    pub label: String,
}

/// Clock-reading and entropy-reaching identifier sites, in token order.
/// A name inside a `use` item only imports it and is skipped, unless the
/// import renames it: calls through the alias would go unseen.
pub(crate) fn clock_entropy_sites(
    tokens: &[Token],
    code: &[usize],
) -> (Vec<RawSite>, Vec<RawSite>) {
    let tok = |ci: usize| code.get(ci).map(|&ti| &tokens[ti].tok);
    let mut clock = Vec::new();
    let mut entropy = Vec::new();
    let mut in_use = false;
    for (ci, &ti) in code.iter().enumerate() {
        let name = match &tokens[ti].tok {
            // `use<'a>` is a precise-capturing bound, not an import.
            Tok::Ident(kw) if kw == "use" => {
                in_use = tok(ci + 1) != Some(&Tok::Punct('<'));
                continue;
            }
            Tok::Punct(';') => {
                in_use = false;
                continue;
            }
            Tok::Ident(name) => name,
            _ => continue,
        };
        if in_use && !matches!(tok(ci + 1), Some(Tok::Ident(a)) if a == "as") {
            continue;
        }
        if CLOCK_IDENTS.contains(&name.as_str()) {
            clock.push(RawSite {
                ci,
                label: name.clone(),
            });
        } else if ENTROPY_IDENTS.contains(&name.as_str()) {
            entropy.push(RawSite {
                ci,
                label: name.clone(),
            });
        }
    }
    (clock, entropy)
}

/// Thread-parking call sites: `.lock(`, condvar waits, blocking channel
/// receives, zero-argument `.join()` (thread join — `join(sep)` on slices
/// takes an argument and is excluded) and `sleep(...)` calls.
pub(crate) fn blocking_sites(tokens: &[Token], code: &[usize]) -> Vec<RawSite> {
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    let mut out = Vec::new();
    for ci in 0..n {
        match tok(ci) {
            Tok::Punct('.') if ci + 2 < n && *tok(ci + 2) == Tok::Punct('(') => {
                let Tok::Ident(m) = tok(ci + 1) else { continue };
                if BLOCKING_METHODS.contains(&m.as_str()) {
                    out.push(RawSite {
                        ci: ci + 1,
                        label: format!(".{m}()"),
                    });
                } else if m == "join" && ci + 3 < n && *tok(ci + 3) == Tok::Punct(')') {
                    out.push(RawSite {
                        ci: ci + 1,
                        label: ".join()".to_string(),
                    });
                }
            }
            Tok::Ident(name)
                if name == "sleep" && ci + 1 < n && *tok(ci + 1) == Tok::Punct('(') =>
            {
                out.push(RawSite {
                    ci,
                    label: "sleep()".to_string(),
                });
            }
            _ => {}
        }
    }
    out
}

/// `unsafe` token sites (for the `Unsafe` effect; the confinement and
/// SAFETY-comment policy stays in [`unsafe_rule`]).
pub(crate) fn unsafe_token_sites(tokens: &[Token], code: &[usize]) -> Vec<RawSite> {
    code.iter()
        .enumerate()
        .filter(|&(_, &ti)| tokens[ti].tok == Tok::Ident("unsafe".to_string()))
        .map(|(ci, _)| RawSite {
            ci,
            label: "unsafe".to_string(),
        })
        .collect()
}

fn wall_clock_rule(
    meta: &FileMeta,
    tokens: &[Token],
    code: &[usize],
    allows: &Allows,
    diagnostics: &mut Vec<Diagnostic>,
) {
    if WALL_CLOCK_EXEMPT.contains(&meta.crate_key.as_str()) {
        return;
    }
    let (clock, entropy) = clock_entropy_sites(tokens, code);
    let mut sites: Vec<RawSite> = clock;
    sites.extend(entropy);
    sites.sort_by_key(|s| s.ci);
    for site in sites {
        let l = tokens[code[site.ci]].line;
        if allows.is_suppressed(Rule::WallClock, l) {
            continue;
        }
        let name = &site.label;
        diagnostics.push(Diagnostic {
            path: meta.rel_path.clone(),
            line: l,
            rule: Rule::WallClock,
            witness: None,
            message: format!(
                "`{name}` reads wall-clock time or OS entropy, which makes runs \
                 unreproducible; only the bench crate may do this (or waive with \
                 `// lint: allow(wall-clock, reason=\"...\")`)"
            ),
        });
    }
}

/// Is `name` in the configured hot-path function set?
pub fn is_hot_fn(name: &str) -> bool {
    HOT_FN_EXACT.contains(&name)
        || HOT_FN_PREFIXES.iter().any(|p| name.starts_with(p))
        || HOT_FN_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// Scope-aware rule 5: allocation tokens inside hot-path fn bodies.
///
/// The matched patterns are the allocating constructors and methods that
/// appear in this codebase (`Vec::new`, `vec![]`, `format!`, `.clone()`,
/// `.to_vec()`, `.collect()`, ...). The heuristic is syntactic — a
/// `.clone()` of a `Copy` type matches too — which is the point of the
/// waiver escape hatch: a non-allocating match gets a one-line reasoned
/// waiver, and everything else is a real allocation the ratchet counts.
///
/// This standalone path uses the name globs ([`is_hot_fn`]) for hot-set
/// membership (fixture analysis has no call graph); the whole-workspace
/// pass in `lib.rs` consumes the same [`alloc_sites`] seeds through the
/// effect index and polices the *derived* hot set instead.
pub(crate) fn hot_path_alloc_rule(
    meta: &FileMeta,
    tokens: &[Token],
    code: &[usize],
    tree: &Tree,
    test_mask: &[bool],
    allows: &Allows,
    sites: &mut Vec<Diagnostic>,
) {
    if HOT_PATH_EXEMPT_CRATES.contains(&meta.crate_key.as_str()) || meta.is_test_file {
        return;
    }
    for site in alloc_sites(tokens, code) {
        let raw = code[site.ci];
        if test_mask[raw] {
            continue;
        }
        let Some(fi) = tree.innermost_fn_at(raw) else {
            continue;
        };
        let f = &tree.fns[fi];
        if f.is_test || !is_hot_fn(&f.name) {
            continue;
        }
        let line = tokens[raw].line;
        if allows.is_suppressed(Rule::HotPathAlloc, line) {
            continue;
        }
        sites.push(hot_path_alloc_diag(meta, line, &site.label, &f.name));
    }
}

/// The shared `hot-path-alloc` diagnostic shape, used by both the
/// standalone glob path above and the derived-hot-set consumer in
/// `lib.rs` so the two stay byte-identical.
pub(crate) fn hot_path_alloc_diag(
    meta: &FileMeta,
    line: u32,
    label: &str,
    fn_name: &str,
) -> Diagnostic {
    Diagnostic {
        path: meta.rel_path.clone(),
        line,
        rule: Rule::HotPathAlloc,
        witness: None,
        message: format!(
            "`{label}` allocates inside hot-path fn `{fn_name}`; reuse a scratch buffer \
             (Workspace / `_into` convention) or waive with \
             `// lint: allow(hot-path-alloc, reason=\"...\")`"
        ),
    }
}

/// Allocation sites, before crate/test/hot-set/waiver policy. The
/// matched patterns are the allocating constructors and methods that
/// appear in this codebase; the heuristic is syntactic (a `.clone()` of
/// a `Copy` type matches too), which is the point of the waiver escape
/// hatch. `ci` is the anchor the diagnostic reports at (the method name
/// for `.clone()`-style calls, so a directive above a chain covers it).
pub(crate) fn alloc_sites(tokens: &[Token], code: &[usize]) -> Vec<RawSite> {
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    // What allocates at code index `ci`, if anything: (display label,
    // code index the diagnostic anchors to).
    let alloc_at = |ci: usize| -> Option<(String, usize)> {
        match tok(ci) {
            // `Vec::new`, `Vec::with_capacity`, `Box::new`, `String::from`...
            Tok::Ident(ty) if matches!(ty.as_str(), "Vec" | "Box" | "String") => {
                if ci + 3 >= n || *tok(ci + 1) != Tok::Punct(':') || *tok(ci + 2) != Tok::Punct(':')
                {
                    return None;
                }
                let Tok::Ident(m) = tok(ci + 3) else {
                    return None;
                };
                let ctor = matches!(
                    (ty.as_str(), m.as_str()),
                    ("Vec" | "String", "new" | "with_capacity" | "from") | ("Box", "new")
                );
                ctor.then(|| (format!("{ty}::{m}"), ci))
            }
            // `vec![...]` / `format!(...)`.
            Tok::Ident(mac) if matches!(mac.as_str(), "vec" | "format") => {
                (ci + 1 < n && *tok(ci + 1) == Tok::Punct('!')).then(|| (format!("{mac}!"), ci))
            }
            // `.clone()`, `.to_vec()`, `.collect()` (with or without
            // turbofish), `.to_owned()`, `.to_string()`.
            Tok::Punct('.') => {
                let Some(Tok::Ident(m)) = (ci + 2 < n).then(|| tok(ci + 1)) else {
                    return None;
                };
                if !matches!(
                    m.as_str(),
                    "clone" | "to_vec" | "collect" | "to_owned" | "to_string"
                ) {
                    return None;
                }
                let called = *tok(ci + 2) == Tok::Punct('(')
                    || (*tok(ci + 2) == Tok::Punct(':')
                        && ci + 3 < n
                        && *tok(ci + 3) == Tok::Punct(':'));
                called.then(|| (format!(".{m}()"), ci + 1))
            }
            _ => None,
        }
    };
    let mut out = Vec::new();
    for ci in 0..n {
        if let Some((label, at)) = alloc_at(ci) {
            out.push(RawSite { ci: at, label });
        }
    }
    out
}

/// Rule 6: float reductions whose summation order is not structurally
/// fixed. `.sum::<f32/f64>()`, `.product()` and `fold` with a float
/// accumulator re-associate float addition if the iterator order ever
/// changes (rayon-style splitting, hash iteration, a refactor to chunked
/// traversal), which breaks the bitwise 1/2/4-thread equality that
/// `tests/determinism.rs` pins. Reductions belong in the allowlisted
/// fixed-order kernel modules; anywhere else the site needs a waiver.
/// Unordered-float-reduction sites, before crate/allowlist/test/waiver
/// policy. The label is the reduction shape (``​`.sum::<f32>()`​`` etc.);
/// the `ci` anchors at the method name, matching the old report anchor.
pub(crate) fn float_reduction_sites(tokens: &[Token], code: &[usize]) -> Vec<RawSite> {
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    // The `f32`/`f64` of a turbofish `::<f32>` at `ci` (the first `:`).
    let turbofish_float = |ci: usize| -> Option<&str> {
        if ci + 3 >= n
            || *tok(ci) != Tok::Punct(':')
            || *tok(ci + 1) != Tok::Punct(':')
            || *tok(ci + 2) != Tok::Punct('<')
        {
            return None;
        }
        match tok(ci + 3) {
            Tok::Ident(ty) if ty == "f32" || ty == "f64" => Some(ty),
            _ => None,
        }
    };
    let mut out = Vec::new();
    let mut report = |ci: usize, what: String| {
        out.push(RawSite { ci, label: what });
    };
    for ci in 0..n {
        if *tok(ci) != Tok::Punct('.') || ci + 1 >= n {
            continue;
        }
        let Tok::Ident(m) = tok(ci + 1) else {
            continue;
        };
        match m.as_str() {
            // `.sum::<f32>()` / `.sum::<f64>()`; untyped `.sum()` is
            // overwhelmingly an integer reduction here and inference-typed
            // float sums are beyond a token heuristic.
            "sum" => {
                if let Some(ty) = turbofish_float(ci + 2) {
                    report(ci + 1, format!("`.sum::<{ty}>()`"));
                }
            }
            // `.product()` fires untyped too (every use in this codebase
            // multiplies probabilities); an integer turbofish exempts it.
            "product" => {
                if let Some(ty) = turbofish_float(ci + 2) {
                    report(ci + 1, format!("`.product::<{ty}>()`"));
                } else if ci + 2 < n && *tok(ci + 2) == Tok::Punct('(') {
                    report(ci + 1, "`.product()`".to_string());
                }
            }
            // `.fold(` with a float accumulator: a float literal or an
            // `f32::`/`f64::` constant in the first argument.
            "fold" => {
                if ci + 2 >= n || *tok(ci + 2) != Tok::Punct('(') {
                    continue;
                }
                let mut depth = 0usize;
                let mut float_acc = false;
                for j in ci + 2..n.min(ci + 18) {
                    match tok(j) {
                        Tok::Punct('(') => depth += 1,
                        Tok::Punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Tok::Punct(',') if depth == 1 => break,
                        Tok::Num { float: true } => float_acc = true,
                        Tok::Ident(ty) if ty == "f32" || ty == "f64" => float_acc = true,
                        _ => {}
                    }
                }
                if float_acc {
                    report(ci + 1, "`fold` with a float accumulator".to_string());
                }
            }
            _ => {}
        }
    }
    out
}

fn float_reduction_rule(
    meta: &FileMeta,
    tokens: &[Token],
    code: &[usize],
    test_mask: &[bool],
    allows: &Allows,
    diagnostics: &mut Vec<Diagnostic>,
) {
    if FLOAT_REDUCTION_EXEMPT_CRATES.contains(&meta.crate_key.as_str())
        || FLOAT_REDUCTION_ALLOWLIST.contains(&meta.rel_path.as_str())
        || meta.rel_path.starts_with("examples/")
        || meta.is_test_file
    {
        return;
    }
    for site in float_reduction_sites(tokens, code) {
        let raw = code[site.ci];
        if test_mask[raw] {
            continue;
        }
        let line = tokens[raw].line;
        if allows.is_suppressed(Rule::FloatReductionOrder, line) {
            continue;
        }
        let what = &site.label;
        diagnostics.push(Diagnostic {
            path: meta.rel_path.clone(),
            line,
            rule: Rule::FloatReductionOrder,
            witness: None,
            message: format!(
                "{what}: unordered float reduction can change summation order and break \
                 bitwise determinism across thread counts; move it into a fixed-order \
                 kernel module ({}) or waive with \
                 `// lint: allow(float-reduction-order, reason=\"...\")`",
                FLOAT_REDUCTION_ALLOWLIST.join(", ")
            ),
        });
    }
}

/// Macros that unconditionally abort the thread when they fire.
/// `debug_assert*` is deliberately absent: it compiles out of release
/// serving builds, so it cannot panic in production.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// One potential panic site, attributed to its enclosing fn. Whether it
/// *counts* is decided at workspace level: only sites in fns reachable
/// from a `[panic-free-roots]` entry are policed, and slice-index sites
/// only for roots flagged `+index` (see DESIGN.md §12).
pub(crate) struct PanicSite {
    /// Index into the file's `Tree::fns`.
    pub fn_idx: usize,
    pub line: u32,
    /// Display label: `assert_eq!`, `.unwrap()`, `slice index`.
    pub label: String,
    /// An unchecked `x[i]` / `x[a..b]` — counted only for `+index` roots.
    pub is_index: bool,
}

/// Scans one file for panic sites: the panic-macro family, `.unwrap()` /
/// `.expect(`, and unchecked slice indexing (`ident[`, `)[`, `][`). Test
/// code is skipped; waivers are applied by the caller (workspace level),
/// because a site is only "used" if some root actually reaches it.
pub(crate) fn panic_sites(
    tokens: &[Token],
    code: &[usize],
    tree: &Tree,
    test_mask: &[bool],
) -> Vec<PanicSite> {
    use crate::callgraph::NON_CALL_KEYWORDS;
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    let mut out = Vec::new();
    let push = |ci: usize, label: String, is_index: bool, out: &mut Vec<PanicSite>| {
        let raw = code[ci];
        if test_mask[raw] {
            return;
        }
        let Some(fn_idx) = tree.innermost_fn_at(raw) else {
            return; // const exprs, attribute args: not on any call path
        };
        if tree.fns[fn_idx].is_test {
            return;
        }
        out.push(PanicSite {
            fn_idx,
            line: tokens[raw].line,
            label,
            is_index,
        });
    };
    for ci in 0..n {
        match tok(ci) {
            Tok::Ident(name)
                if PANIC_MACROS.contains(&name.as_str())
                    && ci + 1 < n
                    && *tok(ci + 1) == Tok::Punct('!') =>
            {
                push(ci, format!("{name}!"), false, &mut out);
            }
            Tok::Punct('.')
                if ci + 2 < n
                    && matches!(tok(ci + 1), Tok::Ident(m) if m == "unwrap" || m == "expect")
                    && *tok(ci + 2) == Tok::Punct('(') =>
            {
                let Tok::Ident(m) = tok(ci + 1) else {
                    continue;
                };
                push(ci + 1, format!(".{m}()"), false, &mut out);
            }
            Tok::Punct('[') if ci > 0 => {
                // An index expression's `[` directly follows the indexed
                // value: an identifier (`buf[i]`), a call (`row()[i]`), a
                // `?` propagation (`take(n)?[0]`) or another index
                // (`m[r][c]`). Types, slice patterns, attributes and
                // literals are preceded by other punctuation.
                let indexes = match tok(ci - 1) {
                    Tok::Ident(name) => !NON_CALL_KEYWORDS.contains(&name.as_str()),
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('?') => true,
                    _ => false,
                };
                if indexes {
                    push(ci, "slice index".to_string(), true, &mut out);
                }
            }
            _ => {}
        }
    }
    out
}

fn count_unwrap_expect(tokens: &[Token], code: &[usize], test_mask: &[bool]) -> usize {
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    let mut count = 0;
    for ci in 0..n.saturating_sub(2) {
        if *tok(ci) == Tok::Punct('.')
            && matches!(tok(ci + 1), Tok::Ident(m) if m == "unwrap" || m == "expect")
            && *tok(ci + 2) == Tok::Punct('(')
            && !test_mask[code[ci + 1]]
        {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn analyze(rel_path: &str, crate_key: &str, src: &str) -> FileAnalysis {
        let meta = FileMeta {
            rel_path: rel_path.to_string(),
            crate_key: crate_key.to_string(),
            is_test_file: false,
        };
        let tokens = lex(src).expect("fixture must lex");
        analyze_file(&meta, &tokens)
    }

    fn rules_of(a: &FileAnalysis) -> Vec<Rule> {
        a.diagnostics.iter().map(|d| d.rule).collect()
    }

    // ---- rule 1: hash-iter ------------------------------------------------

    #[test]
    fn hash_iteration_fires_on_typed_binding() {
        let src = r#"
            use std::collections::HashMap;
            pub fn f(ids: &[u32]) -> f64 {
                let mut counts: HashMap<u32, u64> = HashMap::new();
                let mut acc = 0.0;
                for (k, v) in counts.iter() { acc += *v as f64; }
                acc
            }
        "#;
        let a = analyze("crates/metrics/src/fixture.rs", "metrics", src);
        assert_eq!(rules_of(&a), vec![Rule::HashIter]);
    }

    #[test]
    fn hash_iteration_fires_on_for_in_and_values_and_params() {
        let src = r#"
            fn g(counts: &HashMap<u64, u32>) -> u64 {
                let mut s = 0;
                for (_, v) in counts { s += *v as u64; }
                s += counts.values().map(|v| *v as u64).sum::<u64>();
                s
            }
        "#;
        let a = analyze("crates/data/src/fixture.rs", "data", src);
        assert_eq!(rules_of(&a), vec![Rule::HashIter, Rule::HashIter]);
    }

    #[test]
    fn hash_iteration_allows_lookup_only_use() {
        let src = r#"
            fn h(map: &HashMap<String, u32>, weights: &[(String, u32)]) -> u32 {
                let total: u32 = weights.iter().map(|(_, w)| w).sum();
                *map.get("x").unwrap_or(&total)
            }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn hash_iteration_respects_reasoned_allow() {
        let src = r#"
            fn f(counts: &HashMap<u32, u32>) -> Vec<u32> {
                // lint: allow(hash-iter, reason="collected then sorted")
                let mut kept: Vec<u32> = counts.iter().map(|(&k, _)| k).collect();
                kept.sort_unstable();
                kept
            }
        "#;
        let a = analyze("crates/data/src/fixture.rs", "data", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn hash_iteration_allow_without_reason_is_an_error() {
        let src = r#"
            fn f(counts: &HashMap<u32, u32>) -> usize {
                // lint: allow(hash-iter)
                counts.keys().count()
            }
        "#;
        let a = analyze("crates/data/src/fixture.rs", "data", src);
        // The directive error plus the (unsuppressed) iteration itself.
        assert!(
            rules_of(&a).contains(&Rule::Directive),
            "{:?}",
            a.diagnostics
        );
        assert!(
            rules_of(&a).contains(&Rule::HashIter),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn hash_iteration_exempts_cfg_test_modules_and_other_crates() {
        let src = r#"
            pub fn real() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                use std::collections::HashSet;
                #[test]
                fn t() {
                    let mut seen: HashSet<u32> = HashSet::new();
                    for v in seen.iter() { let _ = v; }
                }
            }
        "#;
        let a = analyze("crates/models/src/fixture.rs", "models", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        // Same source in the bench crate is out of scope entirely.
        let b = analyze("crates/bench/src/fixture.rs", "bench", src);
        assert!(b.diagnostics.is_empty());
    }

    #[test]
    fn bindings_are_scoped_to_their_fn() {
        // `counts` is a HashMap in `a` but a slice in `b`; only `a`'s use
        // sites may be flagged, and `a` has none.
        let src = r#"
            fn a(counts: &HashMap<u32, u32>) -> u32 { *counts.get(&1).unwrap_or(&0) }
            fn b(counts: &[u32]) -> u32 { counts.iter().sum() }
        "#;
        let a = analyze("crates/data/src/fixture.rs", "data", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn struct_field_hashmaps_are_tracked_across_methods() {
        let src = r#"
            pub struct S { grads: HashMap<u32, f32> }
            impl S {
                fn sum(&self) -> f32 { self.grads.values().sum() }
            }
        "#;
        let a = analyze("crates/nn/src/fixture.rs", "nn", src);
        assert_eq!(rules_of(&a), vec![Rule::HashIter]);
    }

    #[test]
    fn vec_of_hashmaps_is_not_flagged() {
        let src = r#"
            fn f() {
                let mut lanes: Vec<HashMap<u32, u32>> = Vec::new();
                for lane in lanes.iter_mut() { lane.insert(1, 2); }
            }
        "#;
        let a = analyze("crates/nn/src/fixture.rs", "nn", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    // ---- rule 2: unsafe-confinement --------------------------------------

    #[test]
    fn unsafe_outside_allowlist_is_an_error() {
        let src = r#"
            pub fn f(p: *mut f32) {
                // SAFETY: even a comment does not make this module audited.
                unsafe { *p = 1.0; }
            }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", src);
        assert_eq!(rules_of(&a), vec![Rule::UnsafeConfinement]);
    }

    #[test]
    fn unsafe_in_allowlisted_module_needs_safety_comment() {
        let bad = r#"
            pub fn f(p: *mut f32) {
                unsafe { *p = 1.0; }
            }
        "#;
        let a = analyze("crates/tensor/src/pool.rs", "tensor", bad);
        assert_eq!(rules_of(&a), vec![Rule::UnsafeConfinement]);

        let good = r#"
            pub fn f(p: *mut f32) {
                // SAFETY: p is valid and exclusively owned by this call.
                unsafe { *p = 1.0; }
            }
        "#;
        let b = analyze("crates/tensor/src/pool.rs", "tensor", good);
        assert!(b.diagnostics.is_empty(), "{:?}", b.diagnostics);
    }

    #[test]
    fn unsafe_inside_string_or_comment_is_ignored() {
        let src = r#"
            const DOC: &str = "never write unsafe code here";
            // this comment mentions unsafe too
            pub fn f() {}
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn doc_safety_section_counts_for_unsafe_fn_decl() {
        let src = r#"
            /// Does a raw write.
            ///
            /// # Safety
            /// Caller must own the pointee exclusively.
            #[inline]
            pub unsafe fn poke(p: *mut f32) {
                // SAFETY: contract forwarded to the caller.
                unsafe { *p = 0.0 }
            }
        "#;
        let a = analyze("crates/tensor/src/pool.rs", "tensor", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    // ---- rule 3: wall-clock ----------------------------------------------

    #[test]
    fn wall_clock_fires_outside_bench_and_not_inside() {
        // The import is not a read; the call is.
        let src = r#"
            use std::time::Instant;
            pub fn f() -> u64 { let t = Instant::now(); t.elapsed().as_nanos() as u64 }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", src);
        assert_eq!(rules_of(&a), vec![Rule::WallClock], "{:?}", a.diagnostics);
        assert_eq!(a.diagnostics[0].line, 3, "{:?}", a.diagnostics);
        let b = analyze("crates/bench/src/fixture.rs", "bench", src);
        assert!(b.diagnostics.is_empty());
        // A renaming import fires: reads through `T` name no clock.
        let renamed = r#"
            use std::time::{Duration, Instant as T};
            pub fn f() -> u64 { T::now().elapsed().as_nanos() as u64 }
        "#;
        let c = analyze("crates/core/src/fixture.rs", "core", renamed);
        assert_eq!(rules_of(&c), vec![Rule::WallClock], "{:?}", c.diagnostics);
        assert_eq!(c.diagnostics[0].line, 2, "{:?}", c.diagnostics);
    }

    #[test]
    fn entropy_sources_fire_and_allow_waives() {
        let src = r#"
            pub fn seed() -> u64 {
                // lint: allow(wall-clock, reason="one-shot diagnostic id, not used in training")
                let rng = rand::rngs::OsRng;
                0
            }
        "#;
        let a = analyze("crates/data/src/fixture.rs", "data", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        let src_no_allow = "pub fn seed() { let _ = rand::thread_rng(); }";
        let b = analyze("crates/data/src/fixture.rs", "data", src_no_allow);
        assert_eq!(rules_of(&b), vec![Rule::WallClock]);
    }

    // ---- rule 4: panic-ratchet -------------------------------------------

    #[test]
    fn unwrap_expect_counted_outside_tests_only() {
        let src = r#"
            pub fn f(x: Option<u32>) -> u32 {
                let a = x.unwrap();
                let b = x.expect("present");
                let c = x.unwrap_or(0); // not counted
                a + b + c
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); }
            }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", src);
        assert_eq!(a.unwrap_expect_count, 2);
    }

    #[test]
    fn whole_test_files_count_zero() {
        let meta = FileMeta {
            rel_path: "tests/fixture.rs".to_string(),
            crate_key: "root".to_string(),
            is_test_file: true,
        };
        let tokens = lex("fn f(x: Option<u32>) -> u32 { x.unwrap() }").expect("lex");
        let a = analyze_file(&meta, &tokens);
        assert_eq!(a.unwrap_expect_count, 0);
    }

    // ---- rule 6: hot-path-alloc -------------------------------------------

    #[test]
    fn hot_path_alloc_fires_inside_hot_fns_only() {
        let src = r#"
            pub fn step(&mut self) {
                let scratch: Vec<f32> = Vec::new();
                let copy = self.adam.clone();
            }
            pub fn backward_grads(&mut self) {
                let rows = vec![0u32; 4];
            }
            pub fn gather_into(&self, out: &mut [f32]) {
                let msg = format!("x");
            }
            pub fn setup(&mut self) {
                // Not a hot-path name: allocation here is fine.
                let table: Vec<f32> = Vec::new();
                let s = String::from("boot");
            }
        "#;
        let a = analyze("crates/nn/src/fixture.rs", "nn", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert_eq!(a.hot_path_alloc.len(), 4, "{:?}", a.hot_path_alloc);
        assert!(a
            .hot_path_alloc
            .iter()
            .all(|d| d.rule == Rule::HotPathAlloc));
    }

    #[test]
    fn hot_path_alloc_respects_waiver_and_exemptions() {
        let waived = r#"
            pub fn step(&mut self) {
                // lint: allow(hot-path-alloc, reason="one-time lazy init")
                let scratch: Vec<f32> = Vec::new();
            }
        "#;
        let a = analyze("crates/nn/src/fixture.rs", "nn", waived);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
        assert!(a.hot_path_alloc.is_empty(), "{:?}", a.hot_path_alloc);

        // The bench crate is exempt wholesale.
        let src = "pub fn step(&mut self) { let v: Vec<f32> = Vec::new(); }";
        let a = analyze("crates/bench/src/fixture.rs", "bench", src);
        assert!(a.hot_path_alloc.is_empty(), "{:?}", a.hot_path_alloc);

        // Test code inside a non-exempt crate is exempt too.
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn step() { let v: Vec<f32> = Vec::new(); }
            }
        "#;
        let a = analyze("crates/nn/src/fixture.rs", "nn", src);
        assert!(a.hot_path_alloc.is_empty(), "{:?}", a.hot_path_alloc);
    }

    #[test]
    fn unused_hot_path_alloc_waiver_is_flagged() {
        let src = r#"
            pub fn step(&mut self) {
                // lint: allow(hot-path-alloc, reason="stale: nothing allocates below")
                let x = 1 + 1;
            }
        "#;
        let a = analyze("crates/nn/src/fixture.rs", "nn", src);
        assert_eq!(
            rules_of(&a),
            vec![Rule::UnusedWaiver],
            "{:?}",
            a.diagnostics
        );
    }

    // ---- rule 7: float-reduction-order ------------------------------------

    #[test]
    fn float_reduction_fires_on_float_sum_product_fold() {
        let src = r#"
            pub fn stats(xs: &[f32]) -> f32 {
                let s = xs.iter().sum::<f32>();
                let p = xs.iter().map(|&x| x as f64).product::<f64>();
                let f = xs.iter().fold(0.0f32, |acc, &x| acc + x);
                s + p as f32 + f
            }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", src);
        assert_eq!(
            rules_of(&a),
            vec![
                Rule::FloatReductionOrder,
                Rule::FloatReductionOrder,
                Rule::FloatReductionOrder
            ],
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn float_reduction_skips_integer_and_untyped_sums() {
        let src = r#"
            pub fn counts(xs: &[u32]) -> u64 {
                let a = xs.iter().map(|&x| x as u64).sum::<u64>();
                let b: u64 = xs.iter().map(|&x| x as u64).sum();
                let c = xs.iter().map(|&x| x as u64).product::<u64>();
                let d = xs.iter().fold(0u64, |acc, &x| acc + x as u64);
                a + b + c + d
            }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn float_reduction_respects_allowlist_waiver_and_test_code() {
        // Fixed-iteration-order modules are allowlisted wholesale.
        let src = "pub fn dot(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }";
        let a = analyze("crates/tensor/src/ops.rs", "tensor", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);

        // A reasoned waiver suppresses the diagnostic elsewhere.
        let waived = r#"
            pub fn total(xs: &[f32]) -> f32 {
                // lint: allow(float-reduction-order, reason="slice order is structural")
                xs.iter().sum::<f32>()
            }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", waived);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);

        // Test code may reduce floats freely.
        let test_src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let s: f32 = [1.0f32].iter().sum::<f32>(); let _ = s; }
            }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", test_src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    // ---- stacked directives & the effect-seed collectors ------------------

    #[test]
    fn stacked_directives_cover_the_shared_site() {
        // One line trips two rules (hash-iter on `counts.iter()`,
        // float-reduction on `.sum::<f32>()`); two waivers stacked on
        // consecutive comment lines must both reach it, and both count as
        // used (no unused-waiver diagnostics).
        let src = r#"
            fn f(counts: &HashMap<u32, f32>) -> f32 {
                // lint: allow(hash-iter, reason="sum is order-independent up to float assoc, which the next waiver covers")
                // lint: allow(float-reduction-order, reason="validated against the sorted form in tests")
                counts.values().map(|v| *v).sum::<f32>()
            }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", src);
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn directive_coverage_does_not_stack_past_code_lines() {
        // A waiver two lines above the site, with a *code* line between,
        // must NOT cover it — only directive lines stack through.
        let src = r#"
            fn f(counts: &HashMap<u32, f32>) -> f32 {
                // lint: allow(float-reduction-order, reason="covers only the next line")
                let n = counts.len() as f32;
                counts.values().map(|v| *v).sum::<f32>() / n
            }
        "#;
        let a = analyze("crates/core/src/fixture.rs", "core", src);
        // The float reduction fires (uncovered), and the waiver is unused.
        assert!(
            rules_of(&a).contains(&Rule::FloatReductionOrder),
            "{:?}",
            a.diagnostics
        );
        assert!(
            rules_of(&a).contains(&Rule::UnusedWaiver),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn blocking_sites_collect_locks_waits_recvs_sleeps_and_joins() {
        let src = r#"
            pub fn f(rx: &Receiver<u32>, h: std::thread::JoinHandle<()>) {
                let m = std::sync::Mutex::new(0u32);
                let _g = m.lock();
                let _v = rx.recv();
                let _t = rx.recv_timeout(d);
                std::thread::sleep(d);
                let _ = h.join();
            }
        "#;
        let tokens = lex(src).expect("lex");
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.tok, Tok::Comment(_)))
            .map(|(i, _)| i)
            .collect();
        let labels: Vec<String> = blocking_sites(&tokens, &code)
            .into_iter()
            .map(|s| s.label)
            .collect();
        assert_eq!(
            labels,
            vec![
                ".lock()",
                ".recv()",
                ".recv_timeout()",
                "sleep()",
                ".join()"
            ],
            "{labels:?}"
        );
    }

    #[test]
    fn join_with_arguments_is_not_a_blocking_site() {
        // `slice.join(", ")` is string joining, not thread joining; only
        // the zero-arg form counts.
        let src = r#"pub fn f(parts: &[String]) -> String { parts.join(", ") }"#;
        let tokens = lex(src).expect("lex");
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.tok, Tok::Comment(_)))
            .map(|(i, _)| i)
            .collect();
        assert!(blocking_sites(&tokens, &code).is_empty());
    }

    #[test]
    fn clock_and_entropy_sites_are_split_by_kind() {
        let src = r#"
            pub fn f() -> u64 {
                let t = std::time::Instant::now();
                let mut rng = rand::thread_rng();
                0
            }
        "#;
        let tokens = lex(src).expect("lex");
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.tok, Tok::Comment(_)))
            .map(|(i, _)| i)
            .collect();
        let (clock, entropy) = clock_entropy_sites(&tokens, &code);
        assert_eq!(clock.len(), 1, "{:?}", clock.len());
        assert_eq!(clock[0].label, "Instant");
        assert_eq!(entropy.len(), 1);
        assert_eq!(entropy[0].label, "thread_rng");
    }
}
