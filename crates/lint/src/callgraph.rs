//! Workspace call graph over the brace-tree parser (DESIGN.md §12).
//!
//! The per-file rules answer "which fn is this token in"; the reachability
//! rules (derived-hot-path, panic-free) additionally need "which fns can
//! this fn reach". This module indexes every `fn` item across the
//! workspace and resolves call sites to candidate callees with a
//! *conservative-for-reachability* stance: when a call cannot be resolved
//! precisely, it resolves to **every** same-named candidate (so the
//! reachable set over-approximates and the rules stay sound against their
//! failure mode), and only calls whose qualifier is provably external
//! (`Vec::new`, `u32::from_le_bytes`, ...) produce no edge.
//!
//! Edges come in two tiers: [`CallGraph::edges`] holds everything
//! including the name-fallbacks (what panic-free traverses), and
//! [`CallGraph::precise`] only the pinned resolutions (what the
//! derived-hot-path perf closure traverses) — see the field docs.
//!
//! Resolution rules, in order:
//! - `self.m(...)` — methods named `m` on the enclosing `impl` type; for a
//!   trait impl the trait's own `m` (default methods) is included; if the
//!   type has no `m` at all, fall back to every workspace method named `m`.
//! - `Type::m(...)` / `Self::m(...)` — methods of that indexed type, plus
//!   free fns named `m` in modules whose last segment is `Type` (paths like
//!   `channel::bounded`). An unindexed qualifier is external: no edge.
//! - `self.field.m(...)` — methods named `m` of the field's declared type,
//!   read from the enclosing type's `struct` item (the last plain segment
//!   of the field's type: `pending: PendingGrads` and `fact: Fact<'a>`
//!   resolve, `Option<T>`, `[T; N]` and generic parameters do not); when
//!   that type has no `m`, the `recv.m(...)` fallback below.
//! - `recv.m(...)` — every workspace method named `m` (the receiver's type
//!   is beyond a token-level analysis).
//! - bare `f(...)` — free fns named `f` in the caller's module if any exist
//!   (shadowing an import with a local item is a compile error in Rust, so
//!   same-module-first is exact); otherwise every workspace free fn named
//!   `f`; otherwise external.
//!
//! Known unsoundness (documented, accepted): `#[derive]`-generated bodies
//! and `<T as Trait>::m` UFCS calls are invisible at token level, and
//! calls through function pointers/closures passed as values resolve only
//! at the point where the closure's body text lives (which *is* scanned,
//! inside its defining fn). The dynamic harnesses (counting allocator,
//! fuzzed decode) backstop these gaps.

use crate::lexer::{Tok, Token};
use crate::parser::{body_open, Tree};
use crate::rules::{test_mask_for, FileMeta};
use std::collections::{BTreeMap, BTreeSet};

/// One analyzed file, borrowed from the workspace pipeline.
pub struct FileSource<'a> {
    /// Caller-chosen id, echoed in [`FnNode::file`].
    pub file: usize,
    pub meta: &'a FileMeta,
    pub tokens: &'a [Token],
    /// Comment-free token indices (see `rules::analyze_prelude`).
    pub code: &'a [usize],
    pub tree: &'a Tree,
}

/// One indexed `fn` item.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// The [`FileSource::file`] id of the defining file.
    pub file: usize,
    /// Index into that file's `Tree::fns`.
    pub fn_idx: usize,
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if the fn is a method.
    pub self_type: Option<String>,
    /// For `impl Trait for Type` methods, the trait's name.
    pub impl_trait: Option<String>,
    /// Module path derived from the file path (`data::channel`).
    pub module: String,
    /// Fully qualified display path: `module::[Type::]name`.
    pub qual: String,
    pub is_test: bool,
    pub has_body: bool,
}

/// The workspace call graph: nodes, adjacency, and resolution indexes.
#[derive(Default)]
pub struct CallGraph {
    pub nodes: Vec<FnNode>,
    /// `edges[n]` = candidate callees of node `n`, deduplicated. Includes
    /// the conservative name-fallback edges — the sound over-approximation
    /// the panic-free rule traverses.
    pub edges: Vec<Vec<usize>>,
    /// `precise[n]` ⊆ `edges[n]`: only edges whose resolution pinned the
    /// callee (own-impl `self.m()`, `Type::m()` on an indexed type,
    /// `self.field.m()` on a field whose declared type has `m`, same-module
    /// bare calls). The derived-hot-path rule traverses these —
    /// it is a perf ratchet backstopped by the counting allocator, and
    /// name-fallback edges would make every `.map()`/`.push()` collision
    /// "hot" (DESIGN.md §12).
    pub precise: Vec<Vec<usize>>,
    node_of: BTreeMap<(usize, usize), usize>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
    methods_by_type: BTreeMap<(String, String), Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    free_by_module: BTreeMap<(String, String), Vec<usize>>,
    /// Module-path last segment -> full module paths (for `mod::f()` calls).
    modules_by_last_seg: BTreeMap<String, Vec<String>>,
    type_names: BTreeSet<String>,
    /// `(struct, field)` -> the last plain segment of the field's declared
    /// type, one entry per same-named struct in the workspace.
    field_types: BTreeMap<(String, String), BTreeSet<String>>,
}

/// Identifiers that look like calls (`if (x)`) or definitions (`fn f(`)
/// but are not, plus identifiers that cannot precede a real slice index.
pub(crate) const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "in",
    "as", "move", "ref", "mut", "fn", "where", "impl", "dyn", "unsafe", "use", "pub", "struct",
    "enum", "trait", "mod", "const", "static", "type", "crate", "super",
];

/// Derives a module path from a workspace-relative file path:
/// `crates/data/src/channel.rs` -> `data::channel`, `src/main.rs` ->
/// `root`, `crates/nn/src/mlp.rs` -> `nn::mlp`. A trailing `lib`/`main`/
/// `mod` segment names the enclosing module and is dropped.
pub fn module_path(rel_path: &str, crate_key: &str) -> String {
    let p = rel_path.strip_suffix(".rs").unwrap_or(rel_path);
    let parts: Vec<&str> = p.split('/').collect();
    let (krate, rest): (&str, &[&str]) = if parts.first() == Some(&"crates") && parts.len() >= 3 {
        (parts[1], &parts[2..])
    } else {
        (crate_key, &parts[..])
    };
    let rest = if rest.first() == Some(&"src") {
        &rest[1..]
    } else {
        rest
    };
    let mut segs: Vec<&str> = vec![krate];
    for (i, s) in rest.iter().enumerate() {
        let is_last = i + 1 == rest.len();
        if is_last && matches!(*s, "lib" | "main" | "mod") {
            continue;
        }
        segs.push(s);
    }
    segs.join("::")
}

#[derive(Debug, Clone, PartialEq)]
enum CallKind {
    SelfMethod,
    /// `self.field.m(...)`, carrying the field's name.
    FieldMethod(String),
    Method,
    Qualified(String),
    Bare,
}

impl CallGraph {
    /// The node for `(file, fn_idx)`, if that fn was indexed.
    pub fn node_at(&self, file: usize, fn_idx: usize) -> Option<usize> {
        self.node_of.get(&(file, fn_idx)).copied()
    }

    /// Nodes whose qualified path ends with `pattern` at a `::` boundary
    /// (`scorer::FrozenScorer::score_into` matches
    /// `serve::scorer::FrozenScorer::score_into`). Test fns and bodiless
    /// declarations never match — a root must be real code.
    pub fn resolve_pattern(&self, pattern: &str) -> Vec<usize> {
        let suffix = format!("::{pattern}");
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.has_body && !n.is_test)
            .filter(|(_, n)| n.qual == pattern || n.qual.ends_with(&suffix))
            .map(|(i, _)| i)
            .collect()
    }

    /// Builds the graph: indexes every fn, then resolves every call site.
    pub fn build(files: &[FileSource<'_>]) -> CallGraph {
        let mut g = CallGraph::default();
        for f in files {
            g.index_file(f);
        }
        for n in &g.nodes {
            if n.is_test || !n.has_body {
                continue;
            }
            g.modules_by_last_seg
                .entry(last_seg(&n.module).to_string())
                .or_default()
                .push(n.module.clone());
        }
        for mods in g.modules_by_last_seg.values_mut() {
            mods.sort();
            mods.dedup();
        }
        g.edges = vec![Vec::new(); g.nodes.len()];
        g.precise = vec![Vec::new(); g.nodes.len()];
        for f in files {
            g.extract_calls(f);
        }
        g
    }

    fn index_file(&mut self, f: &FileSource<'_>) {
        let module = module_path(&f.meta.rel_path, &f.meta.crate_key);
        let containers = container_blocks(f.tokens, f.code, f.tree);
        for (ty, field, field_ty) in struct_fields(f.tokens, f.code, f.tree) {
            self.field_types
                .entry((ty, field))
                .or_default()
                .insert(field_ty);
        }
        // A fn is test code when it carries a test attribute itself or sits
        // inside a test item, such as a helper in a `#[cfg(test)] mod`.
        let in_test_item = test_mask_for(f.tokens, f.code, f.meta.is_test_file);
        for (fn_idx, item) in f.tree.fns.iter().enumerate() {
            let is_test = item.is_test || in_test_item[item.fn_tok];
            let (self_type, impl_trait) = enclosing_container(f.tree, item.fn_tok, &containers)
                .map(|(t, tr)| (Some(t), tr))
                .unwrap_or((None, None));
            let qual = match &self_type {
                Some(t) => format!("{module}::{t}::{}", item.name),
                None => format!("{module}::{}", item.name),
            };
            let id = self.nodes.len();
            self.node_of.insert((f.file, fn_idx), id);
            let node = FnNode {
                file: f.file,
                fn_idx,
                name: item.name.clone(),
                self_type: self_type.clone(),
                impl_trait,
                module: module.clone(),
                qual,
                is_test,
                has_body: item.body.is_some(),
            };
            // Test fns are indexed (so every (file, fn_idx) has a node) but
            // never resolve as call targets.
            if !is_test {
                match &self_type {
                    Some(t) => {
                        self.type_names.insert(t.clone());
                        self.methods_by_name
                            .entry(item.name.clone())
                            .or_default()
                            .push(id);
                        self.methods_by_type
                            .entry((t.clone(), item.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    None => {
                        self.free_by_name
                            .entry(item.name.clone())
                            .or_default()
                            .push(id);
                        self.free_by_module
                            .entry((module.clone(), item.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
            }
            self.nodes.push(node);
        }
    }

    fn extract_calls(&mut self, f: &FileSource<'_>) {
        let n = f.code.len();
        let tok = |ci: usize| &f.tokens[f.code[ci]].tok;
        for ci in 0..n {
            let Tok::Ident(name) = tok(ci) else { continue };
            if ci + 1 >= n || *tok(ci + 1) != Tok::Punct('(') {
                continue;
            }
            if NON_CALL_KEYWORDS.contains(&name.as_str()) {
                continue;
            }
            let kind = if ci > 0 && *tok(ci - 1) == Tok::Punct('.') {
                let is_self = |k: usize| *tok(k) == Tok::Ident("self".to_string());
                if ci >= 2 && is_self(ci - 2) {
                    CallKind::SelfMethod
                } else if ci >= 4 && *tok(ci - 3) == Tok::Punct('.') && is_self(ci - 4) {
                    match tok(ci - 2) {
                        Tok::Ident(field) => CallKind::FieldMethod(field.clone()),
                        _ => CallKind::Method,
                    }
                } else {
                    CallKind::Method
                }
            } else if ci >= 2 && *tok(ci - 1) == Tok::Punct(':') && *tok(ci - 2) == Tok::Punct(':')
            {
                match path_qualifier(f.tokens, f.code, ci) {
                    Some(q) => CallKind::Qualified(q),
                    None => continue, // `<T as Trait>::m(...)`: unresolvable, external
                }
            } else if ci > 0 && matches!(tok(ci - 1), Tok::Ident(k) if k == "fn") {
                continue; // a definition, not a call
            } else {
                CallKind::Bare
            };
            let raw = f.code[ci];
            let Some(fn_idx) = f.tree.innermost_fn_at(raw) else {
                continue; // attribute args, const expressions: not in a body
            };
            let Some(caller) = self.node_at(f.file, fn_idx) else {
                continue;
            };
            if self.nodes[caller].is_test {
                continue;
            }
            let (targets, is_precise) = self.resolve(caller, &kind, name);
            let targets = self.expand_trait_decls(targets, name);
            for t in targets {
                if t == caller {
                    continue;
                }
                if !self.edges[caller].contains(&t) {
                    self.edges[caller].push(t);
                }
                if is_precise && !self.precise[caller].contains(&t) {
                    self.precise[caller].push(t);
                }
            }
        }
    }

    /// Resolves one call to candidate callees. The `bool` says whether the
    /// resolution pinned the callee (a *precise* edge) or fell back to
    /// name matching (conservative: right for reachability soundness,
    /// excluded from the hot-path perf closure).
    fn resolve(&self, caller: usize, kind: &CallKind, name: &str) -> (Vec<usize>, bool) {
        let c = &self.nodes[caller];
        match kind {
            CallKind::SelfMethod => self.resolve_self(c, name),
            CallKind::FieldMethod(field) => {
                let declared = c
                    .self_type
                    .as_ref()
                    .and_then(|t| self.field_types.get(&(t.clone(), field.clone())));
                let out: Vec<usize> = declared
                    .into_iter()
                    .flatten()
                    .filter_map(|ty| self.methods_by_type.get(&(ty.clone(), name.to_string())))
                    .flatten()
                    .copied()
                    .collect();
                if out.is_empty() {
                    self.resolve(caller, &CallKind::Method, name)
                } else {
                    (out, true)
                }
            }
            // `recv.m(...)`: the receiver's type is beyond a token-level
            // analysis — every same-named method, never precise.
            CallKind::Method => (
                self.methods_by_name.get(name).cloned().unwrap_or_default(),
                false,
            ),
            CallKind::Qualified(q) if q == "Self" => self.resolve_self(c, name),
            CallKind::Qualified(q) => {
                let mut out = self
                    .methods_by_type
                    .get(&(q.clone(), name.to_string()))
                    .cloned()
                    .unwrap_or_default();
                // `channel::bounded(...)`: the qualifier names a module.
                let q_mod = q.strip_prefix("optinter_").unwrap_or(q);
                if let Some(mods) = self.modules_by_last_seg.get(q_mod) {
                    for m in mods {
                        if let Some(fs) = self.free_by_module.get(&(m.clone(), name.to_string())) {
                            out.extend(fs.iter().copied());
                        }
                    }
                }
                (out, true)
            }
            CallKind::Bare => {
                if let Some(fs) = self
                    .free_by_module
                    .get(&(c.module.clone(), name.to_string()))
                {
                    // A local item shadowing an import is a compile error
                    // in Rust, so same-module-first is exact.
                    return (fs.clone(), true);
                }
                (
                    self.free_by_name.get(name).cloned().unwrap_or_default(),
                    false,
                )
            }
        }
    }

    fn resolve_self(&self, c: &FnNode, name: &str) -> (Vec<usize>, bool) {
        let mut out = Vec::new();
        if let Some(t) = &c.self_type {
            if let Some(ms) = self.methods_by_type.get(&(t.clone(), name.to_string())) {
                out.extend(ms.iter().copied());
            }
        }
        if out.is_empty() {
            if let Some(tr) = &c.impl_trait {
                if let Some(ms) = self.methods_by_type.get(&(tr.clone(), name.to_string())) {
                    out.extend(ms.iter().copied());
                }
            }
        }
        if !out.is_empty() {
            return (out, true);
        }
        // Conservative fallback: the method comes from a trait the
        // analysis did not connect — assume any same-named method.
        (
            self.methods_by_name.get(name).cloned().unwrap_or_default(),
            false,
        )
    }

    /// When a call resolves to a bodiless trait-method *declaration*
    /// (`fn required(&self);` inside `trait T`), the code that actually
    /// runs is some implementor's — so extend the target set with every
    /// method named `name` whose `impl ... for` trait matches. The
    /// declaration node stays in the set (harmless: no body, no edges).
    fn expand_trait_decls(&self, mut targets: Vec<usize>, name: &str) -> Vec<usize> {
        let traits: Vec<String> = targets
            .iter()
            .filter(|&&t| !self.nodes[t].has_body)
            .filter_map(|&t| self.nodes[t].self_type.clone())
            .collect();
        if traits.is_empty() {
            return targets;
        }
        for &m in self.methods_by_name.get(name).into_iter().flatten() {
            if self.nodes[m]
                .impl_trait
                .as_ref()
                .is_some_and(|tr| traits.contains(tr))
                && !targets.contains(&m)
            {
                targets.push(m);
            }
        }
        targets
    }
}

fn last_seg(module: &str) -> &str {
    module.rsplit("::").next().unwrap_or(module)
}

/// The last path segment before a `::name(` call: the `Pool` of
/// `tensor::Pool::new(...)`, skipping turbofish/generic args
/// (`Vec::<u32>::new`, `Submitter<'_, C>::submit`). `None` when the
/// segment is not a plain identifier (`<T as Trait>::m`).
fn path_qualifier(tokens: &[Token], code: &[usize], name_ci: usize) -> Option<String> {
    let tok = |ci: usize| &tokens[code[ci]].tok;
    // name_ci - 1 and name_ci - 2 are the `::`.
    let mut k = name_ci.checked_sub(3)?;
    if *tok(k) == Tok::Punct('>') {
        // Skip a generic-argument list back to its `<`.
        let mut depth = 0i32;
        loop {
            match tok(k) {
                Tok::Punct('>') => depth += 1,
                Tok::Punct('<') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k = k.checked_sub(1)?;
        }
        k = k.checked_sub(1)?;
        // `::<` turbofish: the segment ident sits before another `::`.
        if *tok(k) == Tok::Punct(':') {
            k = k.checked_sub(2)?;
        }
    }
    match tok(k) {
        Tok::Ident(q) => Some(q.clone()),
        _ => None,
    }
}

/// Every named field of every braced `struct` item in a file, as
/// `(struct, field, type)` with the type's last plain segment (see
/// [`read_type_path`]); fields whose type has none (`[f32; 3]`, `(u8,
/// u8)`) are left out. A field starts at an identifier followed by a lone
/// `:` at the struct body's top level, right after the opening brace, a
/// `,`, a visibility (`pub`, `pub(crate)`) or an attribute's `]`.
fn struct_fields(tokens: &[Token], code: &[usize], tree: &Tree) -> Vec<(String, String, String)> {
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    let mut out = Vec::new();
    for ci in 0..n.saturating_sub(1) {
        if *tok(ci) != Tok::Ident("struct".to_string()) {
            continue;
        }
        let Tok::Ident(name) = tok(ci + 1) else {
            continue;
        };
        let Some(block) = body_block(tokens, code, tree, ci + 2) else {
            continue; // unit and tuple structs
        };
        let (open, close) = (tree.blocks[block].open, tree.blocks[block].close);
        let mut depth = 0usize;
        let mut k = code.partition_point(|&raw| raw <= open);
        while k + 1 < n && code[k] < close {
            match tok(k) {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') => depth = depth.saturating_sub(1),
                Tok::Ident(field) if depth == 0 => {
                    let lone_colon = *tok(k + 1) == Tok::Punct(':')
                        && (k + 2 >= n || *tok(k + 2) != Tok::Punct(':'));
                    let starts = match tok(k - 1) {
                        Tok::Punct('{' | ',' | ')' | ']') => true,
                        Tok::Ident(v) => v == "pub",
                        _ => false,
                    };
                    if lone_colon && starts {
                        if let (Some(ty), _) = read_type_path(tokens, code, k + 2) {
                            out.push((name.clone(), field.clone(), ty));
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
    }
    out
}

/// Maps block ids to the `impl`/`trait` container that owns them:
/// `(type_or_trait_name, Some(trait_name) for trait impls)`.
fn container_blocks(
    tokens: &[Token],
    code: &[usize],
    tree: &Tree,
) -> BTreeMap<usize, (String, Option<String>)> {
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    let mut out = BTreeMap::new();
    for ci in 0..n {
        let Tok::Ident(kw) = tok(ci) else { continue };
        match kw.as_str() {
            "impl" => {
                let mut j = ci + 1;
                // Skip the generic parameter list of `impl<T: Bound> ...`.
                if j < n && *tok(j) == Tok::Punct('<') {
                    let mut depth = 0i32;
                    while j < n {
                        match tok(j) {
                            Tok::Punct('<') => depth += 1,
                            Tok::Punct('>') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                }
                let (first, after) = read_type_path(tokens, code, j);
                let (ty, tr, open_from) = match after {
                    Some(k) if matches!(tok(k), Tok::Ident(s) if s == "for") => {
                        let (second, after2) = read_type_path(tokens, code, k + 1);
                        match second {
                            Some(ty) => (Some(ty), first, after2.unwrap_or(k + 1)),
                            None => (None, None, k + 1),
                        }
                    }
                    Some(k) => (first, None, k),
                    None => (None, None, j),
                };
                let Some(ty) = ty else { continue };
                if let Some(block) = body_block(tokens, code, tree, open_from) {
                    out.insert(block, (ty, tr));
                }
            }
            "trait" => {
                let Some(Tok::Ident(name)) = (ci + 1 < n).then(|| tok(ci + 1)) else {
                    continue;
                };
                let name = name.clone();
                if let Some(block) = body_block(tokens, code, tree, ci + 2) {
                    out.insert(block, (name, None));
                }
            }
            _ => {}
        }
    }
    out
}

/// Reads a type path starting at code index `j` (`&'a mut a::B<T>`),
/// returning its last plain-identifier segment and the code index of the
/// first token after the path (a `for`, `where`, `{`, ...).
fn read_type_path(
    tokens: &[Token],
    code: &[usize],
    mut j: usize,
) -> (Option<String>, Option<usize>) {
    let n = code.len();
    let tok = |ci: usize| &tokens[code[ci]].tok;
    let mut last: Option<String> = None;
    while j < n {
        match tok(j) {
            Tok::Punct('&') | Tok::Punct('!') | Tok::Lifetime(_) => j += 1,
            Tok::Ident(s) if s == "mut" || s == "dyn" => j += 1,
            Tok::Ident(s) if s == "for" || s == "where" => return (last, Some(j)),
            Tok::Ident(s) => {
                last = Some(s.clone());
                j += 1;
            }
            Tok::Punct(':') if j + 1 < n && *tok(j + 1) == Tok::Punct(':') => j += 2,
            Tok::Punct('<') => {
                let mut depth = 0i32;
                while j < n {
                    match tok(j) {
                        Tok::Punct('<') => depth += 1,
                        Tok::Punct('>') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
            _ => return (last, Some(j)),
        }
    }
    (last, None)
}

/// The body block of the item whose header runs from code index `from`
/// (see [`body_open`]).
fn body_block(tokens: &[Token], code: &[usize], tree: &Tree, from: usize) -> Option<usize> {
    let tok = |ci: usize| &tokens[code[ci]].tok;
    body_open(tok, from, code.len()).and_then(|j| tree.block_at_open(code[j]))
}

/// The `impl`/`trait` container of the innermost enclosing block of raw
/// token `i`, walking outwards through nested blocks.
fn enclosing_container(
    tree: &Tree,
    i: usize,
    containers: &BTreeMap<usize, (String, Option<String>)>,
) -> Option<(String, Option<String>)> {
    let mut block = tree
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.open < i && i < b.close)
        .max_by_key(|(_, b)| b.open)
        .map(|(id, _)| id);
    while let Some(id) = block {
        if let Some(c) = containers.get(&id) {
            return Some(c.clone());
        }
        block = tree.blocks[id].parent;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    type ParsedFile = (Vec<Token>, Vec<usize>, Tree);

    fn graph_of(files: &[(&str, &str, &str)]) -> (CallGraph, Vec<ParsedFile>) {
        let mut parsed = Vec::new();
        for (_, _, src) in files {
            let tokens = lex(src).expect("fixture must lex");
            let code: Vec<usize> = tokens
                .iter()
                .enumerate()
                .filter(|(_, t)| !matches!(t.tok, Tok::Comment(_)))
                .map(|(i, _)| i)
                .collect();
            let tree = Tree::parse(&tokens).expect("fixture must parse");
            parsed.push((tokens, code, tree));
        }
        let metas: Vec<FileMeta> = files
            .iter()
            .map(|(rel, key, _)| FileMeta {
                rel_path: rel.to_string(),
                crate_key: key.to_string(),
                is_test_file: false,
            })
            .collect();
        let sources: Vec<FileSource<'_>> = parsed
            .iter()
            .zip(metas.iter())
            .enumerate()
            .map(|(i, ((tokens, code, tree), meta))| FileSource {
                file: i,
                meta,
                tokens,
                code,
                tree,
            })
            .collect();
        let g = CallGraph::build(&sources);
        drop(sources);
        drop(metas);
        (g, parsed)
    }

    fn quals_called_by(g: &CallGraph, qual: &str) -> Vec<String> {
        let n = g
            .nodes
            .iter()
            .position(|n| n.qual == qual)
            .unwrap_or_else(|| panic!("no node {qual}"));
        let mut out: Vec<String> = g.edges[n]
            .iter()
            .map(|&t| g.nodes[t].qual.clone())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn module_paths_from_file_paths() {
        assert_eq!(
            module_path("crates/data/src/channel.rs", "data"),
            "data::channel"
        );
        assert_eq!(module_path("crates/data/src/lib.rs", "data"), "data");
        assert_eq!(module_path("src/main.rs", "root"), "root");
        assert_eq!(module_path("tests/lint.rs", "root"), "root::tests::lint");
        assert_eq!(
            module_path("crates/nn/src/layers/dense.rs", "nn"),
            "nn::layers::dense"
        );
    }

    #[test]
    fn self_calls_prefer_own_impl_over_shadowed_names() {
        let (g, _) = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "alpha",
            r#"
            pub struct A;
            pub struct B;
            impl A {
                pub fn m(&self) {}
                pub fn entry(&self) { self.m(); }
            }
            impl B {
                pub fn m(&self) {}
            }
            "#,
        )]);
        assert_eq!(quals_called_by(&g, "alpha::A::entry"), vec!["alpha::A::m"]);
    }

    #[test]
    fn unknown_receiver_falls_back_to_all_same_named_methods() {
        let (g, _) = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "alpha",
            r#"
            pub struct A;
            pub struct B;
            impl A { pub fn m(&self) {} }
            impl B { pub fn m(&self) {} }
            pub fn entry(x: &A) { x.m(); }
            "#,
        )]);
        assert_eq!(
            quals_called_by(&g, "alpha::entry"),
            vec!["alpha::A::m", "alpha::B::m"]
        );
    }

    #[test]
    fn field_receivers_resolve_through_the_declared_type() {
        let (g, _) = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "alpha",
            r#"
            pub struct A;
            pub struct B;
            impl A { pub fn m(&self) {} }
            impl B { pub fn m(&self) {} pub fn only_b(&self) {} }
            pub struct Holder<'a> {
                #[doc(hidden)]
                pub(crate) a: &'a A,
                pub maybe: Option<B>,
                pair: (A, B),
                b: crate::B,
            }
            impl Holder<'_> {
                pub fn typed(&self) { self.a.m(); self.b.m(); }
                pub fn wrapped(&self) { self.maybe.m(); }
                pub fn tuple(&self) { self.pair.m(); }
                pub fn missing(&self) { self.a.only_b(); }
            }
            "#,
        )]);
        let precise_of = |qual: &str| {
            let n = g.nodes.iter().position(|n| n.qual == qual).unwrap();
            let mut out: Vec<&str> = g.precise[n]
                .iter()
                .map(|&t| g.nodes[t].qual.as_str())
                .collect();
            out.sort();
            out
        };
        // A declared type pins the callee, on both tiers.
        let typed = vec!["alpha::A::m", "alpha::B::m"];
        assert_eq!(quals_called_by(&g, "alpha::Holder::typed"), typed);
        assert_eq!(precise_of("alpha::Holder::typed"), typed);
        // A wrapper, a tuple, or a type without the method: every
        // same-named method, and no precise edge.
        for (qual, by_name) in [
            ("alpha::Holder::wrapped", typed.clone()),
            ("alpha::Holder::tuple", typed.clone()),
            ("alpha::Holder::missing", vec!["alpha::B::only_b"]),
        ] {
            assert_eq!(quals_called_by(&g, qual), by_name, "{qual}");
            assert!(precise_of(qual).is_empty(), "{qual}");
        }
    }

    #[test]
    fn trait_impl_methods_and_defaults_resolve() {
        let (g, _) = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "alpha",
            r#"
            pub trait T {
                fn required(&self);
                fn with_default(&self) { self.required(); }
            }
            pub struct A;
            impl T for A {
                fn required(&self) { self.with_default(); }
            }
            "#,
        )]);
        // `self.with_default()` in `impl T for A`: A has no `with_default`,
        // so the trait's default method is found.
        assert_eq!(
            quals_called_by(&g, "alpha::A::required"),
            vec!["alpha::T::with_default"]
        );
        // The default body's `self.required()` conservatively reaches every
        // implementor.
        let called = quals_called_by(&g, "alpha::T::with_default");
        assert!(
            called.contains(&"alpha::A::required".to_string()),
            "{called:?}"
        );
    }

    #[test]
    fn cross_crate_qualified_and_bare_calls_resolve() {
        let (g, _) = graph_of(&[
            (
                "crates/alpha/src/lib.rs",
                "alpha",
                r#"
                pub fn entry() {
                    helper();
                    optinter_beta::util::remote();
                    util::remote();
                }
                fn helper() {}
                "#,
            ),
            ("crates/beta/src/util.rs", "beta", "pub fn remote() {}"),
        ]);
        assert_eq!(
            quals_called_by(&g, "alpha::entry"),
            vec!["alpha::helper", "beta::util::remote",]
        );
    }

    #[test]
    fn same_module_free_fn_shadows_workspace_wide() {
        let (g, _) = graph_of(&[
            (
                "crates/alpha/src/lib.rs",
                "alpha",
                "pub fn entry() { helper(); }\nfn helper() {}",
            ),
            ("crates/beta/src/lib.rs", "beta", "pub fn helper() {}"),
        ]);
        assert_eq!(quals_called_by(&g, "alpha::entry"), vec!["alpha::helper"]);
        // Without a local `helper`, the call goes workspace-wide.
        let (g2, _) = graph_of(&[
            (
                "crates/alpha/src/lib.rs",
                "alpha",
                "pub fn entry() { helper(); }",
            ),
            ("crates/beta/src/lib.rs", "beta", "pub fn helper() {}"),
        ]);
        assert_eq!(quals_called_by(&g2, "alpha::entry"), vec!["beta::helper"]);
    }

    #[test]
    fn external_qualifiers_produce_no_edges() {
        let (g, _) = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "alpha",
            r#"
            pub fn entry() {
                let v: Vec<u32> = Vec::new();
                let x = u32::from_le_bytes([0; 4]);
                let _ = (v, x);
            }
            pub fn new() {} // must NOT be reached by Vec::new
            "#,
        )]);
        assert_eq!(quals_called_by(&g, "alpha::entry"), Vec::<String>::new());
    }

    #[test]
    fn turbofish_and_generic_qualifiers_resolve() {
        let (g, _) = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "alpha",
            r#"
            pub struct Holder<T> { v: T }
            impl<T> Holder<T> {
                pub fn make() -> usize { 0 }
            }
            pub fn entry() {
                let _ = Holder::<u32>::make();
            }
            "#,
        )]);
        assert_eq!(
            quals_called_by(&g, "alpha::entry"),
            vec!["alpha::Holder::make"]
        );
    }

    #[test]
    fn test_fns_are_indexed_but_never_targets() {
        let (g, _) = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "alpha",
            r#"
            pub fn entry() { helper(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn helper() {}
            }
            "#,
        )]);
        assert_eq!(quals_called_by(&g, "alpha::entry"), Vec::<String>::new());
    }

    #[test]
    fn helpers_inside_test_modules_are_never_targets() {
        // Neither helper carries a test attribute of its own: the module's
        // `#[cfg(test)]` makes them test code, so the production call by
        // name reaches only production fns.
        let (g, _) = graph_of(&[(
            "crates/alpha/src/lib.rs",
            "alpha",
            r#"
            pub struct Buf;
            impl Buf { pub fn clear(&mut self) {} }
            pub fn entry(b: &mut Buf) { b.clear(); helper(); }
            #[cfg(test)]
            mod tests {
                struct Arena;
                impl Arena { fn clear(&mut self) {} }
                fn helper() {}
            }
            "#,
        )]);
        assert_eq!(
            quals_called_by(&g, "alpha::entry"),
            vec!["alpha::Buf::clear"]
        );
        assert!(g
            .nodes
            .iter()
            .filter(|n| n.name == "helper" || n.qual.ends_with("Arena::clear"))
            .all(|n| n.is_test));
    }

    #[test]
    fn pattern_resolution_matches_suffix_at_boundaries() {
        let (g, _) = graph_of(&[(
            "crates/alpha/src/scorer.rs",
            "alpha",
            r#"
            pub struct Scorer;
            pub struct Other;
            impl Scorer { pub fn score_into(&self) {} }
            impl Other { pub fn score_into(&self) {} }
            pub fn some_score_into() {}
            "#,
        )]);
        let hits = g.resolve_pattern("Scorer::score_into");
        assert_eq!(hits.len(), 1);
        assert_eq!(g.nodes[hits[0]].qual, "alpha::scorer::Scorer::score_into");
        // `score_into` alone matches both methods; boundary matching means
        // the free fn `some_score_into` is not a suffix hit.
        assert_eq!(g.resolve_pattern("score_into").len(), 2);
        assert!(g.resolve_pattern("e_into").is_empty());
    }
}
