//! optinter-lint: a dependency-free workspace linter that statically
//! enforces the invariants the determinism harness (PR 1) proves
//! dynamically. See DESIGN.md §7 for the invariant model, §10 for the
//! scope-aware rules and §12 for the call-graph layer and the
//! `lint: allow` waiver convention.
//!
//! Entry points:
//! - [`check_workspace`] — lint every source file, build the workspace
//!   call graph, derive the hot-path fn set from `[hot-path-roots]`,
//!   police the call cones of every declared root, compare every ratchet
//!   ([`baseline::RATCHETS`]) to the committed baseline, return a
//!   [`Report`].
//! - [`analyze_sources`] — the same pipeline over in-memory sources, so
//!   fixture tests can exercise cross-file resolution and injection
//!   scenarios without touching the filesystem.
//! - [`update_baseline`] — rewrite `lint-baseline.toml` from the current
//!   counts (used when a PR legitimately removes panic sites).

pub mod baseline;
pub mod callgraph;
pub mod effects;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod rules;

use baseline::{Baseline, Unit, RATCHETS};
use callgraph::{CallGraph, FileSource};
use effects::{Effect, EffectIndex, EffectSet, EffectSite, SeedSource};
use rules::{Diagnostic, FileCtx, FileMeta, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Everything one lint run found.
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Observed counts (ratchet input): ceiling table of each of
    /// [`RATCHETS`] → crate or root key → count.
    pub counts: BTreeMap<&'static str, BTreeMap<String, usize>>,
    /// Rendered effect summary per declared cone root
    /// (`determinism:<key>` / `no-block:<key>` → `{ReadsClock, ...}`).
    pub root_effects: BTreeMap<String, String>,
    /// Qualified paths of the derived hot-path fn set (roots ∪ name-glob
    /// convention seeds, closed over calls).
    pub hot_fns: BTreeSet<String>,
    /// Qualified paths of just the glob-matched seeds — the pre-PR-7 hot
    /// set, kept so the superset golden test can diff the two.
    pub glob_hot_fns: BTreeSet<String>,
    pub files_checked: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Walks the workspace and returns every `.rs` file the lint applies to,
/// sorted, as (absolute path, meta). Shim crates (`shims/`) stand in for
/// external dependencies and are out of scope, as is `target/`.
fn workspace_sources(root: &Path) -> Result<Vec<(PathBuf, FileMeta)>, String> {
    let mut out = Vec::new();
    // crates/<name>/{src,benches,tests,examples}
    let crates_dir = root.join("crates");
    for krate in read_dir_sorted(&crates_dir)? {
        if !krate.is_dir() {
            continue;
        }
        let crate_key = krate
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        for (sub, is_test) in [
            ("src", false),
            ("benches", false),
            ("tests", true),
            ("examples", false),
        ] {
            collect_rs(root, &krate.join(sub), &crate_key, is_test, &mut out)?;
        }
    }
    // Root crate: src/, tests/, examples/, benches/.
    for (sub, is_test) in [
        ("src", false),
        ("tests", true),
        ("examples", false),
        ("benches", false),
    ] {
        collect_rs(root, &root.join(sub), "root", is_test, &mut out)?;
    }
    out.sort_by(|a, b| a.1.rel_path.cmp(&b.1.rel_path));
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries = Vec::new();
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(_) => return Ok(entries), // absent directory: nothing to lint
    };
    for e in rd {
        let e = e.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        entries.push(e.path());
    }
    entries.sort();
    Ok(entries)
}

fn collect_rs(
    root: &Path,
    dir: &Path,
    crate_key: &str,
    is_test_dir: bool,
    out: &mut Vec<(PathBuf, FileMeta)>,
) -> Result<(), String> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            collect_rs(root, &entry, crate_key, is_test_dir, out)?;
            continue;
        }
        if entry.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let rel_path = entry
            .strip_prefix(root)
            .map_err(|e| format!("path {}: {e}", entry.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        out.push((
            entry.clone(),
            FileMeta {
                rel_path,
                crate_key: crate_key.to_string(),
                is_test_file: is_test_dir,
            },
        ));
    }
    Ok(())
}

/// Lints one file's source text standalone (glob-scoped hot set, no
/// cross-file rules). Exposed so fixture tests can drive the per-file
/// pipeline (lex → rules) without touching the filesystem.
pub fn check_source(meta: &FileMeta, src: &str) -> rules::FileAnalysis {
    match lexer::lex(src) {
        Ok(tokens) => rules::analyze_file(meta, &tokens),
        Err(e) => rules::FileAnalysis {
            diagnostics: vec![Diagnostic {
                path: meta.rel_path.clone(),
                line: e.line,
                rule: Rule::Lex,
                witness: None,
                message: format!("lexer error: {}", e.message),
            }],
            unwrap_expect_count: 0,
            unsafe_count: 0,
            hot_path_alloc: Vec::new(),
        },
    }
}

/// Reads every workspace source into memory as (meta, text) pairs — the
/// input shape [`analyze_sources`] takes, so tests can mutate a file's
/// text (inject an unwrap, delete a waiver) and re-lint.
pub fn load_workspace_sources(root: &Path) -> Result<Vec<(FileMeta, String)>, String> {
    let mut out = Vec::new();
    for (path, meta) in workspace_sources(root)? {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        out.push((meta, src));
    }
    Ok(out)
}

/// The full workspace pipeline over in-memory sources:
///
/// 1. per-file prelude rules (hash-iter, unsafe, wall-clock,
///    float-reduction, unwrap tally), lex/parse diagnostics;
/// 2. the workspace call graph over every parsed non-test file, then the
///    interprocedural effect index over it (token-level seeds per fn,
///    fixed-point summaries over all call edges — DESIGN.md §15);
/// 3. every declared root, one [`RATCHETS`] row at a time: the
///    `[hot-path-roots]` seed the hot set, and each per-root ratchet
///    polices its roots' call cones with witness call chains — panic
///    sites from `[panic-free-roots]`; clock, entropy, hash iteration and
///    float reductions outside the pinned-order allowlist from
///    `[determinism-roots]`; blocking calls from `[no-block-roots]`;
/// 4. the derived hot-path set — everything reachable from the
///    `[hot-path-roots]` entries *and* the name-glob convention seeds
///    (`step*`, `*_into`, ...; a fn whose name promises zero-alloc is
///    policed even if no root currently reaches it) — policed against the
///    `Allocates` effect seeds;
/// 5. unused-waiver per file (after every rule that can mark waivers);
/// 6. every ratchet against `baseline_text` (`None` reports the baseline
///    as missing, like a deleted `lint-baseline.toml`).
pub fn analyze_sources(
    files: &[(FileMeta, String)],
    baseline_text: Option<&str>,
) -> Result<Report, String> {
    let baseline = baseline_text.map(Baseline::parse).transpose()?;
    let files_checked = files.len();

    let mut ctxs: Vec<FileCtx> = Vec::with_capacity(files.len());
    for (meta, src) in files {
        match lexer::lex(src) {
            Ok(tokens) => ctxs.push(rules::analyze_prelude(meta, tokens)),
            Err(e) => {
                let mut ctx = rules::analyze_prelude(meta, Vec::new());
                ctx.diagnostics.push(Diagnostic {
                    path: meta.rel_path.clone(),
                    line: e.line,
                    rule: Rule::Lex,
                    witness: None,
                    message: format!("lexer error: {}", e.message),
                });
                ctxs.push(ctx);
            }
        }
    }

    // The call graph spans every parsed, non-test-file source.
    let graph = {
        let sources: Vec<FileSource<'_>> = ctxs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.meta.is_test_file)
            .filter_map(|(i, c)| {
                c.tree.as_ref().map(|tree| FileSource {
                    file: i,
                    meta: &c.meta,
                    tokens: &c.tokens,
                    code: &c.code,
                    tree,
                })
            })
            .collect();
        CallGraph::build(&sources)
    };

    // The effect index spans the same files as the graph: per-fn seeds
    // from the shared token-level collectors, summaries at the fixed
    // point over every call edge (conservative fallbacks included).
    let effect_idx = {
        let sources: Vec<SeedSource<'_>> = ctxs
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.meta.is_test_file)
            .filter_map(|(i, c)| {
                c.tree.as_ref().map(|tree| SeedSource {
                    file: i,
                    tokens: &c.tokens,
                    code: &c.code,
                    tree,
                    test_mask: &c.test_mask,
                })
            })
            .collect();
        EffectIndex::build(&graph, &sources)
    };

    let mut config_diags: Vec<Diagnostic> = Vec::new();
    let mut config = |message: String| {
        config_diags.push(Diagnostic {
            path: "lint-baseline.toml".to_string(),
            line: 0,
            rule: Rule::Config,
            witness: None,
            message,
        });
    };

    // Observed counts per ratchet, and the sites listed for a key that
    // breaks its ceiling, both keyed by ceiling table.
    let mut counts: BTreeMap<&'static str, BTreeMap<String, usize>> = RATCHETS
        .iter()
        .map(|r| (r.table, BTreeMap::new()))
        .collect();
    let mut site_lists: BTreeMap<&'static str, BTreeMap<String, Vec<Diagnostic>>> = BTreeMap::new();
    let mut root_effects: BTreeMap<String, String> = BTreeMap::new();

    // Derived hot set: declared roots ∪ glob convention seeds, closed over
    // the call graph. The union keeps the derived set a superset of the
    // old glob set by construction (the golden test pins this).
    let mut seeds: Vec<usize> = Vec::new();
    let mut glob_hot_fns = BTreeSet::new();
    for (ni, node) in graph.nodes.iter().enumerate() {
        if node.has_body && !node.is_test && rules::is_hot_fn(&node.name) {
            seeds.push(ni);
            glob_hot_fns.insert(node.qual.clone());
        }
    }

    // Every declared root, one ratchet at a time. A per-crate ratchet's
    // roots seed the hot set; a per-root ratchet polices each root's call
    // cone. The cone's summary is the fixed point over every edge, so a
    // summary that misses the cone's effects proves the BFS would find
    // nothing (waived sites still seed, so in-cone waivers stay used);
    // otherwise a BFS with parent tracking gives every counted site a
    // witness chain. A site reachable from several roots counts against
    // each; a waiver covers it for all.
    if let Some(b) = &baseline {
        for ratchet in &RATCHETS {
            let Some(roots_table) = ratchet.roots else {
                continue;
            };
            let noun = roots_table.trim_end_matches("-roots");
            let declared = b.roots.get(roots_table);
            for (key, spec) in declared.into_iter().flatten() {
                let roots = graph.resolve_pattern(&spec.pattern);
                if roots.is_empty() {
                    config(format!(
                        "[{roots_table}] `{key}` = \"{}\" matches no workspace fn; fix the \
                         path or delete the root",
                        spec.pattern
                    ));
                    continue;
                }
                let Unit::Root(cone) = &ratchet.unit else {
                    seeds.extend(roots);
                    continue;
                };
                let summary = effect_idx.summary_of(&roots);
                if cone.reports_effects {
                    root_effects.insert(format!("{noun}:{key}"), summary.render());
                }
                let mut diags = Vec::new();
                if summary.intersects(EffectSet::of(cone.effects)) {
                    let r = reach::reachable(&graph, &roots);
                    for (ni, node) in graph.nodes.iter().enumerate() {
                        if !r.reached[ni] {
                            continue;
                        }
                        let ctx = &ctxs[node.file];
                        for site in &effect_idx.seeds[ni] {
                            if !cone.effects.contains(&site.effect)
                                || (site.is_index && !spec.index_strict)
                                || shielded(ratchet.rule, ctx, site)
                            {
                                continue;
                            }
                            let effect = if cone.reports_effects {
                                format!(" ({})", site.effect.name())
                            } else {
                                String::new()
                            };
                            diags.push(Diagnostic {
                                path: ctx.meta.rel_path.clone(),
                                line: site.line,
                                rule: ratchet.rule,
                                witness: Some(r.full_chain_to(&graph, ni)),
                                message: format!(
                                    "`{}`{effect} is reachable from {noun} root `{key}` ({}); {}",
                                    site.label,
                                    r.chain_to(&graph, ni),
                                    cone.advice
                                ),
                            });
                        }
                    }
                }
                let table = ratchet.table;
                counts
                    .entry(table)
                    .or_default()
                    .insert(key.clone(), diags.len());
                site_lists
                    .entry(table)
                    .or_default()
                    .insert(key.clone(), diags);
            }
            if let (Unit::Root(_), Some(ceilings)) = (&ratchet.unit, b.ceilings.get(ratchet.table))
            {
                for key in ceilings.keys() {
                    if !declared.is_some_and(|d| d.contains_key(key)) {
                        config(format!(
                            "[{}] ceiling `{key}` has no matching [{roots_table}] entry",
                            ratchet.table
                        ));
                    }
                }
            }
        }
    }

    let hot_reach = reach::reachable_precise(&graph, &seeds);
    let mut hot_fns = BTreeSet::new();

    // Derived hot-path allocations: the `Allocates` effect seeds of every
    // fn in the hot set, policed with the same crate exemptions and
    // waivers as the standalone glob path in `rules.rs`.
    let mut hot_alloc_sites: Vec<Vec<Diagnostic>> = vec![Vec::new(); ctxs.len()];
    for (ni, node) in graph.nodes.iter().enumerate() {
        if !hot_reach.reached[ni] || !node.has_body || node.is_test {
            continue;
        }
        hot_fns.insert(node.qual.clone());
        let ctx = &ctxs[node.file];
        if rules::HOT_PATH_EXEMPT_CRATES.contains(&ctx.meta.crate_key.as_str())
            || ctx.meta.is_test_file
        {
            continue;
        }
        for site in &effect_idx.seeds[ni] {
            if site.effect != Effect::Allocates
                || ctx.allows.is_suppressed(Rule::HotPathAlloc, site.line)
            {
                continue;
            }
            hot_alloc_sites[node.file].push(rules::hot_path_alloc_diag(
                &ctx.meta,
                site.line,
                &site.label,
                &node.name,
            ));
        }
    }
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        let mut sites = std::mem::take(&mut hot_alloc_sites[i]);
        sites.sort_by_key(|d| d.line);
        ctx.hot_path_alloc = sites;
    }

    // Per-file finish (unused-waiver) and the per-crate tallies.
    let mut diagnostics = Vec::new();
    for ctx in ctxs {
        let crate_key = ctx.meta.crate_key.clone();
        let analysis = ctx.finish();
        diagnostics.extend(analysis.diagnostics);
        for (table, count) in [
            ("unwrap-expect", analysis.unwrap_expect_count),
            ("unsafe-sites", analysis.unsafe_count),
            ("hot-path-alloc", analysis.hot_path_alloc.len()),
        ] {
            *counts
                .entry(table)
                .or_default()
                .entry(crate_key.clone())
                .or_insert(0) += count;
        }
        site_lists
            .entry("hot-path-alloc")
            .or_default()
            .entry(crate_key)
            .or_default()
            .extend(analysis.hot_path_alloc);
    }
    diagnostics.append(&mut config_diags);

    // Ratchets: observed counts vs the committed baseline. A breach is
    // followed by the sites of the keys it names, so the violation is
    // actionable; within the ceiling the sites are tolerated debt, not
    // diagnostics. Breaches report in table order, except that
    // `hot-path-alloc` (row 2) reports before `unsafe-sites` (row 1), the
    // order reports have always had; the golden report test pins it.
    match &baseline {
        Some(b) => {
            let mut order: Vec<_> = RATCHETS.iter().collect();
            order.swap(1, 2);
            for ratchet in order {
                let breaches = b.check(ratchet, &counts[ratchet.table]);
                for (_, message) in &breaches {
                    diagnostics.push(Diagnostic {
                        path: "lint-baseline.toml".to_string(),
                        line: 0,
                        rule: ratchet.rule,
                        witness: None,
                        message: message.clone(),
                    });
                }
                let listed = site_lists.entry(ratchet.table).or_default();
                for (key, _) in breaches {
                    diagnostics.extend(listed.remove(key).unwrap_or_default());
                }
            }
        }
        None => diagnostics.push(Diagnostic {
            path: "lint-baseline.toml".to_string(),
            line: 0,
            rule: Rule::PanicRatchet,
            witness: None,
            message: "missing lint-baseline.toml; run `cargo run -p optinter-lint -- \
                      update-baseline` and commit the result"
                .to_string(),
        }),
    }

    Ok(Report {
        diagnostics,
        counts,
        root_effects,
        hot_fns,
        glob_hot_fns,
        files_checked,
    })
}

/// Whether a waiver shields a reached cone site. The cone's own waiver
/// always does. Clock and entropy reads yield to nothing else: a per-file
/// wall-clock waiver claims "not on the training path", which is exactly
/// what the cone verifies. Hash iteration and float reductions also yield
/// to their per-file rule's waiver or allowlist, which claim the *effect*
/// is neutralized (sorted, fixed-order kernel).
fn shielded(cone_rule: Rule, ctx: &FileCtx, site: &EffectSite) -> bool {
    let waived = |rule| ctx.allows.is_suppressed(rule, site.line);
    let by_file_rule = match site.effect {
        Effect::HashIter => waived(Rule::HashIter),
        Effect::FloatOrderSensitive => {
            rules::FLOAT_REDUCTION_ALLOWLIST.contains(&ctx.meta.rel_path.as_str())
                || waived(Rule::FloatReductionOrder)
        }
        _ => false,
    };
    by_file_rule || waived(cone_rule)
}

/// Runs every rule over every workspace source file and compares all
/// ratchet tallies to `lint-baseline.toml`.
pub fn check_workspace(root: &Path) -> Result<Report, String> {
    let files = load_workspace_sources(root)?;
    let baseline_text = std::fs::read_to_string(root.join("lint-baseline.toml")).ok();
    analyze_sources(&files, baseline_text.as_deref())
}

/// Rewrites `lint-baseline.toml` from the current per-crate and per-root
/// counts, preserving the declared root tables. Refuses to *raise* any
/// existing ceiling unless `allow_raise` is set — the ratchet only
/// tightens automatically; loosening is a deliberate, flagged act.
pub fn update_baseline(root: &Path, allow_raise: bool) -> Result<String, String> {
    let report = check_workspace(root)?;
    let baseline_path = root.join("lint-baseline.toml");
    let old = std::fs::read_to_string(&baseline_path)
        .ok()
        .map(|t| Baseline::parse(&t))
        .transpose()?
        .unwrap_or_default();
    let mut raised = Vec::new();
    for ratchet in &RATCHETS {
        let ceilings = old.ceilings.get(ratchet.table);
        for (key, &count) in &report.counts[ratchet.table] {
            if let Some(&ceiling) = ceilings.and_then(|c| c.get(key)) {
                if count > ceiling {
                    raised.push(format!("{}.{key}: {ceiling} -> {count}", ratchet.table));
                }
            }
        }
    }
    if !raised.is_empty() && !allow_raise {
        return Err(format!(
            "update-baseline would RAISE ceilings ({}); the ratchet only tightens. \
             Remove the new sites, re-run with --allow-raise, or edit \
             lint-baseline.toml by hand with justification in the PR.",
            raised.join(", ")
        ));
    }
    let new = Baseline {
        ceilings: report.counts,
        roots: old.roots,
    };
    std::fs::write(&baseline_path, new.to_toml())
        .map_err(|e| format!("writing {}: {e}", baseline_path.display()))?;
    Ok(baseline_path.display().to_string())
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` appears.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(format!(
                "no workspace root (Cargo.toml + crates/) found above {}",
                start.display()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_source_reports_lex_errors_instead_of_panicking() {
        let meta = FileMeta {
            rel_path: "crates/core/src/broken.rs".to_string(),
            crate_key: "core".to_string(),
            is_test_file: false,
        };
        let a = check_source(&meta, "fn f() { let s = \"unterminated; }");
        assert_eq!(a.diagnostics.len(), 1);
        assert_eq!(a.diagnostics[0].rule, Rule::Lex);
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        // The linter's own acceptance test: the repo must lint clean. This
        // is the same check `tests/lint.rs` and CI run; keeping a copy here
        // means `cargo test -p optinter-lint` alone proves the invariants.
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let report = check_workspace(&root).expect("lint run");
        assert!(report.files_checked > 20, "walker found too few files");
        let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
        assert!(
            report.is_clean(),
            "lint violations:\n{}",
            rendered.join("\n")
        );
    }

    // ---- update-baseline raise refusal ------------------------------------

    /// Builds a throwaway one-crate workspace under the system tmp dir.
    fn scratch_workspace(tag: &str, lib_rs: &str, baseline: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("optinter-lint-ub-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/alpha/src")).expect("mkdir");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write");
        std::fs::write(root.join("crates/alpha/src/lib.rs"), lib_rs).expect("write");
        std::fs::write(root.join("lint-baseline.toml"), baseline).expect("write");
        root
    }

    #[test]
    fn update_baseline_refuses_raises_without_flag() {
        let root = scratch_workspace(
            "refuse",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            "[unwrap-expect]\nalpha = 0\n",
        );
        let err = update_baseline(&root, false).expect_err("must refuse to raise");
        assert!(err.contains("RAISE"), "{err}");
        assert!(err.contains("unwrap-expect.alpha: 0 -> 1"), "{err}");
        assert!(err.contains("--allow-raise"), "{err}");
        // The baseline file is untouched.
        let text = std::fs::read_to_string(root.join("lint-baseline.toml")).expect("read");
        assert!(text.contains("alpha = 0"), "{text}");
    }

    #[test]
    fn update_baseline_refuses_unsafe_site_raise_without_flag() {
        let root = scratch_workspace(
            "unsafe-refuse",
            "pub fn f(p: *const u32) -> u32 { unsafe { *p } }\n",
            "[unwrap-expect]\nalpha = 0\n\n[unsafe-sites]\nalpha = 0\n",
        );
        let err = update_baseline(&root, false).expect_err("must refuse to raise");
        assert!(err.contains("RAISE"), "{err}");
        assert!(err.contains("unsafe-sites.alpha: 0 -> 1"), "{err}");
        let text = std::fs::read_to_string(root.join("lint-baseline.toml")).expect("read");
        assert!(text.contains("alpha = 0"), "{text}");
    }

    #[test]
    fn update_baseline_allow_raise_rewrites() {
        let root = scratch_workspace(
            "allow",
            "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            "[unwrap-expect]\nalpha = 0\n",
        );
        update_baseline(&root, true).expect("allow-raise path");
        let text = std::fs::read_to_string(root.join("lint-baseline.toml")).expect("read");
        assert!(text.contains("alpha = 1"), "{text}");
    }

    #[test]
    fn update_baseline_tightens_without_flag_and_keeps_roots() {
        let root = scratch_workspace(
            "tighten",
            "pub fn f(x: u32) -> u32 { x }\n",
            "[unwrap-expect]\nalpha = 2\n\n[hot-path-roots]\nentry = \"alpha::f\"\n",
        );
        update_baseline(&root, false).expect("tightening needs no flag");
        let text = std::fs::read_to_string(root.join("lint-baseline.toml")).expect("read");
        assert!(text.contains("alpha = 0"), "{text}");
        // The declared roots survive the rewrite.
        assert!(text.contains("entry = \"alpha::f\""), "{text}");
    }
}
