//! Whole-workspace call-graph lint tests (DESIGN.md §12).
//!
//! These run the real analyzer over the real workspace sources, then
//! mutate the sources **in memory** to prove the rules actually bite:
//! an injected panic site reachable from a serve root must fail the
//! lint, and deleting a committed waiver must fail the lint. The golden
//! test pins the contract that the derived hot-path set is a superset
//! of the old per-file glob set, so growing the call graph can never
//! silently shrink hot-path coverage.

use optinter_lint::rules::{FileMeta, Rule};
use optinter_lint::{analyze_sources, find_workspace_root, load_workspace_sources, Report};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn load() -> (Vec<(FileMeta, String)>, String) {
    let root = workspace_root();
    let files = load_workspace_sources(&root).expect("load sources");
    let baseline =
        std::fs::read_to_string(root.join("lint-baseline.toml")).expect("read lint-baseline.toml");
    (files, baseline)
}

fn analyze(files: &[(FileMeta, String)], baseline: &str) -> Report {
    analyze_sources(files, Some(baseline)).expect("analyze")
}

/// Replaces `needle` with `with` inside the one source whose path ends
/// in `path_suffix`, panicking if the anchor is missing — so the test
/// fails loudly when the code it mutates is refactored away instead of
/// silently testing nothing.
fn inject(files: &mut [(FileMeta, String)], path_suffix: &str, needle: &str, with: &str) {
    let (_, src) = files
        .iter_mut()
        .find(|(m, _)| m.rel_path.ends_with(path_suffix))
        .unwrap_or_else(|| panic!("no workspace file ends with {path_suffix}"));
    assert!(
        src.contains(needle),
        "injection anchor vanished from {path_suffix}: {needle:?}"
    );
    *src = src.replacen(needle, with, 1);
}

#[test]
fn derived_hot_set_is_a_superset_of_the_glob_set() {
    let (files, baseline) = load();
    let report = analyze(&files, &baseline);
    assert!(
        report.is_clean(),
        "workspace should lint clean:\n{:#?}",
        report.diagnostics
    );
    // Golden contract: everything the old per-file glob heuristic called
    // hot is still hot under the derived closure...
    for f in &report.glob_hot_fns {
        assert!(
            report.hot_fns.contains(f),
            "glob-hot fn {f} missing from the derived hot set"
        );
    }
    // ...and the call graph genuinely widens coverage beyond the globs
    // (matmul kernels, embedding lookups, and the like have no hot-name
    // affix but sit inside every training step).
    assert!(
        report.hot_fns.len() > report.glob_hot_fns.len(),
        "derived set ({}) should exceed the glob set ({})",
        report.hot_fns.len(),
        report.glob_hot_fns.len()
    );
}

#[test]
fn injected_unwrap_reachable_from_serve_roots_fails_the_lint() {
    let (mut files, baseline) = load();
    // `probabilities_into` is two call-graph hops from both serve roots
    // (score_into -> probabilities_into), so this exercises the
    // traversal, not just sites inside the root fn itself. The injected
    // line only has to lex, not compile.
    inject(
        &mut files,
        "crates/nn/src/loss.rs",
        "    out.clear();",
        "    out.clear();\n    std::env::var(\"INJECTED\").unwrap();",
    );
    let report = analyze(&files, &baseline);
    assert!(!report.is_clean(), "injected unwrap should fail the lint");
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::PanicFree && d.path.ends_with("loss.rs"))
        .collect();
    assert!(
        !hits.is_empty(),
        "expected a panic-free diagnostic in loss.rs, got:\n{:#?}",
        report.diagnostics
    );
    // The witness chain names the root whose cone the site sits in.
    assert!(
        hits.iter().any(|d| d.message.contains("serve-score")),
        "diagnostic should cite the serve-score root:\n{hits:#?}"
    );
    assert!(
        report.counts["panic-free"]
            .get("serve-score")
            .copied()
            .unwrap_or(0)
            > 0,
        "serve-score count should include the injected site"
    );
}

#[test]
fn injected_unwrap_inside_a_root_fn_fails_the_lint() {
    let (mut files, baseline) = load();
    inject(
        &mut files,
        "crates/serve/src/microbatch.rs",
        "    batch.begin(num_fields, num_pairs);",
        "    batch.begin(num_fields, num_pairs);\n    std::env::var(\"INJECTED\").unwrap();",
    );
    let report = analyze(&files, &baseline);
    assert!(!report.is_clean());
    assert!(
        report.diagnostics.iter().any(|d| d.rule == Rule::PanicFree
            && d.path.ends_with("microbatch.rs")
            && d.message.contains("microbatch-flush")),
        "expected a microbatch-flush diagnostic:\n{:#?}",
        report.diagnostics
    );
}

#[test]
fn injected_panics_in_validation_and_table_lookup_fail_the_lint() {
    // The typed-error contract: request validation and the dense and
    // hashed embedding-table lookups all sit inside the serve-score cone,
    // so a panic site in any of them must fail the lint. This is the
    // static witness that out-of-range ids stay typed errors — the
    // runtime half lives in tests/serve_errors.rs.
    for (path, anchor) in [
        // FrozenScorer::validate
        (
            "crates/serve/src/scorer.rs",
            "        let key_space = dims.orig_vocab;",
        ),
        // EmbeddingTable::lookup_fields_pooled_into
        (
            "crates/nn/src/embedding.rs",
            "        out.reshape_for_overwrite(batch, width);",
        ),
        // HashedEmbedding::hash_into
        (
            "crates/nn/src/store.rs",
            "            let (s1, s2) = self.slots(id);",
        ),
    ] {
        let (mut files, baseline) = load();
        inject(
            &mut files,
            path,
            anchor,
            &format!("{anchor}\n    std::env::var(\"INJECTED\").unwrap();"),
        );
        let report = analyze(&files, &baseline);
        assert!(
            report.diagnostics.iter().any(|d| d.rule == Rule::PanicFree
                && path.ends_with(&d.path)
                && d.message.contains("serve-score")),
            "anchor {anchor:?}: expected a serve-score diagnostic in {path}:\n{:#?}",
            report.diagnostics
        );
    }
}

#[test]
fn deleting_a_panic_free_waiver_fails_the_lint() {
    let (mut files, baseline) = load();
    // `probabilities_into` is the scorer's last step; its shape assert is
    // waived because the scorer's own MLP pins the logits to `[B, 1]`.
    let (_, src) = files
        .iter_mut()
        .find(|(m, _)| m.rel_path.ends_with("crates/nn/src/loss.rs"))
        .expect("loss.rs present");
    let waiver_line = src
        .lines()
        .find(|l| l.contains("lint: allow(panic-free"))
        .expect("loss.rs should carry a panic-free waiver")
        .to_string();
    *src = src.replacen(&format!("{waiver_line}\n"), "", 1);
    assert!(!src.contains(&waiver_line), "waiver should be gone");
    let report = analyze(&files, &baseline);
    assert!(
        !report.is_clean(),
        "deleting a waiver must surface the site it covered"
    );
    assert!(
        report.diagnostics.iter().any(|d| d.rule == Rule::PanicFree
            && d.path.ends_with("loss.rs")
            && d.message.contains("serve-score")),
        "expected the unwaived loss.rs site to be reported under serve-score:\n{:#?}",
        report.diagnostics
    );
}

#[test]
fn index_sites_only_count_for_index_strict_roots() {
    let (mut files, baseline) = load();
    // A slice index in the scoring cone is NOT a panic-free violation
    // (only `+index` roots count them), but `.unwrap()` on the same
    // line is. Guard both halves of that policy.
    inject(
        &mut files,
        "crates/nn/src/loss.rs",
        "    out.clear();",
        "    out.clear();\n    let _probe = injected_slice[0];",
    );
    let report = analyze(&files, &baseline);
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| !(d.rule == Rule::PanicFree && d.path.ends_with("loss.rs"))),
        "a bare index outside the +index cones should not trip panic-free:\n{:#?}",
        report.diagnostics
    );
}

// ---- determinism-cone / no-blocking-cone mutation tests (DESIGN.md §15) ----

#[test]
fn injected_clock_two_hops_under_train_batch_fails_the_determinism_cone() {
    let (mut files, baseline) = load();
    // `stable_bce` is two hops below both training roots
    // (train_batch -> bce_with_logits_into -> numerics::stable_bce), so a
    // clock read here proves the cone traverses the call graph rather
    // than just scanning the root fn.
    inject(
        &mut files,
        "crates/tensor/src/numerics.rs",
        "pub fn stable_bce(logit: f32, label: f32) -> f32 {",
        "pub fn stable_bce(logit: f32, label: f32) -> f32 {\n    let _injected = std::time::Instant::now();",
    );
    let report = analyze(&files, &baseline);
    assert!(
        !report.is_clean(),
        "injected clock read should fail the lint"
    );
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::DeterminismCone && d.path.ends_with("numerics.rs"))
        .collect();
    assert!(
        !hits.is_empty(),
        "expected a determinism-cone diagnostic in numerics.rs, got:\n{:#?}",
        report.diagnostics
    );
    // The message cites the root key; the witness spells out the full
    // (non-elided) call chain from root to the offending fn.
    assert!(
        hits.iter().any(|d| d.message.contains("optinter-train")),
        "diagnostic should cite the optinter-train root:\n{hits:#?}"
    );
    let witness = hits
        .iter()
        .find_map(|d| d.witness.as_deref())
        .expect("cone diagnostics carry a witness chain");
    assert!(
        witness.contains("train_batch") && witness.contains("stable_bce"),
        "witness should run from train_batch down to stable_bce: {witness}"
    );
    assert!(
        report.counts["determinism-cone"]
            .get("optinter-train")
            .copied()
            .unwrap_or(0)
            > 0,
        "optinter-train count should include the injected site: {:?}",
        report.counts["determinism-cone"]
    );
}

#[test]
fn injected_lock_under_score_into_fails_the_no_blocking_cone() {
    let (mut files, baseline) = load();
    // Inside Body::forward, one hop below score_into.
    inject(
        &mut files,
        "crates/core/src/body.rs",
        "        self.mlp.forward_into(&self.input, &mut self.logits);",
        "        let _injected = std::sync::Mutex::new(0u32).lock();\n        self.mlp.forward_into(&self.input, &mut self.logits);",
    );
    let report = analyze(&files, &baseline);
    assert!(!report.is_clean(), "injected lock should fail the lint");
    let hits: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::NoBlockingCone && d.path.ends_with("body.rs"))
        .collect();
    assert!(
        !hits.is_empty(),
        "expected a no-blocking-cone diagnostic in body.rs, got:\n{:#?}",
        report.diagnostics
    );
    assert!(
        hits.iter().any(|d| d.message.contains("serve-score")),
        "diagnostic should cite the serve-score root:\n{hits:#?}"
    );
    let witness = hits
        .iter()
        .find_map(|d| d.witness.as_deref())
        .expect("cone diagnostics carry a witness chain");
    assert!(
        witness.contains("score_into"),
        "witness should start from the score_into root: {witness}"
    );
    assert!(
        report.counts["no-blocking-cone"]
            .get("serve-score")
            .copied()
            .unwrap_or(0)
            > 0,
        "serve-score count should include the injected site: {:?}",
        report.counts["no-blocking-cone"]
    );
}

#[test]
fn cone_root_summaries_are_reported() {
    let (files, baseline) = load();
    let report = analyze(&files, &baseline);
    // Every declared cone root gets a rendered effect summary. The
    // training roots legitimately allocate; the serving roots' summaries
    // include the *waived* Blocks effect (seeds are policy-free), which
    // is exactly why the per-root count still ratchets at 0.
    let train = report
        .root_effects
        .get("determinism:optinter-train")
        .expect("optinter-train summary present");
    assert!(train.contains("Allocates"), "training allocates: {train}");
    let serve = report
        .root_effects
        .get("no-block:serve-score")
        .expect("serve-score summary present");
    assert!(
        serve.contains("Blocks"),
        "waived pool hand-off still shows in the summary: {serve}"
    );
    assert_eq!(
        report.counts["no-blocking-cone"].get("serve-score"),
        Some(&0)
    );
}

// ---- fixture fire / suppress / waiver coverage for the cone rules ----

fn fixture_files(body: &str) -> Vec<(FileMeta, String)> {
    vec![(
        FileMeta {
            rel_path: "crates/alpha/src/lib.rs".to_string(),
            crate_key: "alpha".to_string(),
            is_test_file: false,
        },
        body.to_string(),
    )]
}

const FIXTURE_BASELINE: &str = r#"
[determinism-roots]
train = "alpha::train_batch"
[determinism-cone]
train = 0
[no-block-roots]
score = "alpha::score_into"
[no-blocking-cone]
score = 0
"#;

#[test]
fn fixture_cones_fire_on_reachable_effects() {
    // `alpha` is outside HASH_ITER_CRATES, so the per-file hash-iter rule
    // stays silent — yet the cone still fires on the reachable iteration,
    // because effect seeds are collected before any per-rule policy.
    let files = fixture_files(
        r#"
        pub fn train_batch(counts: &HashMap<u32, u32>) { tally(counts); }
        fn tally(counts: &HashMap<u32, u32>) { for (_k, _v) in counts.iter() {} }
        pub fn score_into(q: &Queue) { let _g = q.inner.lock(); }
        "#,
    );
    let report = analyze(&files, FIXTURE_BASELINE);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::DeterminismCone
                && d.message.contains("HashIter")
                && d.message.contains("train")),
        "cone should flag the hash iteration under train_batch:\n{:#?}",
        report.diagnostics
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::NoBlockingCone && d.message.contains("score")),
        "cone should flag the lock under score_into:\n{:#?}",
        report.diagnostics
    );
    assert_eq!(report.counts["determinism-cone"].get("train"), Some(&1));
    assert_eq!(report.counts["no-blocking-cone"].get("score"), Some(&1));
}

#[test]
fn fixture_cones_ignore_unreachable_effects() {
    // The same effects in fns the roots cannot reach must not fire.
    let files = fixture_files(
        r#"
        pub fn train_batch(x: u32) -> u32 { x + 1 }
        pub fn score_into(x: u32) -> u32 { x * 2 }
        pub fn offline_report(counts: &HashMap<u32, u32>) {
            for (_k, _v) in counts.iter() {}
            let _t = Instant::now();
            let _g = GLOBAL.lock();
        }
        "#,
    );
    let report = analyze(&files, FIXTURE_BASELINE);
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| d.rule != Rule::DeterminismCone && d.rule != Rule::NoBlockingCone),
        "unreachable effects must not trip the cones:\n{:#?}",
        report.diagnostics
    );
    assert_eq!(report.counts["determinism-cone"].get("train"), Some(&0));
    assert_eq!(report.counts["no-blocking-cone"].get("score"), Some(&0));
}

#[test]
fn fixture_cone_waivers_suppress_and_count_as_used() {
    // Stacked waivers: the per-file wall-clock rule and the determinism
    // cone each need their own directive on the same site — directive
    // lines stack through to the first code line below them.
    let files = fixture_files(
        r#"
        pub fn train_batch() {
            // lint: allow(wall-clock, reason="coarse progress stamp, not on any numeric path")
            // lint: allow(determinism-cone, reason="stamp feeds logging only, never the trajectory")
            let _t = Instant::now();
        }
        pub fn score_into(q: &Queue) {
            // lint: allow(no-blocking-cone, reason="declared hand-off: bounded queue, uncontended by design")
            let _g = q.inner.lock();
        }
        "#,
    );
    let report = analyze(&files, FIXTURE_BASELINE);
    assert!(
        report.is_clean(),
        "waived sites must pass, and used waivers must not be flagged:\n{:#?}",
        report.diagnostics
    );
    assert_eq!(report.counts["determinism-cone"].get("train"), Some(&0));
    assert_eq!(report.counts["no-blocking-cone"].get("score"), Some(&0));
}

#[test]
fn fixture_wall_clock_waiver_does_not_shield_the_cone() {
    // A per-file wall-clock waiver claims "this clock read is fine in
    // general" — it does NOT claim the training trajectory is clock-free,
    // so the cone must still fire until a determinism-cone waiver (or a
    // fix) lands.
    let files = fixture_files(
        r#"
        pub fn train_batch() {
            // lint: allow(wall-clock, reason="progress stamp")
            let _t = Instant::now();
        }
        pub fn score_into(x: u32) -> u32 { x }
        "#,
    );
    let report = analyze(&files, FIXTURE_BASELINE);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::DeterminismCone && d.message.contains("train")),
        "wall-clock waiver alone must not shield the determinism cone:\n{:#?}",
        report.diagnostics
    );
    assert_eq!(report.counts["determinism-cone"].get("train"), Some(&1));
}

#[test]
fn fixture_panic_inside_a_fn_with_an_array_signature_is_reported() {
    // The `;` of `[u8; 4]` must not end `le_bytes`'s signature: a fn left
    // without a body has no call edges and no sites, so the unwrap below
    // would be invisible to the cone of `decode`.
    let files = fixture_files(
        r#"
        pub fn decode(bytes: &[u8]) -> u32 { u32::from_le_bytes(le_bytes(bytes)) }
        fn le_bytes(b: &[u8]) -> [u8; 4] { widen(b).try_into().unwrap() }
        fn widen(b: &[u8]) -> [[u8; 2]; 2] { [[b[0], b[1]], [b[2], b[3]]] }
        "#,
    );
    let baseline = r#"
[panic-free-roots]
decode = "alpha::decode"
[panic-free]
decode = 0
"#;
    let report = analyze(&files, baseline);
    assert!(
        report.diagnostics.iter().any(|d| d.rule == Rule::PanicFree
            && d.message.contains("decode")
            && d.message.contains("unwrap")),
        "the unwrap in le_bytes should fail the decode cone:\n{:#?}",
        report.diagnostics
    );
    assert_eq!(report.counts["panic-free"].get("decode"), Some(&1));
}

#[test]
fn fixture_test_module_helper_does_not_bridge_the_decode_cone() {
    // The witness chain a test helper once opened from the decode root:
    // `FrozenModel::from_bytes -> Workspace::take -> Matrix::reset ->
    // nn::embedding::Arena::clear -> Batch::fill`. `reset`'s `Vec::clear`
    // resolves by name to every method `clear`, and `Arena::clear` sits in
    // a `#[cfg(test)] mod` without a test attribute of its own. Test code
    // is never a call target, so `Batch::fill`'s index sites stay out of
    // the `+index` cone.
    let file = |rel: &str, crate_key: &str, body: &str| {
        let meta = FileMeta {
            rel_path: rel.to_string(),
            crate_key: crate_key.to_string(),
            is_test_file: false,
        };
        (meta, body.to_string())
    };
    let files = vec![
        file(
            "crates/serve/src/artifact.rs",
            "serve",
            r#"
            pub struct FrozenModel;
            impl FrozenModel {
                pub fn from_bytes(ws: &mut Workspace) -> Matrix { ws.take(1, 2) }
            }
            "#,
        ),
        file(
            "crates/nn/src/workspace.rs",
            "nn",
            r#"
            pub struct Workspace;
            impl Workspace {
                pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
                    let mut m = Matrix::empty();
                    m.reset(rows, cols);
                    m
                }
            }
            "#,
        ),
        file(
            "crates/tensor/src/matrix.rs",
            "tensor",
            r#"
            pub struct Matrix { data: Vec<f32> }
            impl Matrix {
                pub fn empty() -> Self { Matrix { data: Vec::new() } }
                pub fn reset(&mut self, rows: usize, cols: usize) {
                    self.data.clear();
                    self.data.resize(rows * cols, 0.0);
                }
            }
            "#,
        ),
        file(
            "crates/nn/src/embedding.rs",
            "nn",
            r#"
            pub fn rows() -> usize { 0 }
            #[cfg(test)]
            mod tests {
                struct Arena { slab: Vec<f32> }
                impl Arena {
                    fn clear(&mut self) { self.slab.fill(0.0); }
                }
            }
            "#,
        ),
        file(
            "crates/data/src/batch.rs",
            "data",
            r#"
            pub struct Batch { fields: Vec<u32> }
            impl Batch {
                pub fn fill(&mut self, row: usize, ids: &[u32]) { self.fields[row] = ids[0]; }
            }
            "#,
        ),
    ];
    let baseline = r#"
[panic-free-roots]
artifact-decode = "serve::artifact::FrozenModel::from_bytes +index"
[panic-free]
artifact-decode = 0
"#;
    let report = analyze(&files, baseline);
    assert!(
        report.is_clean(),
        "a test-module helper must not bridge the decode cone:\n{:#?}",
        report.diagnostics
    );
    assert_eq!(report.counts["panic-free"].get("artifact-decode"), Some(&0));
}
