//! Tier-1 enforcement of the static invariants (DESIGN.md §7, §10, §12,
//! §15).
//!
//! The determinism harness (`tests/determinism.rs`) proves the invariants
//! dynamically for the configurations it runs; this test proves the
//! *static* side for every source file on every `cargo test`, under all
//! nine rules: no hash iteration in determinism-critical crates
//! (hash-iter), `unsafe` confined to the audited kernel modules with
//! SAFETY comments (unsafe-confinement), no wall-clock/entropy outside the
//! bench crate (wall-clock), `.unwrap()`/`.expect(` counts within their
//! per-crate ceilings (panic-ratchet), no unwaived allocation in the
//! derived hot-path set (hot-path-alloc), float reductions only in
//! fixed-order modules (float-reduction-order), and no unwaived panic,
//! nondeterminism or blocking site reachable from the declared roots
//! (panic-free, determinism-cone, no-blocking-cone), every count ratcheted
//! against `lint-baseline.toml`.

use std::path::Path;

#[test]
fn workspace_satisfies_static_invariants() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = optinter_lint::check_workspace(root).expect("lint run failed");
    assert!(
        report.files_checked > 20,
        "lint walker found only {} files — walker is likely broken",
        report.files_checked
    );
    if !report.is_clean() {
        let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
        panic!(
            "{} static-invariant violation(s):\n{}\n\nSee DESIGN.md §7 for the rules and \
             the `// lint: allow(<rule>, reason=\"...\")` waiver convention.",
            rendered.len(),
            rendered.join("\n")
        );
    }
}
