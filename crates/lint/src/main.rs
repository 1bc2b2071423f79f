//! CLI for the workspace linter.
//!
//! ```text
//! cargo run -p optinter-lint -- check              # lint, exit 1 on findings
//! cargo run -p optinter-lint -- check --json       # machine-readable report
//! cargo run -p optinter-lint -- check --github     # GitHub ::error annotations
//! cargo run -p optinter-lint -- check --sarif      # SARIF 2.1.0 for code scanning
//! cargo run -p optinter-lint -- update-baseline    # tighten the ratchets
//! cargo run -p optinter-lint -- update-baseline --allow-raise  # loosen (flagged)
//! cargo run -p optinter-lint -- check --root PATH  # lint another checkout
//! ```

use optinter_lint::baseline::RATCHETS;
use optinter_lint::Report;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Output {
    Human,
    Json,
    Github,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<&str> = None;
    let mut root_arg: Option<PathBuf> = None;
    let mut output = Output::Human;
    let mut allow_raise = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "check" | "update-baseline" if cmd.is_none() => cmd = Some(&args[i]),
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root_arg = Some(PathBuf::from(p)),
                    None => return usage("--root needs a path"),
                }
            }
            "--json" => output = Output::Json,
            "--github" => output = Output::Github,
            "--sarif" => output = Output::Sarif,
            "--allow-raise" => allow_raise = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    let Some(cmd) = cmd else {
        return usage("missing command");
    };
    if output != Output::Human && cmd != "check" {
        return usage("--json/--github/--sarif only apply to `check`");
    }
    if allow_raise && cmd != "update-baseline" {
        return usage("--allow-raise only applies to `update-baseline`");
    }

    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => return fail(&format!("cannot read current dir: {e}")),
            };
            match optinter_lint::find_workspace_root(&cwd) {
                Ok(r) => r,
                Err(e) => return fail(&e),
            }
        }
    };

    match cmd {
        "check" => match optinter_lint::check_workspace(&root) {
            Ok(report) => render(&report, output),
            Err(e) => fail(&e),
        },
        "update-baseline" => match optinter_lint::update_baseline(&root, allow_raise) {
            Ok(path) => {
                println!("optinter-lint: wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        },
        _ => unreachable!(),
    }
}

fn render(report: &Report, output: Output) -> ExitCode {
    match output {
        Output::Human => {
            if report.is_clean() {
                println!(
                    "optinter-lint: {} files clean (hash-iter, unsafe-confinement, \
                     wall-clock, panic-ratchet, hot-path-alloc, float-reduction-order, \
                     panic-free, determinism-cone, no-blocking-cone); {} hot-path fns \
                     derived",
                    report.files_checked,
                    report.hot_fns.len()
                );
            } else {
                for d in &report.diagnostics {
                    eprintln!("{d}");
                }
                eprintln!(
                    "optinter-lint: {} violation(s) across {} files",
                    report.diagnostics.len(),
                    report.files_checked
                );
            }
        }
        Output::Json => println!("{}", to_json(report)),
        Output::Github => {
            // One workflow-command annotation per diagnostic; GitHub shows
            // them inline on the PR diff. Still exits non-zero so the job
            // fails. Reachability diagnostics append the full (non-elided)
            // witness chain so a reviewer can audit every hop from the
            // annotation alone.
            for d in &report.diagnostics {
                let message = match &d.witness {
                    Some(w) => format!("{} [witness: {w}]", d.message),
                    None => d.message.clone(),
                };
                println!(
                    "::error file={},line={},title=optinter-lint {}::{}",
                    gh_escape_property(&d.path),
                    d.line.max(1),
                    gh_escape_property(d.rule.name()),
                    gh_escape_data(&message)
                );
            }
            println!(
                "optinter-lint: {} violation(s) across {} files",
                report.diagnostics.len(),
                report.files_checked
            );
        }
        Output::Sarif => println!("{}", to_sarif(report)),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders the report as one JSON object. Hand-rolled — the linter is
/// dependency-free — so every dynamic string goes through `json_string`.
fn to_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let witness = match &d.witness {
            Some(w) => format!(", \"witness\": {}", json_string(w)),
            None => String::new(),
        };
        out.push_str(&format!(
            "\n    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}{witness}}}",
            json_string(&d.path),
            d.line,
            json_string(d.rule.name()),
            json_string(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    for ratchet in &RATCHETS {
        let counts = report.counts.get(ratchet.table).into_iter().flatten();
        out.push_str(&format!("  \"{}\": {{", ratchet.table.replace('-', "_")));
        for (i, (krate, n)) in counts.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_string(krate), n));
        }
        out.push_str("},\n");
    }
    out.push_str("  \"root_effects\": {");
    for (i, (root, summary)) in report.root_effects.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", json_string(root), json_string(summary)));
    }
    out.push_str("},\n");
    out.push_str("  \"hot_fns\": [");
    for (i, qual) in report.hot_fns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_string(qual));
    }
    out.push_str("],\n");
    out.push_str(&format!(
        "  \"hot_fn_count\": {},\n  \"files_checked\": {},\n  \"clean\": {}\n}}",
        report.hot_fns.len(),
        report.files_checked,
        report.is_clean()
    ));
    out
}

/// Renders the report as a minimal SARIF 2.1.0 log — one run, one rule
/// descriptor per distinct rule that fired, one result per diagnostic —
/// for the GitHub code-scanning upload action. Witness chains ride in the
/// result message so the annotation shows the full `root -> ... -> site`
/// path.
fn to_sarif(report: &Report) -> String {
    let mut rules: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|d| d.rule.name())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    rules.sort_unstable();
    let mut out = String::from(
        "{\n  \"$schema\": \
         \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [{\n    \"tool\": {\"driver\": {\n      \
         \"name\": \"optinter-lint\",\n      \"rules\": [",
    );
    for (i, rule) in rules.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            json_string(rule),
            json_string(&format!("optinter-lint rule {rule}"))
        ));
    }
    if !rules.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }},\n    \"results\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let message = match &d.witness {
            Some(w) => format!("{} [witness: {w}]", d.message),
            None => d.message.clone(),
        };
        out.push_str(&format!(
            "\n      {{\"ruleId\": {}, \"level\": \"error\", \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \
             {}}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            json_string(d.rule.name()),
            json_string(&message),
            json_string(&d.path),
            d.line.max(1)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("]\n  }]\n}");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Escaping for the message part of a GitHub workflow command.
fn gh_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escaping for property values (`file=`, `title=`): the data escapes plus
/// the property delimiters.
fn gh_escape_property(s: &str) -> String {
    gh_escape_data(s).replace(':', "%3A").replace(',', "%2C")
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("optinter-lint: {err}");
    }
    eprintln!(
        "usage: optinter-lint <check|update-baseline> [--root PATH] \
         [--json|--github|--sarif] [--allow-raise]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("optinter-lint: {msg}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinter_lint::rules::{Diagnostic, Rule};
    use std::collections::{BTreeMap, BTreeSet};

    fn report_with(diagnostics: Vec<Diagnostic>) -> Report {
        Report {
            diagnostics,
            counts: BTreeMap::new(),
            root_effects: BTreeMap::new(),
            hot_fns: BTreeSet::new(),
            glob_hot_fns: BTreeSet::new(),
            files_checked: 1,
        }
    }

    #[test]
    fn sarif_escapes_messages_and_carries_witness_chains() {
        let report = report_with(vec![Diagnostic {
            path: "crates/core/src/net.rs".to_string(),
            line: 7,
            rule: Rule::DeterminismCone,
            witness: Some("core::a -> core::b".to_string()),
            message: "a \"quoted\"\nmessage".to_string(),
        }]);
        let sarif = to_sarif(&report);
        // Well-formed enough for a JSON parser: balanced braces/brackets
        // and properly escaped quotes/newlines inside string values.
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"ruleId\": \"determinism-cone\""));
        assert!(sarif.contains("\\\"quoted\\\"\\nmessage"));
        assert!(sarif.contains("[witness: core::a -> core::b]"));
        assert!(sarif.contains("\"startLine\": 7"));
        // Line 0 (config diagnostics) clamps to SARIF's 1-based minimum.
        let cfg = report_with(vec![Diagnostic {
            path: "lint-baseline.toml".to_string(),
            line: 0,
            rule: Rule::Config,
            witness: None,
            message: "bad table".to_string(),
        }]);
        assert!(to_sarif(&cfg).contains("\"startLine\": 1"));
    }

    // ---- golden report -----------------------------------------------------

    /// One crate that trips every ratchet: an over-ceiling `.unwrap()`
    /// (one hop below `score_into`, so it also counts against the
    /// panic-free root), an `unsafe` block in a crate with no
    /// `[unsafe-sites]` entry, a `Vec::new` in `step`, a `.lock()` under
    /// `score_into` and `Instant::now()` two hops under `train_batch`. A
    /// waived hash iteration and an index outside any `+index` root sit in
    /// the cones too and must stay silent.
    const GOLDEN_SRC: &str = r#"use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

pub struct Queue {
    inner: Mutex<u32>,
}

pub fn step(xs: &[u32]) -> usize {
    let scratch: Vec<u32> = Vec::new();
    scratch.len() + xs.len()
}

pub fn score_into(q: &Queue, ids: &[Option<u32>], out: &mut [u32]) {
    let _guard = q.inner.lock();
    out[0] = lookup(ids[0]);
}

fn lookup(id: Option<u32>) -> u32 {
    id.unwrap()
}

pub fn train_batch(x: u64, seen: &HashMap<u32, u32>) -> u64 {
    // lint: allow(hash-iter, reason="an order-free count")
    let n = seen.iter().count() as u64;
    x + n + clock()
}

fn clock() -> u64 {
    stamp()
}

fn stamp() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}

pub fn read(p: *const u32) -> u32 {
    unsafe { *p }
}
"#;

    /// Every config diagnostic: a root in each roots table that matches
    /// nothing, and an orphan ceiling in each per-root ceiling table.
    const GOLDEN_BASELINE: &str = r#"
[unwrap-expect]
alpha = 0

[unsafe-sites]
beta = 0

[hot-path-alloc]
alpha = 0

[hot-path-roots]
ghost = "alpha::missing_hot"
serve = "alpha::score_into"

[panic-free-roots]
ghost = "alpha::missing_decode +index"
serve = "alpha::score_into"

[panic-free]
orphan = 0
serve = 0

[determinism-roots]
ghost = "alpha::missing_train"
train = "alpha::train_batch"

[determinism-cone]
orphan = 0
train = 0

[no-block-roots]
ghost = "alpha::missing_serve"
serve = "alpha::score_into"

[no-blocking-cone]
orphan = 0
serve = 0
"#;

    const GOLDEN_LINES: &str = r#"crates/alpha/src/lib.rs:34: [wall-clock] `Instant` reads wall-clock time or OS entropy, which makes runs unreproducible; only the bench crate may do this (or waive with `// lint: allow(wall-clock, reason="...")`)
crates/alpha/src/lib.rs:38: [unsafe-confinement] `unsafe` outside the audited kernel allowlist (crates/tensor/src/pool.rs, crates/tensor/src/kernels.rs, crates/nn/src/embedding.rs, tests/alloc_steady_state.rs); use the safe pool APIs (Pool::for_rows and friends) or move the code into an allowlisted module
lint-baseline.toml:0: [lint-config] [hot-path-roots] `ghost` = "alpha::missing_hot" matches no workspace fn; fix the path or delete the root
lint-baseline.toml:0: [lint-config] [panic-free-roots] `ghost` = "alpha::missing_decode" matches no workspace fn; fix the path or delete the root
lint-baseline.toml:0: [lint-config] [panic-free] ceiling `orphan` has no matching [panic-free-roots] entry
lint-baseline.toml:0: [lint-config] [determinism-roots] `ghost` = "alpha::missing_train" matches no workspace fn; fix the path or delete the root
lint-baseline.toml:0: [lint-config] [determinism-cone] ceiling `orphan` has no matching [determinism-roots] entry
lint-baseline.toml:0: [lint-config] [no-block-roots] `ghost` = "alpha::missing_serve" matches no workspace fn; fix the path or delete the root
lint-baseline.toml:0: [lint-config] [no-blocking-cone] ceiling `orphan` has no matching [no-block-roots] entry
lint-baseline.toml:0: [panic-ratchet] [panic-ratchet] crate `alpha` has 1 unwrap/expect sites in non-test code, above the baseline ceiling of 0; handle the error or, if genuinely unreachable, raise the ceiling by hand in lint-baseline.toml with justification in the PR
lint-baseline.toml:0: [hot-path-alloc] [hot-path-alloc] crate `alpha` has 1 allocation sites in hot-path fns in non-test code, above the baseline ceiling of 0; reuse scratch buffers (Workspace / `_into` convention), waive genuinely non-allocating matches, or raise the ceiling by hand in lint-baseline.toml with justification in the PR
crates/alpha/src/lib.rs:10: [hot-path-alloc] `Vec::new` allocates inside hot-path fn `step`; reuse a scratch buffer (Workspace / `_into` convention) or waive with `// lint: allow(hot-path-alloc, reason="...")`
lint-baseline.toml:0: [unsafe-confinement] [unsafe-sites] crate `alpha` has 1 `unsafe` sites but no entry in lint-baseline.toml; run `cargo run -p optinter-lint -- update-baseline` and commit the result
lint-baseline.toml:0: [panic-free] [panic-free] root `serve` has 1 reachable unwaived panic sites in non-test code, above the baseline ceiling of 0; return a typed error instead, or waive sites that are unreachable by construction with `// lint: allow(panic-free, reason="...")`
crates/alpha/src/lib.rs:20: [panic-free] `.unwrap()` is reachable from panic-free root `serve` (alpha::score_into -> alpha::lookup); return a typed error instead, or waive with `// lint: allow(panic-free, reason="...")` if the site is unreachable by construction [witness: alpha::score_into -> alpha::lookup]
lint-baseline.toml:0: [determinism-cone] [determinism-cone] root `train` has 1 reachable unwaived determinism violations in non-test code, above the baseline ceiling of 0; thread the seeded RNG / remove the clock read / sort before iterating, or waive an order-neutral site with `// lint: allow(determinism-cone, reason="...")`
crates/alpha/src/lib.rs:34: [determinism-cone] `Instant` (ReadsClock) is reachable from determinism root `train` (alpha::train_batch -> alpha::clock -> alpha::stamp); the search trajectory must be bit-reproducible — thread the seeded RNG, drop the clock read, or sort before iterating; a genuinely order-neutral site can be waived with `// lint: allow(determinism-cone, reason="...")` [witness: alpha::train_batch -> alpha::clock -> alpha::stamp]
lint-baseline.toml:0: [no-blocking-cone] [no-blocking-cone] root `serve` has 1 reachable unwaived blocking sites in non-test code, above the baseline ceiling of 0; keep the serving path lock-free (move the blocking call off the scoring cone), or waive a declared hand-off site with `// lint: allow(no-blocking-cone, reason="...")`
crates/alpha/src/lib.rs:15: [no-blocking-cone] `.lock()` (Blocks) is reachable from no-block root `serve` (alpha::score_into); the serving path must never park the thread — move the blocking call off the scoring cone, or waive a declared hand-off site with `// lint: allow(no-blocking-cone, reason="...")` [witness: alpha::score_into]"#;

    const GOLDEN_JSON: &str = r#"{
  "diagnostics": [
    {"path": "crates/alpha/src/lib.rs", "line": 34, "rule": "wall-clock", "message": "`Instant` reads wall-clock time or OS entropy, which makes runs unreproducible; only the bench crate may do this (or waive with `// lint: allow(wall-clock, reason=\"...\")`)"},
    {"path": "crates/alpha/src/lib.rs", "line": 38, "rule": "unsafe-confinement", "message": "`unsafe` outside the audited kernel allowlist (crates/tensor/src/pool.rs, crates/tensor/src/kernels.rs, crates/nn/src/embedding.rs, tests/alloc_steady_state.rs); use the safe pool APIs (Pool::for_rows and friends) or move the code into an allowlisted module"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "lint-config", "message": "[hot-path-roots] `ghost` = \"alpha::missing_hot\" matches no workspace fn; fix the path or delete the root"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "lint-config", "message": "[panic-free-roots] `ghost` = \"alpha::missing_decode\" matches no workspace fn; fix the path or delete the root"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "lint-config", "message": "[panic-free] ceiling `orphan` has no matching [panic-free-roots] entry"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "lint-config", "message": "[determinism-roots] `ghost` = \"alpha::missing_train\" matches no workspace fn; fix the path or delete the root"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "lint-config", "message": "[determinism-cone] ceiling `orphan` has no matching [determinism-roots] entry"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "lint-config", "message": "[no-block-roots] `ghost` = \"alpha::missing_serve\" matches no workspace fn; fix the path or delete the root"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "lint-config", "message": "[no-blocking-cone] ceiling `orphan` has no matching [no-block-roots] entry"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "panic-ratchet", "message": "[panic-ratchet] crate `alpha` has 1 unwrap/expect sites in non-test code, above the baseline ceiling of 0; handle the error or, if genuinely unreachable, raise the ceiling by hand in lint-baseline.toml with justification in the PR"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "hot-path-alloc", "message": "[hot-path-alloc] crate `alpha` has 1 allocation sites in hot-path fns in non-test code, above the baseline ceiling of 0; reuse scratch buffers (Workspace / `_into` convention), waive genuinely non-allocating matches, or raise the ceiling by hand in lint-baseline.toml with justification in the PR"},
    {"path": "crates/alpha/src/lib.rs", "line": 10, "rule": "hot-path-alloc", "message": "`Vec::new` allocates inside hot-path fn `step`; reuse a scratch buffer (Workspace / `_into` convention) or waive with `// lint: allow(hot-path-alloc, reason=\"...\")`"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "unsafe-confinement", "message": "[unsafe-sites] crate `alpha` has 1 `unsafe` sites but no entry in lint-baseline.toml; run `cargo run -p optinter-lint -- update-baseline` and commit the result"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "panic-free", "message": "[panic-free] root `serve` has 1 reachable unwaived panic sites in non-test code, above the baseline ceiling of 0; return a typed error instead, or waive sites that are unreachable by construction with `// lint: allow(panic-free, reason=\"...\")`"},
    {"path": "crates/alpha/src/lib.rs", "line": 20, "rule": "panic-free", "message": "`.unwrap()` is reachable from panic-free root `serve` (alpha::score_into -> alpha::lookup); return a typed error instead, or waive with `// lint: allow(panic-free, reason=\"...\")` if the site is unreachable by construction", "witness": "alpha::score_into -> alpha::lookup"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "determinism-cone", "message": "[determinism-cone] root `train` has 1 reachable unwaived determinism violations in non-test code, above the baseline ceiling of 0; thread the seeded RNG / remove the clock read / sort before iterating, or waive an order-neutral site with `// lint: allow(determinism-cone, reason=\"...\")`"},
    {"path": "crates/alpha/src/lib.rs", "line": 34, "rule": "determinism-cone", "message": "`Instant` (ReadsClock) is reachable from determinism root `train` (alpha::train_batch -> alpha::clock -> alpha::stamp); the search trajectory must be bit-reproducible — thread the seeded RNG, drop the clock read, or sort before iterating; a genuinely order-neutral site can be waived with `// lint: allow(determinism-cone, reason=\"...\")`", "witness": "alpha::train_batch -> alpha::clock -> alpha::stamp"},
    {"path": "lint-baseline.toml", "line": 0, "rule": "no-blocking-cone", "message": "[no-blocking-cone] root `serve` has 1 reachable unwaived blocking sites in non-test code, above the baseline ceiling of 0; keep the serving path lock-free (move the blocking call off the scoring cone), or waive a declared hand-off site with `// lint: allow(no-blocking-cone, reason=\"...\")`"},
    {"path": "crates/alpha/src/lib.rs", "line": 15, "rule": "no-blocking-cone", "message": "`.lock()` (Blocks) is reachable from no-block root `serve` (alpha::score_into); the serving path must never park the thread — move the blocking call off the scoring cone, or waive a declared hand-off site with `// lint: allow(no-blocking-cone, reason=\"...\")`", "witness": "alpha::score_into"}
  ],
  "unwrap_expect": {"alpha": 1},
  "unsafe_sites": {"alpha": 1},
  "hot_path_alloc": {"alpha": 1},
  "panic_free": {"serve": 1},
  "determinism_cone": {"train": 1},
  "no_blocking_cone": {"serve": 1},
  "root_effects": {"determinism:train": "{ReadsClock, HashIter}", "no-block:serve": "{Blocks, Panics}"},
  "hot_fns": ["alpha::clock", "alpha::lookup", "alpha::score_into", "alpha::stamp", "alpha::step", "alpha::train_batch"],
  "hot_fn_count": 6,
  "files_checked": 1,
  "clean": false
}"#;

    #[test]
    fn golden_report_pins_every_ratchet_and_config_diagnostic() {
        let files = vec![(
            optinter_lint::rules::FileMeta {
                rel_path: "crates/alpha/src/lib.rs".to_string(),
                crate_key: "alpha".to_string(),
                is_test_file: false,
            },
            GOLDEN_SRC.to_string(),
        )];
        let report =
            optinter_lint::analyze_sources(&files, Some(GOLDEN_BASELINE)).expect("analyze");
        // Each rendered line, with the full witness chain where there is one.
        let lines: Vec<String> = report
            .diagnostics
            .iter()
            .map(|d| match &d.witness {
                Some(w) => format!("{d} [witness: {w}]"),
                None => d.to_string(),
            })
            .collect();
        assert_eq!(lines.join("\n"), GOLDEN_LINES);
        assert_eq!(to_json(&report), GOLDEN_JSON);
    }
}
