//! The ratchet baselines: committed ceilings that may only go down, plus
//! the declared reachability roots.
//!
//! Every ratchet is one row of [`RATCHETS`], and everything about it that
//! the parser, the emitter, the ceiling check and the report need is read
//! from that row. Ten tables live in `lint-baseline.toml` at the workspace
//! root:
//!
//! - `[unwrap-expect]` — per-crate ceilings on `.unwrap()` / `.expect(`
//!   counts.
//! - `[unsafe-sites]` — per-crate ceilings on `unsafe` occurrences in
//!   non-test code (all of which must also sit in the unsafe-confinement
//!   allowlist and carry SAFETY comments; the ceiling pins the exact site
//!   count so new `unsafe` shows up in review).
//! - `[hot-path-alloc]` — per-crate ceilings on unwaived allocation sites
//!   inside the *derived* hot-path fn set (reachable from
//!   `[hot-path-roots]` plus the `*_into`/`step*` naming convention, see
//!   `rules::is_hot_fn` and DESIGN.md §12).
//! - `[hot-path-roots]` — named entry points whose transitive callees form
//!   the hot-path set: `name = "qualified::fn::path"`.
//! - `[panic-free-roots]` — entry points that must not reach a panic
//!   site: `name = "qualified::fn::path"`, with an optional ` +index`
//!   suffix that additionally bans unchecked slice indexing (used for the
//!   untrusted-bytes artifact decode path).
//! - `[panic-free]` — per-root ceilings on unwaived reachable panic sites.
//! - `[determinism-roots]` — entry points whose call cones must stay
//!   bit-deterministic (no clock/entropy/hash-iteration reachable; float
//!   reductions only in the pinned-order allowlist): `name = "fn::path"`.
//! - `[determinism-cone]` — per-root ceilings on unwaived determinism
//!   violations reached from each `[determinism-roots]` entry.
//! - `[no-block-roots]` — entry points whose call cones must never park
//!   the thread (mutex `lock`, condvar `wait`, blocking `recv`, `sleep`,
//!   `join`) except at sites waived in place: `name = "fn::path"`.
//! - `[no-blocking-cone]` — per-root ceilings on unwaived blocking sites
//!   reached from each `[no-block-roots]` entry.
//!
//! We parse the tiny TOML subset we emit ourselves (`[table]` headers,
//! `key = integer` and `key = "string"` lines, `#` comments) rather than
//! pulling in a TOML crate — the linter is dependency-free by design.

use crate::effects::Effect;
use crate::rules::Rule;
use std::collections::BTreeMap;

/// One ratchet: a count in non-test code, per crate or per declared root,
/// that may not rise above its committed ceiling.
pub struct Ratchet {
    /// Ceiling table; `check --json` keys the counts by this name with
    /// `_` for `-`.
    pub table: &'static str,
    /// Roots table, for a ratchet whose sites are found by reachability.
    pub roots: Option<&'static str>,
    /// The rule every diagnostic of this ratchet is filed under.
    pub rule: Rule,
    pub unit: Unit,
    /// The ratchet's name in its ceiling messages.
    pub name: &'static str,
    /// What the ratchet counts.
    pub what: &'static str,
    /// The remedy a ceiling breach names.
    pub advice: &'static str,
}

/// What a ratchet counts per.
pub enum Unit {
    /// Per crate key (`tensor`, `nn`, ..., `root`), from the per-file
    /// tallies; any roots seed the derived hot-path set.
    Crate,
    /// Per declared root, over the root's call cone.
    Root(Cone),
}

/// What a per-root ratchet counts in a root's call cone.
pub struct Cone {
    /// A reached site counts when it carries one of these effects.
    pub effects: &'static [Effect],
    /// Site messages name the effect, and the report keeps each root's
    /// effect summary (`Report::root_effects`).
    pub reports_effects: bool,
    /// The remedy a reached site's message names.
    pub advice: &'static str,
}

/// Every ratchet, in the order of `lint-baseline.toml` and `check --json`.
pub const RATCHETS: [Ratchet; 6] = [
    Ratchet {
        table: "unwrap-expect",
        roots: None,
        rule: Rule::PanicRatchet,
        unit: Unit::Crate,
        name: "panic-ratchet",
        what: "unwrap/expect sites",
        advice: "handle the error or, if genuinely unreachable, raise the ceiling by hand in \
                 lint-baseline.toml with justification in the PR",
    },
    Ratchet {
        table: "unsafe-sites",
        roots: None,
        rule: Rule::UnsafeConfinement,
        unit: Unit::Crate,
        name: "unsafe-sites",
        what: "`unsafe` sites",
        advice: "keep unsafe confined to the audited kernel modules; if the new site is \
                 justified, raise the ceiling with `update-baseline --allow-raise` (or a hand \
                 edit) in the same PR so the reviewer sees it",
    },
    Ratchet {
        table: "hot-path-alloc",
        roots: Some("hot-path-roots"),
        rule: Rule::HotPathAlloc,
        unit: Unit::Crate,
        name: "hot-path-alloc",
        what: "allocation sites in hot-path fns",
        advice: "reuse scratch buffers (Workspace / `_into` convention), waive genuinely \
                 non-allocating matches, or raise the ceiling by hand in lint-baseline.toml \
                 with justification in the PR",
    },
    Ratchet {
        table: "panic-free",
        roots: Some("panic-free-roots"),
        rule: Rule::PanicFree,
        unit: Unit::Root(Cone {
            effects: &[Effect::Panics],
            reports_effects: false,
            advice: "return a typed error instead, or waive with \
                     `// lint: allow(panic-free, reason=\"...\")` if the site is unreachable \
                     by construction",
        }),
        name: "panic-free",
        what: "reachable unwaived panic sites",
        advice: "return a typed error instead, or waive sites that are unreachable by \
                 construction with `// lint: allow(panic-free, reason=\"...\")`",
    },
    Ratchet {
        table: "determinism-cone",
        roots: Some("determinism-roots"),
        rule: Rule::DeterminismCone,
        unit: Unit::Root(Cone {
            effects: &[
                Effect::ReadsClock,
                Effect::ReadsEntropy,
                Effect::HashIter,
                Effect::FloatOrderSensitive,
            ],
            reports_effects: true,
            advice: "the search trajectory must be bit-reproducible — thread the seeded RNG, \
                     drop the clock read, or sort before iterating; a genuinely order-neutral \
                     site can be waived with `// lint: allow(determinism-cone, reason=\"...\")`",
        }),
        name: "determinism-cone",
        what: "reachable unwaived determinism violations",
        advice: "thread the seeded RNG / remove the clock read / sort before iterating, or \
                 waive an order-neutral site with \
                 `// lint: allow(determinism-cone, reason=\"...\")`",
    },
    Ratchet {
        table: "no-blocking-cone",
        roots: Some("no-block-roots"),
        rule: Rule::NoBlockingCone,
        unit: Unit::Root(Cone {
            effects: &[Effect::Blocks],
            reports_effects: true,
            advice: "the serving path must never park the thread — move the blocking call off \
                     the scoring cone, or waive a declared hand-off site with \
                     `// lint: allow(no-blocking-cone, reason=\"...\")`",
        }),
        name: "no-blocking-cone",
        what: "reachable unwaived blocking sites",
        advice: "keep the serving path lock-free (move the blocking call off the scoring \
                 cone), or waive a declared hand-off site with \
                 `// lint: allow(no-blocking-cone, reason=\"...\")`",
    },
];

/// One table of `lint-baseline.toml`: a ratchet's ceilings or its roots.
struct Table {
    name: &'static str,
    ratchet: &'static Ratchet,
    is_roots: bool,
}

/// Every table in file order: a per-crate ratchet's ceilings lead its
/// roots, a per-root ratchet's roots lead its ceilings.
fn tables() -> impl Iterator<Item = Table> {
    RATCHETS.iter().flat_map(|ratchet| {
        let ceilings = Some(Table {
            name: ratchet.table,
            ratchet,
            is_roots: false,
        });
        let roots = ratchet.roots.map(|name| Table {
            name,
            ratchet,
            is_roots: true,
        });
        match ratchet.unit {
            Unit::Crate => [ceilings, roots],
            Unit::Root(_) => [roots, ceilings],
        }
        .into_iter()
        .flatten()
    })
}

/// One declared root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RootSpec {
    /// Qualified fn-path suffix (`serve::scorer::FrozenScorer::score_into`).
    pub pattern: String,
    /// Also count unchecked slice-index sites (` +index` suffix, taken
    /// only by `[panic-free-roots]`).
    pub index_strict: bool,
}

/// The committed ceilings and declared roots, each keyed by table name
/// and then by crate or root key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    pub ceilings: BTreeMap<&'static str, BTreeMap<String, usize>>,
    pub roots: BTreeMap<&'static str, BTreeMap<String, RootSpec>>,
}

impl Baseline {
    /// Parses the `lint-baseline.toml` subset. Errors carry the offending
    /// line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut baseline = Baseline::default();
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(format!("baseline line {lineno}: unterminated table header"));
                };
                section = name.trim().to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "baseline line {lineno}: expected `key = value`, got `{line}`"
                ));
            };
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim();
            let Some(table) = tables().find(|t| t.name == section) else {
                let known: Vec<String> = tables().map(|t| format!("[{}]", t.name)).collect();
                return Err(format!(
                    "baseline line {lineno}: unknown table `[{section}]` (recognised: {})",
                    known.join(", ")
                ));
            };
            let fresh = if table.is_roots {
                let spec = parse_root(lineno, &table, value)?;
                let roots = baseline.roots.entry(table.name).or_default();
                roots.insert(key.clone(), spec).is_none()
            } else {
                // Strip a trailing same-line comment from unquoted values.
                let value = value.split('#').next().unwrap_or("").trim();
                let value: usize = value.parse().map_err(|_| {
                    format!("baseline line {lineno}: value is not a non-negative integer")
                })?;
                let ceilings = baseline.ceilings.entry(table.name).or_default();
                ceilings.insert(key.clone(), value).is_none()
            };
            if !fresh {
                return Err(format!("baseline line {lineno}: duplicate key `{key}`"));
            }
        }
        Ok(baseline)
    }

    /// Serialises back to the same TOML subset `parse` accepts.
    pub fn to_toml(&self) -> String {
        let mut out = String::from(
            "# Ratchet baselines, maintained by `cargo run -p optinter-lint -- update-baseline`.\n\
             # Per-crate ceilings on `.unwrap()` / `.expect(` sites ([unwrap-expect]),\n\
             # `unsafe` sites ([unsafe-sites], which must also pass the unsafe-confinement\n\
             # allowlist + SAFETY-comment rule), and unwaived allocation sites inside the\n\
             # derived hot-path fn set ([hot-path-alloc]), all counted in non-test code.\n\
             # The roots tables declare reachability entry points (DESIGN.md \u{a7}12, \u{a7}15):\n\
             # [hot-path-roots] seed the hot-path set, and the per-root ceilings cap the\n\
             # unwaived sites reachable from each root: panic sites from\n\
             # [panic-free-roots] in [panic-free]; clock, entropy, hash-iteration and\n\
             # float-order effects from [determinism-roots] in [determinism-cone]; and\n\
             # blocking calls from [no-block-roots] in [no-blocking-cone].\n\
             # Counts may only decrease; raising a ceiling requires `--allow-raise` or a\n\
             # hand edit in the same PR that adds the site, which is the review hook.\n",
        );
        for table in tables() {
            let lines: Vec<String> = if table.is_roots {
                let roots = self.roots.get(table.name).into_iter().flatten();
                roots
                    .map(|(k, v)| {
                        let flag = if v.index_strict { " +index" } else { "" };
                        format!("{k} = \"{}{flag}\"\n", v.pattern)
                    })
                    .collect()
            } else {
                let ceilings = self.ceilings.get(table.name).into_iter().flatten();
                ceilings.map(|(k, v)| format!("{k} = {v}\n")).collect()
            };
            // Per-crate ceiling tables are written even when empty.
            let always = !table.is_roots && matches!(table.ratchet.unit, Unit::Crate);
            if lines.is_empty() && !always {
                continue;
            }
            out.push_str(&format!("\n[{}]\n", table.name));
            out.extend(lines);
        }
        out
    }

    /// Compares observed counts against `ratchet`'s ceilings. Returns one
    /// message per violation, with its crate or root key: a key above its
    /// ceiling, or a key with sites but no baseline entry at all.
    pub fn check<'a>(
        &self,
        ratchet: &Ratchet,
        observed: &'a BTreeMap<String, usize>,
    ) -> Vec<(&'a str, String)> {
        let ceilings = self.ceilings.get(ratchet.table);
        let name = ratchet.name;
        let unit = match ratchet.unit {
            Unit::Crate => "crate",
            Unit::Root(_) => "root",
        };
        let what = ratchet.what;
        let mut problems = Vec::new();
        for (key, &count) in observed {
            let problem = match ceilings.and_then(|c| c.get(key)) {
                Some(&ceiling) if count > ceiling => format!(
                    "[{name}] {unit} `{key}` has {count} {what} in non-test code, above the \
                     baseline ceiling of {ceiling}; {}",
                    ratchet.advice
                ),
                None if count > 0 => format!(
                    "[{name}] {unit} `{key}` has {count} {what} but no entry in \
                     lint-baseline.toml; run `cargo run -p optinter-lint -- update-baseline` \
                     and commit the result"
                ),
                _ => continue,
            };
            problems.push((key.as_str(), problem));
        }
        problems
    }
}

/// Parses one root entry's quoted value. Only a cone that counts panic
/// sites takes ` +index`, which opts slice indexing in.
fn parse_root(lineno: usize, table: &Table, value: &str) -> Result<RootSpec, String> {
    let Some(s) = value
        .strip_prefix('"')
        .and_then(|v| v.split('"').next())
        .filter(|s| !s.is_empty())
    else {
        return Err(format!(
            "baseline line {lineno}: root value must be a non-empty quoted string, got \
             `{value}`"
        ));
    };
    let takes_index =
        matches!(&table.ratchet.unit, Unit::Root(c) if c.effects.contains(&Effect::Panics));
    let (pattern, index_strict) = match s.split_once(' ') {
        None => (s, false),
        Some((p, "+index")) if takes_index => (p, true),
        Some((_, flag)) if takes_index => {
            return Err(format!(
                "baseline line {lineno}: unknown panic-free root flag `{flag}` (recognised: \
                 +index)"
            ));
        }
        Some(_) => {
            return Err(format!(
                "baseline line {lineno}: root `{s}` in [{}] must be a bare fn path (no flags)",
                table.name
            ));
        }
    };
    Ok(RootSpec {
        pattern: pattern.to_string(),
        index_strict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratchet(table: &str) -> &'static Ratchet {
        RATCHETS
            .iter()
            .find(|r| r.table == table)
            .expect("known ratchet")
    }

    fn set_ceiling(b: &mut Baseline, table: &'static str, key: &str, ceiling: usize) {
        let ceilings = b.ceilings.entry(table).or_default();
        ceilings.insert(key.to_string(), ceiling);
    }

    fn set_root(b: &mut Baseline, table: &'static str, key: &str, pattern: &str, strict: bool) {
        let spec = RootSpec {
            pattern: pattern.to_string(),
            index_strict: strict,
        };
        b.roots
            .entry(table)
            .or_default()
            .insert(key.to_string(), spec);
    }

    #[test]
    fn roundtrips_through_toml() {
        let mut b = Baseline::default();
        set_ceiling(&mut b, "unwrap-expect", "core", 3);
        set_ceiling(&mut b, "unwrap-expect", "data", 0);
        set_ceiling(&mut b, "unsafe-sites", "tensor", 48);
        set_ceiling(&mut b, "unsafe-sites", "nn", 0);
        set_ceiling(&mut b, "hot-path-alloc", "nn", 0);
        set_ceiling(&mut b, "hot-path-alloc", "models", 7);
        set_root(
            &mut b,
            "hot-path-roots",
            "serve-score",
            "serve::scorer::FrozenScorer::score_into",
            false,
        );
        set_root(
            &mut b,
            "panic-free-roots",
            "artifact-decode",
            "serve::artifact::FrozenModel::from_bytes",
            true,
        );
        set_root(
            &mut b,
            "panic-free-roots",
            "serve-score",
            "serve::scorer::FrozenScorer::score_into",
            false,
        );
        set_ceiling(&mut b, "panic-free", "serve-score", 0);
        set_ceiling(&mut b, "panic-free", "artifact-decode", 2);
        set_root(
            &mut b,
            "determinism-roots",
            "optinter-train",
            "core::net::OptInterNet::train_batch",
            false,
        );
        set_ceiling(&mut b, "determinism-cone", "optinter-train", 0);
        set_root(
            &mut b,
            "no-block-roots",
            "serve-score",
            "serve::scorer::FrozenScorer::score_into",
            false,
        );
        set_ceiling(&mut b, "no-blocking-cone", "serve-score", 0);
        let text = b.to_toml();
        assert_eq!(Baseline::parse(&text).expect("parse"), b);
    }

    #[test]
    fn cone_tables_parse_and_check() {
        let b = Baseline::parse(
            "[determinism-roots]\nt = \"m::train\"\n\n[determinism-cone]\nt = 0\n\n\
             [no-block-roots]\ns = \"m::score\"\n\n[no-blocking-cone]\ns = 0\n",
        )
        .expect("parse");
        assert_eq!(b.roots["determinism-roots"]["t"].pattern, "m::train");
        assert_eq!(b.roots["no-block-roots"]["s"].pattern, "m::score");
        let mut observed = BTreeMap::new();
        observed.insert("t".to_string(), 0);
        let determinism = ratchet("determinism-cone");
        assert!(b.check(determinism, &observed).is_empty());
        observed.insert("t".to_string(), 2);
        let problems = b.check(determinism, &observed);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].1.contains("determinism-cone"), "{problems:?}");
        let mut blocks = BTreeMap::new();
        blocks.insert("s".to_string(), 1);
        let problems = b.check(ratchet("no-blocking-cone"), &blocks);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].1.contains("no-blocking-cone"), "{problems:?}");
        // Root tables reject flags — only panic-free-roots takes `+index`.
        assert!(Baseline::parse("[determinism-roots]\nt = \"m::f +index\"").is_err());
        assert!(Baseline::parse("[no-block-roots]\ns = 3").is_err());
    }

    #[test]
    fn check_unsafe_sites_flags_overages_and_missing_entries() {
        let mut b = Baseline::default();
        set_ceiling(&mut b, "unsafe-sites", "tensor", 2);
        let mut observed = BTreeMap::new();
        observed.insert("tensor".to_string(), 3);
        observed.insert("serve".to_string(), 1);
        observed.insert("core".to_string(), 0);
        let problems = b.check(ratchet("unsafe-sites"), &observed);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(
            problems.iter().any(|p| p.1.contains("`tensor` has 3")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.1.contains("`serve`") && p.1.contains("no entry")),
            "{problems:?}"
        );
    }

    #[test]
    fn roots_tables_are_omitted_when_empty() {
        let b = Baseline::default();
        let text = b.to_toml();
        // The header comment names every table; only emitted table headers
        // start at column 0.
        assert!(!text.contains("\n[hot-path-roots]"));
        assert!(!text.contains("\n[panic-free-roots]"));
        assert!(!text.contains("\n[panic-free]"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("[unwrap-expect\ncore = 1").is_err());
        assert!(Baseline::parse("[unwrap-expect]\ncore = many").is_err());
        assert!(Baseline::parse("[other]\ncore = 1").is_err());
        assert!(Baseline::parse("[unwrap-expect]\ncore = 1\ncore = 2").is_err());
        assert!(Baseline::parse("[hot-path-alloc]\nnn = 0\nnn = 1").is_err());
        // Root tables demand quoted strings, panic-free demands integers.
        assert!(Baseline::parse("[hot-path-roots]\na = 3").is_err());
        assert!(Baseline::parse("[hot-path-roots]\na = \"\"").is_err());
        assert!(Baseline::parse("[hot-path-roots]\na = \"x y\"").is_err());
        assert!(Baseline::parse("[panic-free-roots]\na = \"p +wat\"").is_err());
        assert!(Baseline::parse("[panic-free]\na = \"x\"").is_err());
        assert!(Baseline::parse("[panic-free-roots]\na = \"p\"\na = \"q\"").is_err());
    }

    #[test]
    fn index_flag_parses() {
        let b = Baseline::parse("[panic-free-roots]\nd = \"m::f +index\"\ns = \"m::g\"")
            .expect("parse");
        let roots = &b.roots["panic-free-roots"];
        assert!(roots["d"].index_strict);
        assert_eq!(roots["d"].pattern, "m::f");
        assert!(!roots["s"].index_strict);
    }

    #[test]
    fn check_flags_increases_and_missing_entries_only() {
        let b = Baseline::parse("[unwrap-expect]\ncore = 2\ndata = 1\n").expect("parse");
        let unwraps = ratchet("unwrap-expect");
        let mut observed = BTreeMap::new();
        observed.insert("core".to_string(), 2); // at ceiling: fine
        observed.insert("data".to_string(), 0); // below: fine
        assert!(b.check(unwraps, &observed).is_empty());
        observed.insert("core".to_string(), 3); // above: flagged
        observed.insert("nn".to_string(), 1); // missing entry: flagged
        let problems = b.check(unwraps, &observed);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn hot_path_alloc_table_is_checked_independently() {
        let b = Baseline::parse("[unwrap-expect]\nnn = 1\n\n[hot-path-alloc]\nnn = 0\n")
            .expect("parse");
        let mut unwraps = BTreeMap::new();
        unwraps.insert("nn".to_string(), 1);
        let mut allocs = BTreeMap::new();
        allocs.insert("nn".to_string(), 0);
        let check = |allocs: &BTreeMap<String, usize>| -> Vec<String> {
            let mut problems = b.check(ratchet("unwrap-expect"), &unwraps);
            problems.extend(b.check(ratchet("hot-path-alloc"), allocs));
            problems.into_iter().map(|p| p.1).collect()
        };
        assert!(check(&allocs).is_empty());
        allocs.insert("nn".to_string(), 2);
        let problems = check(&allocs);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("hot-path-alloc"), "{problems:?}");
    }

    #[test]
    fn panic_free_ratchet_flags_per_root() {
        let b = Baseline::parse("[panic-free-roots]\ns = \"m::f\"\n\n[panic-free]\ns = 0\n")
            .expect("parse");
        let panic_free = ratchet("panic-free");
        let mut observed = BTreeMap::new();
        observed.insert("s".to_string(), 0);
        assert!(b.check(panic_free, &observed).is_empty());
        observed.insert("s".to_string(), 1);
        let problems = b.check(panic_free, &observed);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].1.contains("panic-free"), "{problems:?}");
        // A root with sites but no ceiling entry is flagged too.
        let mut extra = BTreeMap::new();
        extra.insert("new-root".to_string(), 2);
        assert_eq!(b.check(panic_free, &extra).len(), 1);
    }
}
