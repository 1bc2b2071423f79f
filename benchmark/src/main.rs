//! End-to-end and per-layer benchmark of the OptInter workspace.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload (see `BENCHMARK.json` and the README next to this
//! file) in this process, checks its outputs, prints one `name value unit`
//! line per metric and, last, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics and writes every span to
//! `.bench_trace/<workload>.jsonl`. The exit code is 0 only when every
//! check passed.

mod calib;
mod data;
mod layers;
mod registry;
mod serve;
mod stats;
mod trace;
mod train;

use registry::{Output, Report, Workload};
use std::path::Path;
use std::process::ExitCode;
use trace::Tracer;

/// Seconds one run measures unless `--seconds` says otherwise; the value
/// `BENCHMARK.json` declares.
pub const RUN_SECONDS: u64 = 25;

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

/// Span buffer size. A traced run records at most about 150k spans: the
/// serving ladder keeps 20k request spans per rate.
const SPAN_CAPACITY: usize = 1 << 18;

/// Traced runs fail below this share of their wall time inside spans.
const MIN_COVERAGE: f64 = 0.95;

const USAGE: &str =
    "usage: benchmark --workload search_criteo|retrain_avazu|giant_hashed|serve_criteo \
     [--seed N] [--seconds S] [--trace 0|1]";

/// Quality floors a run must reach to count as correct.
pub struct Floors {
    pub search_auc: f64,
    pub retrain_auc: f64,
    pub giant_auc: f64,
    pub serve_auc: f64,
}

/// Input sizes and repetition counts of every workload.
pub struct Sizes {
    pub search_rows: usize,
    pub retrain_rows: usize,
    pub giant_rows: usize,
    pub serve_rows: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Calls per layer twin.
    pub twin_steps: usize,
    /// Closed-loop `score_into` calls per batch size.
    pub score_calls: usize,
    pub floors: Floors,
}

impl Sizes {
    /// The benchmark's sizes: on a 2-vCPU machine each training stage call
    /// takes 2-3 s, so a 25 s run makes about six replays of it.
    pub const FULL: Sizes = Sizes {
        search_rows: 75_000,
        retrain_rows: 120_000,
        giant_rows: 120_000,
        serve_rows: 60_000,
        setups: 5,
        twin_steps: 64,
        score_calls: 2_000,
        floors: Floors {
            search_auc: 0.77,
            retrain_auc: 0.88,
            giant_auc: 0.80,
            serve_auc: 0.78,
        },
    };
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// `xs` as a comma-separated list, for note lines.
pub fn list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    items.join(",")
}

/// CPU time the hypervisor gave to other guests (`steal`) and all CPU
/// time so far, in clock ticks, from the first line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Runs one workload and returns its finished report.
fn run(args: &Args, sizes: &Sizes, trace_dir: &Path) -> Result<Output, String> {
    let ticks_before = cpu_ticks();
    let w = args.workload;
    let mut tracer = Tracer::new(args.trace, SPAN_CAPACITY);
    let mut report = Report::new(w, args.trace);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Serving keeps two threads busy: the spinning client and the batcher.
    let threads = if w == Workload::ServeCriteo {
        2
    } else {
        train::THREADS
    };
    report.note("workload", w.name());
    report.note("seed", args.seed);
    report.note("cores", cores);
    report.note("backend", optinter_tensor::kernels::active().name());
    report.note("threads", threads);
    report.note("oversubscribed", threads > cores);

    if w == Workload::ServeCriteo {
        serve::run(args.seed, args.seconds, sizes, &mut tracer, &mut report)?;
    } else {
        train::run(w, args.seed, args.seconds, sizes, &mut tracer, &mut report);
    }

    // A machine shared with other guests loses time to them; this share,
    // over the run, says whether a slow run was the code or the machine.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = trace::ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64);
        report.note("steal_share", format!("{share:.4}"));
    }
    if tracer.enabled() {
        let coverage = tracer.coverage(tracer.now_ns());
        report.set("trace.coverage", coverage);
        report.set("trace.spans", tracer.spans().len() as f64);
        report.check(
            format!("trace.coverage {coverage:.4} >= {MIN_COVERAGE}"),
            coverage >= MIN_COVERAGE,
        );
        report.check("no span was dropped", tracer.dropped() == 0);
        let path = trace_dir.join(format!("{}.jsonl", w.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.note("spans_file", path.display());
    }
    Ok(report.finish())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args, &Sizes::FULL, Path::new(TRACE_DIR)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (key, value) in &out.notes {
        println!("{key} {value}");
    }
    for (name, ok) in &out.checks {
        println!("check {} {name}", if *ok { "ok" } else { "FAILED" });
    }
    for (m, value) in &out.metrics {
        println!("{} {value} {}", m.name, m.unit);
    }
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes small enough for `cargo test`, with floors only chance-level
    /// models could miss.
    const TEST: Sizes = Sizes {
        search_rows: 3_000,
        retrain_rows: 3_000,
        giant_rows: 3_000,
        serve_rows: 3_000,
        setups: 2,
        twin_steps: 6,
        score_calls: 20,
        floors: Floors {
            search_auc: 0.5,
            retrain_auc: 0.5,
            giant_auc: 0.5,
            serve_auc: 0.5,
        },
    };

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(strings(&[
            "--workload",
            "serve_criteo",
            "--seed",
            "7",
            "--seconds",
            "16",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(
            a,
            Args {
                workload: Workload::ServeCriteo,
                seed: 7,
                seconds: 16.0,
                trace: true
            }
        );
        let d = parse_args(strings(&["--workload", "giant_hashed"])).expect("defaults");
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (42, RUN_SECONDS as f64, false)
        );
    }

    /// The setting lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// This package has a workspace of its own, which the root's release
    /// profile does not reach; its copy must not drift from the root's.
    #[test]
    fn release_profile_matches_the_workspace_root() {
        let root = release_profile(include_str!("../../Cargo.toml"));
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(release_profile(include_str!("../Cargo.toml")), root);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &[][..],
            &["--workload", "nope"],
            &["--workload", "search_criteo", "--trace", "yes"],
            &["--workload", "search_criteo", "--seconds", "0"],
            &["--workload", "search_criteo", "--seed"],
            &["--workload", "search_criteo", "--frobnicate", "1"],
        ] {
            assert!(parse_args(strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// Every workload, untraced and traced, at test sizes: all checks pass
    /// and every end-to-end metric is positive.
    #[test]
    fn every_workload_runs_at_test_sizes() {
        let dir = std::env::temp_dir().join(format!("benchmark-test-{}", std::process::id()));
        for w in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload: w,
                    seed: 7,
                    seconds: 0.4,
                    trace,
                };
                let out = run(&args, &TEST, &dir).expect("run completes");
                let failed: Vec<&String> = out
                    .checks
                    .iter()
                    .filter(|(_, ok)| !ok)
                    .map(|(c, _)| c)
                    .collect();
                assert!(out.correct, "{} trace={trace}: {failed:?}", w.name());
                assert!(out.attempted > 0 && out.failed == 0, "{}", w.name());
                assert_eq!(out.metrics.len(), registry::table(trace).len());
                if !trace {
                    for (m, v) in &out.metrics {
                        assert!(*v > 0.0, "{} {} = {v}", w.name(), m.name);
                    }
                }
            }
            assert!(dir.join(format!("{}.jsonl", w.name())).is_file());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
