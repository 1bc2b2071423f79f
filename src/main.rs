//! `optinter` — command-line interface to the OptInter pipeline.
//!
//! ```text
//! optinter stats    --profile criteo_like
//! optinter search   --profile tiny [--rows N] [--seed S] [--strategy joint|bilevel|random] [--out arch.txt]
//! optinter train    --profile tiny [--arch MMFN.. | --arch-file arch.txt | --uniform memorize] [--save model.bin]
//! optinter evaluate --profile tiny --load model.bin
//! optinter freeze   --profile tiny --load model.bin --out model.osa --quant int8
//! optinter serve    --profile tiny --load model.osa
//! ```
//!
//! Everything runs on synthetic profile data (deterministic per seed), so
//! the commands compose: `search` writes an architecture file, `train`
//! re-trains it from scratch and saves the model as an f32 serving
//! artifact, `evaluate` scores the held-out split through it, `freeze`
//! re-quantizes it behind an AUC gate, and `serve` load-tests any of
//! them. Each command takes the data flags and only the others
//! `COMMANDS` lists for it.

use optinter::core::arch::{architecture_from_string, architecture_to_string};
use optinter::core::{
    net::DataDims, search_architecture, train_fixed, Architecture, Method, OptInterConfig,
    SearchStrategy,
};
use optinter::data::{DatasetBundle, Profile};
use optinter::metrics::expected_calibration_error;
use optinter::tensor::kernels;

use optinter::serve::{
    freeze, freeze_gated, run_zipf_load, FrozenModel, FrozenScorer, LoadSpec, MicroBatchOptions,
    MonotonicClock, Quant,
};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// A command's name, the flags it takes besides [`DATA_FLAGS`] (without
/// their `--`), and what it runs.
type Command = (
    &'static str,
    &'static [&'static str],
    fn(&Options) -> Result<(), String>,
);

/// The flags every command takes: they pick its dataset.
const DATA_FLAGS: [&str; 3] = ["profile", "rows", "seed"];

const COMMANDS: [Command; 6] = [
    ("stats", &[], cmd_stats),
    ("search", &["strategy", "out"], cmd_search),
    (
        "train",
        &["arch", "arch-file", "uniform", "save"],
        cmd_train,
    ),
    ("evaluate", &["load"], cmd_evaluate),
    (
        "freeze",
        &["load", "out", "quant", "max-auc-delta"],
        cmd_freeze,
    ),
    (
        "serve",
        &[
            "load",
            "threads",
            "requests",
            "zipf",
            "max-batch",
            "deadline-us",
        ],
        cmd_serve,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(command.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let parsed = match COMMANDS.iter().find(|(name, ..)| name == command) {
        Some(&(name, flags, run)) => Options::parse(name, flags, rest).map(|opts| (opts, run)),
        None => Err(format!("unknown command `{command}`")),
    };
    let (opts, run) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
optinter — Memorize, Factorize, or be Naive (ICDE 2022) reproduction

USAGE:
  optinter stats    --profile <name> [--rows N] [--seed S]
  optinter search   --profile <name> [--rows N] [--seed S]
                    [--strategy joint|bilevel|random] [--out arch.txt]
  optinter train    --profile <name> [--rows N] [--seed S]
                    [--arch MFN.. | --arch-file f | --uniform memorize|factorize|naive]
                    [--save model.bin]
  optinter evaluate --profile <name> [--rows N] [--seed S] --load model.bin
  optinter freeze   --profile <name> [--rows N] [--seed S] --load model.bin
                    --out model.osa [--quant f32|f16|int8] [--max-auc-delta 0.001]
  optinter serve    --profile <name> [--rows N] [--seed S] --load model.bin
                    [--threads N] [--requests N] [--zipf S] [--max-batch N]
                    [--deadline-us U]

`train --save` writes an f32 serving artifact of the net after its last
epoch; `train` prints its best-validation epoch, up to two epochs earlier.
`evaluate`, `freeze` and `serve` read that file, and `evaluate` and `serve`
what `freeze` writes, under the data flags it was trained with. An unknown,
repeated or value-less flag, or one the command does not take, exits 2.

PROFILES: criteo_like, avazu_like, ipinyou_like, private_like, tiny";

struct Options {
    flags: HashMap<String, String>,
}

impl Options {
    /// Reads `--flag value` pairs, each a flag `command` takes, at most
    /// once.
    fn parse(command: &str, takes: &[&str], args: &[String]) -> Result<Self, String> {
        let mut flags = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{arg}`"))?;
            if !DATA_FLAGS.contains(&key) && !takes.contains(&key) {
                if COMMANDS.iter().any(|(_, flags, _)| flags.contains(&key)) {
                    return Err(format!("`{command}` does not take --{key}"));
                }
                return Err(format!("unknown flag --{key}"));
            }
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            if flags.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Self { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    fn profile(&self) -> Result<Profile, String> {
        let name = self.get("profile").ok_or("missing --profile")?;
        match name {
            "criteo_like" => Ok(Profile::CriteoLike),
            "avazu_like" => Ok(Profile::AvazuLike),
            "ipinyou_like" => Ok(Profile::IpinyouLike),
            "private_like" => Ok(Profile::PrivateLike),
            "tiny" => Ok(Profile::Tiny),
            other => Err(format!("unknown profile `{other}`")),
        }
    }

    fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(42),
            Some(s) => s.parse().map_err(|_| format!("bad --seed `{s}`")),
        }
    }

    fn bundle(&self) -> Result<DatasetBundle, String> {
        let profile = self.profile()?;
        let rows = match self.get("rows") {
            None => profile.default_rows(),
            Some(s) => s.parse().map_err(|_| format!("bad --rows `{s}`"))?,
        };
        eprintln!("generating {} ({rows} rows)...", profile.name());
        Ok(profile.bundle_with_rows(rows, self.seed()?))
    }

    fn config(&self) -> Result<OptInterConfig, String> {
        Ok(OptInterConfig {
            seed: self.seed()?,
            ..OptInterConfig::default()
        })
    }

    fn architecture(&self, num_pairs: usize) -> Result<Architecture, String> {
        let (source, text) = match (self.get("arch"), self.get("arch-file")) {
            (Some(s), _) => ("--arch", s.to_string()),
            (None, Some(path)) => (
                path,
                std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
            ),
            (None, None) => {
                let method = match self.get("uniform").unwrap_or("memorize") {
                    "memorize" => Method::Memorize,
                    "factorize" => Method::Factorize,
                    "naive" => Method::Naive,
                    other => return Err(format!("unknown --uniform method `{other}`")),
                };
                return Ok(Architecture::uniform(method, num_pairs));
            }
        };
        let arch = architecture_from_string(text.trim())?;
        if arch.num_pairs() != num_pairs {
            return Err(format!(
                "{source} has {} pairs, dataset has {num_pairs}",
                arch.num_pairs()
            ));
        }
        Ok(arch)
    }

    /// Reads the model file `--load` names, refuses it unless it was
    /// trained on data of `bundle`'s dimensions, and builds its scorer on
    /// `threads` threads: the one loader of `evaluate`, `freeze` and
    /// `serve`.
    fn model(
        &self,
        bundle: &DatasetBundle,
        threads: usize,
    ) -> Result<(FrozenModel, FrozenScorer), String> {
        let path = self.get("load").ok_or("missing --load")?;
        let model = FrozenModel::read_file(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        if model.dims != DataDims::of(&bundle.data) {
            return Err(format!(
                "{path} was trained on data of other dimensions: \
                 give the --profile, --rows and --seed it was trained with"
            ));
        }
        let scorer = FrozenScorer::new(&model, threads).map_err(|e| format!("{path}: {e}"))?;
        Ok((model, scorer))
    }
}

fn cmd_stats(opts: &Options) -> Result<(), String> {
    use optinter::data::stats::DatasetStats;
    let bundle = opts.bundle()?;
    let stats = DatasetStats::compute(&bundle);
    println!("{}", DatasetStats::header());
    println!("{}", DatasetStats::separator());
    println!("{}", stats.row());
    Ok(())
}

fn cmd_search(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let cfg = opts.config()?;
    let strategy = match opts.get("strategy").unwrap_or("joint") {
        "joint" => SearchStrategy::Joint,
        "bilevel" => SearchStrategy::BiLevel,
        "random" => SearchStrategy::Random { seed: cfg.seed },
        other => return Err(format!("unknown --strategy `{other}`")),
    };
    eprintln!("searching ({strategy:?})...");
    let outcome = search_architecture(&bundle, &cfg, strategy);
    let s = architecture_to_string(&outcome.architecture);
    println!(
        "architecture {} {}  (planted agreement {:.0}%)",
        outcome.architecture.counts_string(),
        s,
        100.0 * outcome.architecture.agreement_with(&bundle.planted)
    );
    if let Some(path) = opts.get("out") {
        std::fs::write(path, &s).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_train(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let cfg = opts.config()?;
    let arch = opts.architecture(bundle.data.num_pairs)?;
    eprintln!("training architecture {}...", arch.counts_string());
    let (mut net, report) = train_fixed(&bundle, &cfg, arch);
    println!(
        "test AUC {:.4}  log-loss {:.4}  params {}",
        report.auc, report.log_loss, report.num_params
    );
    if let Some(path) = opts.get("save") {
        freeze(&mut net, &bundle.data, Quant::F32)
            .write_file(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_evaluate(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let (_, mut scorer) = opts.model(&bundle, 1)?;
    let batch_size = OptInterConfig::default().batch_size;
    let (probs, labels) = scorer
        .score_rows(&bundle.data, bundle.split.test.clone(), batch_size)
        .map_err(|e| e.to_string())?;
    let eval = optinter::metrics::evaluate(&probs, &labels);
    let ece = expected_calibration_error(&probs, &labels, 10);
    println!(
        "test AUC {:.4}  log-loss {:.4}  ECE {:.4}  ({} examples)",
        eval.auc,
        eval.log_loss,
        ece,
        labels.len()
    );
    Ok(())
}

fn cmd_freeze(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let out = Path::new(opts.get("out").ok_or("missing --out")?);
    let quant = match opts.get("quant").unwrap_or("f32") {
        "f32" => Quant::F32,
        "f16" => Quant::F16,
        "int8" => Quant::Int8,
        other => return Err(format!("unknown --quant `{other}` (f32|f16|int8)")),
    };
    let max_auc_delta = match opts.get("max-auc-delta") {
        None => 0.001,
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad --max-auc-delta `{s}`"))?,
    };
    let (model, _) = opts.model(&bundle, 1)?;
    eprintln!(
        "freezing ({} rows of held-out eval data, {} kernels)...",
        bundle.split.test.len(),
        kernels::active().name()
    );
    let (frozen, delta) = freeze_gated(
        model,
        &bundle.data,
        bundle.split.test.clone(),
        quant,
        max_auc_delta,
    )
    .map_err(|e| e.to_string())?;
    frozen
        .write_file(out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let bytes = frozen.to_bytes().len();
    println!(
        "froze {} artifact ({} kernels): {} tensors, {} embedding rows hot-first, \
         AUC delta {delta:.6} (gate {max_auc_delta}), {bytes} bytes -> {}",
        quant.name(),
        frozen.backend.name(),
        frozen.tensors.len(),
        frozen.row_map.len(),
        out.display()
    );
    Ok(())
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    let bundle = opts.bundle()?;
    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        match opts.get(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|_| format!("bad --{key} `{s}`")),
        }
    };
    let threads = parse_usize("threads", 1)?;
    let requests = parse_usize("requests", 50_000)?;
    let max_batch = parse_usize("max-batch", 32)?;
    let deadline_us = parse_usize("deadline-us", 200)?;
    let zipf_s = match opts.get("zipf") {
        None => 1.05,
        Some(s) => s.parse().map_err(|_| format!("bad --zipf `{s}`"))?,
    };
    let (_, mut scorer) = opts.model(&bundle, threads)?;
    let clock = MonotonicClock::new();
    let mb = MicroBatchOptions {
        queue_slots: 2 * max_batch.max(1),
        max_batch,
        deadline_ns: deadline_us as u64 * 1_000,
    };
    let spec = LoadSpec {
        requests,
        zipf_s,
        seed: opts.seed()?,
        interarrival_ns: 0,
    };
    eprintln!(
        "serving {requests} Zipf(s={zipf_s}) requests, {threads} thread(s), \
         max batch {max_batch}, deadline {deadline_us}us, {} kernels \
         (artifact frozen with {})...",
        scorer.backend().name(),
        scorer.frozen_backend().name()
    );
    let report = run_zipf_load(&mut scorer, &bundle.data, &clock, &mb, &spec);
    let s = report.summary();
    println!(
        "scored {} requests, {} failed: p50 {:.1}us  p99 {:.1}us  p999 {:.1}us  {:.0} rows/s",
        s.count,
        s.failed,
        s.p50_ns / 1_000.0,
        s.p99_ns / 1_000.0,
        s.p999_ns / 1_000.0,
        s.rows_per_sec
    );
    if s.failed > 0 {
        return Err(format!(
            "{} of {requests} requests failed (answered NaN)",
            s.failed
        ));
    }
    Ok(())
}
