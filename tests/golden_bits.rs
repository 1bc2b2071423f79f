//! Golden bits: a small run of every training, search and serving surface
//! prints its results as bit patterns, and the lines must equal
//! `tests/golden_bits.txt` byte for byte, at 1 and 2 threads and on both
//! kernel backends. The file ends with one line per data profile: its
//! generator's bias and the digests of 2,000 generated rows and of their
//! encoding. A change that means to move no bit leaves the file as it is;
//! one that means to move bits regenerates it and says why.
//!
//! Regenerate with
//! `cargo test --release --test golden_bits -- --ignored`.
//!
//! The bits also depend on the host's libm: training, serving and data
//! generation call its `exp`, `ln`, `ln_1p`, `tanh`, `powf`, `sin` and
//! `cos`. The file's first line fingerprints those functions over a fixed
//! grid. On a host whose fingerprint differs, the test prints both
//! fingerprints and compares nothing else.
//!
//! Every surface runs inside one `#[test]`, because the kernel backend is
//! a process-wide switch.

use optinter_core::arch::architecture_to_string;
use optinter_core::trainer::evaluate_supernet;
use optinter_core::{
    joint_search_supernet, run_two_stage, search_architecture, train_fixed, Architecture, FactFn,
    Method, OptInterConfig, SearchStrategy, TrainReport,
};
use optinter_data::{BatchIter, DatasetBundle, EncodedDataset, Profile, Split, SyntheticGenerator};
use optinter_models::autofis::run_autofis;
use optinter_models::{build_model, run_model, ModelKind};
use optinter_nn::{EmbedOptimizerMode, StoreKind};
use optinter_serve::{freeze, FrozenScorer, Quant};
use optinter_tensor::kernels::{self, Backend};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_bits.txt");

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_u32(values: &[u32]) -> u64 {
    values
        .iter()
        .fold(FNV_START, |h, v| fnv1a(h, &v.to_le_bytes()))
}

fn digest_f32(values: &[f32]) -> u64 {
    values
        .iter()
        .fold(FNV_START, |h, v| fnv1a(h, &v.to_le_bytes()))
}

/// The host libm's f32 `exp`, `ln`, `ln_1p`, `tanh`, `powf`, `sin` and
/// `cos` and f64 `powf`, each over 65,536 inputs, as one digest line.
fn libm_line() -> String {
    const N: usize = 1 << 16;
    let mut h = FNV_START;
    let mut f32s = |f: &dyn Fn(f32) -> f32, lo: f32, hi: f32| {
        for k in 0..N {
            let x = lo + (hi - lo) * (k as f32 / N as f32);
            h = fnv1a(h, &f(x).to_bits().to_le_bytes());
        }
    };
    f32s(&|x| x.exp(), -88.0, 88.0);
    f32s(&|x| x.ln(), 1e-6, 64.0);
    f32s(&|x| x.ln_1p(), -0.999, 64.0);
    f32s(&|x| x.tanh(), -10.0, 10.0);
    f32s(&|x| (x * 0.5).powf(x - 3.0), 0.01, 6.0);
    f32s(&|x| x.sin(), 0.0, 6.3);
    f32s(&|x| x.cos(), 0.0, 6.3);
    for k in 0..N {
        let v = 1.0 + k as f64;
        h = fnv1a(
            h,
            &v.powf(1.07 + (k % 7) as f64 * 0.05).to_bits().to_le_bytes(),
        );
    }
    format!("libm {h:016x}")
}

/// An AUC and a log-loss as their f64 bits.
fn eval_cols(auc: f64, log_loss: f64) -> String {
    format!("auc={:016x} ll={:016x}", auc.to_bits(), log_loss.to_bits())
}

/// A report's line, ending in ` arch=..` when it has an architecture.
fn report_line(out: &mut String, tag: &str, r: &TrainReport) {
    let arch = r.architecture.as_ref().map_or(String::new(), |a| {
        format!(" arch={}", architecture_to_string(a))
    });
    let _ = writeln!(
        out,
        "{tag} {} loss={:08x} params={}{arch}",
        eval_cols(r.auc, r.log_loss),
        r.final_train_loss.to_bits(),
        r.num_params
    );
}

/// Every pair's method in turn: memorize, factorize, naïve.
fn mixed_arch(num_pairs: usize) -> Architecture {
    Architecture::new((0..num_pairs).map(|p| Method::from_index(p % 3)).collect())
}

/// The golden lines of one run at `threads` threads on the active backend.
fn golden_lines(bundle: &DatasetBundle, threads: usize) -> String {
    let mut out = libm_line();
    out.push('\n');

    let base = OptInterConfig {
        num_threads: threads,
        retrain_epochs: 2,
        ..OptInterConfig::test_small()
    };
    for kind in ModelKind::all() {
        let mut model = build_model(kind, &base, &bundle.data);
        let report = run_model(model.as_mut(), bundle, &base);
        report_line(&mut out, &format!("zoo {}", kind.name()), &report);
    }
    let (report, [m, f, n]) = run_autofis(bundle, &base);
    report_line(&mut out, &format!("autofis m{m}/f{f}/n{n}"), &report);

    let cfg = OptInterConfig {
        seed: 9,
        num_threads: threads,
        retrain_epochs: 2,
        ..OptInterConfig::test_small()
    };
    let generalized = cfg.with_fact_fn(FactFn::Generalized);
    let arch = mixed_arch(bundle.data.num_pairs);
    let (mut net, report) = train_fixed(bundle, &generalized, arch.clone());
    report_line(&mut out, "fixed generalized", &report);
    let hashed = generalized
        .with_stores(
            StoreKind::HashedQr { bucket: 13 },
            StoreKind::HashedDouble { rows: 37 },
        )
        .with_embed_opt(EmbedOptimizerMode::LazyCatchUp);
    let (_, report) = train_fixed(bundle, &hashed, arch);
    report_line(&mut out, "fixed hashed-lazy", &report);

    for (tag, strategy) in [
        ("joint", SearchStrategy::Joint),
        ("bilevel", SearchStrategy::BiLevel),
        ("random", SearchStrategy::Random { seed: 4 }),
    ] {
        let s = search_architecture(bundle, &cfg, strategy);
        let _ = writeln!(
            out,
            "search {tag} loss={:08x} params={} arch={}",
            s.final_loss.to_bits(),
            s.supernet_params,
            architecture_to_string(&s.architecture)
        );
    }
    let (mut supernet, outcome) = joint_search_supernet(bundle, &generalized);
    let test = bundle.split.test.clone();
    let eval = evaluate_supernet(&mut supernet, bundle, test.clone(), 64, cfg.tau.end);
    let _ = writeln!(
        out,
        "supernet {} loss={:08x} params={} arch={}",
        eval_cols(eval.auc, eval.log_loss),
        outcome.final_loss.to_bits(),
        outcome.supernet_params,
        architecture_to_string(&outcome.architecture)
    );
    let report = run_two_stage(bundle, &cfg, SearchStrategy::Joint);
    report_line(&mut out, "two-stage", &report);

    for (tag, quant) in [("f32", Quant::F32), ("int8", Quant::Int8)] {
        let mut frozen = freeze(&mut net, &bundle.data, quant);
        // The one field that names the backend the model was frozen on.
        frozen.backend = Backend::Scalar;
        let bytes = frozen.to_bytes();
        let mut scorer = FrozenScorer::new(&frozen, threads).expect("frozen model loads");
        let (mut probs, mut scored) = (Vec::new(), Vec::new());
        for batch in BatchIter::new(&bundle.data, test.clone(), 64, None).with_cross(true) {
            scorer.score_into(&batch, &mut scored).expect("valid batch");
            probs.extend_from_slice(&scored);
        }
        let _ = writeln!(
            out,
            "artifact {tag} bytes={:016x} len={} probs={:016x} rows={}",
            fnv1a(FNV_START, &bytes),
            bytes.len(),
            digest_f32(&probs),
            probs.len()
        );
    }
    out
}

/// One line per profile: the calibrated bias and the digests of the rows,
/// labels and logits of `generate(2_000, 7)`, then of those rows encoded
/// (`fields`, `cross`, and the field and pair vocabulary sizes) with the
/// vocabularies built on the 70 % training split at the profile's
/// `min_count`. Generation and encoding take no pool and no kernel
/// backend, so these lines are computed once per run.
fn data_lines() -> String {
    let mut out = String::new();
    for profile in [
        Profile::CriteoLike,
        Profile::AvazuLike,
        Profile::IpinyouLike,
        Profile::PrivateLike,
        Profile::Tiny,
        Profile::GiantVocab,
    ] {
        let gen = SyntheticGenerator::new(profile.spec());
        let data = gen.generate(2_000, 7);
        let train = Split::fractions(2_000, 0.7, 0.1).train;
        let encoded = EncodedDataset::encode(&data, train, profile.min_count());
        let _ = writeln!(
            out,
            "data {} bias={:08x} rows={:016x} labels={:016x} logits={:016x} \
             fields={:016x} cross={:016x} field_sizes={:016x} pair_sizes={:016x}",
            profile.name(),
            gen.bias().to_bits(),
            digest_u32(&data.rows),
            fnv1a(FNV_START, &data.labels),
            digest_f32(&data.logits),
            digest_u32(&encoded.fields),
            digest_u32(&encoded.cross),
            digest_u32(&encoded.field_vocab_sizes),
            digest_u32(&encoded.pair_vocab_sizes)
        );
    }
    out
}

fn bundle() -> DatasetBundle {
    Profile::Tiny.bundle_with_rows(1_200, 7)
}

#[test]
fn every_surface_reproduces_the_golden_bits() {
    let want = std::fs::read_to_string(GOLDEN).expect("tests/golden_bits.txt is readable");
    let host = libm_line();
    let recorded = want.lines().next().unwrap_or("");
    if recorded != host {
        println!(
            "::warning::golden bits not compared: this host's libm fingerprint `{host}` \
             differs from the recorded `{recorded}`"
        );
        return;
    }
    let bundle = bundle();
    let data = data_lines();
    let default = kernels::active();
    let mut backends = vec![default];
    if default != Backend::Scalar {
        backends.push(Backend::Scalar);
    }
    for &backend in &backends {
        kernels::set_active(backend);
        for threads in [1, 2] {
            let got = golden_lines(&bundle, threads) + &data;
            print!("{}", got);
            let diff: Vec<String> = want
                .lines()
                .zip(got.lines())
                .filter(|(w, g)| w != g)
                .map(|(w, g)| format!("  want {w}\n  got  {g}"))
                .collect();
            assert!(
                diff.is_empty() && want.lines().count() == got.lines().count(),
                "{} at {threads} thread(s): {} line(s) differ from {GOLDEN} \
                 ({} lines recorded, {} produced):\n{}",
                backend.name(),
                diff.len(),
                want.lines().count(),
                got.lines().count(),
                diff.join("\n")
            );
        }
    }
    kernels::set_active(default);
}

#[test]
#[ignore = "rewrites tests/golden_bits.txt; run with --ignored"]
fn regenerate_golden_bits() {
    let lines = golden_lines(&bundle(), 1) + &data_lines();
    std::fs::write(GOLDEN, lines).expect("tests/golden_bits.txt is writable");
}
