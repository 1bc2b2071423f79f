//! The command-line pipeline end to end, on the tiny profile, through one
//! model file: `search` writes an architecture file, `train --save`
//! re-trains it and saves the f32 serving artifact, `evaluate` scores the
//! held-out split through it, `freeze --quant int8` re-quantizes it, and
//! `serve` scores requests from both files. Each test runs in a fresh
//! directory. The loader's refusals, the flag parser's and the kernel
//! backends' agreement on the model file are checked on the built binary
//! too.

use optinter::serve::FrozenModel;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> Self {
        let name = format!("optinter-cli-{}-{test}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the temp dir");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The data flags every command below runs with: 1,200 tiny rows at seed 3.
const DATA: [&str; 6] = ["--profile", "tiny", "--rows", "1200", "--seed", "3"];

/// Runs `optinter <args>` (split at spaces) in `dir` with the kernel
/// backend `backend` forces, or the detected one for `None`.
fn run(dir: &Path, args: &str, backend: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_optinter"));
    cmd.args(args.split(' ')).current_dir(dir);
    match backend {
        Some(b) => cmd.env("OPTINTER_KERNEL_BACKEND", b),
        None => cmd.env_remove("OPTINTER_KERNEL_BACKEND"),
    };
    cmd.output().expect("the optinter binary starts")
}

/// Runs `optinter <command>` on [`DATA`] in `dir`, asserts that it exits
/// 0, and returns its stdout.
fn optinter(dir: &Path, command: &str) -> String {
    optinter_on(dir, command, None)
}

/// [`optinter`] under the kernel backend `backend` forces.
fn optinter_on(dir: &Path, command: &str, backend: Option<&str>) -> String {
    let out = run(dir, &format!("{command} {}", DATA.join(" ")), backend);
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "optinter {command}: {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Runs `optinter <args>` in `dir`, asserts that it exits with `code`,
/// and returns its stderr.
fn optinter_fails(dir: &Path, args: &str, code: i32) -> String {
    let out = run(dir, args, None);
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert_eq!(
        out.status.code(),
        Some(code),
        "optinter {args}\nstderr:\n{stderr}"
    );
    stderr
}

/// The number after `test AUC ` in `line`.
fn test_auc(line: &str) -> f64 {
    let rest = line.strip_prefix("test AUC ").expect("an AUC line");
    let value = rest.split_whitespace().next().expect("an AUC value");
    value.parse().expect("the AUC parses")
}

/// The file names in `dir`, sorted.
fn files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read the temp dir")
        .map(|e| {
            e.expect("a dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn search_train_evaluate_freeze_serve() {
    let tmp = TempDir::new("pipeline");
    let dir = tmp.0.as_path();

    let out = optinter(dir, "search --out arch.txt");
    assert!(out.starts_with("architecture ["), "{out}");
    assert!(out.contains("(planted agreement "), "{out}");
    let arch = std::fs::read_to_string(dir.join("arch.txt")).expect("arch.txt");
    // Tiny has 6 fields, so 15 pairs, one method letter each.
    assert_eq!(arch.len(), 15, "{arch}");
    assert!(arch.chars().all(|c| "MFN".contains(c)), "{arch}");

    let out = optinter(dir, "train --arch-file arch.txt --save model.bin");
    assert!(
        out.contains("  log-loss ") && out.contains("  params "),
        "{out}"
    );
    let auc = test_auc(&out);
    assert!(auc > 0.5 && auc <= 1.0, "{out}");
    // One model file: no `.arch` side-file, no temp file left behind.
    assert_eq!(files(dir), ["arch.txt", "model.bin"]);

    let out = optinter(dir, "evaluate --load model.bin");
    assert!(
        out.contains("  ECE ") && out.ends_with("examples)\n"),
        "{out}"
    );
    let auc = test_auc(&out);
    assert!(auc > 0.5 && auc <= 1.0, "{out}");

    let out = optinter(dir, "freeze --load model.bin --out model.osa --quant int8");
    assert!(out.starts_with("froze int8 artifact ("), "{out}");
    assert!(
        out.contains("AUC delta ") && out.ends_with("-> model.osa\n"),
        "{out}"
    );
    assert_eq!(files(dir), ["arch.txt", "model.bin", "model.osa"]);

    for model in ["model.bin", "model.osa"] {
        let out = optinter(dir, &format!("serve --load {model} --requests 2000"));
        assert!(
            out.starts_with("scored 2000 requests, 0 failed: p50 "),
            "{model}: {out}"
        );
        assert!(out.trim_end().ends_with(" rows/s"), "{model}: {out}");
    }

    // An int8 model is not re-quantized: int8 rows do not survive it.
    let data = DATA.join(" ");
    let err = optinter_fails(
        dir,
        &format!("freeze --load model.osa --out again.osa --quant f16 {data}"),
        1,
    );
    assert!(err.contains("already int8-quantized"), "{err}");

    // A dataset of other dimensions is refused, whatever reads the file.
    for command in [
        "evaluate --load model.bin",
        "freeze --load model.bin --out other.osa",
        "serve --load model.bin --requests 10",
    ] {
        let args = format!("{command} --profile tiny --rows 1300 --seed 3");
        let err = optinter_fails(dir, &args, 1);
        assert!(
            err.contains("model.bin was trained on data of other"),
            "{err}"
        );
    }

    // A truncated model file is an artifact error (status 1), not a panic.
    let bytes = std::fs::read(dir.join("model.bin")).expect("model.bin");
    std::fs::write(dir.join("cut.bin"), &bytes[..bytes.len() / 2]).expect("write cut.bin");
    for command in [
        "evaluate --load cut.bin",
        "freeze --load cut.bin --out cut.osa",
        "serve --load cut.bin --requests 10",
    ] {
        let err = optinter_fails(dir, &format!("{command} {data}"), 1);
        assert!(err.contains("error: cut.bin: artifact "), "{err}");
    }
    assert_eq!(
        files(dir),
        ["arch.txt", "cut.bin", "model.bin", "model.osa"]
    );
}

#[test]
fn flags_the_command_cannot_read_exit_with_status_2() {
    let tmp = TempDir::new("flags");
    let dir = tmp.0.as_path();
    let data = DATA.join(" ");
    for (args, error) in [
        (format!("train {data} --sav typo.bin"), "unknown flag --sav"),
        (format!("train {data} --seed 4"), "flag --seed given twice"),
        (format!("train {data} --save"), "flag --save needs a value"),
        (
            format!("train --save --rows 1200 {data}"),
            "flag --save needs a value",
        ),
        (
            format!("evaluate {data} --load model.bin --arch-file arch.txt"),
            "`evaluate` does not take --arch-file",
        ),
        (
            format!("freeze {data} --load model.bin --arch MFN --out m.osa"),
            "`freeze` does not take --arch",
        ),
        (
            format!("serve {data} --load-artifact model.osa"),
            "unknown flag --load-artifact",
        ),
        (
            format!("stats {data} --out stats.txt"),
            "`stats` does not take --out",
        ),
        (
            format!("train {data} extra"),
            "expected a --flag, got `extra`",
        ),
        (format!("frobnicate {data}"), "unknown command `frobnicate`"),
    ] {
        let err = optinter_fails(dir, &args, 2);
        assert!(
            err.starts_with(&format!("error: {error}\n")) && err.contains("USAGE:"),
            "optinter {args}\nstderr:\n{err}"
        );
    }
    // Nothing ran, so nothing was written.
    assert!(files(dir).is_empty(), "{:?}", files(dir));
}

#[test]
fn model_file_is_the_same_on_both_kernel_backends() {
    let tmp = TempDir::new("backends");
    let dir = tmp.0.as_path();
    let mut evaluated = Vec::new();
    let mut models = Vec::new();
    for (backend, file) in [(None, "detected.bin"), (Some("scalar"), "scalar.bin")] {
        optinter_on(dir, &format!("train --save {file}"), backend);
        evaluated.push(optinter_on(
            dir,
            &format!("evaluate --load {file}"),
            backend,
        ));
        let bytes = std::fs::read(dir.join(file)).expect("the model file");
        models.push(FrozenModel::from_bytes(&bytes).expect("the model file decodes"));
    }
    assert_eq!(
        evaluated[0], evaluated[1],
        "evaluate differs across backends"
    );
    // The model files differ at most in the byte naming the backend that
    // saved them, and so in the checksum.
    let mut scalar = models.pop().expect("the scalar model");
    let detected = models.pop().expect("the detected model");
    scalar.backend = detected.backend;
    assert!(
        scalar.to_bytes() == detected.to_bytes(),
        "the model files differ in more than their backend byte"
    );
}
