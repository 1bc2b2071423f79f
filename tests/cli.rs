//! The command-line pipeline end to end, on the tiny profile: `search`
//! writes an architecture file, `train --save` re-trains it and saves the
//! weights, `evaluate` reloads them, `freeze --quant int8` writes a
//! serving artifact from the weights and their `.arch` side-file, and
//! `serve` scores requests from the artifact. Each command runs in one
//! fresh directory, must exit 0 and must print its summary line.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let name = format!("optinter-cli-{}", std::process::id());
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

/// Runs `optinter <command>` (split at spaces) on 1,200 tiny rows at
/// seed 3 in `dir`, asserts that it exits 0, and returns its stdout.
fn optinter(dir: &Path, command: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_optinter"))
        .args(command.split(' '))
        .args(["--profile", "tiny", "--rows", "1200", "--seed", "3"])
        .current_dir(dir)
        .output()
        .expect("the optinter binary starts");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "optinter {command}: {}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The number after `test AUC ` in `line`.
fn test_auc(line: &str) -> f64 {
    let rest = line.strip_prefix("test AUC ").expect("an AUC line");
    let value = rest.split_whitespace().next().expect("an AUC value");
    value.parse().expect("the AUC parses")
}

#[test]
fn search_train_evaluate_freeze_serve() {
    let tmp = TempDir::new();
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
    assert!(dir.join("model.bin").is_file() && dir.join("model.arch").is_file());

    let out = optinter(dir, "evaluate --load model.bin --arch-file arch.txt");
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
    assert!(dir.join("model.osa").is_file());

    let out = optinter(dir, "serve --load-artifact model.osa --requests 2000");
    assert!(out.starts_with("scored 2000 requests: p50 "), "{out}");
    assert!(out.trim_end().ends_with(" rows/s"), "{out}");
}
