//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section on the synthetic substrate.
//!
//! One binary per experiment (see `src/bin/`):
//!
//! | binary    | reproduces | what it prints |
//! |-----------|------------|----------------|
//! | `table2`  | Table II   | dataset statistics for the four profiles |
//! | `table5`  | Table V    | AUC / log-loss / params for every model on every profile (plus Table VI counts) |
//! | `table6`  | Table VI   | `[memorize, factorize, naive]` selection per model |
//! | `table7`  | Table VII  | equal-parameter comparison vs enlarged baselines |
//! | `table8`  | Table VIII | Random vs Bi-level vs OptInter search |
//! | `table9`  | Table IX   | with vs without re-train |
//! | `figure4` | Fig. 4     | params-vs-AUC trade-off series |
//! | `figure5` | Fig. 5     | mean mutual information per selected method |
//! | `figure6` | Fig. 6     | MI heat-map and selection map |
//! | `all`     | everything | runs the full suite sequentially |
//!
//! Each binary accepts `--rows N` (dataset size), `--seed S`, `--repeats
//! R`, `--threads T` and `--quick` (shrink everything for a smoke run),
//! and exits with the usage on anything else ([`ExpOptions::parse`]).
//! OptInter and the baseline zoo take one config per profile,
//! [`optinter_config`]. Results are printed as markdown and appended as
//! JSON to `results/` for EXPERIMENTS.md bookkeeping.

#![forbid(unsafe_code)]

pub mod configs;
pub mod experiments;
pub mod perf;
pub mod report;
pub mod runner;

pub use configs::{optinter_config, ExpOptions};
pub use report::{render_table, save_json, Table};
pub use runner::{run_baseline_row, run_optinter_rows, Row};
