//! Substrate performance baseline: fixed-seed kernel and train-step
//! throughput, appended to `results/BENCH_substrate.json`.
//!
//! This binary exists to leave a *committed trajectory*: every
//! perf-focused PR runs it before and after and appends a labelled entry,
//! so regressions and wins stay visible in-repo. The workload is fixed:
//! the matmul shapes of a batch-256 MLP step (including the 256x720x64
//! forward product), the sparse embedding accumulate/update path, the
//! embedding-scale section (dense vs compositional hashed stores and
//! dense-apply vs lazy Adam over a 10^7 key space, plus dense-vs-hashed
//! train-step AUC on the giant_vocab profile), one full training step of
//! the search-stage supernet and the fixed-architecture OptInterNet at 1,
//! 2 and 4 threads, and the input pipeline on the AvazuLike profile
//! (the whole encode against the historical HashMap encoder, batch
//! assembly, and full epochs with/without the prefetching stream).
//!
//! Usage: `cargo run --release -p optinter-bench --bin perf -- [--quick]
//! [--label NAME] [--out PATH] [--no-prefetch] [--check-against PATH]
//! [--backend scalar|avx2fma]`.
//! `--quick` shrinks iteration counts to a smoke run (seconds, used by CI
//! to catch kernels that panic on odd shapes); the JSON is still written.
//! `--no-prefetch` runs the epoch measurements without assembly/compute
//! overlap (the stream rows are then labelled `stream_serial`), for A/B
//! comparisons. `--check-against PATH` reads the last entry of PATH (the
//! committed trajectory) before measuring, failing at once if it is
//! malformed, and exits non-zero when a gated row's `rows_per_sec` (every
//! train step, the `single_request` serve rows and the
//! `lookup_grad@`/`adam_apply@` embedding-scale rows; `GATED` in
//! `perf.rs`) lands more than 10% below the row with the same section, key
//! and threads there (30% where the threads exceed the cores), in the run
//! and in its one re-measure, so CI catches throughput regressions, not
//! just panics. `--backend` forces the kernel backend for the train/input/serve
//! sections (the per-backend kernel section always measures every
//! supported backend); the selection is recorded in the entry's `backend`
//! field. CI gates with `--backend scalar` so the committed train/serve
//! rows stay comparable across hosts.

use optinter_bench::perf::{self, PerfOptions};

fn main() {
    let mut opts = PerfOptions::default();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--no-prefetch" => opts.prefetch = false,
            "--label" => {
                if let Some(v) = args.get(i + 1) {
                    opts.label = v.clone();
                    i += 1;
                }
            }
            "--out" => {
                if let Some(v) = args.get(i + 1) {
                    opts.out = v.clone();
                    i += 1;
                }
            }
            "--check-against" => {
                if let Some(v) = args.get(i + 1) {
                    opts.check_against = Some(v.clone());
                    i += 1;
                }
            }
            "--backend" => {
                if let Some(v) = args.get(i + 1) {
                    opts.backend = Some(v.clone());
                    i += 1;
                }
            }
            other => eprintln!("perf: ignoring unknown flag {other}"),
        }
        i += 1;
    }
    if let Err(e) = perf::run(&opts) {
        eprintln!("perf: FAILED: {e}");
        std::process::exit(1);
    }
}
