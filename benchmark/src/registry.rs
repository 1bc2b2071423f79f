//! Workloads, the metric registry `BENCHMARK.json` mirrors, and the report
//! a run fills in.

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Joint supernet search on `criteo_like`.
    SearchCriteo,
    /// Fixed-architecture retrain on `avazu_like`.
    RetrainAvazu,
    /// Fixed-architecture training on `giant_vocab` with hashed stores.
    GiantHashed,
    /// Open-loop serving of a frozen `criteo_like` model.
    ServeCriteo,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SearchCriteo,
        Workload::RetrainAvazu,
        Workload::GiantHashed,
        Workload::ServeCriteo,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCriteo => "search_criteo",
            Workload::RetrainAvazu => "retrain_avazu",
            Workload::GiantHashed => "giant_hashed",
            Workload::ServeCriteo => "serve_criteo",
        }
    }

    /// Why the workload is in the benchmark (one line, as in `BENCHMARK.json`).
    #[cfg_attr(not(test), allow(dead_code))] // read by the manifest test
    pub fn why(self) -> &'static str {
        match self {
            Workload::SearchCriteo => {
                "only workload where the supernet runs: all 66 pairs x 3 candidates, the Gumbel/alpha step and a 1248-wide MLP input"
            }
            Workload::RetrainAvazu => {
                "fixed-architecture retrain with per-epoch eval; skips the Gumbel step and hashed stores, so changes there should not move it"
            }
            Workload::GiantHashed => {
                "hashed sub-table embeddings with lazy Adam catch-up: optimizer apply is 43% of traced step time here, against 20% on retrain_avazu"
            }
            Workload::ServeCriteo => {
                "read-only embeddings, 1-32 row batches and the only queue: an open-loop rate ladder through the micro-batch front door"
            }
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// This workload's bit in [`Metric::on`].
    fn bit(self) -> u8 {
        match self {
            Workload::SearchCriteo => S,
            Workload::RetrainAvazu => R,
            Workload::GiantHashed => G,
            Workload::ServeCriteo => V,
        }
    }
}

const S: u8 = 1;
const R: u8 = 2;
const G: u8 = 4;
const V: u8 = 8;
/// Both fixed-architecture training workloads.
const FIXED: u8 = R | G;
/// Every training workload.
const TRAIN: u8 = S | R | G;
const ALL: u8 = S | R | G | V;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// `BENCHMARK.json` spelling.
    #[cfg_attr(not(test), allow(dead_code))] // read by the manifest test
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One registered metric. `better` and `bound` live here only so the
/// manifest test can hold `BENCHMARK.json` to this table.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
    /// Workloads whose path runs the layer; the rest report 0.
    on: u8,
}

impl Metric {
    /// Whether `w` measures this metric (others report 0).
    pub fn applies_to(&self, w: Workload) -> bool {
        self.on & w.bit() != 0
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        on: ALL,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, on: u8) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        on,
    }
}

use Better::{Higher as H, Lower as L};

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", L, 0.25),
    e2e("rows_per_s", "rows/s", H, 0.2),
    e2e("latency_ms", "ms", L, 0.2),
    e2e("peak_rss_mb", "MB", L, 0.05),
];

/// Per-layer metrics, reported by traced runs; 0 where the workload's
/// path does not run the layer.
pub const PER_LAYER: &[Metric] = &[
    layer("data.generate_s", "s", L, ALL),
    layer("data.encode_s", "s", L, ALL),
    layer("data.batch_wait_share", "fraction", L, TRAIN),
    layer("core.step_us.p50", "us", L, TRAIN),
    layer("core.step_us.tail", "us", L, TRAIN),
    layer("core.step_us.tail_pct", "%", H, TRAIN),
    layer("core.forward_us.p50", "us", L, TRAIN),
    layer("core.backward_us.p50", "us", L, TRAIN),
    layer("core.arch_step_us.p50", "us", L, S),
    layer("core.combine_fwd_est_us", "us", L, TRAIN),
    layer("core.forward_share", "fraction", L, TRAIN),
    layer("core.backward_share", "fraction", L, TRAIN),
    layer("core.eval_rows_per_s", "rows/s", H, FIXED),
    layer("core.eval_share", "fraction", L, FIXED),
    layer("core.steps", "count", H, TRAIN),
    layer("core.epochs", "count", H, TRAIN),
    layer("nn.loss_us.p50", "us", L, TRAIN),
    layer("nn.optim_us.p50", "us", L, TRAIN),
    layer("nn.optim_share", "fraction", L, TRAIN),
    layer("nn.embed_orig.lookup_us", "us", L, TRAIN),
    layer("nn.embed_orig.grad_us", "us", L, TRAIN),
    layer("nn.embed_orig.apply_us", "us", L, TRAIN),
    layer("nn.embed_cross.lookup_us", "us", L, TRAIN),
    layer("nn.embed_cross.grad_us", "us", L, TRAIN),
    layer("nn.embed_cross.apply_us", "us", L, TRAIN),
    layer("nn.embed.rows_touched", "count", L, TRAIN),
    layer("nn.mlp.fwd_us", "us", L, ALL),
    layer("nn.mlp.bwd_us", "us", L, TRAIN),
    layer("tensor.mm.gflops", "GFLOP/s", H, ALL),
    layer("tensor.mm_atb.gflops", "GFLOP/s", H, TRAIN),
    layer("tensor.mm_abt.gflops", "GFLOP/s", H, TRAIN),
    layer("serve.train_s", "s", L, V),
    layer("serve.freeze_s", "s", L, V),
    layer("serve.load_s", "s", L, V),
    layer("serve.artifact_mb", "MB", L, V),
    layer("serve.score_us.b1", "us", L, V),
    layer("serve.score_us.b32", "us", L, V),
    layer("serve.closed_rows_per_s", "rows/s", H, V),
    layer("serve.closed_batch_mean", "rows", H, V),
    layer("serve.max_rate_rps", "req/s", H, V),
    layer("serve.lat_us.p50.r5k", "us", L, V),
    layer("serve.lat_us.tail.r5k", "us", L, V),
    layer("serve.lat_us.tail_pct.r5k", "%", H, V),
    layer("serve.slo_frac.r5k", "fraction", H, V),
    layer("serve.batch_mean.r5k", "rows", H, V),
    layer("serve.queue_us.p50.r5k", "us", L, V),
    layer("serve.submit_us.tail.r5k", "us", L, V),
    layer("serve.gen_late_us.tail.r5k", "us", L, V),
    layer("serve.sent.r5k", "count", H, V),
    layer("serve.attempted.r5k", "count", H, V),
    layer("serve.lat_us.p50.r10k", "us", L, V),
    layer("serve.lat_us.tail.r10k", "us", L, V),
    layer("serve.lat_us.tail_pct.r10k", "%", H, V),
    layer("serve.slo_frac.r10k", "fraction", H, V),
    layer("serve.batch_mean.r10k", "rows", H, V),
    layer("serve.queue_us.p50.r10k", "us", L, V),
    layer("serve.submit_us.tail.r10k", "us", L, V),
    layer("serve.gen_late_us.tail.r10k", "us", L, V),
    layer("serve.sent.r10k", "count", H, V),
    layer("serve.attempted.r10k", "count", H, V),
    layer("serve.lat_us.p50.r20k", "us", L, V),
    layer("serve.lat_us.tail.r20k", "us", L, V),
    layer("serve.lat_us.tail_pct.r20k", "%", H, V),
    layer("serve.slo_frac.r20k", "fraction", H, V),
    layer("serve.batch_mean.r20k", "rows", H, V),
    layer("serve.queue_us.p50.r20k", "us", L, V),
    layer("serve.submit_us.tail.r20k", "us", L, V),
    layer("serve.gen_late_us.tail.r20k", "us", L, V),
    layer("serve.sent.r20k", "count", H, V),
    layer("serve.attempted.r20k", "count", H, V),
    layer("serve.lat_us.p50.r40k", "us", L, V),
    layer("serve.lat_us.tail.r40k", "us", L, V),
    layer("serve.lat_us.tail_pct.r40k", "%", H, V),
    layer("serve.slo_frac.r40k", "fraction", H, V),
    layer("serve.batch_mean.r40k", "rows", H, V),
    layer("serve.queue_us.p50.r40k", "us", L, V),
    layer("serve.submit_us.tail.r40k", "us", L, V),
    layer("serve.gen_late_us.tail.r40k", "us", L, V),
    layer("serve.sent.r40k", "count", H, V),
    layer("serve.attempted.r40k", "count", H, V),
    layer("quality.test_auc", "AUC", H, ALL),
    layer("quality.arch_agreement", "fraction", H, S),
    layer("trace.coverage", "fraction", H, ALL),
    layer("trace.step_coverage", "fraction", H, TRAIN),
    layer("trace.overhead_frac", "fraction", L, ALL),
    layer("trace.spans", "count", L, ALL),
];

/// The metric table a run reports: end-to-end untraced, per-layer traced.
pub fn table(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one run measured and checked.
pub struct Report {
    workload: Workload,
    traced: bool,
    values: Vec<Option<f64>>,
    /// Operations attempted (stage calls, training steps or requests).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    checks: Vec<(String, bool)>,
    notes: Vec<(String, String)>,
}

/// A finished report, ready to print.
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric, value)` in registry order.
    pub metrics: Vec<(&'static Metric, f64)>,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// An empty report for one run.
    pub fn new(workload: Workload, traced: bool) -> Self {
        Self {
            workload,
            traced,
            values: vec![None; table(traced).len()],
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a metric. Metrics of the other table are ignored, so code
    /// shared by both modes can set everything it measured.
    ///
    /// # Panics
    /// On a name in neither table (a typo in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(i) = table(self.traced).iter().position(|m| m.name == name) {
            self.values[i] = Some(value);
        } else {
            assert!(
                table(!self.traced).iter().any(|m| m.name == name),
                "metric `{name}` is not registered"
            );
        }
    }

    /// Records a pass/fail correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Records an informational `key value` line.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Fills metrics the workload does not measure with 0 and fails the
    /// run on a measured metric that is missing or not finite.
    pub fn finish(mut self) -> Output {
        let mut metrics = Vec::with_capacity(self.values.len());
        for (m, v) in table(self.traced).iter().zip(&self.values) {
            let value = match (*v, m.applies_to(self.workload)) {
                (Some(x), true) if x.is_finite() => x,
                (Some(_), true) => {
                    self.checks.push((format!("{} is finite", m.name), false));
                    0.0
                }
                (None, true) => {
                    self.checks
                        .push((format!("{} was measured", m.name), false));
                    0.0
                }
                (_, false) => 0.0,
            };
            metrics.push((m, value));
        }
        let correct = self.checks.iter().all(|(_, ok)| *ok);
        Output {
            correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            checks: self.checks,
            notes: self.notes,
        }
    }
}

impl Output {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    /// `BENCHMARK.json` as the registry says it must read.
    fn expected_manifest() -> String {
        let workloads: Vec<String> = Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name(),
                    w.why()
                )
            })
            .collect();
        let metric = |m: &Metric| match m.bound {
            Some(b) => format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {b}}}",
                m.name,
                m.unit,
                m.better.as_str()
            ),
            None => format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            ),
        };
        let list = |ms: &[Metric]| ms.iter().map(metric).collect::<Vec<_>>().join(",\n");
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
             \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
             \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            crate::RUN_SECONDS,
            workloads.join(",\n"),
            list(END_TO_END),
            list(PER_LAYER)
        )
    }

    #[test]
    fn benchmark_json_matches_the_registry() {
        let expected = expected_manifest();
        assert!(
            MANIFEST == expected,
            "BENCHMARK.json is out of date; it should read:\n{expected}"
        );
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_follow_the_contract() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
            names.push(m.name);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && w.why().len() <= 200);
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        // A bound is at most a quarter of the parent's median, and set-up
        // keeps the largest, so work moved into set-up shows. The README's
        // "Measured spread" section says why the timings need 0.2.
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .and_then(|m| m.bound);
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b} > 0.25", m.name);
            assert!(Some(b) <= setup, "{} bound above setup_s's", m.name);
            assert!(m.on == ALL, "{} must be measured by every workload", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn report_zero_fills_only_layers_off_the_path() {
        let mut r = Report::new(Workload::ServeCriteo, true);
        for m in PER_LAYER
            .iter()
            .filter(|m| m.applies_to(Workload::ServeCriteo))
        {
            r.set(m.name, 1.0);
        }
        r.set("setup_s", 5.0); // end-to-end: ignored in a traced run
        let out = r.finish();
        assert!(out.correct);
        let value = |name: &str| {
            out.metrics
                .iter()
                .find(|(m, _)| m.name == name)
                .map(|p| p.1)
        };
        assert_eq!(value("serve.score_us.b1"), Some(1.0));
        assert_eq!(value("core.steps"), Some(0.0));
        assert_eq!(value("setup_s"), None);
    }

    #[test]
    fn missing_or_non_finite_metrics_fail_the_run() {
        let mut r = Report::new(Workload::SearchCriteo, false);
        r.set("setup_s", f64::NAN);
        let out = r.finish();
        assert!(!out.correct);
        assert!(out.checks.iter().any(|(c, _)| c == "setup_s is finite"));
        assert!(out
            .checks
            .iter()
            .any(|(c, _)| c == "rows_per_s was measured"));
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(Workload::RetrainAvazu, false);
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        r.attempted = 3;
        let line = r.finish().json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}}"));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_metric_names_are_bugs() {
        Report::new(Workload::SearchCriteo, false).set("setup_seconds", 1.0);
    }
}
