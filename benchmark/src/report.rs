//! Metric definitions, outcome accounting, and the result line.
//!
//! The metric names and units here are the ones `BENCHMARK.json` lists;
//! a self-test keeps the two in step. The last line the benchmark prints
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`
//! holding the end-to-end metrics (untraced run) or the per-layer ones
//! (traced run).

use std::collections::BTreeMap;

use cellsync_wire::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One named metric with its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit, e.g. `us` or `genes/s`.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    def("genes_per_s", "genes/s", Better::Higher),
    def("genes_per_s_1t", "genes/s", Better::Higher),
    def("latency_p50_us", "us", Better::Lower),
    def("setup_s", "s", Better::Lower),
    def("peak_rss_mb", "MB", Better::Lower),
    def("profile_nrmse", "ratio", Better::Lower),
];

/// Per-layer metrics, reported by every traced run. Only layers that
/// every listed workload exercises are here; the rest go into the
/// workload's report line.
pub const PER_LAYER: [MetricDef; 12] = [
    def("popsim.simulate_ms", "ms", Better::Lower),
    def("popsim.kernel_estimate_ms", "ms", Better::Lower),
    def("core.engine_build_ms", "ms", Better::Lower),
    def("core.fit_us.p50", "us", Better::Lower),
    def("core.fit_us.p99", "us", Better::Lower),
    def("core.fixed_lambda_fit_us.p50", "us", Better::Lower),
    def("core.lambda_scan_us.p50", "us", Better::Lower),
    def("core.lambda_evals", "count", Better::Lower),
    def("spline.profile_eval_us", "us", Better::Lower),
    def("unaccounted_us.p50", "us", Better::Lower),
    def("runtime.scaling_eff", "ratio", Better::Higher),
    def("trace.genes_per_s_ratio", "ratio", Better::Higher),
];

/// Whether `name` is a valid metric name: 1–64 ASCII letters, digits,
/// `_`, `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 ASCII letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Outcome accounting for one kind of operation (a gene fit or a served
/// request). A failed operation counts against `attempted` and never
/// contributes a latency sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (fit error, non-200, transport error or a
    /// check mismatch).
    pub failed: u64,
    /// Failures by stable code.
    pub by_code: BTreeMap<String, u64>,
    /// Latency (µs) of each successful operation that was timed.
    pub latencies_us: Vec<f64>,
}

impl Tally {
    /// Books a success, with its latency when it was timed.
    pub fn success(&mut self, latency_us: Option<f64>) {
        self.attempted += 1;
        if let Some(us) = latency_us {
            self.latencies_us.push(us);
        }
    }

    /// Books a failure under its stable code.
    pub fn failure(&mut self, code: &str) {
        self.failures(code, 1);
    }

    /// Books `count` failures under one code (a batch call that failed
    /// as a whole).
    pub fn failures(&mut self, code: &str, count: u64) {
        self.attempted += count;
        self.failed += count;
        *self.by_code.entry(code.to_string()).or_insert(0) += count;
    }

    /// Successful operations.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (code, count) in other.by_code {
            *self.by_code.entry(code).or_insert(0) += count;
        }
        self.latencies_us.extend(other.latencies_us);
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Failures by code as a JSON object.
    pub fn codes_json(&self) -> Json {
        Json::Obj(
            self.by_code
                .iter()
                .map(|(code, count)| (code.clone(), Json::Num(*count as f64)))
                .collect(),
        )
    }
}

/// Renders the result line from the metrics of `defs` found in
/// `values`, and names those it lacks (or holds as non-finite numbers):
/// a workload whose every operation failed has no latency to report.
///
/// # Errors
///
/// Names a metric whose name or unit is outside the allowed alphabet.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Result<(String, Vec<&'static str>), String> {
    let mut metrics = Vec::with_capacity(defs.len());
    let mut missing = Vec::new();
    for d in defs {
        if !valid_name(d.name) || !valid_unit(d.unit) {
            return Err(format!(
                "invalid metric name or unit: {} [{}]",
                d.name, d.unit
            ));
        }
        match values.get(d.name).copied().filter(|v| v.is_finite()) {
            Some(value) => metrics.push((
                d.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(d.unit.into())),
                ]),
            )),
            None => missing.push(d.name),
        }
    }
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render();
    Ok((line, missing))
}
