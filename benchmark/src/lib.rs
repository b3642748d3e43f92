//! End-to-end benchmark of the cellsync workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload genome_dense --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Three workloads drive the program through its public API only:
//!
//! * `genome_dense` — a genome batch through `Deconvolver::fit_many` at
//!   basis 18 (dense spectral λ scan plus active-set QP). `core`, the
//!   `runtime` pool and result assembly do the work; `serve` and `wire`
//!   do none.
//! * `genome_banded` — the same kernel, genes and config at basis 160,
//!   above `SolveStrategy::BANDED_THRESHOLD`, so the B-spline/Woodbury
//!   path runs. A change that helps one solver path and costs the other
//!   shows on this pair.
//! * `serve_closed` — HTTP/1.1 fits against an in-process server with
//!   the default config, `nproc` keep-alive clients in a closed loop.
//!   The only workload that exercises `serve`, `wire` and the engine
//!   cache; compute is a small share of each round trip.
//!
//! End-to-end metrics (untraced run, `--trace 0`):
//!
//! * `genes_per_s` — successful genes (profiles out, or verified 200
//!   responses) per second at `nproc` threads or connections, the median
//!   over rounds;
//! * `genes_per_s_1t` — the same on one thread or one connection;
//! * `latency_p50_us` — per gene (series in, profile out) on one thread,
//!   or per request (send to full response) of the lone client. The
//!   report adds every percentile with ten samples beyond it, and on
//!   `serve_closed` the round trips at `nproc` clients. The tails are not
//!   end-to-end metrics: on a shared 2-CPU host they move with the host's
//!   load by more than any bound that would still catch a regression;
//! * `setup_s` — population, kernel and engine (plus registry, server and
//!   warm-up fits), the median of one set-up before measuring and one
//!   after every round;
//! * `peak_rss_mb` — the process's `VmHWM`;
//! * `profile_nrmse` — median NRMSE of the recovered against the true
//!   profiles (deterministic per seed).
//!
//! Failed operations (fit errors, non-200 replies, transport errors and
//! check mismatches) count in `failed` and never in throughput or
//! latency; the report line gives the error rate and the failures by
//! stable code.
//!
//! A traced run (`--trace 1`) alternates untraced rounds with the same
//! rounds under spans around the benchmark's own calls, then replays
//! each gene or request layer by layer on one thread. It reports the
//! per-layer metrics every workload has, the ones only this workload has
//! in the report line, self time per layer, and the tracing overhead
//! (`trace.genes_per_s_ratio`, traced over untraced `genes_per_s`). The
//! spans go to `.bench_out/trace-<workload>-<seed>.jsonl`.

use std::collections::BTreeMap;
use std::time::Instant;

use cellsync_wire::Json;

pub mod genome;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::Tally;
use trace::Span;

/// Workload names, in the order `--help` lists them.
pub const WORKLOADS: [&str; 3] = ["genome_dense", "genome_banded", "serve_closed"];

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Describes a missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    let v = value()?;
                    seed = Some(v.parse().map_err(|_| format!("bad --seed '{v}'"))?);
                }
                "--seconds" => {
                    let v = value()?;
                    let s: f64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must lie in (0, 600], got {v}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                    }
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload '{workload}' (one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted and failed, by code.
    pub tally: Tally,
    /// Measured metric values by name (end-to-end and per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific report fields: input sizes, layers that only this
    /// workload exercises, server counters.
    pub report: Vec<(String, Json)>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

/// Wall-clock budget of the measured part of a run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn start(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether the share `fraction` of the budget has elapsed.
    pub fn past(&self, fraction: f64) -> bool {
        self.start.elapsed().as_secs_f64() >= fraction * self.seconds
    }
}

/// Worker threads and client connections a run uses: the cores this
/// process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Whether two samples are equal bit for bit.
pub fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// A JSON number.
pub fn num(v: f64) -> Json {
    Json::Num(v)
}

/// A latency sample summarized for the report: its size and every
/// supported percentile of [`stats::LADDER`].
pub fn latency_json(sorted: &[f64]) -> Json {
    let mut fields = vec![("samples".to_string(), num(sorted.len() as f64))];
    for (p, v) in stats::supported_ladder(sorted) {
        fields.push((format!("p{}", p * 100.0), num(v)));
    }
    Json::Obj(fields)
}
