//! The genome workloads: one kernel and one engine serve a batch of
//! genes, "series in, profiles out", through `Deconvolver::fit_many`.
//!
//! A run alternates rounds of two passes over the same batch: the batch
//! at `nproc` threads (`fit_many`, then each gene's profile), and the
//! single-threaded path gene by gene (`fit_request_with` on one
//! workspace, then the profile), which gives per-gene latency. Every
//! result is checked bit for bit against the first `fit_many` pass, and
//! a seeded sample against fresh single `fit_request` calls.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cellsync::session::EngineKey;
use cellsync::{
    DeconvError, DeconvolutionConfig, DeconvolutionResult, Deconvolver, FitWorkspace,
    LambdaSelection, SolveStrategy,
};
use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};
use cellsync_wire::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{purpose, sample_indices, stream, Genes, NOISE_FRACTION, PROFILE_GRID};
use crate::report::Tally;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::{latency_json, nproc, num, peak_rss_mb, same_bits, Args, Budget, Outcome};

/// Simulated cells behind the kernel.
pub const CELLS: usize = 20_000;
/// Phase bins of the kernel.
pub const BINS: usize = 100;
/// Sample times, uniform over [`HORIZON_MIN`].
pub const TIMES: usize = 16;
/// Protocol length in minutes.
pub const HORIZON_MIN: f64 = 150.0;
/// Genes per batch. Large enough that the pool's split evens out
/// (small batches do not scale on two cores).
pub const GENES: usize = 2_000;
/// Genes re-fitted one by one through a fresh `fit_request` as a check.
pub const SAMPLE: usize = 32;

/// The fit configuration: positivity on, library-default λ selection.
///
/// # Errors
///
/// Propagates config validation.
pub fn config(basis: usize) -> Result<DeconvolutionConfig, DeconvError> {
    DeconvolutionConfig::builder()
        .basis_size(basis)
        .positivity(true)
        .build()
}

/// The sample times of the protocol.
pub fn sample_times() -> Vec<f64> {
    (0..TIMES)
        .map(|i| HORIZON_MIN * i as f64 / (TIMES - 1) as f64)
        .collect()
}

/// Whether two fits are bit-identical in every field the library returns.
fn same_fit(a: &DeconvolutionResult, b: &DeconvolutionResult) -> bool {
    same_bits(
        &[a.lambda(), a.weighted_sse()],
        &[b.lambda(), b.weighted_sse()],
    ) && same_bits(a.alpha(), b.alpha())
        && same_bits(a.predicted(), b.predicted())
}

/// One set-up's times, ms.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    total: f64,
    simulate: f64,
    kernel: f64,
    engine: f64,
}

/// Repeated set-ups from scratch: population, kernel and engine. A run
/// sets up once before measuring and once more at the start of every
/// round, so `setup_s` is a median taken across the whole run.
struct Setups {
    seed: u64,
    config: DeconvolutionConfig,
    times: Vec<SetupTimes>,
    keys: Vec<EngineKey>,
}

impl Setups {
    /// Simulates the population, estimates the kernel and builds the
    /// engine, recording the times and the kernel's canonical key.
    fn rep(
        &mut self,
        tracer: &mut Tracer,
    ) -> Result<(cellsync_popsim::PhaseKernel, Deconvolver), String> {
        let mut times = SetupTimes::default();
        let rep = Some(self.times.len() as u64);
        let (built, total_us) = tracer.timed("setup", rep, |t| {
            let params = CellCycleParams::caulobacter()?;
            let (population, us) = t.timed("popsim.simulate", None, |_| {
                let mut rng = StdRng::seed_from_u64(stream(self.seed, purpose::POPULATION));
                Population::synchronized(
                    CELLS,
                    &params,
                    InitialCondition::UniformSwarmer,
                    &mut rng,
                )?
                .simulate_until(HORIZON_MIN)
            });
            times.simulate = us / 1e3;
            let population = population?;
            let (kernel, us) = t.timed("popsim.kernel_estimate", None, |_| {
                KernelEstimator::new(BINS)?.estimate(&population, &sample_times())
            });
            times.kernel = us / 1e3;
            let kernel = kernel?;
            let owned = kernel.clone();
            let (engine, us) = t.timed("core.engine_build", None, |_| {
                Deconvolver::new(owned, self.config.clone())
            });
            times.engine = us / 1e3;
            Ok::<_, DeconvError>((kernel, engine?))
        });
        times.total = total_us / 1e3;
        let (kernel, engine) = built.map_err(|e| format!("setup: {e}"))?;
        self.times.push(times);
        self.keys.push(EngineKey::new(&kernel, &self.config));
        Ok((kernel, engine))
    }

    /// Whether every set-up produced the same kernel.
    fn identical(&self) -> bool {
        self.keys.windows(2).all(|w| w[0] == w[1])
    }

    /// Median of one set-up time, ms.
    fn median(&self, f: fn(&SetupTimes) -> f64) -> Option<f64> {
        median(&self.times.iter().map(f).collect::<Vec<_>>())
    }
}

/// What a sequence of rounds measured.
#[derive(Debug, Default)]
struct Rounds {
    /// Successful genes per second of each `nproc` pass.
    batch_rates: Vec<f64>,
    /// Successful genes per second of each single-threaded pass.
    single_rates: Vec<f64>,
    /// Outcomes of the `nproc` passes (untimed per gene).
    batch: Tally,
    /// Outcomes and latencies of the single-threaded passes.
    single: Tally,
}

/// Books one gene's outcome: a fit must be bit-identical to the
/// reference (filled from the first successful fit when the reference
/// batch produced none). Returns whether the gene succeeded.
fn book(
    tally: &mut Tally,
    reference: &mut Option<DeconvolutionResult>,
    fit: Result<DeconvolutionResult, DeconvError>,
    latency_us: Option<f64>,
) -> bool {
    let same = match (fit, reference.as_ref()) {
        (Err(e), _) => {
            tally.failure(e.code());
            return false;
        }
        (Ok(fit), Some(r)) => same_fit(r, &fit),
        (Ok(fit), None) => {
            *reference = Some(fit);
            true
        }
    };
    if same {
        tally.success(latency_us);
    } else {
        tally.failure("mismatch");
    }
    same
}

/// One round into `out`: a set-up, a batch pass, then a single-threaded
/// pass that stops early once the budget has run out.
#[allow(clippy::too_many_arguments)]
fn round(
    engine: &Deconvolver,
    genes: &Genes,
    reference: &mut [Option<DeconvolutionResult>],
    setups: &mut Setups,
    workspace: &mut FitWorkspace,
    budget: Budget,
    tracer: &mut Tracer,
    out: &mut Rounds,
) -> Result<(), String> {
    let input = genes.fit_input();
    let n = genes.len();
    setups.rep(tracer)?;
    // Batch pass: series in, profiles out, at nproc threads.
    let (batch, wall_us) = tracer.timed("round.batch", None, |t| {
        let (fits, _) = t.timed("core.fit_many", None, |_| engine.fit_many(&input));
        fits.map(|fits| {
            fits.into_iter()
                .enumerate()
                .map(|(i, fit)| {
                    let (profile, _) = t.timed("spline.profile_eval", Some(i as u64), |_| {
                        fit.profile(PROFILE_GRID)
                    });
                    profile.map(|p| {
                        black_box(p);
                        fit
                    })
                })
                .collect::<Vec<_>>()
        })
    });
    let mut ok = 0u64;
    match batch {
        Ok(fits) => {
            for (i, fit) in fits.into_iter().enumerate() {
                ok += u64::from(book(&mut out.batch, &mut reference[i], fit, None));
            }
        }
        Err(e) => out.batch.failures(e.code(), n as u64),
    }
    out.batch_rates.push(ok as f64 / (wall_us / 1e6));

    // Single-threaded pass, gene by gene, each timed end to end.
    let start = Instant::now();
    let mut ok = 0u64;
    for (i, reference) in reference.iter_mut().enumerate() {
        if budget.past(1.0) && i > 0 {
            break;
        }
        let (fit, latency_us) = tracer.timed("gene", Some(i as u64), |t| {
            let request = genes.request(i);
            let (fit, _) = t.timed("core.fit_request", Some(i as u64), |_| {
                engine.fit_request_with(workspace, &request)
            });
            let fit = fit?.into_result();
            let (profile, _) = t.timed("spline.profile_eval", Some(i as u64), |_| {
                fit.profile(PROFILE_GRID)
            });
            black_box(profile?);
            Ok::<_, DeconvError>(fit)
        });
        ok += u64::from(book(&mut out.single, reference, fit, Some(latency_us)));
    }
    out.single_rates
        .push(ok as f64 / start.elapsed().as_secs_f64());
    Ok(())
}

/// Runs `genome_dense` (basis 18) or `genome_banded` (basis 160).
///
/// # Errors
///
/// Describes a set-up failure (population, kernel, engine or inputs).
pub fn run(args: &Args, basis: usize) -> Result<Outcome, String> {
    let threads = nproc();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, args.trace);
    let config = config(basis).map_err(|e| format!("config: {e}"))?;

    let mut setups = Setups {
        seed: args.seed,
        config: config.clone(),
        times: Vec::new(),
        keys: Vec::new(),
    };
    let (kernel, engine) = setups.rep(&mut tracer)?;
    let engine = engine.with_threads(threads);

    let genes = Genes::generate(&kernel, GENES, args.seed).map_err(|e| format!("genes: {e}"))?;
    let n = genes.len();

    // Reference batch, untimed; it also warms caches and the allocator.
    let mut reference: Vec<Option<DeconvolutionResult>> = match engine.fit_many(&genes.fit_input())
    {
        Ok(fits) => fits.into_iter().map(Some).collect(),
        Err(_) => (0..n).map(|_| None).collect(),
    };

    // Rounds until the budget has run out, at least one. A traced run
    // alternates untraced and traced rounds, so both see the same load
    // on the host and their ratio is the tracing overhead.
    let budget = Budget::start(args.seconds);
    let mut quiet = Tracer::new(epoch, false);
    let mut workspace = FitWorkspace::new();
    let mut measured = Rounds::default();
    let mut traced = args.trace.then(Rounds::default);
    loop {
        round(
            &engine,
            &genes,
            &mut reference,
            &mut setups,
            &mut workspace,
            budget,
            &mut quiet,
            &mut measured,
        )?;
        if let Some(traced) = traced.as_mut() {
            round(
                &engine,
                &genes,
                &mut reference,
                &mut setups,
                &mut workspace,
                budget,
                &mut tracer,
                traced,
            )?;
        }
        if budget.past(1.0) {
            break;
        }
    }

    // Fixed-λ replay: the same genes at their selected λ, so the λ scan's
    // share of each fit can be separated.
    let mut fixed_us: BTreeMap<usize, f64> = BTreeMap::new();
    let mut fixed_failures = 0u64;
    if args.trace {
        let mut workspace = FitWorkspace::new();
        for (i, fit) in reference.iter().enumerate() {
            let Some(fit) = fit.as_ref().filter(|f| !f.selection_scores().is_empty()) else {
                continue;
            };
            let request = genes.request(i).with_lambda(fit.lambda());
            let (result, us) = tracer.timed("core.fixed_lambda_fit", Some(i as u64), |_| {
                engine.fit_request_with(&mut workspace, &request)
            });
            match result {
                Ok(_) => {
                    fixed_us.insert(i, us);
                }
                Err(_) => fixed_failures += 1,
            }
        }
    }

    // Seeded sample through fresh single fit_request calls.
    let mut sample = Tally::default();
    for i in sample_indices(n, SAMPLE, args.seed) {
        let fit = engine
            .fit_request(&genes.request(i))
            .map(|f| f.into_result());
        book(&mut sample, &mut reference[i], fit, None);
    }

    let nrmse: Vec<f64> = reference
        .iter()
        .zip(&genes.truths)
        .filter_map(|(fit, truth)| {
            let profile = fit.as_ref()?.profile(PROFILE_GRID).ok()?;
            truth.nrmse(&profile).ok()
        })
        .collect();
    let lambda_evals: Vec<f64> = reference
        .iter()
        .flatten()
        .map(|f| f.selection_scores().len() as f64)
        .filter(|&k| k > 0.0)
        .collect();

    let genes_per_s = median(&measured.batch_rates);
    let genes_per_s_1t = median(&measured.single_rates);
    let latencies = sorted(measured.single.latencies_us.clone());
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value {
            metrics.insert(name, v);
        }
    };
    put("genes_per_s", genes_per_s);
    put("genes_per_s_1t", genes_per_s_1t);
    put("latency_p50_us", percentile(&latencies, 0.5));
    put("setup_s", setups.median(|s| s.total).map(|ms| ms / 1e3));
    put("peak_rss_mb", peak_rss_mb());
    put("profile_nrmse", median(&nrmse));
    put("popsim.simulate_ms", setups.median(|s| s.simulate));
    put("popsim.kernel_estimate_ms", setups.median(|s| s.kernel));
    put("core.engine_build_ms", setups.median(|s| s.engine));
    put("core.lambda_evals", crate::stats::mean(&lambda_evals));
    if let (Some(g), Some(g1)) = (genes_per_s, genes_per_s_1t) {
        put("runtime.scaling_eff", Some(g / (threads as f64 * g1)));
    }

    let mut report = vec![
        ("threads".to_string(), num(threads as f64)),
        ("inputs".to_string(), inputs_json(basis, &config)),
        ("setups".to_string(), num(setups.times.len() as f64)),
        (
            "setups_identical".to_string(),
            Json::Bool(setups.identical()),
        ),
        ("rounds".to_string(), num(measured.batch_rates.len() as f64)),
        (
            "round_genes_per_s".to_string(),
            Json::Arr(measured.batch_rates.iter().map(|&r| num(r)).collect()),
        ),
        (
            "round_genes_per_s_1t".to_string(),
            Json::Arr(measured.single_rates.iter().map(|&r| num(r)).collect()),
        ),
        ("latency_us".to_string(), latency_json(&latencies)),
    ];

    if let Some(traced) = &traced {
        let fit_sorted = sorted(tracer.durations_us("core.fit_request"));
        put("core.fit_us.p50", percentile(&fit_sorted, 0.5));
        put("core.fit_us.p99", percentile(&fit_sorted, 0.99));
        put(
            "core.fixed_lambda_fit_us.p50",
            median(&fixed_us.values().copied().collect::<Vec<_>>()),
        );
        // λ scan per gene: its first traced fit minus its fixed-λ fit.
        let mut first_fit: BTreeMap<u64, f64> = BTreeMap::new();
        for span in tracer
            .spans()
            .iter()
            .filter(|s| s.name == "core.fit_request")
        {
            if let Some(id) = span.id {
                first_fit
                    .entry(id)
                    .or_insert(span.duration_ns() as f64 / 1e3);
            }
        }
        let scan: Vec<f64> = fixed_us
            .iter()
            .filter_map(|(i, fixed)| first_fit.get(&(*i as u64)).map(|fit| fit - fixed))
            .collect();
        put("core.lambda_scan_us.p50", median(&scan));
        put(
            "spline.profile_eval_us",
            median(&tracer.durations_us("spline.profile_eval")),
        );
        let self_ns = crate::trace::self_times_ns(tracer.spans());
        let gene_self: Vec<f64> = tracer
            .spans()
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == "gene")
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect();
        put("unaccounted_us.p50", median(&gene_self));
        let traced_rate = median(&traced.batch_rates);
        if let (Some(t), Some(g)) = (traced_rate, genes_per_s) {
            put("trace.genes_per_s_ratio", Some(t / g));
        }
        report.push((
            "core.fit_many_ms.p50".to_string(),
            median(&tracer.durations_us("core.fit_many")).map_or(Json::Null, |us| num(us / 1e3)),
        ));
        report.push((
            "genes_per_s_traced".to_string(),
            traced_rate.map_or(Json::Null, num),
        ));
        report.push((
            "fixed_lambda_failures".to_string(),
            num(fixed_failures as f64),
        ));
    }

    let mut tally = measured.batch;
    tally.merge(measured.single);
    tally.merge(sample);
    if let Some(traced) = traced {
        tally.merge(traced.batch);
        tally.merge(traced.single);
    }
    Ok(Outcome {
        correct: tally.failed == 0 && setups.identical(),
        tally,
        metrics,
        report,
        spans: tracer.spans().to_vec(),
    })
}

/// The workload's input sizes.
fn inputs_json(basis: usize, config: &DeconvolutionConfig) -> Json {
    let (lo, hi, points) = match config.lambda() {
        LambdaSelection::Gcv {
            log10_min,
            log10_max,
            points,
        } => (*log10_min, *log10_max, *points),
        _ => (f64::NAN, f64::NAN, 0),
    };
    let banded = basis >= SolveStrategy::BANDED_THRESHOLD;
    Json::Obj(vec![
        ("cells".into(), num(CELLS as f64)),
        ("bins".into(), num(BINS as f64)),
        ("measurements".into(), num(TIMES as f64)),
        ("horizon_min".into(), num(HORIZON_MIN)),
        ("genes".into(), num(GENES as f64)),
        ("basis".into(), num(basis as f64)),
        (
            "solver_path".into(),
            Json::Str(if banded { "banded" } else { "dense" }.into()),
        ),
        (
            "lambda_grid".into(),
            Json::Obj(vec![
                ("selection".into(), Json::Str("gcv".into())),
                ("log10_min".into(), num(lo)),
                ("log10_max".into(), num(hi)),
                ("points".into(), num(points as f64)),
            ]),
        ),
        ("noise_fraction".into(), num(NOISE_FRACTION)),
        ("sigmas".into(), Json::Bool(true)),
        ("check_sample".into(), num(SAMPLE as f64)),
    ])
}
