//! The `serve_closed` workload: HTTP/1.1 fits against an in-process
//! server started with the default `ServerConfig`.
//!
//! `nproc` keep-alive clients run a closed loop: each sends its next
//! request only after its reply arrives, as pipelines that wait on each
//! fit do. Phases at `nproc` connections alternate with phases at one
//! connection (the single-client baseline). Each request is a
//! forward-modelled series with σ for a family the seed picks
//! uniformly, and every 200 response must be bit-identical to a direct
//! library fit of the same request on the same family.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cellsync::session::{EngineCache, EngineKey};
use cellsync::{CancelToken, DeconvolutionResult, Deconvolver, FitRequest};
use cellsync_popsim::{
    CellCycleParams, InitialCondition, KernelEstimator, PhaseKernel, Population,
};
use cellsync_serve::{Client, FamilyRegistry, Server, ServerConfig};
use cellsync_wire::{ErrorWire, FitRequestWire, FitResponseWire, Json, StatsWire};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{family_mix, purpose, stream, Genes, NOISE_FRACTION, PROFILE_GRID};
use crate::report::Tally;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::{latency_json, nproc, num, peak_rss_mb, same_bits, Args, Outcome};

/// Simulated cells behind the registry's kernel.
pub const CELLS: usize = 20_000;
/// Phase bins of the kernel.
pub const BINS: usize = 100;
/// Sample times over one 150-minute cycle.
pub const TIMES: usize = 11;
/// Basis size of every family.
pub const BASIS: usize = 16;
/// Protocol length in minutes (fixed by `FamilyRegistry::standard`).
pub const HORIZON_MIN: f64 = 150.0;
/// Distinct requests, cycled through in order.
pub const POOL: usize = 2048;
/// Length of one load phase; phases at `nproc` and at one connection
/// alternate.
pub const PHASE_S: f64 = 0.25;

/// Pairs of phases between two set-ups from scratch.
pub const SETUP_EVERY: usize = 4;

/// A request of the pool: its family and its fit.
struct Planned {
    family: usize,
    wire: FitRequestWire,
    expected: Result<DeconvolutionResult, String>,
}

/// Repeated set-ups from scratch. A run sets up once before measuring
/// and again every [`SETUP_EVERY`] pairs of phases, so the set-up medians
/// span the whole run.
#[derive(Debug)]
struct Setups {
    seed: u64,
    /// Registry build, server start and warm-up fits, ms.
    setup_ms: Vec<f64>,
    /// Replayed population simulation and kernel estimate, ms.
    popsim: Vec<(f64, f64)>,
    /// Direct engine builds of every family, ms.
    build_ms: Vec<f64>,
    /// Whether every replayed kernel matched the registry's.
    kernel_matches: bool,
}

impl Setups {
    /// Replays the registry's population and kernel estimate with the
    /// same inputs, timing each.
    fn kernel(&mut self, tracer: &mut Tracer) -> Result<PhaseKernel, String> {
        let params = CellCycleParams::caulobacter().map_err(|e| format!("params: {e}"))?;
        let (population, sim_us) = tracer.timed("popsim.simulate", None, |_| {
            let mut rng = StdRng::seed_from_u64(stream(self.seed, purpose::POPULATION));
            Population::synchronized(CELLS, &params, InitialCondition::UniformSwarmer, &mut rng)?
                .simulate_until(HORIZON_MIN)
        });
        let population = population.map_err(|e| format!("population: {e}"))?;
        let times: Vec<f64> = (0..TIMES)
            .map(|i| HORIZON_MIN * i as f64 / (TIMES - 1) as f64)
            .collect();
        let (kernel, kernel_us) = tracer.timed("popsim.kernel_estimate", None, |_| {
            KernelEstimator::new(BINS)?.estimate(&population, &times)
        });
        self.popsim.push((sim_us / 1e3, kernel_us / 1e3));
        kernel.map_err(|e| format!("kernel: {e}"))
    }

    /// Builds the registry, starts a server with the default config and
    /// sends one warm-up fit per family, which builds its engine.
    fn server(
        &mut self,
        tracer: &mut Tracer,
        warm: &Genes,
    ) -> Result<(FamilyRegistry, Server), String> {
        let rep = Some(self.setup_ms.len() as u64);
        let (started, us) = tracer.timed("setup", rep, |t| {
            let (registry, _) = t.timed("serve.registry_build", None, |_| {
                FamilyRegistry::standard(
                    CELLS,
                    BINS,
                    TIMES,
                    BASIS,
                    stream(self.seed, purpose::POPULATION),
                )
            });
            let registry = registry.map_err(|e| format!("registry: {e}"))?;
            let (server, _) = t.timed("serve.server_start", None, |_| {
                Server::start(registry.clone(), ServerConfig::default())
            });
            let server = server.map_err(|e| format!("server start: {e}"))?;
            let (warmed, _) = t.timed("serve.warmup", None, |_| -> Result<(), String> {
                let mut client =
                    Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
                for name in registry.names() {
                    let wire = FitRequestWire {
                        family: name.to_string(),
                        series: warm.series[0].clone(),
                        sigmas: Some(warm.sigmas[0].clone()),
                        lambda: None,
                        bootstrap: None,
                        deadline_ms: None,
                    };
                    let (status, body) = client
                        .post("/fit", &wire.encode())
                        .map_err(|e| format!("warm-up: {e}"))?;
                    if status != 200 {
                        return Err(format!("warm-up {name}: HTTP {status}: {body}"));
                    }
                }
                Ok(())
            });
            warmed?;
            Ok::<_, String>((registry, server))
        });
        self.setup_ms.push(us / 1e3);
        started
    }

    /// Builds every family's engine directly in the library, checking the
    /// replayed kernel against the registry's.
    fn engines(
        &mut self,
        tracer: &mut Tracer,
        kernel: &PhaseKernel,
        registry: &FamilyRegistry,
    ) -> Result<Vec<Deconvolver>, String> {
        let mut total = 0.0;
        let mut engines = Vec::new();
        for name in registry.names() {
            let family = registry.get(name).ok_or(format!("family {name} missing"))?;
            self.kernel_matches &= EngineKey::new(kernel, family.config()) == *family.key();
            let (engine, us) = tracer.timed("core.engine_build", None, |_| family.build_engine());
            engines.push(engine.map_err(|e| format!("engine {name}: {e}"))?);
            total += us / 1e3;
        }
        self.build_ms.push(total);
        Ok(engines)
    }

    /// One more full set-up, torn down again.
    fn rep(&mut self, tracer: &mut Tracer, warm: &Genes) -> Result<(), String> {
        let kernel = self.kernel(tracer)?;
        let (registry, server) = self.server(tracer, warm)?;
        self.engines(tracer, &kernel, &registry)?;
        server.shutdown();
        server.join();
        Ok(())
    }
}

/// Failure code of a non-200 reply.
fn error_code(status: u16, body: &str) -> String {
    ErrorWire::decode(body).map_or_else(|_| format!("http_{status}"), |e| e.code)
}

/// Sends one request and checks the reply; returns the round trip (µs)
/// on success and the failure code otherwise.
fn exchange(
    client: &mut Client,
    index: usize,
    planned: &Planned,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let id = Some(index as u64);
    let (outcome, _) = tracer.timed("request", id, |t| {
        let (body, _) = t.timed("wire.request_encode", id, |_| planned.wire.encode());
        let (reply, roundtrip_us) = t.timed("serve.roundtrip", id, |_| client.post("/fit", &body));
        let (status, body) = reply.map_err(|_| "transport".to_string())?;
        if status != 200 {
            return Err(error_code(status, &body));
        }
        let (decoded, _) = t.timed("wire.response_decode", id, |_| {
            FitResponseWire::decode(&body)
        });
        let decoded = decoded.map_err(|_| "response_decode".to_string())?;
        let expected = planned
            .expected
            .as_ref()
            .map_err(|_| "mismatch".to_string())?;
        let same = same_bits(
            &[decoded.lambda, decoded.weighted_sse],
            &[expected.lambda(), expected.weighted_sse()],
        ) && same_bits(&decoded.alpha, expected.alpha())
            && same_bits(&decoded.predicted, expected.predicted());
        if same {
            Ok(roundtrip_us)
        } else {
            Err("mismatch".to_string())
        }
    });
    outcome
}

/// One load phase at `clients.len()` connections; returns the phase's
/// tally and its successful requests per second.
fn phase(
    clients: &mut [Client],
    plan: &[Planned],
    next: &AtomicUsize,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Tally, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut outs: Vec<(Tally, Tracer)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let mut tracer = tracer.fork();
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        match exchange(client, index, &plan[index % plan.len()], &mut tracer) {
                            Ok(us) => tally.success(Some(us)),
                            Err(code) => tally.failure(&code),
                        }
                    }
                    (tally, tracer)
                })
            })
            .collect();
        for handle in handles {
            outs.push(handle.join().expect("client thread panicked"));
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for (t, tr) in outs {
        tally.merge(t);
        tracer.absorb(tr);
    }
    let rate = tally.succeeded() as f64 / wall;
    (tally, rate)
}

/// What alternating phases measured.
#[derive(Debug, Default)]
struct Phases {
    multi: Tally,
    single: Tally,
    multi_rates: Vec<f64>,
    single_rates: Vec<f64>,
}

/// One phase at `nproc` connections, then one at a single connection,
/// into `out`.
fn pair(
    clients: &mut [Client],
    plan: &[Planned],
    next: &AtomicUsize,
    tracer: &mut Tracer,
    out: &mut Phases,
) {
    let (t, r) = phase(clients, plan, next, PHASE_S, tracer);
    out.multi.merge(t);
    out.multi_rates.push(r);
    let (t, r) = phase(&mut clients[..1], plan, next, PHASE_S, tracer);
    out.single.merge(t);
    out.single_rates.push(r);
}

fn fetch_stats(client: &mut Client) -> Result<StatsWire, String> {
    let (status, body) = client.get("/stats").map_err(|e| format!("stats: {e}"))?;
    if status != 200 {
        return Err(format!("stats: HTTP {status}"));
    }
    StatsWire::decode(&body).map_err(|e| format!("stats decode: {e}"))
}

/// Runs `serve_closed`.
///
/// # Errors
///
/// Describes a set-up failure (population, registry, server start).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let connections = nproc();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, args.trace);
    let mut setups = Setups {
        seed: args.seed,
        setup_ms: Vec::new(),
        popsim: Vec::new(),
        build_ms: Vec::new(),
        kernel_matches: true,
    };
    // The registry's kernel, replayed with the same inputs, generates the
    // request series.
    let kernel = setups.kernel(&mut tracer)?;
    let genes = Genes::generate(&kernel, POOL, args.seed).map_err(|e| format!("inputs: {e}"))?;
    let (registry, server) = setups.server(&mut tracer, &genes)?;
    let engines = setups.engines(&mut tracer, &kernel, &registry)?;
    let names: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    let families: Vec<_> = names
        .iter()
        .map(|n| registry.get(n).ok_or(format!("family {n} missing")))
        .collect::<Result<_, _>>()?;

    let mix = family_mix(POOL, families.len(), args.seed);
    let plan: Vec<Planned> = (0..POOL)
        .map(|i| {
            let family = mix[i];
            Planned {
                family,
                wire: FitRequestWire {
                    family: names[family].clone(),
                    series: genes.series[i].clone(),
                    sigmas: Some(genes.sigmas[i].clone()),
                    lambda: None,
                    bootstrap: None,
                    deadline_ms: None,
                },
                expected: engines[family]
                    .fit_request(&genes.request(i))
                    .map(|r| r.into_result())
                    .map_err(|e| e.code().to_string()),
            }
        })
        .collect();

    let mut clients: Vec<Client> = (0..connections)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    for client in &clients {
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
    }

    // Pairs of phases for the whole budget, with a set-up from scratch
    // every SETUP_EVERY pairs. A traced run alternates untraced and
    // traced pairs, so both see the same load on the host and their
    // ratio is the tracing overhead.
    let pairs = ((args.seconds / (2.0 * PHASE_S)).floor() as usize).max(1);
    let next = AtomicUsize::new(0);
    let mut quiet = Tracer::new(epoch, false);
    let mut measured = Phases::default();
    let mut traced = args.trace.then(Phases::default);
    for k in 1..=pairs {
        match traced.as_mut() {
            Some(out) if k % 2 == 0 => pair(&mut clients, &plan, &next, &mut tracer, out),
            _ => pair(&mut clients, &plan, &next, &mut quiet, &mut measured),
        }
        if k % SETUP_EVERY == 0 {
            setups.rep(&mut tracer, &genes)?;
        }
    }
    let stats = fetch_stats(&mut clients[0]);
    drop(clients);
    server.shutdown();
    server.join();
    let stats = stats?;

    let nrmse: Vec<f64> = plan
        .iter()
        .zip(&genes.truths)
        .filter_map(|(p, truth)| {
            let profile = p.expected.as_ref().ok()?.profile(PROFILE_GRID).ok()?;
            truth.nrmse(&profile).ok()
        })
        .collect();
    let lambda_evals: Vec<f64> = plan
        .iter()
        .filter_map(|p| p.expected.as_ref().ok())
        .map(|f| f.selection_scores().len() as f64)
        .filter(|&k| k > 0.0)
        .collect();

    let genes_per_s = median(&measured.multi_rates);
    let genes_per_s_1t = median(&measured.single_rates);
    // Latency is the lone client's round trip: with nproc clients the
    // distribution has two modes (a request coalesced or dispatched at
    // once, or queued behind another family's linger window), and the
    // median flips between them from run to run. The loaded
    // percentiles go into the report.
    let latencies = sorted(measured.single.latencies_us.clone());
    let loaded = sorted(measured.multi.latencies_us.clone());
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value {
            metrics.insert(name, v);
        }
    };
    put("genes_per_s", genes_per_s);
    put("genes_per_s_1t", genes_per_s_1t);
    put("latency_p50_us", percentile(&latencies, 0.5));
    put("setup_s", median(&setups.setup_ms).map(|ms| ms / 1e3));
    put("peak_rss_mb", peak_rss_mb());
    put("profile_nrmse", median(&nrmse));
    put(
        "popsim.simulate_ms",
        median(&setups.popsim.iter().map(|p| p.0).collect::<Vec<_>>()),
    );
    put(
        "popsim.kernel_estimate_ms",
        median(&setups.popsim.iter().map(|p| p.1).collect::<Vec<_>>()),
    );
    put("core.engine_build_ms", median(&setups.build_ms));
    put("core.lambda_evals", crate::stats::mean(&lambda_evals));
    if let (Some(g), Some(g1)) = (genes_per_s, genes_per_s_1t) {
        put("runtime.scaling_eff", Some(g / (connections as f64 * g1)));
    }

    let fit_endpoint = stats.endpoints.iter().find(|e| e.name == "fit");
    let lookups = stats.cache_hits + stats.cache_misses;
    let mut report = vec![
        ("connections".to_string(), num(connections as f64)),
        ("inputs".to_string(), inputs_json(&names)),
        ("setups".to_string(), num(setups.setup_ms.len() as f64)),
        (
            "kernel_matches_registry".to_string(),
            Json::Bool(setups.kernel_matches),
        ),
        ("phases".to_string(), num(measured.multi_rates.len() as f64)),
        ("latency_us".to_string(), latency_json(&latencies)),
        ("loaded_latency_us".to_string(), latency_json(&loaded)),
        (
            "server".to_string(),
            Json::Obj(vec![
                ("serve.batches".into(), num(stats.batches as f64)),
                (
                    "serve.mean_batch".into(),
                    num(stats.batched_requests as f64 / stats.batches.max(1) as f64),
                ),
                ("serve.max_batch".into(), num(stats.max_batch as f64)),
                (
                    "serve.cache_hit_rate".into(),
                    num(stats.cache_hits as f64 / lookups.max(1) as f64),
                ),
                ("serve.shed".into(), num(stats.shed as f64)),
                (
                    "serve.deadline_exceeded".into(),
                    num(stats.deadline_exceeded as f64),
                ),
                (
                    "serve.expired_in_queue".into(),
                    num(stats.expired_in_queue as f64),
                ),
                (
                    "serve.panics_caught".into(),
                    num(stats.panics_caught as f64),
                ),
                (
                    "serve.server_fit_p50_us".into(),
                    fit_endpoint.map_or(Json::Null, |e| num(e.p50_us as f64)),
                ),
                (
                    "serve.server_fit_p99_us".into(),
                    fit_endpoint.map_or(Json::Null, |e| num(e.p99_us as f64)),
                ),
            ]),
        ),
    ];

    if let Some(traced) = &traced {
        let layers = replay(&plan, &families, &engines, &mut tracer);
        for (name, value) in &layers.metrics {
            put(name, Some(*value));
        }
        report.push(("layers".to_string(), layers.report));
        let traced_rate = median(&traced.multi_rates);
        if let (Some(t), Some(g)) = (traced_rate, genes_per_s) {
            put("trace.genes_per_s_ratio", Some(t / g));
        }
        report.push((
            "genes_per_s_traced".to_string(),
            traced_rate.map_or(Json::Null, num),
        ));
    }

    let mut tally = measured.multi;
    tally.merge(measured.single);
    if let Some(traced) = traced {
        tally.merge(traced.multi);
        tally.merge(traced.single);
    }
    Ok(Outcome {
        correct: tally.failed == 0 && setups.kernel_matches,
        tally,
        metrics,
        report,
        spans: tracer.spans().to_vec(),
    })
}

/// Per-layer numbers from replaying each served request's server-side
/// steps in the library, one by one.
struct Replayed {
    metrics: Vec<(&'static str, f64)>,
    report: Json,
}

fn replay(
    plan: &[Planned],
    families: &[&cellsync_serve::Family],
    engines: &[Deconvolver],
    tracer: &mut Tracer,
) -> Replayed {
    let cache = EngineCache::new(families.len());
    for (family, engine) in families.iter().zip(engines) {
        let _ = cache.get_or_build(family.key(), || Ok(engine.clone()));
    }
    let deadline = ServerConfig::default().default_deadline;
    let mut server_side_us: BTreeMap<u64, f64> = BTreeMap::new();
    let mut fit_us = Vec::new();
    let mut scan_us = Vec::new();
    let mut fixed_us = Vec::new();
    for (i, planned) in plan.iter().enumerate() {
        let id = Some(i as u64);
        let body = planned.wire.encode();
        let family = families[planned.family];
        let (steps, _) = tracer.timed("replay", id, |t| {
            let (wire, decode) =
                t.timed("wire.request_decode", id, |_| FitRequestWire::decode(&body));
            let wire = wire.ok()?;
            let (engine, lookup) = t.timed("core.session_lookup", id, |_| {
                cache.get_or_build(family.key(), || family.build_engine())
            });
            let engine = engine.ok()?;
            let mut request = FitRequest::new(wire.series).with_sigmas(wire.sigmas?);
            if let Some(budget) = deadline {
                request = request.with_cancel(CancelToken::after(budget));
            }
            let (fit, fit_time) = t.timed("core.fit_request", id, |_| engine.fit_request(&request));
            let fit = fit.ok()?.into_result();
            let (_, encode) = t.timed("wire.response_encode", id, |_| {
                FitResponseWire {
                    alpha: fit.alpha().to_vec(),
                    lambda: fit.lambda(),
                    predicted: fit.predicted().to_vec(),
                    weighted_sse: fit.weighted_sse(),
                    band: None,
                }
                .encode()
            });
            let _ = t.timed("spline.profile_eval", id, |_| fit.profile(PROFILE_GRID));
            let fixed = (!fit.selection_scores().is_empty()).then(|| {
                let fixed_request = FitRequest::new(planned.wire.series.clone())
                    .with_sigmas(planned.wire.sigmas.clone().unwrap_or_default())
                    .with_lambda(fit.lambda());
                t.timed("core.fixed_lambda_fit", id, |_| {
                    engine.fit_request(&fixed_request)
                })
                .1
            });
            Some((decode + lookup + fit_time + encode, fit_time, fixed))
        });
        if let Some((server_side, fit, fixed)) = steps {
            server_side_us.insert(i as u64, server_side);
            fit_us.push(fit);
            if let Some(fixed) = fixed {
                fixed_us.push(fixed);
                scan_us.push(fit - fixed);
            }
        }
    }

    // Round trip minus the replayed server-side layers of the same
    // request: transport, admission, queue wait and linger.
    let unaccounted: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "serve.roundtrip")
        .filter_map(|s| {
            let id = s.id? % plan.len() as u64;
            server_side_us
                .get(&id)
                .map(|server| s.duration_ns() as f64 / 1e3 - server)
        })
        .collect();
    let fit_sorted = sorted(fit_us);
    let p50 = |name: &str| median(&tracer.durations_us(name));
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: Option<f64>| {
        if let Some(v) = value {
            metrics.push((name, v));
        }
    };
    put("core.fit_us.p50", percentile(&fit_sorted, 0.5));
    put("core.fit_us.p99", percentile(&fit_sorted, 0.99));
    put("core.fixed_lambda_fit_us.p50", median(&fixed_us));
    put("core.lambda_scan_us.p50", median(&scan_us));
    put("spline.profile_eval_us", p50("spline.profile_eval"));
    put("unaccounted_us.p50", median(&unaccounted));
    let opt = |v: Option<f64>| v.map_or(Json::Null, num);
    let report = Json::Obj(vec![
        (
            "wire.request_encode_us".into(),
            opt(p50("wire.request_encode")),
        ),
        (
            "wire.response_decode_us".into(),
            opt(p50("wire.response_decode")),
        ),
        (
            "wire.request_decode_us".into(),
            opt(p50("wire.request_decode")),
        ),
        (
            "core.session_lookup_us".into(),
            opt(p50("core.session_lookup")),
        ),
        ("core.fit_request_us".into(), opt(p50("core.fit_request"))),
        (
            "wire.response_encode_us".into(),
            opt(p50("wire.response_encode")),
        ),
        ("serve.roundtrip_us".into(), opt(p50("serve.roundtrip"))),
        ("serve.unaccounted_us".into(), opt(median(&unaccounted))),
        ("replayed_requests".into(), num(server_side_us.len() as f64)),
    ]);
    Replayed { metrics, report }
}

/// The workload's input sizes.
fn inputs_json(families: &[String]) -> Json {
    Json::Obj(vec![
        ("cells".into(), num(CELLS as f64)),
        ("bins".into(), num(BINS as f64)),
        ("measurements".into(), num(TIMES as f64)),
        ("basis".into(), num(BASIS as f64)),
        (
            "families".into(),
            Json::Arr(families.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        (
            "lambda_grid".into(),
            Json::Str("fixed 1e-4 | gcv 1e-6..1, 13 points | smooth 1e-2".into()),
        ),
        ("request_pool".into(), num(POOL as f64)),
        ("noise_fraction".into(), num(NOISE_FRACTION)),
        ("sigmas".into(), Json::Bool(true)),
        ("server_config".into(), Json::Str("default".into())),
        ("phase_s".into(), num(PHASE_S)),
    ])
}
