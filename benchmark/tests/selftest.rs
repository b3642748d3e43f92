//! Self-tests of the benchmark's own code: percentiles, outcome
//! accounting, metric names, seeded inputs, spans and arguments.

use std::collections::BTreeMap;

use cellsync_benchmark::inputs::{family_mix, sample_indices, Genes};
use cellsync_benchmark::report::{
    result_line, valid_name, valid_unit, Better, Tally, END_TO_END, PER_LAYER,
};
use cellsync_benchmark::stats::{beyond, median, percentile, supported_ladder};
use cellsync_benchmark::trace::{layer_totals, self_times_ns, Span};
use cellsync_benchmark::Args;
use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};
use cellsync_wire::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn top_percentile_needs_ten_samples_beyond_it() {
    let top = |n: usize| {
        let sample: Vec<f64> = (0..n).map(|i| i as f64).collect();
        supported_ladder(&sample).last().map(|&(p, _)| p)
    };
    assert_eq!(top(0), None);
    assert_eq!(top(19), None);
    assert_eq!(beyond(20, 0.5), 10);
    assert_eq!(top(20), Some(0.5));
    assert_eq!(top(99), Some(0.5));
    assert_eq!(top(100), Some(0.9));
    assert_eq!(beyond(999, 0.99), 9);
    assert_eq!(top(999), Some(0.98));
    assert_eq!(top(1000), Some(0.99));
    assert_eq!(top(10_000), Some(0.999));
    let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(
        supported_ladder(&sample),
        vec![
            (0.5, 500.0),
            (0.9, 900.0),
            (0.95, 950.0),
            (0.98, 980.0),
            (0.99, 990.0)
        ]
    );
}

#[test]
fn percentile_is_nearest_rank_on_measured_samples() {
    let sample: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sample, 0.5), Some(50.0));
    assert_eq!(percentile(&sample, 0.99), Some(99.0));
    assert_eq!(percentile(&sample, 1.0), Some(100.0));
    assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn failures_count_against_attempted_and_stay_out_of_latency() {
    let mut tally = Tally::default();
    tally.success(Some(120.0));
    tally.success(None);
    tally.failure("linalg");
    tally.failures("mismatch", 3);
    assert_eq!(tally.attempted, 6);
    assert_eq!(tally.failed, 4);
    assert_eq!(tally.succeeded(), 2);
    assert_eq!(tally.latencies_us, vec![120.0]);
    assert!((tally.error_rate() - 4.0 / 6.0).abs() < 1e-15);
    assert_eq!(tally.by_code.get("linalg"), Some(&1));
    assert_eq!(tally.by_code.get("mismatch"), Some(&3));

    let mut other = Tally::default();
    other.failure("linalg");
    other.success(Some(80.0));
    tally.merge(other);
    assert_eq!((tally.attempted, tally.failed), (8, 5));
    assert_eq!(tally.by_code.get("linalg"), Some(&2));
    assert_eq!(tally.latencies_us, vec![120.0, 80.0]);
    assert_eq!(Tally::default().error_rate(), 0.0);
}

#[test]
fn metric_names_and_units_use_the_allowed_alphabet() {
    for ok in ["genes_per_s", "core.fit_us.p50", "a-b", "9lives"] {
        assert!(valid_name(ok), "{ok}");
    }
    let long = "x".repeat(65);
    for bad in [
        "",
        "_lead",
        ".lead",
        "sp ace",
        "slash/",
        "µs",
        long.as_str(),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
    for ok in ["us", "genes/s", "1/s", "%", "count"] {
        assert!(valid_unit(ok), "{ok}");
    }
    for bad in ["", "µs", "a b", "seventeen-chars-x"] {
        assert!(!valid_unit(bad), "{bad}");
    }
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(d.name) && valid_unit(d.unit), "{}", d.name);
        assert!(seen.insert(d.name), "{} listed twice", d.name);
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let expected =
        |defs: &[cellsync_benchmark::report::MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| {
                    let better = match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (d.name.to_string(), d.unit.to_string(), better.to_string())
                })
                .collect()
        };
    assert_eq!(listed("end_to_end"), expected(&END_TO_END));
    assert_eq!(listed("per_layer"), expected(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    for w in &workloads {
        assert!(cellsync_benchmark::WORKLOADS.contains(w), "{w}");
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let defs = &END_TO_END[..2];
    let mut values = BTreeMap::new();
    values.insert("genes_per_s", 123.5);
    let (_, missing) = result_line(true, 10, 0, defs, &values).unwrap();
    assert_eq!(missing, ["genes_per_s_1t"]);
    values.insert("genes_per_s_1t", 60.25);
    let (line, missing) = result_line(false, 10, 2, defs, &values).unwrap();
    assert!(missing.is_empty());
    let doc = Json::parse(&line).unwrap();
    let Json::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(2.0));
    let metric = doc
        .get("metrics")
        .and_then(|m| m.get("genes_per_s_1t"))
        .unwrap();
    assert_eq!(metric.get("value").and_then(Json::as_f64), Some(60.25));
    assert_eq!(metric.get("unit").and_then(Json::as_str), Some("genes/s"));
}

#[test]
fn same_seed_gives_identical_inputs() {
    let params = CellCycleParams::caulobacter().unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let population =
        Population::synchronized(400, &params, InitialCondition::UniformSwarmer, &mut rng)
            .unwrap()
            .simulate_until(150.0)
            .unwrap();
    let times: Vec<f64> = (0..10).map(|i| 150.0 * f64::from(i) / 9.0).collect();
    let kernel = KernelEstimator::new(32)
        .unwrap()
        .estimate(&population, &times)
        .unwrap();
    let bits = |g: &Genes| -> Vec<u64> {
        g.series
            .iter()
            .chain(&g.sigmas)
            .flatten()
            .chain(&g.peaks)
            .map(|v| v.to_bits())
            .collect()
    };
    let a = Genes::generate(&kernel, 40, 7).unwrap();
    let b = Genes::generate(&kernel, 40, 7).unwrap();
    let c = Genes::generate(&kernel, 40, 8).unwrap();
    assert_eq!(bits(&a), bits(&b));
    assert_ne!(bits(&a), bits(&c));
    // Peaks are drawn, not swept in order.
    assert!(a.peaks.windows(2).any(|w| w[0] > w[1]));
    assert!(a.peaks.iter().all(|p| (0.15..=0.85).contains(p)));

    assert_eq!(family_mix(100, 3, 7), family_mix(100, 3, 7));
    assert_ne!(family_mix(100, 3, 7), family_mix(100, 3, 8));
    assert!(family_mix(300, 3, 7).iter().all(|&f| f < 3));
    let sample = sample_indices(2000, 32, 7);
    assert_eq!(sample, sample_indices(2000, 32, 7));
    assert_eq!(sample.len(), 32);
    assert!(sample.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(sample_indices(5, 32, 7), vec![0, 1, 2, 3, 4]);
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        id: None,
    };
    let spans = vec![
        span("gene", 0, 100, None),
        span("core.fit_request", 10, 60, Some(0)),
        span("inner", 20, 30, Some(1)),
        span("spline.profile_eval", 70, 90, Some(0)),
    ];
    assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    let totals = layer_totals(&spans);
    assert_eq!(totals["gene"].total_ns, 100);
    assert_eq!(totals["gene"].self_ns, 30);
    assert_eq!(totals["core.fit_request"].count, 1);
}

#[test]
fn arguments_follow_the_driver_interface() {
    let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let args = parse("--workload genome_dense --seed 3 --seconds 10 --trace 1").unwrap();
    assert_eq!(args.workload, "genome_dense");
    assert_eq!((args.seed, args.seconds, args.trace), (3, 10.0, true));
    assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
    assert!(parse("--workload serve_closed --seconds 10").is_err());
    assert!(parse("--workload serve_closed --seed 1 --seconds 0 --trace 0").is_err());
    assert!(parse("--workload serve_closed --seed 1 --seconds 5 --trace 2").is_err());
    assert!(parse("--workload serve_closed --seed 1 --seconds 5 --bogus").is_err());
}
