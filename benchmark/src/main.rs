//! `cellsync-benchmark --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints two lines on standard output: a report
//! (provenance, input sizes, error rate and failures by code, and the
//! layers only this workload exercises), then the result line
//! `{"correct", "attempted", "failed", "metrics"}`. A traced run also
//! writes its spans to `.bench_out/trace-<workload>-<seed>.jsonl`.

use std::process::ExitCode;

use cellsync_benchmark::report::{result_line, END_TO_END, PER_LAYER};
use cellsync_benchmark::{genome, nproc, num, serve, trace, Args, Outcome};
use cellsync_wire::Json;

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "genome_dense" => genome::run(args, 18),
        "genome_banded" => genome::run(args, 160),
        "serve_closed" => serve::run(args),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The commit measured. `git` runs only in a git checkout: elsewhere it
/// would search the parent directories and could name an unrelated
/// repository.
fn git_commit() -> String {
    let stamped = std::env::var_os("CELLSYNC_GIT_COMMIT").is_some();
    if stamped || std::path::Path::new(".git").exists() {
        cellsync_bench::stamp::git_commit()
    } else {
        "unknown".to_string()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cellsync-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("cellsync-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mut trace_file = Json::Null;
    if args.trace {
        let path = format!("{TRACE_DIR}/trace-{}-{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, trace::render_lines(&outcome.spans)));
        match written {
            Ok(()) => trace_file = Json::Str(path),
            Err(e) => eprintln!("cellsync-benchmark: cannot write {path}: {e}"),
        }
    }
    let self_time = Json::Obj(
        trace::layer_totals(&outcome.spans)
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), num(t.count as f64)),
                        ("total_ms".into(), num(t.total_ns as f64 / 1e6)),
                        ("self_ms".into(), num(t.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    );
    let mut report = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), num(args.seed as f64)),
        ("seconds".to_string(), num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("git_commit".to_string(), Json::Str(git_commit())),
        ("nproc".to_string(), num(nproc() as f64)),
        ("attempted".to_string(), num(outcome.tally.attempted as f64)),
        ("failed".to_string(), num(outcome.tally.failed as f64)),
        ("error_rate".to_string(), num(outcome.tally.error_rate())),
        ("errors_by_code".to_string(), outcome.tally.codes_json()),
    ];
    report.extend(outcome.report);
    report.push(("self_time".to_string(), self_time));
    report.push(("trace_file".to_string(), trace_file));
    println!(
        "{}",
        Json::Obj(vec![("report".into(), Json::Obj(report))]).render()
    );

    let defs: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(
        outcome.correct,
        outcome.tally.attempted,
        outcome.tally.failed,
        defs,
        &outcome.metrics,
    ) {
        Ok((line, missing)) => {
            println!("{line}");
            if missing.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "cellsync-benchmark: {}: not measured: {}",
                    args.workload,
                    missing.join(", ")
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("cellsync-benchmark: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
