//! `gss-benchmark`: the repo's end-to-end and per-layer benchmark (see `README.md`).
//!
//! ```text
//! gss-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! gss-benchmark suite [--seed N] [--quick]        all workloads, untraced then traced
//! gss-benchmark compare A.json… -- B.json…        medians, quartiles, verdict per metric
//! gss-benchmark aa N                              two interleaved sets of N runs, compared
//! ```
//!
//! A run prints the context block and the metric table, writes the same to
//! `benchmark/out/`, and ends with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`.  It exits non-zero if any request failed or any answer broke the sketch's
//! one-sided-error contract.

mod compare;
mod inputs;
mod json;
mod machine;
mod metrics;
mod rings;
mod stats;
mod wire;
mod workloads;

use json::Json;
use std::process::ExitCode;
use workloads::{Options, Outcome, Spec, REFERENCE_SECONDS};

const USAGE: &str = "usage:
  gss-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
  gss-benchmark suite [--seed N] [--seconds S] [--quick]
  gss-benchmark compare A.json... -- B.json...
  gss-benchmark aa N [--seed N]
workloads: wire_hot wire_cold wire_mixed lib_memory";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: REFERENCE_SECONDS,
        trace: false,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(parsed.seconds >= 1.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be within 1..=60".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Runs one workload once and returns the full result document.
fn run_one(spec: &'static Spec, args: &RunArgs) -> Result<(Json, bool), String> {
    let options = Options { spec, seed: args.seed, seconds: args.seconds, quick: args.quick };
    let placement = machine::Placement::get();
    let calibration_before = machine::calibration_mops();
    let Outcome { mut report, ops, context } =
        if args.trace { rings::run(&options)? } else { workloads::run(&options)? };
    let calibration = (calibration_before + machine::calibration_mops()) / 2.0;
    if args.trace {
        report.set("bench.calib_mops", calibration, Some(2));
        report.set("bench.attempted_ops", ops.attempted as f64, None);
        report.set("bench.failed_ops", ops.failed as f64, None);
    }
    report.sort_like_tables();
    let missing = report.missing(args.trace);
    if !missing.is_empty() {
        return Err(format!("run finished without measuring {missing:?}"));
    }

    let mut full_context = machine::context(placement);
    full_context.extend(context);
    full_context.push(("calib_mops".into(), Json::Num(calibration)));
    let correct = ops.failed == 0;
    let document = Json::obj([
        ("context", Json::Obj(full_context)),
        ("trace", Json::Bool(args.trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(ops.attempted as f64)),
        ("failed", Json::Num(ops.failed as f64)),
        ("metrics", report.to_json(true)),
    ]);

    println!("{}", document.get("context").expect("just built").render_pretty());
    print!("{}", report.table());
    println!("attempted={} failed={}", ops.attempted, ops.failed);
    let file = workloads::out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(workloads::out_dir())
        .and_then(|()| std::fs::write(&file, document.render_pretty()))
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    // The contract's result line: last on stdout, exactly these four keys.
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(ops.attempted as f64)),
            ("failed", Json::Num(ops.failed as f64)),
            ("metrics", report.to_json(false)),
        ])
        .render()
    );
    Ok((document, correct))
}

/// All workloads, untraced then traced, gathered into `benchmark/out/result.json`.
fn suite(args: &RunArgs) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for spec in workloads::SPECS {
        for trace in [false, true] {
            eprintln!("== {} trace={}", spec.name, u8::from(trace));
            let (document, correct) = run_one(spec, &RunArgs { trace, workload: None, ..*args })?;
            all_correct &= correct;
            runs.push(document);
        }
    }
    let file = workloads::out_dir().join("result.json");
    std::fs::write(&file, Json::obj([("runs", Json::Arr(runs))]).render_pretty())
        .map_err(|e| format!("write {}: {e}", file.display()))?;
    eprintln!("wrote {}", file.display());
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => Err(USAGE.to_string()),
        Some("compare") => compare::compare_command(&args[1..]),
        Some("aa") => compare::aa_command(&args[1..]),
        Some("suite") => suite(&parse_run_args(&args[1..])?),
        Some(_) => {
            let run = parse_run_args(args)?;
            let name = run.workload.as_deref().ok_or("--workload is required")?;
            let spec = Spec::by_name(name).ok_or(format!("unknown workload `{name}`\n{USAGE}"))?;
            run_one(spec, &run).map(|(_, correct)| correct)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("gss-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
