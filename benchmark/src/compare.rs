//! `compare` and `aa`: two sets of runs held against the benchmark's own bounds.
//!
//! The verdict per workload × end-to-end metric follows the choosing-metrics guide:
//! `outside` when B's median is worse than A's by more than the bound, `unresolved`
//! when either side's own run-to-run spread (inter-quartile distance over median) is
//! wider than the bound — unless every run of B is better than every run of A — and
//! `within` otherwise.  Per-layer metrics are listed without a verdict.

use crate::json::Json;
use crate::metrics::{self, format_value, Better};
use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::{self, SPECS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// One run as read back from a result file.
struct RunDoc {
    workload: String,
    metrics: Vec<(String, f64)>,
}

fn parse_run(doc: &Json, origin: &Path) -> Result<RunDoc, String> {
    let context = doc.get("context").ok_or(format!("{}: no context block", origin.display()))?;
    if context.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{}: a --quick run is for smoke use and cannot be compared",
            origin.display()
        ));
    }
    let workload = context
        .get("workload")
        .and_then(Json::as_str)
        .ok_or(format!("{}: context names no workload", origin.display()))?
        .to_string();
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or(format!("{}: no metrics", origin.display()))?
        .iter()
        .filter_map(|(name, metric)| Some((name.clone(), metric.get("value")?.as_f64()?)))
        .collect();
    Ok(RunDoc { workload, metrics })
}

/// Reads a single-run file or a suite `result.json` (`{"runs": […]}`).
fn load(paths: &[String]) -> Result<Vec<RunDoc>, String> {
    let mut runs = Vec::new();
    for path in paths {
        let path = Path::new(path);
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        match doc.get("runs").and_then(Json::as_array) {
            Some(list) => {
                for run in list {
                    runs.push(parse_run(run, path)?);
                }
            }
            None => runs.push(parse_run(&doc, path)?),
        }
    }
    Ok(runs)
}

fn values(runs: &[RunDoc], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|run| run.workload == workload)
        .filter_map(|run| run.metrics.iter().find(|(name, _)| name == metric).map(|&(_, v)| v))
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Outside,
    Unresolved,
}

/// How much worse B's median is than A's, as a share of A's (negative = better).
fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (a, b) = (median(a), median(b));
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let spread = relative_spread(a).into_iter().chain(relative_spread(b)).fold(0.0, f64::max);
    if spread > bound {
        let b_always_better = match better {
            Better::Lower => b.iter().all(|b| a.iter().all(|a| b < a)),
            Better::Higher => b.iter().all(|b| a.iter().all(|a| b > a)),
        };
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    if worsening(a, b, better) > bound {
        Verdict::Outside
    } else {
        Verdict::Within
    }
}

fn summary(samples: &[f64]) -> String {
    match quartiles(samples) {
        Some((q1, _, q3)) => format!(
            "{} [{} .. {}]",
            format_value(median(samples)),
            format_value(q1),
            format_value(q3)
        ),
        None => format_value(median(samples)),
    }
}

/// Prints the comparison table; returns the worst verdict per `(workload, metric)`.
fn compare(a: &[RunDoc], b: &[RunDoc]) -> Vec<(String, &'static str, f64, Verdict)> {
    let mut verdicts = Vec::new();
    println!(
        "{:<11} {:<36} {:>34} {:>34} {:>9} {:>7}  verdict",
        "workload", "metric", "A median [q1 .. q3]", "B median [q1 .. q3]", "worse %", "bound %"
    );
    for spec in SPECS {
        let gated = metrics::END_TO_END.iter().map(|m| (m.name, m.better, Some(m.bound)));
        let informational = metrics::PER_LAYER.iter().map(|m| (m.name, m.better, None));
        for (name, better, bound) in gated.chain(informational) {
            let (va, vb) = (values(a, spec.name, name), values(b, spec.name, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let worse = worsening(&va, &vb, better);
            let (bound_text, verdict_text) = match bound {
                Some(bound) => {
                    let verdict = verdict(&va, &vb, better, bound);
                    verdicts.push((spec.name.to_string(), name, worse, verdict));
                    (format!("{:.1}", bound * 100.0), format!("{verdict:?}").to_lowercase())
                }
                None => ("-".to_string(), "-".to_string()),
            };
            println!(
                "{:<11} {:<36} {:>34} {:>34} {:>+9.2} {:>7}  {}",
                spec.name,
                name,
                summary(&va),
                summary(&vb),
                worse * 100.0,
                bound_text,
                verdict_text
            );
        }
    }
    verdicts
}

/// `compare A… -- B…`; exits non-zero if any gated metric is `outside`.
pub fn compare_command(args: &[String]) -> Result<bool, String> {
    let split = args.iter().position(|arg| arg == "--").ok_or("compare needs `A... -- B...`")?;
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err("compare needs at least one file on each side of `--`".to_string());
    }
    let verdicts = compare(&a, &b);
    Ok(verdicts.iter().all(|(_, _, _, verdict)| *verdict != Verdict::Outside))
}

/// Runs one untraced run of `workload` in a fresh process (as the driver does) and
/// moves its result file to `to`.
fn run_fresh(workload: &str, seed: u64, to: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--trace", "0"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !status.success() {
        return Err(format!("run of {workload} seed {seed} failed ({status})"));
    }
    let written = workloads::out_dir().join(format!("{workload}-seed{seed}-trace0.json"));
    std::fs::rename(&written, to).map_err(|e| format!("move {}: {e}", written.display()))
}

/// `aa N`: two interleaved sets of N runs of the current tree (same seeds on both
/// sides), compared; fails if any end-to-end metric is `outside` its own bound.
pub fn aa_command(args: &[String]) -> Result<bool, String> {
    let runs: u64 = args
        .first()
        .and_then(|n| n.parse().ok())
        .filter(|&n| n >= 2)
        .ok_or("aa needs a run count of at least 2")?;
    let first_seed: u64 = match args.get(1).map(String::as_str) {
        None => 1,
        Some("--seed") => {
            args.get(2).and_then(|s| s.parse().ok()).ok_or("--seed needs a number")?
        }
        Some(other) => return Err(format!("unknown argument `{other}`")),
    };
    let dir = workloads::out_dir().join("aa");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut files: [Vec<String>; 2] = Default::default();
    for round in 0..runs {
        for spec in SPECS {
            // Alternate which side goes first so neither always inherits a warm machine.
            let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let seed = first_seed + round;
                let file: PathBuf =
                    dir.join(format!("{}-{}-seed{seed}.json", ["A", "B"][side], spec.name));
                eprintln!("aa: {} side {} seed {seed}", spec.name, ["A", "B"][side]);
                run_fresh(spec.name, seed, &file)?;
                files[side].push(file.display().to_string());
            }
        }
    }
    let verdicts = compare(&load(&files[0])?, &load(&files[1])?);
    let outside: Vec<_> = verdicts.iter().filter(|(_, _, _, v)| *v == Verdict::Outside).collect();
    for (workload, metric, worse, _) in &outside {
        eprintln!(
            "aa: {workload}/{metric} differs by {:.2} % between two sets of the same code",
            worse * 100.0
        );
    }
    Ok(outside.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&steady, &same, Better::Lower, 0.10), Verdict::Within);
        assert_eq!(verdict(&steady, &slower, Better::Lower, 0.10), Verdict::Outside);
        assert_eq!(verdict(&steady, &faster, Better::Lower, 0.10), Verdict::Within);
        // The same numbers read the other way when higher is better.
        assert_eq!(verdict(&steady, &slower, Better::Higher, 0.10), Verdict::Within);
        assert_eq!(verdict(&steady, &faster, Better::Higher, 0.10), Verdict::Outside);
        // A side noisier than the bound cannot resolve a difference…
        let noisy = [80.0, 120.0, 95.0, 105.0, 100.0];
        assert_eq!(verdict(&noisy, &slower, Better::Lower, 0.10), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let far_better = [50.0, 51.0, 49.0, 50.5, 49.5];
        assert_eq!(verdict(&noisy, &far_better, Better::Lower, 0.10), Verdict::Within);
    }

    #[test]
    fn quick_runs_are_refused() {
        let doc =
            Json::parse(r#"{"context": {"workload": "wire_hot", "quick": true}, "metrics": {}}"#)
                .unwrap();
        assert!(parse_run(&doc, Path::new("x.json")).is_err());
        let doc = Json::parse(
            r#"{"context": {"workload": "wire_hot", "quick": false},
                "metrics": {"edge_qps": {"value": 5.5, "unit": "1/s"}}}"#,
        )
        .unwrap();
        let run = parse_run(&doc, Path::new("x.json")).unwrap();
        assert_eq!(
            (run.workload.as_str(), run.metrics.as_slice()),
            ("wire_hot", &[("edge_qps".to_string(), 5.5)][..])
        );
    }
}
