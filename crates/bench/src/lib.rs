//! # gss-bench — benchmark harness
//!
//! One `harness = false` bench target per table/figure of the paper (the `[[bench]]`
//! entries of this crate's `Cargo.toml` are the index).  Accuracy figures print the same x/y
//! series the paper plots and write CSVs under `target/experiments/`; timing targets
//! (Table I, `micro_operations`) time their rows with plain `Instant` loops.
//!
//! All targets read the experiment scale from the `GSS_SCALE` environment variable
//! (`smoke` — default, `laptop`, `paper`).
//!
//! ## Quick start
//!
//! ```
//! use gss_bench::bench_scale;
//!
//! // Prints the self-describing banner and returns the scale selected via GSS_SCALE.
//! let scale = bench_scale("doctest");
//! assert!(!scale.name().is_empty());
//! ```

use gss_experiments::ExperimentScale;

pub use gss_experiments::emit;

/// The scale selected for this bench run, with a banner so logs are self-describing.
pub fn bench_scale(target: &str) -> ExperimentScale {
    let scale = ExperimentScale::from_env();
    println!(
        "## {target} — GSS paper reproduction bench (scale: {}, set GSS_SCALE=laptop|paper to \
         enlarge)\n",
        scale.name()
    );
    scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_experiments::{experiments_dir, Table};

    #[test]
    fn emit_writes_numbered_csvs_for_multiple_tables() {
        let mut a = Table::new("a", &["x"]);
        a.push_row(vec!["1".into()]);
        let b = Table::new("b", &["y"]);
        emit(&[a, b], "bench_emit_test");
        let dir = experiments_dir();
        assert!(dir.join("bench_emit_test_0.csv").exists());
        assert!(dir.join("bench_emit_test_1.csv").exists());
        std::fs::remove_file(dir.join("bench_emit_test_0.csv")).ok();
        std::fs::remove_file(dir.join("bench_emit_test_1.csv")).ok();
    }

    #[test]
    fn bench_scale_defaults_to_smoke_without_env() {
        // The test environment does not set GSS_SCALE (and if it does, the call still
        // returns a valid scale).
        let scale = bench_scale("unit-test");
        assert!(matches!(
            scale,
            ExperimentScale::Smoke | ExperimentScale::Laptop | ExperimentScale::Paper
        ));
    }
}
