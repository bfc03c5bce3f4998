//! # gss-bench — timing benches
//!
//! The `harness = false` bench targets of this crate time the library itself, not a paper
//! figure: `micro_operations` (per-operation latencies, and the in-process A/B shape for
//! kernel changes), `ingest_scaling`, `query_scaling`, `snapshot_io` and
//! `durability_cost` (the `[[bench]]` entries of this crate's `Cargo.toml` are the index).
//! Each times its rows with plain `Instant` loops.  The paper's tables and figures are
//! regenerated by the `gss-experiments` binary, one subcommand per figure.
//!
//! All but `micro_operations` read the experiment scale from the `GSS_SCALE` environment
//! variable (`smoke` — default, `laptop`, `paper`).
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

/// The scale selected for this bench run, with a banner so logs are self-describing.
///
/// # Panics
/// If `GSS_SCALE` names no scale: a mistyped scale must not run at smoke scale.
pub fn bench_scale(target: &str) -> ExperimentScale {
    let scale = ExperimentScale::from_env().expect("GSS_SCALE names smoke, laptop or paper");
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
