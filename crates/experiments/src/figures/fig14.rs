//! Fig. 14: triangle counting on cit-HepPh — GSS vs TRIÈST at equal memory.
//!
//! For each memory budget the harness builds a GSS sketch whose matrix fits the budget and a
//! TRIÈST reservoir of the capacity that fits the same budget, feeds both the stream (TRIÈST
//! receives the deduplicated undirected edges, as in the paper), counts triangles through
//! the query primitives on GSS, and reports each estimator's relative error against the
//! exact count.

use crate::builders::build_gss;
use crate::context::DatasetRun;
use crate::report::{fmt_float, Table};
use crate::scale::ExperimentScale;
use gss_baselines::Triest;
use gss_core::GssConfig;
use gss_datasets::SyntheticDataset;
use gss_graph::algorithms::count_triangles;

/// Memory budgets in megabytes at paper scale (the x-axis of Fig. 14).
pub const PAPER_MEMORY_MB: [f64; 6] = [2.5, 3.0, 3.5, 4.0, 4.5, 5.0];

/// GSS width whose matrix (2 rooms, 16-bit fingerprints) fits `bytes`.
fn gss_width_for_bytes(bytes: f64) -> usize {
    let config = GssConfig::paper_default(1);
    let per_bucket = (config.rooms * config.bytes_per_room()) as f64;
    ((bytes / per_bucket).sqrt().floor() as usize).max(4)
}

/// Runs Fig. 14 on a pre-built dataset run.
pub fn run_fig14_on(scale: ExperimentScale, run: &DatasetRun) -> Table {
    let mut table = Table::new(
        format!("Fig 14: triangle count relative error — cit-HepPh ({} scale)", scale.name()),
        &["memory_mb", "gss_relative_error", "triest_relative_error"],
    );
    let exact_count = count_triangles(&run.exact, &run.vertices) as f64;
    // Scale the paper's memory axis with the dataset scale so the sample/|E| ratios match.
    let memory_scale = run.profile.scale.max(1e-6);
    for &paper_mb in &PAPER_MEMORY_MB {
        let bytes = paper_mb * 1_048_576.0 * memory_scale;
        // GSS under the budget.
        let config = GssConfig::paper_small(gss_width_for_bytes(bytes)).with_fingerprint_bits(16);
        let mut gss = build_gss(config, scale, "fig14");
        run.insert_into(&mut gss);
        let gss_count = count_triangles(&gss, &run.vertices) as f64;
        let gss_error =
            if exact_count > 0.0 { (gss_count - exact_count).abs() / exact_count } else { 0.0 };
        // TRIÈST under the same budget, on the deduplicated undirected stream.
        let mut triest = Triest::with_seed(Triest::capacity_for_memory(bytes as usize), 0x7714);
        triest.insert_stream_deduplicated(
            run.items.iter().map(|item| (item.source, item.destination)),
        );
        let triest_error = if exact_count > 0.0 {
            (triest.triangle_estimate() - exact_count).abs() / exact_count
        } else {
            0.0
        };
        table.push_row(vec![
            format!("{paper_mb:.1}"),
            fmt_float(gss_error),
            fmt_float(triest_error),
        ]);
    }
    table
}

/// Runs Fig. 14, generating the cit-HepPh dataset at the given scale.
pub fn run_fig14(scale: ExperimentScale) -> Table {
    let run = DatasetRun::build(SyntheticDataset::CitHepPh, scale);
    run_fig14_on(scale, &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_datasets::DatasetProfile;

    #[test]
    fn both_estimators_achieve_small_relative_error() {
        let profile: DatasetProfile = SyntheticDataset::CitHepPh.smoke_profile().scaled(0.03);
        let run = DatasetRun::from_profile(profile);
        let table = run_fig14_on(ExperimentScale::Smoke, &run);
        assert_eq!(table.rows.len(), PAPER_MEMORY_MB.len());
        for row in &table.rows {
            let gss_error: f64 = row[1].parse().unwrap();
            let triest_error: f64 = row[2].parse().unwrap();
            assert!(gss_error >= 0.0 && triest_error >= 0.0);
            // The paper reports < 1% for both; allow generous slack at the reduced scale,
            // where the TRIÈST reservoir is only a few thousand edges.
            assert!(gss_error < 0.25, "GSS relative error {gss_error} too large");
            assert!(triest_error < 0.75, "TRIEST relative error {triest_error} too large");
        }
    }

    #[test]
    fn width_sizing_is_monotone_in_memory() {
        assert!(gss_width_for_bytes(1_000_000.0) > gss_width_for_bytes(100_000.0));
        assert!(gss_width_for_bytes(1.0) >= 4);
    }
}
