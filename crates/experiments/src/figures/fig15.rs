//! Fig. 15: subgraph matching on windows of the web-NotreDame stream — GSS (VF2 over the
//! primitives, at one tenth of the exact matcher's memory) vs an exact windowed matcher
//! (the SJ-tree stand-in).
//!
//! For every window size the harness samples a few windows, extracts query patterns from
//! each window by random walk (6/9/12/15 edges, several instances each, as in the paper),
//! and asks both matchers for an embedding.  A GSS answer is *correct* when the embedding it
//! returns is verified edge-by-edge against the exact window graph; the exact matcher is
//! correct by construction, so its row is the constant 1.0 the paper plots.

use crate::builders::build_gss;
use crate::context::DatasetRun;
use crate::report::{fmt_float, Table};
use crate::scale::ExperimentScale;
use gss_baselines::ExactWindowMatcher;
use gss_core::GssConfig;
use gss_datasets::SyntheticDataset;
use gss_graph::algorithms::find_pattern_matches;
use gss_graph::{StreamEdge, SummaryRead, SummaryWrite};

/// Window sizes (in stream items) at paper scale.
pub const PAPER_WINDOW_SIZES: [usize; 5] = [10_000, 20_000, 30_000, 40_000, 50_000];
/// Pattern sizes in edges, as in the paper.
pub const PATTERN_EDGE_COUNTS: [usize; 4] = [6, 9, 12, 15];

/// How many windows and pattern instances to evaluate per window size.
fn sampling(scale: ExperimentScale) -> (usize, usize) {
    match scale {
        ExperimentScale::Smoke => (2, 2),
        ExperimentScale::Laptop => (3, 3),
        ExperimentScale::Paper => (5, 5),
    }
}

/// GSS width whose matrix (2 rooms, 16-bit fingerprints) uses about one tenth of `bytes`.
fn gss_width_for_tenth(bytes: usize) -> usize {
    let config = GssConfig::paper_default(1);
    let per_bucket = (config.rooms * config.bytes_per_room()) as f64;
    (((bytes as f64 / 10.0) / per_bucket).sqrt().floor() as usize).max(8)
}

/// Evaluates one window: returns `(correct, attempted)` GSS pattern verdicts.
fn evaluate_window(
    window: &[StreamEdge],
    instances_per_size: usize,
    seed: u64,
    scale: ExperimentScale,
) -> (usize, usize) {
    let exact = ExactWindowMatcher::from_window(window);
    if exact.vertex_count() < 4 {
        return (0, 0);
    }
    let config = GssConfig::paper_default(gss_width_for_tenth(exact.memory_bytes()));
    let mut gss = build_gss(config, scale, "fig15");
    for item in window {
        gss.insert(item.source, item.destination, item.weight);
    }
    let universe = exact.vertices().to_vec();
    let mut correct = 0usize;
    let mut attempted = 0usize;
    for (size_index, &edge_count) in PATTERN_EDGE_COUNTS.iter().enumerate() {
        for instance in 0..instances_per_size {
            let start = universe[(seed as usize + size_index * 31 + instance * 7) % universe.len()];
            let pattern_seed = seed ^ ((size_index as u64) << 32) ^ instance as u64;
            let Some(pattern) = exact.random_walk_pattern(start, edge_count, pattern_seed) else {
                continue;
            };
            attempted += 1;
            // Ask GSS for one embedding and verify it against the exact window graph.
            let matches = find_pattern_matches(&gss, &pattern, &universe, 1);
            let verified = matches.first().is_some_and(|mapping| {
                pattern.edges().iter().all(|edge| {
                    let source = mapping[&edge.source];
                    let destination = mapping[&edge.destination];
                    exact.graph().edge_weight(source, destination).is_some()
                })
            });
            if verified {
                correct += 1;
            }
        }
    }
    (correct, attempted)
}

/// Runs Fig. 15 on a pre-built dataset run.
pub fn run_fig15_on(scale: ExperimentScale, run: &DatasetRun) -> Table {
    let (windows_per_size, instances_per_size) = sampling(scale);
    let mut table = Table::new(
        format!("Fig 15: subgraph matching correct rate — web-NotreDame ({} scale)", scale.name()),
        &["window_size", "gss_correct_rate", "exact_matcher_correct_rate", "queries"],
    );
    let scale_factor = run.profile.scale.max(1e-6);
    for &paper_window in &PAPER_WINDOW_SIZES {
        let window_size = ((paper_window as f64 * scale_factor) as usize).max(500);
        let mut correct = 0usize;
        let mut attempted = 0usize;
        for window_index in 0..windows_per_size {
            let offset = (window_index * run.items.len() / windows_per_size)
                .min(run.items.len().saturating_sub(window_size));
            let window = &run.items[offset..(offset + window_size).min(run.items.len())];
            let seed = 0xF15 + window_index as u64;
            let (c, a) = evaluate_window(window, instances_per_size, seed, scale);
            correct += c;
            attempted += a;
        }
        let rate = if attempted == 0 { 1.0 } else { correct as f64 / attempted as f64 };
        table.push_row(vec![
            window_size.to_string(),
            fmt_float(rate),
            fmt_float(1.0),
            attempted.to_string(),
        ]);
    }
    table
}

/// Runs Fig. 15, generating the web-NotreDame dataset at the given scale.
pub fn run_fig15(scale: ExperimentScale) -> Table {
    let run = DatasetRun::build(SyntheticDataset::WebNotreDame, scale);
    run_fig15_on(scale, &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_datasets::DatasetProfile;

    #[test]
    fn correct_rate_is_high_and_bounded() {
        let profile: DatasetProfile = SyntheticDataset::WebNotreDame.smoke_profile().scaled(0.05);
        let run = DatasetRun::from_profile(profile);
        let table = run_fig15_on(ExperimentScale::Smoke, &run);
        assert_eq!(table.rows.len(), PAPER_WINDOW_SIZES.len());
        let mut total_queries = 0usize;
        for row in &table.rows {
            let rate: f64 = row[1].parse().unwrap();
            assert!((0.0..=1.0).contains(&rate));
            assert!(rate > 0.5, "GSS correct rate {rate} unexpectedly low");
            assert_eq!(row[2].parse::<f64>().unwrap(), 1.0);
            total_queries += row[3].parse::<usize>().unwrap();
        }
        assert!(total_queries > 0, "at least some pattern queries must be attempted");
    }

    #[test]
    fn width_sizing_uses_a_tenth_of_the_budget() {
        let small = gss_width_for_tenth(26_000);
        let large = gss_width_for_tenth(2_600_000);
        assert!(large > small);
        assert!(small >= 8);
    }
}
