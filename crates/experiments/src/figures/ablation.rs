//! Ablations over the GSS design parameters, plus a model-vs-measurement check.
//!
//! These experiments are not figures in the paper, but they exercise the design choices
//! Section V motivates (sequence length `r`, candidate count `k`, rooms `l`, fingerprint
//! width) and validate the Section VI models against measurements.

use crate::builders::{build_gss, gss_config_for};
use crate::context::DatasetRun;
use crate::metrics::{average_relative_error, mips};
use crate::report::{fmt_float, Table};
use crate::scale::ExperimentScale;
use gss_analysis::{edge_query_correct_rate, leftover_probability, BufferModelParams};
use gss_core::GssConfig;
use gss_datasets::SyntheticDataset;
use gss_graph::SummaryRead;

/// Evaluates one GSS configuration: returns `(buffer_percentage, edge_are, mips)`.
fn evaluate_config(
    run: &DatasetRun,
    config: GssConfig,
    sample: usize,
    scale: ExperimentScale,
) -> (f64, f64, f64) {
    let mut sketch = build_gss(config, scale, "ablation");
    let elapsed = run.insert_into(&mut sketch);
    let queries = run.edge_query_sample(sample, 0xAB1A);
    let pairs: Vec<(i64, i64)> = queries
        .iter()
        .map(|(key, truth)| (sketch.edge_weight(key.source, key.destination).unwrap_or(0), *truth))
        .collect();
    (
        sketch.buffer_percentage(),
        average_relative_error(&pairs),
        mips(run.items.len() as u64, elapsed),
    )
}

/// Parameter ablation on an email-EuAll-like stream: sweeps `r`, `k`, `l` and the
/// fingerprint width one at a time around the paper's defaults.
pub fn run_parameter_ablation(scale: ExperimentScale) -> Table {
    let dataset = SyntheticDataset::EmailEuAll;
    let run = DatasetRun::build(dataset, scale);
    run_parameter_ablation_on(scale, &run)
}

/// Same as [`run_parameter_ablation`] with a pre-built run.
pub fn run_parameter_ablation_on(scale: ExperimentScale, run: &DatasetRun) -> Table {
    let dataset = run.profile.dataset;
    let widths = run.widths(scale);
    let width = widths[widths.len() / 2];
    let sample = scale.query_sample();
    let base = gss_config_for(dataset, width, 16);
    let mut table = Table::new(
        format!("Ablation: GSS parameters — {} ({} scale)", dataset.name(), scale.name()),
        &["variant", "buffer_percentage", "edge_query_are", "mips"],
    );
    let variants: Vec<(String, GssConfig)> = vec![
        ("paper default".to_string(), base),
        ("r=4,k=4".to_string(), GssConfig { sequence_length: 4, candidates: 4, ..base }),
        ("r=16,k=16".to_string(), GssConfig { sequence_length: 16, candidates: 16, ..base }),
        ("no sampling".to_string(), base.with_sampling(false)),
        ("rooms=1".to_string(), base.with_rooms(1)),
        ("rooms=4".to_string(), base.with_rooms(4)),
        ("no square hashing".to_string(), base.with_square_hashing(false)),
        ("fingerprint=8".to_string(), base.with_fingerprint_bits(8)),
        ("fingerprint=12".to_string(), base.with_fingerprint_bits(12)),
    ];
    for (name, config) in variants {
        let (buffer, are, speed) = evaluate_config(run, config, sample, scale);
        table.push_row(vec![name, fmt_float(buffer), fmt_float(are), format!("{speed:.4}")]);
    }
    table
}

/// Model-vs-measurement check: compares the Section VI collision and buffer models against
/// measured edge ARE / buffer percentage across a width sweep.
pub fn run_model_vs_measured(scale: ExperimentScale) -> Table {
    let dataset = SyntheticDataset::EmailEuAll;
    let run = DatasetRun::build(dataset, scale);
    run_model_vs_measured_on(scale, &run)
}

/// Same as [`run_model_vs_measured`] with a pre-built run.
pub fn run_model_vs_measured_on(scale: ExperimentScale, run: &DatasetRun) -> Table {
    let dataset = run.profile.dataset;
    let sample = scale.query_sample();
    let mut table = Table::new(
        format!("Model vs measured — {} ({} scale)", dataset.name(), scale.name()),
        &[
            "width",
            "measured_edge_are",
            "model_collision_rate",
            "measured_buffer_pct",
            "model_leftover_prob",
        ],
    );
    let total_edges = run.distinct_edges() as f64;
    let average_degree = 2.0 * total_edges / run.vertices.len() as f64;
    for width in run.widths(scale) {
        let config = gss_config_for(dataset, width, 16);
        let (buffer, are, _) = evaluate_config(run, config, sample, scale);
        let model_collision =
            1.0 - edge_query_correct_rate(config.hash_range() as f64, total_edges, average_degree);
        let model_leftover = leftover_probability(&BufferModelParams {
            existing_edges: total_edges,
            adjacent_edges: average_degree,
            width: width as f64,
            sequence_length: config.sequence_length as f64,
            rooms: config.rooms as f64,
            candidates: config.candidates as f64,
        });
        table.push_row(vec![
            width.to_string(),
            fmt_float(are),
            fmt_float(model_collision),
            fmt_float(buffer),
            fmt_float(model_leftover),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_datasets::DatasetProfile;

    fn tiny_run() -> DatasetRun {
        let profile: DatasetProfile = SyntheticDataset::EmailEuAll.smoke_profile().scaled(0.03);
        DatasetRun::from_profile(profile)
    }

    #[test]
    fn ablation_reports_every_variant() {
        let run = tiny_run();
        let table = run_parameter_ablation_on(ExperimentScale::Smoke, &run);
        assert_eq!(table.rows.len(), 9);
        for row in &table.rows {
            let buffer: f64 = row[1].parse().unwrap();
            let are: f64 = row[2].parse().unwrap();
            let speed: f64 = row[3].parse().unwrap();
            assert!((0.0..=1.0).contains(&buffer));
            assert!(are >= 0.0);
            assert!(speed > 0.0);
        }
    }

    #[test]
    fn smaller_fingerprints_do_not_improve_accuracy() {
        let run = tiny_run();
        let table = run_parameter_ablation_on(ExperimentScale::Smoke, &run);
        let find = |name: &str| -> f64 {
            table.rows.iter().find(|r| r[0] == name).unwrap()[2].parse().unwrap()
        };
        assert!(find("fingerprint=8") >= find("paper default") - 1e-12);
    }

    #[test]
    fn model_vs_measured_produces_comparable_columns() {
        let run = tiny_run();
        let table = run_model_vs_measured_on(ExperimentScale::Smoke, &run);
        assert!(!table.rows.is_empty());
        for row in &table.rows {
            assert!(row.len() >= 5, "expected at least 5 columns, got {}: {row:?}", row.len());
            for (column, cell) in row.iter().enumerate().take(5).skip(1) {
                let value: f64 = cell.parse().unwrap();
                assert!((0.0..=1.5).contains(&value), "column {column} value {value}");
            }
        }
    }
}
