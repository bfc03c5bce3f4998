//! Table I: update speed (million insertions per second) of GSS, GSS without candidate
//! sampling, TCM and the accelerated adjacency list, on the three static datasets.
//!
//! The paper inserts every edge of a dataset, repeats the procedure 100 times and reports
//! the average speed; the repetition count here scales with the experiment scale so smoke
//! runs stay fast.

use crate::builders::{build_gss, build_tcm_with_ratio, gss_config_for};
use crate::context::DatasetRun;
use crate::metrics::mips;
use crate::report::Table;
use crate::scale::ExperimentScale;
use gss_baselines::PaperAdjacencyList;
use gss_core::GssSketch;
use gss_datasets::SyntheticDataset;
use gss_graph::SummaryWrite;

/// The datasets of Table I.
pub const TABLE1_DATASETS: [SyntheticDataset; 3] =
    [SyntheticDataset::EmailEuAll, SyntheticDataset::CitHepPh, SyntheticDataset::WebNotreDame];

/// Number of insert repetitions per structure (100 in the paper).
fn repetitions(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Smoke => 3,
        ExperimentScale::Laptop => 10,
        ExperimentScale::Paper => 100,
    }
}

/// Measures the average Mips of repeatedly rebuilding `make()` and inserting the stream.
fn measure<S: SummaryWrite, F: Fn() -> S>(run: &DatasetRun, repeats: usize, make: F) -> f64 {
    let mut total_seconds = 0.0;
    let mut total_items = 0u64;
    for _ in 0..repeats {
        let mut summary = make();
        total_seconds += run.insert_into(&mut summary);
        total_items += run.items.len() as u64;
    }
    mips(total_items, total_seconds)
}

/// The matrix width used for the speed measurement: the middle of the dataset's paper sweep
/// (speed "changes little with the matrix size", Section VII-H).
fn speed_width(run: &DatasetRun, scale: ExperimentScale) -> usize {
    let widths = run.widths(scale);
    widths[widths.len() / 2]
}

/// Update speeds in Mips for `(gss, gss_no_sampling, tcm, adjacency_list)` on one dataset.
pub type SpeedMeasurements = (f64, f64, f64, f64);

/// A Table I row: the structure's display name and its column extractor.
type SpeedRow = (&'static str, fn(&SpeedMeasurements) -> f64);

/// Runs Table I for one dataset and returns a [`SpeedMeasurements`] tuple.
pub fn run_table1_dataset(dataset: SyntheticDataset, scale: ExperimentScale) -> SpeedMeasurements {
    let run = DatasetRun::build(dataset, scale);
    run_table1_dataset_on(dataset, scale, &run)
}

/// Same as [`run_table1_dataset`] but reusing an existing [`DatasetRun`].
pub fn run_table1_dataset_on(
    dataset: SyntheticDataset,
    scale: ExperimentScale,
    run: &DatasetRun,
) -> SpeedMeasurements {
    let repeats = repetitions(scale);
    let width = speed_width(run, scale);
    let gss = measure(run, repeats, || build_gss(dataset, width, 16, scale));
    let gss_no_sampling = measure(run, repeats, || {
        GssSketch::new(gss_config_for(dataset, width, 16).with_sampling(false))
            .expect("valid config")
    });
    let tcm = measure(run, repeats, || build_tcm_with_ratio(width, 2, scale.tcm_edge_ratio()));
    let adjacency = measure(run, repeats, PaperAdjacencyList::new);
    (gss, gss_no_sampling, tcm, adjacency)
}

/// Runs the full Table I.
pub fn run_table1(scale: ExperimentScale) -> Table {
    let mut table = Table::new(
        format!("Table I: update speed in Mips ({} scale)", scale.name()),
        &["data_structure", "email-EuAll", "cit-HepPh", "web-NotreDame"],
    );
    let mut results = Vec::new();
    for dataset in TABLE1_DATASETS {
        results.push(run_table1_dataset(dataset, scale));
    }
    let rows: [SpeedRow; 4] = [
        ("GSS", |r| r.0),
        ("GSS(no sampling)", |r| r.1),
        ("TCM", |r| r.2),
        ("Adjacency Lists", |r| r.3),
    ];
    for (name, extract) in rows {
        let mut row = vec![name.to_string()];
        for result in &results {
            row.push(format!("{:.4}", extract(result)));
        }
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_datasets::DatasetProfile;

    #[test]
    fn all_structures_report_positive_throughput() {
        let dataset = SyntheticDataset::CitHepPh;
        let profile: DatasetProfile = dataset.smoke_profile().scaled(0.05);
        let run = DatasetRun::from_profile(profile);
        let (gss, gss_ns, tcm, adjacency) =
            run_table1_dataset_on(dataset, ExperimentScale::Smoke, &run);
        for speed in [gss, gss_ns, tcm, adjacency] {
            assert!(speed > 0.0, "throughput must be positive, got {speed}");
        }
    }

    #[test]
    fn repetitions_scale_with_experiment_scale() {
        assert!(repetitions(ExperimentScale::Smoke) < repetitions(ExperimentScale::Laptop));
        assert_eq!(repetitions(ExperimentScale::Paper), 100);
    }

    #[test]
    fn speed_width_picks_a_paper_width() {
        let dataset = SyntheticDataset::EmailEuAll;
        let run = DatasetRun::from_profile(dataset.smoke_profile().scaled(0.05));
        let width = speed_width(&run, ExperimentScale::Smoke);
        assert!(run.widths(ExperimentScale::Smoke).contains(&width));
    }
}
