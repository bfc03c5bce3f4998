//! Fig. 13: buffer percentage as a function of the matrix width, for the four GSS variants
//! `{1, 2} rooms × {square hashing, no square hashing}`.
//!
//! As in the paper, the x-axis width `w` is the side length of the 2-room configurations;
//! the 1-room configurations use a `√2`-times larger matrix so all four curves compare at
//! equal memory ("When GSS has 1 room in each bucket, the width of the matrix is 2^0.5 times
//! larger to make the memory unchanged").

use crate::builders::build_gss;
use crate::context::DatasetRun;
use crate::report::{fmt_float, Table};
use crate::scale::ExperimentScale;
use gss_core::GssConfig;
use gss_datasets::SyntheticDataset;

/// The three datasets the paper plots in Fig. 13.
pub const FIG13_DATASETS: [SyntheticDataset; 3] = [
    SyntheticDataset::WebNotreDame,
    SyntheticDataset::LkmlReply,
    SyntheticDataset::CaidaNetworkFlow,
];

fn variant_config(base_width: usize, rooms: usize, square_hashing: bool) -> GssConfig {
    // Equal-memory widening for single-room variants.
    let width = if rooms == 1 {
        ((base_width as f64) * std::f64::consts::SQRT_2).round() as usize
    } else {
        base_width
    };
    let config = GssConfig::paper_default(width).with_rooms(rooms);
    if square_hashing {
        config
    } else {
        config.with_square_hashing(false)
    }
}

fn buffer_percentage_for(run: &DatasetRun, config: GssConfig, scale: ExperimentScale) -> f64 {
    let mut sketch = build_gss(config, scale, "fig13");
    run.insert_into(&mut sketch);
    sketch.buffer_percentage()
}

/// Runs Fig. 13 for a single dataset.
pub fn run_fig13_dataset(dataset: SyntheticDataset, scale: ExperimentScale) -> Table {
    let run = DatasetRun::build(dataset, scale);
    run_fig13_dataset_on(dataset, scale, &run)
}

/// Runs Fig. 13 for a single dataset, reusing an existing [`DatasetRun`].
pub fn run_fig13_dataset_on(
    dataset: SyntheticDataset,
    scale: ExperimentScale,
    run: &DatasetRun,
) -> Table {
    let mut table = Table::new(
        format!("Fig 13: buffer percentage — {} ({} scale)", dataset.name(), scale.name()),
        &["width", "room1", "room2", "room1_no_square_hash", "room2_no_square_hash"],
    );
    for width in run.widths(scale) {
        let room1 = buffer_percentage_for(run, variant_config(width, 1, true), scale);
        let room2 = buffer_percentage_for(run, variant_config(width, 2, true), scale);
        let room1_plain = buffer_percentage_for(run, variant_config(width, 1, false), scale);
        let room2_plain = buffer_percentage_for(run, variant_config(width, 2, false), scale);
        table.push_row(vec![
            width.to_string(),
            fmt_float(room1),
            fmt_float(room2),
            fmt_float(room1_plain),
            fmt_float(room2_plain),
        ]);
    }
    table
}

/// Runs Fig. 13 for all three paper datasets.
pub fn run_fig13(scale: ExperimentScale) -> Vec<Table> {
    FIG13_DATASETS.iter().map(|&dataset| run_fig13_dataset(dataset, scale)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_datasets::DatasetProfile;

    #[test]
    fn square_hashing_never_buffers_more_than_plain_hashing() {
        let profile: DatasetProfile = SyntheticDataset::LkmlReply.smoke_profile().scaled(0.05);
        let run = DatasetRun::from_profile(profile);
        let table = run_fig13_dataset_on(SyntheticDataset::LkmlReply, ExperimentScale::Smoke, &run);
        assert!(!table.rows.is_empty());
        for row in &table.rows {
            let room2: f64 = row[2].parse().unwrap();
            let room2_plain: f64 = row[4].parse().unwrap();
            let room1: f64 = row[1].parse().unwrap();
            let room1_plain: f64 = row[3].parse().unwrap();
            assert!(room2 <= room2_plain + 1e-9, "square hashing worse: {room2} > {room2_plain}");
            assert!(room1 <= room1_plain + 1e-9);
            for value in [room1, room2, room1_plain, room2_plain] {
                assert!((0.0..=1.0).contains(&value));
            }
        }
    }

    #[test]
    fn buffer_percentage_shrinks_with_width() {
        let profile: DatasetProfile = SyntheticDataset::WebNotreDame.smoke_profile().scaled(0.05);
        let run = DatasetRun::from_profile(profile);
        let table =
            run_fig13_dataset_on(SyntheticDataset::WebNotreDame, ExperimentScale::Smoke, &run);
        let first: f64 = table.rows.first().unwrap()[4].parse().unwrap();
        let last: f64 = table.rows.last().unwrap()[4].parse().unwrap();
        assert!(last <= first + 1e-9, "wider matrices should not buffer more ({first} -> {last})");
    }

    #[test]
    fn variant_config_widens_single_room_matrices() {
        let one_room = variant_config(100, 1, true);
        let two_room = variant_config(100, 2, true);
        assert_eq!(two_room.width, 100);
        assert_eq!(one_room.width, 141);
        assert!(!variant_config(100, 2, false).square_hashing);
        // Equal memory within rounding error.
        let ratio = one_room.matrix_bytes() as f64 / two_room.matrix_bytes() as f64;
        assert!((ratio - 1.0).abs() < 0.02, "memory ratio {ratio}");
    }
}
