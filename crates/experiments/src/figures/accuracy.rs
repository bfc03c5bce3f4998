//! The shared sweep behind Figs. 8–12: accuracy of GSS (fsize 12/16) vs TCM as a function of
//! the matrix width, for every dataset.
//!
//! | figure | metric | TCM memory ratio |
//! |---|---|---|
//! | Fig. 8 | edge-query ARE | 8× |
//! | Fig. 9 | 1-hop precursor average precision | 256× (scale-capped) |
//! | Fig. 10 | 1-hop successor average precision | 256× (scale-capped) |
//! | Fig. 11 | node-query ARE | 256× (scale-capped) |
//! | Fig. 12 | reachability true-negative recall | 256× (scale-capped) |

use crate::builders::{build_gss, build_tcm_with_ratio};
use crate::context::DatasetRun;
use crate::metrics::{average_relative_error, mean, set_precision, true_negative_recall};
use crate::report::{fmt_float, Table};
use crate::scale::ExperimentScale;
use gss_datasets::SyntheticDataset;
use gss_graph::algorithms::node_query::node_out_weight;
use gss_graph::{SummaryRead, VertexId};
use std::collections::{HashSet, VecDeque};

/// Which of the five accuracy figures to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuracyFigure {
    /// Fig. 8: average relative error of edge queries.
    EdgeQueryAre,
    /// Fig. 9: average precision of 1-hop precursor queries.
    PrecursorPrecision,
    /// Fig. 10: average precision of 1-hop successor queries.
    SuccessorPrecision,
    /// Fig. 11: average relative error of node queries.
    NodeQueryAre,
    /// Fig. 12: true negative recall of reachability queries.
    ReachabilityTnr,
}

impl AccuracyFigure {
    /// Figure number and metric name, for table titles.
    pub fn label(self) -> &'static str {
        match self {
            Self::EdgeQueryAre => "Fig 8: edge query ARE",
            Self::PrecursorPrecision => "Fig 9: 1-hop precursor average precision",
            Self::SuccessorPrecision => "Fig 10: 1-hop successor average precision",
            Self::NodeQueryAre => "Fig 11: node query ARE",
            Self::ReachabilityTnr => "Fig 12: reachability true negative recall",
        }
    }

    /// The TCM memory ratio the paper gives this figure.
    pub fn tcm_ratio(self, scale: ExperimentScale) -> f64 {
        match self {
            Self::EdgeQueryAre => scale.tcm_edge_ratio(),
            _ => scale.tcm_topology_ratio(),
        }
    }
}

/// Bounded BFS that distinguishes "search exhausted, destination not found" (a definite
/// negative answer) from "visit budget exceeded" (treated as *reachable*, the conservative
/// answer for a structure with false-positive edges).
fn reports_unreachable(
    summary: &dyn SummaryRead,
    source: VertexId,
    destination: VertexId,
    limit: usize,
) -> bool {
    if source == destination {
        return false;
    }
    let mut visited: HashSet<VertexId> = HashSet::from([source]);
    let mut queue: VecDeque<VertexId> = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        for next in summary.successors(v) {
            if next == destination {
                return false;
            }
            if visited.len() >= limit {
                return false; // budget exceeded: cannot certify unreachability
            }
            if visited.insert(next) {
                queue.push_back(next);
            }
        }
    }
    true
}

/// Evaluates one summary under the figure's metric.
fn evaluate(
    figure: AccuracyFigure,
    summary: &dyn SummaryRead,
    run: &DatasetRun,
    sample: usize,
) -> f64 {
    match figure {
        AccuracyFigure::EdgeQueryAre => {
            let queries = run.edge_query_sample(sample, 0xED6E);
            let pairs: Vec<(i64, i64)> = queries
                .iter()
                .map(|(key, truth)| {
                    (summary.edge_weight(key.source, key.destination).unwrap_or(0), *truth)
                })
                .collect();
            average_relative_error(&pairs)
        }
        AccuracyFigure::NodeQueryAre => {
            let queries = run.node_query_sample(sample, 0x40DE);
            let pairs: Vec<(i64, i64)> = queries
                .iter()
                .map(|&v| (node_out_weight(summary, v), run.exact.node_out_weight(v)))
                .collect();
            average_relative_error(&pairs)
        }
        AccuracyFigure::SuccessorPrecision => {
            let queries = run.node_query_sample(sample, 0x50CC);
            let precisions: Vec<f64> = queries
                .iter()
                .map(|&v| set_precision(&run.exact.successors(v), &summary.successors(v)))
                .collect();
            mean(&precisions)
        }
        AccuracyFigure::PrecursorPrecision => {
            let queries = run.node_query_sample(sample, 0x93EC);
            let precisions: Vec<f64> = queries
                .iter()
                .map(|&v| set_precision(&run.exact.precursors(v), &summary.precursors(v)))
                .collect();
            mean(&precisions)
        }
        AccuracyFigure::ReachabilityTnr => {
            let pairs = run.unreachable_pairs(100.min(sample), 0x3EAC);
            let limit = run.vertices.len() * 2;
            let negatives =
                pairs.iter().filter(|&&(s, d)| reports_unreachable(summary, s, d, limit)).count();
            true_negative_recall(negatives, pairs.len())
        }
    }
}

/// Runs one accuracy figure for one dataset, sweeping the matrix width.
pub fn run_accuracy_figure(
    figure: AccuracyFigure,
    dataset: SyntheticDataset,
    scale: ExperimentScale,
) -> Table {
    let run = DatasetRun::build(dataset, scale);
    run_accuracy_figure_on(figure, dataset, scale, &run)
}

/// Same as [`run_accuracy_figure`] but reusing a pre-built [`DatasetRun`] (the bench harness
/// shares one run across figures to avoid regenerating streams).
pub fn run_accuracy_figure_on(
    figure: AccuracyFigure,
    dataset: SyntheticDataset,
    scale: ExperimentScale,
    run: &DatasetRun,
) -> Table {
    let tcm_ratio = figure.tcm_ratio(scale);
    let sample = scale.query_sample();
    let tcm_header = format!("tcm_{tcm_ratio}x_memory");
    let mut table = Table::new(
        format!("{} — {} ({} scale)", figure.label(), dataset.name(), scale.name()),
        &["width", "gss_fsize12", "gss_fsize16", tcm_header.as_str()],
    );
    for width in run.widths(scale) {
        let mut gss12 = build_gss(dataset, width, 12, scale);
        let mut gss16 = build_gss(dataset, width, 16, scale);
        let mut tcm = build_tcm_with_ratio(width, gss16.config().rooms, tcm_ratio);
        run.insert_into(&mut gss12);
        run.insert_into(&mut gss16);
        run.insert_into(&mut tcm);
        let row = vec![
            width.to_string(),
            fmt_float(evaluate(figure, &gss12, run, sample)),
            fmt_float(evaluate(figure, &gss16, run, sample)),
            fmt_float(evaluate(figure, &tcm, run, sample)),
        ];
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_datasets::DatasetProfile;
    use gss_graph::SummaryWrite;

    fn tiny_run(dataset: SyntheticDataset) -> DatasetRun {
        let profile: DatasetProfile = dataset.smoke_profile().scaled(0.02);
        DatasetRun::from_profile(profile)
    }

    fn value(table: &Table, row: usize, column: usize) -> f64 {
        table.rows[row][column].parse().unwrap()
    }

    #[test]
    fn edge_query_figure_shows_gss_beating_tcm() {
        let dataset = SyntheticDataset::EmailEuAll;
        let run = tiny_run(dataset);
        let table = run_accuracy_figure_on(
            AccuracyFigure::EdgeQueryAre,
            dataset,
            ExperimentScale::Smoke,
            &run,
        );
        assert!(!table.rows.is_empty());
        for row in 0..table.rows.len() {
            let gss16 = value(&table, row, 2);
            let tcm = value(&table, row, 3);
            assert!(gss16 >= 0.0);
            assert!(tcm >= gss16, "TCM ARE {tcm} should be >= GSS ARE {gss16}");
        }
    }

    #[test]
    fn successor_precision_figure_shows_gss_near_one() {
        let dataset = SyntheticDataset::CitHepPh;
        let run = tiny_run(dataset);
        let table = run_accuracy_figure_on(
            AccuracyFigure::SuccessorPrecision,
            dataset,
            ExperimentScale::Smoke,
            &run,
        );
        let last = table.rows.len() - 1;
        let gss16 = value(&table, last, 2);
        let tcm = value(&table, last, 3);
        assert!(gss16 > 0.95, "GSS successor precision {gss16} should be near 1");
        assert!(gss16 >= tcm, "GSS precision {gss16} should beat TCM {tcm}");
    }

    #[test]
    fn reachability_figure_reports_rates_in_unit_interval() {
        let dataset = SyntheticDataset::LkmlReply;
        let run = tiny_run(dataset);
        let table = run_accuracy_figure_on(
            AccuracyFigure::ReachabilityTnr,
            dataset,
            ExperimentScale::Smoke,
            &run,
        );
        for row in 0..table.rows.len() {
            for column in 1..4 {
                let rate = value(&table, row, column);
                assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
            }
        }
        let last = table.rows.len() - 1;
        assert!(value(&table, last, 2) >= value(&table, last, 3));
    }

    #[test]
    fn labels_and_ratios_are_wired_to_the_right_figures() {
        assert!(AccuracyFigure::EdgeQueryAre.label().contains("Fig 8"));
        assert!(AccuracyFigure::NodeQueryAre.label().contains("Fig 11"));
        assert_eq!(AccuracyFigure::EdgeQueryAre.tcm_ratio(ExperimentScale::Paper), 8.0);
        assert_eq!(AccuracyFigure::SuccessorPrecision.tcm_ratio(ExperimentScale::Paper), 256.0);
    }

    #[test]
    fn bounded_bfs_certifies_unreachability_only_when_exhausted() {
        let mut graph = gss_graph::AdjacencyListGraph::new();
        graph.insert(1, 2, 1);
        graph.insert(2, 3, 1);
        graph.insert(10, 11, 1);
        assert!(reports_unreachable(&graph, 3, 1, 100));
        assert!(!reports_unreachable(&graph, 1, 3, 100));
        // A sink certifies unreachability immediately (the frontier is exhausted).
        assert!(reports_unreachable(&graph, 3, 11, 100));
        // A tiny visit budget cannot certify unreachability of a multi-hop negative pair.
        assert!(!reports_unreachable(&graph, 1, 11, 1));
    }
}
