//! Command-line entry point for the experiment runners.
//!
//! ```text
//! gss-experiments <experiment> [scale]
//!
//! experiments: fig03 | fig08 | fig09 | fig10 | fig11 | fig12 | fig13 | table1 |
//!              fig14 | fig15 | ablation | model | all
//! scale:       smoke (default) | laptop | paper      (or set GSS_SCALE)
//! ```
//!
//! Every experiment prints its table(s) and writes CSV copies under `target/experiments/`.
//! An unknown experiment or scale name (as the argument or in `GSS_SCALE`) prints the
//! usage line and exits with status 2.

use gss_datasets::SyntheticDataset;
use gss_experiments::figures::accuracy::run_accuracy_figure;
use gss_experiments::figures::{
    run_fig03, run_fig13, run_fig14, run_fig15, run_model_vs_measured, run_parameter_ablation,
    run_table1,
};
use gss_experiments::{emit, AccuracyFigure, ExperimentScale, Table};

fn accuracy(figure: AccuracyFigure, scale: ExperimentScale, name: &str) {
    let tables: Vec<Table> = SyntheticDataset::ALL
        .iter()
        .map(|&dataset| run_accuracy_figure(figure, dataset, scale))
        .collect();
    emit(&tables, name);
}

fn run(experiment: &str, scale: ExperimentScale) -> bool {
    match experiment {
        "fig03" => emit(&run_fig03(), "fig03_theory"),
        "fig08" => accuracy(AccuracyFigure::EdgeQueryAre, scale, "fig08_edge_query_are"),
        "fig09" => accuracy(AccuracyFigure::PrecursorPrecision, scale, "fig09_precursor_precision"),
        "fig10" => accuracy(AccuracyFigure::SuccessorPrecision, scale, "fig10_successor_precision"),
        "fig11" => accuracy(AccuracyFigure::NodeQueryAre, scale, "fig11_node_query_are"),
        "fig12" => accuracy(AccuracyFigure::ReachabilityTnr, scale, "fig12_reachability_tnr"),
        "fig13" => emit(&run_fig13(scale), "fig13_buffer_percentage"),
        "table1" => emit(&[run_table1(scale)], "table1_update_speed"),
        "fig14" => emit(&[run_fig14(scale)], "fig14_triangle_count"),
        "fig15" => emit(&[run_fig15(scale)], "fig15_subgraph_matching"),
        "ablation" => emit(&[run_parameter_ablation(scale)], "ablation_parameters"),
        "model" => emit(&[run_model_vs_measured(scale)], "ablation_model_vs_measured"),
        "all" => {
            for experiment in [
                "fig03", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "table1", "fig14",
                "fig15", "ablation", "model",
            ] {
                run(experiment, scale);
            }
        }
        _ => return false,
    }
    true
}

/// Prints `problem` and the usage line to stderr and exits with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!(
        "{problem}\nusage: gss-experiments [fig03|fig08..fig15|table1|ablation|model|all] \
         [smoke|laptop|paper]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args.first().map(String::as_str).unwrap_or("all");
    let scale = match args.get(1) {
        Some(name) => ExperimentScale::parse(name)
            .unwrap_or_else(|| usage_error(&format!("unknown scale {name:?}"))),
        None => ExperimentScale::from_env().unwrap_or_else(|| {
            let name = std::env::var("GSS_SCALE").unwrap_or_default();
            usage_error(&format!("unknown scale {name:?} in GSS_SCALE"))
        }),
    };
    println!("# GSS experiment runner — experiment: {experiment}, scale: {}\n", scale.name());
    if !run(experiment, scale) {
        usage_error(&format!("unknown experiment {experiment:?}"));
    }
}
