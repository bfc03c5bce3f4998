//! # gss-experiments — reproducing every table and figure of the GSS paper
//!
//! This crate turns the core library, the baselines and the dataset generators into the
//! evaluation of Section VII:
//!
//! * [`metrics`] — ARE, average precision, true-negative recall, buffer percentage, Mips
//!   (Section VII-B).
//! * [`scale`] — smoke / laptop / paper experiment scales (`GSS_SCALE` environment
//!   variable).
//! * [`context`] — per-dataset streams, exact ground truth and query-set construction.
//! * [`builders`] — the paper's sizing rules for GSS and the ratio-memory TCM baselines.
//! * [`figures`] — one runner per table/figure: Fig. 3 (theory), Figs. 8–12 (primitive and
//!   compound query accuracy), Fig. 13 (buffer percentage), Table I (update speed), Fig. 14
//!   (triangle counting vs TRIÈST), Fig. 15 (subgraph matching vs an exact matcher), plus
//!   parameter ablations and a model-vs-measurement check.
//! * [`report`] — ASCII/CSV result tables written under `target/experiments/`.
//!
//! The `gss-experiments` binary is the one entry point per figure:
//! `gss-experiments <figure> [scale]`.
//!
//! ## Quick start
//!
//! ```
//! use gss_experiments::{ExperimentScale, Table};
//!
//! // Scales round-trip by name; an unknown name parses to nothing.
//! let scale = ExperimentScale::parse("laptop").unwrap();
//! assert_eq!(ExperimentScale::parse(scale.name()), Some(scale));
//! assert_eq!(ExperimentScale::parse("papr"), None);
//!
//! // Result tables render to ASCII and CSV.
//! let mut table = Table::new("demo", &["x", "y"]);
//! table.push_row(vec!["1".into(), "2".into()]);
//! assert!(table.to_csv().contains("1,2"));
//! ```

pub mod builders;
pub mod context;
pub mod figures;
pub mod metrics;
pub mod report;
pub mod scale;

pub use builders::{build_gss, build_tcm_with_ratio, gss_config_for, TCM_DEPTH};
pub use context::DatasetRun;
pub use figures::{
    run_accuracy_figure, run_fig03, run_fig13, run_fig14, run_fig15, run_model_vs_measured,
    run_parameter_ablation, run_table1, AccuracyFigure,
};
pub use report::{
    emit, experiments_dir, fmt_float, workspace_root, BenchReport, BenchResult, Table,
};
pub use scale::{remove_run_files, storage_backend_from_env, ExperimentScale};
