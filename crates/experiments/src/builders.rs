//! Construction of the summaries compared in the figures, with the paper's sizing rules.
//!
//! Every GSS sketch a figure builds comes from [`build_gss`], so every one honours the
//! `GSS_STORAGE` environment variable (see [`crate::scale::storage_backend_from_env`]):
//! `GSS_STORAGE=file` runs the whole figure suite on the paged file backend, which is how
//! `GSS_SCALE=paper` matrices larger than RAM are exercised.

use crate::scale::{storage_backend_from_env, ExperimentScale};
use gss_analysis::tcm_width_for_ratio;
use gss_baselines::TcmSketch;
use gss_core::{GssConfig, GssSketch};
use gss_datasets::SyntheticDataset;

/// Number of sketch copies the paper gives TCM ("we apply 4 graph sketches to improve its
/// accuracy").
pub const TCM_DEPTH: usize = 4;

/// The GSS configuration the paper uses for a dataset at a given matrix width and
/// fingerprint size: `r = k = 16`, except `r = k = 8` for the two small datasets
/// (email-EuAll and cit-HepPh).
pub fn gss_config_for(dataset: SyntheticDataset, width: usize, fingerprint_bits: u32) -> GssConfig {
    let base = match dataset {
        SyntheticDataset::EmailEuAll | SyntheticDataset::CitHepPh => GssConfig::paper_small(width),
        _ => GssConfig::paper_default(width),
    };
    base.with_fingerprint_bits(fingerprint_bits)
}

/// Builds a figure's GSS sketch with `config`, on the storage backend selected by
/// `GSS_STORAGE` (memory by default) with the page-cache budget of the run's `scale`;
/// `label` tags the sketch file's name.  Every GSS a figure builds comes from here.
pub fn build_gss(config: GssConfig, scale: ExperimentScale, label: &str) -> GssSketch {
    GssSketch::with_storage(config, storage_backend_from_env(scale, label))
        .expect("figure configurations are valid and the sketch file is creatable")
}

/// Builds the TCM baseline sized at `ratio ×` the memory of the *16-bit fingerprint* GSS at
/// `gss_width` (the paper's sizing rule: "This ratio is the memory used by all the 4
/// sketches in TCM divided by the memory used by GSS with 16 bit fingerprint").
pub fn build_tcm_with_ratio(gss_width: usize, gss_rooms: usize, ratio: f64) -> TcmSketch {
    let width = tcm_width_for_ratio(gss_width, gss_rooms, 16, ratio, TCM_DEPTH);
    TcmSketch::new(width.max(2), TCM_DEPTH)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::SummaryRead;

    #[test]
    fn small_datasets_use_reduced_sequences() {
        let email = gss_config_for(SyntheticDataset::EmailEuAll, 500, 16);
        assert_eq!(email.sequence_length, 8);
        let web = gss_config_for(SyntheticDataset::WebNotreDame, 500, 16);
        assert_eq!(web.sequence_length, 16);
        assert_eq!(gss_config_for(SyntheticDataset::CitHepPh, 500, 12).fingerprint_bits, 12);
    }

    #[test]
    fn build_gss_produces_configured_sketch() {
        let config = gss_config_for(SyntheticDataset::LkmlReply, 300, 12);
        let sketch = build_gss(config, ExperimentScale::Smoke, "lkml-w300-f12");
        assert_eq!(sketch.config().width, 300);
        assert_eq!(sketch.config().fingerprint_bits, 12);
        assert!(sketch.name().contains("fsize=12"));
    }

    #[test]
    fn tcm_ratio_sizing_tracks_gss_memory() {
        let config = gss_config_for(SyntheticDataset::WebNotreDame, 400, 16);
        let gss = build_gss(config, ExperimentScale::Smoke, "web-w400-f16");
        let tcm = build_tcm_with_ratio(400, 2, 8.0);
        let achieved = tcm.memory_bytes() as f64 / gss.config().matrix_bytes() as f64;
        assert!((achieved - 8.0).abs() / 8.0 < 0.05, "achieved ratio {achieved}");
        assert_eq!(tcm.depth(), TCM_DEPTH);
    }

    #[test]
    fn tcm_width_is_never_degenerate() {
        let tcm = build_tcm_with_ratio(4, 1, 0.001);
        assert!(tcm.width() >= 2);
    }
}
