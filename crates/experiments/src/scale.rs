//! Experiment scale selection.
//!
//! The paper runs on a 62 GB server; this reproduction must also run on a laptop and inside
//! CI.  Every experiment therefore accepts a scale:
//!
//! * [`ExperimentScale::Smoke`] — heavily reduced datasets (~1/32 of laptop scale) and
//!   sampled query sets.  This is the default for `cargo bench` and finishes in minutes.
//! * [`ExperimentScale::Laptop`] — the paper's dataset sizes (CAIDA scaled to 1/64) and
//!   larger query samples.  Expect tens of minutes and a few GB of memory.
//! * [`ExperimentScale::Paper`] — the paper's full sizes and memory ratios; only sensible on
//!   a large-memory server.
//!
//! The scale is picked from the `GSS_SCALE` environment variable (`smoke`, `laptop`,
//! `paper`) so the same bench binaries serve all three.
//!
//! Orthogonally, `GSS_STORAGE` (`memory` — default, `file`) selects the room-storage
//! backend experiment sketches are built on ([`storage_backend_from_env`]): `file` routes
//! every sketch through the paged [`gss_core::FileStore`] so paper-scale matrices that
//! exceed RAM still run, at the cost of page-cache I/O on the hot path.

use gss_core::StorageBackend;
use gss_datasets::{DatasetProfile, SyntheticDataset};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExperimentScale {
    /// Minutes-scale run with reduced datasets and sampled query sets (default).
    #[default]
    Smoke,
    /// The paper's dataset sizes (CAIDA reduced), larger query samples.
    Laptop,
    /// Full paper setup; requires a large-memory server.
    Paper,
}

impl ExperimentScale {
    /// Reads the scale from the `GSS_SCALE` environment variable, defaulting to `Smoke`.
    pub fn from_env() -> Self {
        match std::env::var("GSS_SCALE").unwrap_or_default().to_ascii_lowercase().as_str() {
            "laptop" => Self::Laptop,
            "paper" => Self::Paper,
            _ => Self::Smoke,
        }
    }

    /// Parses a scale name (used by the CLI).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "smoke" => Some(Self::Smoke),
            "laptop" => Some(Self::Laptop),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// The dataset profile to generate for this scale.
    pub fn profile(self, dataset: SyntheticDataset) -> DatasetProfile {
        match self {
            Self::Smoke => dataset.smoke_profile(),
            Self::Laptop => dataset.laptop_profile(),
            Self::Paper => dataset.paper_profile(),
        }
    }

    /// Maximum number of queries sampled per query set (the paper queries *all* edges and
    /// nodes; at smoke/laptop scale a uniform sample keeps runtimes reasonable while leaving
    /// the averaged metrics unchanged in expectation).
    pub fn query_sample(self) -> usize {
        match self {
            Self::Smoke => 500,
            Self::Laptop => 2_000,
            Self::Paper => usize::MAX,
        }
    }

    /// The TCM memory ratio used for the topology-query figures (256× in the paper, capped
    /// at smaller ratios on reduced scales so the TCM matrices stay allocatable).
    pub fn tcm_topology_ratio(self) -> f64 {
        match self {
            Self::Smoke => 16.0,
            Self::Laptop => 64.0,
            Self::Paper => 256.0,
        }
    }

    /// The TCM memory ratio used for the edge-query figure (8× in the paper).
    pub fn tcm_edge_ratio(self) -> f64 {
        8.0
    }

    /// How many matrix widths of the paper's sweep to evaluate (smoke runs take a subset to
    /// bound runtime; the subset keeps the first, middle and last widths so trends remain
    /// visible).
    pub fn width_subset(self, widths: &[usize]) -> Vec<usize> {
        match self {
            Self::Smoke => {
                if widths.len() <= 3 {
                    widths.to_vec()
                } else {
                    vec![widths[0], widths[widths.len() / 2], widths[widths.len() - 1]]
                }
            }
            _ => widths.to_vec(),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Smoke => "smoke",
            Self::Laptop => "laptop",
            Self::Paper => "paper",
        }
    }

    /// Page-cache budget for file-backed sketches at this scale (pages of 4 KiB).
    pub fn file_cache_pages(self) -> usize {
        match self {
            Self::Smoke => 256,    // 1 MiB
            Self::Laptop => 4096,  // 16 MiB
            Self::Paper => 65_536, // 256 MiB — far below a paper-scale matrix
        }
    }
}

/// Distinguishes the sketch files of concurrent/consecutive experiment runs.
static STORAGE_SEQUENCE: AtomicU64 = AtomicU64::new(0);

/// The storage backend experiment sketches are built on, from the `GSS_STORAGE`
/// environment variable: `memory` (default) or `file`.
///
/// With `file`, each call yields a fresh sketch-file path under
/// `<tmp>/gss-experiments/`, tagged with `label`, the process id and a sequence number so
/// concurrent runs and repeated builds never collide; the cache budget follows
/// [`ExperimentScale::file_cache_pages`].  Files are left behind for post-run inspection
/// (they live in the temp dir, so the OS reclaims them).
pub fn storage_backend_from_env(scale: ExperimentScale, label: &str) -> StorageBackend {
    match std::env::var("GSS_STORAGE").unwrap_or_default().to_ascii_lowercase().as_str() {
        "file" => {
            let dir = std::env::temp_dir().join("gss-experiments");
            let _ = std::fs::create_dir_all(&dir);
            // relaxed: a process-unique counter; only atomicity matters, not ordering.
            let sequence = STORAGE_SEQUENCE.fetch_add(1, Ordering::Relaxed);
            // Keep the label filesystem-safe.
            let label: String = label
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' })
                .collect();
            StorageBackend::File {
                path: dir.join(format!("{label}-{}-{sequence}.gss", std::process::id())),
                cache_pages: scale.file_cache_pages(),
            }
        }
        _ => StorageBackend::Memory,
    }
}

/// Deletes the sketch and write-ahead-log files a finished [`StorageBackend::File`] run
/// left behind: the base path plus every `.shardN` / `.wal` sibling that shares its file
/// name.  A no-op for [`StorageBackend::Memory`].
///
/// Benches call this between repeats.  Unlinking a closed file discards its dirty pages,
/// so megabytes of write-back from completed configurations stop queueing behind the
/// later (higher-thread-count) points of a sweep and skewing the tail of the curve.
pub fn remove_run_files(storage: &StorageBackend) {
    let StorageBackend::File { path, .. } = storage else { return };
    let (Some(dir), Some(name)) = (path.parent(), path.file_name().and_then(|n| n.to_str())) else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_known_names_case_insensitively() {
        assert_eq!(ExperimentScale::parse("smoke"), Some(ExperimentScale::Smoke));
        assert_eq!(ExperimentScale::parse("LAPTOP"), Some(ExperimentScale::Laptop));
        assert_eq!(ExperimentScale::parse("Paper"), Some(ExperimentScale::Paper));
        assert_eq!(ExperimentScale::parse("huge"), None);
    }

    #[test]
    fn profiles_grow_with_scale() {
        let smoke = ExperimentScale::Smoke.profile(SyntheticDataset::WebNotreDame);
        let laptop = ExperimentScale::Laptop.profile(SyntheticDataset::WebNotreDame);
        let paper = ExperimentScale::Paper.profile(SyntheticDataset::WebNotreDame);
        assert!(smoke.stream_items <= laptop.stream_items);
        assert!(laptop.stream_items <= paper.stream_items);
    }

    #[test]
    fn query_samples_and_ratios_are_ordered() {
        assert!(ExperimentScale::Smoke.query_sample() < ExperimentScale::Laptop.query_sample());
        assert!(
            ExperimentScale::Smoke.tcm_topology_ratio()
                < ExperimentScale::Paper.tcm_topology_ratio()
        );
        assert_eq!(ExperimentScale::Paper.tcm_edge_ratio(), 8.0);
    }

    #[test]
    fn width_subset_keeps_endpoints() {
        let widths = vec![600, 650, 700, 750, 800, 850, 900, 950, 1000];
        let subset = ExperimentScale::Smoke.width_subset(&widths);
        assert_eq!(subset, vec![600, 800, 1000]);
        assert_eq!(ExperimentScale::Laptop.width_subset(&widths), widths);
        assert_eq!(ExperimentScale::Smoke.width_subset(&[1, 2]), vec![1, 2]);
    }

    #[test]
    fn storage_backend_defaults_to_memory_and_caches_scale_with_size() {
        // The test environment does not set GSS_STORAGE (and if it ever does, the file
        // variant still yields fresh, distinct paths).
        let a = storage_backend_from_env(ExperimentScale::Smoke, "unit test/a");
        let b = storage_backend_from_env(ExperimentScale::Smoke, "unit test/a");
        match (&a, &b) {
            (StorageBackend::Memory, StorageBackend::Memory) => {}
            (StorageBackend::File { path: pa, .. }, StorageBackend::File { path: pb, .. }) => {
                assert_ne!(pa, pb, "sequence number must distinguish paths");
                assert!(!pa.to_string_lossy().contains('/') || pa.parent().is_some());
            }
            _ => panic!("both calls must agree on the backend"),
        }
        assert!(
            ExperimentScale::Smoke.file_cache_pages() < ExperimentScale::Paper.file_cache_pages()
        );
    }

    #[test]
    fn names_round_trip_through_parse() {
        for scale in [ExperimentScale::Smoke, ExperimentScale::Laptop, ExperimentScale::Paper] {
            assert_eq!(ExperimentScale::parse(scale.name()), Some(scale));
        }
    }
}
