//! # gss-datasets — graph-stream workload generation
//!
//! The paper evaluates GSS on five real datasets (email-EuAll, cit-HepPh, web-NotreDame,
//! lkml-reply and a CAIDA packet trace).  Those files are not redistributable with this
//! repository, so this crate provides:
//!
//! * [`rng`] — a small deterministic PRNG (SplitMix64 seeding a xoshiro256**), so every
//!   experiment is reproducible bit-for-bit from a seed without external dependencies.
//! * [`zipf`] — Zipfian sampling, used exactly as the paper uses it: "We use the Zipfian
//!   distribution to add the weight to each edge".
//! * [`powerlaw`] — directed power-law graph generators (preferential attachment and a
//!   configuration-model variant) that produce streams with the heavy-tailed degree skew the
//!   paper's square-hashing design targets.
//! * [`synthetic`] — named profiles that match each paper dataset's published |V|, |E| and
//!   stream length, so the experiment harness can run "email-EuAll-like" workloads at the
//!   same scale as the paper (the laptop profile scales CAIDA down to ~1/64 of its items).
//! * [`snap`] — a parser for SNAP-style edge-list files so the real datasets can be dropped
//!   in when available.
//!
//! ## Quick start
//!
//! ```
//! use gss_datasets::PreferentialAttachmentGenerator;
//!
//! let items = PreferentialAttachmentGenerator::new(50, 200, 7).generate();
//! assert_eq!(items.len(), 200);
//! assert!(items.iter().all(|e| (e.source as usize) < 50 && e.weight >= 1));
//!
//! // Same seed, same stream — every experiment is reproducible bit-for-bit.
//! assert_eq!(items, PreferentialAttachmentGenerator::new(50, 200, 7).generate());
//! ```

pub mod powerlaw;
pub mod rng;
pub mod snap;
pub mod synthetic;
pub mod zipf;

pub use powerlaw::{ConfigurationModelGenerator, PreferentialAttachmentGenerator};
pub use rng::{SplitMix64, Xoshiro256};
pub use snap::{parse_snap_edges, parse_snap_reader};
pub use synthetic::{DatasetProfile, SyntheticDataset};
pub use zipf::ZipfSampler;
