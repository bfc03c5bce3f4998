//! Write-ahead-log robustness: recovery of a crashed sketch file must never panic, no
//! matter how the log (or the file body) was damaged — truncation at any byte, bit
//! flips, or wholesale garbage.  Recovery either replays a valid prefix (a sketch with
//! at most the items the intact frames cover) or falls back cleanly to a
//! [`PersistenceError`].
//!
//! The fixture is a real crash: a Strict file-backed sketch abandoned mid-stream
//! ([`GssSketch::abandon`]), leaving an unclean file plus its log, captured once as
//! bytes and re-materialised per case.

use gss::prelude::*;
use gss_core::wal::wal_path;
use gss_core::PersistenceError;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Stream items the fixture ingests before its simulated crash.
const FIXTURE_ITEMS: u64 = 2_000;

fn fixture_config() -> GssConfig {
    // Small matrix: forces buffer spills (their WAL frames must survive damage too).
    GssConfig::paper_small(24)
}

/// The crashed `(sketch file bytes, log bytes)` pair, built once.
fn crashed_fixture() -> &'static (Vec<u8>, Vec<u8>) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("gss-walrobust-fixture-{}.gss", std::process::id()));
        let mut sketch = GssSketch::with_storage(
            fixture_config(),
            StorageBackend::File { path: path.clone(), cache_pages: 4 },
        )
        .unwrap();
        let mut state = 99u64;
        for _ in 0..FIXTURE_ITEMS {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            sketch.insert((state >> 33) % 300, (state >> 17) % 300, (state % 7) as i64 + 1);
        }
        sketch.abandon();
        let file = std::fs::read(&path).unwrap();
        let wal = std::fs::read(wal_path(&path)).unwrap();
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal_path(&path)).ok();
        assert!(wal.len() > 10_000, "fixture log holds substance ({} bytes)", wal.len());
        (file, wal)
    })
}

/// Materialises a (possibly damaged) crash pair at a unique path and tries to open it.
fn open_damaged(file: &[u8], wal: Option<&[u8]>) -> Result<GssSketch, PersistenceError> {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let sequence = SEQUENCE.fetch_add(1, Ordering::Relaxed);
    let path: PathBuf =
        std::env::temp_dir().join(format!("gss-walrobust-{}-{sequence}.gss", std::process::id()));
    std::fs::write(&path, file).unwrap();
    if let Some(wal) = wal {
        std::fs::write(wal_path(&path), wal).unwrap();
    }
    let result = GssSketch::open_file(&path, 4);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path(&path)).ok();
    result
}

/// A recovered sketch must be internally consistent and answer queries.
fn assert_recovered_sane(sketch: &GssSketch) {
    assert!(sketch.items_inserted() <= FIXTURE_ITEMS, "replay never invents items");
    let _ = sketch.edge_weight(1, 2);
    let _ = sketch.successors(1);
    let _ = sketch.precursors(2);
    let _ = sketch.detailed_stats();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the log at any byte yields a prefix replay (or a clean error for cuts
    /// inside the magic) — never a panic.
    #[test]
    fn truncated_wal_replays_a_prefix(cut in 0usize..100_000) {
        let (file, wal) = crashed_fixture();
        let cut = cut % wal.len();
        // Cuts inside the magic are unrecoverable (a clean error), and that is fine.
        if let Ok(sketch) = open_damaged(file, Some(&wal[..cut])) {
            assert_recovered_sane(&sketch);
        }
    }

    /// Bit flips anywhere in the log decode to a prefix replay or a structured error.
    #[test]
    fn bit_flipped_wal_never_panics(
        flips in prop::collection::vec((0usize..100_000, 0u8..8), 1..6),
    ) {
        let (file, wal) = crashed_fixture();
        let mut wal = wal.clone();
        let len = wal.len();
        for &(position, bit) in &flips {
            wal[position % len] ^= 1 << bit;
        }
        if let Ok(sketch) = open_damaged(file, Some(&wal)) {
            assert_recovered_sane(&sketch);
        }
    }

    /// An arbitrary-garbage log (magic present or not) never panics.
    #[test]
    fn garbage_wal_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..600),
        with_magic in any::<bool>(),
    ) {
        let (file, _) = crashed_fixture();
        let mut bytes = bytes;
        if with_magic && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"GSSWAL0\x01");
        }
        if let Ok(sketch) = open_damaged(file, Some(&bytes)) {
            assert_recovered_sane(&sketch);
        }
    }

    /// Bit flips in the unclean sketch file itself (header, rooms or tail), with the log
    /// intact, still never panic: replay overwrites, CRCs reject, or validation errors.
    #[test]
    fn bit_flipped_file_never_panics(
        position in 0usize..1_000_000,
        bit in 0u8..8,
    ) {
        let (file, wal) = crashed_fixture();
        let mut file = file.clone();
        let len = file.len();
        file[position % len] ^= 1 << bit;
        if let Ok(sketch) = open_damaged(&file, Some(wal)) {
            let _ = sketch.detailed_stats();
        }
    }

    /// The slicing-by-8 checksum, whole or fed in arbitrary pieces, is the bytewise
    /// one: the bytes the WAL, the sketch-file sections and the wire carry are unchanged.
    #[test]
    fn crc32_equals_the_bytewise_reference_on_any_split(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
    ) {
        let expected = bytewise_crc32(&bytes);
        prop_assert_eq!(gss_core::wal::crc32(&bytes), expected);
        let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut.index(bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut incremental = gss_core::wal::Crc32::new();
        let mut from = 0;
        for cut in cuts {
            incremental.update(&bytes[from..cut]);
            from = cut;
        }
        incremental.update(&bytes[from..]);
        prop_assert_eq!(incremental.finish(), expected);
    }
}

/// The one-table, one-byte-per-step CRC-32 the log format was defined with.
fn bytewise_crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

#[test]
fn undamaged_crash_pair_recovers_every_item() {
    let (file, wal) = crashed_fixture();
    let sketch = open_damaged(file, Some(wal)).expect("pristine crash state recovers");
    assert_eq!(sketch.items_inserted(), FIXTURE_ITEMS, "strict crash recovery loses nothing");
}

#[test]
fn missing_wal_falls_back_to_a_clean_rejection() {
    let (file, _) = crashed_fixture();
    assert!(matches!(
        open_damaged(file, None),
        Err(PersistenceError::Corrupt(message)) if message.contains("write-ahead")
    ));
}
