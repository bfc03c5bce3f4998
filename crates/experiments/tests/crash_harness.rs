//! The crash harness's own verdicts: `verify` passes a completed run and fails every
//! broken promise — a verify that always exited 0 would let the crash matrix pass
//! anything.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Items per ingest: a few dozen batches per writer, seconds-scale in a debug build.
const ITEMS: &str = "3000";

/// A fresh directory for one test's store and sidecars.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gss-crash-harness-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn harness(args: &[&str], fault_plan: Option<&str>) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_crash_harness"));
    command.args(args).env_remove("GSS_FAULT_PLAN");
    if let Some(plan) = fault_plan {
        command.env("GSS_FAULT_PLAN", plan);
    }
    command.output().unwrap()
}

/// Runs `ingest <lane>` to completion (or fail-stop) and returns the base and progress
/// paths as strings.
fn ingest(dir: &Path, lane: &str, fault_plan: Option<&str>) -> (String, String) {
    let base = dir.join("store.gss").to_str().unwrap().to_string();
    let progress = dir.join("progress").to_str().unwrap().to_string();
    let output = harness(&["ingest", lane, &base, &progress, ITEMS], fault_plan);
    assert!(output.status.success(), "ingest {lane}: {output:?}");
    (base, progress)
}

fn verify(lane: &str, base: &str, progress: &str) -> Output {
    harness(&["verify", lane, base, progress], None)
}

#[test]
fn completed_strict_and_threaded_ingests_verify() {
    for lane in ["strict", "threaded"] {
        let dir = scratch(lane);
        let (base, progress) = ingest(&dir, lane, None);
        let output = verify(lane, &base, &progress);
        assert!(output.status.success(), "verify {lane}: {output:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_progress_file_past_the_ingest_fails_verify() {
    let dir = scratch("raised");
    let (base, progress) = ingest(&dir, "strict", None);
    std::fs::write(format!("{progress}.0"), "3500").unwrap();
    let output = verify("strict", &base, &progress);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_report_claiming_more_durable_items_than_recovered_fails_verify() {
    let dir = scratch("overclaim");
    let (base, progress) = ingest(&dir, "strict", None);
    std::fs::write(format!("{progress}.fault"), "poisoned=1 acked=4000 durable=4000 breached=0")
        .unwrap();
    let output = verify("strict", &base, &progress);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_threaded_store_verified_as_strict_is_refused() {
    let dir = scratch("shard-count");
    let (base, progress) = ingest(&dir, "threaded", None);
    let output = verify("strict", &base, &progress);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    assert!(String::from_utf8_lossy(&output.stderr).contains("written with 3 shards"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_poisoning_fault_under_three_writers_fail_stops_with_a_report() {
    let dir = scratch("poisoned");
    // An fsync fault, which only the group-commit sweep and checkpoints can meet: a write
    // fault may land on the reader's eviction write-back instead, and the read-side
    // queries, which return no error, panic there by design (`file_store::rooms`).
    let (base, progress) = ingest(&dir, "threaded", Some("sync_data:eio@3"));
    let report = std::fs::read_to_string(format!("{progress}.fault")).unwrap();
    assert!(report.starts_with("poisoned=1 "), "{report}");
    let output = verify("threaded", &base, &progress);
    assert!(output.status.success(), "{output:?}");
    std::fs::remove_dir_all(&dir).ok();
}
