//! Integration tests: every fixture under `tests/fixtures/` is fed to the analyzer
//! with a synthetic workspace-relative path (path scoping is part of the rules, so the
//! fixtures' on-disk names are free-form and cargo never compiles them).

use gss_lint::{analyze_file, FileReport, Rule};

fn analyze_fixture(fixture: &str, synthetic_path: &str) -> FileReport {
    let on_disk = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&on_disk)
        .unwrap_or_else(|e| panic!("reading fixture {on_disk}: {e}"));
    analyze_file(synthetic_path, &source)
}

fn fired(report: &FileReport, rule: Rule) -> Vec<u32> {
    report.findings.iter().filter(|f| f.rule == rule && !f.waived).map(|f| f.line).collect()
}

#[test]
fn l001_fires_on_each_inversion_direction() {
    let report = analyze_fixture("l001_lock_order.rs", "crates/core/src/pager/page_cache.rs");
    let lines = fired(&report, Rule::L001);
    assert_eq!(lines.len(), 3, "WAL-under-stripe, WAL-under-latch, stripe-under-latch");
    assert!(report.findings.iter().all(|f| f.rule == Rule::L001));
}

#[test]
fn l002_fires_on_io_while_stripe_guard_is_live() {
    let report = analyze_fixture("l002_io_under_stripe.rs", "crates/core/src/pager/page_cache.rs");
    assert_eq!(fired(&report, Rule::L002).len(), 2, "read_exact_at and sync_data");
}

#[test]
fn l003_fires_only_inside_scoped_recovery_functions() {
    let report = analyze_fixture("l003_panic_in_recovery.rs", "crates/core/src/wal.rs");
    assert_eq!(
        fired(&report, Rule::L003).len(),
        4,
        "unwrap, expect, range index, unreachable! — but not the out-of-scope helper"
    );
}

#[test]
fn l003_is_scoped_by_file_as_well_as_function() {
    // Same source under a path whose basename has no recovery scope: silent.
    let report = analyze_fixture("l003_panic_in_recovery.rs", "crates/core/src/graph.rs");
    assert!(fired(&report, Rule::L003).is_empty());
}

#[test]
fn l004_fires_outside_the_storage_layer_and_not_inside_it() {
    let outside = analyze_fixture("l004_raw_io.rs", "crates/core/src/concurrent.rs");
    assert_eq!(fired(&outside, Rule::L004).len(), 3, "std::fs, OpenOptions, .seek(");
    for exempt in [
        "crates/core/src/pager/lock_file.rs",
        "crates/core/src/wal.rs",
        "crates/core/src/file_store/open.rs",
        "crates/core/src/persistence.rs",
        "crates/experiments/src/scale.rs", // outside core entirely
    ] {
        let report = analyze_fixture("l004_raw_io.rs", exempt);
        assert!(fired(&report, Rule::L004).is_empty(), "{exempt} is exempt");
    }
}

#[test]
fn l005_fires_bare_but_not_justified() {
    let report = analyze_fixture("l005_relaxed.rs", "crates/core/src/storage.rs");
    assert_eq!(fired(&report, Rule::L005), [5, 6], "the uncommented Relaxed uses, counters too");
}

#[test]
fn l006_fires_on_dropped_sync_results_and_fsync_retry_loops() {
    let report = analyze_fixture("l006_sync_result.rs", "crates/core/src/file_store/write_back.rs");
    let lines = fired(&report, Rule::L006);
    assert_eq!(
        lines.len(),
        7,
        "sync_data, sync_all, write_all_at, set_len, chained-receiver drop, \
         fsync-in-for, fsync-in-while: {lines:?}"
    );
    // The `?` / `let` / `map_err` / `return` / argument-position uses and the
    // EINTR write-retry loop stay silent; the waived drop is recorded but not fired.
    assert_eq!(report.findings.iter().filter(|f| f.rule == Rule::L006 && f.waived).count(), 1);
}

#[test]
fn l006_is_scoped_to_the_fail_stop_storage_files() {
    for (path, in_scope) in [
        ("crates/core/src/pager/page_file.rs", true),
        ("crates/core/src/wal.rs", true),
        ("crates/core/src/file_store/log.rs", true),
        ("crates/core/src/group_commit.rs", true),
        ("crates/core/src/persistence.rs", false), // snapshot I/O surfaces errors itself
        ("crates/experiments/src/bin/crash_harness.rs", false),
    ] {
        let report = analyze_fixture("l006_sync_result.rs", path);
        assert_eq!(!fired(&report, Rule::L006).is_empty(), in_scope, "{path}");
    }
}

#[test]
fn waivers_silence_findings_and_reasonless_waivers_are_flagged() {
    let report = analyze_fixture("waived.rs", "crates/core/src/pager/page_cache.rs");
    assert!(fired(&report, Rule::L001).is_empty(), "both findings are waived");
    assert_eq!(report.findings.iter().filter(|f| f.waived).count(), 2);
    let reasons: Vec<bool> = report.waivers.iter().map(|w| w.reason.is_empty()).collect();
    assert_eq!(reasons, [false, true], "second waiver has no reason — --deny-all rejects it");
    assert!(report.waivers.iter().all(|w| w.used), "no stale waivers in this fixture");
}

#[test]
fn explicit_drop_and_scope_end_kill_guard_liveness() {
    let report = analyze_fixture("drop_before_acquire.rs", "crates/core/src/pager/page_cache.rs");
    assert!(
        report.findings.is_empty(),
        "drop(guard), block close and transient guards must not fire: {:?}",
        report.findings
    );
}

#[test]
fn the_workspace_itself_is_clean_under_deny_all_semantics() {
    // Mirror the CI invocation: analyze every `.rs` file under crates/ (fixtures and
    // target/ excluded) and require zero unwaived findings and fully-reasoned waivers.
    let crates_root = format!("{}/..", env!("CARGO_MANIFEST_DIR"));
    let mut stack = vec![std::path::PathBuf::from(&crates_root)];
    let mut checked = 0usize;
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable workspace dir") {
            let entry = entry.expect("readable dir entry");
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !matches!(name.as_str(), "target" | "fixtures" | ".git") {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let display = path.to_string_lossy().replace('\\', "/");
                let source = std::fs::read_to_string(&path).expect("readable source");
                let report = analyze_file(&display, &source);
                if let Some(finding) = report.unwaived().next() {
                    panic!(
                        "{display}:{}: {}({}) {}",
                        finding.line,
                        finding.rule.id(),
                        finding.rule.name(),
                        finding.message
                    );
                }
                assert!(
                    report.unmatched_scope.is_empty(),
                    "{display}: L003 scope names {:?} match no fn",
                    report.unmatched_scope
                );
                for waiver in &report.waivers {
                    assert!(
                        !waiver.reason.is_empty() && waiver.rule.is_some() && waiver.used,
                        "{display}:{}: waiver must be used, parsable and reasoned",
                        waiver.line
                    );
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 20, "walked the real workspace sources, not an empty dir");
}
