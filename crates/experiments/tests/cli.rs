//! The `gss-experiments` command line, the one entry point per figure: a known experiment
//! runs and prints its tables, and an unknown experiment or scale name is refused with
//! exit status 2 instead of running something else.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the binary with `args` and `GSS_SCALE` set to `gss_scale` (unset for `None`).  Its
/// CSVs go under a fresh temp dir named by `tag`, returned so the caller can remove it.
fn experiments(tag: &str, args: &[&str], gss_scale: Option<&str>) -> (Output, PathBuf) {
    let target =
        std::env::temp_dir().join(format!("gss-experiments-cli-{tag}-{}", std::process::id()));
    let mut command = Command::new(env!("CARGO_BIN_EXE_gss-experiments"));
    command.args(args).env("CARGO_TARGET_DIR", &target).env_remove("GSS_SCALE");
    if let Some(scale) = gss_scale {
        command.env("GSS_SCALE", scale);
    }
    (command.output().unwrap(), target)
}

#[test]
fn fig03_prints_its_tables_and_exits_zero() {
    let (output, target) = experiments("fig03", &["fig03"], None);
    std::fs::remove_dir_all(&target).ok();
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("scale: smoke"), "{stdout}");
    assert!(stdout.contains("# Fig 3(a)"), "{stdout}");
}

#[test]
fn an_unknown_experiment_exits_two_with_the_usage_line() {
    let (output, target) = experiments("bogus", &["bogus", "smoke"], None);
    std::fs::remove_dir_all(&target).ok();
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage: gss-experiments"));
}

#[test]
fn an_unknown_scale_exits_two_whether_argument_or_environment() {
    for (tag, args, gss_scale) in
        [("arg", &["fig03", "papr"][..], None), ("env", &["fig03"][..], Some("papr"))]
    {
        let (output, target) = experiments(tag, args, gss_scale);
        std::fs::remove_dir_all(&target).ok();
        assert_eq!(output.status.code(), Some(2), "{tag}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown scale"), "{tag}: {stderr}");
        assert!(stderr.contains("usage: gss-experiments"), "{tag}: {stderr}");
        assert!(output.stdout.is_empty(), "{tag}: ran anyway");
    }
}
