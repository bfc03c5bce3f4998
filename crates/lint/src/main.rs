//! `gss-lint` CLI: walks the given roots, analyzes every `.rs` file, prints findings
//! as `path:line: RULE(name) message`, and ends with a waiver inventory so reviewers
//! see every `allow` in the tree.
//!
//! Exit codes: 0 clean, 1 findings (or, under `--deny-all`, reason-less or stale
//! waivers, or an L003 scope name that matches no function), 2 usage/IO error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gss_lint::{analyze_file, FileReport};

struct Options {
    /// Fail on any unwaived finding, reason-less waiver, stale waiver, or L003 scope
    /// name that matches no function in its file.
    deny_all: bool,
    roots: Vec<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!("usage: gss-lint [--deny-all] <path>...");
    eprintln!(
        "  --deny-all   exit non-zero on unwaived findings, reason-less or stale waivers, \
         and L003 scope names matching no fn"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut options = Options { deny_all: false, roots: Vec::new() };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--deny-all" => options.deny_all = true,
            "--help" | "-h" => return usage(),
            _ if arg.starts_with('-') => {
                eprintln!("gss-lint: unknown flag `{arg}`");
                return usage();
            }
            _ => options.roots.push(PathBuf::from(arg)),
        }
    }
    if options.roots.is_empty() {
        return usage();
    }

    let mut files = Vec::new();
    for root in &options.roots {
        if let Err(error) = collect_rs_files(root, &mut files) {
            eprintln!("gss-lint: {}: {error}", root.display());
            return ExitCode::from(2);
        }
    }
    files.sort();

    let mut unwaived = 0usize;
    let mut waived = 0usize;
    let mut unmatched_scope = 0usize;
    let mut inventory: Vec<(String, gss_lint::Waiver)> = Vec::new();
    for path in &files {
        let display = path.to_string_lossy().replace('\\', "/");
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(error) => {
                eprintln!("gss-lint: {display}: {error}");
                return ExitCode::from(2);
            }
        };
        let report: FileReport = analyze_file(&display, &source);
        for finding in &report.findings {
            if finding.waived {
                waived += 1;
            } else {
                unwaived += 1;
                println!(
                    "{display}:{}: {}({}) {}",
                    finding.line,
                    finding.rule.id(),
                    finding.rule.name(),
                    finding.message
                );
            }
        }
        for name in &report.unmatched_scope {
            unmatched_scope += 1;
            println!(
                "{display}: L003(panic-in-recovery) scope lists `{name}`, but the file \
                 defines no such function — update `l003_scope` after the rename"
            );
        }
        for waiver in report.waivers {
            inventory.push((display.clone(), waiver));
        }
    }

    let mut bad_waivers = 0usize;
    if inventory.is_empty() {
        println!("gss-lint: no waivers in tree");
    } else {
        println!("gss-lint: waiver inventory ({}):", inventory.len());
        for (path, waiver) in &inventory {
            let rule = waiver.rule.map_or("<unknown rule>", |r| r.id());
            let mut flags = Vec::new();
            if waiver.reason.is_empty() {
                flags.push("MISSING REASON");
            }
            if waiver.rule.is_none() {
                flags.push("UNPARSABLE RULE");
            }
            if !waiver.used {
                flags.push("STALE");
            }
            if !flags.is_empty() {
                bad_waivers += 1;
            }
            let suffix =
                if flags.is_empty() { String::new() } else { format!("  [{}]", flags.join(", ")) };
            println!("  {path}:{}: allow({rule}) — {}{suffix}", waiver.line, waiver.reason);
        }
    }

    println!(
        "gss-lint: {} files, {unwaived} finding(s), {waived} waived, {bad_waivers} waiver \
         problem(s), {unmatched_scope} unmatched scope name(s)",
        files.len()
    );
    if unwaived > 0 || (options.deny_all && bad_waivers + unmatched_scope > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Recursively collects `.rs` files, skipping build output, fixture corpora and VCS
/// metadata (fixtures are deliberately-bad code: the integration tests feed them to the
/// analyzer with synthetic paths).
fn collect_rs_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if root.is_file() {
        if root.extension().is_some_and(|e| e == "rs") {
            out.push(root.to_path_buf());
        }
        return Ok(());
    }
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if matches!(name.as_ref(), "target" | "fixtures" | ".git") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
