//! Result tables: formatting, printing and CSV export.
//!
//! Every figure/table runner returns a [`Table`] with the same x/y series the paper plots;
//! the bench harness prints it and writes a CSV copy under `target/experiments/`.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// A simple result table with a title, column headers and string cells.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    /// Table title (e.g. `"Fig 8(a): edge query ARE — email-EuAll"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row has one cell per header.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of cells.
    ///
    /// # Panics
    /// Panics if the row length does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match header count");
        self.rows.push(cells);
    }

    /// Convenience: appends a row of displayable values.
    pub fn push_display_row<T: std::fmt::Display>(&mut self, cells: &[T]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table as aligned ASCII text.
    pub fn to_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        let format_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, cell)| format!("{:<width$}", cell, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&format_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.to_ascii());
    }

    /// Writes the table as `<name>.csv` inside `directory`, creating it if needed.
    pub fn write_csv(&self, directory: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(directory)?;
        let path = directory.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// The workspace root: the nearest ancestor of the current directory holding a
/// `Cargo.lock` (falling back to the current directory itself).
///
/// Benches and per-crate tests run with the crate directory as CWD, so bare relative
/// paths would scatter outputs around the workspace; anchoring here keeps every writer on
/// the same path.
pub fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// The default output directory for experiment CSVs: `target/experiments/` under the
/// workspace root.
pub fn experiments_dir() -> PathBuf {
    if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        return Path::new(&target).join("experiments");
    }
    workspace_root().join("target").join("experiments")
}

/// A machine-readable benchmark report, written as `BENCH_<name>.json` at the workspace
/// root so throughput numbers accumulate as a trajectory alongside the code.
///
/// The JSON is hand-rolled (the vendored `serde` shim has no real serialisation): an
/// object with the bench name, free-form string context (scale, machine, stream shape) and
/// one object per measurement holding a name plus numeric fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Bench name, e.g. `"ingest"`; the output file is `BENCH_<name>.json`.
    pub bench: String,
    /// Free-form string context (`scale`, `items`, …), serialised as a JSON object.
    pub context: Vec<(String, String)>,
    /// One entry per measurement.
    pub results: Vec<BenchResult>,
}

/// One measurement of a [`BenchReport`]: a name plus numeric fields
/// (`{"name": "sharded", "threads": 4, "mitems_per_sec": 12.3}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchResult {
    /// Measurement name (structure/configuration under test).
    pub name: String,
    /// Numeric fields (thread counts, seconds, derived rates).
    pub fields: Vec<(String, f64)>,
}

impl BenchReport {
    /// Creates an empty report for `bench`.
    pub fn new(bench: impl Into<String>) -> Self {
        Self { bench: bench.into(), context: Vec::new(), results: Vec::new() }
    }

    /// Appends a context key/value pair.
    pub fn context(mut self, key: impl Into<String>, value: impl std::fmt::Display) -> Self {
        self.context.push((key.into(), value.to_string()));
        self
    }

    /// Appends one measurement.
    pub fn push(&mut self, name: impl Into<String>, fields: &[(&str, f64)]) {
        self.results.push(BenchResult {
            name: name.into(),
            fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        fn escape(text: &str) -> String {
            let mut out = String::with_capacity(text.len());
            for c in text.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn number(value: f64) -> String {
            if value.is_finite() {
                format!("{value:.6}")
            } else {
                "null".to_string() // JSON has no NaN/Inf
            }
        }
        let mut out = String::new();
        out.push_str(&format!("{{\n  \"bench\": \"{}\",\n", escape(&self.bench)));
        out.push_str("  \"context\": {");
        for (index, (key, value)) in self.context.iter().enumerate() {
            let comma = if index == 0 { "" } else { "," };
            out.push_str(&format!("{comma}\n    \"{}\": \"{}\"", escape(key), escape(value)));
        }
        out.push_str(if self.context.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"results\": [");
        for (index, result) in self.results.iter().enumerate() {
            let comma = if index == 0 { "" } else { "," };
            out.push_str(&format!("{comma}\n    {{\"name\": \"{}\"", escape(&result.name)));
            for (key, value) in &result.fields {
                out.push_str(&format!(", \"{}\": {}", escape(key), number(*value)));
            }
            out.push('}');
        }
        out.push_str(if self.results.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
        out
    }

    /// Writes the report as `BENCH_<bench>.json` at the workspace root and returns the
    /// path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = workspace_root().join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Prints each table and writes it as CSV under [`experiments_dir`].
///
/// `name` is the CSV base name; multiple tables get `_0`, `_1`, … suffixes.
pub fn emit(tables: &[Table], name: &str) {
    let dir = experiments_dir();
    for (index, table) in tables.iter().enumerate() {
        table.print();
        let file = if tables.len() == 1 { name.to_string() } else { format!("{name}_{index}") };
        match table.write_csv(&dir, &file) {
            Ok(path) => println!("(csv written to {})\n", path.display()),
            Err(error) => eprintln!("warning: could not write csv for {file}: {error}\n"),
        }
    }
}

/// Formats a float with enough precision for the metrics in this workspace.
pub fn fmt_float(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 100.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut table = Table::new("Fig X", &["width", "gss", "tcm"]);
        table.push_display_row(&["600", "0.001", "0.5"]);
        table.push_row(vec!["700".into(), "0.0005".into(), "0.4".into()]);
        table
    }

    #[test]
    fn ascii_rendering_contains_all_cells() {
        let text = sample_table().to_ascii();
        assert!(text.contains("Fig X"));
        assert!(text.contains("width"));
        assert!(text.contains("0.0005"));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn csv_rendering_escapes_commas() {
        let mut table = Table::new("t", &["a", "b"]);
        table.push_row(vec!["x,y".into(), "plain".into()]);
        let csv = table.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.starts_with("a,b\n"));
    }

    #[test]
    #[should_panic(expected = "row width must match")]
    fn mismatched_row_panics() {
        let mut table = Table::new("t", &["a", "b"]);
        table.push_row(vec!["only one".into()]);
    }

    #[test]
    fn csv_round_trips_to_disk() {
        let dir = std::env::temp_dir().join("gss-report-test");
        let path = sample_table().write_csv(&dir, "fig_x").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("width,gss,tcm"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn emit_writes_numbered_csvs_for_multiple_tables() {
        let mut a = Table::new("a", &["x"]);
        a.push_row(vec!["1".into()]);
        let b = Table::new("b", &["y"]);
        emit(&[a, b], "bench_emit_test");
        let dir = experiments_dir();
        assert!(dir.join("bench_emit_test_0.csv").exists());
        assert!(dir.join("bench_emit_test_1.csv").exists());
        std::fs::remove_file(dir.join("bench_emit_test_0.csv")).ok();
        std::fs::remove_file(dir.join("bench_emit_test_1.csv")).ok();
    }

    #[test]
    fn float_formatting_is_compact() {
        assert_eq!(fmt_float(0.0), "0");
        assert_eq!(fmt_float(123.456), "123.46");
        assert_eq!(fmt_float(0.000123), "0.000123");
    }

    #[test]
    fn experiments_dir_ends_with_experiments() {
        assert!(experiments_dir().ends_with("experiments"));
    }

    #[test]
    fn bench_report_renders_valid_json() {
        let mut report = BenchReport::new("unit_test").context("scale", "smoke");
        report.push("sharded", &[("threads", 4.0), ("mitems_per_sec", 1.25)]);
        report.push(r#"quo"te"#, &[("nan", f64::NAN)]);
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"unit_test\""));
        assert!(json.contains("\"scale\": \"smoke\""));
        assert!(json.contains("\"threads\": 4.000000"));
        assert!(json.contains("\"mitems_per_sec\": 1.250000"));
        assert!(json.contains(r#"\"te"#)); // quote escaped
        assert!(json.contains("\"nan\": null"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn bench_report_round_trips_to_disk() {
        let report = BenchReport::new("report_unit_test");
        let path = report.write().unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap() == "BENCH_report_unit_test.json");
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"results\": []"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn workspace_root_holds_the_lockfile() {
        assert!(workspace_root().join("Cargo.lock").exists());
    }
}
