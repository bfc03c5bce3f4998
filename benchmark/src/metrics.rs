//! The metric tables — the single definition `BENCHMARK.json` mirrors (a unit test holds
//! the two together) — and the report a run fills in.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A gated metric: printed by every `--trace 0` run of every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// An informational metric: printed by every `--trace 1` run of every workload.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "ingest_items_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "ingest_ack_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "edge_qps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "succ_qps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "prec_qps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "reach_qps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "recover_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "memory_mb", unit: "MiB", better: Lower, bound: 0.20 },
    EndToEnd { name: "disk_bytes_per_edge", unit: "B", better: Lower, bound: 0.01 },
    EndToEnd { name: "wal_bytes_per_item", unit: "B", better: Lower, bound: 0.01 },
];

/// The five operations every ring times.
pub const OPS: [&str; 5] = ["ingest_item", "edge", "succ", "prec", "reach"];

const fn ns(name: &'static str) -> PerLayer {
    PerLayer { name, unit: "ns", better: Lower }
}

pub const PER_LAYER: &[PerLayer] = &[
    // Ring self-times (ns per item or per query); the six layers sum to `wire.*`.
    ns("hashing.ingest_item_ns"),
    ns("hashing.edge_ns"),
    ns("hashing.succ_ns"),
    ns("hashing.prec_ns"),
    ns("hashing.reach_ns"),
    ns("sketch.ingest_item_ns"),
    ns("sketch.edge_ns"),
    ns("sketch.succ_ns"),
    ns("sketch.prec_ns"),
    ns("sketch.reach_ns"),
    ns("file_store.ingest_item_ns"),
    ns("file_store.edge_ns"),
    ns("file_store.succ_ns"),
    ns("file_store.prec_ns"),
    ns("file_store.reach_ns"),
    ns("namespace.ingest_item_ns"),
    ns("namespace.edge_ns"),
    ns("namespace.succ_ns"),
    ns("namespace.prec_ns"),
    ns("namespace.reach_ns"),
    ns("protocol.ingest_item_ns"),
    ns("protocol.edge_ns"),
    ns("protocol.succ_ns"),
    ns("protocol.prec_ns"),
    ns("protocol.reach_ns"),
    ns("net.ingest_item_ns"),
    ns("net.edge_ns"),
    ns("net.succ_ns"),
    ns("net.prec_ns"),
    ns("net.reach_ns"),
    ns("wire.ingest_item_ns"),
    ns("wire.edge_ns"),
    ns("wire.succ_ns"),
    ns("wire.prec_ns"),
    ns("wire.reach_ns"),
    // Sketch occupancy and accuracy (in-memory ring; exact for a seed).
    PerLayer { name: "sketch.load_factor", unit: "ratio", better: Lower },
    PerLayer { name: "sketch.buffer_pct", unit: "%", better: Lower },
    PerLayer { name: "sketch.node_collision_rate", unit: "ratio", better: Lower },
    PerLayer { name: "sketch.edge_are", unit: "ratio", better: Lower },
    PerLayer { name: "sketch.succ_precision", unit: "ratio", better: Higher },
    PerLayer { name: "sketch.prec_precision", unit: "ratio", better: Higher },
    // Counter deltas of the file-backed ring.
    PerLayer { name: "pager.lookups_per_item", unit: "count", better: Lower },
    PerLayer { name: "pager.faults_per_item", unit: "count", better: Lower },
    PerLayer { name: "pager.hit_ratio", unit: "ratio", better: Higher },
    PerLayer { name: "pager.flushed_pages_per_kitem", unit: "count", better: Lower },
    PerLayer { name: "pager.latch_waits", unit: "count", better: Lower },
    PerLayer { name: "pager.lookups_per_succ", unit: "count", better: Lower },
    PerLayer { name: "pager.faults_per_succ", unit: "count", better: Lower },
    PerLayer { name: "pager.lookups_per_prec", unit: "count", better: Lower },
    PerLayer { name: "pager.faults_per_prec", unit: "count", better: Lower },
    PerLayer { name: "wal.bytes_per_item", unit: "B", better: Lower },
    PerLayer { name: "wal.flushes_per_kitem", unit: "count", better: Lower },
    PerLayer { name: "group_commit.commits_per_kitem", unit: "count", better: Lower },
    PerLayer { name: "group_commit.waits_per_kitem", unit: "count", better: Lower },
    PerLayer { name: "file_store.fsyncs", unit: "count", better: Lower },
    PerLayer { name: "file_store.checkpoints", unit: "count", better: Lower },
    PerLayer { name: "file_store.replay_us_per_item", unit: "us", better: Lower },
    // The network path and what one interactive caller feels (reported, not gated).
    PerLayer { name: "net.rtt_p50_us", unit: "us", better: Lower },
    PerLayer { name: "net.rtt_p99_us", unit: "us", better: Lower },
    PerLayer { name: "server.spawn_ready_s", unit: "s", better: Lower },
    PerLayer { name: "server.ingest_ack_p99_ms", unit: "ms", better: Lower },
    PerLayer { name: "server.edge_depth1_p50_us", unit: "us", better: Lower },
    PerLayer { name: "server.edge_depth1_p99_us", unit: "us", better: Lower },
    PerLayer { name: "server.succ_depth1_p50_us", unit: "us", better: Lower },
    PerLayer { name: "server.succ_depth1_p99_us", unit: "us", better: Lower },
    PerLayer { name: "server.prec_depth1_p50_us", unit: "us", better: Lower },
    PerLayer { name: "server.prec_depth1_p99_us", unit: "us", better: Lower },
    PerLayer { name: "server.reach_depth1_p50_us", unit: "us", better: Lower },
    PerLayer { name: "server.reach_depth1_p99_us", unit: "us", better: Lower },
    // Reads beside writes: solo rate ÷ rate with the other side running.
    PerLayer { name: "concurrent.read_slowdown", unit: "ratio", better: Lower },
    PerLayer { name: "concurrent.write_slowdown", unit: "ratio", better: Lower },
    PerLayer { name: "persistence.snapshot_write_mb_per_s", unit: "MiB/s", better: Higher },
    PerLayer { name: "persistence.snapshot_read_mb_per_s", unit: "MiB/s", better: Higher },
    // The benchmark's own health.
    PerLayer { name: "bench.gen_s", unit: "s", better: Lower },
    PerLayer { name: "bench.calib_mops", unit: "1/us", better: Higher },
    PerLayer { name: "bench.trace_overhead_pct", unit: "%", better: Lower },
    PerLayer { name: "bench.attempted_ops", unit: "count", better: Higher },
    PerLayer { name: "bench.failed_ops", unit: "count", better: Lower },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|metric| metric.name == name)
}

fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// One measured value; `samples` is how many timed spans it summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

/// What a run measured, in table order of insertion.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records a metric.  Only names from the tables above are accepted — a typo must
    /// not silently drop a metric from the output contract.
    pub fn set(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let unit = unit_of(name).unwrap_or_else(|| panic!("`{name}` is not a declared metric"));
        assert!(self.get(name).is_none(), "`{name}` reported twice");
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": …, "unit": …}, …}` — the shape the result line carries.
    pub fn to_json(&self, with_samples: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields =
                        vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                    if let (true, Some(samples)) = (with_samples, m.samples) {
                        fields.push(("samples", Json::Num(samples as f64)));
                    }
                    (m.name.clone(), Json::obj(fields))
                })
                .collect(),
        )
    }

    /// The name / unit / value table printed for people.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            out.push_str(&format!(
                "{:<width$}  {:>16}  {}{}\n",
                m.name,
                format_value(m.value),
                m.unit,
                samples
            ));
        }
        out
    }

    /// Puts the metrics in table order, whatever order the run measured them in.
    pub fn sort_like_tables(&mut self) {
        let position = |name: &str| {
            END_TO_END
                .iter()
                .map(|m| m.name)
                .chain(PER_LAYER.iter().map(|m| m.name))
                .position(|listed| listed == name)
        };
        self.metrics.sort_by_key(|m| position(&m.name));
    }

    /// Names the tables require that this report lacks (must be empty before printing).
    pub fn missing(&self, traced: bool) -> Vec<&'static str> {
        let required: Vec<&'static str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        required.into_iter().filter(|name| self.get(name).is_none()).collect()
    }
}

pub fn format_value(value: f64) -> String {
    let magnitude = value.abs();
    if magnitude == 0.0 || (1e-3..1e7).contains(&magnitude) {
        let digits = if magnitude >= 1000.0 {
            1
        } else if magnitude >= 10.0 {
            3
        } else {
            5
        };
        format!("{value:.digits$}")
    } else {
        format!("{value:.4e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_obey_the_benchmark_json_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|name| valid_name(name)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = json.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let listed = json.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(metric.better.as_str()));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(metric.bound));
            assert_eq!(entry.as_object().unwrap().len(), 4);
        }
        let listed = json.get("per_layer").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, metric) in listed.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(metric.better.as_str()));
            assert_eq!(entry.as_object().unwrap().len(), 3);
        }
        let workloads = json.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<&str> =
            workloads.iter().filter_map(|w| w.get("name").and_then(Json::as_str)).collect();
        let ours: Vec<&str> = crate::workloads::SPECS.iter().map(|spec| spec.name).collect();
        assert_eq!(names, ours);
        for (entry, spec) in workloads.iter().zip(crate::workloads::SPECS) {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(spec.why));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(crate::workloads::REFERENCE_SECONDS)
        );
    }

    #[test]
    fn report_serialises_value_and_unit_per_metric() {
        let mut report = Report::default();
        report.set("edge_qps", 1234.5, Some(40));
        report.set("setup_s", 0.75, None);
        let json = report.to_json(false);
        assert_eq!(
            json.render(),
            r#"{"edge_qps":{"value":1234.5,"unit":"1/s"},"setup_s":{"value":0.75,"unit":"s"}}"#
        );
        assert!(report.to_json(true).render().contains(r#""samples":40"#));
        assert_eq!(report.missing(false).len(), END_TO_END.len() - 2);
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_names_are_rejected() {
        Report::default().set("edge_qsp", 1.0, None);
    }
}
