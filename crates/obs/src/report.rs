//! Offline analysis of a recorded observability stream: span-tree
//! reconstruction, a text flamegraph, the metrics table, and the BENCH
//! perf-baseline schema.
//!
//! The live [`crate::summary`] renders from process-global aggregates at
//! exit; this module computes the same quantities *from the JSONL stream
//! alone*, so any recorded run can be re-analyzed, diffed against another
//! run ([`crate::diff`]), or turned into a regression baseline long after
//! the process is gone. Inclusive time per span path is the sum of that
//! path's span durations — identical, by construction, to the live
//! aggregate's `total_ns` — and exclusive (self) time subtracts the
//! inclusive time of direct children.

use std::collections::BTreeMap;

use crate::json::ObjectWriter;
use crate::stream::{JsonValue, StreamEvent};

/// Per-span-path statistics reconstructed from a stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanPathStat {
    /// Completions recorded at this path.
    pub count: u64,
    /// Summed duration of this path's spans (includes children).
    pub inclusive_ns: u64,
    /// Inclusive minus the inclusive time of direct children (saturating).
    pub exclusive_ns: u64,
    /// Allocations attributed to this path (0 unless `--obs-alloc`).
    pub alloc_count: u64,
    /// Allocated bytes attributed to this path.
    pub alloc_bytes: u64,
}

/// One metric reading carried by a stream's `metric` records.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricReading {
    /// `"counter"`, `"gauge"`, `"histogram"`, or `"window"`.
    pub metric_kind: String,
    /// Scalar value (counter total / gauge value / histogram or window p50).
    pub value: f64,
    /// Full payload for rendering (count, mean, p90, ... for histograms).
    pub fields: Vec<(String, JsonValue)>,
}

/// Everything `obs-report` knows about one recorded run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Manifest payload (binary, seed, flags), when the stream has one.
    pub manifest: Vec<(String, JsonValue)>,
    /// Per-path span statistics, keyed by full `/`-joined path.
    pub spans: BTreeMap<String, SpanPathStat>,
    /// Metric readings, keyed by metric name.
    pub metrics: BTreeMap<String, MetricReading>,
    /// Total records in the stream, by kind.
    pub record_counts: BTreeMap<String, u64>,
}

impl Report {
    /// Aggregates a parsed stream into a report.
    pub fn from_events(events: &[StreamEvent]) -> Self {
        let mut report = Report::default();
        for ev in events {
            *report.record_counts.entry(ev.kind.clone()).or_insert(0) += 1;
            match ev.kind.as_str() {
                "span" => {
                    let stat = report.spans.entry(ev.name.clone()).or_default();
                    stat.count += 1;
                    stat.inclusive_ns += ev.field_u64("dur_ns").unwrap_or(0);
                    stat.alloc_count += ev.field_u64("alloc_count").unwrap_or(0);
                    stat.alloc_bytes += ev.field_u64("alloc_bytes").unwrap_or(0);
                }
                "metric" => {
                    let metric_kind = ev
                        .field("metric_kind")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("counter")
                        .to_string();
                    let value = match metric_kind.as_str() {
                        "histogram" | "window" => ev.field("p50").and_then(JsonValue::as_f64),
                        _ => ev.field("value").and_then(JsonValue::as_f64),
                    }
                    .unwrap_or(0.0);
                    report.metrics.insert(
                        ev.name.clone(),
                        MetricReading { metric_kind, value, fields: ev.fields.clone() },
                    );
                }
                "manifest" => report.manifest = ev.fields.clone(),
                _ => {}
            }
        }
        report.compute_exclusive();
        report
    }

    /// Fills in `exclusive_ns` by subtracting every path's direct
    /// children from its inclusive total.
    fn compute_exclusive(&mut self) {
        let mut child_sum: BTreeMap<String, u64> = BTreeMap::new();
        for (path, stat) in &self.spans {
            if let Some(idx) = path.rfind('/') {
                let parent = path[..idx].to_string();
                *child_sum.entry(parent).or_insert(0) += stat.inclusive_ns;
            }
        }
        for (path, stat) in self.spans.iter_mut() {
            let children = child_sum.get(path).copied().unwrap_or(0);
            stat.exclusive_ns = stat.inclusive_ns.saturating_sub(children);
        }
    }

    /// Text flamegraph: the span tree in path order (children indented
    /// under parents), one line per path with inclusive/exclusive/count,
    /// followed by a hot-list of the same paths sorted by self-time.
    pub fn render_flamegraph(&self) -> String {
        let mut out = String::new();
        if self.spans.is_empty() {
            out.push_str("no span records in stream\n");
            return out;
        }
        let total: u64 = self
            .spans
            .iter()
            .filter(|(path, _)| !path.contains('/'))
            .map(|(_, s)| s.inclusive_ns)
            .sum();
        out.push_str("span tree (inclusive / exclusive / count):\n");
        for (path, stat) in &self.spans {
            let depth = path.matches('/').count();
            let leaf = path.rsplit('/').next().unwrap_or(path);
            for _ in 0..depth {
                out.push_str("  ");
            }
            let share = if total > 0 {
                format!(" {:5.1}%", stat.inclusive_ns as f64 / total as f64 * 100.0)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{}  {} / {} / {}{}{}\n",
                leaf,
                fmt_ns(stat.inclusive_ns),
                fmt_ns(stat.exclusive_ns),
                stat.count,
                share,
                fmt_allocs(stat),
            ));
        }
        out.push_str("\nhot paths by self time:\n");
        let mut by_self: Vec<(&String, &SpanPathStat)> = self.spans.iter().collect();
        by_self.sort_by(|a, b| b.1.exclusive_ns.cmp(&a.1.exclusive_ns).then(a.0.cmp(b.0)));
        for (path, stat) in by_self.iter().take(15) {
            out.push_str(&format!(
                "  {:<60} self {} ({} calls){}\n",
                path,
                fmt_ns(stat.exclusive_ns),
                stat.count,
                fmt_allocs(stat),
            ));
        }
        out
    }

    /// The metrics table reconstructed from `metric` records.
    pub fn render_metrics(&self) -> String {
        let mut out = String::new();
        if self.metrics.is_empty() {
            out.push_str("no metric records in stream (older streams predate metric snapshots)\n");
            return out;
        }
        out.push_str("metrics:\n");
        for (name, m) in &self.metrics {
            match m.metric_kind.as_str() {
                "histogram" => {
                    let g = |k: &str| {
                        m.fields
                            .iter()
                            .find(|(fk, _)| fk == k)
                            .and_then(|(_, v)| v.as_f64())
                            .unwrap_or(0.0)
                    };
                    out.push_str(&format!(
                        "  {name}: n={} mean={:.1} p50={} p90={} p99={} min={} max={}\n",
                        g("count") as u64,
                        g("mean"),
                        g("p50") as u64,
                        g("p90") as u64,
                        g("p99") as u64,
                        g("min") as u64,
                        g("max") as u64,
                    ));
                }
                "window" => {
                    let g = |k: &str| {
                        m.fields
                            .iter()
                            .find(|(fk, _)| fk == k)
                            .and_then(|(_, v)| v.as_f64())
                            .unwrap_or(0.0)
                    };
                    out.push_str(&format!(
                        "  {name} [{:.0}s window]: n={} mean={:.1} p50={} p90={} p99={}\n",
                        g("window_s"),
                        g("count") as u64,
                        g("mean"),
                        g("p50") as u64,
                        g("p90") as u64,
                        g("p99") as u64,
                    ));
                }
                "gauge" => out.push_str(&format!("  {name} = {:.6}\n", m.value)),
                _ => out.push_str(&format!("  {name} = {}\n", m.value as u64)),
            }
        }
        out
    }

    /// Machine-readable summary: one JSON object with the manifest, every
    /// span path's statistics, and every metric reading.
    pub fn to_json(&self) -> String {
        let mut spans = String::from("[");
        for (i, (path, stat)) in self.spans.iter().enumerate() {
            if i > 0 {
                spans.push(',');
            }
            let mut w = ObjectWriter::new();
            w.str_field("path", path)
                .u64_field("count", stat.count)
                .u64_field("inclusive_ns", stat.inclusive_ns)
                .u64_field("exclusive_ns", stat.exclusive_ns)
                .u64_field("alloc_count", stat.alloc_count)
                .u64_field("alloc_bytes", stat.alloc_bytes);
            spans.push_str(&w.finish());
        }
        spans.push(']');

        let mut metrics = String::from("[");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let mut w = ObjectWriter::new();
            w.str_field("name", name).str_field("metric_kind", &m.metric_kind);
            w.f64_field("value", m.value);
            metrics.push_str(&w.finish());
        }
        metrics.push(']');

        let mut manifest = ObjectWriter::new();
        for (k, v) in &self.manifest {
            push_json_value(&mut manifest, k, v);
        }

        let mut w = ObjectWriter::new();
        w.str_field("schema", "metadpa-obs-report/v1");
        w.raw_field("manifest", &manifest.finish());
        w.raw_field("spans", &spans);
        w.raw_field("metrics", &metrics);
        w.finish()
    }
}

fn push_json_value(w: &mut ObjectWriter, k: &str, v: &JsonValue) {
    match v {
        JsonValue::Int(x) => {
            w.i64_field(k, *x);
        }
        JsonValue::Float(x) => {
            w.f64_field(k, *x);
        }
        JsonValue::Str(x) => {
            w.str_field(k, x);
        }
        JsonValue::Bool(x) => {
            w.bool_field(k, *x);
        }
        JsonValue::Null => {
            w.raw_field(k, "null");
        }
        // Nested values don't occur in manifests; serialize defensively.
        other => {
            w.str_field(k, &format!("{other:?}"));
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

fn fmt_allocs(stat: &SpanPathStat) -> String {
    if stat.alloc_count == 0 {
        String::new()
    } else {
        format!("  [{} allocs, {}]", stat.alloc_count, fmt_bytes(stat.alloc_bytes))
    }
}

/// BENCH baseline schema version tag. v3 adds the top-level `run_id`
/// (the run-ledger key of [`crate::run`], `""` when the recording process
/// had no run installed); v2 added the optional per-block `server_p99_ns`
/// and the top-level `requests` total. Every added field defaults, so v2
/// and v1 documents still decode.
pub const BENCH_SCHEMA: &str = "metadpa-bench/v3";

/// The previous schema tags, still accepted by [`BenchReport::from_json`].
pub const BENCH_SCHEMA_V2: &str = "metadpa-bench/v2";

/// The original schema tag, still accepted by [`BenchReport::from_json`].
pub const BENCH_SCHEMA_V1: &str = "metadpa-bench/v1";

/// The current git revision (short hash, `-dirty` suffixed when the tree
/// has local modifications), or `"unknown"` outside a git checkout.
/// Stamped into BENCH baselines and exported model artifacts so a stored
/// file can always be traced back to the code that produced it.
pub fn git_rev() -> String {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match run(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = run(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{rev}-dirty")
            } else {
                rev
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Hardware fingerprint a baseline was recorded on. The regression gate
/// downgrades to warnings when this does not match the current machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostInfo {
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Available parallelism at record time.
    pub cpus: u64,
    /// Vector features the matmul kernels can dispatch to: `"avx2+fma"` or
    /// `"scalar"`, the strings `metadpa_tensor::simd::feature_string`
    /// reports. `None` for records written before the field existed —
    /// unknown, so they never match any host.
    pub simd: Option<String>,
}

impl HostInfo {
    /// The machine this process runs on.
    pub fn current() -> Self {
        Self {
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
            cpus: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
            simd: Some(simd_features().to_string()),
        }
    }

    /// Whether numbers recorded on `other` may gate numbers recorded on
    /// `self`: same architecture, OS, CPU count and SIMD features, with the
    /// features known on both sides (a kernel row timed with AVX2 says
    /// nothing about a scalar-only host).
    pub fn matches(&self, other: &HostInfo) -> bool {
        self.arch == other.arch
            && self.os == other.os
            && self.cpus == other.cpus
            && self.simd.is_some()
            && self.simd == other.simd
    }
}

/// The host's matmul kernel features, detected here rather than asked of
/// `metadpa-tensor` (which depends on this crate) with the same probe.
fn simd_features() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return "avx2+fma";
        }
    }
    "scalar"
}

/// One timed block inside a BENCH report.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchBlock {
    /// Block name (microbench case or pipeline block).
    pub name: String,
    /// Measured iterations behind the quantiles.
    pub iters: u64,
    /// Median wall-time per iteration, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile wall-time per iteration, nanoseconds.
    pub p90_ns: u64,
    /// Mean wall-time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// FLOPs per iteration (from the `tensor.matmul.flops` counter; 0
    /// when observability was off during the run).
    pub flops: u64,
    /// Allocations per iteration (0 unless `--obs-alloc`).
    pub alloc_count: u64,
    /// Allocated bytes per iteration.
    pub alloc_bytes: u64,
    /// Server-side windowed p99 for this block, nanoseconds, as scraped
    /// from the serving layer's `/metrics` (0 when not applicable — every
    /// v1 document and all client-only measurements).
    pub server_p99_ns: u64,
}

/// A perf baseline: stable, machine-readable, diffable. See DESIGN.md §6
/// for the schema contract.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Git revision the numbers were recorded at (or `"unknown"`).
    pub git_rev: String,
    /// What was measured (e.g. `microbench.blocks` or `fig6.scalability`).
    pub scenario: String,
    /// Hardware fingerprint.
    pub host: HostInfo,
    /// Total requests behind the report (0 when not a load scenario or
    /// when decoded from a v1 document).
    pub requests: u64,
    /// Run-ledger key of the run that produced the numbers (see
    /// [`crate::run`]); `""` when no run was installed or when decoded
    /// from a pre-v3 document.
    pub run_id: String,
    /// Per-block statistics.
    pub blocks: Vec<BenchBlock>,
}

impl BenchReport {
    /// Serializes to the stable BENCH JSON schema (pretty enough to diff
    /// in review: one block per line).
    pub fn to_json(&self) -> String {
        let mut host = ObjectWriter::new();
        host.str_field("arch", &self.host.arch)
            .str_field("os", &self.host.os)
            .u64_field("cpus", self.host.cpus);
        if let Some(simd) = &self.host.simd {
            host.str_field("simd", simd);
        }
        let mut blocks = String::from("[\n");
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                blocks.push_str(",\n");
            }
            let mut w = ObjectWriter::new();
            w.str_field("name", &b.name)
                .u64_field("iters", b.iters)
                .u64_field("p50_ns", b.p50_ns)
                .u64_field("p90_ns", b.p90_ns)
                .f64_field("mean_ns", b.mean_ns)
                .u64_field("flops", b.flops)
                .u64_field("alloc_count", b.alloc_count)
                .u64_field("alloc_bytes", b.alloc_bytes)
                .u64_field("server_p99_ns", b.server_p99_ns);
            blocks.push_str("    ");
            blocks.push_str(&w.finish());
        }
        blocks.push_str("\n  ]");
        let mut w = ObjectWriter::new();
        w.str_field("schema", BENCH_SCHEMA)
            .str_field("git_rev", &self.git_rev)
            .str_field("scenario", &self.scenario)
            .u64_field("requests", self.requests)
            .str_field("run_id", &self.run_id)
            .raw_field("host", &host.finish())
            .raw_field("blocks", &blocks);
        // Re-indent the top level for readability.
        w.finish()
            .replacen("{\"schema\"", "{\n  \"schema\"", 1)
            .replacen(",\"git_rev\"", ",\n  \"git_rev\"", 1)
            .replacen(",\"scenario\"", ",\n  \"scenario\"", 1)
            .replacen(",\"requests\"", ",\n  \"requests\"", 1)
            .replacen(",\"run_id\"", ",\n  \"run_id\"", 1)
            .replacen(",\"host\"", ",\n  \"host\"", 1)
            .replacen(",\"blocks\"", ",\n  \"blocks\"", 1)
            + "\n"
    }

    /// Parses a BENCH JSON document, validating the schema tag. The
    /// current v3 schema and the older v2/v1 are all accepted; older
    /// documents simply decode with the added fields at their defaults
    /// (`run_id = ""`, `requests`/`server_p99_ns` = 0).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = crate::stream::parse(text).map_err(|e| e.to_string())?;
        let schema = v.get("schema").and_then(JsonValue::as_str).unwrap_or("");
        if schema != BENCH_SCHEMA && schema != BENCH_SCHEMA_V2 && schema != BENCH_SCHEMA_V1 {
            return Err(format!(
                "unsupported BENCH schema {schema:?} \
                 (want {BENCH_SCHEMA:?}, {BENCH_SCHEMA_V2:?} or {BENCH_SCHEMA_V1:?})"
            ));
        }
        let str_of = |key: &str| {
            v.get(key).and_then(JsonValue::as_str).map(str::to_string).unwrap_or_default()
        };
        let host = v.get("host").ok_or("missing host")?;
        let host = HostInfo {
            arch: host.get("arch").and_then(JsonValue::as_str).unwrap_or("").to_string(),
            os: host.get("os").and_then(JsonValue::as_str).unwrap_or("").to_string(),
            cpus: host.get("cpus").and_then(JsonValue::as_u64).unwrap_or(0),
            simd: host.get("simd").and_then(JsonValue::as_str).map(str::to_string),
        };
        let mut blocks = Vec::new();
        for b in v.get("blocks").and_then(JsonValue::as_arr).ok_or("missing blocks array")? {
            let name =
                b.get("name").and_then(JsonValue::as_str).ok_or("block missing name")?.to_string();
            let u = |key: &str| b.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
            blocks.push(BenchBlock {
                name,
                iters: u("iters"),
                p50_ns: u("p50_ns"),
                p90_ns: u("p90_ns"),
                mean_ns: b.get("mean_ns").and_then(JsonValue::as_f64).unwrap_or(0.0),
                flops: u("flops"),
                alloc_count: u("alloc_count"),
                alloc_bytes: u("alloc_bytes"),
                server_p99_ns: u("server_p99_ns"),
            });
        }
        Ok(Self {
            git_rev: str_of("git_rev"),
            scenario: str_of("scenario"),
            host,
            requests: v.get("requests").and_then(JsonValue::as_u64).unwrap_or(0),
            run_id: str_of("run_id"),
            blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::read_str;

    fn span_line(path: &str, dur: u64) -> String {
        format!("{{\"kind\":\"span\",\"name\":\"{path}\",\"t_ns\":1,\"dur_ns\":{dur}}}")
    }

    #[test]
    fn inclusive_and_exclusive_times_reconstruct_the_tree() {
        let stream = [
            span_line("fit/adapt", 30),
            span_line("fit/adapt", 20),
            span_line("fit/augment", 10),
            span_line("fit", 100),
        ]
        .join("\n");
        let report = Report::from_events(&read_str(&stream).unwrap());
        let fit = &report.spans["fit"];
        assert_eq!(fit.inclusive_ns, 100);
        assert_eq!(fit.exclusive_ns, 100 - 30 - 20 - 10);
        let adapt = &report.spans["fit/adapt"];
        assert_eq!(adapt.count, 2);
        assert_eq!(adapt.inclusive_ns, 50);
        assert_eq!(adapt.exclusive_ns, 50, "leaf spans own all their time");
        let flame = report.render_flamegraph();
        assert!(flame.contains("span tree"));
        assert!(flame.contains("  adapt"), "child indented under parent: {flame}");
        assert!(flame.contains("hot paths by self time"));
    }

    #[test]
    fn exclusive_saturates_when_children_overshoot() {
        // Clock skew between parent/child measurements must not underflow.
        let stream = [span_line("p/c", 120), span_line("p", 100)].join("\n");
        let report = Report::from_events(&read_str(&stream).unwrap());
        assert_eq!(report.spans["p"].exclusive_ns, 0);
    }

    #[test]
    fn metric_records_feed_the_metrics_table() {
        let stream = "{\"kind\":\"metric\",\"name\":\"tensor.matmul.flops\",\"t_ns\":9,\
                      \"metric_kind\":\"counter\",\"value\":123}\n\
                      {\"kind\":\"metric\",\"name\":\"lat\",\"t_ns\":9,\
                      \"metric_kind\":\"histogram\",\"count\":4,\"mean\":2.5,\"p50\":2,\
                      \"p90\":4,\"p99\":4,\"min\":1,\"max\":4}";
        let report = Report::from_events(&read_str(stream).unwrap());
        assert_eq!(report.metrics["tensor.matmul.flops"].value, 123.0);
        assert_eq!(report.metrics["lat"].value, 2.0, "histograms summarize as p50");
        let table = report.render_metrics();
        assert!(table.contains("tensor.matmul.flops = 123"));
        assert!(table.contains("lat: n=4"));
    }

    #[test]
    fn machine_summary_is_parseable_json() {
        let stream = [span_line("a", 10), span_line("a/b", 4)].join("\n");
        let report = Report::from_events(&read_str(&stream).unwrap());
        let summary = crate::stream::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            summary.get("schema").and_then(JsonValue::as_str),
            Some("metadpa-obs-report/v1")
        );
        let spans = summary.get("spans").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("path").and_then(JsonValue::as_str), Some("a"));
        assert_eq!(spans[0].get("exclusive_ns").and_then(JsonValue::as_u64), Some(6));
    }

    #[test]
    fn bench_report_round_trips_through_json() {
        let report = BenchReport {
            git_rev: "abc123".into(),
            scenario: "microbench.blocks".into(),
            host: HostInfo {
                arch: "x86_64".into(),
                os: "linux".into(),
                cpus: 8,
                simd: Some("avx2+fma".into()),
            },
            requests: 27_000,
            run_id: "run-0000000000000007-00000000deadbeef-1".into(),
            blocks: vec![BenchBlock {
                name: "block1/100".into(),
                iters: 10,
                p50_ns: 1000,
                p90_ns: 1200,
                mean_ns: 1050.5,
                flops: 64000,
                alloc_count: 12,
                alloc_bytes: 4096,
                server_p99_ns: 1500,
            }],
        };
        let parsed = BenchReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed, report);
        assert!(report.to_json().contains("metadpa-bench/v3"));
    }

    #[test]
    fn host_simd_features_round_trip_and_unknown_never_matches() {
        let current = HostInfo::current();
        assert!(current.simd.is_some(), "the running host always knows its features");
        assert!(current.matches(&current));
        let mut report = BenchReport {
            git_rev: "abc".into(),
            scenario: "microbench.kernels".into(),
            host: current.clone(),
            requests: 0,
            run_id: String::new(),
            blocks: Vec::new(),
        };
        let parsed = BenchReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed.host, current);
        assert!(report.to_json().contains("\"simd\":"));

        // Same machine, other kernel features: never comparable.
        let other = if current.simd.as_deref() == Some("scalar") { "avx2+fma" } else { "scalar" };
        let scalar = HostInfo { simd: Some(other.into()), ..current.clone() };
        assert!(!current.matches(&scalar) && !scalar.matches(&current));

        // A record without the field decodes as unknown and matches nothing,
        // not even an identical unknown record.
        report.host.simd = None;
        let json = report.to_json();
        assert!(!json.contains("simd"));
        let unknown = BenchReport::from_json(&json).expect("decodes").host;
        assert_eq!(unknown.simd, None);
        assert!(!unknown.matches(&current) && !current.matches(&unknown));
        assert!(!unknown.matches(&unknown));
    }

    #[test]
    fn bench_v2_documents_still_decode_with_a_defaulted_run_id() {
        // A literal v2 document: `requests` and `server_p99_ns` present,
        // no `run_id` yet.
        let v2 = "{\n  \"schema\":\"metadpa-bench/v2\",\n  \"git_rev\":\"cafe02\",\n  \
                  \"scenario\":\"serve.loadgen\",\n  \"requests\":500,\n  \
                  \"host\":{\"arch\":\"x86_64\",\"os\":\"linux\",\"cpus\":4},\n  \
                  \"blocks\":[\n    {\"name\":\"serve.recommend.warm\",\"iters\":100,\
                  \"p50_ns\":5000,\"p90_ns\":9000,\"mean_ns\":6000.0,\"flops\":0,\
                  \"alloc_count\":0,\"alloc_bytes\":0,\"server_p99_ns\":7000}\n  ]}\n";
        let parsed = BenchReport::from_json(v2).expect("v2 stays decodable");
        assert_eq!(parsed.requests, 500);
        assert_eq!(parsed.run_id, "", "v2 has no run_id field");
        assert_eq!(parsed.blocks[0].server_p99_ns, 7000);
    }

    #[test]
    fn bench_v1_documents_still_decode_with_defaulted_v2_fields() {
        // A literal pre-v2 document: no `requests`, no `server_p99_ns`.
        let v1 = "{\n  \"schema\":\"metadpa-bench/v1\",\n  \"git_rev\":\"cafe01\",\n  \
                  \"scenario\":\"serve.loadgen\",\n  \
                  \"host\":{\"arch\":\"x86_64\",\"os\":\"linux\",\"cpus\":4},\n  \
                  \"blocks\":[\n    {\"name\":\"serve.recommend.warm\",\"iters\":100,\
                  \"p50_ns\":5000,\"p90_ns\":9000,\"mean_ns\":6000.0,\"flops\":0,\
                  \"alloc_count\":0,\"alloc_bytes\":0}\n  ]}\n";
        let parsed = BenchReport::from_json(v1).expect("v1 stays decodable");
        assert_eq!(parsed.scenario, "serve.loadgen");
        assert_eq!(parsed.requests, 0, "v1 has no requests field");
        assert_eq!(parsed.blocks.len(), 1);
        assert_eq!(parsed.blocks[0].p50_ns, 5000);
        assert_eq!(parsed.blocks[0].server_p99_ns, 0, "v1 blocks default the server p99");
    }

    #[test]
    fn bench_report_rejects_wrong_schema() {
        assert!(BenchReport::from_json("{\"schema\":\"other/v9\"}").is_err());
    }
}
