//! Comparing two runs: per-span-path and per-metric deltas between two
//! recorded streams, and the BENCH-baseline regression gate.
//!
//! `obs-report diff a.jsonl b.jsonl` answers "what changed between these
//! two runs" (informational, never fails); `obs-report check` compares a
//! freshly measured BENCH report against a committed baseline and exits
//! nonzero when any block's p50 regressed beyond the tolerance — the CI
//! perf gate.

use crate::report::{BenchReport, Report};

/// One changed quantity between two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DeltaLine {
    /// Span path or metric name.
    pub name: String,
    /// Value in the first (baseline / `a`) run.
    pub a: f64,
    /// Value in the second (candidate / `b`) run.
    pub b: f64,
}

impl DeltaLine {
    /// Relative change `(b - a) / a` in percent; `None` when `a == 0`.
    pub fn pct(&self) -> Option<f64> {
        if self.a == 0.0 {
            None
        } else {
            Some((self.b - self.a) / self.a * 100.0)
        }
    }

    /// Whether the two values differ at all.
    pub fn changed(&self) -> bool {
        self.a != self.b
    }
}

/// Full diff between two reports.
#[derive(Clone, Debug, Default)]
pub struct StreamDiff {
    /// Inclusive-time deltas per span path (union of both runs; a path
    /// missing from one run contributes 0 on that side).
    pub spans: Vec<DeltaLine>,
    /// Metric value deltas (counters/gauges by value, histograms by p50).
    pub metrics: Vec<DeltaLine>,
}

impl StreamDiff {
    /// Computes the diff `a -> b`.
    pub fn between(a: &Report, b: &Report) -> Self {
        let mut spans = Vec::new();
        let span_names: std::collections::BTreeSet<&String> =
            a.spans.keys().chain(b.spans.keys()).collect();
        for name in span_names {
            let va = a.spans.get(name).map(|s| s.inclusive_ns as f64).unwrap_or(0.0);
            let vb = b.spans.get(name).map(|s| s.inclusive_ns as f64).unwrap_or(0.0);
            spans.push(DeltaLine { name: name.clone(), a: va, b: vb });
        }
        let mut metrics = Vec::new();
        let metric_names: std::collections::BTreeSet<&String> =
            a.metrics.keys().chain(b.metrics.keys()).collect();
        for name in metric_names {
            let va = a.metrics.get(name).map(|m| m.value).unwrap_or(0.0);
            let vb = b.metrics.get(name).map(|m| m.value).unwrap_or(0.0);
            metrics.push(DeltaLine { name: name.clone(), a: va, b: vb });
        }
        Self { spans, metrics }
    }

    /// Whether nothing differs anywhere (`diff run.jsonl run.jsonl`).
    pub fn is_zero(&self) -> bool {
        self.spans.iter().all(|d| !d.changed()) && self.metrics.iter().all(|d| !d.changed())
    }

    /// Human-readable rendering: changed lines first with percent change,
    /// then a one-line tally of unchanged entries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut render_section = |title: &str, lines: &[DeltaLine], as_ns: bool| {
            let changed: Vec<&DeltaLine> = lines.iter().filter(|d| d.changed()).collect();
            out.push_str(&format!(
                "{title}: {} changed, {} unchanged\n",
                changed.len(),
                lines.len() - changed.len()
            ));
            for d in changed {
                let pct = match d.pct() {
                    Some(p) => format!("{p:+.1}%"),
                    None => "new".to_string(),
                };
                if as_ns {
                    out.push_str(&format!(
                        "  {:<60} {} -> {}  ({pct})\n",
                        d.name,
                        fmt_ns(d.a),
                        fmt_ns(d.b)
                    ));
                } else {
                    out.push_str(&format!("  {:<60} {} -> {}  ({pct})\n", d.name, d.a, d.b));
                }
            }
        };
        render_section("span inclusive time", &self.spans, true);
        render_section("metrics", &self.metrics, false);
        if self.is_zero() {
            out.push_str("runs are identical\n");
        }
        out
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Verdict for one baseline block.
#[derive(Clone, Debug, PartialEq)]
pub enum BlockVerdict {
    /// Within tolerance.
    Ok,
    /// Faster than baseline by more than the tolerance (worth re-baselining).
    Improved(f64),
    /// Slower than `baseline * (1 + tolerance)` — the gate trips.
    Regressed(f64),
    /// Present in the baseline but not measured now.
    MissingInCurrent,
    /// Measured now but absent from the baseline (informational).
    NewInCurrent,
}

/// Outcome of `obs-report check`.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Per-block verdicts in baseline order (new blocks appended).
    pub lines: Vec<(String, BlockVerdict)>,
    /// Number of `Regressed` verdicts.
    pub regressions: usize,
    /// Whether the baseline was recorded on matching hardware. Timing
    /// baselines only bind on the hardware that produced them; the CLI
    /// downgrades failures to warnings on a mismatch unless forced.
    pub hardware_match: bool,
}

impl CheckReport {
    /// Human-readable gate report.
    pub fn render(&self, tolerance: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "perf gate: tolerance {:.0}%, hardware {}\n",
            tolerance * 100.0,
            if self.hardware_match { "matches baseline" } else { "DIFFERS from baseline" }
        ));
        for (name, verdict) in &self.lines {
            let line = match verdict {
                BlockVerdict::Ok => format!("  ok        {name}"),
                BlockVerdict::Improved(pct) => format!("  improved  {name}  ({pct:+.1}%)"),
                BlockVerdict::Regressed(pct) => format!("  REGRESSED {name}  ({pct:+.1}%)"),
                BlockVerdict::MissingInCurrent => format!("  missing   {name}"),
                BlockVerdict::NewInCurrent => format!("  new       {name}"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(&format!(
            "{} regression(s), {} block(s) checked\n",
            self.regressions,
            self.lines.len()
        ));
        out
    }
}

/// Compares `current` against `baseline` block-by-block on p50 wall time.
/// A block regresses when `current.p50 > baseline.p50 * (1 + tolerance)`.
pub fn check(current: &BenchReport, baseline: &BenchReport, tolerance: f64) -> CheckReport {
    let mut lines = Vec::new();
    let mut regressions = 0;
    for base in &baseline.blocks {
        let verdict = match current.blocks.iter().find(|b| b.name == base.name) {
            None => BlockVerdict::MissingInCurrent,
            // A zero-p50 baseline can't express a ratio; never gate on it.
            Some(_) if base.p50_ns == 0 => BlockVerdict::Ok,
            Some(cur) => {
                let pct = (cur.p50_ns as f64 - base.p50_ns as f64) / base.p50_ns as f64 * 100.0;
                if cur.p50_ns as f64 > base.p50_ns as f64 * (1.0 + tolerance) {
                    regressions += 1;
                    BlockVerdict::Regressed(pct)
                } else if (cur.p50_ns as f64) < base.p50_ns as f64 * (1.0 - tolerance) {
                    BlockVerdict::Improved(pct)
                } else {
                    BlockVerdict::Ok
                }
            }
        };
        lines.push((base.name.clone(), verdict));
    }
    for cur in &current.blocks {
        if !baseline.blocks.iter().any(|b| b.name == cur.name) {
            lines.push((cur.name.clone(), BlockVerdict::NewInCurrent));
        }
    }
    CheckReport { lines, regressions, hardware_match: current.host.matches(&baseline.host) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{BenchBlock, BenchReport, HostInfo};
    use crate::stream::read_str;

    fn report_from(lines: &[String]) -> Report {
        Report::from_events(&read_str(&lines.join("\n")).unwrap())
    }

    fn span_line(path: &str, dur: u64) -> String {
        format!("{{\"kind\":\"span\",\"name\":\"{path}\",\"t_ns\":1,\"dur_ns\":{dur}}}")
    }

    #[test]
    fn identical_streams_diff_to_zero() {
        let lines = vec![span_line("fit", 100), span_line("fit/adapt", 60)];
        let a = report_from(&lines);
        let b = report_from(&lines);
        let d = StreamDiff::between(&a, &b);
        assert!(d.is_zero());
        assert!(d.render().contains("runs are identical"));
    }

    #[test]
    fn diff_reports_percent_change_and_new_paths() {
        let a = report_from(&[span_line("fit", 100)]);
        let b = report_from(&[span_line("fit", 150), span_line("fit/new", 10)]);
        let d = StreamDiff::between(&a, &b);
        assert!(!d.is_zero());
        let fit = d.spans.iter().find(|l| l.name == "fit").unwrap();
        assert_eq!(fit.pct(), Some(50.0));
        let new = d.spans.iter().find(|l| l.name == "fit/new").unwrap();
        assert_eq!(new.pct(), None, "0 -> x has no percent change");
        assert!(d.render().contains("+50.0%"));
    }

    fn bench(name: &str, p50: u64) -> BenchBlock {
        BenchBlock {
            name: name.into(),
            iters: 10,
            p50_ns: p50,
            p90_ns: p50 + p50 / 10,
            mean_ns: p50 as f64,
            flops: 0,
            alloc_count: 0,
            alloc_bytes: 0,
            server_p99_ns: 0,
        }
    }

    fn bench_report(blocks: Vec<BenchBlock>) -> BenchReport {
        BenchReport {
            git_rev: "test".into(),
            scenario: "unit".into(),
            host: HostInfo::current(),
            requests: 0,
            run_id: String::new(),
            blocks,
        }
    }

    #[test]
    fn check_passes_within_tolerance_and_flags_regressions() {
        let baseline = bench_report(vec![bench("a", 1000), bench("b", 1000)]);
        let ok = bench_report(vec![bench("a", 1100), bench("b", 950)]);
        let gate = check(&ok, &baseline, 0.15);
        assert_eq!(gate.regressions, 0, "{:?}", gate.lines);
        assert!(gate.hardware_match);

        let slow = bench_report(vec![bench("a", 1300), bench("b", 1000)]);
        let gate = check(&slow, &baseline, 0.15);
        assert_eq!(gate.regressions, 1);
        assert!(matches!(gate.lines[0].1, BlockVerdict::Regressed(p) if (p - 30.0).abs() < 1e-9));
        assert!(gate.render(0.15).contains("REGRESSED a"));
    }

    #[test]
    fn check_tracks_missing_new_and_improved_blocks() {
        let baseline = bench_report(vec![bench("gone", 1000), bench("kept", 1000)]);
        let current = bench_report(vec![bench("kept", 500), bench("fresh", 10)]);
        let gate = check(&current, &baseline, 0.15);
        assert_eq!(gate.regressions, 0);
        let verdict = |name: &str| {
            gate.lines.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone()).unwrap()
        };
        assert_eq!(verdict("gone"), BlockVerdict::MissingInCurrent);
        assert!(matches!(verdict("kept"), BlockVerdict::Improved(_)));
        assert_eq!(verdict("fresh"), BlockVerdict::NewInCurrent);
    }

    #[test]
    fn check_detects_hardware_mismatch() {
        let baseline = BenchReport {
            host: HostInfo {
                arch: "riscv64".into(),
                os: "plan9".into(),
                cpus: 1024,
                simd: Some("scalar".into()),
            },
            ..bench_report(vec![bench("a", 1000)])
        };
        let current = bench_report(vec![bench("a", 5000)]);
        let gate = check(&current, &baseline, 0.15);
        assert_eq!(gate.regressions, 1, "mismatch does not silence the math");
        assert!(!gate.hardware_match, "but the caller can downgrade on it");
    }
}
