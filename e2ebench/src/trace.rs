//! The benchmark's own spans, recorded around its calls into each crate's
//! public functions during a traced run.
//!
//! A span is `(id, parent, req, name, start, end)`: `parent` is the span
//! that caused it (0 at the root) and every span of one HTTP request or
//! engine call shares its `req` id. Spans stay in memory until the run
//! ends and are then written as JSONL; with tracing off, [`span`] is a
//! plain call and nothing is recorded.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span; times are nanoseconds since tracing was enabled.
struct SpanRec {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// Turns span recording on for the rest of the process.
pub fn enable() {
    TRACER.get_or_init(|| Tracer {
        t0: Instant::now(),
        next_id: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    });
}

/// Whether spans are being recorded.
pub fn on() -> bool {
    TRACER.get().is_some()
}

/// Runs `f` as span `name` under `parent`, handing it the new span's id so
/// calls inside can nest under it.
pub fn span<R>(name: &'static str, parent: u64, req: u64, f: impl FnOnce(u64) -> R) -> R {
    let Some(t) = TRACER.get() else { return f(0) };
    let id = t.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let start = Instant::now();
    let out = f(id);
    push(t, id, parent, req, name, start, Instant::now());
    out
}

/// Records an interval the caller timed itself (load-generator threads
/// time each request from its scheduled send time).
pub fn record(name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) {
    if let Some(t) = TRACER.get() {
        let id = t.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        push(t, id, parent, req, name, start, end);
    }
}

fn push(t: &Tracer, id: u64, parent: u64, req: u64, name: &'static str, s: Instant, e: Instant) {
    let at = |i: Instant| crate::stats::ns(i.saturating_duration_since(t.t0));
    let rec = SpanRec { id, parent, req, name, start_ns: at(s), end_ns: at(e) };
    t.spans.lock().expect("span buffer poisoned").push(rec);
}

/// Per span name: `(count, total_ns, self_ns)`, where a span's self time is
/// its duration minus the part of its interval its children cover.
pub fn self_times() -> Vec<(&'static str, u64, u64, u64)> {
    let Some(t) = TRACER.get() else { return Vec::new() };
    let spans = t.spans.lock().expect("span buffer poisoned");
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
    for s in spans.iter() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(covered);
    }
    by_name.into_iter().map(|(n, (c, tot, own))| (n, c, tot, own)).collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Writes every recorded span as one JSONL line; returns the span count.
pub fn write(path: &std::path::Path) -> std::io::Result<usize> {
    let Some(t) = TRACER.get() else { return Ok(0) };
    let spans = t.spans.lock().expect("span buffer poisoned");
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans.iter() {
        let _ = writeln!(
            out,
            r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)?;
    Ok(spans.len())
}
