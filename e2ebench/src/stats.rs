//! Small order statistics over measured samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `f64::NAN` when empty, so a missing sample never reads as a fast one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice of nanosecond samples,
/// returned in microseconds; `f64::NAN` when empty.
pub fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1000.0
}

/// Sorted copy of nanosecond samples, for [`quantile_us`].
pub fn sorted(mut ns: Vec<u64>) -> Vec<u64> {
    ns.sort_unstable();
    ns
}

/// Seconds as fractional milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Samples per chunk below which a run is cut into fewer chunks.
const MIN_CHUNK: usize = 200;
/// Most chunks one run is cut into.
const MAX_CHUNKS: usize = 9;

fn chunk_len(n: usize) -> usize {
    n.div_ceil((n / MIN_CHUNK).clamp(1, MAX_CHUNKS)).max(1)
}

/// Completions per second over contiguous chunks of at least 200 of the
/// completion times (`end_ns` from the run's start, any order), at most
/// nine chunks. The median over chunks is what the benchmark reports: a
/// host stall that hits one stretch of a run moves one chunk, not the
/// reported value.
pub fn chunk_rates(mut end_ns: Vec<u64>) -> Vec<f64> {
    end_ns.sort_unstable();
    let mut prev = 0u64;
    end_ns
        .chunks(chunk_len(end_ns.len()))
        .map(|c| {
            let last = *c.last().expect("chunks are non-empty");
            let rate = c.len() as f64 / ((last - prev).max(1) as f64 / 1e9);
            prev = last;
            rate
        })
        .collect()
}
