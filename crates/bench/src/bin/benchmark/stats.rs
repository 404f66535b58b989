//! Order statistics over raw samples.
//!
//! Percentiles use the nearest-rank rule on the sorted samples, so every
//! reported value is one that was actually measured. They are never read
//! from itrust-obs histograms, whose power-of-two buckets snap a median to
//! the nearest bucket edge.

/// Tail percentiles the chooser considers, highest first. The list stops at
/// p99: above it a few scheduler hiccups on a shared host decide the value.
const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile must leave above it to be reported.
const TAIL_MIN_BEYOND: usize = 10;

/// Median and tail of one sample set, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile `tail` reports (see [`tail_percentile`]).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank `ceil(p/100 · n)`, in integer arithmetic on basis
/// points so that e.g. p99 of 1000 samples is exactly rank 990.
fn rank(n: usize, p: f64) -> usize {
    let bp = (p * 100.0).round() as usize;
    (bp * n).div_ceil(10_000)
}

/// Samples strictly above the nearest-rank `p`th percentile of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest candidate percentile that leaves at least
/// [`TAIL_MIN_BEYOND`] samples above it, or p50 for tiny sample sets.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Nearest-rank `p`th percentile of unsorted `values`.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median of `values` (nearest rank, so an odd-length median exactly).
pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 50.0)
}

// Why the end-to-end timings read the least disturbed window: on a shared
// host, neighbours slow this process by up to 1.8 times, in stretches that
// last from a tenth of a second to several seconds, so any long interval is
// slowed by however busy the host happened to be. Interference only ever
// slows work down, while a change to the program moves every window, so the
// fastest of many short windows spread over the whole run follows the
// program and not its neighbours.

/// Throughput of the fastest of the `(items, seconds)` windows.
pub fn best_rate(windows: &[(f64, f64)]) -> f64 {
    let rates: Vec<f64> = windows.iter().map(|(n, s)| n / s).collect();
    percentile_of(&rates, 100.0)
}

/// `(operations, seconds)` of each window of `per_window` consecutive
/// latencies of operations run back to back.
pub fn latency_windows(latencies_us: &[f64], per_window: usize) -> Vec<(f64, f64)> {
    latencies_us
        .chunks(per_window.max(1))
        .map(|c| (c.len() as f64, c.iter().sum::<f64>() / 1e6))
        .collect()
}

/// The median latency of the window of `per_window` consecutive latencies
/// whose median is lowest.
pub fn best_window_median(latencies_us: &[f64], per_window: usize) -> f64 {
    let medians: Vec<f64> = latencies_us.chunks(per_window.max(1)).map(median).collect();
    percentile_of(&medians, 0.0)
}

/// Sort a copy of `values` and summarize it.
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len());
    Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail: percentile(&sorted, tail_pct),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_chooser_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        for n in [40, 100, 200, 1_000, 12_345] {
            assert!(beyond(n, tail_percentile(n)) >= TAIL_MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let v: Vec<f64> = (0..1_000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 989.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn window_statistics_read_the_least_disturbed_window() {
        // Ten windows of ten operations; all but one are slowed down.
        let mut lat = vec![3_000.0; 100];
        lat[40..50].fill(1_000.0);
        lat[45] = 9_000.0;
        let windows = latency_windows(&lat, 10);
        assert_eq!(windows.len(), 10);
        assert_eq!(windows[4], (10.0, 0.018));
        assert_eq!(best_rate(&windows), 10.0 / 0.018);
        assert_eq!(best_window_median(&lat, 10), 1_000.0);
        // Windows that straddle the fast stretch read slower than it.
        assert_eq!(best_window_median(&lat, 20), 3_000.0);
        assert_eq!(latency_windows(&lat[..15], 2).len(), 8);
    }
}
