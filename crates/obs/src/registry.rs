//! Per-context metrics registry: atomic counters, gauges, and fixed-bucket
//! exponential histograms, keyed by static names.
//!
//! Each [`crate::ObsCtx`] owns one [`Registry`]. Registration takes a short
//! mutex on first use of a name; every subsequent operation on the returned
//! `Arc`-backed handle is lock-free atomics. There is no process-global
//! table — two contexts with the same metric names record into disjoint
//! storage.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets. Bucket `i < BUCKET_COUNT - 1` covers
/// `[lo(i), lo(i+1))` with `lo(0) = 0`, `lo(i) = 2^(i+5)`; the final bucket
/// is unbounded. The range therefore spans 32 ns .. ~2^35 ns (~34 s) with
/// one sub-32 bucket and one overflow bucket — good resolution for
/// nanosecond latencies while still usable for sizes and counts.
pub const BUCKET_COUNT: usize = 32;

/// Lower bound (inclusive) of bucket `i`.
pub(crate) fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i + 4)
    }
}

/// Upper bound (exclusive) of bucket `i`, or `u64::MAX` for the last.
pub(crate) fn bucket_hi(i: usize) -> u64 {
    if i + 1 >= BUCKET_COUNT {
        u64::MAX
    } else {
        bucket_lo(i + 1)
    }
}

fn bucket_index(value: u64) -> usize {
    if value < 32 {
        return 0;
    }
    // value >= 32 → bits >= 6; bucket i holds values with bits == i + 5.
    let bits = 64 - value.leading_zeros() as usize;
    (bits - 5).min(BUCKET_COUNT - 1)
}

/// Monotonically increasing event count.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous level (can go up and down).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Set to `value` if it exceeds the current reading (high-water mark).
    pub fn max_of(&self, value: i64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Fixed-bucket exponential histogram of `u64` observations (conventionally
/// nanoseconds for span latencies).
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn record(&self, value: u64) {
        // itrust-lint: allow(panic-reachable) — bucket_index clamps to BUCKET_COUNT - 1, the last slot of `buckets`
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn min(&self) -> u64 {
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX && self.count() == 0 {
            0
        } else {
            v
        }
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]` by cumulative bucket walk with
    /// linear interpolation inside the winning bucket, clamped to the
    /// observed min/max so single-observation histograms report exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if seen + in_bucket >= rank {
                let lo = bucket_lo(i);
                let hi = bucket_hi(i).min(self.max().max(lo));
                let frac = (rank - seen) as f64 / in_bucket as f64;
                let est = lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
                return (est as u64).clamp(self.min(), self.max());
            }
            seen += in_bucket;
        }
        self.max()
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Cloneable handle to one counter in one context's registry. The null
/// handle (from a null [`crate::ObsCtx`], or `Default`) drops every update.
#[derive(Clone, Default)]
pub struct CounterHandle(pub(crate) Option<Arc<Counter>>);

impl CounterHandle {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.0 {
            c.add(delta);
        }
    }

    /// Current value; `0` for the null handle.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }
}

/// Cloneable handle to one gauge in one context's registry.
#[derive(Clone, Default)]
pub struct GaugeHandle(pub(crate) Option<Arc<Gauge>>);

impl GaugeHandle {
    pub fn set(&self, value: i64) {
        if let Some(g) = &self.0 {
            g.set(value);
        }
    }

    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            g.add(delta);
        }
    }

    /// Set to `value` if it exceeds the current reading (high-water mark).
    pub fn max_of(&self, value: i64) {
        if let Some(g) = &self.0 {
            g.max_of(value);
        }
    }

    /// Current value; `0` for the null handle.
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.get())
    }
}

/// Cloneable handle to one histogram in one context's registry.
#[derive(Clone, Default)]
pub struct HistogramHandle(pub(crate) Option<Arc<Histogram>>);

impl HistogramHandle {
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }

    pub fn record_duration(&self, d: Duration) {
        if let Some(h) = &self.0 {
            h.record_duration(d);
        }
    }

    /// Observation count; `0` for the null handle.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count())
    }

    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum())
    }

    pub fn min(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.min())
    }

    pub fn max(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.max())
    }

    pub fn mean(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |h| h.mean())
    }

    pub fn quantile(&self, q: f64) -> u64 {
        self.0.as_ref().map_or(0, |h| h.quantile(q))
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// One context's metric table. Names are partitioned by kind; a name used
/// as two different kinds is an instrumentation bug and panics.
#[derive(Default)]
pub(crate) struct Registry {
    inner: Mutex<RegistryInner>,
}

#[derive(Default)]
pub(crate) struct RegistryInner {
    pub(crate) counters: BTreeMap<&'static str, Arc<Counter>>,
    pub(crate) gauges: BTreeMap<&'static str, Arc<Gauge>>,
    pub(crate) histograms: BTreeMap<&'static str, Arc<Histogram>>,
}

impl RegistryInner {
    fn kind_of(&self, name: &str) -> Option<&'static str> {
        if self.counters.contains_key(name) {
            Some("counter")
        } else if self.gauges.contains_key(name) {
            Some("gauge")
        } else if self.histograms.contains_key(name) {
            Some("histogram")
        } else {
            None
        }
    }
}

impl Registry {
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Look up or create the counter `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind — a
    /// name collision is a bug at the instrumentation site, not a runtime
    /// condition to tolerate silently.
    pub(crate) fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut map = self.lock();
        if let Some(c) = map.counters.get(name) {
            return c.clone();
        }
        if let Some(kind) = map.kind_of(name) {
            drop(map); // release (don't poison) the registry before panicking
            // itrust-lint: allow(panic-reachable) — kind collision is an instrumentation-site bug, documented as panicking
            panic!("metric {name:?} is a {kind}, not a counter");
        }
        map.counters.entry(name).or_default().clone()
    }

    /// Look up or create the gauge `name`. Panics on kind collision.
    pub(crate) fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut map = self.lock();
        if let Some(g) = map.gauges.get(name) {
            return g.clone();
        }
        if let Some(kind) = map.kind_of(name) {
            drop(map);
            // itrust-lint: allow(panic-reachable) — kind collision is an instrumentation-site bug, documented as panicking
            panic!("metric {name:?} is a {kind}, not a gauge");
        }
        map.gauges.entry(name).or_default().clone()
    }

    /// Look up or create the histogram `name`. Panics on kind collision.
    pub(crate) fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut map = self.lock();
        if let Some(h) = map.histograms.get(name) {
            return h.clone();
        }
        if let Some(kind) = map.kind_of(name) {
            drop(map);
            // itrust-lint: allow(panic-reachable) — kind collision is an instrumentation-site bug, documented as panicking
            panic!("metric {name:?} is a {kind}, not a histogram");
        }
        map.histograms.entry(name).or_default().clone()
    }

    /// Names of all registered metrics, sorted.
    pub(crate) fn metric_names(&self) -> Vec<&'static str> {
        let map = self.lock();
        let mut names: Vec<&'static str> = map
            .counters
            .keys()
            .chain(map.gauges.keys())
            .chain(map.histograms.keys())
            .copied()
            .collect();
        names.sort_unstable();
        names
    }

    /// Zero every registered metric (registrations are kept).
    pub(crate) fn reset(&self) {
        let map = self.lock();
        for c in map.counters.values() {
            c.reset();
        }
        for g in map.gauges.values() {
            g.reset();
        }
        for h in map.histograms.values() {
            h.reset();
        }
    }

    /// Run `f` over the registry contents under the lock.
    pub(crate) fn with_inner<T>(&self, f: impl FnOnce(&RegistryInner) -> T) -> T {
        f(&self.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_contiguous_and_monotone() {
        assert_eq!(bucket_lo(0), 0);
        for i in 0..BUCKET_COUNT - 1 {
            assert_eq!(bucket_hi(i), bucket_lo(i + 1), "bucket {i} not contiguous");
            assert!(bucket_lo(i) < bucket_hi(i));
        }
        assert_eq!(bucket_hi(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn bucket_index_matches_bounds() {
        for value in [0u64, 1, 31, 32, 33, 63, 64, 1023, 1024, 1 << 20, u64::MAX] {
            let i = bucket_index(value);
            assert!(
                bucket_lo(i) <= value && (i == BUCKET_COUNT - 1 || value < bucket_hi(i)),
                "value {value} landed in bucket {i} [{}, {})",
                bucket_lo(i),
                bucket_hi(i)
            );
        }
    }

    #[test]
    fn kind_collision_panics() {
        let reg = Registry::default();
        reg.counter("test.registry.collision");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.gauge("test.registry.collision")
        }));
        assert!(err.is_err());
    }

    #[test]
    fn same_name_same_storage_different_registries_disjoint() {
        let a = Registry::default();
        let b = Registry::default();
        a.counter("test.registry.shared").add(3);
        a.counter("test.registry.shared").add(4);
        assert_eq!(a.counter("test.registry.shared").get(), 7);
        assert_eq!(b.counter("test.registry.shared").get(), 0);
    }
}
