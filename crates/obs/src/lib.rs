//! # vdb-obs
//!
//! The workspace's observability substrate: cheap counters, power-of-two
//! latency histograms, RAII span timers, and a [`Registry`] that every
//! layer (core pipeline, store, server) registers into so one snapshot
//! describes the whole stack.
//!
//! Design constraints, in order:
//!
//! 1. **The record path is lock-free.** [`Counter::add`] and
//!    [`Histogram::record_us`] are a relaxed atomic load (the enabled
//!    switch) plus relaxed `fetch_add`s. The registry's mutex is taken
//!    only at registration time (once per metric name per component) and
//!    at snapshot time — never while recording.
//! 2. **Disabled means inert.** Every handle shares its registry's
//!    enabled switch; with the switch off, counters skip their
//!    `fetch_add` and [`Histogram::start`] never calls `Instant::now`,
//!    so instrumented code runs at uninstrumented speed (checked by the
//!    workspace's overhead test).
//! 3. **No dependencies.** `std` only, so the crate sits below everything
//!    else in the workspace, shims included.
//!
//! Handles are clones of registry-owned state: registering the same name
//! twice (from two engines, two workers, two journals) yields handles to
//! the *same* underlying metric, so per-component instances aggregate
//! naturally.
//!
//! ```
//! use vdb_obs::Registry;
//!
//! let registry = Registry::new();
//! let frames = registry.counter("core.pipeline.frames");
//! let latency = registry.histogram("core.pipeline.extract_us");
//! frames.add(3);
//! {
//!     let _span = latency.start(); // records elapsed µs on drop
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("core.pipeline.frames"), Some(3));
//! assert!(snap.to_json().contains("\"core.pipeline.frames\":3"));
//! ```
//!
//! [`global()`] is the process-wide registry the default constructors of
//! core and store record into; servers keep private registries where
//! per-instance exactness matters (see `vdb-server::ServerMetrics`).
//!
//! Aggregate metrics answer "how is the stack doing"; the [`trace`]
//! module answers "what did *this* request do" — request-scoped span
//! trees under a per-thread current [`TraceContext`] and a lock-free
//! [`FlightRecorder`] retaining the last N spans process-wide.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod snapshot;
pub mod trace;

pub use snapshot::{quantile, HistogramSnapshot, MetricValue, Snapshot, SnapshotEntry};
pub use trace::{
    global_tracer, FlightRecorder, SpanEvent, SpanGuard, SpanRecord, TraceContext, Tracer,
};

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Number of latency buckets: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1µs`). 32 buckets cover
/// up to ~35 minutes, far beyond any sane span.
pub const BUCKETS: usize = 32;

/// A monotonically increasing `u64`, recorded with relaxed atomics.
///
/// Cloning yields another handle to the same underlying value.
#[derive(Clone)]
pub struct Counter {
    switch: Arc<AtomicBool>,
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n` (a no-op while the owning registry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.switch.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

struct HistogramInner {
    count: AtomicU64,
    sum_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A power-of-two latency histogram (µs resolution) with total count and
/// sum, recorded with relaxed atomics.
///
/// Cloning yields another handle to the same underlying buckets.
#[derive(Clone)]
pub struct Histogram {
    switch: Arc<AtomicBool>,
    inner: Arc<HistogramInner>,
}

fn bucket_of(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// Record one sample of `us` microseconds (a no-op while disabled).
    #[inline]
    pub fn record_us(&self, us: u64) {
        if self.switch.load(Ordering::Relaxed) {
            self.inner.count.fetch_add(1, Ordering::Relaxed);
            self.inner.sum_us.fetch_add(us, Ordering::Relaxed);
            self.inner.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one sample from a [`Duration`].
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Start a span: the returned guard records the elapsed time into this
    /// histogram when dropped. While the registry is disabled the guard is
    /// inert and `Instant::now` is never called — a span on a cold path
    /// costs one relaxed load.
    #[inline]
    pub fn start(&self) -> Span<'_> {
        Span {
            histogram: self,
            started: if self.switch.load(Ordering::Relaxed) {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// A point-in-time copy of the buckets, count, and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.inner.count.load(Ordering::Relaxed),
            sum_us: self.inner.sum_us.load(Ordering::Relaxed),
            buckets: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.inner.count.load(Ordering::Relaxed))
            .field("sum_us", &self.inner.sum_us.load(Ordering::Relaxed))
            .finish()
    }
}

/// RAII timer from [`Histogram::start`]: records on drop.
#[must_use = "a span records when dropped; binding it to _ drops it immediately"]
pub struct Span<'a> {
    histogram: &'a Histogram,
    started: Option<Instant>,
}

impl Span<'_> {
    /// Stop the span now and record it (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            self.histogram.record(started.elapsed());
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    metric: Metric,
}

/// A named collection of metrics sharing one enabled switch.
///
/// Components call [`Registry::counter`] / [`Registry::histogram`] at
/// construction time to obtain handles (get-or-register by name, so
/// repeated registrations aggregate); hot paths record through the
/// handles without ever touching the registry again.
pub struct Registry {
    switch: Arc<AtomicBool>,
    entries: Mutex<Vec<Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty, enabled registry.
    pub fn new() -> Self {
        Registry {
            switch: Arc::new(AtomicBool::new(true)),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// An empty registry with recording switched off (handles still
    /// register; every record call is a no-op until enabled).
    pub fn disabled() -> Self {
        let r = Self::new();
        r.set_enabled(false);
        r
    }

    /// Turn recording on or off for every handle of this registry.
    pub fn set_enabled(&self, on: bool) {
        self.switch.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.switch.load(Ordering::Relaxed)
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a histogram.
    pub fn counter(&self, name: &str) -> Counter {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            match &entry.metric {
                Metric::Counter(c) => return c.clone(),
                Metric::Histogram(_) => panic!("metric '{name}' is a histogram, not a counter"),
            }
        }
        let counter = Counter {
            switch: Arc::clone(&self.switch),
            value: Arc::new(AtomicU64::new(0)),
        };
        entries.push(Entry {
            name: name.to_string(),
            metric: Metric::Counter(counter.clone()),
        });
        counter
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a counter.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            match &entry.metric {
                Metric::Histogram(h) => return h.clone(),
                Metric::Counter(_) => panic!("metric '{name}' is a counter, not a histogram"),
            }
        }
        let histogram = Histogram {
            switch: Arc::clone(&self.switch),
            inner: Arc::new(HistogramInner {
                count: AtomicU64::new(0),
                sum_us: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
        };
        entries.push(Entry {
            name: name.to_string(),
            metric: Metric::Histogram(histogram.clone()),
        });
        histogram
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<SnapshotEntry> = entries
            .iter()
            .map(|e| SnapshotEntry {
                name: e.name.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { entries: out }
    }

    /// The snapshot rendered as one JSON object keyed by metric name
    /// (see [`Snapshot::to_json`] for the exact shape).
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("metrics", &entries.len())
            .finish()
    }
}

/// The process-wide registry. Core's [`AnalysisEngine`] and the store's
/// journal register here by default, so a daemon (or a benchmark run) sees the
/// whole stack in one snapshot. Enabled from the start; tests that need
/// count-exact isolation use a private [`Registry`] instead.
///
/// [`AnalysisEngine`]: https://docs.rs/vdb-core
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_accumulate() {
        let r = Registry::new();
        let c = r.counter("a.count");
        c.add(2);
        c.incr();
        assert_eq!(c.get(), 3);

        let h = r.histogram("a.lat_us");
        h.record_us(3);
        h.record_us(40);
        h.record_us(2000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum_us, 2043);
        assert_eq!(snap.p50_us(), 64);
        assert_eq!(snap.p99_us(), 2048);
        assert_eq!(snap.mean_us(), 681);
    }

    #[test]
    fn same_name_shares_the_metric() {
        let r = Registry::new();
        let a = r.counter("shared");
        let b = r.counter("shared");
        a.add(1);
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("shared"), Some(3));
        // Two "components" registering the same histogram aggregate too.
        let h1 = r.histogram("shared.h");
        let h2 = r.histogram("shared.h");
        h1.record_us(1);
        h2.record_us(1);
        assert_eq!(r.snapshot().histogram("shared.h").unwrap().count, 2);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a histogram")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.histogram("x");
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("c");
        let h = r.histogram("h");
        c.add(10);
        h.record_us(10);
        {
            let span = h.start();
            assert!(
                span.started.is_none(),
                "disabled span must not read the clock"
            );
        }
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        // Flipping the switch re-arms every existing handle.
        r.set_enabled(true);
        c.incr();
        h.start().finish();
        assert_eq!(c.get(), 1);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn span_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("span_us");
        {
            let _span = h.start();
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.sum_us >= 2000, "slept 2ms, recorded {}us", snap.sum_us);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("z.last").incr();
        r.histogram("a.first").record_us(5);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(snap.counter("z.last"), Some(1));
        assert_eq!(snap.counter("a.first"), None, "kind-checked lookup");
        assert!(snap.histogram("a.first").is_some());
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn bucket_of_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let r = Arc::new(Registry::new());
        let c = r.counter("racing");
        let h = r.histogram("racing_us");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.incr();
                        h.record_us(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 8000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 8000);
    }
}
