//! # gk-metrics — the observability substrate
//!
//! A zero-dependency metrics registry plus a small structured-logging
//! facade, shared by every layer of the server (no registry crates are
//! available in this build environment, so both are written by hand —
//! same vendoring constraint as the rest of the workspace).
//!
//! ## Metrics
//!
//! A [`Registry`] owns named metrics of three kinds:
//!
//! * [`Counter`] — a monotone `u64`;
//! * [`Gauge`] — a settable `u64` (e.g. currently-active connections);
//! * [`Histogram`] — a fixed-bucket **log2** latency/size distribution:
//!   bucket `i` counts observations `v ≤ 2^i`, plus a total count and sum.
//!
//! Every cell is a plain [`AtomicU64`]; recording is lock-free and
//! wait-free. Handles are `Copy` — they are references to leaked cells,
//! so hot paths carry them by value and never touch the registry (the
//! cells of a process-lifetime registry are a few hundred bytes; leaking
//! them is what makes `Copy` handles possible without generation counts
//! or `Arc` traffic).
//!
//! A **disabled** registry ([`Registry::disabled`]) hands out no-op
//! handles whose record methods compile to a null test — the measured
//! instrumentation overhead baseline (see
//! `tests/server.rs::metrics_overhead_is_under_5pct_with_identical_answers`).
//!
//! [`Registry::render`] produces Prometheus-style text exposition;
//! [`parse_exposition`] parses it back losslessly (golden transcripts and
//! property tests rely on the round trip).
//!
//! ## Logging
//!
//! [`error!`]/[`warn!`]/[`info!`]/[`debug!`] emit one `key=value` line per
//! event to stderr (or a file via [`log_to_file`]), filtered by a runtime
//! [`Level`] — see the [`mod@log`] module.

#![warn(missing_docs)]

mod expo;
pub mod log;
pub mod trace;

pub use expo::{
    parse_exposition, render as render_exposition, MetricKind, MetricSnapshot, MetricValue,
};
pub use log::{log_enabled, log_line, log_to_file, log_to_stderr, max_level, set_level, Level};
pub use trace::{Span, TraceNode};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of histogram buckets. Bucket `i < HIST_BUCKETS - 1` counts
/// observations `v ≤ 2^i`; the last bucket is the overflow (rendered only
/// through the `+Inf` cumulative line). With 28 buckets the largest finite
/// bound is `2^26` ≈ 67 s in microseconds — comfortably past any request
/// this server should ever answer.
pub const HIST_BUCKETS: usize = 28;

/// The bucket an observation falls into: the smallest `i` with `v ≤ 2^i`,
/// clamped to the overflow bucket.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((u64::BITS - (v - 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// The backing cells of one histogram.
struct HistCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCells {
    fn new() -> Self {
        HistCells {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A monotone counter. `Copy` — pass it by value into hot paths. A no-op
/// handle (from a disabled registry or [`Counter::noop`]) records nothing.
#[derive(Clone, Copy)]
pub struct Counter(Option<&'static AtomicU64>);

impl Counter {
    /// A handle that records nothing (the compiled no-op path).
    pub const fn noop() -> Self {
        Counter(None)
    }

    /// Adds 1.
    #[inline]
    pub fn inc(self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(self, n: u64) {
        if let Some(cell) = self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (0 for a no-op handle).
    #[inline]
    pub fn get(self) -> u64 {
        self.0.map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A settable gauge (a current-level value, e.g. active connections).
#[derive(Clone, Copy)]
pub struct Gauge(Option<&'static AtomicU64>);

impl Gauge {
    /// A handle that records nothing.
    pub const fn noop() -> Self {
        Gauge(None)
    }

    /// Sets the value.
    #[inline]
    pub fn set(self, v: u64) {
        if let Some(cell) = self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(self) {
        if let Some(cell) = self.0 {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Subtracts 1 (saturating: a stray double-decrement must not wrap a
    /// connection gauge to 2^64).
    #[inline]
    pub fn dec(self) {
        if let Some(cell) = self.0 {
            let mut cur = cell.load(Ordering::Relaxed);
            while cur > 0 {
                match cell.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// The current value (0 for a no-op handle).
    #[inline]
    pub fn get(self) -> u64 {
        self.0.map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log2 histogram.
#[derive(Clone, Copy)]
pub struct Histogram(Option<&'static HistCells>);

impl Histogram {
    /// A handle that records nothing.
    pub const fn noop() -> Self {
        Histogram(None)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(self, v: u64) {
        if let Some(cells) = self.0 {
            cells.count.fetch_add(1, Ordering::Relaxed);
            cells.sum.fetch_add(v, Ordering::Relaxed);
            cells.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a duration in whole microseconds.
    #[inline]
    pub fn observe_micros(self, d: std::time::Duration) {
        self.observe(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total observations (0 for a no-op handle).
    #[inline]
    pub fn count(self) -> u64 {
        self.0.map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of all observations (0 for a no-op handle).
    #[inline]
    pub fn sum(self) -> u64 {
        self.0.map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }
}

/// The kind + cell of one registered metric.
enum Cell {
    Counter(&'static AtomicU64),
    Gauge(&'static AtomicU64),
    Histogram(&'static HistCells),
}

struct Entry {
    name: String,
    help: String,
    cell: Cell,
}

/// A named collection of metrics. Registration (startup-time) takes a
/// lock; recording through the returned handles never does. Registration
/// is idempotent: re-registering a name of the same kind returns the
/// existing handle, so layers can share metrics without threading handles
/// through constructors.
pub struct Registry {
    enabled: bool,
    entries: Mutex<Vec<Entry>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An active registry.
    pub fn new() -> Self {
        Registry {
            enabled: true,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// A disabled registry: every registration returns a no-op handle and
    /// [`Registry::render`]/[`Registry::snapshot`] are empty. This is the
    /// compiled no-op path the instrumentation-overhead bench compares
    /// against.
    pub fn disabled() -> Self {
        Registry {
            enabled: false,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or finds) a counter.
    ///
    /// # Panics
    /// On an invalid name (`[a-z_][a-z0-9_]*`), an empty or multi-line
    /// help string, or a name already registered as a different kind —
    /// all programmer errors caught at startup.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        if !self.enabled {
            return Counter::noop();
        }
        Counter(Some(self.cell(name, help, false)))
    }

    /// Registers (or finds) a gauge. Panics as [`Registry::counter`] does.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        if !self.enabled {
            return Gauge::noop();
        }
        Gauge(Some(self.cell(name, help, true)))
    }

    /// Registers (or finds) a histogram. Panics as [`Registry::counter`]
    /// does.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        if !self.enabled {
            return Histogram::noop();
        }
        validate(name, help);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match e.cell {
                Cell::Histogram(cells) => return Histogram(Some(cells)),
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let cells: &'static HistCells = Box::leak(Box::new(HistCells::new()));
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            cell: Cell::Histogram(cells),
        });
        Histogram(Some(cells))
    }

    fn cell(&self, name: &str, help: &str, gauge: bool) -> &'static AtomicU64 {
        validate(name, help);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            match (&e.cell, gauge) {
                (Cell::Counter(cell), false) | (Cell::Gauge(cell), true) => return cell,
                _ => panic!("metric {name:?} already registered with a different kind"),
            }
        }
        let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            cell: if gauge {
                Cell::Gauge(cell)
            } else {
                Cell::Counter(cell)
            },
        });
        cell
    }

    /// A point-in-time copy of every metric, in registration order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                help: e.help.clone(),
                value: match &e.cell {
                    Cell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(c) => MetricValue::Gauge(c.load(Ordering::Relaxed)),
                    Cell::Histogram(h) => MetricValue::Histogram {
                        count: h.count.load(Ordering::Relaxed),
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets: h
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                    },
                },
            })
            .collect()
    }

    /// Prometheus-style text exposition of the current snapshot; inverse
    /// of [`parse_exposition`].
    pub fn render(&self) -> String {
        expo::render(&self.snapshot())
    }
}

fn validate(name: &str, help: &str) {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
    assert!(
        head_ok
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
        "invalid metric name {name:?} (want [a-z_][a-z0-9_]*)"
    );
    assert!(
        !help.is_empty() && !help.contains('\n'),
        "metric {name:?} needs a non-empty single-line help string"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 26), HIST_BUCKETS - 2);
        assert_eq!(bucket_index((1 << 26) + 1), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counters_and_gauges_record() {
        let reg = Registry::new();
        let c = reg.counter("reqs_total", "Requests.");
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Idempotent registration returns the same cell.
        assert_eq!(reg.counter("reqs_total", "Requests.").get(), 3);

        let g = reg.gauge("active", "Active connections.");
        g.set(5);
        g.inc();
        g.dec();
        assert_eq!(g.get(), 5);
        // Saturating decrement cannot wrap.
        g.set(0);
        g.dec();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let reg = Registry::new();
        let h = reg.histogram("lat_micros", "Latency.");
        for v in [0, 1, 2, 3, 100, 1 << 30] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 106 + (1 << 30));
        let snap = reg.snapshot();
        let MetricValue::Histogram { count, buckets, .. } = &snap[0].value else {
            panic!("histogram expected");
        };
        assert_eq!(*count, 6);
        assert_eq!(buckets.iter().sum::<u64>(), 6);
        assert_eq!(buckets[0], 2, "0 and 1 share the first bucket");
        assert_eq!(buckets[HIST_BUCKETS - 1], 1, "overflow bucket");
    }

    #[test]
    fn disabled_registry_is_a_no_op() {
        let reg = Registry::disabled();
        let c = reg.counter("reqs_total", "Requests.");
        let h = reg.histogram("lat", "Latency.");
        c.inc();
        h.observe(7);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(reg.snapshot().is_empty());
        assert!(reg.render().is_empty());
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        let _ = reg.counter("x", "A counter.");
        let _ = reg.gauge("x", "Now a gauge.");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_panic() {
        let _ = Registry::new().counter("Bad-Name", "Nope.");
    }

    /// The satellite requirement: hammering one histogram from 8 threads
    /// must never lose a count (every cell update is a single atomic RMW).
    #[test]
    fn histogram_is_lossless_under_8_threads() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50_000;
        let reg = Registry::new();
        let h = reg.histogram("hammer", "Concurrency test.");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.observe(t * PER_THREAD + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), THREADS * PER_THREAD);
        let snap = reg.snapshot();
        let MetricValue::Histogram {
            count,
            sum,
            buckets,
        } = &snap[0].value
        else {
            panic!("histogram expected");
        };
        assert_eq!(*count, THREADS * PER_THREAD);
        assert_eq!(buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
        let n = THREADS * PER_THREAD;
        assert_eq!(*sum, n * (n - 1) / 2, "every observed value accounted");
    }
}
