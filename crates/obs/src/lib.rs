//! # itrust-obs — per-run telemetry contexts
//!
//! The paper's position (and ARCHANGEL's before it) is that archival trust
//! requires *demonstrable*, machine-checkable evidence of what the system
//! did. This crate is the workspace's evidence plane for performance and
//! behavior — and evidence must be **attributable**: every run records into
//! its own [`ObsCtx`], never into process-global state, so two concurrent
//! experiments produce disjoint, per-run snapshots and traces.
//!
//! Three layers, all hanging off an [`ObsCtx`] handle:
//!
//! - **Metrics registry** ([`ObsCtx::counter`], [`ObsCtx::gauge`],
//!   [`ObsCtx::histogram`]): atomic counters, gauges, and fixed-bucket
//!   exponential histograms with p50/p90/p99 extraction, keyed by
//!   `&'static str` names. Handles are `Arc`-backed and cloneable;
//!   registration takes a short per-context mutex, every update after that
//!   is pure atomics — hoist handles out of hot loops.
//! - **Spans** ([`ObsCtx::span`], [`span!`]): RAII guards that time a scope
//!   into the context's histogram of the same name and maintain a
//!   per-(thread, context) span stack (`a/b/c` paths). When the context was
//!   built with [`ObsCtx::with_sink`] each completed span also emits a
//!   structured [`SpanEvent`] — e.g. into a [`JsonlTraceSink`] writing
//!   `results/<name>.trace.jsonl`.
//! - **Snapshot** ([`ObsCtx::snapshot`], [`Snapshot`]): serializes the
//!   context's registry to deterministic JSON (sorted names, stable field
//!   order) and renders a human-readable table. Benches write these next to
//!   their `.txt` reports as `results/<name>.telemetry.json`, with a `meta`
//!   block (thread count, seed, workspace version) filled in by the writer
//!   so cross-run diffs are attributable.
//! - **Flight recorder** ([`FlightRecorder`], attached via
//!   [`ObsCtx::with_parts`]): a fixed-capacity ring buffer of the most
//!   recent context-level events. The bench bins dump it from a panic hook
//!   as `results/<name>.blackbox.json`, so a crashed experiment leaves a
//!   post-mortem of its last moments.
//!
//! The **null context** ([`ObsCtx::null`], also `Default`) records nothing
//! and allocates nothing: every operation through it is one `Option` check,
//! so library types default to it and pay effectively zero overhead until a
//! caller attaches a real context (`with_obs(...)` builders by convention).
//!
//! ## Naming convention
//!
//! Metric names are dot-separated `crate.component.operation` paths, e.g.
//! `trustdb.wal.append`. Span names double as histogram names recording
//! nanoseconds. Counters of discrete events end in a plural noun
//! (`trustdb.store.puts`); gauges describe a level (`escs.sim.queue_depth`).

#![deny(unsafe_code)]

mod ctx;
mod flight;
mod registry;
mod snapshot;
mod span;
mod trace;

pub use ctx::ObsCtx;
pub use flight::{FlightDump, FlightEvent, FlightKind, FlightRecorder};
pub use registry::{
    Counter, CounterHandle, Gauge, GaugeHandle, Histogram, HistogramHandle, BUCKET_COUNT,
};
pub use snapshot::{HistogramSnapshot, Snapshot, SnapshotBucket};
pub use span::{CollectingSink, SpanEvent, SpanGuard, SpanSink};
pub use trace::JsonlTraceSink;

/// Increment a counter on a context: `counter_inc!(obs, "trustdb.store.puts")`.
#[macro_export]
macro_rules! counter_inc {
    ($ctx:expr, $name:literal) => {
        ($ctx).counter_add($name, 1)
    };
}

/// Add to a counter on a context:
/// `counter_add!(obs, "trustdb.wal.bytes_appended", n)`.
#[macro_export]
macro_rules! counter_add {
    ($ctx:expr, $name:literal, $delta:expr) => {
        ($ctx).counter_add($name, $delta)
    };
}

/// Set a gauge on a context: `gauge_set!(obs, "escs.sim.queue_depth", d)`.
#[macro_export]
macro_rules! gauge_set {
    ($ctx:expr, $name:literal, $value:expr) => {
        ($ctx).gauge_set($name, $value)
    };
}

/// Record a value into a histogram on a context:
/// `hist_record!(obs, "trustdb.store.object_bytes", len)`.
#[macro_export]
macro_rules! hist_record {
    ($ctx:expr, $name:literal, $value:expr) => {
        ($ctx).hist_record($name, $value)
    };
}

/// Open a span guard on a context, bound to a local:
/// `let _span = span!(obs, "trustdb.wal.append");`
#[macro_export]
macro_rules! span {
    ($ctx:expr, $name:literal) => {
        ($ctx).span($name)
    };
}
