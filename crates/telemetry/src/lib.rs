//! Zero-dependency observability primitives for the mintri workspace.
//!
//! Three pieces, composable and individually small:
//!
//! - [`metrics`] — lock-striped [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket log-scale [`Histogram`]s with p50/p95/p99 extraction.
//!   Recording is a handful of `Relaxed` atomic ops; aggregation cost is
//!   paid by the reader. The histogram is the workspace's one quantile
//!   sketch: its plain [`HistogramSnapshot`] form also holds the engine's
//!   per-atom latency profiles and is what the store persists, so every
//!   latency quantile the system reports carries the same one-octave
//!   accuracy and the same 2^26 µs ceiling.
//! - [`registry`] — a named [`Registry`] of metric families rendered in
//!   the Prometheus text exposition format (plus [`registry::promtext`],
//!   a parser for that format so tests can pin render → parse).
//! - [`trace`] — opt-in per-query span trees: a [`TraceBuilder`] handed
//!   down through the layers, [`SpanHandle`]s opened and finished per
//!   stage, frozen into an immutable [`TraceNode`] tree on completion.
//!
//! The workspace invariant this crate exists to uphold: **telemetry is
//! write-only from hot paths**. Enumeration loops touch only atomics;
//! the registry lock is taken at registration time (returning `Arc`
//! handles) and at render time, never while results are being produced;
//! tracing is per-query opt-in and its brief span-list lock is held only
//! around a `Vec` push.

pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{
    bucket_index, bucket_le, Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS,
};
pub use registry::{promtext, Labels, Registry};
pub use trace::{SpanHandle, TraceBuilder, TraceNode};
