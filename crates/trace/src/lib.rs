//! epic-trace: the observability layer for the IMPACT EPIC
//! reproduction.
//!
//! Two halves, both std-only:
//!
//! - **Spans** ([`Trace`], [`SpanGuard`], [`TraceSnapshot`]) —
//!   hierarchical wall-clock intervals with thread-local parenting,
//!   stitched into per-measurement trees (`compile → pass:<name>`,
//!   `sim → dispatch/attrib`, `serve → queue-wait/run/store`).
//! - **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`])
//!   — a lock-striped registry of named counters, gauges, and log2
//!   histograms, with a process-wide instance at [`global`] for
//!   long-lived services.
//!
//! Everything is built to stay on by default: a [`Trace::disabled`]
//! handle turns every span operation into an `Option` check (guards
//! still time, because callers such as the pass pipeline consume the
//! duration either way), and detached metric handles are single-branch
//! no-ops.

#![forbid(unsafe_code)]

mod metrics;
mod render;
mod span;

pub use metrics::{
    bucket_of, bucket_upper, global, Counter, Gauge, Histogram, HistogramSnapshot, LocalHisto,
    MetricEntry, MetricValue, MetricsSnapshot, Registry, HISTO_BUCKETS,
};
pub use render::{render_span_tree, render_top};
pub use span::{SpanGuard, SpanNode, Trace, TraceSnapshot};
