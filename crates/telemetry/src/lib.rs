//! Campaign telemetry for the evaluator stack.
//!
//! PROLEAD reports intermediate `-log10(p)` checkpoints so the analyst
//! can watch leakage emerge long before the full simulation budget is
//! spent — on the paper's own experiments the Eq. 6 flaw is visible
//! climbing past the decision threshold within the first few percent of
//! the campaign. This crate gives the whole workspace that capability:
//!
//! * a typed [`Event`] stream — campaign lifecycle, per-probe-set
//!   `-log10(p)` trajectory checkpoints, simulator counters, exhaustive
//!   enumeration progress, and machine-readable run summaries;
//! * an [`Observer`] handle threaded through the hot paths, cheap enough
//!   to leave in place: the disabled (null) observer is a single `Option`
//!   check and instrumented code is expected to gate any expensive
//!   snapshot computation on [`Observer::enabled`];
//! * one [`RunRecord`] per checkpoint and at exit — identity, traces
//!   against the budget, wall time from the campaign's single
//!   [`Stopwatch`], the verdict so far, cell evaluations, table bytes
//!   and the perf snapshot. Every surface (the summary line,
//!   `status.json`, `/metrics`, the progress line, the HTML report)
//!   renders that record; throughput and ETA are its methods
//!   ([`RunRecord::traces_per_sec`], [`RunRecord::eta_seconds`]) and
//!   are derived nowhere else;
//! * three bundled [`Sink`]s — [`HumanProgressSink`] (stderr: traces/s,
//!   ETA, running max `-log10(p)`), [`JsonlSink`] (a replayable run
//!   record, one JSON object per line), and [`MemorySink`] (tests);
//! * a performance-observability layer ([`perf`]): scoped [`Span`]
//!   timers, named counters, and fixed-bucket duration histograms in a
//!   [`PerfRecorder`] carried by the [`Observer`] — near-zero overhead
//!   when disabled, `perf_snapshot` events when enabled;
//!   [`chrome_trace`] renders a frozen snapshot into a deterministic
//!   `chrome://tracing` JSON timeline;
//! * a live-status layer ([`metrics`], [`status`]): a lock-cheap
//!   metrics registry with deterministic Prometheus text exposition
//!   and an optional `--metrics-addr` server on `std::net` serving
//!   `/metrics` and `/status`, plus a crash-safe `--status-file` sink
//!   atomically rewritten at every checkpoint;
//! * a fault-containment layer ([`failpoint`], [`degraded`]): a
//!   deterministic fault-injection registry (`MMAES_FAILPOINTS` /
//!   `--failpoints`) consulted by resilient sinks and campaign
//!   workers, and a degraded-subsystem registry feeding the
//!   `degraded` block in status documents, health events, and run
//!   summaries.
//!
//! The crate is dependency-light by design: events serialize through a
//! hand-rolled JSON writer ([`json`]), so every downstream crate can
//! afford the dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome_trace;
pub mod degraded;
mod event;
pub mod failpoint;
pub mod json;
pub mod metrics;
mod observer;
pub mod perf;
mod record;
mod sink;
pub mod status;
mod stopwatch;

pub use chrome_trace::chrome_trace;
pub use degraded::DegradedEntry;
pub use event::{
    Checkpoint, Event, HealthCheckpoint, ProbeHealth, ProbePoint, RunSummary, EVENT_SCHEMA_VERSION,
};
pub use failpoint::Fault;
pub use metrics::{MetricsRegistry, MetricsServer, MetricsSink};
pub use observer::Observer;
pub use perf::{PerfRecorder, PerfSnapshot, PhaseStats, Span};
pub use record::RunRecord;
pub use sink::{HumanProgressSink, JsonlSink, MemorySink, Sink};
pub use status::{StatusFileSink, StatusModel, STATUS_SCHEMA_VERSION};
pub use stopwatch::Stopwatch;
