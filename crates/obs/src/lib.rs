//! Std-only observability layer for the idc-mpc workspace.
//!
//! Three pieces, all disabled by default and all safe to leave compiled in:
//!
//! * **Spans + flight recorder** ([`Span`], [`FlightRecorder`]): RAII spans
//!   with a thread-local nesting stack and a monotonic clock, recorded into
//!   a fixed-capacity ring buffer. When no recorder is installed the span
//!   constructor returns an inert guard without reading the clock, so
//!   instrumented code pays one relaxed atomic load per span and nothing
//!   else — fault-free runs stay byte-identical because nothing here feeds
//!   back into control decisions.
//! * **Solver introspection counters** ([`SolveStats`]): cumulative
//!   counters threaded through the active-set QP loop (iterations,
//!   working-set churn, warm-seed survival, Dantzig→Bland switches,
//!   refinement passes, cold fallbacks). Pure bookkeeping on `u64`s; no
//!   floating-point state is touched.
//! * **Exporters**: Chrome trace-event JSON ([`chrome_trace`],
//!   [`export_global_trace`]) that loads in Perfetto / `chrome://tracing`,
//!   and a JSONL anomaly log ([`record_anomaly`]) for per-step dumps around
//!   solver failures, fallback degradations and iteration spikes.
//!
//! The crate is std-only by design: the build environment vendors no
//! tracing or metrics crates, and the rest of the workspace must not grow
//! external dependencies through it.

#![warn(missing_docs)]

pub mod anomaly;
pub mod recorder;
pub mod stats;
pub mod trace;

pub use anomaly::{anomaly_enabled, record_anomaly, set_anomaly_log, tenant_scope, TenantScope};
pub use recorder::{
    bind_thread_recorder, global_recorder, install_global_recorder, now_ns, recording, span_depth,
    tracing_enabled, FlightRecorder, Span, TraceEvent,
};
pub use stats::SolveStats;
pub use trace::{chrome_trace, export_global_trace};
