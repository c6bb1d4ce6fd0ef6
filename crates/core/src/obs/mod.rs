//! # Observability: event tracing, metrics, and run reports
//!
//! Three layers, cheapest first:
//!
//! 1. **Structured events** ([`TraceEvent`]) — a typed, cycle-stamped
//!    stream of everything the issue logic decides: instruction issue and
//!    retire, every stall span with its [`crate::StallReason`], network
//!    operations with unit and latency, thread lifecycle transitions, and
//!    sequential-unit (multiplier/divider) busy spans. Events flow into a
//!    [`TraceSink`] — a bounded [`RingBufferSink`] for in-memory
//!    inspection or a [`JsonLinesSink`] for on-disk traces. With no sink
//!    attached, every emission site reduces to one `Option::is_some`
//!    check: the event is never even constructed.
//!
//! 2. **Metrics** ([`Registry`]) — named counters, gauges, and
//!    fixed-bucket [`Histogram`]s. [`crate::Stats`] is refactored on top:
//!    `Stats::to_registry()` exports every legacy counter plus derived
//!    gauges (IPC, per-thread issue-slot utilization) and histograms
//!    (stall spans per reason, broadcast/reduction queue depths). The
//!    registry is the machine-readable form; `Stats::report()` prints its
//!    text from the `Stats` fields, and a test holds every number it
//!    prints to the registry entry of the same name.
//!
//! 3. **Run reports** ([`RunReport`]) — one JSON document per run:
//!    machine geometry, the legacy totals verbatim, and the full registry
//!    (including analytic per-stage pipeline occupancy). Written by
//!    `mtasc run --report out.json`, re-read by `mtasc stats`.
//!
//! Attach a sink with [`crate::Machine::attach_sink`]:
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use asc_core::obs::{RingBufferSink, SinkHandle};
//! use asc_core::{Machine, MachineConfig};
//!
//! let mut m = Machine::new(MachineConfig::prototype());
//! let ring = Rc::new(RefCell::new(RingBufferSink::new(4096)));
//! m.attach_sink(SinkHandle::shared(ring.clone()));
//! // ... load and run ...
//! for ev in ring.borrow().events() {
//!     println!("{}", ev.to_json().to_compact());
//! }
//! ```

pub mod chrome;
pub mod diff;
pub mod event;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod report;
pub mod trace;

pub use chrome::{chrome_trace, chrome_trace_text};
pub use diff::{
    diff_registries, diff_to_json, render_diff, DiffEntry, Direction, RegressionCheck,
    STATS_DIFF_SCHEMA,
};
pub use event::{SeqUnit, ThreadTransition, TraceEvent};
pub use json::{Json, JsonError};
pub use metrics::{Histogram, MetricValue, Registry};
pub use profile::{BlockMap, HotSite, Profile, ProfileRow, StallSummary, PROFILE_SCHEMA};
pub use progress::{
    JsonLinesProgress, ProgressHandle, ProgressSample, ProgressSampler, ProgressSink,
    PROGRESS_SCHEMA,
};
pub use report::{MachineMeta, RunReport, REPORT_SCHEMA};
pub use trace::{
    parse_json_lines, JsonLinesSink, MemorySink, RingBufferSink, SinkHandle, TraceSink,
};
