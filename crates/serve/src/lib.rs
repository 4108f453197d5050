//! Scheduling as a service.
//!
//! `gis-serve` turns the scheduling pipeline into a long-running daemon:
//! a listener on a unix socket or TCP port speaks a JSON-lines protocol
//! ([`protocol`]), fans work out across a fixed pool of scheduler
//! threads ([`server`]), and memoizes results in a bounded
//! content-addressed cache ([`cache`]) keyed by the FNV-64 of the
//! function's canonical IR bytes plus machine and configuration
//! fingerprints. A build system recompiling a mostly-unchanged program
//! pays the full pipeline only for functions whose IR actually changed;
//! everything else is a hash lookup.
//!
//! The [`client`] module is the matching in-process client, used by
//! `gisc serve-request`, the load generator and the benchmark harness.
//!
//! Protocol and cache-key stability contracts live in `docs/SERVICE.md`.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{cache_key, CachedSchedule, ScheduleCache};
pub use client::Client;
pub use protocol::{
    parse_request, parse_response, resolve_machine, BatchSummary, ConfigSpec, FuncOutcome,
    FuncSpec, Lang, Request, Response, ScheduleRequest,
};
pub use server::{install_signal_handlers, signal_pending, start, Listen, ServeConfig, Server};

use gis_core::SchedStats;

/// The scheduler's performance counters as metric name/value pairs —
/// the same names `gisc --metrics` prints for one-shot compiles, so
/// daemon metrics and CLI metrics line up.
pub fn perf_counters(stats: &SchedStats) -> [(&'static str, u64); 7] {
    [
        ("perf.dep-edges", stats.dep_edges as u64),
        ("perf.dep-edges-reduced", stats.dep_edges_reduced as u64),
        ("perf.liveness-full", stats.liveness_full as u64),
        ("perf.liveness-region", stats.liveness_region as u64),
        (
            "perf.liveness-incremental",
            stats.liveness_incremental as u64,
        ),
        ("perf.scratch-allocs", stats.scratch_allocs as u64),
        ("perf.scratch-reuses", stats.scratch_reuses as u64),
    ]
}
