//! # muxlink-serve
//!
//! The attack **service**: a long-running daemon that turns the
//! 13-second MuxLink attack into a milliseconds-latency cache hit for
//! any design it has trained before.
//!
//! Every BENCH record since PR 2 says training is the whole attack
//! (fig7: ~13 s train, ≤10 ms for extraction, scoring and key
//! recovery), and [`muxlink_core::Trained`] is a reloadable checkpoint
//! that re-scores and threshold-sweeps in milliseconds. The daemon
//! draws the obvious conclusion: **train once per design, serve every
//! subsequent query hot.**
//!
//! Architecture (one module per concern):
//!
//! * [`proto`] — the versioned newline-delimited-JSON wire protocol
//!   (requests, responses, streamed progress events);
//! * [`cache`] — the checkpoint cache: an in-memory LRU of
//!   [`muxlink_core::Trained`] artifacts over an optional on-disk
//!   store, keyed by [`muxlink_core::DesignFingerprint`] hex;
//! * [`engine`] — the job queue, worker pool, single-flight
//!   coalescing and cooperative cancellation (no sockets — directly
//!   testable in-process);
//! * [`server`] — the unix-socket (and optional TCP) accept loop,
//!   per-connection request handling and graceful drain-on-shutdown;
//! * [`client`] — a small blocking client used by `muxlink client`
//!   and the integration tests.
//!
//! Transport is `std::os::unix::net` / `std::net` only — the daemon
//! adds no dependencies beyond the workspace's vendored serde.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod engine;
pub mod proto;
pub mod server;

pub use cache::{CacheStats, CheckpointCache};
pub use client::{ClientError, Connection};
pub use engine::{Engine, EngineOptions, SubmitOutcome};
pub use proto::{
    parse_request, parse_response, render_request, render_response, EventMsg, JobKind, Request,
    Response, ResultResponse, StatsResponse, SubmitRequest, SweepRow, PROTOCOL_VERSION,
};
pub use server::{serve, ServeOptions, ServeSummary, MAX_REQUEST_LINE_BYTES};
