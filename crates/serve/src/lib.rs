//! `omega-serve` — a long-running analytics service over the OMEGA
//! simulation stack.
//!
//! The batch tools (`figures`, `stats`) pay the full graph-build and
//! trace cost on every invocation. This crate keeps a process alive
//! instead: clients submit `(dataset, algo, machine, scale)` requests
//! over a length-prefixed JSON wire protocol on TCP, and the server
//! answers with `omega-run-report/v1` payloads, sharing everything
//! shareable across requests:
//!
//! * **Immutable snapshots** — CSR graphs and functional traces are
//!   built once per key behind [`flight::Registry`] and shared by
//!   reference ([`std::sync::Arc`]) across all workers.
//! * **Single-flight replay** — N concurrent identical requests
//!   ([`session::ExperimentSpec::fingerprint`] equality) trigger
//!   exactly one simulation; followers coalesce onto the leader's
//!   [`flight::Flight`] and receive byte-identical responses.
//! * **Persistent store** — results land in the same content-addressed
//!   [`ExperimentStore`] the batch tools use, so a store warmed by
//!   `figures` serves the first request of a session without replay.
//! * **Bounded admission** — a fixed-depth queue feeds the worker
//!   pool; when it is full the server sheds with a structured `busy`
//!   response instead of buffering without bound or blocking accept;
//!   each connection keeps at most [`server::MAX_IN_FLIGHT`] requests
//!   in flight and stops reading past that.
//! * **Graceful shutdown** — a `shutdown` request drains queued and
//!   in-flight work before the process exits; every admitted request
//!   still gets its response.
//!
//! The wire protocol ([`proto`]) reuses [`omega_bench::json`] — the
//! workspace stays dependency-free.
//!
//! [`session::ExperimentSpec::fingerprint`]: omega_bench::session::ExperimentSpec::fingerprint
//! [`ExperimentStore`]: omega_bench::ExperimentStore

#![warn(missing_docs)]

pub mod client;
pub mod flight;
pub mod memo;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{Client, RetryPolicy};
pub use memo::{Memo, MemoCounters};
pub use proto::{Request, Response, RunRequest, PROTO_V2};
pub use server::{serve, ServeConfig, ServerHandle};
