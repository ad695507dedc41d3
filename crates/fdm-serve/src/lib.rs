//! # fdm-serve
//!
//! A daemon-style front end for the streaming fair-diversity summaries of
//! `fdm-core`: instead of running one batch pass, the process hosts many
//! **named streams** (multi-tenant), each a
//! [`Box<dyn DynSummary>`](fdm_core::streaming::summary::DynSummary) built
//! through the summary registry — any member of the family (unconstrained
//! Algorithm 1, SFDM1, SFDM2, the sliding-window wrapper, each optionally
//! sharded K ways) behind one line protocol:
//!
//! ```text
//! OPEN jobs sfdm2 quotas=2,2 eps=0.1 dmin=0.05 dmax=20
//! OPEN recent sliding quotas=2,2 eps=0.1 dmin=0.05 dmax=20 window=1000
//! INSERT 0 1 0.25 3.5
//! QUERY
//! SNAPSHOT /var/lib/fdm/jobs.snap
//! RESTORE /var/lib/fdm/jobs.snap
//! STATS
//! ```
//!
//! Each stream sits behind its own readers–writer lock with the WAL
//! appender split off onto a separate mutex, so sessions on different
//! streams never serialize on each other, concurrent `QUERY`s of one
//! stream overlap, and snapshot encode/disk-write runs **off** the summary
//! lock (see [`engine`] for the locking protocol; pinned by
//! `tests/concurrent.rs`).
//!
//! Sessions speak the protocol over stdin/stdout, a Unix domain socket
//! (`--socket`), or TCP (`--listen addr:port`, for remote tenants — with
//! per-connection read timeouts and a max-frame guard); each session is
//! bound to at most one named stream at a time, while the process serves
//! all of them. See `docs/serve.md` for the full grammar.
//!
//! **Durability** comes from `fdm-core`'s versioned snapshots (always
//! written as the v2 binary codec; v1 JSON files still restore) plus a
//! per-stream write-ahead log: with `--data-dir` every accepted `INSERT`
//! is appended to `<name>.wal` before it is applied, and every
//! `--snapshot-every N` inserts the stream's summary is checkpointed — as
//! an incremental `<name>.delta.<i>` while the chain is short, collapsing
//! into a fresh full `<name>.snap` every `--full-every` deltas — and the
//! log truncated.
//! On startup the engine restores every snapshot it finds, chains the
//! deltas, and replays the tail of the log — the summary is the whole
//! recoverable state, so recovery is restore-then-replay and the recovered
//! process answers queries bit-identically to one that never crashed
//! (pinned by `tests/protocol.rs`, `tests/crash_matrix.rs`, and the CI
//! `serve` job).

// The one sanctioned exception is src/signal.rs (raw `signal(2)` FFI for
// graceful drain), which opts back in with a scoped allow; CI greps that
// `unsafe` stays confined there.
#![deny(unsafe_code)]

pub mod coordinator;
pub mod engine;
pub mod metrics;
pub mod net;
pub mod session;
pub mod signal;

/// The wire grammar — typed [`protocol::Request`]/[`protocol::Response`]
/// with one shared `parse`/`render` pair — lives in `fdm-client` so the
/// server, the coordinator, the client library, and the tests all speak
/// through one implementation. Re-exported here so in-tree consumers keep
/// their `fdm_serve::protocol::...` paths.
pub use fdm_client::protocol;

pub use engine::{Engine, ServeConfig};
pub use metrics::{serve_metrics, Metrics};
pub use net::{serve_tcp, serve_unix, NetOptions};
pub use session::{Session, MAX_LINE_BYTES};
