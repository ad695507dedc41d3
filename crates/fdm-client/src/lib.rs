//! Typed client for the `fdm-serve` line protocol.
//!
//! Two halves:
//!
//! * [`protocol`] — the shared grammar: [`protocol::Request`] /
//!   [`protocol::Response`] with one `parse`/`render` pair used by **both**
//!   sides of the wire. `fdm-serve` renders every reply through
//!   [`protocol::Response::render`]; this crate parses them back. A grammar
//!   bug therefore breaks a round-trip test, not a production coordinator.
//! * [`client`] — a small blocking client ([`client::Client`]) over TCP or
//!   Unix sockets: connect (with retry/backoff), AUTH, OPEN, INSERT,
//!   QUERY, MERGE, STATS. The `fdm-serve` coordinator mode is its first
//!   in-repo consumer; the protocol test suites are the second.
//!
//! The wire format itself (one command line in, one `OK ...`/`ERR ...`
//! line out, plus the `MERGE` binary tail) is documented in
//! `docs/serve.md` and `docs/distributed.md`.

#![deny(unsafe_code)]

pub mod client;
mod decimal;
pub mod protocol;

pub use client::{Client, ClientError};
pub use protocol::{ErrorKind, ErrorReply, Payload, QueryReply, Request, Response, StreamSpec};
