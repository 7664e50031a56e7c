//! `infs-shard`: event-driven serving infrastructure — see `DESIGN.md` §14
//! ("Sharded, batched serving").
//!
//! The serve layer (PR 2) spoke newline-JSON over a thread-per-connection
//! loop on one machine: fine for smoke tests, a dead end for the ROADMAP's
//! "millions of users". This crate holds the three mechanisms that replace
//! it, kept generic (no dependency on `infs-serve` — the serve crate
//! depends on this one):
//!
//! * [`run_reactor`] — a single-threaded nonblocking TCP reactor
//!   multiplexing every connection: it blocks in `poll(2)` until a socket
//!   is ready or a worker pushes a completed response through the
//!   [`Outbox`] (whose self-pipe is in the poll set), frames lines — capped
//!   at [`MAX_LINE_BYTES`] — into a [`LineHandler`], and touches only the
//!   descriptors the kernel reported. The `poll` wrapper is the
//!   workspace's single `unsafe` block, confined to the private `poll`
//!   module; the rest of this crate, like every other crate, is safe code.
//! * [`BatchMap`] — single-flight coalescing keyed by content hash with an
//!   exact-guard collision fallback: the first in-flight request with a key
//!   leads (executes), same-key arrivals join and receive the leader's
//!   result at fan-out. Blockbuster-style block fusion applied at the
//!   request level: the artifact cache's content addressing already proves
//!   two requests are the same computation.
//! * [`HashRing`] — consistent hashing of tenants onto N shards with
//!   virtual nodes; the clockwise successor walk doubles as the
//!   shed-to-neighbor policy when a shard's `faults` plan takes it down.
//!
//! Plus [`Histogram`], the log-bucket latency histogram the load generator
//! and soak benchmark record into.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("infs-shard's reactor waits in poll(2) and wakes through a Unix socket pair");

pub mod batch;
pub mod hist;
#[allow(unsafe_code)]
mod poll;
pub mod reactor;
pub mod ring;

pub use batch::{BatchMap, BatchStats, JoinOutcome};
pub use hist::Histogram;
pub use reactor::{
    run_reactor, ConnId, LineHandler, Outbox, ReactorConfig, ReactorStats, MAX_LINE_BYTES,
};
pub use ring::HashRing;
