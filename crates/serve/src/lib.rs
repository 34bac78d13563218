//! `pwu-serve`: a crash-safe multi-session tuning service.
//!
//! The workspace's core loop ([`pwu_core::active`]) drives one active-learning
//! run to completion in-process. This crate hosts *many* such runs as
//! steppable sessions behind a framed line protocol, built for operation
//! under faults:
//!
//! - **Durability** — every committed step overwrites one of three
//!   checkpoint slot files in place and syncs it once
//!   ([`pwu_core::GenerationStore`]); the other two keep the previous
//!   generations whole, so a crash at any instant loses at most the step in
//!   flight, and resume is bit-identical to never having crashed (the chaos
//!   harness in `tests/chaos.rs` proves this at randomized kill points).
//! - **Containment** — steps are pure until commit, so a panicking or
//!   over-deadline step is simply discarded; the watchdog
//!   ([`WatchdogPolicy`]) degrades runaway sessions instead of wedging the
//!   server.
//! - **Admission control** — bounded registries and bounded per-request
//!   work ([`AdmissionPolicy`]) shed load with typed `overloaded` responses
//!   instead of degrading every session at once.
//! - **Bounded memory** — between requests a session holds only the body
//!   of its newest durable generation (the committed checkpoint text, not
//!   a parsed checkpoint), its digest and its evaluator; a step parses a
//!   private copy of the body. The `stats` verb reports the resident
//!   bodies' total as `resident_bytes`. A kernel's eval-cache memo is
//!   request-scoped, emptied by every request that fills it.
//!
//! The wire protocol ([`protocol`]) is one flat JSON object per line over
//! stdin/stdout — dependency-free, newline-framed, deterministic field
//! order. `cargo run -p pwu-serve` starts a server over
//! `target/serve-state`.

pub mod admission;
pub mod protocol;
pub mod server;
pub mod session;
pub mod watchdog;

pub use admission::AdmissionPolicy;
pub use protocol::{parse_object, parse_request, ErrorKind, ProtocolError, Request};
pub use server::{Server, ServerStats};
pub use session::{Session, SessionSpec, SessionState, SessionTarget, StepReport};
pub use watchdog::WatchdogPolicy;
