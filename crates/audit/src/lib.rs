//! `pwu-audit` — the determinism & concurrency auditor.
//!
//! Everything this reproduction claims rests on one contract: the same
//! seed produces the same bits, on any machine, at any thread count
//! (DESIGN.md §11). This crate is the tooling that *enforces* the contract
//! instead of trusting it, in two halves:
//!
//! 1. **Static** — [`scan`] walks the workspace's Rust sources and flags
//!    determinism hazards (hash-order iteration, `partial_cmp` unwraps,
//!    entropy-seeded RNGs, ambient clock/env reads, unordered float
//!    reductions, unjustified `unsafe`, schedule-dependent atomic tallies).
//!    Intentional sites are annotated in `audit.allow.toml` ([`allow`]);
//!    anything else fails the gate, as does a stale allowlist entry.
//! 2. **Runtime** — [`harness`] re-runs the workspace's parallel workhorses
//!    (forest fit, a checkpointed tuning session, a mini experiment cell)
//!    under perturbed schedules — pool widths 1/2/4/8 crossed with permuted
//!    deal orders via the `rayon` shim's `sanitize` hooks — and
//!    byte-compares checkpoints, flagging any order-sensitive reduction.
//!
//! Both halves run under `cargo xtask audit`; the scanner also self-audits
//! in this crate's test suite, so plain `cargo test` keeps the workspace
//! honest between CI runs. The auditor is the prerequisite oracle for any
//! future relaxation of the contract, such as a fast-math reduction path:
//! once every order-sensitive site is enumerated here, such a path becomes
//! a reviewed allowlist diff rather than a leap of faith.

pub mod allow;
pub mod harness;
pub mod scan;

pub use allow::{apply, parse, AllowEntry, Audit};
pub use scan::{scan_file, scan_workspace, Finding, Rule};
