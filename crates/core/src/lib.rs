//! Active-learning empirical performance modeling — the paper's contribution.
//!
//! This crate implements Algorithm 1 of *"An Active Learning Method for
//! Empirical Modeling in Performance Tuning"* and the sampling strategies it
//! compares:
//!
//! - **PWU** (the proposed Performance Weighted Uncertainty strategy):
//!   scores every pool candidate `s = σ / μ^(1−α)` and picks the top batch —
//!   high performance (small predicted time μ) *weighs* high uncertainty σ
//!   instead of being applied before it;
//! - **PBUS** (Balaprakash et al. 2013): restrict to the predicted
//!   high-performance fraction first, then take the most uncertain;
//! - **BRS** — biased random sampling inside the predicted top fraction;
//! - **`BestPerf`** — pure exploitation (minimal predicted time);
//! - **`MaxU`** — classic uncertainty sampling;
//! - **Uniform** — passive random sampling.
//!
//! Modules:
//! - [`annotator`] — evaluates configurations on a [`pwu_space::TuningTarget`]
//!   with the paper's repeat-averaging protocol
//! - [`strategy`] — the scoring/selection rules above
//! - [`active`] — Algorithm 1 as one loop type, [`ActiveLoop`] (cold start +
//!   iteration loop, checkpoint and restore), with a full per-iteration trace
//! - [`metrics`] — RMSE@α (Eq. 2) and its ranked-once evaluator
//!   [`EliteTest`], cumulative cost (Eq. 3), cost-to-reach
//! - [`experiment`] — the 10-repetition protocol over pool 7000 / test 3000
//! - [`tuning`] — model-based tuning with true vs surrogate annotators (Fig 8)

pub mod active;
pub mod annotator;
pub mod checkpoint;
pub mod experiment;
pub mod metrics;
pub mod strategy;
pub mod tuning;

pub use active::{
    bootstrap, step_once, ActiveConfig, ActiveLoop, ActiveRun, Snapshot, StepOutcome,
};
pub use annotator::{Aggregator, AnnotationFailure, Annotator, MeasurementStats, RetryPolicy};
pub use checkpoint::{
    fnv1a64, with_integrity_footer, ActiveCheckpoint, CheckpointError, CheckpointPolicy,
    GenerationStore, Recovered, Saved,
};
pub use experiment::{ExperimentResult, Protocol, StrategyCurve};
pub use metrics::{cost_to_reach, rmse_at_alpha, EliteTest};
pub use strategy::Strategy;
