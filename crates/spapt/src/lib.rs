//! Simulated SPAPT kernel benchmarks.
//!
//! SPAPT ("Search Problems in Automatic Performance Tuning", Balaprakash et
//! al. 2012) packages serial computation kernels with Orio-style code
//! transformations: loop tiling, unroll-jam, register tiling, scalar
//! replacement and vectorization. The paper models the execution time of 12
//! of those kernels as a function of the transformation parameters.
//!
//! Because the real SPAPT harness needs Orio, a C compiler and a quiesced
//! Xeon node, this crate *simulates* the kernels instead: each kernel is a
//! real loop-nest IR (arrays, affine accesses, flop counts), the
//! transformation parameters are applied structurally (tiled/unrolled loop
//! structure, register pressure, vectorizability), and an analytical machine
//! model (multi-level cache footprint analysis + instruction costs) maps the
//! transformed nest to seconds. A trace-driven set-associative cache
//! simulator ([`cachesim`]) cross-checks the analytical cache model in tests.
//! What matters for the reproduction is the *shape* of the resulting
//! configuration→time surface: multimodal, strongly interacting, with a
//! small elite region and a heavy tail — the same structure the sampling
//! strategies face on real hardware. See `DESIGN.md` for the substitution
//! argument.
//!
//! Modules:
//! - [`machine`] — platform models (Table IV's Platform A/B)
//! - [`ir`] — loop-nest IR: arrays, affine references, statements
//! - [`transform`] — SPAPT/Orio-style transformation parameters and their
//!   structural application
//! - [`cache`] — analytical multi-level cache-miss model
//! - [`cachesim`] — trace-driven set-associative LRU simulator (validation)
//! - [`cost`] — the cycle/time model combining compute and memory
//! - [`noise`] — wall-clock measurement-noise model
//! - [`fault`] — compile-failure / crash / timeout / garbage-reading
//!   injection layered on the noise model
//! - [`evalcache`] — memoization of the pure, RNG-free half of measurement
//!   (base cost, legality, aggressiveness), so repeated measurements pay
//!   for one model evaluation plus cheap noise draws; the memo is filled by
//!   the production evaluator, which lowers each block into flat tables at
//!   construction and prices a configuration straight from its levels,
//!   bit-identical to the `transform` → `cache` → `cost` chain that
//!   [`Uncached`] keeps as the reference
//! - [`kernels`] — the 12 kernel definitions and their parameter spaces

pub mod cache;
pub mod cachesim;
pub mod cost;
pub mod evalcache;
pub mod fault;
pub mod ir;
pub mod kernels;
mod lowered;
pub mod machine;
pub mod noise;
pub mod transform;

pub use evalcache::{CachedEval, EvalCache, Uncached};
pub use fault::FaultModel;
pub use kernels::{all_kernels, extended_kernels, kernel_by_name, Kernel};
pub use machine::MachineModel;
pub use noise::NoiseModel;
pub use transform::{BlockLegality, BlockTransform};
