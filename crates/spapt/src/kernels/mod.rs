//! The 12 simulated SPAPT kernels, plus a six-kernel extended suite that
//! completes SPAPT's 18 search problems (see [`extended_kernels`]).
//!
//! Each kernel is a list of [`BlockSpec`]s — loop nests that Orio would tune
//! independently after loop distribution (e.g. ADI's two statements). The
//! kernel's parameter space is generated mechanically from the blocks,
//! following SPAPT's conventions:
//!
//! - every tiled loop contributes **two** tile parameters (outer and inner
//!   level) with values `{1, 16, 32, 64, 128, 256, 512}` (1 = disabled);
//! - every unrollable loop contributes an unroll-jam factor `1..=31`;
//! - every register-tiled loop contributes a factor `{1, 8, 32}`;
//! - every block contributes a `scalarreplace` and a `vector` boolean.
//!
//! This reproduces Table I exactly for ADI (8 tile + 4 unroll-jam +
//! 4 regtile + 2 scalarreplace + 2 vector = 20 parameters) and puts every
//! kernel inside the paper's 8–38-parameter, 10¹⁰–10³⁰-point regime.

mod adi;
mod atax;
mod bicg;
mod correlation;
mod covariance;
mod dgemv3;
mod fdtd;
mod gemver;
mod gesummv;
mod hessian;
mod jacobi;
mod lu;
mod mm;
mod mvt;
mod seidel;
mod stencil3d;
mod tensor;
mod trmm;

use pwu_space::{ConfigLegality, Configuration, MeasureOutcome, Param, ParamSpace, TuningTarget};
use pwu_stats::Xoshiro256PlusPlus;
use rayon::prelude::IntoParallelRefIterator;

use crate::cost::estimate_time;
use crate::evalcache::{CachedEval, EvalCache};
use crate::fault::FaultModel;
use crate::ir::LoopNest;
use crate::machine::MachineModel;
use crate::noise::NoiseModel;
use crate::transform::{BlockLegality, BlockTransform};

/// SPAPT tile-size levels (1 disables tiling at that level).
pub const TILE_VALUES: [f64; 7] = [1.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];
/// SPAPT register-tile factors.
pub const REGTILE_VALUES: [f64; 3] = [1.0, 8.0, 32.0];
/// SPAPT unroll-jam factors 1..=31.
#[must_use]
pub fn unroll_values() -> Vec<f64> {
    (1..=31).map(f64::from).collect()
}

/// One independently tuned loop nest of a kernel.
#[derive(Debug, Clone)]
pub struct BlockSpec {
    /// Short block label used in parameter names.
    pub label: &'static str,
    /// The loop nest.
    pub nest: LoopNest,
    /// Loops (by index) that receive two-level tiling parameters.
    pub tiled: Vec<usize>,
    /// Loops that receive unroll-jam parameters.
    pub unrolled: Vec<usize>,
    /// Loops that receive register-tile parameters.
    pub regtiled: Vec<usize>,
}

/// How one space parameter maps onto a block transformation.
#[derive(Debug, Clone, Copy)]
enum ParamRole {
    TileOuter { block: usize, loop_idx: usize },
    TileInner { block: usize, loop_idx: usize },
    Unroll { block: usize, loop_idx: usize },
    RegTile { block: usize, loop_idx: usize },
    ScalarReplace { block: usize },
    Vector { block: usize },
}

/// A simulated SPAPT kernel: blocks + parameter space + machine + noise.
#[derive(Debug, Clone)]
pub struct Kernel {
    name: String,
    blocks: Vec<BlockSpec>,
    space: ParamSpace,
    roles: Vec<ParamRole>,
    machine: MachineModel,
    noise: NoiseModel,
    /// Per-block legality masks; `None` until a dependence analysis attaches
    /// them (see `pwu-analyze`).
    legality: Option<Vec<BlockLegality>>,
    /// Fault-injection model; `None` keeps measurement infallible (and
    /// bit-identical to the pre-fault-model behaviour).
    faults: Option<FaultModel>,
    /// Memo for the pure, RNG-free half of measurement (base cost, legality,
    /// aggressiveness), keyed by encoded levels. Cloning a kernel yields a
    /// cold cache; builders that change the evaluation surface clear it.
    cache: EvalCache,
}

impl Kernel {
    /// Assembles a kernel from its blocks on Platform A with quiet-node
    /// noise.
    #[must_use]
    pub fn new(name: impl Into<String>, blocks: Vec<BlockSpec>) -> Self {
        let name = name.into();
        for b in &blocks {
            b.nest.validate();
        }
        let mut params = Vec::new();
        let mut roles = Vec::new();
        // Tile parameters: outer then inner per (block, loop), block-major.
        for (bi, b) in blocks.iter().enumerate() {
            for &l in &b.tiled {
                let lname = &b.nest.loops[l].name;
                params.push(Param::ordinal(
                    format!("T1_{}_{}", b.label, lname),
                    TILE_VALUES.to_vec(),
                ));
                roles.push(ParamRole::TileOuter {
                    block: bi,
                    loop_idx: l,
                });
                params.push(Param::ordinal(
                    format!("T2_{}_{}", b.label, lname),
                    TILE_VALUES.to_vec(),
                ));
                roles.push(ParamRole::TileInner {
                    block: bi,
                    loop_idx: l,
                });
            }
        }
        for (bi, b) in blocks.iter().enumerate() {
            for &l in &b.unrolled {
                params.push(Param::ordinal(
                    format!("U_{}_{}", b.label, b.nest.loops[l].name),
                    unroll_values(),
                ));
                roles.push(ParamRole::Unroll {
                    block: bi,
                    loop_idx: l,
                });
            }
        }
        for (bi, b) in blocks.iter().enumerate() {
            for &l in &b.regtiled {
                params.push(Param::ordinal(
                    format!("RT_{}_{}", b.label, b.nest.loops[l].name),
                    REGTILE_VALUES.to_vec(),
                ));
                roles.push(ParamRole::RegTile {
                    block: bi,
                    loop_idx: l,
                });
            }
        }
        for (bi, b) in blocks.iter().enumerate() {
            params.push(Param::boolean(format!("SCR_{}", b.label)));
            roles.push(ParamRole::ScalarReplace { block: bi });
        }
        for (bi, b) in blocks.iter().enumerate() {
            params.push(Param::boolean(format!("VEC_{}", b.label)));
            roles.push(ParamRole::Vector { block: bi });
        }
        let space = ParamSpace::new(name.clone(), params);
        Self {
            name,
            blocks,
            space,
            roles,
            machine: MachineModel::platform_a(),
            noise: NoiseModel::quiet(),
            legality: None,
            faults: None,
            cache: EvalCache::new(),
        }
    }

    /// Attaches per-block legality masks from a dependence analysis.
    ///
    /// With masks attached, [`Kernel::ideal_time`] evaluates the *clamped*
    /// transformations (the simulated compiler declines unsafe requests) and
    /// [`TuningTarget::lint_config`] classifies configurations so searchers
    /// can exclude illegal ones.
    ///
    /// # Panics
    /// Panics if the masks do not match the blocks in count or depth.
    #[must_use]
    pub fn with_legality(mut self, legality: Vec<BlockLegality>) -> Self {
        assert_eq!(legality.len(), self.blocks.len(), "one mask per block");
        for (mask, block) in legality.iter().zip(&self.blocks) {
            assert_eq!(
                mask.depth(),
                block.nest.depth(),
                "mask depth mismatch on block {}",
                block.label
            );
        }
        self.legality = Some(legality);
        // Masks change legality verdicts and clamped costs; memoized
        // evaluations are stale.
        self.cache.clear();
        self
    }

    /// The attached legality masks, if any.
    #[must_use]
    pub fn legality(&self) -> Option<&[BlockLegality]> {
        self.legality.as_deref()
    }

    /// Replaces the noise model (tests use [`NoiseModel::none`]).
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Attaches a fault-injection model; measurement through
    /// [`TuningTarget::try_measure`] then becomes fallible.
    ///
    /// A disabled model (see [`FaultModel::is_enabled`]) is treated exactly
    /// like no model at all: the fallible path consumes the same RNG stream
    /// and returns the same readings as the infallible one.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultModel) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The attached fault model, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultModel> {
        self.faults.as_ref()
    }

    /// True when a configuration requests an *aggressive* transformation —
    /// deep unroll-jam (factor ≥ 16) on any loop of any block. Aggressive
    /// configurations blow up generated-code size, which is what makes real
    /// Orio compiles fail; the fault model boosts their compile-failure
    /// probability.
    #[must_use]
    pub fn is_aggressive(&self, cfg: &Configuration) -> bool {
        self.cached_decoded(cfg).aggressive
    }

    /// [`Kernel::is_aggressive`] bypassing the evaluation cache — the
    /// reference path the memoized verdict must agree with bit-for-bit.
    #[must_use]
    pub fn is_aggressive_uncached(&self, cfg: &Configuration) -> bool {
        self.decode(cfg)
            .iter()
            .any(|t| t.unroll.iter().any(|&u| u >= 16))
    }

    /// Moves the kernel to a different machine model.
    ///
    /// Supports the paper's future-work direction — studying the
    /// *portability* of performance models across platforms: the same
    /// parameter space evaluated on another machine yields a shifted but
    /// correlated surface (see the `transfer` harness binary).
    #[must_use]
    pub fn with_machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        // The base cost is a function of the machine; memoized times are
        // stale (legality/aggressiveness would survive, but a mixed cache
        // is not worth the bookkeeping).
        self.cache.clear();
        self
    }

    /// The kernel's blocks.
    #[must_use]
    pub fn blocks(&self) -> &[BlockSpec] {
        &self.blocks
    }

    /// The machine the kernel "runs" on.
    #[must_use]
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Decodes a configuration into one transformation per block.
    #[must_use]
    pub fn decode(&self, cfg: &Configuration) -> Vec<BlockTransform> {
        self.space.validate(cfg);
        let mut transforms: Vec<BlockTransform> = self
            .blocks
            .iter()
            .map(|b| BlockTransform::identity(b.nest.depth()))
            .collect();
        for (role, (_, value)) in self.roles.iter().zip(self.space.values(cfg)) {
            match (*role, value) {
                (ParamRole::TileOuter { block, loop_idx }, pwu_space::Value::Number(v)) => {
                    transforms[block].tiles[loop_idx].0 = v as u64;
                }
                (ParamRole::TileInner { block, loop_idx }, pwu_space::Value::Number(v)) => {
                    transforms[block].tiles[loop_idx].1 = v as u64;
                }
                (ParamRole::Unroll { block, loop_idx }, pwu_space::Value::Number(v)) => {
                    transforms[block].unroll[loop_idx] = v as u64;
                }
                (ParamRole::RegTile { block, loop_idx }, pwu_space::Value::Number(v)) => {
                    transforms[block].regtile[loop_idx] = v as u64;
                }
                (ParamRole::ScalarReplace { block }, pwu_space::Value::Flag(f)) => {
                    transforms[block].scalar_replace = f;
                }
                (ParamRole::Vector { block }, pwu_space::Value::Flag(f)) => {
                    transforms[block].vectorize = f;
                }
                (role, value) => unreachable!("role {role:?} got value {value:?}"),
            }
        }
        transforms
    }

    /// Decodes a configuration and clamps each block's transformation
    /// against the attached legality masks (identity clamp when no masks
    /// are attached).
    ///
    /// Returns the transformations together with the configuration's
    /// legality verdict: the worst [`BlockLegality::classify`] result over
    /// the blocks.
    #[must_use]
    pub fn decode_legal(&self, cfg: &Configuration) -> (Vec<BlockTransform>, ConfigLegality) {
        let (transforms, legality, _) = self.eval_parts(cfg);
        (transforms, legality)
    }

    /// One decode pass producing everything the evaluation cache stores
    /// alongside the clamped transformations: the legality verdict (worst
    /// classification over the blocks, in block order — the historical
    /// `decode_legal` fold) and the raw-decode aggressiveness flag.
    fn eval_parts(&self, cfg: &Configuration) -> (Vec<BlockTransform>, ConfigLegality, bool) {
        let raw = self.decode(cfg);
        let aggressive = raw.iter().any(|t| t.unroll.iter().any(|&u| u >= 16));
        let Some(masks) = &self.legality else {
            return (raw, ConfigLegality::Legal, aggressive);
        };
        let mut worst = ConfigLegality::Legal;
        let clamped = raw
            .iter()
            .zip(masks)
            .map(|(t, mask)| {
                worst = worst.max(mask.classify(t));
                mask.clamp(t).0
            })
            .collect();
        (clamped, worst, aggressive)
    }

    /// The decode-derived cache entry (legality + aggressiveness) for `cfg`,
    /// computed via the cheap decode+clamp pass on a miss. Pool linting
    /// classifies thousands of never-measured configurations, so this stage
    /// must not touch the cost model.
    fn cached_decoded(&self, cfg: &Configuration) -> CachedEval {
        self.cache.decoded(cfg, || {
            let (_, legality, aggressive) = self.eval_parts(cfg);
            CachedEval {
                legality,
                aggressive,
                ideal_time: None,
            }
        })
    }

    /// [`TuningTarget::ideal_time`] bypassing the evaluation cache — the
    /// exact pre-memoization computation, kept public as the reference path
    /// for the bit-identity property suite and the perf-harness baseline.
    #[must_use]
    pub fn ideal_time_uncached(&self, cfg: &Configuration) -> f64 {
        let (transforms, _) = self.decode_legal(cfg);
        transforms
            .iter()
            .zip(&self.blocks)
            .map(|(t, b)| estimate_time(&b.nest, t, &self.machine))
            .sum()
    }

    /// The kernel's measurement-noise model.
    #[must_use]
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The evaluation cache (monitoring and tests).
    #[must_use]
    pub fn eval_cache(&self) -> &EvalCache {
        &self.cache
    }
}

impl TuningTarget for Kernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn ideal_time(&self, cfg: &Configuration) -> f64 {
        self.cache.ideal_time(cfg, || {
            let (transforms, legality, aggressive) = self.eval_parts(cfg);
            let t = transforms
                .iter()
                .zip(&self.blocks)
                .map(|(t, b)| estimate_time(&b.nest, t, &self.machine))
                .sum();
            CachedEval {
                legality,
                aggressive,
                ideal_time: Some(t),
            }
        })
    }

    fn ideal_times(&self, cfgs: &[Configuration]) -> Vec<f64> {
        // Memoization makes each evaluation independent and pure, so the
        // batch fans out over the thread pool; the ordered reduction keeps
        // element i equal to the sequential ideal_time(&cfgs[i]).
        cfgs.par_iter().map(|cfg| self.ideal_time(cfg)).collect()
    }

    fn lint_config(&self, cfg: &Configuration) -> ConfigLegality {
        self.cached_decoded(cfg).legality
    }

    fn measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.noise.perturb(self.ideal_time(cfg), rng)
    }

    fn try_measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> MeasureOutcome {
        let Some(fm) = self.faults.as_ref().filter(|fm| fm.is_enabled()) else {
            return MeasureOutcome::Ok(self.measure(cfg, rng));
        };
        if fm.compile_fails(cfg, self.is_aggressive(cfg)) {
            return MeasureOutcome::Failed {
                kind: pwu_space::FailureKind::Compile,
                cost: fm.compile_cost,
            };
        }
        fm.measure_transient(self.ideal_time(cfg), rng, |ideal, rng| {
            self.noise.perturb(ideal, rng)
        })
    }

    fn measure_averaged(
        &self,
        cfg: &Configuration,
        repeats: usize,
        rng: &mut Xoshiro256PlusPlus,
    ) -> f64 {
        assert!(repeats > 0, "need at least one repeat");
        let ideal = self.ideal_time(cfg);
        (0..repeats)
            .map(|_| self.noise.perturb(ideal, rng))
            .sum::<f64>()
            / repeats as f64
    }
}

/// Builds all 12 kernels in the paper's order.
#[must_use]
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        adi::build(),
        atax::build(),
        bicg::build(),
        correlation::build(),
        dgemv3::build(),
        fdtd::build(),
        gemver::build(),
        gesummv::build(),
        hessian::build(),
        jacobi::build(),
        lu::build(),
        mm::build(),
    ]
}

/// The extended suite: six additional SPAPT-style problems beyond the 12
/// the paper selected — SPAPT defines 18, and the paper skipped six whose
/// transformation/compilation was too slow to evaluate. These exercise
/// access patterns the core 12 lack: coupled transpose matvecs (`mvt`),
/// in-place 9-point relaxation (`seidel`), triangular matrix products
/// (`trmm`), symmetric column-pair accumulation (`covariance`), a 7-point
/// 3-D sweep (`stencil3d`) and a four-deep tensor contraction (`tensor`).
#[must_use]
pub fn extended_kernels() -> Vec<Kernel> {
    vec![
        mvt::build(),
        seidel::build(),
        trmm::build(),
        covariance::build(),
        stencil3d::build(),
        tensor::build(),
    ]
}

/// Looks a kernel up by name, searching the paper's 12 and the extended
/// suite.
#[must_use]
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    all_kernels()
        .into_iter()
        .chain(extended_kernels())
        .find(|k| k.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_kernels_with_spapt_scale_spaces() {
        let kernels = all_kernels();
        assert_eq!(kernels.len(), 12);
        for k in &kernels {
            let d = k.space().dim();
            assert!(
                (8..=38).contains(&d),
                "{}: {d} parameters outside SPAPT's 8–38",
                k.name()
            );
            assert!(
                k.space().cardinality() >= 10u128.pow(9),
                "{}: space too small ({})",
                k.name(),
                k.space().cardinality()
            );
        }
    }

    #[test]
    fn adi_matches_table_one_parameter_counts() {
        let adi = kernel_by_name("adi").expect("adi exists");
        let names: Vec<&str> = adi
            .space()
            .params()
            .iter()
            .map(pwu_space::Param::name)
            .collect();
        let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
        assert_eq!(count("T1_") + count("T2_"), 8, "tile params");
        assert_eq!(count("U_"), 4, "unroll-jam params");
        assert_eq!(count("RT_"), 4, "regtile params");
        assert_eq!(count("SCR_"), 2, "scalarreplace params");
        assert_eq!(count("VEC_"), 2, "vector params");
        assert_eq!(adi.space().dim(), 20);
    }

    #[test]
    fn ideal_times_positive_finite_and_varied() {
        let mut rng = Xoshiro256PlusPlus::new(42);
        for k in all_kernels() {
            let cfgs = k.space().sample_distinct(32, &mut rng);
            let times: Vec<f64> = cfgs.iter().map(|c| k.ideal_time(c)).collect();
            assert!(
                times.iter().all(|&t| t.is_finite() && t > 0.0),
                "{} produced a bad time",
                k.name()
            );
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = times.iter().cloned().fold(0.0f64, f64::max);
            assert!(
                max / min > 1.2,
                "{}: surface too flat ({min}..{max})",
                k.name()
            );
        }
    }

    #[test]
    fn measurement_noise_averages_out() {
        let k = kernel_by_name("mm").expect("mm exists");
        let mut rng = Xoshiro256PlusPlus::new(7);
        let cfg = k.space().sample(&mut rng);
        let ideal = k.ideal_time(&cfg);
        let avg = k.measure_averaged(&cfg, 200, &mut rng);
        assert!(
            (avg - ideal).abs() / ideal < 0.05,
            "avg {avg} vs ideal {ideal}"
        );
    }

    #[test]
    fn decode_roundtrips_identity_levels() {
        let k = kernel_by_name("mm").expect("mm exists");
        // All-level-zero config: tiles 1 (off), unroll 1, regtile 1, flags off.
        let cfg = Configuration::new(vec![0; k.space().dim()]);
        let ts = k.decode(&cfg);
        for t in &ts {
            assert!(t.tiles.iter().all(|&(a, b)| a == 1 && b == 1));
            assert!(t.unroll.iter().all(|&u| u == 1));
            assert!(t.regtile.iter().all(|&u| u == 1));
            assert!(!t.scalar_replace && !t.vectorize);
        }
    }

    #[test]
    fn legality_masks_drive_lint_and_clamp_ideal_time() {
        let base = kernel_by_name("mm").expect("mm exists");
        let dim = base.space().dim();
        // mm has one block of depth 3; params are block-major:
        // T1/T2 × 3 loops, then U × 3, RT × 3, SCR, VEC.
        let mut levels = vec![0u32; dim];
        levels[0] = 1; // T1 of loop i → 16: loop i becomes tiled.
        let tiled_cfg = Configuration::new(levels);
        let identity_cfg = Configuration::new(vec![0; dim]);

        // Without masks nothing is restricted.
        assert_eq!(
            base.lint_config(&tiled_cfg),
            pwu_space::ConfigLegality::Legal
        );

        let mut mask = BlockLegality::permissive(3);
        mask.tile_ok[0] = false;
        let k = kernel_by_name("mm")
            .expect("mm exists")
            .with_legality(vec![mask]);
        assert!(k.legality().is_some());
        assert_eq!(
            k.lint_config(&tiled_cfg),
            pwu_space::ConfigLegality::Illegal
        );
        assert_eq!(
            k.lint_config(&identity_cfg),
            pwu_space::ConfigLegality::Legal
        );
        // The clamped evaluation treats the illegal request as declined.
        assert_eq!(k.ideal_time(&tiled_cfg), base.ideal_time(&identity_cfg));
        assert_ne!(base.ideal_time(&tiled_cfg), base.ideal_time(&identity_cfg));
    }

    #[test]
    fn kernel_names_are_unique() {
        let names: Vec<String> = all_kernels()
            .iter()
            .chain(&extended_kernels())
            .map(|k| k.name().to_string())
            .collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        assert!(kernel_by_name("nonexistent").is_none());
    }

    #[test]
    fn extended_suite_is_well_formed() {
        let extra = extended_kernels();
        assert_eq!(extra.len(), 6, "full SPAPT scale: 12 + 6 = 18 problems");
        let mut rng = Xoshiro256PlusPlus::new(88);
        for k in &extra {
            assert!((8..=38).contains(&k.space().dim()), "{}", k.name());
            let cfgs = k.space().sample_distinct(16, &mut rng);
            for c in &cfgs {
                let t = k.ideal_time(c);
                assert!(t.is_finite() && t > 0.0, "{}: {t}", k.name());
            }
        }
        // Reachable through lookup.
        for name in ["mvt", "seidel", "trmm", "covariance", "stencil3d", "tensor"] {
            assert!(kernel_by_name(name).is_some(), "{name} missing");
        }
        // The paper set stays exactly 12.
        assert_eq!(all_kernels().len(), 12);
    }
}
