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

use std::sync::{Arc, OnceLock};

use pwu_space::{ConfigLegality, Configuration, MeasureOutcome, Param, ParamSpace, TuningTarget};
use pwu_stats::Xoshiro256PlusPlus;
use rayon::prelude::IntoParallelRefIterator;

use crate::cost::estimate_time;
use crate::evalcache::EvalCache;
use crate::fault::FaultModel;
use crate::ir::LoopNest;
use crate::lowered::{Evaluation, Lowered};
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
pub(crate) enum ParamRole {
    TileOuter { block: usize, loop_idx: usize },
    TileInner { block: usize, loop_idx: usize },
    Unroll { block: usize, loop_idx: usize },
    RegTile { block: usize, loop_idx: usize },
    ScalarReplace { block: usize },
    Vector { block: usize },
}

/// A simulated SPAPT kernel: blocks + parameter space + machine + noise.
///
/// Clones share the immutable definition (blocks, parameter space and the
/// production evaluator's tables); each keeps its own machine, noise,
/// masks, fault model and memo.
#[derive(Debug, Clone)]
pub struct Kernel {
    def: Arc<Definition>,
    machine: MachineModel,
    noise: NoiseModel,
    /// Per-block legality masks; `None` until a dependence analysis attaches
    /// them (see `pwu-analyze`).
    legality: Option<Vec<BlockLegality>>,
    /// Fault-injection model; `None` keeps measurement infallible (and
    /// bit-identical to the pre-fault-model behaviour).
    faults: Option<FaultModel>,
    /// Memo of the base cost, the pure, RNG-free half of measurement, keyed
    /// by encoded levels and filled by the production evaluator. Cloning a
    /// kernel yields a cold cache; builders that change the evaluation
    /// surface clear it.
    cache: EvalCache,
}

/// What [`Kernel::new`] derives from the blocks, never changed after.
#[derive(Debug)]
struct Definition {
    name: String,
    blocks: Vec<BlockSpec>,
    space: ParamSpace,
    roles: Vec<ParamRole>,
    /// The blocks in the production evaluator's table form.
    lowered: Lowered,
}

impl Kernel {
    /// Assembles a kernel from its blocks on Platform A with quiet-node
    /// noise.
    ///
    /// # Panics
    /// Panics if a nest is inconsistent (see [`LoopNest::validate`]) or
    /// exceeds the production evaluator's fixed bounds: at most 4 blocks,
    /// 1 to 4 loops per nest, at most 8 referenced arrays per block, 1 to 3
    /// dimensions per array.
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
        let lowered = Lowered::new(&blocks);
        Self {
            def: Arc::new(Definition {
                name,
                blocks,
                space,
                roles,
                lowered,
            }),
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
        assert_eq!(legality.len(), self.def.blocks.len(), "one mask per block");
        for (mask, block) in legality.iter().zip(&self.def.blocks) {
            assert_eq!(
                mask.depth(),
                block.nest.depth(),
                "mask depth mismatch on block {}",
                block.label
            );
        }
        self.legality = Some(legality);
        // Masks change the clamped costs; memoized base costs are stale.
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
        self.evaluate(cfg, false).aggressive
    }

    /// [`Kernel::is_aggressive`] through the reference decode — the verdict
    /// the production evaluator must agree with.
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
        // stale.
        self.cache.clear();
        self
    }

    /// The kernel's blocks.
    #[must_use]
    pub fn blocks(&self) -> &[BlockSpec] {
        &self.def.blocks
    }

    /// The machine the kernel "runs" on.
    #[must_use]
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Decodes a configuration into one transformation per block.
    #[must_use]
    pub fn decode(&self, cfg: &Configuration) -> Vec<BlockTransform> {
        self.def.space.validate(cfg);
        let mut transforms: Vec<BlockTransform> = self
            .def
            .blocks
            .iter()
            .map(|b| BlockTransform::identity(b.nest.depth()))
            .collect();
        for (role, (_, value)) in self.def.roles.iter().zip(self.def.space.values(cfg)) {
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
        let raw = self.decode(cfg);
        let Some(masks) = &self.legality else {
            return (raw, ConfigLegality::Legal);
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
        (clamped, worst)
    }

    /// The production evaluation of `cfg`: its legality verdict and
    /// aggressiveness flag, and with `price` its base cost, computed by the
    /// lowered evaluator straight from the levels. A configuration outside
    /// the space panics here exactly as [`Kernel::decode`] does.
    fn evaluate(&self, cfg: &Configuration, price: bool) -> Evaluation {
        self.def.space.validate(cfg);
        self.def.lowered.evaluate(
            &self.def.roles,
            cfg.levels(),
            self.legality.as_deref(),
            price.then_some(&self.machine),
        )
    }

    /// [`TuningTarget::ideal_time`] bypassing the evaluation cache — the
    /// reference chain (`decode` → `apply` → `analyze` → `breakdown`), kept
    /// public as the oracle the production evaluator must match bit for bit
    /// and as the perf-harness baseline.
    #[must_use]
    pub fn ideal_time_uncached(&self, cfg: &Configuration) -> f64 {
        let (transforms, _) = self.decode_legal(cfg);
        transforms
            .iter()
            .zip(&self.def.blocks)
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
        &self.def.name
    }

    fn space(&self) -> &ParamSpace {
        &self.def.space
    }

    fn ideal_time(&self, cfg: &Configuration) -> f64 {
        self.cache.ideal_time(cfg, || {
            self.evaluate(cfg, true)
                .ideal_time
                .expect("a priced evaluation has a time")
        })
    }

    fn ideal_times(&self, cfgs: &[Configuration]) -> Vec<f64> {
        // Memoization makes each evaluation independent and pure, so the
        // batch fans out over the thread pool; the ordered reduction keeps
        // element i equal to the sequential ideal_time(&cfgs[i]).
        cfgs.par_iter().map(|cfg| self.ideal_time(cfg)).collect()
    }

    fn lint_config(&self, cfg: &Configuration) -> ConfigLegality {
        self.evaluate(cfg, false).legality
    }

    fn measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> f64 {
        self.noise.perturb(self.ideal_time(cfg), rng)
    }

    fn try_measure(&self, cfg: &Configuration, rng: &mut Xoshiro256PlusPlus) -> MeasureOutcome {
        let Some(fm) = self.faults.as_ref().filter(|fm| fm.is_enabled()) else {
            return MeasureOutcome::Ok(self.measure(cfg, rng));
        };
        if fm.compile_fails(cfg, || self.is_aggressive(cfg)) {
            return MeasureOutcome::Failed {
                kind: pwu_space::FailureKind::Compile,
                cost: fm.compile_cost,
            };
        }
        fm.measure_transient(self.ideal_time(cfg), rng, |ideal, rng| {
            self.noise.perturb(ideal, rng)
        })
    }
}

/// A suite kernel's name and builder.
type SuiteEntry = (&'static str, fn() -> Kernel);

/// The suite by name: the paper's 12 in the paper's order, then the
/// extended six.
const SUITE: [SuiteEntry; 18] = [
    ("adi", adi::build),
    ("atax", atax::build),
    ("bicgkernel", bicg::build),
    ("correlation", correlation::build),
    ("dgemv3", dgemv3::build),
    ("fdtd", fdtd::build),
    ("gemver", gemver::build),
    ("gesummv", gesummv::build),
    ("hessian", hessian::build),
    ("jacobi", jacobi::build),
    ("lu", lu::build),
    ("mm", mm::build),
    ("mvt", mvt::build),
    ("seidel", seidel::build),
    ("trmm", trmm::build),
    ("covariance", covariance::build),
    ("stencil3d", stencil3d::build),
    ("tensor", tensor::build),
];

/// How many of [`SUITE`] the paper selected.
const PAPER_KERNELS: usize = 12;

/// Kernel `index` of [`SUITE`]. Each is built once per process, on its
/// first lookup; every lookup returns a clone, which shares the definition
/// and starts on a cold memo, Platform A and quiet noise.
fn suite_kernel(index: usize) -> Kernel {
    static BUILT: [OnceLock<Kernel>; SUITE.len()] = [const { OnceLock::new() }; SUITE.len()];
    BUILT[index].get_or_init(SUITE[index].1).clone()
}

/// The paper's 12 kernels, in the paper's order.
#[must_use]
pub fn all_kernels() -> Vec<Kernel> {
    (0..PAPER_KERNELS).map(suite_kernel).collect()
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
    (PAPER_KERNELS..SUITE.len()).map(suite_kernel).collect()
}

/// Looks a kernel up by name, searching the paper's 12 and the extended
/// suite; builds at most the kernel it returns.
#[must_use]
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    SUITE.iter().position(|(n, _)| *n == name).map(suite_kernel)
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
        assert!(kernel_by_name("").is_none());
        // The lookup tables name each kernel as it names itself, in the
        // suites' order.
        assert_eq!(
            names,
            [
                "adi",
                "atax",
                "bicgkernel",
                "correlation",
                "dgemv3",
                "fdtd",
                "gemver",
                "gesummv",
                "hessian",
                "jacobi",
                "lu",
                "mm",
                "mvt",
                "seidel",
                "trmm",
                "covariance",
                "stencil3d",
                "tensor"
            ]
        );
        for (name, _) in SUITE {
            let k = kernel_by_name(name).expect("every table entry builds");
            assert_eq!(k.name(), name);
        }
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
