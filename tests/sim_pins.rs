//! Simulator fingerprints: pins the exact bits the SPAPT simulator prices,
//! so a change to the decode, the legality clamp, the cache model or the
//! cycle model that moves a single time, lint verdict or aggressiveness
//! flag fails here, even when the production evaluator and the reference
//! twin (`pwu_spapt::Uncached`) move together.
//!
//! Each pin is an FNV-1a hash, per kernel, over `ideal_time` bits, the
//! `lint_config` verdict and the `is_aggressive` flag of every input
//! configuration, in four settings: Platform A and Platform B, each without
//! legality masks and with generated masks drawn for each configuration.
//! Inputs are a seeded sample of the space plus its all-lowest and
//! all-highest configurations. Every kernel is asked for the verdict and
//! the flag first, then for the time.
//!
//! If a pin moves, the failure message prints every fingerprint; update the
//! table only for an intended change to the simulated surface.

use pwu_repro::space::{ConfigLegality, Configuration, TuningTarget};
use pwu_repro::spapt::machine::MachineModel;
use pwu_repro::spapt::{all_kernels, extended_kernels, BlockLegality, Kernel};
use pwu_repro::stats::Xoshiro256PlusPlus;

/// `(kernel, fingerprint)`, the paper's 12 then the extended 6.
const PINS: &[(&str, u64)] = &[
    ("adi", 0x46d527b6d80c8bcf),
    ("atax", 0xb22cea78d36e5b85),
    ("bicgkernel", 0x967363ad7765a476),
    ("correlation", 0x8709503393ee970b),
    ("dgemv3", 0x185e671551410b8e),
    ("fdtd", 0xa7277116aa543c6b),
    ("gemver", 0xbd317c70bbf3b3de),
    ("gesummv", 0xd1073b9676ea56d5),
    ("hessian", 0x6f4b7a5c03f7814f),
    ("jacobi", 0xbdeb431603112c80),
    ("lu", 0x96628e98436739cb),
    ("mm", 0x1247155cfa9e9d51),
    ("mvt", 0xec55709bb979f001),
    ("seidel", 0xdfc42597c66d5a93),
    ("trmm", 0x603604b8239339d2),
    ("covariance", 0x8a42d941e6545e02),
    ("stencil3d", 0xd2b57383dc8d7801),
    ("tensor", 0xc8d7caf8feb9fd39),
];

/// Sampled configurations per kernel and setting.
const SAMPLE: usize = 48;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One mask per block with one restriction drawn from `rng`: a loop that
/// may not be tiled, unroll-jammed or register-tiled, or no scalar
/// replacement, no vectorization, or vectorization only with a finding.
/// One restriction per block leaves many configurations legal or flagged.
fn generated_masks(kernel: &Kernel, rng: &mut Xoshiro256PlusPlus) -> Vec<BlockLegality> {
    kernel
        .blocks()
        .iter()
        .map(|b| {
            let depth = b.nest.depth();
            let mut mask = BlockLegality::permissive(depth);
            let pick = (rng.next() % (3 * depth as u64 + 3)) as usize;
            let l = pick % depth;
            match pick / depth {
                0 => mask.tile_ok[l] = false,
                1 => mask.unroll_ok[l] = false,
                2 => mask.regtile_ok[l] = false,
                _ => match pick - 3 * depth {
                    0 => mask.scalar_replace_ok = false,
                    1 => mask.vectorize_ok = false,
                    _ => mask.vectorize_clean = false,
                },
            }
            mask
        })
        .collect()
}

/// The seeded sample plus the all-lowest and all-highest configurations.
fn inputs(kernel: &Kernel, seed: u64) -> Vec<Configuration> {
    let space = kernel.space();
    let mut rng = Xoshiro256PlusPlus::new(seed);
    let mut cfgs = space.sample_distinct(SAMPLE, &mut rng);
    cfgs.push(Configuration::new(vec![0; space.dim()]));
    cfgs.push(Configuration::new(
        space
            .params()
            .iter()
            .map(|p| p.arity() as u32 - 1)
            .collect(),
    ));
    cfgs
}

fn verdict_code(v: ConfigLegality) -> u64 {
    match v {
        ConfigLegality::Legal => 0,
        ConfigLegality::Flagged => 1,
        ConfigLegality::Illegal => 2,
    }
}

/// The fingerprint of `base`; `seen` counts the verdicts by code and the
/// aggressive configurations.
fn fingerprint(base: &Kernel, seed: u64, seen: &mut [usize; 4]) -> u64 {
    let cfgs = inputs(base, seed);
    let mut mask_rng = Xoshiro256PlusPlus::new(seed ^ 0x6D61_736B);
    let mut h = Fnv::new();
    let mut pin = |kernel: &Kernel, cfg: &Configuration| {
        let verdict = verdict_code(kernel.lint_config(cfg));
        let aggressive = kernel.is_aggressive(cfg);
        seen[verdict as usize] += 1;
        seen[3] += usize::from(aggressive);
        h.word(verdict);
        h.word(u64::from(aggressive));
        h.word(kernel.ideal_time(cfg).to_bits());
    };
    for machine in [MachineModel::platform_a(), MachineModel::platform_b()] {
        let kernel = base.clone().with_machine(machine);
        for cfg in &cfgs {
            pin(&kernel, cfg);
        }
        // Every configuration under masks of its own.
        for cfg in &cfgs {
            let masks = generated_masks(base, &mut mask_rng);
            pin(&kernel.clone().with_legality(masks), cfg);
        }
    }
    h.0
}

#[test]
fn every_kernel_matches_its_simulator_pin() {
    let mut seen = [0; 4];
    let got: Vec<(String, u64)> = all_kernels()
        .into_iter()
        .chain(extended_kernels())
        .enumerate()
        .map(|(i, k)| {
            let h = fingerprint(&k, 0x51_0000 + i as u64, &mut seen);
            (k.name().to_string(), h)
        })
        .collect();
    let total = 18 * 4 * (SAMPLE + 2);
    assert!(
        seen[..3].iter().all(|&n| n > 0) && seen[3] > 0 && seen[3] < total,
        "the inputs must reach every verdict and both flags: {seen:?} of {total}"
    );
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINS.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(got, pinned, "simulator fingerprints moved; got:\n{table}");
}
