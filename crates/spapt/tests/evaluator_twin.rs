//! The production evaluator against its reference twin.
//!
//! A kernel's memo is filled by the lowered evaluator, which prices a
//! configuration straight from its levels; `ideal_time_uncached`,
//! `decode_legal` and `is_aggressive_uncached` run the reference chain
//! (`decode` → `apply` → `analyze` → `breakdown`) that `Uncached` measures
//! through. Labels, goldens, checkpoints and served digests are built from
//! the production values, so they must equal the twin's bit for bit: every
//! kernel, 500 generated configurations per setting, Platform A and B,
//! without masks and under generated legality masks, with the memo filled
//! lint-first and time-first. A configuration outside the space must be
//! rejected with the twin's panic message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pwu_space::{Configuration, TuningTarget};
use pwu_spapt::machine::{CacheLevel, MachineModel};
use pwu_spapt::{all_kernels, extended_kernels, BlockLegality, Kernel};
use pwu_stats::Xoshiro256PlusPlus;

/// Generated configurations per kernel and setting.
const PER_SETTING: usize = 500;
/// Mask draws of the masked setting; each prices `PER_SETTING / MASK_DRAWS`
/// configurations.
const MASK_DRAWS: usize = 5;

fn kernels() -> Vec<Kernel> {
    all_kernels()
        .into_iter()
        .chain(extended_kernels())
        .collect()
}

/// One mask per block with every flag drawn at random.
fn generated_masks(kernel: &Kernel, rng: &mut Xoshiro256PlusPlus) -> Vec<BlockLegality> {
    let mut flag = |odds: u64| rng.next() % 4 < odds;
    kernel
        .blocks()
        .iter()
        .map(|b| {
            let depth = b.nest.depth();
            let mut mask = BlockLegality::permissive(depth);
            for l in 0..depth {
                mask.tile_ok[l] = flag(3);
                mask.unroll_ok[l] = flag(3);
                mask.regtile_ok[l] = flag(3);
            }
            mask.scalar_replace_ok = flag(2);
            mask.vectorize_ok = flag(3);
            mask.vectorize_clean = flag(2);
            mask
        })
        .collect()
}

/// `n` configurations whose levels are the lowest with probability 1/4,
/// the highest with 1/4 and uniform otherwise, so tiles past the extents,
/// unroll factors past the tiles and the aggressive corner all occur; the
/// all-lowest and all-highest configurations come first.
fn generated_configs(
    kernel: &Kernel,
    n: usize,
    rng: &mut Xoshiro256PlusPlus,
) -> Vec<Configuration> {
    let arities: Vec<u32> = kernel
        .space()
        .params()
        .iter()
        .map(|p| p.arity() as u32)
        .collect();
    let mut cfgs = vec![
        Configuration::new(vec![0; arities.len()]),
        Configuration::new(arities.iter().map(|a| a - 1).collect()),
    ];
    while cfgs.len() < n {
        let levels = arities
            .iter()
            .map(|&a| match rng.next() % 4 {
                0 => 0,
                1 => a - 1,
                _ => (rng.next() % u64::from(a)) as u32,
            })
            .collect();
        cfgs.push(Configuration::new(levels));
    }
    cfgs.truncate(n);
    cfgs
}

/// Checks `kernel` on `cfgs` against the twin: even-indexed configurations
/// fill the memo lint-first (decode-only entry, then the cost), odd ones
/// time-first. Returns how many verdicts were not `Legal`.
fn assert_twin(kernel: &Kernel, cfgs: &[Configuration], setting: &str) -> usize {
    let lint_first = kernel.clone();
    let time_first = kernel.clone();
    let mut restricted = 0;
    for (i, cfg) in cfgs.iter().enumerate() {
        let (_, want_legality) = kernel.decode_legal(cfg);
        let want_aggressive = kernel.is_aggressive_uncached(cfg);
        let want_time = kernel.ideal_time_uncached(cfg);
        let (legality, aggressive, time) = if i % 2 == 0 {
            let k = &lint_first;
            (k.lint_config(cfg), k.is_aggressive(cfg), k.ideal_time(cfg))
        } else {
            let k = &time_first;
            let time = k.ideal_time(cfg);
            (k.lint_config(cfg), k.is_aggressive(cfg), time)
        };
        let what = || format!("{} {setting} {:?}", kernel.name(), cfg.levels());
        assert_eq!(legality, want_legality, "verdict: {}", what());
        assert_eq!(aggressive, want_aggressive, "aggressive: {}", what());
        assert_eq!(
            time.to_bits(),
            want_time.to_bits(),
            "time {time} vs twin {want_time}: {}",
            what()
        );
        restricted += usize::from(legality != pwu_space::ConfigLegality::Legal);
    }
    restricted
}

fn check_machine(machine: &MachineModel, label: &str, per_setting: usize, seed: u64) {
    for (i, base) in kernels().iter().enumerate() {
        let mut rng = Xoshiro256PlusPlus::new(seed + i as u64);
        let kernel = base.clone().with_machine(machine.clone());
        let cfgs = generated_configs(&kernel, per_setting, &mut rng);
        assert_twin(&kernel, &cfgs, &format!("{label}/unmasked"));
        let mut restricted = 0;
        for draw in 0..MASK_DRAWS {
            let masked = kernel
                .clone()
                .with_legality(generated_masks(&kernel, &mut rng));
            let cfgs = generated_configs(&masked, per_setting / MASK_DRAWS, &mut rng);
            restricted += assert_twin(&masked, &cfgs, &format!("{label}/masks{draw}"));
        }
        assert!(
            restricted > 0,
            "{} {label}: the masks restricted nothing",
            kernel.name()
        );
    }
}

#[test]
fn production_matches_twin_on_platform_a() {
    check_machine(&MachineModel::platform_a(), "A", PER_SETTING, 0xA000);
}

#[test]
fn production_matches_twin_on_platform_b() {
    check_machine(&MachineModel::platform_b(), "B", PER_SETTING, 0xB000);
}

/// Line sizes that differ per level: each level's footprints are its own
/// rather than shared with the level above.
#[test]
fn production_matches_twin_with_mixed_line_sizes() {
    let mut machine = MachineModel::platform_a();
    let lines = [32, 64, 128];
    for (level, line) in machine.caches.iter_mut().zip(lines) {
        *level = CacheLevel { line, ..*level };
    }
    check_machine(&machine, "mixed-lines", 100, 0xC000);
}

/// Capacities that shrink down the hierarchy, so a lower level sees more
/// traffic than the one above and the model scales its misses down.
#[test]
fn production_matches_twin_with_shrinking_caches() {
    let mut machine = MachineModel::platform_a();
    let capacities: Vec<u64> = machine.caches.iter().rev().map(|c| c.capacity).collect();
    for (level, capacity) in machine.caches.iter_mut().zip(capacities) {
        *level = CacheLevel { capacity, ..*level };
    }
    check_machine(&machine, "shrinking", 100, 0xD000);
}

fn panic_message<T>(f: impl FnOnce() -> T) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .or_else(|| Some("non-string panic".to_string()))
}

/// Too few levels, too many, a level equal to the arity and `u32::MAX` at a
/// random position: the production path panics with the twin's message,
/// for the time, the verdict and the flag.
#[test]
fn out_of_space_configurations_are_rejected_as_by_the_twin() {
    let mut rng = Xoshiro256PlusPlus::new(0x0D5);
    for kernel in kernels() {
        let arities: Vec<u32> = kernel
            .space()
            .params()
            .iter()
            .map(|p| p.arity() as u32)
            .collect();
        let dim = arities.len();
        let at = (rng.next() % dim as u64) as usize;
        let mut bad = vec![vec![0; dim - 1], vec![0; dim + 1]];
        for level in [arities[at], u32::MAX] {
            let mut levels = vec![0; dim];
            levels[at] = level;
            bad.push(levels);
        }
        for levels in bad {
            let cfg = Configuration::new(levels);
            let want = panic_message(|| kernel.ideal_time_uncached(&cfg))
                .expect("the twin rejects the configuration");
            let k = kernel.clone();
            let got = [
                panic_message(|| k.ideal_time(&cfg)),
                panic_message(|| k.lint_config(&cfg)),
                panic_message(|| k.is_aggressive(&cfg)),
            ];
            for message in got {
                assert_eq!(
                    message.as_deref(),
                    Some(want.as_str()),
                    "{} {:?}",
                    kernel.name(),
                    cfg.levels()
                );
            }
            assert!(
                k.eval_cache().is_empty(),
                "a rejected configuration was memoized"
            );
        }
    }
}
