//! Property-based tests for parameter spaces, encodings and pools.

use proptest::prelude::*;
use pwu_space::{Configuration, FeatureSchema, Param, ParamSpace, Pool};
use pwu_stats::Xoshiro256PlusPlus;

/// Strategy producing a random small space (2–6 parameters, arity 2–6,
/// mixing ordinal / boolean / categorical domains).
fn arb_space() -> impl Strategy<Value = ParamSpace> {
    prop::collection::vec((0u8..3, 2usize..6), 2..6).prop_map(|specs| {
        let params: Vec<Param> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (kind, arity))| match kind {
                0 => Param::ordinal(
                    format!("ord{i}"),
                    (0..arity).map(|v| (v * v) as f64 + 1.0).collect::<Vec<_>>(),
                ),
                1 => Param::boolean(format!("flag{i}")),
                _ => Param::categorical(
                    format!("cat{i}"),
                    (0..arity).map(|v| format!("c{v}")).collect::<Vec<_>>(),
                ),
            })
            .collect();
        ParamSpace::new("prop", params)
    })
}

proptest! {
    #[test]
    fn index_roundtrip_everywhere(space in arb_space(), seed in 0u64..1000) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        for _ in 0..32 {
            let cfg = space.sample(&mut rng);
            let idx = space.encode_index(&cfg);
            prop_assert_eq!(space.decode_index(idx), cfg);
        }
    }

    #[test]
    fn sampled_configs_are_valid(space in arb_space(), seed in 0u64..1000) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let n = 16usize.min(space.cardinality() as usize);
        for cfg in space.sample_distinct(n, &mut rng) {
            space.validate(&cfg); // must not panic
        }
    }

    #[test]
    fn sample_distinct_has_no_repeats(space in arb_space(), seed in 0u64..1000) {
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let n = (space.cardinality() as usize).min(64);
        let got = space.sample_distinct(n, &mut rng);
        let set: std::collections::HashSet<_> = got.iter().cloned().collect();
        prop_assert_eq!(set.len(), n);
    }

    #[test]
    fn encoding_dimensionality_matches(space in arb_space(), seed in 0u64..1000) {
        let schema = FeatureSchema::for_space(&space);
        prop_assert_eq!(schema.dim(), space.dim());
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let cfg = space.sample(&mut rng);
        let row = schema.encode(&space, &cfg);
        prop_assert_eq!(row.len(), space.dim());
        prop_assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encoding_distinguishes_distinct_configs(space in arb_space(), seed in 0u64..1000) {
        let schema = FeatureSchema::for_space(&space);
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let n = (space.cardinality() as usize).min(32);
        let cfgs = space.sample_distinct(n, &mut rng);
        let rows = schema.encode_all(&space, &cfgs);
        for i in 0..rows.len() {
            for j in 0..i {
                prop_assert_ne!(&rows[i], &rows[j], "configs {} and {} collide", i, j);
            }
        }
    }

    #[test]
    fn pool_take_preserves_total_population(space in arb_space(), seed in 0u64..1000) {
        let schema = FeatureSchema::for_space(&space);
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let n = (space.cardinality() as usize).min(48);
        let cfgs = space.sample_distinct(n, &mut rng);
        let mut pool = Pool::new(&space, &schema, cfgs.clone());
        let take_n = n / 3;
        let indices: Vec<usize> = (0..take_n).map(|i| i * 2 % n.max(1)).collect();
        // Deduplicate indices (the generator above can collide).
        let mut uniq: Vec<usize> = indices;
        uniq.sort_unstable();
        uniq.dedup();
        let taken = pool.take(&uniq);
        prop_assert_eq!(taken.len() + pool.len(), n);
        let mut survivors: Vec<Configuration> = pool.configs().to_vec();
        survivors.extend(taken.into_iter().map(|t| t.0));
        survivors.sort_by_key(|c| c.levels().to_vec());
        let mut orig = cfgs;
        orig.sort_by_key(|c| c.levels().to_vec());
        prop_assert_eq!(survivors, orig);
    }
}

/// How [`one_pass_encoder_fails_exactly_as_validation`] damages a
/// configuration at parameter `p`.
fn damaged(space: &ParamSpace, cfg: &Configuration, how: u8, p: usize) -> Configuration {
    let mut levels = cfg.levels().to_vec();
    match how {
        0 => levels[p] = space.params()[p].arity() as u32,
        1 => levels[p] = u32::MAX,
        2 => {
            levels.pop();
        }
        _ => levels.push(0),
    }
    Configuration::new(levels)
}

proptest! {
    /// The encoder validates each level by the lookup that encodes it. A
    /// good pool encodes entry for entry as `encode_all` does, and a pool
    /// with one configuration outside the space (a level at its arity or at
    /// `u32::MAX`, one level short or one long) fails at that index with
    /// exactly the error `ParamSpace::try_validate` gives for it.
    #[test]
    fn one_pass_encoder_fails_exactly_as_validation(
        space in arb_space(),
        seed in 0u64..1000,
        n in 1usize..40,
        how in 0u8..4,
    ) {
        use rand::RngCore as _;
        let schema = FeatureSchema::for_space(&space);
        let mut rng = Xoshiro256PlusPlus::new(seed);
        let mut cfgs: Vec<Configuration> = (0..n).map(|_| space.sample(&mut rng)).collect();
        let rows = schema.encode_all(&space, &cfgs);
        let matrix = schema.try_encode_matrix(&space, &cfgs).expect("a good pool encodes");
        prop_assert_eq!(matrix.to_rows(), rows.clone());
        let pool = Pool::try_new(&space, &schema, cfgs.clone()).expect("a good pool builds");
        prop_assert_eq!(pool.features().to_rows(), rows);

        let at = (rng.next_u64() % n as u64) as usize;
        let p = (rng.next_u64() % space.dim() as u64) as usize;
        cfgs[at] = damaged(&space, &cfgs[at], how, p);
        let want = space.try_validate(&cfgs[at]).expect_err("the damage leaves the space");
        let got = schema.try_encode_matrix(&space, &cfgs).expect_err("the matrix is refused");
        prop_assert_eq!(got, (at, want.clone()));
        let got = Pool::try_new(&space, &schema, cfgs).expect_err("the pool is refused");
        prop_assert_eq!(got, (at, want));
    }
}
