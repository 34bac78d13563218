//! Feature encoding of configurations for the learner.
//!
//! Each parameter becomes exactly one feature column:
//!
//! - ordinal parameters contribute their *numeric value* (a tile size of 128
//!   is meaningfully four times 32, and regression trees exploit the order);
//! - boolean parameters contribute 0.0 / 1.0;
//! - categorical parameters contribute their *category code* stored in an
//!   `f64`, and the schema marks the column as categorical so the forest
//!   performs subset splits instead of threshold splits.
//!
//! One encoder validates as it encodes: each level is looked up in its
//! parameter's domain once, and a miss is what makes the configuration
//! invalid (see `FeatureSchema::encode_into`).

use crate::config::Configuration;
use crate::matrix::FeatureMatrix;
use crate::param::Domain;
use crate::space::ParamSpace;

use pwu_stats::InvalidInput;

/// Kind of one encoded feature column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Ordered numeric column; trees split with `x <= threshold`.
    Numeric,
    /// Unordered column with the given number of categories; trees split
    /// with `x ∈ S` for a category subset `S`.
    Categorical {
        /// Number of distinct categories in the column.
        n_categories: usize,
    },
}

/// Column schema of the encoded feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSchema {
    names: Vec<String>,
    kinds: Vec<FeatureKind>,
}

impl FeatureSchema {
    /// Builds the schema for a space (one column per parameter).
    #[must_use]
    pub fn for_space(space: &ParamSpace) -> Self {
        let mut names = Vec::with_capacity(space.dim());
        let mut kinds = Vec::with_capacity(space.dim());
        for p in space.params() {
            names.push(p.name().to_string());
            kinds.push(match p.domain() {
                Domain::Ordinal(_) | Domain::Bool => FeatureKind::Numeric,
                Domain::Categorical(cs) => FeatureKind::Categorical {
                    n_categories: cs.len(),
                },
            });
        }
        Self { names, kinds }
    }

    /// Number of feature columns.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.kinds.len()
    }

    /// Column names.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Column kinds.
    #[must_use]
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Encodes one configuration into a feature row.
    ///
    /// # Panics
    /// Panics if the configuration does not belong to `space` (wrong
    /// dimensionality or a level out of range), or if the schema was not
    /// built from a space of `space`'s dimensionality.
    #[must_use]
    pub fn encode(&self, space: &ParamSpace, cfg: &Configuration) -> Vec<f64> {
        self.try_encode(space, cfg)
            .unwrap_or_else(|e| panic!("{}", e.message))
    }

    /// Encodes many configurations into a row-major feature matrix.
    #[must_use]
    pub fn encode_all(&self, space: &ParamSpace, cfgs: &[Configuration]) -> Vec<Vec<f64>> {
        cfgs.iter().map(|c| self.encode(space, c)).collect()
    }

    /// Encodes many configurations into a flat column-major
    /// [`FeatureMatrix`] — the layout the forest's hot paths consume.
    ///
    /// Entry-for-entry identical to [`FeatureSchema::encode_all`]; only the
    /// storage layout differs.
    ///
    /// # Panics
    /// Panics as [`FeatureSchema::encode`] does, on the first configuration
    /// that does not belong to `space`.
    #[must_use]
    pub fn encode_matrix(&self, space: &ParamSpace, cfgs: &[Configuration]) -> FeatureMatrix {
        self.try_encode_matrix(space, cfgs)
            .unwrap_or_else(|(_, e)| panic!("{}", e.message))
    }

    /// [`FeatureSchema::encode_matrix`] for untrusted configurations. Each
    /// column is sized for every configuration up front and filled row by
    /// row; no row is allocated on the way, and each level is validated by
    /// the same lookup that encodes it.
    ///
    /// # Errors
    /// Returns the index of the first configuration that does not belong to
    /// `space`, and why ([`ParamSpace::try_validate`]'s error).
    ///
    /// # Panics
    /// Panics if the schema was not built from a space of `space`'s
    /// dimensionality.
    pub fn try_encode_matrix(
        &self,
        space: &ParamSpace,
        cfgs: &[Configuration],
    ) -> Result<FeatureMatrix, (usize, InvalidInput)> {
        let mut cols: Vec<Vec<f64>> = (0..self.dim())
            .map(|_| Vec::with_capacity(cfgs.len()))
            .collect();
        for (i, cfg) in cfgs.iter().enumerate() {
            self.encode_into(space, cfg, |j, v| cols[j].push(v))
                .map_err(|e| (i, e))?;
        }
        Ok(FeatureMatrix::from_columns(cfgs.len(), cols))
    }

    /// Validates `cfg` against `space` and encodes it.
    fn try_encode(
        &self,
        space: &ParamSpace,
        cfg: &Configuration,
    ) -> Result<Vec<f64>, InvalidInput> {
        let mut row = Vec::with_capacity(self.dim());
        self.encode_into(space, cfg, |_, v| row.push(v))?;
        Ok(row)
    }

    /// Validates and encodes `cfg` in one pass, handing column `j`'s value
    /// to `emit(j, value)` in column order: the one encoder behind every
    /// public form. Each level is one lookup into its parameter's domain
    /// (an ordinal's value, a flag's 0 or 1, a category's code) that fails
    /// exactly when the level is outside the domain. On the first miss
    /// [`ParamSpace::try_validate`] names the problem, so the error is the
    /// one validation alone gives; the columns emitted before it are the
    /// caller's to drop.
    fn encode_into(
        &self,
        space: &ParamSpace,
        cfg: &Configuration,
        mut emit: impl FnMut(usize, f64),
    ) -> Result<(), InvalidInput> {
        let params = space.params();
        let miss = || {
            space
                .try_validate(cfg)
                .expect_err("a configuration the encoder misses fails validation")
        };
        if cfg.len() != params.len() {
            return Err(miss());
        }
        assert_eq!(
            params.len(),
            self.dim(),
            "schema dimensionality does not match space"
        );
        for (j, (p, &level)) in params.iter().zip(cfg.levels()).enumerate() {
            let value = match p.domain() {
                Domain::Ordinal(vs) => vs.get(level as usize).copied(),
                Domain::Bool => (level <= 1).then_some(f64::from(level)),
                Domain::Categorical(cs) => {
                    ((level as usize) < cs.len()).then_some(f64::from(level))
                }
            };
            emit(j, value.ok_or_else(miss)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    fn space() -> ParamSpace {
        ParamSpace::new(
            "s",
            vec![
                Param::ordinal("tile", vec![1.0, 16.0, 32.0]),
                Param::boolean("vector"),
                Param::categorical("layout", ["DGZ", "DZG", "GDZ"]),
            ],
        )
    }

    #[test]
    fn schema_kinds() {
        let s = space();
        let schema = FeatureSchema::for_space(&s);
        assert_eq!(schema.dim(), 3);
        assert_eq!(schema.kinds()[0], FeatureKind::Numeric);
        assert_eq!(schema.kinds()[1], FeatureKind::Numeric);
        assert_eq!(
            schema.kinds()[2],
            FeatureKind::Categorical { n_categories: 3 }
        );
        assert_eq!(schema.names()[2], "layout");
    }

    #[test]
    fn encode_uses_values_not_levels_for_ordinals() {
        let s = space();
        let schema = FeatureSchema::for_space(&s);
        let row = schema.encode(&s, &Configuration::new(vec![2, 1, 0]));
        assert_eq!(row, vec![32.0, 1.0, 0.0]);
    }

    #[test]
    fn encode_is_injective_on_tiny_space() {
        let s = space();
        let schema = FeatureSchema::for_space(&s);
        let rows: Vec<Vec<f64>> = s.enumerate().map(|c| schema.encode(&s, &c)).collect();
        for (i, a) in rows.iter().enumerate() {
            for b in &rows[..i] {
                assert_ne!(a, b, "two configurations encoded identically");
            }
        }
    }

    #[test]
    fn encode_all_shape() {
        let s = space();
        let schema = FeatureSchema::for_space(&s);
        let cfgs: Vec<Configuration> = s.enumerate().collect();
        let m = schema.encode_all(&s, &cfgs);
        assert_eq!(m.len(), cfgs.len());
        assert!(m.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn encode_matrix_matches_encode_all_entry_for_entry() {
        let s = space();
        let schema = FeatureSchema::for_space(&s);
        let cfgs: Vec<Configuration> = s.enumerate().collect();
        let rows = schema.encode_all(&s, &cfgs);
        let m = schema.encode_matrix(&s, &cfgs);
        assert_eq!(m.n_rows(), rows.len());
        assert_eq!(m.n_cols(), schema.dim());
        assert_eq!(m.to_rows(), rows);
    }

    #[test]
    fn try_encode_matrix_names_the_first_configuration_outside_the_space() {
        let s = space();
        let schema = FeatureSchema::for_space(&s);
        let cfgs = vec![
            Configuration::new(vec![2, 1, 0]),
            Configuration::new(vec![0, 0, 9]),
            Configuration::new(vec![0, 0]),
        ];
        let (i, e) = schema.try_encode_matrix(&s, &cfgs).unwrap_err();
        assert_eq!(i, 1);
        assert_eq!(
            e.message,
            "level 9 out of range for parameter layout (arity 3)"
        );
        let ok = schema.try_encode_matrix(&s, &cfgs[..1]).unwrap();
        assert_eq!(ok.to_rows(), schema.encode_all(&s, &cfgs[..1]));
    }

    #[test]
    #[should_panic(expected = "level 9 out of range for parameter layout (arity 3)")]
    fn encode_panics_with_the_validation_message() {
        let s = space();
        let _ = FeatureSchema::for_space(&s).encode(&s, &Configuration::new(vec![0, 0, 9]));
    }
}
