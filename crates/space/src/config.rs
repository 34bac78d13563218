//! Configurations: single points of a parameter space.

use std::fmt;

/// One point of a [`crate::ParamSpace`], stored as per-parameter level
/// indices.
///
/// Levels are indices into each parameter's domain, which keeps a
/// configuration at 4 bytes per parameter and makes hashing/equality exact
/// (no float comparisons).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration {
    levels: Vec<u32>,
}

impl Configuration {
    /// Creates a configuration from raw level indices.
    #[must_use]
    pub fn new(levels: Vec<u32>) -> Self {
        Self { levels }
    }

    /// Level indices, one per parameter.
    #[must_use]
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// The level indices, moved out.
    #[must_use]
    pub fn into_levels(self) -> Vec<u32> {
        self.levels
    }

    /// Level of the parameter at position `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn level(&self, i: usize) -> u32 {
        self.levels[i]
    }

    /// Number of parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when the configuration has no parameters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Returns a copy with the parameter at `i` set to `level`.
    #[must_use]
    pub fn with_level(&self, i: usize, level: u32) -> Self {
        let mut levels = self.levels.clone();
        levels[i] = level;
        Self { levels }
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let c = Configuration::new(vec![0, 3, 1]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.level(1), 3);
        assert_eq!(c.levels(), &[0, 3, 1]);
        assert!(!c.is_empty());
    }

    #[test]
    fn with_level_is_nondestructive() {
        let c = Configuration::new(vec![0, 0]);
        let d = c.with_level(1, 5);
        assert_eq!(c.level(1), 0);
        assert_eq!(d.level(1), 5);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Configuration::new(vec![1, 2, 3]).to_string(), "[1,2,3]");
    }

    #[test]
    fn hash_and_eq_are_structural() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Configuration::new(vec![1, 2]));
        assert!(set.contains(&Configuration::new(vec![1, 2])));
        assert!(!set.contains(&Configuration::new(vec![2, 1])));
    }
}
