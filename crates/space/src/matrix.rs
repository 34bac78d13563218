//! Flat column-major feature storage.
//!
//! The forest's fit hot path scans one feature column at a time over the
//! rows of a node; a row-major `Vec<Vec<f64>>` makes every such scan a
//! pointer chase through `n` separate heap allocations. [`FeatureMatrix`]
//! stores the encoded features as a structure of arrays — one contiguous
//! `Vec<f64>` per feature column — so column scans are sequential memory
//! traffic and the whole training set lives in `d` allocations instead of
//! `n`. Rows are still addressable (`get`, [`FeatureMatrix::row`]) for the
//! predict path, which walks one row across columns.
//!
//! The matrix is growable ([`FeatureMatrix::push_row`]) and supports the
//! pool's removal pattern ([`FeatureMatrix::swap_remove_row`]), keeping it a
//! drop-in backing store for both the training set and the candidate pool.

/// A dense `n_rows × n_cols` feature matrix stored column-major.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureMatrix {
    cols: Vec<Vec<f64>>,
    n_rows: usize,
}

impl FeatureMatrix {
    /// Creates an empty matrix with `n_cols` feature columns.
    #[must_use]
    pub fn new(n_cols: usize) -> Self {
        Self {
            cols: vec![Vec::new(); n_cols],
            n_rows: 0,
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// `n_cols` is explicit so an empty row set still carries its width.
    ///
    /// # Panics
    /// Panics if any row's length differs from `n_cols`.
    #[must_use]
    pub fn from_rows(n_cols: usize, rows: &[Vec<f64>]) -> Self {
        let mut m = Self {
            cols: vec![Vec::with_capacity(rows.len()); n_cols],
            n_rows: 0,
        };
        for row in rows {
            m.push_row(row);
        }
        m
    }

    /// Builds a matrix from its columns, each holding `n_rows` entries.
    ///
    /// # Panics
    /// Panics if a column's length differs from `n_rows`.
    #[must_use]
    pub fn from_columns(n_rows: usize, cols: Vec<Vec<f64>>) -> Self {
        assert!(
            cols.iter().all(|c| c.len() == n_rows),
            "column length mismatch"
        );
        Self { cols, n_rows }
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// True when the matrix holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// One contiguous feature column, indexable by row.
    ///
    /// # Panics
    /// Panics if `col` is out of range.
    #[must_use]
    pub fn column(&self, col: usize) -> &[f64] {
        &self.cols[col]
    }

    /// The entry at (`row`, `col`).
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.cols[col][row]
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row` does not have exactly `n_cols` entries.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols.len(), "row width mismatch");
        for (col, &v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.n_rows += 1;
    }

    /// Removes row `i` by swapping the last row into its place, returning
    /// the removed row. O(`n_cols`).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn swap_remove_row(&mut self, i: usize) -> Vec<f64> {
        assert!(i < self.n_rows, "row {i} out of range ({})", self.n_rows);
        let row = self.cols.iter_mut().map(|c| c.swap_remove(i)).collect();
        self.n_rows -= 1;
        row
    }

    /// Copies row `i` out as a contiguous slice-backed vector.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> Vec<f64> {
        assert!(i < self.n_rows, "row {i} out of range ({})", self.n_rows);
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Keeps only the rows whose `kept` flag is true, preserving order, and
    /// returns how many rows were removed.
    ///
    /// # Panics
    /// Panics if `kept` does not have exactly `n_rows` entries.
    pub fn retain_rows(&mut self, kept: &[bool]) -> usize {
        assert_eq!(kept.len(), self.n_rows, "keep-mask length mismatch");
        for col in &mut self.cols {
            let mut row = 0;
            col.retain(|_| {
                let keep = kept[row];
                row += 1;
                keep
            });
        }
        let removed = kept.iter().filter(|&&k| !k).count();
        self.n_rows -= removed;
        removed
    }

    /// Converts back to row-major form (diagnostics and tests).
    #[must_use]
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.n_rows).map(|i| self.row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureMatrix {
        FeatureMatrix::from_rows(2, &[vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]])
    }

    #[test]
    fn from_rows_round_trips() {
        let m = sample();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.column(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.column(1), &[10.0, 20.0, 30.0]);
        assert_eq!(m.get(1, 1), 20.0);
        assert_eq!(m.row(2), vec![3.0, 30.0]);
        assert_eq!(
            m.to_rows(),
            vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]]
        );
    }

    #[test]
    fn push_and_swap_remove_mirror_vec_semantics() {
        let mut m = FeatureMatrix::new(2);
        assert!(m.is_empty());
        m.push_row(&[1.0, 10.0]);
        m.push_row(&[2.0, 20.0]);
        m.push_row(&[3.0, 30.0]);
        // swap_remove(0): last row moves into slot 0, like Vec::swap_remove.
        let removed = m.swap_remove_row(0);
        assert_eq!(removed, vec![1.0, 10.0]);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.row(0), vec![3.0, 30.0]);
        assert_eq!(m.row(1), vec![2.0, 20.0]);
    }

    #[test]
    fn retain_rows_preserves_order() {
        let mut m = sample();
        let removed = m.retain_rows(&[true, false, true]);
        assert_eq!(removed, 1);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.to_rows(), vec![vec![1.0, 10.0], vec![3.0, 30.0]]);
    }

    #[test]
    fn empty_matrix_keeps_its_width() {
        let m = FeatureMatrix::from_rows(4, &[]);
        assert_eq!(m.n_cols(), 4);
        assert_eq!(m.n_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_width_is_rejected() {
        let mut m = FeatureMatrix::new(2);
        m.push_row(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_is_rejected() {
        let _ = sample().row(3);
    }
}
