//! Inter-service communication cost matrices.

use crate::error::ModelError;
use std::fmt;

/// Per-tuple transfer costs `t_{i,j}` between service hosts.
///
/// The matrix is square and possibly **asymmetric** (`t_{i,j} ≠ t_{j,i}`),
/// matching the paper's decentralized setting where services stream tuples
/// directly to one another. The diagonal is stored but never consulted by
/// the cost model (a plan never transfers a tuple from a service to itself).
///
/// When tuples move in blocks, `t_{i,j}` is the block transfer cost divided
/// by the number of tuples per block (§2 of the paper); the
/// [simulator](../dsq_simulator/index.html) models the block mechanics
/// explicitly and validates this amortization.
///
/// # Examples
///
/// ```
/// use dsq_core::CommMatrix;
///
/// let comm = CommMatrix::from_fn(3, |i, j| (i as f64 - j as f64).abs() * 0.1);
/// assert_eq!(comm.len(), 3);
/// assert_eq!(comm.get(0, 2), 0.2);
/// assert!(comm.is_symmetric(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CommMatrix {
    n: usize,
    data: Vec<f64>, // row-major n×n
}

impl CommMatrix {
    /// Builds an `n × n` matrix by evaluating `f(i, j)` for every pair.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a NaN, infinite, or negative value.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let v = f(i, j);
                assert!(
                    v.is_finite() && v >= 0.0,
                    "transfer cost t[{i}][{j}] must be finite and non-negative, got {v}"
                );
                data.push(v);
            }
        }
        CommMatrix { n, data }
    }

    /// A matrix where every off-diagonal transfer costs `t` — the
    /// *centralized / homogeneous* special case solved in polynomial time
    /// by Srivastava et al. (VLDB'06). The diagonal is zero.
    ///
    /// # Panics
    ///
    /// Panics if `t` is NaN, infinite, or negative.
    pub fn uniform(n: usize, t: f64) -> Self {
        CommMatrix::from_fn(n, |i, j| if i == j { 0.0 } else { t })
    }

    /// A matrix of zeros (communication-free queries).
    pub fn zeros(n: usize) -> Self {
        CommMatrix { n, data: vec![0.0; n * n] }
    }

    /// Builds a matrix from rows.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DimensionMismatch`] if the rows do not form a
    /// square matrix, and [`ModelError::InvalidValue`] if any entry is NaN,
    /// infinite, or negative.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, ModelError> {
        let n = rows.len();
        let mut data = Vec::with_capacity(n * n);
        for row in &rows {
            if row.len() != n {
                return Err(ModelError::DimensionMismatch {
                    what: "communication matrix row",
                    expected: n,
                    found: row.len(),
                });
            }
            for &v in row {
                if !v.is_finite() || v < 0.0 {
                    return Err(ModelError::InvalidValue { what: "transfer cost", value: v });
                }
                data.push(v);
            }
        }
        Ok(CommMatrix { n, data })
    }

    /// Builds a matrix from its `n × n` row-major values, with the value
    /// check of [`CommMatrix::from_rows`] in the same (row-major) order.
    ///
    /// # Panics
    ///
    /// Panics unless `data` holds exactly `n * n` values.
    pub(crate) fn from_row_major(n: usize, data: Vec<f64>) -> Result<Self, ModelError> {
        assert_eq!(data.len(), n * n, "a {n}×{n} matrix needs {} values", n * n);
        if let Some(&value) = data.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(ModelError::InvalidValue { what: "transfer cost", value });
        }
        Ok(CommMatrix { n, data })
    }

    /// The number of services (matrix dimension).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is zero-dimensional.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Per-tuple transfer cost from service `i` to service `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of range for {}×{0} matrix", self.n);
        self.data[i * self.n + j]
    }

    /// Sets the transfer cost from `i` to `j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or the value is NaN, infinite, or
    /// negative.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of range for {}×{0} matrix", self.n);
        assert!(
            value.is_finite() && value >= 0.0,
            "transfer cost must be finite and non-negative, got {value}"
        );
        self.data[i * self.n + j] = value;
    }

    /// Row `i` as a slice (`t_{i,0} .. t_{i,n-1}`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n, "row {i} out of range for {}×{0} matrix", self.n);
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Largest off-diagonal entry, or 0 for matrices smaller than 2×2.
    pub fn max_off_diagonal(&self) -> f64 {
        self.off_diagonal().fold(0.0, f64::max)
    }

    /// Smallest off-diagonal entry, or 0 for matrices smaller than 2×2.
    pub fn min_off_diagonal(&self) -> f64 {
        let min = self.off_diagonal().fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// Mean of the off-diagonal entries, or 0 for matrices smaller than 2×2.
    ///
    /// This is the natural "uniform equivalent" communication cost used when
    /// comparing against the centralized optimum of Srivastava et al.
    pub fn mean_off_diagonal(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let count = (self.n * (self.n - 1)) as f64;
        self.off_diagonal().sum::<f64>() / count
    }

    /// Whether `|t_{i,j} - t_{j,i}| <= tol` for all pairs.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        (0..self.n).all(|i| (i + 1..self.n).all(|j| (self.get(i, j) - self.get(j, i)).abs() <= tol))
    }

    fn off_diagonal(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.n)
            .flat_map(move |i| (0..self.n).filter(move |&j| j != i).map(move |j| self.get(i, j)))
    }
}

impl fmt::Display for CommMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:8.4}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_and_get() {
        let m = CommMatrix::from_fn(3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(2, 1), 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn uniform_has_zero_diagonal() {
        let m = CommMatrix::uniform(4, 2.5);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..4 {
                if i != j {
                    assert_eq!(m.get(i, j), 2.5);
                }
            }
        }
        assert!(m.is_symmetric(0.0));
    }

    #[test]
    fn from_rows_validates_shape() {
        let err = CommMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0]]).unwrap_err();
        assert!(matches!(err, ModelError::DimensionMismatch { .. }));
        let err = CommMatrix::from_rows(vec![vec![0.0, -1.0], vec![1.0, 0.0]]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidValue { .. }));
        let ok = CommMatrix::from_rows(vec![vec![0.0, 1.0], vec![2.0, 0.0]]).unwrap();
        assert_eq!(ok.get(1, 0), 2.0);
        assert!(!ok.is_symmetric(0.5));
        assert!(ok.is_symmetric(1.0));
    }

    #[test]
    fn off_diagonal_statistics() {
        let m = CommMatrix::from_rows(vec![vec![9.0, 1.0], vec![3.0, 9.0]]).unwrap();
        assert_eq!(m.max_off_diagonal(), 3.0);
        assert_eq!(m.min_off_diagonal(), 1.0);
        assert_eq!(m.mean_off_diagonal(), 2.0);
    }

    #[test]
    fn degenerate_sizes() {
        let m = CommMatrix::zeros(1);
        assert_eq!(m.max_off_diagonal(), 0.0);
        assert_eq!(m.min_off_diagonal(), 0.0);
        assert_eq!(m.mean_off_diagonal(), 0.0);
        assert!(CommMatrix::zeros(0).is_empty());
    }

    #[test]
    fn set_updates_value() {
        let mut m = CommMatrix::zeros(2);
        m.set(0, 1, 4.0);
        assert_eq!(m.get(0, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        CommMatrix::zeros(2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_fn_rejects_nan() {
        CommMatrix::from_fn(2, |_, _| f64::NAN);
    }

    #[test]
    fn display_renders_rows() {
        let m = CommMatrix::uniform(2, 1.0);
        let text = m.to_string();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("1.0000"));
    }
}
