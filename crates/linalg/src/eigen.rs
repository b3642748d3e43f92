//! Symmetric eigendecomposition: Householder tridiagonalization followed by
//! implicit-shift QL with eigenvector accumulation.

use crate::{LinalgError, Matrix, Result, Vector};

/// Eigendecomposition `A = V·diag(λ)·Vᵀ` of a symmetric matrix.
///
/// Householder reflections reduce `A` to a tridiagonal `T = QᵀAQ`
/// (`O(n³)`, once), then implicit-shift QL rotations drive `T`'s
/// sub-diagonal to zero while accumulating `Q` into the eigenvectors. With
/// Wilkinson-style shifts each eigenvalue takes one or two iterations, so
/// the whole decomposition costs a small constant times `n³` — the
/// `tred2`/`tql2` scheme of the EISPACK and JAMA libraries. It serves the
/// small symmetric matrices that arise here: the per-gene Demmler–Reinsch
/// pencils behind GCV, spline penalty matrices, QP Hessians.
///
/// # Example
///
/// ```
/// use cellsync_linalg::Matrix;
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = a.symmetric_eigen()?;
/// let evs = eig.eigenvalues();
/// assert!((evs[0] - 1.0).abs() < 1e-12 && (evs[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricEigen {
    /// Eigenvalues sorted ascending.
    values: Vector,
    /// Orthonormal eigenvectors as columns, ordered to match `values`.
    vectors: Matrix,
    /// QL iterations the decomposition took.
    iterations: usize,
}

impl SymmetricEigen {
    /// QL iterations allowed per eigenvalue, on average, before giving up.
    const MAX_ITERATIONS_PER_EIGENVALUE: usize = 30;

    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] / [`LinalgError::Empty`] for bad shapes.
    /// * [`LinalgError::InvalidArgument`] for non-finite or asymmetric input.
    /// * [`LinalgError::ConvergenceFailed`] if the QL iteration exceeds its
    ///   budget of `30·n` iterations (not observed in practice).
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.is_empty() {
            return Err(LinalgError::Empty);
        }
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "matrix entries must be finite",
            ));
        }
        let scale = a.norm_inf().max(1.0);
        if a.asymmetry()? > 1e-8 * scale {
            return Err(LinalgError::InvalidArgument(
                "matrix must be symmetric for eigendecomposition",
            ));
        }

        let n = a.rows();
        let mut m = a.clone();
        m.symmetrize()?;
        // `m` is symmetric, so its row-major storage is also its
        // column-major storage; both passes below read it column-major,
        // which keeps their inner loops (and the eigenvectors they
        // accumulate, one per storage row) contiguous.
        let q = m.as_mut_slice();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(q, n, &mut d, &mut e);
        let iterations = tridiagonal_ql(
            q,
            n,
            &mut d,
            &mut e,
            Self::MAX_ITERATIONS_PER_EIGENVALUE * n,
        )?;

        // Sort eigenpairs ascending by eigenvalue.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
        let values = Vector::from_fn(n, |i| d[order[i]]);
        let vectors = Matrix::from_fn(n, n, |k, j| q[order[j] * n + k]);
        Ok(SymmetricEigen {
            values,
            vectors,
            iterations,
        })
    }

    /// Eigenvalues sorted ascending.
    pub fn eigenvalues(&self) -> &Vector {
        &self.values
    }

    /// Orthonormal eigenvectors as matrix columns, ordered like
    /// [`SymmetricEigen::eigenvalues`].
    pub fn eigenvectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Number of implicit-shift QL iterations the decomposition took — a
    /// deterministic work count (0 for a matrix that is already diagonal).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Smallest eigenvalue.
    pub fn min_eigenvalue(&self) -> f64 {
        self.values[0]
    }

    /// Largest eigenvalue.
    pub fn max_eigenvalue(&self) -> f64 {
        self.values[self.values.len() - 1]
    }

    /// Spectral condition number `|λ_max| / |λ_min|`; infinite when the
    /// smallest eigenvalue is zero.
    pub fn condition_number(&self) -> f64 {
        let lo = self.min_eigenvalue().abs();
        let hi = self.values.iter().fold(0.0_f64, |acc, &x| acc.max(x.abs()));
        if lo == 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }

    /// Whether all eigenvalues exceed `tol` (positive definiteness check).
    pub fn is_positive_definite(&self, tol: f64) -> bool {
        self.min_eigenvalue() > tol
    }
}

/// Householder reduction of a symmetric matrix to tridiagonal form.
///
/// `q` holds the `n × n` matrix column-major (entry `(i, j)` at
/// `q[i + j·n]`) and only its lower triangle is read. On return `d` is the
/// diagonal of `T = QᵀAQ`, `e[1..]` its sub-diagonal (`e[0] = 0`), and `q`
/// holds `Q`, column-major.
fn tridiagonalize(q: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    let at = |i: usize, j: usize| i + j * n;
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = q[at(n - 1, j)];
    }
    // Annihilate row i left of the sub-diagonal, last row first; the
    // Householder vector of step i is kept in column i (above the
    // diagonal) for the accumulation below, its squared norm in d[i].
    for i in (1..n).rev() {
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            // Row i is already reduced: no reflection.
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = q[at(i - 1, j)];
                q[at(i, j)] = 0.0;
                q[at(j, i)] = 0.0;
            }
        } else {
            for x in &mut d[..i] {
                *x /= scale;
                h += *x * *x;
            }
            let f = d[i - 1];
            let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // p = A·u (lower triangle only), into e.
            for j in 0..i {
                let f = d[j];
                q[at(j, i)] = f;
                let mut g = e[j] + q[at(j, j)] * f;
                for k in (j + 1)..i {
                    g += q[at(k, j)] * d[k];
                    e[k] += q[at(k, j)] * f;
                }
                e[j] = g;
            }
            // w = p/h − (uᵀp / 2h²)·u, then A ← A − u·wᵀ − w·uᵀ.
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let (f, g) = (d[j], e[j]);
                for k in j..i {
                    q[at(k, j)] -= f * e[k] + g * d[k];
                }
                d[j] = q[at(i - 1, j)];
                q[at(i, j)] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the reflections into Q, first reflection innermost.
    for i in 0..n - 1 {
        q[at(n - 1, i)] = q[at(i, i)];
        q[at(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = q[at(k, i + 1)] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += q[at(k, i + 1)] * q[at(k, j)];
                }
                for k in 0..=i {
                    q[at(k, j)] -= g * d[k];
                }
            }
        }
        for k in 0..=i {
            q[at(k, i + 1)] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = q[at(n - 1, j)];
        q[at(n - 1, j)] = 0.0;
    }
    q[at(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` from [`tridiagonalize`],
/// rotating the columns of the column-major `q` along. On return `d` holds
/// the eigenvalues (unsorted) and column `j` of `q` the eigenvector of
/// `d[j]`. Returns the number of QL iterations.
///
/// # Errors
///
/// [`LinalgError::ConvergenceFailed`] once `budget` iterations are spent.
fn tridiagonal_ql(
    q: &mut [f64],
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    budget: usize,
) -> Result<usize> {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut shift = 0.0;
    let mut tst1 = 0.0_f64;
    let mut iterations = 0;
    for l in 0..n {
        // Deflate at the first negligible sub-diagonal entry at or below l.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let small = f64::EPSILON * tst1;
        let mut m = l;
        while m + 1 < n && e[m].abs() > small {
            m += 1;
        }
        while m > l && e[l].abs() > small {
            if iterations == budget {
                return Err(LinalgError::ConvergenceFailed { iterations });
            }
            iterations += 1;
            // Shift by the eigenvalue of the leading 2×2 block nearer d[l].
            let g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let h = g - d[l];
            for x in &mut d[l + 2..] {
                *x -= h;
            }
            shift += h;
            // One QL sweep of plane rotations from m up to l.
            p = d[m];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let el1 = e[l + 1];
            let (mut s, mut s2) = (0.0, 0.0);
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * e[i];
                let h = c * p;
                let r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);
                let (head, tail) = q.split_at_mut((i + 1) * n);
                let col_i = &mut head[i * n..];
                for (a, b) in col_i.iter_mut().zip(&mut tail[..n]) {
                    let bk = *b;
                    *b = s * *a + c * bk;
                    *a = c * *a - s * bk;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
        }
        d[l] += shift;
        e[l] = 0.0;
    }
    Ok(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts `V·diag(λ)·Vᵀ = A`, `VᵀV = I` and ascending eigenvalues.
    fn assert_decomposes(a: &Matrix, eig: &SymmetricEigen) {
        let n = a.rows();
        let v = eig.eigenvectors();
        let d = Matrix::from_diagonal(eig.eigenvalues());
        let recon = v.matmul(&d).unwrap().matmul(&v.transpose()).unwrap();
        assert!((&recon - a).norm_frobenius() <= 1e-12 * (1.0 + a.norm_frobenius()));
        let vtv = v.transpose().matmul(v).unwrap();
        assert!((&vtv - &Matrix::identity(n)).norm_frobenius() <= 1e-13 * n as f64);
        for w in eig.eigenvalues().as_slice().windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[-2.5]]).unwrap();
        let eig = a.symmetric_eigen().unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[-2.5]);
        assert_eq!(eig.eigenvectors().as_slice(), &[1.0]);
        assert_eq!(eig.iterations(), 0);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(4, 4);
        let eig = a.symmetric_eigen().unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[0.0; 4]);
        assert_eq!(eig.iterations(), 0);
        assert_decomposes(&a, &eig);
    }

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        // Every Householder step sees a zero row (`scale == 0`): no
        // reflection, no QL iteration, eigenvalues exact.
        let a = Matrix::from_diagonal(&Vector::from_slice(&[3.0, 1.0, -4.0, 2.0]));
        let eig = a.symmetric_eigen().unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[-4.0, 1.0, 2.0, 3.0]);
        assert_eq!(eig.iterations(), 0);
        // The eigenvectors are the matching unit vectors.
        let expected = [2, 1, 3, 0];
        for (j, &k) in expected.iter().enumerate() {
            assert_eq!(eig.eigenvectors().col(j).as_slice()[k].abs(), 1.0);
        }
        assert_decomposes(&a, &eig);
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = a.symmetric_eigen().unwrap();
        assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-12);
        // Eigenvectors (1, −1)/√2 and (1, 1)/√2, up to sign.
        let v = eig.eigenvectors();
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((v[(0, 0)] + v[(1, 0)]).abs() < 1e-12 && (v[(0, 0)].abs() - h).abs() < 1e-12);
        assert!((v[(0, 1)] - v[(1, 1)]).abs() < 1e-12 && (v[(0, 1)].abs() - h).abs() < 1e-12);
        assert_decomposes(&a, &eig);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ])
        .unwrap();
        let eig = a.symmetric_eigen().unwrap();
        assert!(eig.iterations() > 0);
        assert_decomposes(&a, &eig);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[&[5.0, 2.0], &[2.0, 1.0]]).unwrap();
        let eig = a.symmetric_eigen().unwrap();
        assert!((eig.eigenvalues().sum() - a.trace().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn positive_definite_detection() {
        let spd = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(spd.symmetric_eigen().unwrap().is_positive_definite(1e-12));
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(!indef.symmetric_eigen().unwrap().is_positive_definite(1e-12));
    }

    #[test]
    fn condition_number() {
        let a = Matrix::from_diagonal(&Vector::from_slice(&[1.0, 100.0]));
        let eig = a.symmetric_eigen().unwrap();
        assert!((eig.condition_number() - 100.0).abs() < 1e-9);
        let z = Matrix::from_diagonal(&Vector::from_slice(&[0.0, 1.0]));
        assert!(z
            .symmetric_eigen()
            .unwrap()
            .condition_number()
            .is_infinite());
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            a.symmetric_eigen(),
            Err(LinalgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn rejects_non_finite_and_bad_shapes() {
        let mut nan = Matrix::identity(3);
        nan[(1, 2)] = f64::NAN;
        assert!(matches!(
            nan.symmetric_eigen(),
            Err(LinalgError::InvalidArgument(_))
        ));
        let mut inf = Matrix::identity(2);
        inf[(0, 0)] = f64::INFINITY;
        assert!(matches!(
            inf.symmetric_eigen(),
            Err(LinalgError::InvalidArgument(_))
        ));
        assert!(matches!(
            Matrix::zeros(2, 3).symmetric_eigen(),
            Err(LinalgError::NotSquare { shape: (2, 3) })
        ));
        assert!(matches!(
            Matrix::zeros(0, 0).symmetric_eigen(),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn identity_eigen() {
        // All eigenvalues tied: the output basis must still be orthonormal.
        let a = Matrix::identity(5);
        let eig = a.symmetric_eigen().unwrap();
        for &v in eig.eigenvalues().iter() {
            assert!((v - 1.0).abs() < 1e-14);
        }
        assert_decomposes(&a, &eig);
    }
}
