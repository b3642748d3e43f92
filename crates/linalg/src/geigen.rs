//! Generalized symmetric-definite eigendecomposition `A·t = γ·B·t`.

use crate::{LinalgError, Matrix, Result, Vector};

/// Eigendecomposition of the symmetric-definite pencil `(A, B)`:
/// `A·tᵢ = γᵢ·B·tᵢ` with symmetric `A` and symmetric positive definite
/// `B`, computed by the standard reduction `B = L·Lᵀ`,
/// `M = L⁻¹·A·L⁻ᵀ = U·Γ·Uᵀ`, `T = L⁻ᵀ·U`.
///
/// The returned basis `T` simultaneously diagonalizes the pencil:
///
/// ```text
/// Tᵀ·B·T = I          Tᵀ·A·T = diag(γ)
/// ```
///
/// which turns every shifted solve `(B + λA)⁻¹·v` into a diagonal
/// rescaling `T·diag(1/(1 + λγ))·Tᵀ·v` — the factor-once/sweep-cheap
/// trick behind the λ-path GCV scan in `cellsync` (Demmler–Reinsch
/// basis of the smoothing spline).
///
/// # Example
///
/// ```
/// use cellsync_linalg::{GeneralizedSymmetricEigen, Matrix};
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]])?;
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]])?;
/// let pencil = GeneralizedSymmetricEigen::new(&a, &b)?;
/// assert!((pencil.eigenvalues()[0] - 2.0).abs() < 1e-12);
/// assert!((pencil.eigenvalues()[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralizedSymmetricEigen {
    /// Generalized eigenvalues γ, sorted ascending.
    values: Vector,
    /// Columns `tᵢ`: B-orthonormal eigenvectors (`TᵀBT = I`).
    vectors: Matrix,
    /// QL iterations of the reduced symmetric eigenproblem.
    iterations: usize,
}

impl GeneralizedSymmetricEigen {
    /// Decomposes the pencil `(a, b)` with symmetric `a` and SPD `b`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] / [`LinalgError::Empty`] /
    ///   [`LinalgError::ShapeMismatch`] for bad shapes.
    /// * [`LinalgError::InvalidArgument`] for non-finite or asymmetric
    ///   input.
    /// * [`LinalgError::NotPositiveDefinite`] when `b` is not SPD.
    /// * [`LinalgError::ConvergenceFailed`] from the symmetric
    ///   eigensolver's QL iteration (not observed in practice).
    pub fn new(a: &Matrix, b: &Matrix) -> Result<Self> {
        if a.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: a.shape(),
                right: b.shape(),
                op: "generalized eigendecomposition",
            });
        }
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let scale = a.norm_inf().max(1.0);
        if a.asymmetry()? > 1e-8 * scale {
            return Err(LinalgError::InvalidArgument(
                "pencil matrix A must be symmetric",
            ));
        }
        let chol = b.cholesky()?;
        let l = chol.factor();

        // M = L⁻¹·A·L⁻ᵀ, formed transposed as L⁻¹·(L⁻¹·A)ᵀ = Mᵀ; the
        // symmetrization averages the two triangles either way.
        let mut c = a.clone();
        forward_substitute_rows(l, &mut c);
        let mut m = c.transpose();
        forward_substitute_rows(l, &mut m);
        m.symmetrize()?;
        let eig = m.symmetric_eigen()?;

        // T = L⁻ᵀ·U.
        let mut t = eig.eigenvectors().clone();
        back_substitute_rows(l, &mut t);
        Ok(GeneralizedSymmetricEigen {
            values: eig.eigenvalues().clone(),
            vectors: t,
            iterations: eig.iterations(),
        })
    }

    /// Generalized eigenvalues γ, sorted ascending.
    pub fn eigenvalues(&self) -> &Vector {
        &self.values
    }

    /// The simultaneous-diagonalization basis `T` (columns are
    /// B-orthonormal eigenvectors, ordered like
    /// [`GeneralizedSymmetricEigen::eigenvalues`]).
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Dimension of the pencil.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// QL iterations the reduced symmetric eigenproblem took (see
    /// [`crate::SymmetricEigen::iterations`]).
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Overwrites `x` with `L⁻¹·x` for lower-triangular `L`, by forward
/// substitution on whole rows: `rowᵢ ← (rowᵢ − Σ_{k<i} lᵢₖ·rowₖ) / lᵢᵢ`.
fn forward_substitute_rows(l: &Matrix, x: &mut Matrix) {
    let n = x.cols();
    let data = x.as_mut_slice();
    for i in 0..l.rows() {
        let (done, rest) = data.split_at_mut(i * n);
        let row = &mut rest[..n];
        for (k, source) in done.chunks_exact(n).enumerate() {
            let f = l[(i, k)];
            for (t, &s) in row.iter_mut().zip(source) {
                *t -= f * s;
            }
        }
        let d = l[(i, i)];
        for t in row {
            *t /= d;
        }
    }
}

/// Overwrites `x` with `L⁻ᵀ·x` for lower-triangular `L`, by back
/// substitution on whole rows: `rowᵢ ← (rowᵢ − Σ_{k>i} lₖᵢ·rowₖ) / lᵢᵢ`.
fn back_substitute_rows(l: &Matrix, x: &mut Matrix) {
    let n = x.cols();
    let data = x.as_mut_slice();
    for i in (0..l.rows()).rev() {
        let (head, done) = data.split_at_mut((i + 1) * n);
        let row = &mut head[i * n..];
        for (k, source) in done.chunks_exact(n).enumerate() {
            let f = l[(i + 1 + k, i)];
            for (t, &s) in row.iter_mut().zip(source) {
                *t -= f * s;
            }
        }
        let d = l[(i, i)];
        for t in row {
            *t /= d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, shift: f64) -> Matrix {
        let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.9).sin());
        let mut g = a.gram();
        for i in 0..n {
            g[(i, i)] += shift;
        }
        g.symmetrize().unwrap();
        g
    }

    fn sym(n: usize) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) as f64).cos());
        m.symmetrize().unwrap();
        m
    }

    #[test]
    fn identity_metric_reduces_to_symmetric_eigen() {
        let a = sym(4);
        let pencil = GeneralizedSymmetricEigen::new(&a, &Matrix::identity(4)).unwrap();
        let plain = a.symmetric_eigen().unwrap();
        for i in 0..4 {
            assert!((pencil.eigenvalues()[i] - plain.eigenvalues()[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn simultaneous_diagonalization_holds() {
        let a = sym(5);
        let b = spd(5, 3.0);
        let pencil = GeneralizedSymmetricEigen::new(&a, &b).unwrap();
        let t = pencil.vectors();
        // TᵀBT = I.
        let tbt = t.transpose().matmul(&b).unwrap().matmul(t).unwrap();
        assert!(
            (&tbt - &Matrix::identity(5)).norm_frobenius() < 1e-9,
            "TᵀBT error {}",
            (&tbt - &Matrix::identity(5)).norm_frobenius()
        );
        // TᵀAT = diag(γ).
        let tat = t.transpose().matmul(&a).unwrap().matmul(t).unwrap();
        let diag = Matrix::from_diagonal(pencil.eigenvalues());
        assert!((&tat - &diag).norm_frobenius() < 1e-9);
        // A·T = B·T·diag(γ).
        let at = a.matmul(t).unwrap();
        let btd = b.matmul(t).unwrap().matmul(&diag).unwrap();
        assert!((&at - &btd).norm_frobenius() < 1e-9);
    }

    #[test]
    fn shifted_inverse_via_pencil() {
        // (B + λA)⁻¹ v == T·diag(1/(1+λγ))·Tᵀ·v for an SPD-shifted pencil.
        let a = spd(4, 0.5); // PSD penalty stand-in
        let b = spd(4, 2.0);
        let lambda = 0.37;
        let pencil = GeneralizedSymmetricEigen::new(&a, &b).unwrap();
        let t = pencil.vectors();
        let v = Vector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
        let shifted = &b + &a.scaled(lambda);
        let direct = shifted.cholesky().unwrap().solve(&v).unwrap();
        let z = t.tr_matvec(&v).unwrap();
        let d = Vector::from_fn(4, |i| z[i] / (1.0 + lambda * pencil.eigenvalues()[i]));
        let via_pencil = t.matvec(&d).unwrap();
        assert!((&direct - &via_pencil).norm2() < 1e-9);
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let pencil = GeneralizedSymmetricEigen::new(&sym(6), &spd(6, 4.0)).unwrap();
        for w in pencil.eigenvalues().as_slice().windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(pencil.dim(), 6);
    }

    #[test]
    fn spectral_path_pencil_ql_work_is_bounded() {
        // A seeded `SpectralPath`-shaped pencil: the second-difference
        // penalty `Ω = DᵀD` (nullity 2) against `B = AᵀW²A + εI + μΩ` for
        // a 16×18 design with local, smooth support and weights in
        // [0.5, 2), anchored at `μ = tr(AᵀW²A + εI)/tr(Ω)`.
        let mut state: u64 = 7;
        let mut uniform = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        let (m, n) = (16, 18);
        let design = Matrix::from_fn(m, n, |i, k| {
            let centre = (i as f64 + 0.5) * n as f64 / m as f64;
            let u = (k as f64 - centre) / 3.0;
            (-u * u).exp() * (0.5 + uniform())
        });
        let weights: Vec<f64> = (0..m).map(|_| 0.5 + 1.5 * uniform()).collect();
        let d = Matrix::from_fn(n - 2, n, |i, k| match k.wrapping_sub(i) {
            0 | 2 => 1.0,
            1 => -2.0,
            _ => 0.0,
        });
        let omega = d.gram();
        let mut b = Matrix::zeros(n, n);
        design.weighted_gram_into(&weights, &mut b).unwrap();
        for i in 0..n {
            b[(i, i)] += 1e-9;
        }
        let mu = b.trace().unwrap() / omega.trace().unwrap();
        let b = &b + &omega.scaled(mu);

        // A deterministic work count: implicit-shift QL takes one or two
        // iterations per eigenvalue on these pencils (29 here; at most 27
        // over 6000 pencils of 2000-gene genome batches at n = 18), so 2n
        // leaves headroom yet fails once that convergence rate is lost.
        let pencil = GeneralizedSymmetricEigen::new(&omega, &b).unwrap();
        assert!(pencil.iterations() > 0);
        assert!(
            pencil.iterations() <= 2 * n,
            "{} QL iterations for n = {n}",
            pencil.iterations()
        );
    }

    #[test]
    fn input_validation() {
        let a = sym(3);
        // Shape mismatch.
        assert!(GeneralizedSymmetricEigen::new(&a, &Matrix::identity(4)).is_err());
        // Non-SPD metric.
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(GeneralizedSymmetricEigen::new(&sym(2), &indef).is_err());
        // Asymmetric A.
        let asym = Matrix::from_rows(&[&[1.0, 5.0], &[0.0, 1.0]]).unwrap();
        assert!(GeneralizedSymmetricEigen::new(&asym, &Matrix::identity(2)).is_err());
    }
}
