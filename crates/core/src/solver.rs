//! The workspace-based λ-path solver core behind [`crate::Deconvolver`].
//!
//! The λ-selection scan of paper eq. 5 evaluates the GCV score of the
//! penalized smoother `S(λ) = B(BᵀB + λΩ + εI)⁻¹Bᵀ` at dozens of λ
//! values (grid scan plus golden-section refinement) for every fitted
//! series. Re-factorizing the penalized normal matrix per λ costs
//! `O(basis³)` each; this module factors **once** per (design, weights)
//! pair instead:
//!
//! 1. Reduce out the equality constraints: `α = Z·β` with `Z` an
//!    orthonormal basis of `null(E)` ([`ReducedOperators`]), giving the
//!    reduced design `A_r = A·Z` and penalty `Ω_r = ZᵀΩZ`.
//! 2. Decompose the symmetric-definite pencil `(Ω_r, G_r + μΩ_r)` with
//!    `G_r = A_rᵀW²A_r + εI` and a fixed conditioning anchor μ once
//!    ([`cellsync_linalg::GeneralizedSymmetricEigen`]): a basis `T` with
//!    `Tᵀ(G_r + μΩ_r)T = I`, `TᵀΩ_rT = diag(γ)` — the Demmler–Reinsch
//!    basis of the weighted smoother ([`SpectralPath`], which documents
//!    why the anchor is needed and why the shifted algebra is exact).
//! 3. Every λ then costs a diagonal shrinkage: the smoother trace is the
//!    `O(r)` sum `Σᵢ effᵢ/(1 + (λ−μ)γᵢ)` and the residual needs one
//!    `O(r²)` basis rotation plus one `O(m·r)` prediction — no
//!    factorization, no allocation.
//!
//! [`FitWorkspace`] carries the per-thread scratch (shrinkage buffers,
//! QP workspace, assembled Hessian) that [`crate::Deconvolver::fit_many`]
//! hands to each worker via
//! [`cellsync_runtime::Pool::par_map_with`]. See `docs/SOLVER.md` for the
//! full derivation.

use cellsync_linalg::{CholeskyDecomposition, GeneralizedSymmetricEigen, Matrix, Vector};
use cellsync_opt::QpWorkspace;

use crate::gcv::gcv_statistic;
use crate::{DeconvError, Result};

/// Weight-independent reduced operators, built once per engine.
#[derive(Debug, Clone)]
pub(crate) struct ReducedOperators {
    /// Orthonormal basis `Z` of the equality-constraint null space
    /// (`None` means no equality constraints, i.e. `Z = I`). Consumed by
    /// the warm-hint path (`α = Z·β` lifts the reduced spectral solution
    /// back to coefficient space) and by tests pinning `E·Z = 0`.
    pub(crate) z: Option<Matrix>,
    /// Reduced design `A·Z` (`m × r`; the design itself when `Z = I`).
    pub(crate) a_r: Matrix,
    /// Reduced roughness penalty `ZᵀΩZ` (`r × r`), symmetrized.
    pub(crate) omega_r: Matrix,
}

impl ReducedOperators {
    /// Builds the reduced operators for a design, penalty, and optional
    /// stacked equality rows `E` (the fit then searches `null(E)` only).
    pub(crate) fn new(design: &Matrix, omega: &Matrix, equality: Option<&Matrix>) -> Result<Self> {
        match equality {
            None => Ok(ReducedOperators {
                z: None,
                a_r: design.clone(),
                omega_r: omega.clone(),
            }),
            Some(e) => {
                let z = e.transpose().qr()?.null_space_basis(1e-12).ok_or(
                    DeconvError::InvalidConfig("equality constraints leave no degrees of freedom"),
                )?;
                let a_r = design.matmul(&z)?;
                let mut omega_r = z.transpose().matmul(&omega.matmul(&z)?)?;
                omega_r.symmetrize()?;
                Ok(ReducedOperators {
                    z: Some(z),
                    a_r,
                    omega_r,
                })
            }
        }
    }

    /// Dimension `r` of the reduced coefficient space.
    pub(crate) fn reduced_dim(&self) -> usize {
        self.a_r.cols()
    }
}

/// The factor-once spectral decomposition of the reduced pencil for one
/// weight vector — everything λ-independent about the GCV smoother.
///
/// The decomposition is anchored at a fixed interior shift μ: the pencil
/// is `(Ω_r, G_r + μΩ_r)` rather than `(Ω_r, G_r)`, because `G_r` alone
/// is numerically singular whenever the basis outnumbers the
/// measurements (its small eigenvalues collapse onto the tiny ridge ε,
/// condition number ~ `‖AᵀA‖/ε`), which poisons the reduction to
/// ordinary-eigenvalue form. Adding `μΩ_r` fills exactly the directions
/// `G_r` is blind to (rough ones), so the metric stays well-conditioned;
/// `μ = tr(G_r)/tr(Ω_r)` balances the two operators scale-free. The
/// shifted algebra is exact, not an approximation:
/// `K(λ) = G_r + λΩ_r = (G_r + μΩ_r) + (λ−μ)Ω_r`, so with
/// `Tᵀ(G_r + μΩ_r)T = I` and `TᵀΩ_rT = diag(γ)`,
/// `K(λ)⁻¹ = T·diag(1/(1 + (λ−μ)γᵢ))·Tᵀ` — and the denominators equal
/// `(g + λω)/(g + μω) > 0` per eigendirection, positive for every λ > 0.
#[derive(Debug, Clone)]
pub(crate) struct SpectralPath {
    /// Generalized eigenvalues γ ∈ [0, 1/μ), ascending (roughness per
    /// unit of shifted data-fit in each Demmler–Reinsch direction).
    gamma: Vec<f64>,
    /// Basis `T` (`r × r`): `Tᵀ(G_r + μΩ_r)T = I`, `TᵀΩ_rT = diag(γ)`.
    t: Matrix,
    /// Per-direction effective data mass `effᵢ = ‖W·A_r·tᵢ‖²` — the
    /// diagonal of `TᵀBᵀBT`, computed directly (no cancellation).
    eff: Vec<f64>,
    /// The anchor shift μ of the pencil metric.
    mu: f64,
}

impl SpectralPath {
    /// Decomposes the pencil for `weights` (`1/σ` per measurement) and
    /// ridge `ε`.
    pub(crate) fn new(ops: &ReducedOperators, weights: &[f64], ridge: f64) -> Result<Self> {
        let r = ops.reduced_dim();
        let m = ops.a_r.rows();
        let mut g = Matrix::zeros(r, r);
        ops.a_r.weighted_gram_into(weights, &mut g)?;
        for i in 0..r {
            g[(i, i)] += ridge;
        }
        // Scale-free anchor: equal-trace balance of Gram and penalty.
        // A (reduced) penalty with no mass means a λ-independent smoother;
        // μ = 0 then degenerates gracefully (γ ≈ 0, no shift needed).
        let omega_trace = ops.omega_r.trace()?;
        let mu = if omega_trace > 0.0 {
            g.trace()? / omega_trace
        } else {
            0.0
        };
        if mu > 0.0 {
            for i in 0..r {
                for j in 0..r {
                    g[(i, j)] += mu * ops.omega_r[(i, j)];
                }
            }
        }
        let pencil = GeneralizedSymmetricEigen::new(&ops.omega_r, &g)?;
        let t = pencil.vectors().clone();
        let gamma = pencil.eigenvalues().as_slice().to_vec();
        let mut eff = Vec::with_capacity(r);
        for j in 0..r {
            let mut norm_sq = 0.0;
            for (i, &wi) in weights.iter().enumerate().take(m) {
                let row = ops.a_r.row(i);
                let mut dot = 0.0;
                for (k, &a) in row.iter().enumerate() {
                    dot += a * t[(k, j)];
                }
                let v = wi * dot;
                norm_sq += v * v;
            }
            eff.push(norm_sq);
        }
        Ok(SpectralPath { gamma, t, eff, mu })
    }

    /// Dimension `r` of the reduced coefficient space.
    pub(crate) fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// The shrink factor of eigendirection `i` at `lambda`:
    /// `1/(1 + (λ−μ)γᵢ) = (gᵢ + μωᵢ)/(gᵢ + λωᵢ)`, in `(0, 1 + μγᵢ]`.
    fn shrink(&self, lambda: f64, i: usize) -> f64 {
        1.0 / (1.0 + (lambda - self.mu) * self.gamma[i])
    }

    /// The reduced-space **unconstrained** solution at `lambda`:
    /// `β = T·(zproj ⊙ s(λ))` — the smoother's own minimizer, used as
    /// the deterministic warm hint for the constrained QP (when it is
    /// feasible, the QP terminates after one multiplier check).
    /// `d`/`beta` are caller scratch; the result lands in `beta`.
    pub(crate) fn reduced_solution(
        &self,
        zproj: &Vector,
        lambda: f64,
        d: &mut Vector,
        beta: &mut Vector,
    ) -> Result<()> {
        for i in 0..self.dim() {
            d[i] = zproj[i] * self.shrink(lambda, i);
        }
        self.t.matvec_into(d, beta)?;
        Ok(())
    }

    /// Projects the data onto the Demmler–Reinsch basis:
    /// `zproj = Tᵀ·A_rᵀ·W²·g` — the once-per-series setup for the λ scan.
    /// `w2g`/`rhs_r` are caller scratch (overwritten).
    pub(crate) fn project_series(
        &self,
        ops: &ReducedOperators,
        weights: &[f64],
        g: &[f64],
        w2g: &mut Vector,
        rhs_r: &mut Vector,
        zproj: &mut Vector,
    ) -> Result<()> {
        for (w2, (&wi, &gi)) in w2g
            .as_mut_slice()
            .iter_mut()
            .zip(weights.iter().zip(g.iter()))
        {
            *w2 = wi * wi * gi;
        }
        ops.a_r.tr_matvec_into(w2g, rhs_r)?;
        self.t.tr_matvec_into(rhs_r, zproj)?;
        Ok(())
    }

    /// Generalized cross validation score of the (equality-reduced)
    /// smoother at one λ:
    /// `GCV(λ) = (‖y − ŷ(λ)‖²/M) / (1 − tr S(λ)/M)²`, evaluated from the
    /// spectral decomposition — `O(r)` for the trace, one `O(r²)` basis
    /// rotation and one `O(m·r)` prediction for the residual; no
    /// factorization and no allocation (`d`/`beta`/`u` are caller
    /// scratch). Saturated smoothers score `+∞` ([`gcv_statistic`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gcv_score(
        &self,
        ops: &ReducedOperators,
        weights: &[f64],
        g: &[f64],
        zproj: &Vector,
        lambda: f64,
        d: &mut Vector,
        beta: &mut Vector,
        u: &mut Vector,
    ) -> Result<f64> {
        let m = g.len() as f64;
        let r = self.dim();
        let mut trace = 0.0;
        for i in 0..r {
            let shrink = self.shrink(lambda, i);
            d[i] = zproj[i] * shrink;
            trace += self.eff[i] * shrink;
        }
        // Residual of the unconstrained-in-β smoother at this λ.
        self.t.matvec_into(d, beta)?;
        ops.a_r.matvec_into(beta, u)?;
        let mut rss = 0.0;
        for ((&gi, &ui), &wi) in g.iter().zip(u.iter()).zip(weights.iter()) {
            let resid = wi * (gi - ui);
            rss += resid * resid;
        }
        Ok(gcv_statistic(rss, trace, m))
    }
}

/// Reusable per-thread scratch for [`crate::Deconvolver`] fits.
///
/// One workspace serves any number of sequential fits on engines of any
/// size (buffers re-size lazily); [`crate::Deconvolver::fit_many`] builds
/// one per pool worker. Fit results are independent of the workspace's
/// history — every fit fully re-initializes the state it reads — which is
/// what keeps batch results bit-identical at any thread count.
#[derive(Debug, Clone, Default)]
pub struct FitWorkspace {
    /// Active-set QP scratch (cached Hessian factor, warm hints).
    pub(crate) qp: QpWorkspace,
    /// Cholesky storage for the unconstrained solve path.
    pub(crate) chol: Option<CholeskyDecomposition>,
    /// Per-measurement weights `1/σ`.
    pub(crate) weights: Vec<f64>,
    /// `W²·g` (m).
    pub(crate) w2g: Vector,
    /// `A_rᵀW²g` (r).
    pub(crate) rhs_r: Vector,
    /// Demmler–Reinsch projection of the data (r).
    pub(crate) zproj: Vector,
    /// Shrunk spectral coordinates (r).
    pub(crate) d: Vector,
    /// Reduced coefficients `T·d` (r).
    pub(crate) beta: Vector,
    /// Unweighted prediction `A_r·β` (m).
    pub(crate) u: Vector,
    /// Assembled QP Hessian (n × n).
    pub(crate) h: Matrix,
    /// Assembled QP linear term (n).
    pub(crate) c: Vector,
}

impl FitWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        FitWorkspace::default()
    }

    /// Ensures the vector buffers match the engine's measurement count
    /// `m`, full basis size `n`, and reduced dimension `r`.
    pub(crate) fn ensure(&mut self, m: usize, n: usize, r: usize) {
        if self.w2g.len() != m {
            self.w2g = Vector::zeros(m);
            self.u = Vector::zeros(m);
        }
        if self.rhs_r.len() != r {
            self.rhs_r = Vector::zeros(r);
            self.zproj = Vector::zeros(r);
            self.d = Vector::zeros(r);
            self.beta = Vector::zeros(r);
        }
        if self.c.len() != n {
            self.c = Vector::zeros(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_design() -> (Matrix, Matrix) {
        // 8 measurements, 5 basis functions, a smooth synthetic kernel.
        let a = Matrix::from_fn(8, 5, |i, j| {
            let t = i as f64 / 7.0;
            let phi = j as f64 / 4.0;
            (-((phi - t) * (phi - t)) / 0.1).exp() + 0.1
        });
        // A synthetic SPD-ish penalty: second-difference Gram.
        let mut omega = Matrix::zeros(5, 5);
        for i in 1..4 {
            omega[(i - 1, i - 1)] += 1.0;
            omega[(i, i)] += 4.0;
            omega[(i + 1, i + 1)] += 1.0;
            omega[(i - 1, i)] -= 2.0;
            omega[(i, i - 1)] -= 2.0;
            omega[(i, i + 1)] -= 2.0;
            omega[(i + 1, i)] -= 2.0;
            omega[(i - 1, i + 1)] += 1.0;
            omega[(i + 1, i - 1)] += 1.0;
        }
        (a, omega)
    }

    /// Dense reference GCV score (the pre-spectral algorithm).
    fn dense_gcv(a: &Matrix, omega: &Matrix, weights: &[f64], g: &[f64], lambda: f64) -> f64 {
        let ridge = 1e-9;
        let m = a.rows();
        let b = Matrix::from_fn(m, a.cols(), |i, j| weights[i] * a[(i, j)]);
        let y = Vector::from_fn(m, |i| weights[i] * g[i]);
        let n = a.cols();
        let mut k = b.gram();
        for i in 0..n {
            for j in 0..n {
                k[(i, j)] += lambda * omega[(i, j)];
            }
            k[(i, i)] += ridge;
        }
        k.symmetrize().unwrap();
        let chol = k.cholesky().unwrap();
        let bty = b.tr_matvec(&y).unwrap();
        let alpha = chol.solve(&bty).unwrap();
        let fitted = b.matvec(&alpha).unwrap();
        let rss = (&fitted - &y).norm2().powi(2);
        let btb = b.gram();
        let x = chol.solve_matrix(&btb).unwrap();
        let trace = x.trace().unwrap();
        let edf_ratio = trace / m as f64;
        if edf_ratio > 0.99 {
            return f64::INFINITY;
        }
        let denom = 1.0 - edf_ratio;
        (rss / m as f64) / (denom * denom)
    }

    #[test]
    fn spectral_gcv_matches_dense_reference() {
        let (a, omega) = toy_design();
        let ops = ReducedOperators::new(&a, &omega, None).unwrap();
        let weights = [1.0, 0.5, 2.0, 1.0, 1.5, 0.8, 1.0, 1.2];
        let g: Vec<f64> = (0..8).map(|i| 1.0 + (i as f64 * 0.8).sin()).collect();
        let path = SpectralPath::new(&ops, &weights, 1e-9).unwrap();
        let mut ws = FitWorkspace::new();
        ws.ensure(8, 5, 5);
        path.project_series(
            &ops,
            &weights,
            &g,
            &mut ws.w2g,
            &mut ws.rhs_r,
            &mut ws.zproj,
        )
        .unwrap();
        for &lambda in &[1e-6, 1e-3, 1e-1, 1.0, 10.0] {
            let spectral = path
                .gcv_score(
                    &ops,
                    &weights,
                    &g,
                    &ws.zproj,
                    lambda,
                    &mut ws.d,
                    &mut ws.beta,
                    &mut ws.u,
                )
                .unwrap();
            let dense = dense_gcv(&a, &omega, &weights, &g, lambda);
            assert!(
                (spectral - dense).abs() <= 1e-9 * dense.abs().max(1e-12),
                "λ = {lambda}: spectral {spectral} vs dense {dense}"
            );
        }
    }

    #[test]
    fn nullspace_reduction_annihilates_equalities() {
        let (a, omega) = toy_design();
        let e =
            Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0, 1.0], &[1.0, 0.0, -1.0, 0.0, 1.0]]).unwrap();
        let ops = ReducedOperators::new(&a, &omega, Some(&e)).unwrap();
        assert_eq!(ops.reduced_dim(), 3);
        let z = ops.z.as_ref().unwrap();
        assert!(e.matmul(z).unwrap().norm_frobenius() < 1e-12);
        // Reduced operators agree with explicit projection.
        assert!(
            (&ops.a_r - &a.matmul(z).unwrap()).norm_frobenius() < 1e-14,
            "reduced design mismatch"
        );
        // The reduced penalty stays symmetric PSD.
        assert!(ops.omega_r.asymmetry().unwrap() == 0.0);
        let eig = ops.omega_r.symmetric_eigen().unwrap();
        assert!(eig.min_eigenvalue() > -1e-10);
    }

    #[test]
    fn trace_decreases_with_lambda() {
        // The effective degrees of freedom must shrink monotonically as λ
        // grows — the spectral trace formula makes this structural.
        let (a, omega) = toy_design();
        let ops = ReducedOperators::new(&a, &omega, None).unwrap();
        let weights = vec![1.0; 8];
        let path = SpectralPath::new(&ops, &weights, 1e-9).unwrap();
        let trace_at = |lambda: f64| -> f64 {
            (0..path.dim())
                .map(|i| path.eff[i] * path.shrink(lambda, i))
                .sum()
        };
        let mut previous = trace_at(1e-9);
        for &lambda in &[1e-6, 1e-3, 1.0, 1e3] {
            let current = trace_at(lambda);
            assert!(current <= previous + 1e-12, "trace rose at λ = {lambda}");
            previous = current;
        }
    }
}
