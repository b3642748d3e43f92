//! The one GCV λ-selection rule shared by every solve path.
//!
//! The spectral scan of dense engines and the Woodbury scan of banded
//! engines differ only in how they score a single λ, so each hands
//! [`select_gcv`] a scorer closure and the rule itself lives here.

use cellsync_runtime::CancelToken;

use crate::deconvolve::check_cancel;
use crate::{DeconvError, Result};

/// The GCV statistic `GCV = (rss/m) / (1 − edf/m)²` of a linear smoother
/// with effective degrees of freedom `edf` and weighted residual sum of
/// squares `rss` on `m` measurements.
///
/// GCV is degenerate once the smoother saturates (`edf → m` makes both
/// numerator and denominator vanish — guaranteed when the basis is at
/// least as large as the measurement count and λ → 0); smoothers whose
/// effective degrees of freedom exceed 99 % of the data score `+∞`, so
/// the scan picks the best non-interpolating fit.
pub(crate) fn gcv_statistic(rss: f64, edf: f64, m: f64) -> f64 {
    let edf_ratio = edf / m;
    if edf_ratio > 0.99 {
        return f64::INFINITY;
    }
    let denom = 1.0 - edf_ratio;
    (rss / m) / (denom * denom)
}

/// Selects λ by GCV: scores every grid point, takes the largest λ whose
/// score is within 5 % of the minimum, then refines an interior choice
/// by golden-section search in `log₁₀λ` between its grid neighbours.
///
/// The 5 % rule is the standard mitigation for GCV's undersmoothing:
/// when the basis is rich relative to the measurement count the score
/// can dip spuriously at the λ → 0 boundary while the genuine minimum
/// sits in the interior, so the most parsimonious fit among near-ties
/// wins. A boundary choice keeps its grid value. The refinement (tolerance
/// `1e-3`, at most 60 iterations) scores a failing probe `+∞` and is kept
/// only when it scores no worse than the grid choice.
///
/// Returns the selected λ and the `(λ, score)` trail: every grid point in
/// order, plus the refined point when it was kept.
///
/// # Errors
///
/// * [`DeconvError::DeadlineExceeded`] once `cancel` fires (polled before
///   every grid point).
/// * The first error `score` returns at a grid point.
/// * [`DeconvError::InvalidConfig`] when no grid point has a comparable
///   score (an empty grid, or NaN everywhere).
pub(crate) fn select_gcv(
    grid: &[f64],
    cancel: Option<&CancelToken>,
    mut score: impl FnMut(f64) -> Result<f64>,
) -> Result<(f64, Vec<(f64, f64)>)> {
    let mut scores = Vec::with_capacity(grid.len() + 1);
    for &l in grid {
        check_cancel(cancel)?;
        scores.push((l, score(l)?));
    }
    let s_min = scores.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    let threshold = s_min + 0.05 * s_min.abs() + f64::MIN_POSITIVE;
    let (best_idx, best) = scores
        .iter()
        .copied()
        .enumerate()
        .rfind(|(_, (_, s))| *s <= threshold)
        .ok_or(DeconvError::InvalidConfig(
            "gcv found no admissible lambda on the grid",
        ))?;
    let lambda = if best_idx > 0 && best_idx + 1 < scores.len() {
        let lo = scores[best_idx - 1].0.log10();
        let hi = scores[best_idx + 1].0.log10();
        match cellsync_opt::golden_section(
            |log_l| score(10f64.powf(log_l)).unwrap_or(f64::INFINITY),
            lo,
            hi,
            1e-3,
            60,
        ) {
            Ok((log_l, s)) if s <= best.1 => {
                let l = 10f64.powf(log_l);
                scores.push((l, s));
                l
            }
            _ => best.0,
        }
    } else {
        best.0
    };
    Ok((lambda, scores))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: [f64; 5] = [1e-2, 1e-1, 1.0, 10.0, 100.0];

    /// Looks `l` up on [`GRID`]; off-grid probes (the refinement) fail.
    fn on_grid(values: [f64; 5]) -> impl FnMut(f64) -> Result<f64> {
        move |l| match GRID.iter().position(|&x| x == l) {
            Some(i) => Ok(values[i]),
            None => Err(DeconvError::InvalidConfig("off-grid probe")),
        }
    }

    #[test]
    fn near_tie_picks_the_largest_lambda_within_five_percent() {
        let (lambda, trail) = select_gcv(&GRID, None, on_grid([2.0, 1.0, 1.5, 1.04, 2.0])).unwrap();
        assert_eq!(lambda, 10.0);
        assert_eq!(trail.len(), GRID.len(), "failed probes add no trail point");
        // Just outside the 5 % band, the minimizer itself wins.
        let (lambda, _) = select_gcv(&GRID, None, on_grid([2.0, 1.0, 1.5, 1.06, 2.0])).unwrap();
        assert_eq!(lambda, 0.1);
    }

    #[test]
    fn interior_minimum_is_refined() {
        let parabola = |l: f64| Ok((l.log10() - 0.3).powi(2));
        let (lambda, trail) = select_gcv(&GRID, None, parabola).unwrap();
        assert_eq!(trail.len(), GRID.len() + 1);
        assert_eq!(trail.last().unwrap().0, lambda);
        assert!((lambda.log10() - 0.3).abs() < 1e-2, "refined to {lambda}");
    }

    #[test]
    fn boundary_minimum_is_not_refined() {
        let mut calls = 0;
        let decreasing = |l: f64| {
            calls += 1;
            Ok(1.0 / l)
        };
        let (lambda, trail) = select_gcv(&GRID, None, decreasing).unwrap();
        assert_eq!(lambda, 100.0);
        assert_eq!(trail.len(), GRID.len());
        assert_eq!(calls, GRID.len(), "no refinement probes at the boundary");
    }

    #[test]
    fn refinement_that_scores_worse_is_discarded() {
        let mut probes = 0;
        // Off the grid the score is uniformly worse than the grid minimum.
        let score = |l: f64| {
            let grid = GRID.contains(&l);
            probes += usize::from(!grid);
            let base = (l.log10() - 0.3).powi(2);
            Ok(if grid { base } else { base + 1.0 })
        };
        let (lambda, trail) = select_gcv(&GRID, None, score).unwrap();
        assert!(probes > 0, "the refinement ran");
        assert_eq!(lambda, 1.0);
        assert_eq!(trail.len(), GRID.len());
    }

    #[test]
    fn grid_point_error_propagates() {
        let mut calls = 0;
        let failing = |_l: f64| {
            calls += 1;
            if calls == 3 {
                Err(DeconvError::InvalidConfig("boom"))
            } else {
                Ok(1.0)
            }
        };
        let err = select_gcv(&GRID, None, failing).unwrap_err();
        assert!(matches!(err, DeconvError::InvalidConfig("boom")), "{err:?}");
        assert_eq!(calls, 3, "the scan stops at the failing point");
    }

    #[test]
    fn fired_cancel_token_returns_deadline_exceeded() {
        let token = CancelToken::new();
        token.cancel();
        let mut calls = 0;
        let err = select_gcv(&GRID, Some(&token), |_| {
            calls += 1;
            Ok(1.0)
        })
        .unwrap_err();
        assert!(matches!(err, DeconvError::DeadlineExceeded), "{err:?}");
        assert_eq!(calls, 0);
    }

    #[test]
    fn statistic_guards_saturated_smoothers() {
        assert_eq!(gcv_statistic(1.0, 9.95, 10.0), f64::INFINITY);
        assert_eq!(gcv_statistic(2.0, 5.0, 10.0), (2.0 / 10.0) / 0.25);
    }
}
