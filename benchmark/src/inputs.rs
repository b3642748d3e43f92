//! Seeded input generation. The program under test receives only what
//! these functions produce; the same seed gives bit-identical inputs.

use cellsync::{DeconvError, FitRequest, ForwardModel, PhaseProfile};
use cellsync_popsim::PhaseKernel;
use cellsync_stats::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Relative Gaussian measurement noise on every gene.
pub const NOISE_FRACTION: f64 = 0.08;

/// Phase samples of each true profile (and of each recovered one).
pub const PROFILE_GRID: usize = 300;

/// A per-purpose RNG seed derived from the workload seed (SplitMix64
/// finalizer), so that the population, the genes and the request mix
/// draw from independent streams.
pub fn stream(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream tags for [`stream`].
pub mod purpose {
    /// The simulated population.
    pub const POPULATION: u64 = 1;
    /// Gene peak phases and measurement noise.
    pub const GENES: u64 = 2;
    /// Served-request family choice.
    pub const FAMILIES: u64 = 3;
    /// The sample of genes re-fitted one by one as a check.
    pub const SAMPLE: u64 = 4;
}

/// Synthetic genes measured through one kernel: cell-cycle bumps whose
/// peak phases are drawn at random (not swept in order, which would
/// cluster the expensive fits), forward-convolved and measured with
/// [`NOISE_FRACTION`] relative noise. Each gene carries its σ.
#[derive(Debug, Clone)]
pub struct Genes {
    /// Noisy population series, one per gene.
    pub series: Vec<Vec<f64>>,
    /// Per-measurement standard deviations.
    pub sigmas: Vec<Vec<f64>>,
    /// True single-cell profiles.
    pub truths: Vec<PhaseProfile>,
    /// True peak phases.
    pub peaks: Vec<f64>,
}

impl Genes {
    /// Generates `n` genes through `kernel` from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates forward-model and noise errors.
    pub fn generate(kernel: &PhaseKernel, n: usize, seed: u64) -> Result<Genes, DeconvError> {
        let forward = ForwardModel::new(kernel.clone());
        let noise = NoiseModel::RelativeGaussian {
            fraction: NOISE_FRACTION,
        };
        let mut rng = StdRng::seed_from_u64(stream(seed, purpose::GENES));
        let mut genes = Genes {
            series: Vec::with_capacity(n),
            sigmas: Vec::with_capacity(n),
            truths: Vec::with_capacity(n),
            peaks: Vec::with_capacity(n),
        };
        for _ in 0..n {
            // Peaks inside [0.15, 0.85], where the kernel keeps support
            // over the whole protocol.
            let peak = 0.15 + 0.70 * rng.gen::<f64>();
            let truth = PhaseProfile::from_fn(PROFILE_GRID, move |phi| {
                let d = (phi - peak).abs().min(1.0 - (phi - peak).abs());
                4.0 * (-(d * d) / 0.02).exp() + 0.5
            })?;
            let clean = forward.predict(&truth)?;
            genes.series.push(noise.apply(&clean, &mut rng)?);
            genes.sigmas.push(noise.sigmas(&clean)?);
            genes.truths.push(truth);
            genes.peaks.push(peak);
        }
        Ok(genes)
    }

    /// Number of genes.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether there are no genes.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// The `(series, sigmas)` view `Deconvolver::fit_many` takes.
    pub fn fit_input(&self) -> Vec<(&[f64], Option<&[f64]>)> {
        self.series
            .iter()
            .zip(&self.sigmas)
            .map(|(g, s)| (g.as_slice(), Some(s.as_slice())))
            .collect()
    }

    /// Gene `i` as an owned fit request with its σ.
    pub fn request(&self, i: usize) -> FitRequest {
        FitRequest::new(self.series[i].clone()).with_sigmas(self.sigmas[i].clone())
    }
}

/// For each of `n` served requests, the index of its family among
/// `families`, drawn uniformly from `seed`.
pub fn family_mix(n: usize, families: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(stream(seed, purpose::FAMILIES));
    (0..n).map(|_| rng.gen_range(0..families)).collect()
}

/// `k` distinct gene indices below `n`, drawn from `seed`, ascending.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(stream(seed, purpose::SAMPLE));
    let mut picked: Vec<usize> = Vec::with_capacity(k.min(n));
    while picked.len() < k.min(n) {
        let i = rng.gen_range(0..n);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked
}
