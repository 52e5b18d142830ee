//! References computed apart from the path under test.
//!
//! The dense [`TraditionalConvolver`] is the accuracy reference for every
//! convolution, and it runs through `lcc-fft`. It is itself checked here
//! at sampled points against a direct periodic spatial sum over
//! `GaussianKernel::spatial()`, which uses no FFT at all.

use lcc_core::TraditionalConvolver;
use lcc_greens::GaussianKernel;
use lcc_grid::Grid3;

use crate::rng::Rng;

/// The paper's accuracy contract (§5.3): relative L2 error at most 3 %.
pub const PAPER_REL_L2: f64 = 0.03;

/// Whether an error is within a tolerance; a NaN error never is.
pub fn within(err: f64, tol: f64) -> bool {
    err <= tol
}

/// `(input ⊛ spatial)[point]` as a direct periodic sum:
/// `Σ_y input[y] · spatial[(point − y) mod n]`.
pub fn direct_periodic_sum(input: &Grid3<f64>, spatial: &Grid3<f64>, point: [usize; 3]) -> f64 {
    let (n, _, _) = input.shape();
    let mut acc = 0.0;
    for (y, v) in input.indexed_iter() {
        if *v == 0.0 {
            continue;
        }
        let d = [
            (point[0] + n - y.0) % n,
            (point[1] + n - y.1) % n,
            (point[2] + n - y.2) % n,
        ];
        acc += v * spatial[(d[0], d[1], d[2])];
    }
    acc
}

/// The dense reference convolution of `input` with `kernel`, checked at
/// `points` seeded sample points against the direct sum, relative to the
/// largest magnitude of the dense result. A disagreement is returned as
/// the error, with the reference itself, so the run can still report.
pub fn checked_dense_reference(
    input: &Grid3<f64>,
    kernel: &GaussianKernel,
    points: usize,
    seed: u64,
) -> (Grid3<f64>, Result<(), String>) {
    let (n, _, _) = input.shape();
    let dense = TraditionalConvolver::new(n).convolve(input, kernel);
    let spatial = kernel.spatial();
    let scale = dense
        .as_slice()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    let mut rng = Rng::new(seed);
    for _ in 0..points {
        let p = [(); 3].map(|_| rng.below(n));
        let direct = direct_periodic_sum(input, &spatial, p);
        let got = dense[(p[0], p[1], p[2])];
        if !within((direct - got).abs(), 1e-9 * scale) {
            let msg = format!(
                "dense reference disagrees with the direct sum at {p:?}: {got} vs {direct}"
            );
            return (dense, Err(msg));
        }
    }
    (dense, Ok(()))
}
