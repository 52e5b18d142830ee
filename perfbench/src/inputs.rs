//! Seeded input generation. The program under test only ever sees these
//! generated fields, requests and composites.

use lcc_grid::{Grid3, IsotropicStiffness};
use lcc_massif::Microstructure;

use crate::rng::Rng;

/// A smooth periodic field: a constant plus `modes` random plane waves
/// with wave numbers up to 3 per axis. Summing many modes keeps the
/// convolver's relative error nearly the same from seed to seed, so the
/// accuracy figure tracks the method, not the draw.
pub fn smooth_field(n: usize, modes: usize, seed: u64) -> Grid3<f64> {
    let mut rng = Rng::new(seed);
    let waves: Vec<([f64; 3], f64, f64)> = (0..modes)
        .map(|_| {
            let k = [(); 3].map(|_| rng.below(7) as f64 - 3.0);
            let amp = rng.range(0.5, 1.0);
            let phase = rng.range(0.0, std::f64::consts::TAU);
            (k, amp, phase)
        })
        .collect();
    let offset = rng.range(0.5, 1.5);
    let w = std::f64::consts::TAU / n as f64;
    Grid3::from_fn((n, n, n), |x, y, z| {
        let p = [x as f64, y as f64, z as f64];
        offset
            + waves
                .iter()
                .map(|(k, amp, phase)| {
                    amp * (w * (k[0] * p[0] + k[1] * p[1] + k[2] * p[2]) + phase).cos()
                })
                .sum::<f64>()
    })
}

/// `count` point sources at random cells with weights in `[0.5, 1.5)`.
pub fn deltas(n: usize, count: usize, seed: u64) -> Vec<(u32, u32, u32, f64)> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let c = [(); 3].map(|_| rng.below(n) as u32);
            (c[0], c[1], c[2], rng.range(0.5, 1.5))
        })
        .collect()
}

/// The MASSIF composite: `exp_massif_convergence`'s six-sphere composite
/// (same seed, radius scaled with the grid to 16³), rolled periodically by
/// a shift drawn from `seed`. The shift moves the inclusions across
/// sub-domain boundaries, so each seed feeds the decomposition different
/// domain contents while the physics, and so the iteration count, stays
/// that of one composite.
pub fn massif_composite(n: usize, seed: u64) -> Microstructure {
    let matrix = IsotropicStiffness::from_engineering(3.5, 0.35);
    let inclusion = IsotropicStiffness::from_engineering(70.0, 0.22);
    let base =
        Microstructure::random_spheres(n, 6, 5.0 * n as f64 / 32.0, matrix, inclusion, 20220829);
    let mut rng = Rng::new(seed);
    let s = [(); 3].map(|_| rng.below(n));
    let phases = Grid3::from_fn((n, n, n), |x, y, z| {
        base.phase((x + s[0]) % n, (y + s[1]) % n, (z + s[2]) % n)
    });
    Microstructure::new(phases, base.materials().to_vec())
}
