//! `massif_n16`: `lcc_massif::solve` with the low-communication Γ
//! operator (`LowCommGamma`, Algorithm 2) at N = 16, k = 4, to tolerance
//! 2.5e-3, on a seeded periodic shift of `exp_massif_convergence`'s
//! composite. The only workload that runs the tensor pipeline and the
//! fixed-point solver; Algorithm 1 (`SpectralGamma`) is its reference.
//!
//! The worker pool runs on the calling thread alone. With two threads the
//! tensor pipeline's many short parallel regions made one Γ application
//! take anywhere from 144 to 573 ms from run to run on a 2-vCPU VM, set by
//! how fast the host woke the second vCPU, against 195–206 ms on one
//! thread. A change that puts the idle core to work inside `apply_gamma`
//! through the pool therefore does not show here.

use std::cell::RefCell;
use std::time::Instant;

use lcc_core::prelude::*;
use lcc_greens::MassifGamma;
use lcc_grid::Sym3;
use lcc_massif::{
    solve, GammaConvolution, LowCommGamma, Microstructure, SolveResult, SolverConfig,
    SpectralGamma, TensorField,
};

use super::{
    compression_ratio, ms, repeated_setup, set_end_to_end, set_trace_common, PhaseClock, Phases,
};
use crate::inputs::massif_composite;
use crate::metrics::{median, Outcome};
use crate::oracle::within;
use crate::Args;

const N: usize = 16;
const K: usize = 4;
const SOLVER: SolverConfig = SolverConfig {
    max_iters: 30,
    tol: 2.5e-3,
};
/// Effective stress must match Algorithm 1's to this relative tolerance.
const STRESS_REL_TOL: f64 = 0.01;

fn lowcomm_config() -> LowCommConfig {
    LowCommConfig::builder()
        .n(N)
        .k(K)
        .batch(256)
        .schedule(RateSchedule::for_kernel_spread(K, 1.5, 8))
        .build()
        .expect("benchmark configuration is valid")
}

fn applied_strain() -> Sym3 {
    Sym3::diagonal(0.01, 0.0, 0.0)
}

/// Times every `apply_gamma` of the engine it wraps.
struct TimedGamma<'a> {
    inner: &'a LowCommGamma,
    calls: RefCell<Vec<(Instant, Instant)>>,
}

impl GammaConvolution for TimedGamma<'_> {
    fn apply_gamma(&self, sigma: &TensorField) -> TensorField {
        let t = Instant::now();
        let out = self.inner.apply_gamma(sigma);
        self.calls.borrow_mut().push((t, Instant::now()));
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Checks a solve against Algorithm 1; returns its strain error and
/// whether it failed.
fn check(out: &mut Outcome, got: &SolveResult, alg1: &SolveResult) -> (f64, bool) {
    let err = got.strain.relative_error_to(&alg1.strain);
    let (a, b) = (got.effective_stress(), alg1.effective_stress());
    let diff = Sym3::new(
        a.c[0] - b.c[0],
        a.c[1] - b.c[1],
        a.c[2] - b.c[2],
        a.c[3] - b.c[3],
        a.c[4] - b.c[4],
        a.c[5] - b.c[5],
    );
    let stress_err = diff.frobenius() / b.frobenius();
    let mut failed = false;
    if !got.converged {
        failed = true;
        out.problem(format!(
            "Algorithm 2 did not converge in {} iterations",
            SOLVER.max_iters
        ));
    }
    if !within(stress_err, STRESS_REL_TOL) {
        failed = true;
        out.problem(format!(
            "effective stress off Algorithm 1's by {stress_err:.3e}"
        ));
    }
    (err, failed)
}

pub fn run(args: &Args, out: &mut Outcome) {
    std::env::set_var("LCC_THREADS", "1");
    let micro: Microstructure = massif_composite(N, args.seed);
    let r = micro.reference_medium();
    let gamma = MassifGamma::new(N, r.lambda, r.mu);
    let e = applied_strain();
    let dense_engine = SpectralGamma::new(gamma);
    let t = Instant::now();
    let alg1 = solve(&micro, e, SOLVER, &dense_engine);
    let mut dense_solve_s = vec![t.elapsed().as_secs_f64()];
    if !alg1.converged {
        out.problem("Algorithm 1 reference did not converge".into());
    }
    let stress0 = TensorField::stress_from_strain(&micro, &TensorField::constant(N, e));

    let (engine, setup_s) = repeated_setup(|| {
        let engine = LowCommGamma::new(gamma, lowcomm_config());
        std::hint::black_box(engine.apply_gamma(&stress0));
        engine
    });
    let misses_after_warmup = engine.convolver().plan_cache().miss_count();
    let domains = decompose_uniform(N, K);
    let plans: Vec<_> = domains
        .iter()
        .map(|d| engine.convolver().plan_for(*d))
        .collect();
    let exchange_bytes = 6 * plans.iter().map(|p| p.compressed_bytes()).sum::<usize>();

    let phases = Phases::of(args);
    let (mut op_ms, mut max_err, mut iterations) = (Vec::new(), 0.0f64, 0);
    let clock = PhaseClock::start();
    while clock.more(phases.untraced, &op_ms) {
        let t = Instant::now();
        let got = solve(&micro, e, SOLVER, &engine);
        op_ms.push(ms(t.elapsed()));
        out.attempted += 1;
        let (err, failed) = check(out, &got, &alg1);
        out.failed += failed as u64;
        max_err = max_err.max(err);
        iterations = got.iterations();
    }
    let (wall, cpu_util) = clock.stop();

    if !args.trace {
        set_end_to_end(out, setup_s, &op_ms, wall, max_err, exchange_bytes as f64);
        return;
    }

    let (mut traced_ms, mut gamma_ms, mut pointwise_ms) = (vec![], vec![], vec![]);
    let mut last_stress = None;
    let clock = PhaseClock::start();
    while clock.more(phases.traced, &traced_ms) {
        let timed = TimedGamma {
            inner: &engine,
            calls: RefCell::new(Vec::new()),
        };
        let t = Instant::now();
        let got = solve(&micro, e, SOLVER, &timed);
        let end = Instant::now();
        traced_ms.push(ms(end - t));
        out.attempted += 1;
        out.failed += check(out, &got, &alg1).1 as u64;
        let calls = timed.calls.into_inner();
        for (i, &(start, stop)) in calls.iter().enumerate() {
            gamma_ms.push(ms(stop - start));
            let next = calls.get(i + 1).map_or(end, |c| c.0);
            pointwise_ms.push(ms(next - stop));
        }
        iterations = got.iterations();
        last_stress = Some(got.stress);
    }

    // The Γ application's layers, called one domain at a time the way
    // `LowCommGamma` does, on the converged stress field. The result must
    // equal the engine's own application bit for bit.
    let sigma = last_stress.unwrap_or(stress0);
    let want = engine.apply_gamma(&sigma);
    let (mut tensor_ms, mut fold_ms) = (vec![], vec![]);
    let cube = BoxRegion::cube(N);
    for _ in 0..3 {
        let mut got = TensorField::zeros(N);
        let mut fold = 0.0;
        for (d, plan) in domains.iter().zip(&plans) {
            let sub: [Grid3<f64>; 6] = std::array::from_fn(|c| sigma.component(c).extract(d));
            let t = Instant::now();
            let fields = engine.convolver().local().convolve_tensor_compressed(
                &sub,
                d.lo,
                &gamma,
                plan.clone(),
            );
            let t1 = Instant::now();
            for (c, f) in fields.iter().enumerate() {
                f.add_region_into(&cube, got.component_mut(c), 1.0);
            }
            tensor_ms.push(ms(t1 - t));
            fold += ms(t1.elapsed());
        }
        fold_ms.push(fold);
        if (0..6).any(|c| got.component(c).as_slice() != want.component(c).as_slice()) {
            out.problem("per-domain Γ application differs from LowCommGamma's".into());
        }
    }
    let mut dense_apply_ms = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(dense_engine.apply_gamma(&sigma));
        dense_apply_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(solve(&micro, e, SOLVER, &dense_engine));
        dense_solve_s.push(t.elapsed().as_secs_f64());
    }
    let fresh = LowCommConvolver::try_new(lowcomm_config()).expect("valid configuration");
    let t = Instant::now();
    for d in &domains {
        std::hint::black_box(fresh.plan_for(*d));
    }
    out.set("octree.plan_build_ms", ms(t.elapsed()));

    set_trace_common(out, &op_ms, &traced_ms, cpu_util);
    out.set("core.tensor_domain_ms.p50", median(&tensor_ms));
    out.set(
        "core.samples",
        (6 * plans.iter().map(|p| p.total_samples()).sum::<usize>()) as f64,
    );
    out.set("core.dense_ms.p50", median(&dense_apply_ms));
    out.set("octree.accumulate_ms.p50", median(&fold_ms));
    out.set(
        "octree.plan_misses",
        (engine.convolver().plan_cache().miss_count() - misses_after_warmup) as f64,
    );
    out.set("octree.compression_ratio", compression_ratio(&plans));
    out.set("massif.iterations", iterations as f64);
    out.set("massif.gamma_ms.p50", median(&gamma_ms));
    out.set("massif.pointwise_ms.p50", median(&pointwise_ms));
    out.set("massif.dense_solve_s", median(&dense_solve_s));
}
