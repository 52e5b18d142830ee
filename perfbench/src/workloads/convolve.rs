//! `convolve_n64`: repeated `session(Normal).convolve` at N = 64, k = 16,
//! a Gaussian kernel with σ = 1 and a smooth dense input. The pure compute
//! path: nothing else contends for the cores.

use std::time::Instant;

use lcc_core::prelude::*;

use super::{
    compression_ratio, ms, repeated_setup, set_end_to_end, set_trace_common, PhaseClock, Phases,
    StageTimes,
};
use crate::inputs::smooth_field;
use crate::metrics::{median, Outcome};
use crate::oracle::{checked_dense_reference, within, PAPER_REL_L2};
use crate::Args;

/// Grid size, sub-domain size and Gaussian width, shared with `cluster_p2`.
pub const N: usize = 64;
pub const K: usize = 16;
pub const SIGMA: f64 = 1.0;

/// The convolver configuration shared with `cluster_p2`.
pub fn config() -> LowCommConfig {
    LowCommConfig::builder()
        .n(N)
        .k(K)
        .schedule(RateSchedule::for_kernel_spread(K, SIGMA, 16))
        .build()
        .expect("benchmark configuration is valid")
}

/// Cold `plan_for` over every response region of a fresh convolver, in ms.
pub fn cold_plan_build_ms(cfg: LowCommConfig, kernel: &dyn KernelSpectrum) -> f64 {
    let (n, k) = (cfg.n, cfg.k);
    let fresh = LowCommConvolver::try_new(cfg).expect("benchmark configuration is valid");
    let t = Instant::now();
    for d in decompose_uniform(n, k) {
        std::hint::black_box(fresh.plan_for(fresh.response_region(&d, kernel)));
    }
    ms(t.elapsed())
}

pub fn run(args: &Args, out: &mut Outcome) {
    let input = smooth_field(N, 16, args.seed);
    let oracle_kernel = GaussianKernel::new(N, SIGMA);
    let (dense, checked) = checked_dense_reference(&input, &oracle_kernel, 16, args.seed);
    if let Err(e) = checked {
        out.problem(e);
    }
    // Returns the relative L2 error and whether the check failed.
    let check = |out: &mut Outcome, got: &Grid3<f64>| -> (f64, bool) {
        let err = relative_l2(dense.as_slice(), got.as_slice());
        let failed = !within(err, PAPER_REL_L2);
        if failed {
            out.problem(format!(
                "convolution misses the 3 % contract: rel L2 {err:.3e}"
            ));
        }
        (err, failed)
    };

    let ((conv, kernel, warm), setup_s) = repeated_setup(|| {
        let conv = LowCommConvolver::try_new(config()).expect("valid configuration");
        let kernel = GaussianKernel::new(N, SIGMA);
        let warm = conv
            .session(ConvolveMode::Normal)
            .convolve(&input, &kernel)
            .0;
        (conv, kernel, warm)
    });
    let (mut max_err, _) = check(out, &warm);
    let misses_after_warmup = conv.plan_cache().miss_count();

    let phases = Phases::of(args);
    let mut op_ms = Vec::new();
    let mut exchange_bytes = 0.0;
    let clock = PhaseClock::start();
    while clock.more(phases.untraced, &op_ms) {
        let t = Instant::now();
        let (got, report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
        op_ms.push(ms(t.elapsed()));
        out.attempted += 1;
        let (err, failed) = check(out, &got);
        out.failed += failed as u64;
        max_err = max_err.max(err);
        exchange_bytes = report.exchange_bytes as f64;
    }
    let (wall, cpu_util) = clock.stop();

    if !args.trace {
        set_end_to_end(out, setup_s, &op_ms, wall, max_err, exchange_bytes);
        return;
    }

    let dense_conv = TraditionalConvolver::new(N);
    std::hint::black_box(dense_conv.convolve(&input, &kernel));
    let (mut traced_ms, mut compress, mut accumulate, mut dense_ms) =
        (vec![], vec![], vec![], vec![]);
    let mut stages = StageTimes::default();
    let mut last_report = ConvolveReport::default();
    let clock = PhaseClock::start();
    while clock.more(phases.traced, &traced_ms) {
        let session = conv.session(ConvolveMode::Normal).with_observability();
        let t0 = Instant::now();
        let (fields, report) = session.compress_domains(&input, &kernel);
        let t1 = Instant::now();
        let got = session.accumulate_fields(&fields);
        let t2 = Instant::now();
        if let Some(obs) = session.finish() {
            stages.record(&obs, 1);
        }
        out.attempted += 1;
        out.failed += check(out, &got).1 as u64;
        traced_ms.push(ms(t2 - t0));
        compress.push(ms(t1 - t0));
        accumulate.push(ms(t2 - t1));
        last_report = report;
        let t = Instant::now();
        std::hint::black_box(dense_conv.convolve(&input, &kernel));
        dense_ms.push(ms(t.elapsed()));
    }

    set_trace_common(out, &op_ms, &traced_ms, cpu_util);
    out.set("core.compress_ms.p50", median(&compress));
    out.set("core.samples", last_report.total_samples as f64);
    out.set("core.domains_skipped", last_report.domains_skipped as f64);
    out.set("core.dense_ms.p50", median(&dense_ms));
    stages.set(out);
    out.set("octree.accumulate_ms.p50", median(&accumulate));
    out.set(
        "octree.plan_misses",
        (conv.plan_cache().miss_count() - misses_after_warmup) as f64,
    );
    let plans: Vec<_> = decompose_uniform(N, K)
        .iter()
        .map(|d| conv.plan_for(conv.response_region(d, &kernel)))
        .collect();
    out.set("octree.compression_ratio", compression_ratio(&plans));
    out.set(
        "octree.plan_build_ms",
        cold_plan_build_ms(config(), &kernel),
    );
}
