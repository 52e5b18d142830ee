//! `cluster_p2`: the paper's Fig. 1b on two in-process ranks.
//!
//! Rank `w` owns the x-slab `[w·N/2, (w+1)·N/2)`. It compresses the
//! domains whose response region starts in its slab, sends each peer only
//! the samples of the octree cells that meet the peer's slab
//! (`region_payload`, one `alltoall`), and folds its own slab from what it
//! receives. The ranks run their work inline (one pool thread), so the two
//! rank threads are the only busy threads: the exchange and the packing
//! are on the critical path, and parallelism inside one rank is not.

use std::sync::Arc;
use std::time::Instant;

use lcc_comm::{
    convolve_distributed, decode_f64s, encode_f64s, gather_slabs, lowcomm_volume, run_cluster,
    scatter_slabs, traditional_conv_volume, AlphaBeta, CommScenario, CommStats, CommWorld,
};
use lcc_core::prelude::*;
use lcc_fft::{Complex64, FftPlanner};
use lcc_octree::RegionPayload;

use super::convolve::{cold_plan_build_ms, config, K, N, SIGMA};
use super::{
    compression_ratio, ms, repeated_setup, set_end_to_end, set_trace_common, PhaseClock, Phases,
    StageTimes,
};
use crate::inputs::smooth_field;
use crate::metrics::{median, Outcome};
use crate::oracle::{checked_dense_reference, within, PAPER_REL_L2};
use crate::Args;

const P: usize = 2;
/// A rank's slab may differ from the one-process pipeline's by no more
/// than rounding: the fold order is the only difference.
const RANK_REL_TOL: f64 = 1e-10;

fn slab(w: usize) -> BoxRegion {
    let c = N / P;
    BoxRegion::new([w * c, 0, 0], [(w + 1) * c, N, N])
}

/// What one rank returns from one distributed convolution.
struct RankOut {
    slab: Grid3<f64>,
    local_end: Instant,
    domain_ms: Vec<f64>,
    payload_ms: f64,
    codec_ms: f64,
    exchange_ms: f64,
    accumulate_ms: f64,
    error: Option<String>,
}

/// The distributed pipeline as seen by one rank.
fn rank_convolve(
    mut w: CommWorld,
    conv: &LowCommConvolver,
    kernel: &GaussianKernel,
    input: &Grid3<f64>,
    owned: &[Vec<(usize, BoxRegion)>],
) -> RankOut {
    let me = w.rank();
    let mut domain_ms = Vec::new();
    // Local phase: no communication.
    let fields: Vec<CompressedField> = owned[me]
        .iter()
        .map(|(_, d)| {
            let t = Instant::now();
            let plan = conv.plan_for(conv.response_region(d, kernel));
            let f = conv
                .local()
                .convolve_compressed(&input.extract(d), d.lo, kernel, plan);
            domain_ms.push(ms(t.elapsed()));
            f
        })
        .collect();
    let local_end = Instant::now();

    // One routed exchange: each peer gets the samples of the cells that
    // meet its slab, domains in ascending id order.
    let (mut payload_ms, mut codec_ms) = (0.0, 0.0);
    let outgoing: Vec<Vec<u8>> = (0..w.size())
        .map(|dest| {
            let t = Instant::now();
            let mut samples = Vec::new();
            for f in &fields {
                samples.extend(f.region_payload(&slab(dest)).samples);
            }
            let t1 = Instant::now();
            let bytes = encode_f64s(&samples);
            payload_ms += ms(t1 - t);
            codec_ms += ms(t1.elapsed());
            bytes
        })
        .collect();
    let t = Instant::now();
    let incoming = w.alltoall(outgoing);
    let exchange_ms = ms(t.elapsed());
    let mut out = RankOut {
        slab: Grid3::zeros(slab(me).size()),
        local_end,
        domain_ms,
        payload_ms,
        codec_ms,
        exchange_ms,
        accumulate_ms: 0.0,
        error: None,
    };
    let incoming = match incoming {
        Ok(v) => v,
        Err(e) => {
            out.error = Some(format!("rank {me}: exchange failed: {e}"));
            return out;
        }
    };

    // Rebuild each sender's partial fields (the receiver derives the cell
    // list from the shared plan) and fold them in ascending domain id.
    let mine = slab(me);
    let mut parts: Vec<(usize, CompressedField)> = Vec::new();
    for (from, bytes) in incoming.iter().enumerate() {
        let t = Instant::now();
        let samples = decode_f64s(bytes);
        let t1 = Instant::now();
        out.codec_ms += ms(t1 - t);
        let mut off = 0;
        for &(id, d) in &owned[from] {
            let plan = conv.plan_for(conv.response_region(&d, kernel));
            let cells = plan.cells_intersecting(&mine);
            let count: usize = cells.iter().map(|&c| plan.cells()[c].sample_count()).sum();
            let Some(chunk) = samples.get(off..off + count) else {
                out.error = Some(format!("rank {me}: short payload from rank {from}"));
                return out;
            };
            off += count;
            let payload = RegionPayload {
                cells: cells.iter().map(|&c| c as u32).collect(),
                samples: chunk.to_vec(),
            };
            parts.push((id, CompressedField::from_region_payload(plan, &payload)));
        }
        if off != samples.len() {
            out.error = Some(format!(
                "rank {me}: payload from rank {from} not fully consumed"
            ));
        }
        out.payload_ms += ms(t1.elapsed());
    }
    parts.sort_by_key(|(id, _)| *id);
    let t = Instant::now();
    for (_, f) in &parts {
        f.add_region_into(&mine, &mut out.slab, 1.0);
    }
    out.accumulate_ms = ms(t.elapsed());
    out
}

/// The benchmark's objects: the shared convolver and kernel, and which
/// rank owns which domains.
struct Deployment {
    conv: LowCommConvolver,
    kernel: GaussianKernel,
    owned: Vec<Vec<(usize, BoxRegion)>>,
}

impl Deployment {
    fn new() -> Self {
        let conv = LowCommConvolver::try_new(config()).expect("valid configuration");
        let kernel = GaussianKernel::new(N, SIGMA);
        let mut owned = vec![Vec::new(); P];
        for (id, d) in decompose_uniform(N, K).into_iter().enumerate() {
            let lo = conv.response_region(&d, &kernel).lo[0];
            owned[lo / (N / P)].push((id, d));
        }
        Deployment {
            conv,
            kernel,
            owned,
        }
    }

    fn convolve(&self, input: &Grid3<f64>) -> (Vec<RankOut>, Arc<CommStats>) {
        run_cluster(P, |w| {
            rank_convolve(w, &self.conv, &self.kernel, input, &self.owned)
        })
    }
}

/// Checks of one distributed convolution; returns its relative L2 error
/// against the dense reference and whether it failed.
fn check(
    out: &mut Outcome,
    ranks: &[RankOut],
    stats: &CommStats,
    serial: &Grid3<f64>,
    dense: &Grid3<f64>,
) -> (f64, bool) {
    let mut bad = Vec::new();
    if stats.rounds() != 1 {
        bad.push(format!("{} exchange rounds, expected 1", stats.rounds()));
    }
    let mut full = Grid3::zeros((N, N, N));
    for (w, r) in ranks.iter().enumerate() {
        if let Some(e) = &r.error {
            bad.push(e.clone());
        }
        let want = serial.extract(&slab(w));
        let err = relative_l2(want.as_slice(), r.slab.as_slice());
        if !within(err, RANK_REL_TOL) {
            bad.push(format!(
                "rank {w} slab deviates from the one-process result: {err:.3e}"
            ));
        }
        full.insert(slab(w).lo, &r.slab);
    }
    let err = relative_l2(dense.as_slice(), full.as_slice());
    if !within(err, PAPER_REL_L2) {
        bad.push(format!(
            "distributed result misses the 3 % contract: {err:.3e}"
        ));
    }
    let failed = !bad.is_empty();
    for b in bad {
        out.problem(b);
    }
    (err, failed)
}

pub fn run(args: &Args, out: &mut Outcome) {
    // Rank threads are the workload's parallelism: keep the shared worker
    // pool to the calling thread so no more threads are busy than cores.
    std::env::set_var("LCC_THREADS", "1");
    let input = smooth_field(N, 16, args.seed);
    let oracle_kernel = GaussianKernel::new(N, SIGMA);
    let (dense, checked) = checked_dense_reference(&input, &oracle_kernel, 16, args.seed);
    if let Err(e) = checked {
        out.problem(e);
    }
    // The same pipeline in one process, from a separately built convolver.
    let serial = LowCommConvolver::try_new(config())
        .expect("valid configuration")
        .session(ConvolveMode::Normal)
        .convolve(&input, &oracle_kernel)
        .0;

    let ((dep, (warm_ranks, warm_stats)), setup_s) = repeated_setup(|| {
        let dep = Deployment::new();
        let warm = dep.convolve(&input);
        (dep, warm)
    });
    let (mut max_err, _) = check(out, &warm_ranks, &warm_stats, &serial, &dense);
    let misses_after_warmup = dep.conv.plan_cache().miss_count();

    let phases = Phases::of(args);
    let mut op_ms = Vec::new();
    let mut exchange_bytes = 0.0;
    let clock = PhaseClock::start();
    while clock.more(phases.untraced, &op_ms) {
        let t = Instant::now();
        let (ranks, stats) = dep.convolve(&input);
        op_ms.push(ms(t.elapsed()));
        out.attempted += 1;
        let (err, failed) = check(out, &ranks, &stats, &serial, &dense);
        out.failed += failed as u64;
        max_err = max_err.max(err);
        exchange_bytes = stats.bytes() as f64;
    }
    let (wall, cpu_util) = clock.stop();

    if !args.trace {
        set_end_to_end(out, setup_s, &op_ms, wall, max_err, exchange_bytes);
        return;
    }

    let dense_conv = TraditionalConvolver::new(N);
    let mut traced_ms = Vec::new();
    let (mut domain, mut payload, mut codec, mut exchange, mut fold, mut wait, mut dense_ms) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut stages = StageTimes::default();
    let mut last_stats = None;
    let clock = PhaseClock::start();
    while clock.more(phases.traced, &traced_ms) {
        let obs = lcc_obs::ObsSession::start();
        let t = Instant::now();
        let (ranks, stats) = dep.convolve(&input);
        traced_ms.push(ms(t.elapsed()));
        if let Some(report) = obs.map(|s| s.finish()) {
            stages.record(&report, 1);
        }
        out.attempted += 1;
        out.failed += check(out, &ranks, &stats, &serial, &dense).1 as u64;
        for r in &ranks {
            domain.extend_from_slice(&r.domain_ms);
            payload.push(r.payload_ms);
            codec.push(r.codec_ms);
            exchange.push(r.exchange_ms);
            fold.push(r.accumulate_ms);
        }
        let (a, b) = (ranks[0].local_end, ranks[1].local_end);
        wait.push(ms(a.max(b) - a.min(b)));
        last_stats = Some(stats);
        let t = Instant::now();
        std::hint::black_box(dense_conv.convolve(&input, &oracle_kernel));
        dense_ms.push(ms(t.elapsed()));
    }

    // Eq. 1 reference: the dense slab-decomposed FFT convolution on the
    // same ranks, checked against the dense reference too.
    let field: Vec<Complex64> = input
        .as_slice()
        .iter()
        .map(|&v| Complex64::from_real(v))
        .collect();
    let kern = |f: [usize; 3]| oracle_kernel.eval(f);
    let (mut dist_ms, mut dist_stats) = (Vec::new(), None);
    for _ in 0..5 {
        let slabs = scatter_slabs(&field, N, P);
        let t = Instant::now();
        let (results, stats) = run_cluster(P, |mut w| {
            let planner = FftPlanner::new();
            let mine = slabs[w.rank()].clone();
            convolve_distributed(&mut w, &planner, mine, N, &kern)
        });
        dist_ms.push(ms(t.elapsed()));
        dist_stats = Some(stats);
        match results.into_iter().collect::<Result<Vec<_>, _>>() {
            Ok(parts) => {
                let got: Vec<f64> = gather_slabs(parts, N).iter().map(|c| c.re).collect();
                let err = relative_l2(dense.as_slice(), &got);
                if !within(err, RANK_REL_TOL) {
                    out.problem(format!("dense distributed baseline deviates: {err:.3e}"));
                }
            }
            Err(e) => out.problem(format!("dense distributed baseline failed: {e}")),
        }
    }

    set_trace_common(out, &op_ms, &traced_ms, cpu_util);
    let plans: Vec<_> = dep
        .owned
        .iter()
        .flatten()
        .map(|(_, d)| dep.conv.plan_for(dep.conv.response_region(d, &dep.kernel)))
        .collect();
    out.set(
        "octree.plan_misses",
        (dep.conv.plan_cache().miss_count() - misses_after_warmup) as f64,
    );
    out.set("core.domain_ms.p50", median(&domain));
    out.set(
        "core.samples",
        plans.iter().map(|p| p.total_samples()).sum::<usize>() as f64,
    );
    out.set("core.dense_ms.p50", median(&dense_ms));
    stages.set(out);
    out.set("octree.accumulate_ms.p50", median(&fold));
    out.set("octree.payload_ms.p50", median(&payload));
    out.set("octree.compression_ratio", compression_ratio(&plans));
    out.set(
        "octree.plan_build_ms",
        cold_plan_build_ms(config(), &dep.kernel),
    );
    if let Some(s) = &last_stats {
        out.set("comm.bytes", s.bytes() as f64);
        out.set("comm.messages", s.message_count() as f64);
        out.set("comm.rounds", s.rounds() as f64);
        out.set("comm.retransmits", s.retransmit_count() as f64);
    }
    out.set("comm.exchange_ms.p50", median(&exchange));
    out.set("comm.wait_ms.p50", median(&wait));
    out.set("comm.codec_ms.p50", median(&codec));
    out.set("comm.dense_ms.p50", median(&dist_ms));
    if let (Some(ours), Some(dense)) = (&last_stats, &dist_stats) {
        out.set("comm.dense_bytes", dense.bytes() as f64);
        print_model(ours, dense, &dep.conv);
    }
}

/// Puts the measured traffic next to the paper's Eq. 1 and Eq. 6 under
/// the α-β model, on standard error (reference figures, not metrics).
fn print_model(ours: &CommStats, dense: &CommStats, conv: &LowCommConvolver) {
    let link = AlphaBeta::hpc_default();
    let scenario = CommScenario {
        n: N,
        p: P,
        elem_bytes: 16,
        link,
    };
    let r = conv.config().schedule.effective_exterior_rate(N, K);
    let domains = (N / K).pow(3);
    eprintln!(
        "perfbench: model (hpc_default link, N={N}, k={K}, p={P}, r={r:.2}): \
         Eq. 1 volume {} B/rank over 4 stages, T_FFT {:.3e} s; \
         Eq. 6 volume {} B/domain ({} B for {domains} domains), T_ours {:.3e} s per domain",
        traditional_conv_volume(N, P, 16),
        scenario.t_fft_alltoall(),
        lowcomm_volume(N, K, r, 8),
        lowcomm_volume(N, K, r, 8) * domains as u64,
        scenario.t_ours(K, r),
    );
    eprintln!(
        "perfbench: measured: low-comm {} B in {} round(s), modeled {:.3e} s; \
         dense slab FFT {} B in {} rounds, modeled {:.3e} s",
        ours.bytes(),
        ours.rounds(),
        ours.modeled_time(&link, P),
        dense.bytes(),
        dense.rounds(),
        dense.modeled_time(&link, P),
    );
}
