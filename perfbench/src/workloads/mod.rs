//! The four workloads and the phase structure they share.
//!
//! An untraced run builds its references (untimed), sets up
//! [`SETUP_REPEATS`] times (timed, median reported as `setup_s`), then
//! repeats whole operations for `--seconds`, checking each output. A traced
//! run spends the first half of its time the same way, as the baseline for
//! `trace.overhead_pct`, and the second half on the instrumented variant
//! of the same operations, which times the calls into each layer's public
//! functions from this crate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lcc_obs::ObsReport;
use lcc_octree::SamplingPlan;

use crate::metrics::{self, mean, median, Outcome};
use crate::procinfo;
use crate::Args;

pub mod cluster;
pub mod convolve;
pub mod massif;
pub mod service;

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["convolve_n64", "cluster_p2", "service_mix", "massif_n16"];

/// Set-ups per run; `setup_s` is their median. Each set-up takes 0.1–1 s,
/// about as long as the host holds one speed, so the median of five is
/// steadier than the median of three.
pub const SETUP_REPEATS: usize = 5;

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    for d in metrics::defs(args.trace) {
        out.set(d.name, 0.0);
    }
    match args.workload.as_str() {
        "convolve_n64" => convolve::run(args, &mut out),
        "cluster_p2" => cluster::run(args, &mut out),
        "service_mix" => service::run(args, &mut out),
        "massif_n16" => massif::run(args, &mut out),
        other => out.problem(format!("unknown workload {other}")),
    }
    out
}

/// Builds with `build` [`SETUP_REPEATS`] times and keeps the last result,
/// returning it with the median build time in seconds. Each earlier result
/// is dropped before the next build starts.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS is positive"), median(&times))
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How a run's time splits between the untraced and traced phases.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Length of the untraced timed phase.
    pub untraced: Duration,
    /// Length of the traced phase (zero in an untraced run).
    pub traced: Duration,
}

impl Phases {
    /// The whole run untraced, or split in halves when traced.
    pub fn of(args: &Args) -> Phases {
        let total = Duration::from_secs_f64(args.seconds);
        if args.trace {
            Phases {
                untraced: total / 2,
                traced: total / 2,
            }
        } else {
            Phases {
                untraced: total,
                traced: Duration::ZERO,
            }
        }
    }
}

/// Wall and CPU time of one timed phase, for throughput and `proc.cpu_util`.
pub struct PhaseClock {
    start: Instant,
    cpu0: f64,
}

impl PhaseClock {
    /// Starts the clock.
    pub fn start() -> Self {
        PhaseClock {
            start: Instant::now(),
            cpu0: procinfo::cpu_seconds().unwrap_or(0.0),
        }
    }

    /// Whether another operation fits in `dur`: the first always does,
    /// later ones only if they would end by `dur` were they as long as the
    /// last (`op_ms` holds the lengths so far).
    pub fn more(&self, dur: Duration, op_ms: &[f64]) -> bool {
        match op_ms.last() {
            None => true,
            Some(&last) => self.start.elapsed() + Duration::from_secs_f64(last / 1e3) <= dur,
        }
    }

    /// `(wall seconds, CPU seconds / (wall × cores))` so far.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.start.elapsed().as_secs_f64();
        let cpu = procinfo::cpu_seconds().unwrap_or(0.0) - self.cpu0;
        (wall, cpu / (wall * procinfo::cores() as f64))
    }
}

/// Floor of the reported `rel_l2.max`. An error below it is rounding
/// (`massif_n16`'s schedule keeps every cell, so its error is about 3e-16),
/// which a change of summation order moves by tens of percent; reporting
/// the floor keeps such a change from reading as an accuracy regression.
pub const REL_L2_FLOOR: f64 = 1e-12;

/// Records the end-to-end metrics every workload shares.
///
/// The operation time is reported as a mean, not a median. The shared
/// host's speed changes by up to 1.8× every second or two while a thread
/// stays on its CPU (the program's own rounds of work took 1.1–2.0 s on
/// unchanged code, CPU time equal to wall time). Operation times are then
/// a mixture of fast and slow ones, and their median is whichever mode held
/// more of the run: medians of ten runs of one build spread 25–29 %. The
/// mean moves only in proportion to the share of time the host was slow.
pub fn set_end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    op_ms: &[f64],
    wall_s: f64,
    rel_l2_max: f64,
    exchange_bytes: f64,
) {
    out.set("setup_s", setup_s);
    out.set("op_ms.mean", mean(op_ms));
    out.set("ops_per_s", op_ms.len() as f64 / wall_s);
    out.set("rel_l2.max", rel_l2_max.max(REL_L2_FLOOR));
    out.set("exchange_mib", exchange_bytes / (1024.0 * 1024.0));
    match procinfo::peak_rss_mib() {
        Ok(v) => out.set("peak_rss_mib", v),
        Err(e) => out.problem(e),
    }
}

/// Records `trace.overhead_pct` and `proc.cpu_util` for a traced run:
/// the traced phase's mean operation time against the untraced phase's,
/// and the untraced phase's CPU use.
pub fn set_trace_common(out: &mut Outcome, untraced_ms: &[f64], traced_ms: &[f64], cpu_util: f64) {
    let (u, t) = (mean(untraced_ms), mean(traced_ms));
    if u > 0.0 && t > 0.0 {
        out.set("trace.overhead_pct", (t / u - 1.0) * 100.0);
    }
    out.set("proc.cpu_util", cpu_util);
}

/// The scalar pipeline's stage spans and the metrics that report them.
const STAGES: [(&str, &str); 3] = [
    ("fft.stage1_ms", "stage1_2d_fft"),
    ("fft.stage2_ms", "stage2_z_pencils"),
    ("fft.stage3_ms", "stage3_inverse_sample"),
];

/// Busy time per operation in each pipeline stage, summed over threads.
#[derive(Default)]
pub struct StageTimes([Vec<f64>; 3]);

impl StageTimes {
    /// Records the stage spans of `report`, which covered `ops` operations.
    pub fn record(&mut self, report: &ObsReport, ops: usize) {
        for (v, (_, span)) in self.0.iter_mut().zip(STAGES) {
            v.push(report.span_total_ns(span) as f64 / 1e6 / ops.max(1) as f64);
        }
    }

    /// Sets each stage metric to the median of its records.
    pub fn set(&self, out: &mut Outcome) {
        for (v, (name, _)) in self.0.iter().zip(STAGES) {
            out.set(name, median(v));
        }
    }
}

/// Dense bytes over compressed bytes of the fields sampled under `plans`.
pub fn compression_ratio(plans: &[Arc<SamplingPlan>]) -> f64 {
    let dense: usize = plans.iter().map(|p| p.dense_bytes()).sum();
    let compressed: usize = plans.iter().map(|p| p.compressed_bytes()).sum();
    dense as f64 / compressed as f64
}
