//! End-to-end and per-layer benchmark of the low-communication convolver.
//!
//! One binary, four workloads, each in its own process:
//!
//! * `convolve_n64` — repeated `session(Normal).convolve` at N = 64: the
//!   pure compute path (decomposition, pruned-FFT stages, octree
//!   compression, accumulate).
//! * `cluster_p2` — the paper's Fig. 1b on two in-process ranks: local
//!   compression, one routed `alltoall`, a slab-local fold.
//! * `service_mix` — a `ServiceServer` under two closed-loop tenants: wire,
//!   admission, plan registry and coalesced dispatch at small N.
//! * `massif_n16` — `lcc_massif::solve` with the low-communication Γ
//!   operator (Algorithm 2): the tensor pipeline inside a fixed-point loop.
//!
//! Every run checks the program's outputs against references computed
//! apart from the path under test (see [`oracle`]) and prints one JSON line
//! with the operation counts and the metrics of [`metrics::END_TO_END`]
//! (untraced) or [`metrics::PER_LAYER`] (traced).

pub mod inputs;
pub mod metrics;
pub mod oracle;
pub mod procinfo;
pub mod rng;
pub mod workloads;

/// Command-line settings of one run.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (one of [`workloads::NAMES`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run that reports per-layer metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !workloads::NAMES.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {:?}",
                workloads::NAMES
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}
