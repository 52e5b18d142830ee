//! Metric names, units, summary statistics and the result line.

use std::collections::BTreeMap;

/// A metric the benchmark reports: its name and unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted name, e.g. `op_ms.mean`.
    pub name: &'static str,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of the untraced runs. Every workload reports every one of them;
/// "operation" means one convolution (convolve_n64, cluster_p2), one client
/// request (service_mix) or one MASSIF solve (massif_n16).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("op_ms.mean", "ms"),
    m("ops_per_s", "1/s"),
    m("rel_l2.max", "ratio"),
    m("exchange_mib", "MiB"),
    m("peak_rss_mib", "MiB"),
];

/// Metrics of the traced runs. Every workload reports every one of them; a
/// layer the workload does not run reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("core.compress_ms.p50", "ms"),
    m("core.domain_ms.p50", "ms"),
    m("core.tensor_domain_ms.p50", "ms"),
    m("core.samples", "count"),
    m("core.domains_skipped", "count"),
    m("core.dense_ms.p50", "ms"),
    m("fft.stage1_ms", "ms"),
    m("fft.stage2_ms", "ms"),
    m("fft.stage3_ms", "ms"),
    m("octree.accumulate_ms.p50", "ms"),
    m("octree.plan_build_ms", "ms"),
    m("octree.plan_misses", "count"),
    m("octree.payload_ms.p50", "ms"),
    m("octree.compression_ratio", "ratio"),
    m("comm.bytes", "bytes"),
    m("comm.messages", "count"),
    m("comm.rounds", "count"),
    m("comm.retransmits", "count"),
    m("comm.exchange_ms.p50", "ms"),
    m("comm.wait_ms.p50", "ms"),
    m("comm.codec_ms.p50", "ms"),
    m("comm.dense_bytes", "bytes"),
    m("comm.dense_ms.p50", "ms"),
    m("service.submit_us.p50", "us"),
    m("service.pump_ms.p50", "ms"),
    m("service.encode_us.p50", "us"),
    m("service.batch_size.mean", "count"),
    m("service.plan_builds", "count"),
    m("service.plan_hits", "count"),
    m("service.shed", "count"),
    m("service.rejected", "count"),
    m("service.max_queued", "count"),
    m("service.request_ms.p90", "ms"),
    m("service.n16_ms.p90", "ms"),
    m("service.n32_ms.p50", "ms"),
    m("service.n16_solo_ms.p50", "ms"),
    m("service.n32_solo_ms.p50", "ms"),
    m("massif.iterations", "count"),
    m("massif.gamma_ms.p50", "ms"),
    m("massif.pointwise_ms.p50", "ms"),
    m("massif.dense_solve_s", "s"),
    m("proc.cpu_util", "ratio"),
    m("trace.overhead_pct", "%"),
];

/// The metric set a run prints: [`PER_LAYER`] when traced, else
/// [`END_TO_END`].
pub fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Whether `name` follows the metric-name grammar: it starts with a letter
/// or digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for no samples, the reading of a layer the workload does not run.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`TAIL_SAMPLES`] samples lie beyond it: with fewer, the
/// figure would be a handful of outliers, not a tail.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - rank >= TAIL_SAMPLES).then(|| v[rank])
}

/// What one run observed: operation counts and named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every check not attributed to a known program fault passed.
    pub correct: bool,
    /// Operations started.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Why `correct` is false, for standard error.
    pub problems: Vec<String>,
}

impl Outcome {
    /// A fresh outcome: correct until a check says otherwise.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check that no known fault explains.
    pub fn problem(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }

    /// The result line: one JSON object with the counts and every metric
    /// of `defs`. Refuses a run whose metric names differ from `defs` or
    /// whose values are not finite, so a printed line always matches the
    /// declared set.
    pub fn render(&self, defs: &[MetricDef]) -> Result<String, String> {
        let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
        let got: Vec<&str> = self.values.keys().copied().collect();
        let mut want = declared.clone();
        want.sort_unstable();
        if want != got {
            let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
            let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
            return Err(format!(
                "metric set mismatch: missing {missing:?}, extra {extra:?}"
            ));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut body = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self.values[d.name];
            if !v.is_finite() {
                return Err(format!("{} is not finite: {v}", d.name));
            }
            body.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        ))
    }
}
