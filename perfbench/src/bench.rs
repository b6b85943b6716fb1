//! Shared run parameters, the metric catalogue, and the per-run outcome.

use std::collections::BTreeMap;

use crate::spans::Tracer;

/// The three workloads, by their command-line names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SpmmSuite,
    ServeZipf,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SpmmSuite,
        Workload::ServeZipf,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpmmSuite => "spmm-suite",
            Workload::ServeZipf => "serve-zipf",
            Workload::ServeChurn => "serve-churn",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run does. The amount of work is fixed by `seconds` through a
/// constant nominal rate per workload, so a run never stops on the clock
/// and the same arguments always do the same operations.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Self-test size: a handful of operations and one set-up round.
    pub tiny: bool,
    /// Flip one bit of the `k`-th checked output (self-test only).
    pub corrupt_op: Option<u64>,
}

impl Params {
    /// Operations to time: `seconds × per_second`, or `tiny_ops` in a
    /// self-test.
    pub fn ops(&self, per_second: f64, tiny_ops: usize) -> usize {
        if self.tiny {
            tiny_ops
        } else {
            ((self.seconds as f64 * per_second).ceil() as usize).max(1)
        }
    }

    /// Set-up rounds; `setup_s` is their median and the last round's
    /// instance is the one measured.
    pub fn setup_rounds(&self) -> usize {
        if self.tiny {
            1
        } else {
            5
        }
    }
}

/// A metric's name, unit, and whether it must repeat bit for bit across
/// runs of the same seed (simulated-clock values and counters).
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub deterministic: bool,
}

const fn def(name: &'static str, unit: &'static str, deterministic: bool) -> Def {
    Def {
        name,
        unit,
        deterministic,
    }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("throughput_ops_s", "ops/s", false),
    def("latency_p50_ms", "ms", false),
    def("latency_p90_ms", "ms", false),
    def("sim_gflops", "GFLOP/s", true),
    def("setup_s", "s", false),
    def("peak_rss_mb", "MB", false),
];

/// Span names the traced run records; each gets a `self_ms.<name>` metric.
pub const SPAN_NAMES: &[&str] = &[
    "pass",
    "burst",
    "prepare",
    "register",
    "spmm",
    "submit",
    "wait",
    "mutate",
    "quiesce_compactions",
    "stats",
];

/// Printed by traced runs (`--trace 1`), in this order, followed by one
/// `self_ms.<span>` per entry of [`SPAN_NAMES`].
pub const PER_LAYER: &[Def] = &[
    def("kernel.host_ms_p50", "ms", false),
    def("kernel.host_ns_per_tile", "ns", false),
    def("kernel.host_ms.mip1", "ms", false),
    def("kernel.host_ms.conf5_4-8x8", "ms", false),
    def("kernel.host_ms.cant", "ms", false),
    def("kernel.host_ms.pdb1HYS", "ms", false),
    def("kernel.host_ms.rma10", "ms", false),
    def("kernel.host_ms.cop20k_A", "ms", false),
    def("kernel.host_ms.consph", "ms", false),
    def("kernel.host_ms.shipsec1", "ms", false),
    def("kernel.host_ms.dc2", "ms", false),
    def("kernel.sim_ms", "ms", true),
    def("gpusim.mma", "count", true),
    def("gpusim.global_bytes", "bytes", true),
    def("gpusim.shared_tx", "count", true),
    def("gpusim.ldmatrix", "count", true),
    def("gpusim.pipe_syncs", "count", true),
    def("gpusim.alu", "count", true),
    def("formats.nblocks", "count", true),
    def("formats.index_bytes", "bytes", true),
    def("prepare.count", "count", true),
    def("prepare.host_ms_p50", "ms", false),
    def("prepare.reorder_ms", "ms", false),
    def("prepare.pack_ms", "ms", false),
    def("prepare.convert_ms", "ms", false),
    def("reorder.block_reduction", "ratio", true),
    def("register.host_ms_p50", "ms", false),
    def("register.overhead_ms", "ms", false),
    def("registry.hit_ratio", "ratio", true),
    def("registry.evictions", "count", true),
    def("planner.mean_rel_error", "ratio", false),
    def("planner.refits", "count", false),
    def("submit.host_us_p50", "us", false),
    def("plan_cache.hit_ratio", "ratio", true),
    def("stats.host_ms_p50", "ms", false),
    def("stats.host_ms_last", "ms", false),
    def("batch.requests_per_launch", "ratio", true),
    def("batch.max", "count", true),
    def("device.busy_share", "ratio", false),
    def("shard.fanouts", "count", true),
    def("shard.subrequests", "count", true),
    def("shard.latency_p50_ms", "ms", false),
    def("unsharded.latency_p50_ms", "ms", false),
    def("mutate.count", "count", true),
    def("mutate.host_us_p50", "us", false),
    def("compaction.count", "count", true),
    def("compaction.wait_ms", "ms", false),
    def("trace.overhead_ratio", "ratio", false),
];

/// Name of the self-time metric of span `span`.
pub fn self_ms_name(span: &str) -> String {
    format!("self_ms.{span}")
}

/// Everything one workload run produced.
pub struct Outcome {
    /// Metric values by name. Per-layer metrics a workload does not
    /// exercise are absent and print as 0.
    pub values: BTreeMap<String, f64>,
    /// Operations attempted and failed (errors, rejections, and oracle
    /// mismatches all count as failed).
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that differed from the oracle.
    pub mismatches: u64,
    /// A simulated value that should be identical across repeats was not.
    pub nondeterministic: Vec<String>,
    /// Sample counts behind each percentile or median.
    pub samples: BTreeMap<String, usize>,
    /// Simulated devices and server worker threads.
    pub devices: usize,
    pub tracer: Tracer,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.values.insert(name.to_string(), value + 0.0);
    }

    /// Records a percentile-type metric together with its sample count.
    pub fn set_sampled(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Per-layer metrics derived from spans: self time per span name.
    pub fn set_self_times(&mut self) {
        let times = self.tracer.layer_times();
        for span in SPAN_NAMES {
            let ms = times.get(span).map_or(0.0, |t| t.self_ms);
            self.values.insert(self_ms_name(span), ms);
        }
    }
}

/// Equal slices of a run; `throughput_ops_s` is their [`RATE_QUANTILE`]
/// rate.
pub const SLICES: usize = 20;

/// Quantile of the slice rates reported as throughput. A shared host's
/// other load comes and goes within a run, so slice rates are bimodal; a
/// median sits between the modes and jumps from run to run, while the
/// upper quartile reads the rate the program sustains while it has the
/// cores, as long as a quarter of the run does.
pub const RATE_QUANTILE: f64 = 0.75;

/// Nearest-rank percentile (`⌈p·N⌉`-th smallest); 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples strictly above the p90 value (the benchmark requires ten).
pub fn beyond_p90(samples: &[f64]) -> usize {
    let p90 = percentile(samples, 0.9);
    samples.iter().filter(|&&x| x > p90).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(beyond_p90(&v), 10);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name.to_string())
            .collect();
        names.extend(SPAN_NAMES.iter().map(|s| self_ms_name(s)));
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
