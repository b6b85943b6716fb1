//! Serving statistics: counter snapshots and latency percentiles.
//!
//! [`ServerStats`] splits into two kinds of fields. Counters driven purely
//! by the request stream (submissions, completions, cache hits) are
//! deterministic for a fixed trace submitted from one thread; fields driven
//! by host scheduling (wall-clock latency percentiles, batch composition,
//! per-device occupancy) are not, and the serving example keeps them out of
//! its reproducibility check.

use serde::Serialize;

use crate::plan::PlanStats;
use crate::registry::RegistryStats;

/// Wall-clock latency summary over completed requests.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LatencyStats {
    /// Completed requests measured.
    pub count: usize,
    /// Median submit→completion latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Slowest request in milliseconds.
    pub max_ms: f64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
}

impl LatencyStats {
    /// Summarizes a set of latency samples (order-insensitive).
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        LatencyStats {
            count: sorted.len(),
            p50_ms: percentile(&sorted, 50.0),
            p99_ms: percentile(&sorted, 99.0),
            max_ms: *sorted.last().expect("non-empty"),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

/// Nearest-rank percentile over pre-sorted samples: `⌈p/100·N⌉ − 1` as a
/// zero-based index. The previous `round(p/100·(N−1))` variant sat between
/// nearest-rank and linear interpolation and overshot by one sample on even
/// counts (p50 of 1..=100 came out 51, not 50).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One simulated device's view of the run.
#[derive(Clone, Debug, Serialize)]
pub struct DeviceStats {
    /// Device index in the pool.
    pub device: usize,
    /// Kernel launches executed (== batches dispatched to this device).
    pub launches: u64,
    /// Requests completed by this device.
    pub served: u64,
    /// B columns processed by this device.
    pub cols: u64,
    /// Simulated kernel milliseconds accumulated.
    pub sim_ms: f64,
    /// Host milliseconds this device's worker spent executing.
    pub busy_ms: f64,
    /// `busy_ms` over the server's *active* (unpaused) lifetime so far.
    ///
    /// Time spent inside [`Server::pause`](crate::Server::pause) windows is
    /// excluded from the denominator: a replay driver that pauses dispatch
    /// between submission windows would otherwise see occupancy decay
    /// toward zero even while every device was saturated whenever it was
    /// allowed to run.
    pub occupancy: f64,
    /// Sub-requests (one per shard of every admitted request) enqueued to
    /// this device.
    pub dispatched: u64,
    /// Terminal responses this device's worker delivered for dispatched
    /// requests — success, failure, or deadline expiry. At quiescence
    /// `dispatched == completed` on every device, or a request was lost.
    pub completed: u64,
    /// Requests waiting in this device's queue right now.
    pub queue_depth: usize,
    /// Whether this device's circuit breaker is currently open (the device
    /// accumulated [`RecoveryPolicy::breaker_threshold`](crate::RecoveryPolicy::breaker_threshold)
    /// consecutive injected failures and is deprioritized by dispatch).
    pub breaker_open: bool,
}

/// Fault-injection and recovery counters, all zero when the server runs
/// without a chaos configuration.
///
/// Determinism contract: when the request trace is replayed through
/// drained submission windows (the `examples/serve.rs` discipline) with the
/// same [`FaultConfig`](smat_gpusim::FaultConfig), every field here is
/// byte-for-byte reproducible — the fault schedule is a pure function of
/// (seed, device, request content), see `smat_gpusim::fault`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct ChaosStats {
    /// Faults injected into launches and detected by the serving layer
    /// (sum of the three per-kind counters; timing-only stragglers are not
    /// observable here and are traced by the simulator instead).
    pub faults_injected: u64,
    /// Transient launch refusals observed.
    pub faults_transient: u64,
    /// ECC-style detected result corruptions observed.
    pub faults_ecc: u64,
    /// Launches refused because the device was in an offline window.
    pub faults_offline: u64,
    /// Launch re-attempts (Tensor Core retries plus scalar-rung retries).
    pub retries: u64,
    /// Batches hedged to a second device mid-recovery.
    pub hedges: u64,
    /// Circuit-breaker trips (closed → open transitions) across the pool.
    pub breaker_trips: u64,
    /// Requests completed through the scalar degradation path.
    pub degraded_completions: u64,
}

impl ChaosStats {
    /// Whether any fault-handling machinery fired at all.
    pub fn any_activity(&self) -> bool {
        *self != ChaosStats::default()
    }
}

/// Snapshot of the whole serving engine.
///
/// Determinism contract: for a fixed request trace submitted from a single
/// thread, the counter fields (`submitted`, `completed`, the `rejected_*`
/// family, `failed`, the registry/plan cache counters, and — under drained
/// submission windows — the whole [`ChaosStats`] block) are
/// reproducible run to run. Everything timed against the host clock
/// (`wall_ms`, `active_ms`, `latency`, per-device `busy_ms`/`occupancy`)
/// and everything shaped by worker scheduling (`batches`, `max_batch`,
/// per-device `served`/`cols` splits) is not; reproducibility checks must
/// compare only the first group. `examples/serve.rs` encodes exactly that
/// split in its `DeterministicSummary`.
#[derive(Clone, Debug, Serialize)]
pub struct ServerStats {
    /// Host milliseconds since the server was constructed.
    pub wall_ms: f64,
    /// `wall_ms` minus time spent paused — the occupancy denominator.
    pub active_ms: f64,
    /// Requests accepted into a queue.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests refused with `QueueFull`.
    pub rejected_queue_full: u64,
    /// Requests refused with `Deadline`.
    pub rejected_deadline: u64,
    /// Requests refused with `Preflight`.
    pub rejected_preflight: u64,
    /// Requests that reached a device and failed there (e.g. simulated OOM).
    pub failed: u64,
    /// Kernel launches across the pool (each serves one batch).
    pub batches: u64,
    /// Requests served through those batches (≥ `batches`).
    pub batched_requests: u64,
    /// Largest batch observed, in requests.
    pub max_batch: u64,
    /// Mutation batches applied through [`Server::mutate`](crate::Server)
    /// (each may carry many cell updates; the overlay epoch advances by the
    /// op count). Driven purely by the request stream — part of the
    /// deterministic counter group.
    pub mutations: u64,
    /// Shard handles re-prepared by background compactions that published
    /// (mirrors [`RegistryStats::compactions`]). Deterministic under drained replay:
    /// the compaction *decision* is a pure function of matrix content and
    /// the calibrated model, and the driver quiesces compactions at window
    /// boundaries.
    pub compactions: u64,
    /// Requests against tenants of more than one shard, fanned out across
    /// the pool (each counts once in `submitted`/`completed`).
    pub fanout_requests: u64,
    /// Per-shard sub-requests those fan-outs emitted (not counted in
    /// `submitted`; they surface per-device in [`DeviceStats::dispatched`]).
    pub shard_subrequests: u64,
    /// Total requests waiting across all queues right now.
    pub queue_depth: usize,
    /// Total simulated kernel milliseconds across the pool.
    pub sim_ms_total: f64,
    /// Requests completed under a planner-chosen configuration whose
    /// prediction was checked against the observed launch time. Zero
    /// without an admission planner and for pinned registrations. A pure
    /// request-stream counter under drained replay (degradation, the only
    /// exclusion, is content-deterministic there) — part of the
    /// deterministic group.
    pub planned_requests: u64,
    /// Prediction checks performed — one per planned, non-degraded batch.
    /// Depends on batch composition; *not* deterministic.
    pub plan_predictions: u64,
    /// Mean relative error `|predicted − observed| / observed` over those
    /// checks (`0.0` when none ran). The falsifiability stat of the
    /// admission planner: each check predicts the batch's total width, so
    /// the value depends on batch composition and is *not* part of the
    /// deterministic counter group.
    pub plan_mean_rel_error: f64,
    /// Online perf-model refits the planner has performed.
    pub plan_refits: u64,
    /// Observed launch samples the planner accepted into refit windows.
    pub plan_observations: u64,
    /// Prepared-matrix registry counters.
    pub registry: RegistryStats,
    /// Plan-cache counters.
    pub plans: PlanStats,
    /// Fault-injection and recovery counters (all zero without chaos).
    pub chaos: ChaosStats,
    /// Wall-clock latency summary.
    pub latency: LatencyStats,
    /// Per-device breakdown.
    pub devices: Vec<DeviceStats>,
}

impl ServerStats {
    /// Mean requests per launch — the amortization factor batching bought.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let l = LatencyStats::from_samples(&samples);
        assert_eq!(l.count, 100);
        assert_eq!(l.p50_ms, 50.0); // nearest rank: ⌈0.50·100⌉ = 50th sample
        assert_eq!(l.p99_ms, 99.0); // ⌈0.99·100⌉ = 99th sample
        assert_eq!(l.max_ms, 100.0);
        assert!((l.mean_ms - 50.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank_boundaries() {
        // N=4: p50 → ⌈2⌉ = 2nd sample, p75 → 3rd, p100 → 4th, tiny p → 1st.
        let samples = [10.0, 20.0, 30.0, 40.0];
        let l = LatencyStats::from_samples(&samples);
        assert_eq!(l.p50_ms, 20.0);
        assert_eq!(percentile(&samples, 75.0), 30.0);
        assert_eq!(percentile(&samples, 100.0), 40.0);
        assert_eq!(percentile(&samples, 0.1), 10.0);
        // Single sample: every percentile is that sample.
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn latency_of_empty_sample_set_is_zeroed() {
        let l = LatencyStats::from_samples(&[]);
        assert_eq!(l.count, 0);
        assert_eq!(l.p99_ms, 0.0);
    }

    #[test]
    fn latency_is_order_insensitive() {
        let a = LatencyStats::from_samples(&[3.0, 1.0, 2.0]);
        let b = LatencyStats::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a.p50_ms, b.p50_ms);
        assert_eq!(a.p50_ms, 2.0);
    }
}
