//! `smat-serve`: a multi-tenant SpMM serving engine over simulated devices.
//!
//! The paper's pipeline splits SpMM into an expensive one-time inspection
//! (row reordering + BCSR conversion, `T_init` in its cost model) and a
//! cheap repeatable execution (`T_e`). This crate builds the serving layer
//! that exploits that split end to end:
//!
//! * [`PreparedMatrixRegistry`] — a concurrent, size-bounded LRU of
//!   [`Tenant`]s (a row-shard plan plus one prepared [`smat::Smat`] per
//!   shard; an unsharded matrix is the one-shard tenant) keyed by
//!   [`MatrixFingerprint`](smat_formats::MatrixFingerprint) + config
//!   digest, so each distinct matrix pays `T_init` once and every request
//!   shares the handles.
//! * [`PlanCache`] — memoized launch geometry + static pre-flight verdict
//!   per (matrix, RHS width); inadmissible plans are refused at admission.
//! * [`Server`] — a device-pool scheduler: one worker thread per simulated
//!   device, bounded submission queues with typed backpressure
//!   ([`RejectReason`]), per-request deadlines, and least-loaded dispatch.
//! * [`batch`] — same-matrix requests are coalesced into one wide launch
//!   (bitwise identical to per-request execution) to amortize the
//!   per-launch constant.
//! * sharding — for matrices too big for one device: registration under
//!   [`ServerConfig::shard_max_bytes`] partitions the operand into
//!   nnz-balanced row shards (`smat-shard`), each prepared under its own
//!   fingerprint within the tenant's one registry line. Every submission
//!   fans out one sub-request per shard through the ordinary device-level
//!   dispatch and completes through a checked join ([`FanoutJoin`]) that
//!   row-concatenates the partial products — bitwise identical to
//!   unsharded execution, with per-shard recovery under chaos; for a
//!   one-shard tenant the join passes the response through.
//! * planning — an optional cost-model-driven admission planner
//!   ([`ServerConfig::planner`]): registrations without a pinned
//!   configuration are scored with the calibrated Eq. 1 perf model
//!   ([`smat::Planner`]) to choose a Tensor Core `{block shape,
//!   reordering}` per matrix (per shard for sharded ones); observed
//!   launch times flow back for online refits and every prediction is
//!   graded against the launch it planned
//!   ([`ServerStats::plan_mean_rel_error`]).
//! * [`chaos`] — fault survival over the seeded fault-injection layer of
//!   `smat-gpusim`: bounded retry with seeded-jitter backoff, per-device
//!   circuit breakers that eject flapping devices from dispatch,
//!   deterministic hedged re-dispatch, and graceful degradation to the
//!   scalar `baselines::cusparse` path — all surfaced in
//!   [`ChaosStats`] and as `chaos`-category trace events.
//! * dynamic matrices — registered tenants accept in-place cell mutations
//!   ([`Server::mutate`]): updates accumulate in a COO overlay on the
//!   prepared handle of the shard owning their row, requests pin the
//!   overlay epochs at admission (plans, batches, and execution all key on
//!   them, so a mutated matrix can never launch under a stale plan), and
//!   when the calibrated cost model prices an overlay's scalar surcharge
//!   above the re-preparation cost ([`CompactionPolicy`]), a background
//!   compaction re-prepares `base ⊕ overlay` of the shards with
//!   corrections and atomically swaps the registry handles — serving never
//!   blocks, and in-flight requests finish on the epochs they admitted
//!   under.
//! * concurrency verification — every lock, condvar, and protocol-bearing
//!   atomic in this crate is a checked `smat-sanitize` primitive, so
//!   lock-order analysis covers the engine when enabled (zero overhead
//!   otherwise), and the core protocols ([`ParkSlot`] publish-then-drain,
//!   warm-prepare single-producer, breaker single-writer) are verified
//!   under exhaustive interleaving by the model tests in
//!   `tests/model_check.rs`.
//!
//! Requests complete through an executor-independent future
//! ([`ResponseFuture`]); synchronous callers use its
//! [`wait`](ResponseFuture::wait) or [`block_on`]. `reproduce serve` (in
//! `smat-bench`) is the runnable serving demo, `tests/common/replay.rs` the
//! trace-replay driver the integration tests verify the engine with, and
//! DESIGN.md §10 the architecture discussion.

pub mod batch;
pub mod chaos;
pub mod error;
pub mod oneshot;
pub mod parkslot;
pub mod plan;
pub mod registry;
pub mod server;
pub mod stats;

pub use batch::{spmm_batched, spmm_scalar_fallback, take_batch};
pub use chaos::{ChaosCounters, CircuitBreaker, RecoveryPolicy};
pub use error::{RejectReason, ServeError};
pub use oneshot::block_on;
pub use parkslot::ParkSlot;
pub use plan::{Plan, PlanCache, PlanStats};
pub use registry::{
    config_digest, AdmissionState, MatrixKey, ParkResult, PreparedMatrixRegistry, RegistryStats,
    Tenant,
};
pub use server::{CompactionPolicy, ResponseFuture, ServeResponse, Server, ServerConfig};
pub use smat::{Calibration, MatrixUpdate, OverlaySnapshot, PlanDecision, PlanSpace, Planner};
pub use smat_shard::{FanoutJoin, ShardPlan, ShardPolicy};
pub use smat_trace::TraceHandle;
pub use stats::{ChaosStats, DeviceStats, LatencyStats, ServerStats};
