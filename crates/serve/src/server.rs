//! The serving engine: admission control, least-loaded device dispatch,
//! same-matrix batching, and async completion.
//!
//! One worker thread owns each simulated device. [`Server::submit`] resolves
//! the tenant from the registry, consults the plan cache for every shard
//! (refusing inadmissible plans before they occupy queue slots), places one
//! sub-request per shard on the least-loaded device whose bounded queue has
//! room, and returns a future. The worker coalesces same-shard requests up
//! to the column budget into one wide launch
//! ([`crate::batch::spmm_batched`]); every request completes through a
//! [`FanoutJoin`] over its shards — a pass-through for the one-shard case.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use smat_sanitize::sync::{Condvar, Mutex};
use std::task::{Context, Poll};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smat::{MatrixUpdate, OverlaySnapshot, Planner, Smat, SmatConfig};
use smat_formats::{Csr, Dense, Element, MatrixFingerprint};
use smat_gpusim::{compose_key, FaultConfig, FaultPlan, Gpu, SimError};
use smat_shard::{FanoutJoin, ShardPlan, ShardPolicy};

use crate::batch::{spmm_batched, spmm_scalar_fallback, take_batch};
use crate::chaos::{ChaosCounters, CircuitBreaker, RecoveryPolicy};
use crate::error::{RejectReason, ServeError};
use crate::oneshot::{self, Receiver};
use crate::plan::PlanCache;
use crate::registry::{MatrixKey, ParkResult, PreparedMatrixRegistry, Tenant};
use crate::stats::{DeviceStats, LatencyStats, ServerStats};

/// Serving engine parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Preparation/execution configuration shared by every matrix
    /// (including the simulated device model the pool instantiates).
    pub smat: SmatConfig,
    /// Simulated devices in the pool (one worker thread each).
    pub devices: usize,
    /// Bounded queue depth per device, in requests; admission returns
    /// [`RejectReason::QueueFull`] when every queue is at capacity.
    pub queue_capacity: usize,
    /// Column budget per batched launch: same-matrix requests are coalesced
    /// until their B panels reach this many columns.
    pub column_budget: usize,
    /// Prepared matrices kept resident (LRU beyond this).
    pub registry_capacity: usize,
    /// Launch plans kept resident (LRU beyond this).
    pub plan_capacity: usize,
    /// Deadline applied to requests submitted without an explicit one;
    /// `None` means no deadline.
    pub default_deadline: Option<Duration>,
    /// Deterministic fault injection over the device pool. `None` (the
    /// default) serves fault-free; `Some` builds one shared
    /// [`FaultPlan`] every device consults, keyed per attempt by the batch
    /// lead request's sequence number so the fault schedule is independent
    /// of thread interleaving.
    pub chaos: Option<FaultConfig>,
    /// Retry/hedge/breaker/degradation parameters (active only when faults
    /// actually occur; a fault-free run never enters the recovery ladder).
    pub recovery: RecoveryPolicy,
    /// Shard byte budget for registered matrices. `Some(n)` with `n > 0`
    /// partitions any matrix whose estimated CSR footprint exceeds `n`
    /// into nnz-balanced row shards, each prepared, planned, cached and
    /// mutated independently within the tenant's one registry line;
    /// submissions fan out one sub-request per shard across the pool and
    /// the per-shard products are row-concatenated (bitwise identical to
    /// unsharded execution). `None` (the default) and `Some(0)` keep every
    /// tenant in one shard.
    pub shard_max_bytes: Option<usize>,
    /// Cost-model-driven admission planner. `None` (the default) prepares
    /// every registration under [`ServerConfig::smat`] verbatim. `Some`
    /// lets the planner choose a Tensor Core `{block shape, reordering}`
    /// per registered matrix (per shard for sharded ones), scored with the
    /// calibrated perf model at a planning width of
    /// [`ServerConfig::column_budget`] columns — the width a saturated
    /// batched launch runs at. Observed launch times flow back into the
    /// planner for online refits, and every prediction is checked against
    /// the launch it planned (`plan_mean_rel_error` in the stats).
    /// Tenants that pin a configuration via
    /// [`Server::register_with_config`] bypass the planner entirely.
    pub planner: Option<Arc<Planner>>,
    /// When to fold a mutated tenant's overlay back into a prepared base
    /// (see [`Server::mutate`] and [`Server::compact`]).
    pub compaction: CompactionPolicy,
}

/// Background-compaction policy for dynamic matrices.
///
/// Every [`Server::mutate`] call accumulates into the tenant's COO overlay;
/// requests keep serving (base on the Tensor Core path, overlay corrections
/// on the scalar path) but each correction term costs scalar work per
/// launch. Compaction re-prepares `base ⊕ overlay` on a background thread
/// and atomically swaps the registry handle — serving never blocks, and
/// in-flight requests finish on the snapshot they admitted under.
///
/// With an admission planner the trigger is its calibrated cost model
/// ([`Planner::should_compact`]): compact when the overlay's per-launch
/// scalar surcharge, amortized over `horizon` launches, exceeds the
/// predicted one-time re-preparation cost. Without a planner the
/// structural fallback fires when the overlay reaches
/// `max(min_overlay_cells, overlay_nnz_fraction · base nnz)` correction
/// terms. Both triggers are pure functions of matrix content, so the
/// decision replays deterministically.
#[derive(Clone, Copy, Debug)]
pub struct CompactionPolicy {
    /// Consider compaction automatically after every mutation batch.
    /// `false` leaves compaction to explicit [`Server::compact`] calls.
    pub auto: bool,
    /// Structural-fallback floor: never auto-compact below this many
    /// overlay correction terms (amortization is hopeless for tiny deltas).
    pub min_overlay_cells: usize,
    /// Structural-fallback fraction of the base nnz at which the overlay is
    /// considered heavy enough to fold in.
    pub overlay_nnz_fraction: f64,
    /// Launches the cost model amortizes the re-preparation over.
    pub horizon: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            auto: true,
            min_overlay_cells: 64,
            overlay_nnz_fraction: 0.02,
            horizon: 256,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            smat: SmatConfig::default(),
            devices: 2,
            queue_capacity: 256,
            column_budget: 64,
            registry_capacity: 8,
            plan_capacity: 128,
            default_deadline: None,
            chaos: None,
            recovery: RecoveryPolicy::default(),
            shard_max_bytes: None,
            planner: None,
            compaction: CompactionPolicy::default(),
        }
    }
}

/// A fulfilled request: the product plus execution metadata.
#[derive(Clone, Debug)]
pub struct ServeResponse<T> {
    /// `C = A·B` for this request's panel, in original row order.
    pub c: Dense<T>,
    /// Pool device that executed the batch.
    pub device: usize,
    /// Requests served by the shared launch (including this one).
    pub batched_with: usize,
    /// Total B columns of the shared launch.
    pub batch_cols: usize,
    /// Simulated kernel milliseconds of the shared launch.
    pub sim_ms: f64,
    /// Host submit→completion latency in milliseconds.
    pub wall_ms: f64,
    /// Whether this response was produced by the scalar degradation path
    /// (bitwise identical to the Tensor Core result; only the timing
    /// differs).
    pub degraded: bool,
    /// Launch attempts the batch needed (1 on the fault-free fast path).
    pub attempts: u32,
    /// The planner's predicted kernel milliseconds for the shared launch,
    /// recorded before the observation fed back into the model. `None`
    /// when the server runs without an admission planner, for pinned
    /// registrations, and for degraded completions (a scalar-path timing
    /// is not a sample of the planned mode). For sharded requests this is
    /// the sum over shard launches, `None` if any shard lacked one.
    /// Together with `sim_ms` this is the per-request
    /// predicted-vs-actual record.
    pub predicted_ms: Option<f64>,
}

/// Future returned by [`Server::submit`].
pub struct ResponseFuture<T> {
    rx: Receiver<Result<ServeResponse<T>, ServeError>>,
}

impl<T> ResponseFuture<T> {
    /// Blocks the calling thread until the response arrives — the
    /// executor-free consumption path for synchronous callers.
    pub fn wait(self) -> Result<ServeResponse<T>, ServeError> {
        self.rx.wait().unwrap_or(Err(ServeError::ShutDown))
    }
}

impl<T> Future for ResponseFuture<T> {
    type Output = Result<ServeResponse<T>, ServeError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Some(res)) => Poll::Ready(res),
            Poll::Ready(None) => Poll::Ready(Err(ServeError::ShutDown)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// A request's terminal result.
type Outcome<T> = Result<ServeResponse<T>, ServeError>;

/// One in-queue request: one shard's sub-request of a submission.
struct Request<T> {
    /// The shard's key (for a one-shard tenant, the tenant key).
    key: MatrixKey,
    smat: Smat<T>,
    /// The overlay snapshot pinned at admission. The batcher keys on
    /// `(key, overlay.epoch())` so a batch is same-epoch by construction,
    /// and execution applies exactly this delta — a mutation (or a
    /// background compaction swap) landing after admission cannot change
    /// what an in-flight request computes.
    overlay: Arc<OverlaySnapshot>,
    b: Dense<T>,
    deadline: Option<Instant>,
    enq: Instant,
    /// Monotone per-server submission id — the request's identity on trace
    /// timelines (batch membership, lifecycle spans).
    seq: u64,
    /// The submission's join (see [`make_join`]) and this shard's part in it.
    join: Arc<FanoutJoin<Outcome<T>>>,
    shard: usize,
}

impl<T: Send> Request<T> {
    /// Delivers the terminal result into the submission's join.
    fn finish(self, result: Outcome<T>) {
        self.join.complete(self.shard, result);
    }
}

/// Per-device state shared between the submitter and one worker.
struct DeviceState<T> {
    queue: Mutex<VecDeque<Request<T>>>,
    cv: Condvar,
    /// Outstanding B columns (queued + in flight) — the load metric of
    /// least-loaded dispatch.
    load_cols: AtomicUsize,
    /// Sub-requests enqueued to this device.
    dispatched: AtomicU64,
    /// Terminal responses delivered by this device's worker. At quiescence
    /// `dispatched == completed`, or a request was lost.
    completed: AtomicU64,
    launches: AtomicU64,
    served: AtomicU64,
    cols: AtomicU64,
    /// Simulated kernel time, in integer nanoseconds (atomic accumulation
    /// keeps per-device totals independent of completion interleaving).
    sim_ns: AtomicU64,
    /// Host execution time, nanoseconds.
    busy_ns: AtomicU64,
}

impl<T> DeviceState<T> {
    fn new() -> Self {
        DeviceState {
            queue: Mutex::labeled("server.device.queue", VecDeque::new()),
            cv: Condvar::labeled("server.device.cv"),
            load_cols: AtomicUsize::new(0),
            dispatched: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            launches: AtomicU64::new(0),
            served: AtomicU64::new(0),
            cols: AtomicU64::new(0),
            sim_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }
}

/// Pool-wide counters.
#[derive(Default)]
struct Central {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_preflight: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch: AtomicU64,
    /// Requests against tenants of more than one shard.
    fanouts: AtomicU64,
    /// Per-shard sub-requests those fan-outs emitted.
    shard_subrequests: AtomicU64,
    /// Mutation batches applied through [`Server::mutate`].
    mutations: AtomicU64,
    /// Trace identity source: every submission (accepted or not) draws a
    /// seq. Not exported in stats — the `submitted` counter keeps its
    /// accepted-only semantics.
    next_seq: AtomicU64,
    latencies: Mutex<Vec<f64>>,
    /// Requests completed under a planner-chosen configuration whose
    /// prediction was checked against the observed launch time.
    planned: AtomicU64,
    /// Accumulated (Σ relative error, check count) of plan predictions
    /// against observed launch times.
    plan_err: Mutex<(f64, u64)>,
}

struct PoolShared<T> {
    devices: Vec<DeviceState<T>>,
    /// One simulated GPU per device. Workers execute on their own entry;
    /// hedged and rotated-fallback attempts execute on a *peer's* entry,
    /// which is safe because `Gpu::launch` takes `&self` and the fault
    /// schedule is keyed by request content, not launch interleaving.
    gpus: Vec<Gpu>,
    /// One circuit breaker per device.
    breakers: Vec<CircuitBreaker>,
    /// The shared fault plan (present iff chaos is configured).
    fault_plan: Option<Arc<FaultPlan>>,
    recovery: RecoveryPolicy,
    chaos: ChaosCounters,
    central: Central,
    /// The admission planner (mirrors [`ServerConfig::planner`]); workers
    /// feed observed launch times back through it.
    planner: Option<Arc<Planner>>,
    shutdown: AtomicBool,
    paused: AtomicBool,
    column_budget: usize,
    started: Instant,
    /// Nanoseconds spent in completed pause windows. Together with
    /// `pause_began` this forms the "unpaused clock" occupancy divides by,
    /// so deterministic-replay pauses don't deflate device occupancy.
    paused_ns: AtomicU64,
    /// Start of the currently open pause window, if paused.
    pause_began: Mutex<Option<Instant>>,
}

/// The async SpMM serving engine. See the crate docs for the architecture.
pub struct Server<T: Element> {
    shared: Arc<PoolShared<T>>,
    registry: Arc<PreparedMatrixRegistry<T>>,
    plans: Arc<PlanCache>,
    config: ServerConfig,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Element> Server<T> {
    /// Starts the engine: spawns one worker thread per configured device.
    ///
    /// # Panics
    /// Panics if `devices`, `queue_capacity`, or `column_budget` is zero.
    pub fn new(config: ServerConfig) -> Self {
        assert!(config.devices > 0, "pool needs at least one device");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(config.column_budget > 0, "column budget must be positive");
        assert!(
            config.recovery.max_attempts > 0,
            "recovery needs at least one launch attempt"
        );
        let fault_plan = config.chaos.map(|cfg| Arc::new(FaultPlan::new(cfg)));
        let gpus: Vec<Gpu> = (0..config.devices)
            .map(|idx| {
                let mut gpu = Gpu::new(config.smat.device.clone()).with_trace_device(idx);
                if let Some(plan) = &fault_plan {
                    gpu = gpu.with_fault_plan(Arc::clone(plan));
                }
                gpu
            })
            .collect();
        let shared = Arc::new(PoolShared {
            devices: (0..config.devices).map(|_| DeviceState::new()).collect(),
            gpus,
            breakers: (0..config.devices).map(|_| CircuitBreaker::new()).collect(),
            fault_plan,
            recovery: config.recovery,
            chaos: ChaosCounters::default(),
            central: Central::default(),
            planner: config.planner.clone(),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            column_budget: config.column_budget,
            started: Instant::now(),
            paused_ns: AtomicU64::new(0),
            pause_began: Mutex::labeled("server.pause_began", None),
        });
        let workers = (0..config.devices)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("smat-serve-dev{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            shared,
            registry: Arc::new(PreparedMatrixRegistry::new(config.registry_capacity)),
            plans: Arc::new(PlanCache::new(config.plan_capacity)),
            config,
            workers,
        }
    }

    /// Registers a matrix: fingerprints it and runs the one-time
    /// preprocessing unless an equal matrix is already resident. Returns
    /// the key for [`Server::submit`]. Duplicate registrations of the same
    /// matrix are registry hits and cost one fingerprint pass, not a
    /// prepare.
    ///
    /// Under [`ServerConfig::shard_max_bytes`] a matrix over the budget
    /// becomes a tenant of several row shards, each prepared (and, with a
    /// planner, planned) on its own row slice; submissions against the
    /// returned key fan out across the pool.
    pub fn register(&self, a: &Csr<T>) -> MatrixKey {
        self.register_as(a, self.preparer(None))
    }

    /// Registers `a` under an explicit pinned configuration, bypassing the
    /// admission planner; the shard budget still applies. The key is
    /// derived from `cfg`'s digest, so the same matrix pinned under
    /// different configurations coexists in the registry (and is distinct
    /// from its planner-managed registration). Tenants that know their
    /// configuration use this; everyone else goes through
    /// [`Server::register`] and lets the planner choose.
    pub fn register_with_config(&self, a: &Csr<T>, cfg: SmatConfig) -> MatrixKey {
        self.register_as(a, self.preparer(Some(cfg)))
    }

    fn register_as(&self, a: &Csr<T>, preparer: Preparer) -> MatrixKey {
        // With an admission planner, the key still identifies
        // (matrix, base config): deciding before key derivation would make
        // key computation as expensive as planning, and equal matrices
        // must keep deduplicating regardless of when they were planned.
        // The prepared handles carry the planned configurations.
        let key = MatrixKey::new(MatrixFingerprint::of_csr(a), &preparer.cfg);
        self.registry
            .get_or_prepare(key, || preparer.tenant(a, key));
        key
    }

    /// Begins preparing `a` on a background thread and returns its key
    /// immediately. Submissions that arrive while preparation is in flight
    /// park on it (see [`Server::submit`]) instead of being rejected, so a
    /// tenant can warm a matrix and start streaming requests without a
    /// registration barrier. Beyond the fingerprint pass this is a no-op if
    /// an equal matrix is already resident or already being prepared.
    pub fn warm_prepare(&self, a: &Csr<T>) -> MatrixKey {
        let preparer = self.preparer(None);
        let key = MatrixKey::new(MatrixFingerprint::of_csr(a), &preparer.cfg);
        let a = a.clone();
        self.registry
            .warm_prepare(key, move || preparer.tenant(&a, key));
        key
    }

    /// How a registration is prepared on this server: under the base
    /// configuration and the planner, or under a `pinned` one alone.
    fn preparer(&self, pinned: Option<SmatConfig>) -> Preparer {
        let (cfg, planner) = match pinned {
            Some(cfg) => (cfg, None),
            None => (self.config.smat.clone(), self.config.planner.clone()),
        };
        Preparer {
            cfg,
            planner,
            width: self.config.column_budget,
            policy: ShardPolicy {
                max_bytes: self.config.shard_max_bytes.unwrap_or(0),
            },
        }
    }

    /// The partition plan behind `key`, if it is resident with more than
    /// one shard.
    pub fn shard_plan(&self, key: &MatrixKey) -> Option<Arc<ShardPlan>> {
        self.registry
            .peek_tenant(key)
            .map(|tenant| Arc::clone(tenant.plan()))
            .filter(|plan| plan.is_sharded())
    }

    /// Applies a batch of cell mutations to the registered matrix `key` and
    /// returns the overlay epoch the batch landed at: the sum of the
    /// shards' epochs, so for an unsharded tenant simply its epoch.
    ///
    /// Each update goes to the shard owning its row, in that shard's
    /// coordinates, and accumulates in the shard's COO overlay: subsequent
    /// submissions admit under the new epochs and compute against
    /// `base ⊕ overlay` (bitwise identical to a from-scratch re-prepare of
    /// the mutated matrix), while requests already admitted finish on the
    /// snapshots they pinned. Nothing re-prepares inline — when the policy
    /// says a shard's overlay has grown past the amortization point, a
    /// background compaction folds the overlays into fresh prepared handles
    /// and atomically swaps them in ([`Server::compact`]). A batch spanning
    /// shards is applied shard by shard: a request admitted concurrently
    /// may see it in some shards and not yet in others.
    ///
    /// Every update carries absolute cell state (an explicit value, or
    /// deletion), so re-applying a batch is idempotent; the swap race with
    /// a concurrent compaction is resolved by re-applying to the fresh
    /// handle, never by blocking either side.
    ///
    /// Errors: [`ServeError::UnknownMatrix`] for unregistered keys and
    /// [`ServeError::UpdateOutOfBounds`] if any update targets a cell
    /// outside the matrix — checked up front, so a rejected batch mutates
    /// nothing.
    pub fn mutate(&self, key: MatrixKey, ops: &[MatrixUpdate<T>]) -> Result<u64, ServeError> {
        // `peek`, not `get`: mutation is not a serving lookup and must not
        // perturb LRU recency or the hit/miss counters.
        let Some(tenant) = self.registry.peek_tenant(&key) else {
            return Err(ServeError::UnknownMatrix);
        };
        let (nrows, ncols) = (tenant.plan().nrows, tenant.plan().ncols);
        if let Some((row, col)) = ops
            .iter()
            .map(MatrixUpdate::cell)
            .find(|&(row, col)| row >= nrows || col >= ncols)
        {
            return Err(ServeError::UpdateOutOfBounds {
                nrows,
                ncols,
                row,
                col,
            });
        }
        let mut routed = vec![Vec::new(); tenant.shards().len()];
        for op in ops {
            let row = op.cell().0;
            let s = tenant.shard_of(row);
            routed[s].push(op.with_row(row - tenant.plan().shards[s].row_start));
        }
        let mut epoch = 0;
        let mut due = false;
        for (s, shard_ops) in routed.iter().enumerate() {
            let mut handle = tenant.shards()[s].clone();
            if shard_ops.is_empty() {
                epoch += handle.overlay_epoch();
                continue;
            }
            // Apply, then confirm the handle is still the resident one. A
            // background compaction publishing between the peek and the
            // apply would strand the updates on the retired handle (the
            // compactor's rebase only carries what it observed) — re-apply
            // to the fresh handle; absolute-state updates make the
            // double-apply harmless.
            epoch += loop {
                let landed = handle.apply_updates(shard_ops);
                match self.registry.peek_tenant(&key) {
                    Some(cur) if cur.shards()[s].ptr_eq(&handle) => break landed,
                    Some(cur) => handle = cur.shards()[s].clone(),
                    // Evicted mid-mutation: the updates rode the retired
                    // handle out. The tenant is gone either way.
                    None => break landed,
                }
            };
            due |= self.overlay_past_amortization(&handle);
        }
        if !ops.is_empty() {
            self.shared
                .central
                .mutations
                .fetch_add(1, Ordering::Relaxed);
            if self.config.compaction.auto && due {
                self.compact(key);
            }
        }
        Ok(epoch)
    }

    /// Whether `handle`'s overlay has grown past the re-preparation
    /// amortization point under the configured policy: the planner's
    /// calibrated cost model, or the structural threshold without a
    /// planner. Pure function of matrix content — deterministic across
    /// replays.
    fn overlay_past_amortization(&self, handle: &Smat<T>) -> bool {
        let terms = handle.overlay_snapshot().correction_terms();
        if terms == 0 {
            return false;
        }
        let policy = &self.config.compaction;
        match &self.config.planner {
            Some(p) => p.should_compact(
                handle.bcsr().nblocks(),
                terms,
                self.config.column_budget,
                policy.horizon,
            ),
            None => {
                let floor = policy
                    .min_overlay_cells
                    .max((policy.overlay_nnz_fraction * handle.fingerprint().nnz as f64) as usize)
                    .max(1);
                terms >= floor
            }
        }
    }

    /// Starts a background compaction of `key`: re-prepares
    /// `base ⊕ overlay` of every shard whose overlay carries corrections
    /// off-thread (reusing the warm-prepare park/publish machinery) and
    /// atomically swaps the fresh handles in. Serving never blocks —
    /// submissions keep admitting against the old handles until the swap,
    /// and in-flight requests finish on the snapshots they pinned.
    /// Mutations racing the swap are rebased onto the fresh handles.
    ///
    /// Returns `false` (without spawning) if the key is not resident, has
    /// nothing to fold, or a compaction for it is already in flight. With
    /// an admission planner each merged shard is re-planned from the base
    /// configuration; otherwise it re-prepares under its old handle's
    /// configuration.
    pub fn compact(&self, key: MatrixKey) -> bool {
        let preparer = self.preparer(None);
        self.registry.compact_prepare(key, move |old| {
            let merged = old.merged_csr();
            match preparer.planner {
                Some(_) => preparer.shard(&merged),
                None => Smat::prepare(&merged, old.config().clone()),
            }
        })
    }

    /// Blocks until every in-flight background compaction has finished
    /// (published or bailed). Replay drivers call this at window boundaries
    /// so epoch swaps land at deterministic points in the trace.
    pub fn quiesce_compactions(&self) {
        self.registry.wait_compactions();
    }

    /// Drops the registration for `key`. In-flight requests and
    /// compactions keep their pinned handles; new submissions see
    /// [`ServeError::UnknownMatrix`]. Returns whether anything was removed.
    pub fn invalidate(&self, key: &MatrixKey) -> bool {
        self.registry.invalidate(key)
    }

    /// Submits `C = A·B` for the registered matrix `key` with the
    /// configured default deadline. Returns a future resolving to the
    /// response (or a typed rejection). Admission control runs inline:
    /// immediate rejections (unknown key, shape mismatch, inadmissible
    /// plan, every queue full) resolve the future without queueing.
    pub fn submit(&self, key: MatrixKey, b: Dense<T>) -> ResponseFuture<T> {
        self.submit_with_deadline(key, b, self.config.default_deadline)
    }

    /// [`Server::submit`] with an explicit per-request deadline measured
    /// from now; the request is dropped with [`RejectReason::Deadline`] if
    /// it has not reached a device within the budget.
    pub fn submit_with_deadline(
        &self,
        key: MatrixKey,
        b: Dense<T>,
        deadline: Option<Duration>,
    ) -> ResponseFuture<T> {
        let seq = self.shared.central.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut adm_span = smat_trace::span("admission", "serve");
        adm_span.arg("seq", seq);
        adm_span.arg("cols", b.ncols() as u64);
        let (tx, rx) = oneshot::channel();
        let fut = ResponseFuture { rx };
        if self.shared.shutdown.load(Ordering::Acquire) {
            adm_span.arg("outcome", "shutdown");
            tx.send(Err(ServeError::ShutDown));
            return fut;
        }
        // The deadline is fixed at submit time, so time spent parked on an
        // in-flight preparation counts against the request's budget.
        let now = Instant::now();
        let deadline = deadline.map(|d| now + d);
        if let Some(tenant) = self.registry.get(&key) {
            admit_prepared(
                &self.shared,
                &self.plans,
                self.config.queue_capacity,
                tenant,
                b,
                deadline,
                now,
                seq,
                tx,
                &mut adm_span,
            );
            return fut;
        }
        // Not resident: the key may be mid-preparation (a warm_prepare or a
        // concurrent register). Park the admission tail on the in-flight
        // prepare — never block the submitter, never duplicate the prepare.
        // The sender lives in a shared cell so the Absent arm can still
        // reject with the typed error after the waiter was dropped unused.
        let shared = Arc::clone(&self.shared);
        let plans = Arc::clone(&self.plans);
        let queue_capacity = self.config.queue_capacity;
        let tx_cell = Arc::new(Mutex::labeled("server.parked_tx", Some(tx)));
        let tx_park = Arc::clone(&tx_cell);
        match self.registry.get_or_park(&key, move |tenant| {
            // POLICY (poisoning): recover. The cell holds a `take`-once
            // Option; either arm observing a poisoned lock still sees a
            // consistent taken/untaken state.
            let Some(tx) = tx_park.lock_or_recover().take() else {
                return;
            };
            // Deferred admission runs on whichever thread fulfilled the
            // preparation; it gets its own span segment on that timeline.
            let mut span = smat_trace::span("admission", "serve");
            span.arg("seq", seq);
            span.arg("deferred", 1u64);
            admit_prepared(
                &shared,
                &plans,
                queue_capacity,
                tenant,
                b,
                deadline,
                now,
                seq,
                tx,
                &mut span,
            );
        }) {
            // Raced to ready: the waiter already ran inline above.
            ParkResult::Ready => {}
            ParkResult::Parked => adm_span.arg("outcome", "parked"),
            ParkResult::Absent => {
                adm_span.arg("outcome", "unknown_matrix");
                if let Some(tx) = tx_cell.lock_or_recover().take() {
                    tx.send(Err(ServeError::UnknownMatrix));
                }
            }
        }
        fut
    }

    /// Pauses dispatch: workers stop pulling from their queues (in-flight
    /// batches finish). Admission keeps accepting until queues fill, which
    /// makes backpressure and batch composition reproducible — tests and
    /// the trace-replay example pause, submit, then [`Server::resume`].
    pub fn pause(&self) {
        // POLICY (poisoning): recover. The pause window is a single Option
        // assignment; there is no multi-step state to tear.
        let mut began = self.shared.pause_began.lock_or_recover();
        if began.is_none() {
            *began = Some(Instant::now());
        }
        self.shared.paused.store(true, Ordering::Release);
    }

    /// Resumes dispatch after [`Server::pause`]. The pause window is
    /// credited to the paused clock so occupancy keeps dividing by time the
    /// server was actually allowed to run.
    pub fn resume(&self) {
        {
            let mut began = self.shared.pause_began.lock_or_recover();
            if let Some(t0) = began.take() {
                self.shared
                    .paused_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        self.shared.paused.store(false, Ordering::Release);
        self.wake_workers();
    }

    /// Wakes every worker after `paused` or `shutdown` changed. Workers
    /// test both flags under their queue lock before waiting, so taking
    /// each queue lock first orders the wake-up after any worker that has
    /// tested the old value and is about to wait — without it, that worker
    /// would sleep through the change with requests in its queue.
    fn wake_workers(&self) {
        for dev in &self.shared.devices {
            // POLICY (poisoning): recover (see `enqueue`).
            drop(dev.queue.lock_or_recover());
            dev.cv.notify_all();
        }
    }

    /// The prepared-matrix registry (for stats or explicit invalidation).
    pub fn registry(&self) -> &PreparedMatrixRegistry<T> {
        &self.registry
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> ServerStats {
        let wall_ms = self.shared.started.elapsed().as_secs_f64() * 1e3;
        // The unpaused clock: wall time minus completed pause windows minus
        // the currently open one. Occupancy divides by this, so replay
        // pauses don't deflate it.
        let paused_ms = {
            let mut p = self.shared.paused_ns.load(Ordering::Relaxed) as f64 / 1e6;
            if let Some(t0) = *self.shared.pause_began.lock_or_recover() {
                p += t0.elapsed().as_secs_f64() * 1e3;
            }
            p
        };
        let active_ms = (wall_ms - paused_ms).max(0.0);
        let c = &self.shared.central;
        let registry = self.registry.stats();
        // POLICY (poisoning): recover. Two-scalar accumulator.
        let (plan_err_sum, plan_predictions) = *c.plan_err.lock_or_recover();
        let devices: Vec<DeviceStats> = self
            .shared
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let busy_ms = d.busy_ns.load(Ordering::Relaxed) as f64 / 1e6;
                DeviceStats {
                    device: i,
                    dispatched: d.dispatched.load(Ordering::Relaxed),
                    completed: d.completed.load(Ordering::Relaxed),
                    launches: d.launches.load(Ordering::Relaxed),
                    served: d.served.load(Ordering::Relaxed),
                    cols: d.cols.load(Ordering::Relaxed),
                    sim_ms: d.sim_ns.load(Ordering::Relaxed) as f64 / 1e6,
                    busy_ms,
                    occupancy: if active_ms > 0.0 {
                        busy_ms / active_ms
                    } else {
                        0.0
                    },
                    queue_depth: d.queue.lock_or_recover().len(),
                    breaker_open: self.shared.breakers[i].is_open(),
                }
            })
            .collect();
        ServerStats {
            wall_ms,
            active_ms,
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            rejected_queue_full: c.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: c.rejected_deadline.load(Ordering::Relaxed),
            rejected_preflight: c.rejected_preflight.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_requests: c.batched_requests.load(Ordering::Relaxed),
            max_batch: c.max_batch.load(Ordering::Relaxed),
            mutations: c.mutations.load(Ordering::Relaxed),
            compactions: registry.compactions,
            fanout_requests: c.fanouts.load(Ordering::Relaxed),
            shard_subrequests: c.shard_subrequests.load(Ordering::Relaxed),
            queue_depth: devices.iter().map(|d| d.queue_depth).sum(),
            sim_ms_total: devices.iter().map(|d| d.sim_ms).sum(),
            planned_requests: c.planned.load(Ordering::Relaxed),
            plan_predictions,
            plan_mean_rel_error: if plan_predictions == 0 {
                0.0
            } else {
                plan_err_sum / plan_predictions as f64
            },
            plan_refits: self.shared.planner.as_ref().map_or(0, |p| p.refits()),
            plan_observations: self.shared.planner.as_ref().map_or(0, |p| p.observations()),
            registry,
            plans: self.plans.stats(),
            chaos: self.shared.chaos.snapshot(),
            latency: LatencyStats::from_samples(&c.latencies.lock_or_recover()),
            devices,
        }
    }

    /// Handle to the process-wide tracing recorder.
    ///
    /// The recorder is global (spans from every server and the simulator
    /// share one stream); the handle is exposed here so callers holding a
    /// `Server` can enable tracing and drain events without depending on
    /// `smat-trace` directly. Drain only after [`Server::shutdown`] (or a
    /// quiescent pause): worker threads flush their span buffers when their
    /// outermost span closes, so a drain mid-flight can miss open spans.
    pub fn trace_handle(&self) -> smat_trace::TraceHandle {
        smat_trace::TraceHandle::new()
    }

    /// Stops accepting work, drains every queue, and joins the workers.
    /// Called automatically on drop.
    pub fn shutdown(&mut self) {
        // Background prepares first: their parked submissions admit on the
        // warm thread and land in queues before the drain begins.
        self.registry.wait_warm_prepares();
        // Then background compactions, so no swap publishes mid-teardown.
        self.registry.wait_compactions();
        self.shared.shutdown.store(true, Ordering::Release);
        self.wake_workers();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<T: Element> Drop for Server<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How a registration is prepared: the configuration its keys derive from,
/// the admission planner (absent for pinned registrations), the planning
/// width, and the shard budget.
struct Preparer {
    cfg: SmatConfig,
    planner: Option<Arc<Planner>>,
    width: usize,
    policy: ShardPolicy,
}

impl Preparer {
    /// Prepares one shard (or one compaction's merged shard): planned on
    /// its own rows when a planner is present, under `cfg` verbatim
    /// otherwise. A skewed tail shard can therefore land on a different
    /// block shape or reordering than the dense head.
    fn shard<T: Element>(&self, a: &Csr<T>) -> Smat<T> {
        match &self.planner {
            Some(p) => {
                let decision = p.decide(a, self.width);
                Smat::prepare_with_plan(a, decision.apply(&self.cfg), decision)
            }
            None => Smat::prepare(a, self.cfg.clone()),
        }
    }

    /// Partitions `a` under the shard budget and prepares every shard.
    fn tenant<T: Element>(&self, a: &Csr<T>, key: MatrixKey) -> Tenant<T> {
        Tenant::prepare(a, key, &self.policy, |shard| self.shard(shard))
    }
}

/// Admission of one submission against its prepared tenant, shared by the
/// inline and parked submit paths. Shutdown, shape, and every shard's plan
/// pre-flight are checked before any queue slot is taken, so a rejected
/// request never leaves orphan sub-requests behind. Then one sub-request
/// per shard is placed by least-loaded dispatch, every one completing into
/// the submission's join ([`make_join`]), which settles the request-level
/// counters. Runs on the submitting thread when the tenant is resident,
/// and on the preparing thread for requests that parked on a warm prepare.
#[allow(clippy::too_many_arguments)]
fn admit_prepared<T: Element>(
    shared: &Arc<PoolShared<T>>,
    plans: &PlanCache,
    queue_capacity: usize,
    tenant: Tenant<T>,
    b: Dense<T>,
    deadline: Option<Instant>,
    enq: Instant,
    seq: u64,
    tx: oneshot::Sender<Outcome<T>>,
    adm_span: &mut smat_trace::SpanGuard,
) {
    // Re-checked here because deferred admission may run after shutdown
    // began; workers ignore their queues once the drain completes.
    if shared.shutdown.load(Ordering::Acquire) {
        adm_span.arg("outcome", "shutdown");
        tx.send(Err(ServeError::ShutDown));
        return;
    }
    let expected_rows = tenant.plan().ncols;
    if b.nrows() != expected_rows {
        adm_span.arg("outcome", "shape_mismatch");
        tx.send(Err(ServeError::ShapeMismatch {
            expected_rows,
            got_rows: b.nrows(),
        }));
        return;
    }
    // Pin every shard's overlay epoch now: the plan, the batch key, and the
    // executed correction set all derive from these snapshots, so the
    // request finishes on the epochs it admitted under even if a mutation
    // or a compaction swap lands while it waits in queue.
    let mut overlays = Vec::with_capacity(tenant.shards().len());
    for (key, smat) in tenant.keys().iter().zip(tenant.shards()) {
        let overlay = smat.overlay_snapshot();
        let plan = plans.get_or_build_pinned(*key, b.ncols(), smat, &overlay);
        if !plan.admissible {
            shared
                .central
                .rejected_preflight
                .fetch_add(1, Ordering::Relaxed);
            adm_span.arg("outcome", "preflight_rejected");
            tx.send(Err(ServeError::Rejected(RejectReason::Preflight {
                diagnostics: plan.diagnostics.as_ref().clone(),
            })));
            return;
        }
        overlays.push(overlay);
    }

    let n = overlays.len();
    if n > 1 {
        shared.central.fanouts.fetch_add(1, Ordering::Relaxed);
        shared
            .central
            .shard_subrequests
            .fetch_add(n as u64, Ordering::Relaxed);
        adm_span.arg("shards", n as u64);
    }
    let join = make_join(shared, n, enq, seq, tx);
    // Sub-requests enqueue in shard order, each drawing a fresh seq (its
    // fault key and trace identity); least-loaded dispatch then spreads
    // them round-robin from an idle pool (each enqueue bumps the chosen
    // device's load before the next sort). A one-shard request keeps its
    // own seq and moves its panel instead of copying it.
    let mut b = Some(b);
    let mut enqueued = 0;
    for (i, overlay) in overlays.into_iter().enumerate() {
        let request = Request {
            key: tenant.keys()[i],
            smat: tenant.shards()[i].clone(),
            overlay,
            b: if i + 1 == n {
                b.take().expect("the last shard takes the panel")
            } else {
                b.clone()
                    .expect("the panel outlives every shard but the last")
            },
            deadline,
            enq,
            seq: if n == 1 {
                seq
            } else {
                shared.central.next_seq.fetch_add(1, Ordering::Relaxed)
            },
            join: Arc::clone(&join),
            shard: i,
        };
        if let Some(device) = enqueue(shared, queue_capacity, request) {
            enqueued += 1;
            adm_span.arg("device", device as u64);
        }
    }
    if enqueued == n {
        shared.central.submitted.fetch_add(1, Ordering::Relaxed);
        adm_span.arg("outcome", "enqueued");
    } else {
        adm_span.arg("outcome", "queue_full");
    }
}

/// Least-loaded dispatch of one sub-request: devices by outstanding column
/// count, those with an open circuit breaker last (a flapping device stops
/// attracting new work until a success closes it). Returns the device, or
/// `None` once the request was rejected because every queue is at capacity.
fn enqueue<T: Element>(
    shared: &PoolShared<T>,
    queue_capacity: usize,
    request: Request<T>,
) -> Option<usize> {
    let mut order: Vec<usize> = (0..shared.devices.len()).collect();
    order.sort_by_key(|&i| {
        (
            shared.breakers[i].is_open(),
            shared.devices[i].load_cols.load(Ordering::Relaxed),
            i,
        )
    });
    let ncols = request.b.ncols();
    for &i in &order {
        let dev = &shared.devices[i];
        // POLICY (poisoning): recover. Queues hold whole `Request` values;
        // push/pop are panic-free, so a poisoned flag can only come from a
        // panic elsewhere in a worker's iteration, not a torn queue.
        let mut q = dev.queue.lock_or_recover();
        if q.len() >= queue_capacity {
            continue;
        }
        q.push_back(request);
        drop(q);
        dev.load_cols.fetch_add(ncols, Ordering::Relaxed);
        dev.dispatched.fetch_add(1, Ordering::Relaxed);
        dev.cv.notify_one();
        return Some(i);
    }
    // Backpressure, delivered through the join so the caller gets the
    // typed rejection.
    let depth = shared
        .devices
        .iter()
        .map(|d| d.queue.lock_or_recover().len())
        .sum();
    let capacity = queue_capacity * shared.devices.len();
    request.finish(Err(ServeError::Rejected(RejectReason::QueueFull {
        depth,
        capacity,
    })));
    None
}

/// Builds the join a submission completes through. The callback runs on
/// whichever thread delivers the last part: the first failure in shard
/// order fails the request, otherwise a one-part join passes its response
/// through and several parts are row-concatenated in shard order. Either
/// way the request-level counters (`completed`, `rejected_deadline`,
/// `rejected_queue_full`, `failed`, latencies) settle here, once per
/// submission, before the submitter's future resolves — sub-requests only
/// feed the per-device and batching counters.
fn make_join<T: Element>(
    shared: &Arc<PoolShared<T>>,
    n: usize,
    enq: Instant,
    seq: u64,
    tx: oneshot::Sender<Outcome<T>>,
) -> Arc<FanoutJoin<Outcome<T>>> {
    let shared = Arc::clone(shared);
    Arc::new(FanoutJoin::new(
        n,
        Box::new(move |parts| {
            let central = &shared.central;
            let result = parts
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map(|responses| join_responses(responses, enq));
            match &result {
                Ok(resp) => {
                    central.completed.fetch_add(1, Ordering::Relaxed);
                    // POLICY (poisoning): recover. Append-only samples.
                    central.latencies.lock_or_recover().push(resp.wall_ms);
                }
                Err(ServeError::Rejected(RejectReason::QueueFull { .. })) => {
                    central.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::Rejected(RejectReason::Deadline { .. })) => {
                    central.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                }
                // The only other error a sub-request can end in is a failed
                // launch; pre-flight and shape are settled at admission.
                Err(_) => {
                    central.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            if n > 1 {
                smat_trace::complete_from(
                    "join",
                    "serve",
                    enq,
                    vec![("seq", seq.into()), ("shards", (n as u64).into())],
                );
            }
            tx.send(result);
        }),
    ))
}

/// One response from the shards' responses, in shard order.
fn join_responses<T: Element>(mut parts: Vec<ServeResponse<T>>, enq: Instant) -> ServeResponse<T> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    // Exactness: shard products are whole-row slices of the unsharded
    // product, so concatenation in shard order *is* the unsharded result,
    // bitwise (see smat-shard's crate docs).
    ServeResponse {
        c: Dense::vconcat(&parts.iter().map(|r| &r.c).collect::<Vec<_>>()),
        device: parts[0].device,
        batched_with: parts.iter().map(|r| r.batched_with).max().unwrap_or(1),
        batch_cols: parts.iter().map(|r| r.batch_cols).max().unwrap_or(0),
        sim_ms: parts.iter().map(|r| r.sim_ms).sum(),
        wall_ms: enq.elapsed().as_secs_f64() * 1e3,
        degraded: parts.iter().any(|r| r.degraded),
        attempts: parts.iter().map(|r| r.attempts).max().unwrap_or(1),
        // Sum of the shard predictions; `None` as soon as any shard lacked
        // one (Option's `Sum` short-circuits).
        predicted_ms: parts.iter().map(|r| r.predicted_ms).sum(),
    }
}

fn worker_loop<T: Element>(shared: &PoolShared<T>, idx: usize) {
    let dev = &shared.devices[idx];
    loop {
        let batch = {
            // POLICY (poisoning): recover (see `admit_prepared`).
            let mut q = dev.queue.lock_or_recover();
            loop {
                let shutting_down = shared.shutdown.load(Ordering::Acquire);
                if q.is_empty() {
                    if shutting_down {
                        return; // queue drained, engine stopping
                    }
                } else if shutting_down || !shared.paused.load(Ordering::Acquire) {
                    break;
                }
                q = dev.cv.wait(q);
            }
            take_batch(
                &mut q,
                // Same-epoch by construction: one pinned overlay serves the
                // whole launch.
                |r: &Request<T>| (r.key, r.overlay.epoch()),
                |r| r.b.ncols(),
                shared.column_budget,
            )
        };
        execute_batch(shared, dev, idx, batch);
    }
}

/// How a batch finally completed after climbing the recovery ladder.
struct RecoveryOutcome<T> {
    /// One product per input panel, original row order.
    cs: Vec<Dense<T>>,
    /// Simulated milliseconds of the successful launch.
    sim_ms: f64,
    /// Device the successful launch executed on.
    exec: usize,
    /// Total launch attempts consumed (TC + scalar).
    attempts: u32,
    /// Whether the scalar degradation rung produced the result.
    degraded: bool,
}

/// Emits a serve-side chaos instant (retry/hedge/breaker/degraded events).
fn chaos_instant(name: &str, device: usize, work_id: u64, attempt: u32) {
    if smat_trace::enabled() {
        smat_trace::instant(
            name,
            "chaos",
            vec![
                ("device", (device as u64).into()),
                ("work_id", work_id.into()),
                ("attempt", (attempt as u64).into()),
            ],
        );
    }
}

/// Executes one batch with the full recovery ladder:
///
/// 1. Tensor Core attempts on the owning device, each with a fresh
///    content-derived fault key (`compose_key(work_id, attempt, lane)`),
///    separated by seeded-jitter exponential backoff;
/// 2. after `hedge_after` failures, the remaining TC attempts are hedged
///    to the (deterministically chosen) next device in the pool;
/// 3. after `max_attempts` TC failures, the scalar `cusparse`-like rung
///    runs, rotating over devices attempt by attempt.
///
/// Only [`SimError::FaultInjected`] climbs the ladder; every other error
/// (OOM, preflight) propagates immediately as before. The work id is the
/// batch lead request's submission seq — pure request content — so the
/// entire fault/recovery schedule replays identically for a replayed
/// trace regardless of worker interleaving.
fn run_with_recovery<T: Element>(
    shared: &PoolShared<T>,
    home: usize,
    smat: &Smat<T>,
    overlay: &OverlaySnapshot,
    panels: &[&Dense<T>],
    work_id: u64,
) -> Result<RecoveryOutcome<T>, SimError> {
    let policy = &shared.recovery;
    let ndev = shared.gpus.len();
    let mut exec = home;
    let mut hedged = false;
    let mut attempt: u32 = 0;
    let mut last_err = None;

    // Rung 1 + 2: Tensor Core attempts, hedging after `hedge_after`.
    while attempt < policy.max_attempts {
        if !hedged && attempt >= policy.hedge_after && ndev > 1 {
            exec = (home + 1) % ndev;
            hedged = true;
            shared.chaos.count_hedge();
            chaos_instant("hedge", exec, work_id, attempt);
        }
        let lane = u32::from(exec != home);
        let gpu = attempt_gpu(shared, exec, work_id, attempt, lane);
        match spmm_batched(smat, &gpu, panels, overlay) {
            Ok((cs, report)) => {
                if exec == home && shared.breakers[exec].record_success() {
                    chaos_instant("breaker_close", exec, work_id, attempt);
                }
                return Ok(RecoveryOutcome {
                    cs,
                    sim_ms: report.elapsed_ms(),
                    exec,
                    attempts: attempt + 1,
                    degraded: false,
                });
            }
            Err(SimError::FaultInjected { kind, .. }) => {
                record_fault(shared, exec, home, kind, work_id, attempt);
                last_err = Some(SimError::FaultInjected {
                    kind,
                    device: exec,
                    key: compose_key(work_id, attempt, lane),
                });
                attempt += 1;
                if attempt < policy.max_attempts
                    || (policy.fallback && policy.fallback_attempts > 0)
                {
                    shared.chaos.count_retry();
                    chaos_instant("retry", exec, work_id, attempt);
                    backoff(shared, work_id, attempt);
                }
            }
            Err(e) => return Err(e),
        }
    }

    // Rung 3: scalar degradation, rotating over devices.
    if policy.fallback {
        for f in 0..policy.fallback_attempts {
            let target = (exec + f as usize) % ndev;
            let total = policy.max_attempts + f;
            let gpu = attempt_gpu(shared, target, work_id, total, 2);
            match spmm_scalar_fallback(smat, &gpu, panels, overlay) {
                Ok((cs, sim_ms)) => {
                    if target == home && shared.breakers[target].record_success() {
                        chaos_instant("breaker_close", target, work_id, total);
                    }
                    shared.chaos.count_degraded(panels.len() as u64);
                    chaos_instant("degraded", target, work_id, total);
                    return Ok(RecoveryOutcome {
                        cs,
                        sim_ms,
                        exec: target,
                        attempts: total + 1,
                        degraded: true,
                    });
                }
                Err(SimError::FaultInjected { kind, .. }) => {
                    record_fault(shared, target, home, kind, work_id, total);
                    last_err = Some(SimError::FaultInjected {
                        kind,
                        device: target,
                        key: compose_key(work_id, total, 2),
                    });
                    if f + 1 < policy.fallback_attempts {
                        shared.chaos.count_retry();
                        chaos_instant("retry", target, work_id, total + 1);
                        backoff(shared, work_id, total + 1);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
    Err(last_err.expect("ladder exhausted implies at least one fault"))
}

/// The pool GPU for one attempt, with the attempt's fault key pinned.
fn attempt_gpu<T>(
    shared: &PoolShared<T>,
    device: usize,
    work_id: u64,
    attempt: u32,
    lane: u32,
) -> Gpu {
    let gpu = &shared.gpus[device];
    if shared.fault_plan.is_some() {
        gpu.clone()
            .with_fault_key(compose_key(work_id, attempt, lane))
    } else {
        gpu.clone()
    }
}

/// Counts a fault and, when the faulted device is the observing worker's
/// own (`device == home`), updates its breaker (tripping if due).
///
/// Breakers are single-writer by construction: only a device's own worker
/// ever records outcomes on its breaker, from home-lane TC attempts and
/// own-device scalar attempts. Hedge-lane outcomes feed the fault counters
/// but not the foreign device's breaker — a cross-thread record there would
/// make the "consecutive failures" count (and `breaker_trips`) depend on
/// worker interleaving, breaking the replay-determinism contract.
fn record_fault<T>(
    shared: &PoolShared<T>,
    device: usize,
    home: usize,
    kind: smat_gpusim::FaultKind,
    work_id: u64,
    attempt: u32,
) {
    shared.chaos.count_fault(kind);
    if device == home && shared.breakers[device].record_failure(shared.recovery.breaker_threshold) {
        shared.chaos.count_breaker_trip();
        chaos_instant("breaker_open", device, work_id, attempt);
    }
}

/// Sleeps the seeded-jitter exponential backoff before retry `attempt`.
fn backoff<T>(shared: &PoolShared<T>, work_id: u64, attempt: u32) {
    let Some(plan) = &shared.fault_plan else {
        return;
    };
    let us = shared
        .recovery
        .backoff_us(plan.jitter(work_id, attempt), attempt);
    if us > 0 {
        std::thread::sleep(Duration::from_micros(us));
    }
}

fn execute_batch<T: Element>(
    shared: &PoolShared<T>,
    dev: &DeviceState<T>,
    idx: usize,
    batch: Vec<Request<T>>,
) {
    let central = &shared.central;
    let now = Instant::now();
    if smat_trace::enabled() {
        // Queue wait ends the moment the batch is taken off the queue,
        // whether or not the request survives the deadline check.
        for r in &batch {
            smat_trace::complete_from(
                "queue_wait",
                "serve",
                r.enq,
                vec![("seq", r.seq.into()), ("device", (idx as u64).into())],
            );
        }
    }
    let mut expired = Vec::new();
    let mut live = Vec::with_capacity(batch.len());
    for r in batch {
        match r.deadline {
            Some(d) if now > d => expired.push(r),
            _ => live.push(r),
        }
    }
    // Load is released *before* any response is sent: a submitter woken by
    // a completion must already observe the lower load, or least-loaded
    // dispatch would race the bookkeeping and devices would drift between
    // otherwise-identical replays.
    let expired_cols: usize = expired.iter().map(|r| r.b.ncols()).sum();
    dev.load_cols.fetch_sub(expired_cols, Ordering::Relaxed);
    for r in expired {
        let late_ms = now
            .duration_since(r.deadline.expect("expired"))
            .as_secs_f64()
            * 1e3;
        dev.completed.fetch_add(1, Ordering::Relaxed);
        r.finish(Err(ServeError::Rejected(RejectReason::Deadline {
            late_ms,
        })));
    }

    if !live.is_empty() {
        let t0 = Instant::now();
        let panels: Vec<&Dense<T>> = live.iter().map(|r| &r.b).collect();
        let batch_cols: usize = panels.iter().map(|p| p.ncols()).sum();
        if smat_trace::enabled() {
            let members = live
                .iter()
                .map(|r| r.seq.to_string())
                .collect::<Vec<_>>()
                .join(",");
            smat_trace::instant(
                "batch_form",
                "serve",
                vec![
                    ("device", (idx as u64).into()),
                    ("requests", (live.len() as u64).into()),
                    ("cols", (batch_cols as u64).into()),
                    ("members", members.into()),
                ],
            );
        }
        let mut launch_span = smat_trace::span("launch", "serve");
        launch_span.arg("device", idx as u64);
        launch_span.arg("requests", live.len() as u64);
        launch_span.arg("cols", batch_cols as u64);
        // The batch's work identity for fault keys is the lead request's
        // submission seq — pure request content, stable across replays.
        let work_id = live[0].seq;
        let result = run_with_recovery(
            shared,
            idx,
            &live[0].smat,
            &live[0].overlay,
            &panels,
            work_id,
        );
        if let Ok(out) = &result {
            launch_span.arg("sim_ms", out.sim_ms);
            launch_span.arg("attempts", out.attempts as u64);
            if out.degraded {
                launch_span.arg("degraded", 1u64);
            }
        }
        drop(launch_span);
        dev.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        dev.load_cols.fetch_sub(batch_cols, Ordering::Relaxed);
        match result {
            Ok(out) => {
                let n_live = live.len();
                // Throughput accounting stays with the owning device (its
                // worker carried the batch), even when a hedge or rotation
                // executed elsewhere; the response reports the executor.
                dev.launches.fetch_add(1, Ordering::Relaxed);
                dev.served.fetch_add(n_live as u64, Ordering::Relaxed);
                dev.cols.fetch_add(batch_cols as u64, Ordering::Relaxed);
                dev.sim_ns
                    .fetch_add((out.sim_ms * 1e6).round() as u64, Ordering::Relaxed);
                central.batches.fetch_add(1, Ordering::Relaxed);
                central
                    .batched_requests
                    .fetch_add(n_live as u64, Ordering::Relaxed);
                central
                    .max_batch
                    .fetch_max(n_live as u64, Ordering::Relaxed);
                // Cost-model feedback: grade the plan's prediction against
                // the observed launch, then feed the observation back for
                // online refit — predict *before* observe, so a launch
                // never trains the model that grades it. Degraded
                // completions are scalar-path timings of a TC-planned
                // configuration, not a sample of the planned kernel.
                let mut predicted_ms = None;
                if let (Some(planner), Some(decision)) =
                    (&shared.planner, live[0].smat.plan_decision())
                {
                    if !out.degraded && out.sim_ms > 0.0 {
                        let pred = planner.predict(decision.n_e, batch_cols);
                        central.planned.fetch_add(n_live as u64, Ordering::Relaxed);
                        {
                            // POLICY (poisoning): recover. Two-scalar
                            // accumulator; both fields update under one
                            // guard.
                            let mut err = central.plan_err.lock_or_recover();
                            err.0 += (pred - out.sim_ms).abs() / out.sim_ms;
                            err.1 += 1;
                        }
                        planner.observe(decision.n_e, batch_cols, out.sim_ms);
                        if smat_trace::enabled() {
                            smat_trace::instant(
                                "plan_feedback",
                                "planner",
                                vec![
                                    ("device", (idx as u64).into()),
                                    ("predicted_ms", pred.into()),
                                    ("sim_ms", out.sim_ms.into()),
                                ],
                            );
                        }
                        predicted_ms = Some(pred);
                    }
                }
                for (r, c) in live.into_iter().zip(out.cs) {
                    let wall_ms = r.enq.elapsed().as_secs_f64() * 1e3;
                    smat_trace::complete_from(
                        "complete",
                        "serve",
                        r.enq,
                        vec![("seq", r.seq.into()), ("device", (out.exec as u64).into())],
                    );
                    dev.completed.fetch_add(1, Ordering::Relaxed);
                    r.finish(Ok(ServeResponse {
                        c,
                        device: out.exec,
                        batched_with: n_live,
                        batch_cols,
                        sim_ms: out.sim_ms,
                        wall_ms,
                        degraded: out.degraded,
                        attempts: out.attempts,
                        predicted_ms,
                    }));
                }
            }
            Err(e) => {
                for r in live {
                    dev.completed.fetch_add(1, Ordering::Relaxed);
                    r.finish(Err(ServeError::Sim(e.clone())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oneshot::block_on;
    use smat_formats::{Coo, F16};

    fn matrix(n: usize, shift: usize) -> Csr<F16> {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            for j in 0..4 {
                coo.push(
                    r,
                    (r + j * 7 + shift) % n,
                    F16::from_f64(((r + j) % 5) as f64 - 2.0),
                );
            }
        }
        coo.to_csr()
    }

    fn rhs(k: usize, n: usize, salt: usize) -> Dense<F16> {
        Dense::from_fn(k, n, |i, j| {
            F16::from_f64(((i + 2 * j + salt) % 5) as f64 - 2.0)
        })
    }

    #[test]
    fn serves_correct_products_across_devices() {
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 2,
            ..ServerConfig::default()
        });
        let a0 = matrix(64, 0);
        let a1 = matrix(64, 3);
        let k0 = server.register(&a0);
        let k1 = server.register(&a1);
        let futures: Vec<_> = (0..24)
            .map(|i| {
                let (a, k) = if i % 2 == 0 { (&a0, k0) } else { (&a1, k1) };
                let b = rhs(64, 8, i);
                let want = a.spmm_reference(&b);
                (server.submit(k, b), want)
            })
            .collect();
        for (fut, want) in futures {
            let resp = block_on(fut).expect("request served");
            assert_eq!(resp.c, want);
            assert!(resp.device < 2);
            assert!(resp.batched_with >= 1);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 24);
        assert_eq!(stats.submitted, 24);
        assert_eq!(stats.registry.prepares, 2);
        assert!(stats.registry.hits >= 24, "each submit is a registry hit");
    }

    #[test]
    fn unknown_key_and_shape_mismatch_fail_fast() {
        let server: Server<F16> = Server::new(ServerConfig::default());
        let a = matrix(64, 0);
        let key = server.register(&a);
        let bogus = MatrixKey {
            fingerprint: MatrixFingerprint::of_csr(&matrix(32, 1)),
            config_digest: key.config_digest,
        };
        assert!(matches!(
            server.submit(bogus, rhs(32, 8, 0)).wait(),
            Err(ServeError::UnknownMatrix)
        ));
        assert!(matches!(
            server.submit(key, rhs(16, 8, 0)).wait(),
            Err(ServeError::ShapeMismatch {
                expected_rows: 64,
                got_rows: 16
            })
        ));
    }

    #[test]
    fn paused_server_applies_backpressure_then_drains() {
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 2,
            queue_capacity: 3,
            ..ServerConfig::default()
        });
        let a = matrix(64, 0);
        let key = server.register(&a);
        server.pause();
        // 2 devices × 3 slots = 6 accepted, the 7th bounces.
        let accepted: Vec<_> = (0..6).map(|i| server.submit(key, rhs(64, 8, i))).collect();
        match server.submit(key, rhs(64, 8, 9)).wait() {
            Err(ServeError::Rejected(RejectReason::QueueFull { depth, capacity })) => {
                assert_eq!(depth, 6);
                assert_eq!(capacity, 6);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.queue_depth, 6);
        assert_eq!(stats.rejected_queue_full, 1);
        server.resume();
        for fut in accepted {
            assert!(fut.wait().is_ok());
        }
        assert_eq!(server.stats().completed, 6);
    }

    #[test]
    fn occupancy_excludes_paused_time() {
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 1,
            ..ServerConfig::default()
        });
        let a = matrix(64, 0);
        let key = server.register(&a);
        assert!(server.submit(key, rhs(64, 32, 0)).wait().is_ok());
        let before = server.stats();
        let occ_before = before.devices[0].occupancy;
        assert!(occ_before > 0.0, "device did work, occupancy must be > 0");
        // A long pause with zero work in flight. Before the unpaused-clock
        // fix the denominator kept growing through the pause, so occupancy
        // decayed by ~the pause/wall ratio (here >2x). With the fix the
        // denominator is frozen while paused and occupancy only drifts by
        // the (microsecond-scale) cost of taking the snapshots themselves.
        server.pause();
        std::thread::sleep(Duration::from_millis(250));
        let during = server.stats();
        server.resume();
        assert!(
            during.devices[0].occupancy >= occ_before * 0.8,
            "occupancy collapsed across an idle pause: {} -> {}",
            occ_before,
            during.devices[0].occupancy
        );
        assert!(
            during.wall_ms - during.active_ms >= 240.0,
            "pause window not credited: wall {} ms, active {} ms",
            during.wall_ms,
            during.active_ms
        );
        // Nested pause() calls collapse into one window; resume closes it.
        server.pause();
        server.pause();
        server.resume();
        let after = server.stats();
        assert!(after.active_ms <= after.wall_ms);
    }

    #[test]
    fn expired_deadlines_are_rejected_not_executed() {
        let server: Server<F16> = Server::new(ServerConfig::default());
        let a = matrix(64, 0);
        let key = server.register(&a);
        server.pause();
        let doomed = server.submit_with_deadline(key, rhs(64, 8, 0), Some(Duration::ZERO));
        let fine = server.submit_with_deadline(key, rhs(64, 16, 1), Some(Duration::from_secs(60)));
        // Ensure the zero deadline is strictly in the past once dispatched.
        std::thread::sleep(Duration::from_millis(5));
        server.resume();
        match doomed.wait() {
            Err(ServeError::Rejected(RejectReason::Deadline { late_ms })) => {
                assert!(late_ms > 0.0);
            }
            other => panic!("expected Deadline, got {other:?}"),
        }
        assert!(fine.wait().is_ok());
        let stats = server.stats();
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn pause_batches_same_matrix_requests() {
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 1,
            column_budget: 64,
            ..ServerConfig::default()
        });
        let a = matrix(64, 0);
        let key = server.register(&a);
        server.pause();
        let futs: Vec<_> = (0..4).map(|i| server.submit(key, rhs(64, 8, i))).collect();
        server.resume();
        let responses: Vec<_> = futs.into_iter().map(|f| f.wait().unwrap()).collect();
        // All four fit one 32-column batch on the single device.
        assert!(responses.iter().all(|r| r.batched_with == 4));
        assert!(responses.iter().all(|r| r.batch_cols == 32));
        let stats = server.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batched_requests, 4);
        assert_eq!(stats.max_batch, 4);
        assert!((stats.mean_batch() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn preflight_inadmissible_plan_is_refused_at_admission() {
        use smat::PreflightMode;
        let server: Server<F16> = Server::new(ServerConfig {
            smat: SmatConfig {
                block_h: 96,
                block_w: 96,
                device: smat_gpusim::DeviceConfig::tiny_test_device(),
                preflight: PreflightMode::Force,
                ..SmatConfig::default()
            },
            ..ServerConfig::default()
        });
        let a = matrix(96, 0);
        let key = server.register(&a);
        match server.submit(key, rhs(96, 8, 0)).wait() {
            Err(ServeError::Rejected(RejectReason::Preflight { diagnostics })) => {
                assert!(!diagnostics.is_empty());
            }
            other => panic!("expected Preflight rejection, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.rejected_preflight, 1);
        assert_eq!(stats.submitted, 0, "never reached a queue");
    }

    #[test]
    fn chaos_requests_complete_correctly_with_nonzero_fault_counters() {
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 2,
            chaos: Some(FaultConfig::blended(1234, 0.35)),
            ..ServerConfig::default()
        });
        let a = matrix(64, 0);
        let key = server.register(&a);
        let futures: Vec<_> = (0..40)
            .map(|i| {
                let b = rhs(64, 8, i);
                let want = a.spmm_reference(&b);
                (server.submit(key, b), want)
            })
            .collect();
        let mut max_attempts_seen = 0;
        for (fut, want) in futures {
            let resp = block_on(fut).expect("recovery must complete every request");
            assert_eq!(resp.c, want, "faulted serving returned a wrong product");
            max_attempts_seen = max_attempts_seen.max(resp.attempts);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 40);
        assert_eq!(stats.failed, 0);
        let chaos = stats.chaos;
        assert!(chaos.faults_injected > 0, "{chaos:?}");
        assert!(chaos.retries > 0, "{chaos:?}");
        assert_eq!(
            chaos.faults_injected,
            chaos.faults_transient + chaos.faults_ecc + chaos.faults_offline,
            "{chaos:?}"
        );
        assert!(max_attempts_seen > 1, "some batch must have retried");
    }

    #[test]
    fn chaos_free_server_reports_zero_chaos_activity() {
        let server: Server<F16> = Server::new(ServerConfig::default());
        let a = matrix(64, 0);
        let key = server.register(&a);
        for i in 0..6 {
            let resp = block_on(server.submit(key, rhs(64, 8, i))).unwrap();
            assert_eq!(resp.attempts, 1);
            assert!(!resp.degraded);
        }
        let stats = server.stats();
        assert!(!stats.chaos.any_activity(), "{:?}", stats.chaos);
        assert!(stats.devices.iter().all(|d| !d.breaker_open));
    }

    #[test]
    fn persistent_faults_degrade_to_scalar_path_and_trip_breaker() {
        // One plan governs every launch, scalar rung included, so a rate of
        // 1.0 would exhaust the ladder. At transient_rate 0.9 each batch
        // fails all 4 TC attempts (and degrades) with probability
        // 0.9^4 ≈ 66%; 64 scalar attempts make exhaustion vanishingly rare,
        // and submitting serially fixes every work id so the schedule under
        // seed 77 is identical run to run.
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 1,
            chaos: Some(FaultConfig {
                seed: 77,
                transient_rate: 0.9,
                ..FaultConfig::default()
            }),
            recovery: RecoveryPolicy {
                backoff_base_us: 0,
                fallback_attempts: 64,
                ..RecoveryPolicy::default()
            },
            ..ServerConfig::default()
        });
        let a = matrix(64, 0);
        let key = server.register(&a);
        let mut degraded = 0u64;
        for i in 0..20 {
            let b = rhs(64, 8, i);
            let want = a.spmm_reference(&b);
            let resp = block_on(server.submit(key, b)).expect("scalar rung must absorb TC faults");
            assert_eq!(resp.c, want, "degraded result differs from reference");
            degraded += u64::from(resp.degraded);
        }
        let stats = server.stats();
        assert!(degraded > 0, "no batch degraded at 90% TC fault rate");
        assert_eq!(stats.chaos.degraded_completions, degraded);
        assert!(
            stats.chaos.breaker_trips > 0,
            "persistent faults must trip the breaker: {:?}",
            stats.chaos
        );
    }

    #[test]
    fn hedging_moves_attempts_to_the_next_device() {
        // transient_rate 1.0 faults every launch on every device: the TC
        // rung hedges to device 1 (counted), the scalar rung fails too, and
        // the ladder exhausts into the typed last fault.
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 2,
            chaos: Some(FaultConfig {
                seed: 5,
                transient_rate: 1.0,
                ..FaultConfig::default()
            }),
            recovery: RecoveryPolicy {
                backoff_base_us: 0,
                fallback_attempts: 2,
                ..RecoveryPolicy::default()
            },
            ..ServerConfig::default()
        });
        let a = matrix(64, 0);
        let key = server.register(&a);
        let res = block_on(server.submit(key, rhs(64, 8, 0)));
        match res {
            Err(ServeError::Sim(SimError::FaultInjected { .. })) => {}
            other => panic!("expected exhausted ladder to surface the fault, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert!(stats.chaos.hedges >= 1, "{:?}", stats.chaos);
        assert_eq!(
            stats.chaos.faults_injected,
            // 4 TC attempts + 2 scalar attempts, all faulted.
            6,
            "{:?}",
            stats.chaos
        );
        assert!(
            stats.devices.iter().any(|d| d.breaker_open),
            "certain faults must leave a breaker open"
        );
    }

    #[test]
    fn mutate_serves_the_updated_product_and_bumps_epoch() {
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 1,
            // Keep compaction manual so the test exercises the pure overlay
            // serving path.
            compaction: CompactionPolicy {
                auto: false,
                ..CompactionPolicy::default()
            },
            ..ServerConfig::default()
        });
        let a = matrix(64, 0);
        let key = server.register(&a);
        let b = rhs(64, 8, 1);
        assert_eq!(
            block_on(server.submit(key, b.clone())).unwrap().c,
            a.spmm_reference(&b)
        );
        let epoch = server
            .mutate(
                key,
                &[
                    MatrixUpdate::Update {
                        row: 0,
                        col: 0,
                        value: F16::from_f64(3.0),
                    },
                    MatrixUpdate::Delete { row: 5, col: 5 },
                ],
            )
            .unwrap();
        assert_eq!(epoch, 2, "epoch advances by the op count");
        let merged = server.registry().peek(&key).unwrap().merged_csr();
        let resp = block_on(server.submit(key, b.clone())).unwrap();
        assert_eq!(
            resp.c,
            merged.spmm_reference(&b),
            "post-mutation serving must equal the merged matrix"
        );
        let stats = server.stats();
        assert_eq!(stats.mutations, 1);
        assert_eq!(stats.compactions, 0);
        // Empty batches are free: no epoch movement, no mutation counted.
        assert_eq!(server.mutate(key, &[]).unwrap(), 2);
        assert_eq!(server.stats().mutations, 1);
    }

    #[test]
    fn in_flight_requests_finish_on_their_admission_epoch() {
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 1,
            compaction: CompactionPolicy {
                auto: false,
                ..CompactionPolicy::default()
            },
            ..ServerConfig::default()
        });
        let a = matrix(64, 0);
        let key = server.register(&a);
        server.pause();
        // Admitted (and epoch-pinned) before the mutation lands...
        let pinned = server.submit(key, rhs(64, 8, 0));
        server
            .mutate(
                key,
                &[MatrixUpdate::Insert {
                    row: 1,
                    col: 2,
                    value: F16::from_f64(-7.0),
                }],
            )
            .unwrap();
        // ...and one admitted after it.
        let fresh = server.submit(key, rhs(64, 8, 0));
        server.resume();
        let merged = server.registry().peek(&key).unwrap().merged_csr();
        assert_eq!(
            pinned.wait().unwrap().c,
            a.spmm_reference(&rhs(64, 8, 0)),
            "a request admitted at epoch 0 must compute the epoch-0 product"
        );
        assert_eq!(
            fresh.wait().unwrap().c,
            merged.spmm_reference(&rhs(64, 8, 0))
        );
    }

    #[test]
    fn mutations_on_unknown_or_out_of_bounds_cells_are_rejected() {
        let a = matrix(64, 0);
        let up = MatrixUpdate::Update {
            row: 0,
            col: 0,
            value: F16::from_f64(1.0),
        };
        let unsharded: Server<F16> = Server::new(ServerConfig::default());
        let key = unsharded.register(&a);
        let bogus = MatrixKey {
            fingerprint: MatrixFingerprint::of_csr(&matrix(32, 1)),
            config_digest: key.config_digest,
        };
        assert!(matches!(
            unsharded.mutate(bogus, std::slice::from_ref(&up)),
            Err(ServeError::UnknownMatrix)
        ));
        // Out-of-bounds rejects the whole batch before any op applies.
        let bad = [up, MatrixUpdate::Delete { row: 2, col: 64 }];
        assert!(matches!(
            unsharded.mutate(key, &bad),
            Err(ServeError::UpdateOutOfBounds {
                nrows: 64,
                ncols: 64,
                row: 2,
                col: 64
            })
        ));
        assert_eq!(
            unsharded.registry().peek(&key).unwrap().overlay_epoch(),
            0,
            "a rejected batch must mutate nothing"
        );
        assert_eq!(unsharded.stats().mutations, 0);
    }

    #[test]
    fn compaction_folds_the_overlay_and_serving_stays_correct() {
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 1,
            // Structural trigger at a single overlay cell: the first
            // mutation schedules a background compaction (no planner, so
            // the model path defers to the fallback threshold).
            compaction: CompactionPolicy {
                auto: true,
                min_overlay_cells: 1,
                overlay_nnz_fraction: 0.0,
                horizon: 256,
            },
            ..ServerConfig::default()
        });
        let a = matrix(64, 0);
        let key = server.register(&a);
        server
            .mutate(
                key,
                &[MatrixUpdate::Update {
                    row: 3,
                    col: 3,
                    value: F16::from_f64(9.0),
                }],
            )
            .unwrap();
        server.quiesce_compactions();
        let stats = server.stats();
        assert_eq!(stats.mutations, 1);
        assert_eq!(stats.compactions, 1, "auto-compaction must have published");
        let handle = server.registry().peek(&key).unwrap();
        assert_eq!(
            handle.overlay_snapshot().correction_terms(),
            0,
            "the folded base absorbs every correction"
        );
        assert_eq!(handle.overlay_epoch(), 1, "the swap carries the epoch");
        // The swapped handle serves the mutated product (oracle built by
        // the formats-level override merge, independent of the pipeline).
        let b = rhs(64, 16, 3);
        let merged = Coo::with_overrides(&a, &[(3, 3, 9.0)]).to_csr();
        assert_eq!(
            block_on(server.submit(key, b.clone())).unwrap().c,
            merged.spmm_reference(&b)
        );
        // Invalidation forgets the tenant entirely.
        assert!(server.invalidate(&key));
        assert!(matches!(
            server.submit(key, b).wait(),
            Err(ServeError::UnknownMatrix)
        ));
        assert!(!server.invalidate(&key), "second invalidation is a no-op");
    }

    #[test]
    fn shutdown_drains_accepted_work() {
        let mut server: Server<F16> = Server::new(ServerConfig::default());
        let a = matrix(64, 0);
        let key = server.register(&a);
        server.pause();
        let futs: Vec<_> = (0..8).map(|i| server.submit(key, rhs(64, 8, i))).collect();
        // Shutdown while paused: workers must drain the queues regardless.
        server.shutdown();
        for fut in futs {
            assert!(fut.wait().is_ok(), "accepted requests complete on drain");
        }
        assert!(matches!(
            server.submit(key, rhs(64, 8, 0)).wait(),
            Err(ServeError::ShutDown)
        ));
    }
}
