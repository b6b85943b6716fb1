//! The end-to-end SMaT pipeline (Fig. 1 of the paper): CSR ingestion →
//! block-densifying permutation → BCSR conversion → kernel launch →
//! permutation-aware result assembly.

use std::sync::{Arc, Mutex, OnceLock};

use smat_analyze::{analyze_launch, verify_bcsr, verify_packed, ScheduleSpec};
use smat_diag::{DiagCode, Diagnostic, DiagnosticsExt, Location};
use smat_formats::{
    Bcsr, BlockRowStats, Coo, Csr, Dense, Element, MatrixFingerprint, PackedIndex, Permutation,
};
use smat_gpusim::{Gpu, LaunchResult, SimError};
use smat_reorder::{reorder, Reordering};

use crate::config::{MatrixFormat, SmatConfig};
use crate::kernel::KernelPath;
use crate::lru::LruMap;
use crate::overlay::{MatrixUpdate, OverlayCell, OverlaySnapshot};
use crate::planner::PlanDecision;

/// A prepared SMaT engine: the preprocessing (permutation + BCSR
/// conversion) runs once in [`Smat::prepare`]; [`Smat::spmm`] can then be
/// called for any number of right-hand sides, exactly like the library's
/// inspector/executor split.
///
/// The handle is a cheap [`Arc`]-backed reference: [`Clone`] copies one
/// pointer, never the BCSR payload, so a prepared matrix can be shared
/// across threads and serving requests (`Smat<T>: Send + Sync` whenever the
/// element type is). All execution methods take `&self`.
pub struct Smat<T> {
    inner: Arc<SmatInner<T>>,
}

impl<T> Clone for Smat<T> {
    fn clone(&self) -> Self {
        Smat {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The shared preprocessing product behind a [`Smat`] handle.
struct SmatInner<T> {
    config: SmatConfig,
    gpu: Gpu,
    reordering: Reordering,
    bcsr: Bcsr<T>,
    /// The bit-packed companion index, built at prepare time when
    /// [`SmatConfig::format`] is [`MatrixFormat::PackedBcsr`]. Shares the
    /// BCSR's dense block payload; the kernel streams this instead of the
    /// plain `rowPtr`/`colIdx` arrays.
    packed: Option<PackedIndex>,
    /// Block statistics before preprocessing (for reporting).
    stats_before: BlockRowStats,
    /// Block statistics after preprocessing.
    stats_after: BlockRowStats,
    /// Host wall-clock milliseconds spent in `prepare` (reordering + BCSR
    /// conversion) — the one-time inspector cost.
    prepare_wall_ms: f64,
    /// Per-stage breakdown of `prepare_wall_ms`.
    prepare_timings: PrepareTimings,
    ncols: usize,
    /// Content fingerprint of the *original* (pre-permutation) matrix.
    fingerprint: MatrixFingerprint,
    /// Memoized pre-flight findings per `(n, overlay epoch)`. The pass is
    /// a pure function of (BCSR, config, device, n, overlay), so repeat
    /// launches with the same width at the same epoch — the common serving
    /// case — reuse the diagnostics, while any mutation keys a fresh entry
    /// (a memo computed for the old epoch can never answer for the new
    /// payload). Clients choose widths and every mutation bumps the epoch,
    /// so the memo is an LRU of [`PREFLIGHT_MEMO_CAP`] entries; a miss only
    /// recomputes.
    preflight_cache: Mutex<PreflightMemos>,
    /// Memoized CSR reconstruction of the permuted matrix (`P·A·Qᵀ`), the
    /// operand of the scalar degradation path. Built on first use: the
    /// fault-free serving path never pays for it.
    fallback_csr: OnceLock<Arc<Csr<T>>>,
    /// The COO delta overlay (see [`crate::overlay`]): current snapshot
    /// behind one short lock, swapped wholesale on mutation so pinned
    /// readers are never torn, plus the lazily built inverse permutations
    /// that map original coordinates into the permuted base for
    /// base-value lookups.
    overlay: Mutex<OverlayStore>,
}

impl<T> SmatInner<T> {
    /// The index/pipeline path every launch of this prepared matrix uses,
    /// derived from the prepare-time configuration.
    fn kernel_path(&self) -> KernelPath<'_> {
        KernelPath {
            packed: self.packed.as_ref(),
            panel_depth: self.config.panel_depth,
        }
    }
}

/// Pre-flight memo table: `(n, overlay epoch)` → findings.
type PreflightMemos = LruMap<(usize, u64), Arc<Vec<Diagnostic>>>;

/// Most `(n, overlay epoch)` keys one prepared handle memoizes pre-flight
/// findings for.
pub const PREFLIGHT_MEMO_CAP: usize = 64;

/// Mutable overlay state behind [`SmatInner::overlay`].
struct OverlayStore {
    snapshot: Arc<OverlaySnapshot>,
    /// `row_perm⁻¹`: original row → permuted row. Built on first mutation.
    inv_row: Option<Permutation>,
    /// `col_perm⁻¹` when a column permutation is active.
    inv_col: Option<Permutation>,
}

impl OverlayStore {
    fn new() -> Self {
        OverlayStore {
            snapshot: Arc::new(OverlaySnapshot::empty()),
            inv_row: None,
            inv_col: None,
        }
    }

    fn ensure_inverses(&mut self, reordering: &Reordering) {
        if self.inv_row.is_none() {
            self.inv_row = Some(reordering.row_perm.inverse());
            self.inv_col = reordering.col_perm.as_ref().map(Permutation::inverse);
        }
    }

    /// The prepared base value at original coordinate `(r, c)`, looked up
    /// through the permutation in the fallback CSR (`0.0` if unstored).
    fn base_value<T: Element>(&self, fallback: &Csr<T>, r: usize, c: usize) -> f64 {
        let rp = self.inv_row.as_ref().expect("inverses built").source_of(r);
        let cp = match &self.inv_col {
            Some(ic) => ic.source_of(c),
            None => c,
        };
        fallback.get(rp, cp).map_or(0.0, Element::to_f64)
    }
}

/// Per-stage wall-clock breakdown of [`Smat::prepare`] — the `T_init` term
/// of the paper's performance model, split by pipeline stage.
///
/// Each stage is timed around the work itself, with the stopwatch read
/// *before* trace-span arguments are recorded, so recorder overhead never
/// leaks into a stage number. `total_ms` is the end-to-end wall clock of
/// `prepare` and additionally covers fingerprinting, block statistics, and
/// trace bookkeeping between stages; the sub-timings therefore sum to at
/// most `total_ms` (asserted by a regression test), never more.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct PrepareTimings {
    /// Computing the block-densifying permutation.
    pub reorder_ms: f64,
    /// Applying the permutation to the CSR operand (gather/pack).
    pub pack_ms: f64,
    /// CSR → BCSR conversion (rayon-parallel two-pass).
    pub convert_ms: f64,
    /// End-to-end `prepare` wall clock (equals
    /// [`Smat::prepare_wall_ms`]).
    pub total_ms: f64,
    /// The admission planner's decision, when this prepare was planned
    /// (see [`crate::planner`]): the chosen configuration plus the
    /// predicted `T_tot` recorded *before* any execution, so the
    /// prediction is falsifiable against observed launch times.
    pub plan: Option<PlanDecision>,
}

impl PrepareTimings {
    /// Sum of the per-stage timings (excludes inter-stage bookkeeping).
    pub fn stages_ms(&self) -> f64 {
        self.reorder_ms + self.pack_ms + self.convert_ms
    }

    /// Adds another breakdown stage-by-stage. The sharded prepare path uses
    /// this to report pool-level `T_init` as the sum over per-shard
    /// prepares (shards prepare sequentially, so the sum is the wall
    /// clock).
    pub fn accumulate(&mut self, other: &PrepareTimings) {
        self.reorder_ms += other.reorder_ms;
        self.pack_ms += other.pack_ms;
        self.convert_ms += other.convert_ms;
        self.total_ms += other.total_ms;
        // Plan decisions are per-prepare, not additive: keep the first one
        // (the lead shard's). Per-shard decisions live on the individual
        // shard handles.
        self.plan = self.plan.or(other.plan);
    }
}

/// Result of one SpMM execution.
#[derive(Clone, Debug)]
pub struct SmatRun<T> {
    /// The product `C = A·B` in the *original* row order (the internal row
    /// permutation is undone during assembly).
    pub c: Dense<T>,
    /// Timing, counters, and preprocessing statistics.
    pub report: RunReport,
}

/// Execution report of one [`Smat::spmm`] call.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Simulated kernel launch result (timing, counters, per-SM cycles).
    pub launch: LaunchResult,
    /// Number of stored BCSR blocks (`n_e` of the performance model).
    pub nblocks: usize,
    /// Block statistics before preprocessing.
    pub stats_before: BlockRowStats,
    /// Block statistics after preprocessing.
    pub stats_after: BlockRowStats,
    /// Optimization label ("T+B+C" etc.).
    pub kernel_label: String,
}

impl RunReport {
    /// Simulated wall-clock time of the kernel in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.launch.time_ms
    }

    /// Effective GFLOP/s over the useful `2·nnz·N` FLOP.
    pub fn gflops(&self) -> f64 {
        self.launch.gflops()
    }

    /// Block-count reduction achieved by preprocessing.
    pub fn block_reduction(&self) -> f64 {
        if self.stats_after.nblocks == 0 {
            1.0
        } else {
            self.stats_before.nblocks as f64 / self.stats_after.nblocks as f64
        }
    }
}

impl<T: Element> Smat<T> {
    /// Runs the one-time preprocessing: computes the block-densifying
    /// permutation, permutes the matrix, and converts it to BCSR.
    pub fn prepare(a: &Csr<T>, config: SmatConfig) -> Self {
        Self::prepare_impl(a, config, None, None)
    }

    /// [`Smat::prepare`] with a precomputed [`Reordering`], skipping the
    /// reorder stage (`reorder_ms` is reported as 0). Callers sweeping a
    /// candidate space — autotune, the admission planner — compute each
    /// distinct permutation once (see
    /// [`ReorderAlgorithm::permutation_signature`](smat_reorder::ReorderAlgorithm::permutation_signature))
    /// and reuse it across block shapes that don't affect it.
    ///
    /// The caller is responsible for `reordering` being exactly what
    /// `reorder(a, config.reorder, config.block_h, config.block_w)` would
    /// produce; correctness (bitwise output identity) is preserved for any
    /// valid permutation of `a`, but reports would attribute block counts
    /// to the wrong scheme.
    pub fn prepare_with_reordering(a: &Csr<T>, config: SmatConfig, reordering: Reordering) -> Self {
        Self::prepare_impl(a, config, Some(reordering), None)
    }

    /// [`Smat::prepare`] with an admission-planner decision attached: the
    /// decision rides on [`PrepareTimings::plan`] and the prepare trace
    /// span, and is readable back via [`Smat::plan_decision`] so the
    /// serving layer can compare predicted against observed time.
    pub fn prepare_with_plan(a: &Csr<T>, config: SmatConfig, plan: PlanDecision) -> Self {
        Self::prepare_impl(a, config, None, Some(plan))
    }

    fn prepare_impl(
        a: &Csr<T>,
        config: SmatConfig,
        precomputed: Option<Reordering>,
        plan: Option<PlanDecision>,
    ) -> Self {
        let mut prep_span = smat_trace::span("prepare", "pipeline");
        prep_span.arg("rows", a.nrows() as u64);
        prep_span.arg("nnz", a.nnz() as u64);
        if let Some(p) = &plan {
            prep_span.arg("planned", 1u64);
            prep_span.arg("predicted_ms", p.predicted_ms);
        }
        let t0 = std::time::Instant::now();
        let fingerprint = MatrixFingerprint::of_csr(a);
        let stats_before = smat_reorder::stats::block_row_stats(a, config.block_h, config.block_w);
        // Each stage stopwatch is read before the span arguments are
        // recorded, so trace-recorder overhead stays out of the stage
        // numbers (it is still part of total_ms — see PrepareTimings).
        let (reordering, reorder_ms) = match precomputed {
            Some(r) => (r, 0.0),
            None => {
                let mut sp = smat_trace::span("reorder", "pipeline");
                let ts = std::time::Instant::now();
                let reordering = reorder(a, config.reorder, config.block_h, config.block_w);
                let reorder_ms = ts.elapsed().as_secs_f64() * 1e3;
                sp.arg("algorithm", config.reorder.name());
                (reordering, reorder_ms)
            }
        };
        let (permuted, pack_ms) = {
            let mut sp = smat_trace::span("pack", "pipeline");
            let ts = std::time::Instant::now();
            let permuted = reordering.apply(a);
            let pack_ms = ts.elapsed().as_secs_f64() * 1e3;
            sp.arg("rows", permuted.nrows() as u64);
            (permuted, pack_ms)
        };
        let stats_after =
            smat_reorder::stats::block_row_stats(&permuted, config.block_h, config.block_w);
        let (bcsr, convert_ms) = {
            let mut sp = smat_trace::span("bcsr_convert", "pipeline");
            sp.arg("blocks_before", stats_before.nblocks as u64);
            let ts = std::time::Instant::now();
            let bcsr = Bcsr::from_csr_parallel(&permuted, config.block_h, config.block_w);
            let convert_ms = ts.elapsed().as_secs_f64() * 1e3;
            sp.arg("blocks_after", bcsr.nblocks() as u64);
            (bcsr, convert_ms)
        };
        // The bit-packed companion index rides on the same payload slabs;
        // its build cost is part of the one-time inspector total.
        let packed = match config.format {
            MatrixFormat::PackedBcsr => {
                let mut sp = smat_trace::span("pack_index", "pipeline");
                let packed = PackedIndex::from_bcsr(&bcsr);
                sp.arg("index_bytes", packed.index_bytes() as u64);
                Some(packed)
            }
            MatrixFormat::PlainBcsr => None,
        };
        prep_span.arg("nblocks", bcsr.nblocks() as u64);
        let gpu = Gpu::new(config.device.clone());
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        Smat {
            inner: Arc::new(SmatInner {
                config,
                gpu,
                reordering,
                bcsr,
                packed,
                stats_before,
                stats_after,
                prepare_wall_ms: total_ms,
                prepare_timings: PrepareTimings {
                    reorder_ms,
                    pack_ms,
                    convert_ms,
                    total_ms,
                    plan,
                },
                ncols: a.ncols(),
                fingerprint,
                preflight_cache: Mutex::new(LruMap::new(PREFLIGHT_MEMO_CAP)),
                fallback_csr: OnceLock::new(),
                overlay: Mutex::new(OverlayStore::new()),
            }),
        }
    }

    /// Host wall-clock milliseconds the one-time preprocessing took
    /// (reordering + BCSR conversion). The paper amortizes this inspector
    /// cost over many executor calls; this number makes the trade explicit.
    pub fn prepare_wall_ms(&self) -> f64 {
        self.inner.prepare_wall_ms
    }

    /// Per-stage breakdown of the preprocessing wall clock
    /// (reorder / pack / convert); see [`PrepareTimings`] for what each
    /// stage covers and how trace overhead is accounted.
    pub fn prepare_timings(&self) -> PrepareTimings {
        self.inner.prepare_timings
    }

    /// The admission planner's decision this handle was prepared under, if
    /// any (set by [`Smat::prepare_with_plan`]). `None` for manually
    /// configured prepares.
    pub fn plan_decision(&self) -> Option<PlanDecision> {
        self.inner.prepare_timings.plan
    }

    /// The internal BCSR representation (after preprocessing).
    pub fn bcsr(&self) -> &Bcsr<T> {
        &self.inner.bcsr
    }

    /// The bit-packed companion index, present when the prepared
    /// [`SmatConfig::format`] is [`MatrixFormat::PackedBcsr`].
    pub fn packed_index(&self) -> Option<&PackedIndex> {
        self.inner.packed.as_ref()
    }

    /// Bytes of A-index metadata the hot path streams: the compressed
    /// packed footprint when that format is active, the plain 4-byte
    /// `rowPtr`/`colIdx` size otherwise.
    pub fn operand_index_bytes(&self) -> usize {
        self.inner
            .packed
            .as_ref()
            .map_or_else(|| self.inner.bcsr.index_bytes(), PackedIndex::index_bytes)
    }

    /// The preprocessing permutations.
    pub fn reordering(&self) -> &Reordering {
        &self.inner.reordering
    }

    /// The active configuration.
    pub fn config(&self) -> &SmatConfig {
        &self.inner.config
    }

    /// Content fingerprint of the original input matrix (computed during
    /// [`Smat::prepare`]) — the registry key primitive of the serving layer.
    pub fn fingerprint(&self) -> MatrixFingerprint {
        self.inner.fingerprint
    }

    /// Column count of the prepared matrix `A`, i.e. the row count every
    /// right-hand side must have.
    pub fn input_ncols(&self) -> usize {
        self.inner.ncols
    }

    /// Number of handles currently sharing this prepared matrix (including
    /// this one). Used by registry eviction accounting and tests.
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Runs the static pre-flight pass for a launch with an `n`-column
    /// right-hand side, without executing anything: the BCSR invariant
    /// verifier plus the schedule hazard analyzer over the exact
    /// [`LaunchConfig`](smat_gpusim::LaunchConfig) the kernel would build.
    ///
    /// [`Smat::try_spmm`] calls this automatically according to
    /// [`SmatConfig::preflight`]; it is public so tools can inspect the
    /// findings (including warnings) without launching.
    ///
    /// Results are memoized per `n` on the prepared handle (the pass is a
    /// pure function of state fixed at prepare time), so serving paths that
    /// launch the same prepared matrix many times pay for the analysis
    /// once. This returns an owned copy; [`Smat::preflight_cached`] returns
    /// the shared allocation directly.
    pub fn preflight(&self, n: usize) -> Vec<Diagnostic> {
        self.preflight_cached(n).as_ref().clone()
    }

    /// Like [`Smat::preflight`] but returns the memoized, shareable
    /// diagnostics without cloning the findings. Keyed by `(n, overlay
    /// epoch)`: uses the current overlay snapshot.
    pub fn preflight_cached(&self, n: usize) -> Arc<Vec<Diagnostic>> {
        self.preflight_cached_at(n, &self.overlay_snapshot())
    }

    /// The memoized pre-flight findings for a launch at width `n` under a
    /// specific overlay snapshot — the epoch-pinned entry point the
    /// serving layer uses so a request admitted at epoch `e` is analyzed
    /// (and cached) against exactly that overlay.
    pub fn preflight_cached_at(&self, n: usize, overlay: &OverlaySnapshot) -> Arc<Vec<Diagnostic>> {
        let key = (n, overlay.epoch());
        if let Some(hit) = self.inner.preflight_cache.lock().unwrap().get(&key) {
            return Arc::clone(hit);
        }
        // Analysis runs outside the lock: it is pure and idempotent, so two
        // racing threads at worst both compute the same findings and the
        // later insert replaces an equal entry.
        let diags = Arc::new(self.run_preflight(n, overlay));
        let mut cache = self.inner.preflight_cache.lock().unwrap();
        cache.insert(key, Arc::clone(&diags));
        diags
    }

    /// Number of distinct `(n, epoch)` keys with memoized pre-flight
    /// findings, at most [`PREFLIGHT_MEMO_CAP`].
    pub fn preflight_cache_len(&self) -> usize {
        self.inner.preflight_cache.lock().unwrap().len()
    }

    /// The uncached pre-flight pass: the base BCSR/launch analysis plus a
    /// scan of the overlay payload (a non-finite override would poison the
    /// scalar correction path exactly like a non-finite base value poisons
    /// the kernel).
    fn run_preflight(&self, n: usize, overlay: &OverlaySnapshot) -> Vec<Diagnostic> {
        let inner = &*self.inner;
        let mut diags = verify_bcsr(&inner.bcsr);
        if let Some(p) = &inner.packed {
            // Structural verification of the packed layout against its
            // BCSR companion (popcount/monotonicity/stream integrity).
            diags.extend(verify_packed(p, Some(&inner.bcsr)));
        }
        let launch_cfg = crate::kernel::build_launch_config_for(
            &inner.gpu,
            &inner.bcsr,
            inner.kernel_path(),
            n,
            inner.config.opts,
            inner.config.schedule,
        );
        let mut spec = ScheduleSpec::for_async(inner.config.opts.async_copy);
        if let Some(p) = &inner.packed {
            // Tell the analyzer the launch streams the compressed index so
            // its independent footprint recomputation agrees with ours.
            spec = spec.with_index_bytes(p.index_bytes());
        }
        diags.extend(analyze_launch(
            &inner.bcsr,
            n,
            &launch_cfg,
            &inner.gpu.cfg,
            &spec,
        ));
        for cell in overlay.cells() {
            if !cell.value.is_finite() || !cell.correction.is_finite() {
                diags.push(Diagnostic::new(
                    DiagCode::NonFinitePayload,
                    Location::Row { row: cell.row },
                    format!(
                        "overlay override at ({}, {}) is non-finite (value {}, correction {})",
                        cell.row, cell.col, cell.value, cell.correction
                    ),
                ));
            }
        }
        diags
    }

    /// Executes `C = A·B` on the simulated device. Returns the product in
    /// the original row order together with the execution report, or a
    /// simulation error (e.g. out of device memory, or a pre-flight
    /// rejection when [`SmatConfig::preflight`] is active and an
    /// error-severity finding is present).
    pub fn try_spmm(&self, b: &Dense<T>) -> Result<SmatRun<T>, SimError> {
        self.try_spmm_on(&self.inner.gpu, b)
    }

    /// Like [`Smat::try_spmm`] but executes on an explicitly provided
    /// device instance instead of the one embedded at prepare time — the
    /// entry point for device pools that multiplex prepared matrices over
    /// several simulated GPUs.
    ///
    /// `gpu` must be configured identically to the prepare-time device
    /// (same [`DeviceConfig`](smat_gpusim::DeviceConfig) parameters): the
    /// memoized pre-flight findings and the launch geometry are derived
    /// from the prepared configuration. This is asserted by device name in
    /// debug builds.
    pub fn try_spmm_on(&self, gpu: &Gpu, b: &Dense<T>) -> Result<SmatRun<T>, SimError> {
        self.try_spmm_on_pinned(gpu, b, &self.overlay_snapshot())
    }

    /// Like [`Smat::try_spmm_on`] but executes against an explicit
    /// [`OverlaySnapshot`] instead of the current one — the epoch-pinning
    /// entry point of the serving layer: a request captures the snapshot
    /// at admission and finishes on that epoch even if the matrix mutates
    /// while the request waits in a queue.
    ///
    /// The base runs on the Tensor Core path unchanged; the overlay's
    /// corrections run on the scalar path over the touched rows and merge
    /// into the output (see [`crate::overlay`] for the bitwise contract).
    pub fn try_spmm_on_pinned(
        &self,
        gpu: &Gpu,
        b: &Dense<T>,
        overlay: &OverlaySnapshot,
    ) -> Result<SmatRun<T>, SimError> {
        let inner = &*self.inner;
        debug_assert_eq!(
            gpu.cfg.name, inner.gpu.cfg.name,
            "pool device must match the prepare-time device configuration"
        );
        assert_eq!(
            inner.ncols,
            b.nrows(),
            "B must have {} rows, got {}",
            inner.ncols,
            b.nrows()
        );
        let mut spmm_span = smat_trace::span("spmm", "pipeline");
        spmm_span.arg("n", b.ncols() as u64);
        spmm_span.arg("device", gpu.trace_device as u64);
        spmm_span.arg("epoch", overlay.epoch());
        if inner.config.preflight.enabled() {
            let diagnostics = {
                let mut sp = smat_trace::span("preflight", "pipeline");
                let diagnostics = self.preflight_cached_at(b.ncols(), overlay);
                sp.arg("findings", diagnostics.len() as u64);
                diagnostics
            };
            if diagnostics.has_errors() {
                return Err(SimError::PreflightRejected {
                    diagnostics: diagnostics.as_ref().clone(),
                });
            }
        }
        // Column permutation (if any) reshuffles the rows of B.
        let b_permuted;
        let b_eff: &Dense<T> = match &inner.reordering.col_perm {
            Some(cp) => {
                b_permuted = b.select_rows(cp.as_slice());
                &b_permuted
            }
            None => b,
        };

        let (launch, c_permuted) = crate::kernel::smat_spmm_scheduled_with(
            gpu,
            &inner.bcsr,
            b_eff,
            inner.config.opts,
            inner.config.accum,
            crate::kernel::Epilogue::default(),
            inner.config.schedule,
            inner.kernel_path(),
        )?;

        // (P·A)·B = P·(A·B): undo the row permutation on the output.
        let inv = inner.reordering.row_perm.inverse();
        let mut c = c_permuted.select_rows(inv.as_slice());
        // The scalar half of the split: overlay corrections merge into the
        // original-order product. B enters un-permuted — overlay
        // coordinates live in the original space.
        overlay.apply_corrections(&mut c, b, 1.0);

        Ok(SmatRun {
            c,
            report: RunReport {
                launch,
                nblocks: inner.bcsr.nblocks(),
                stats_before: inner.stats_before.clone(),
                stats_after: inner.stats_after.clone(),
                kernel_label: inner.config.opts.label(),
            },
        })
    }

    /// The permuted matrix (`P·A·Qᵀ`) reconstructed as CSR — the operand
    /// of the scalar (cuSPARSE-like) degradation path used when the Tensor
    /// Core kernel keeps failing under fault injection.
    ///
    /// Memoized on the prepared handle: the first call converts the BCSR
    /// back to CSR (dropping block padding), later calls share the same
    /// allocation. A product computed over this matrix is in the
    /// *permuted* space: feed it right-hand sides transformed with
    /// [`Smat::permute_rhs`] and restore the output row order with
    /// [`Smat::restore_row_order`].
    pub fn fallback_csr(&self) -> Arc<Csr<T>> {
        Arc::clone(
            self.inner
                .fallback_csr
                .get_or_init(|| Arc::new(self.inner.bcsr.to_csr())),
        )
    }

    /// Applies the prepare-time column permutation (if any) to a
    /// right-hand side, producing the `B` the permuted-space operands
    /// ([`Smat::bcsr`], [`Smat::fallback_csr`]) expect. Returns `None`
    /// when no column permutation is active and `b` can be used as-is.
    pub fn permute_rhs(&self, b: &Dense<T>) -> Option<Dense<T>> {
        self.inner
            .reordering
            .col_perm
            .as_ref()
            .map(|cp| b.select_rows(cp.as_slice()))
    }

    /// Restores the original row order of a product computed in the
    /// permuted row space (`P·(A·B)` → `A·B`) — the assembly step
    /// [`Smat::try_spmm`] performs internally, exposed for external
    /// executors such as the scalar degradation path.
    pub fn restore_row_order(&self, c_permuted: &Dense<T>) -> Dense<T> {
        let inv = self.inner.reordering.row_perm.inverse();
        c_permuted.select_rows(inv.as_slice())
    }

    /// Like [`Smat::try_spmm`] but panics on simulation errors — the
    /// convenient entry point when the working set is known to fit.
    ///
    /// # Panics
    /// Panics if the simulated device reports an error (e.g. out of memory).
    pub fn spmm(&self, b: &Dense<T>) -> SmatRun<T> {
        self.try_spmm(b).expect("simulated launch failed")
    }

    /// BLAS-style fused update `C = alpha·A·B + beta·C`, with `c` given and
    /// returned in the *original* row order.
    ///
    /// # Panics
    /// Panics on shape mismatches or simulation errors.
    pub fn spmm_axpby(&self, b: &Dense<T>, c: &Dense<T>, alpha: f64, beta: f64) -> SmatRun<T> {
        let inner = &*self.inner;
        assert_eq!(inner.ncols, b.nrows(), "B must have {} rows", inner.ncols);
        let b_permuted;
        let b_eff: &Dense<T> = match &inner.reordering.col_perm {
            Some(cp) => {
                b_permuted = b.select_rows(cp.as_slice());
                &b_permuted
            }
            None => b,
        };
        // The kernel sees the permuted row order; bring C into it.
        let c_permuted = c.select_rows(inner.reordering.row_perm.as_slice());
        let (launch, out_permuted) = crate::kernel::smat_spmm_scheduled_with(
            &inner.gpu,
            &inner.bcsr,
            b_eff,
            inner.config.opts,
            inner.config.accum,
            crate::kernel::Epilogue {
                alpha,
                beta,
                c_in: Some(&c_permuted),
            },
            inner.config.schedule,
            inner.kernel_path(),
        )
        .expect("simulated launch failed");
        let inv = inner.reordering.row_perm.inverse();
        let mut out = out_permuted.select_rows(inv.as_slice());
        // alpha·A_eff·B = alpha·A_base·B + alpha·(overlay corrections)·B.
        self.overlay_snapshot()
            .apply_corrections(&mut out, b, alpha);
        SmatRun {
            c: out,
            report: RunReport {
                launch,
                nblocks: inner.bcsr.nblocks(),
                stats_before: inner.stats_before.clone(),
                stats_after: inner.stats_after.clone(),
                kernel_label: inner.config.opts.label(),
            },
        }
    }

    /// Sparse matrix–vector product `y = A·x` — the N = 1 special case
    /// (§II). The vector is treated as a one-column dense matrix.
    ///
    /// # Panics
    /// Panics on shape mismatches or simulation errors.
    pub fn spmv(&self, x: &[T]) -> (Vec<T>, RunReport) {
        let ncols = self.inner.ncols;
        assert_eq!(x.len(), ncols, "x must have {ncols} entries");
        let b = Dense::from_vec(ncols, 1, x.to_vec());
        let run = self.spmm(&b);
        let y = (0..run.c.nrows()).map(|i| run.c.get(i, 0)).collect();
        (y, run.report)
    }

    // ----- dynamic-matrix overlay (see `crate::overlay`) -----

    /// The current overlay snapshot. Immutable and `Arc`-shared: callers
    /// that must execute on a fixed epoch hold this and use
    /// [`Smat::try_spmm_on_pinned`].
    pub fn overlay_snapshot(&self) -> Arc<OverlaySnapshot> {
        Arc::clone(&self.inner.overlay.lock().unwrap().snapshot)
    }

    /// The current overlay epoch: the number of mutations applied since
    /// prepare (or since the last compaction rebase anchored it).
    pub fn overlay_epoch(&self) -> u64 {
        self.overlay_snapshot().epoch()
    }

    /// The fingerprint of the *effective* matrix identity: the base
    /// content fingerprint stamped with the current overlay epoch. This is
    /// what epoch-sensitive caches (plan cache, planner decisions) must
    /// key on; [`Smat::fingerprint`] stays the epoch-0 base identity the
    /// registry keys tenants by.
    pub fn effective_fingerprint(&self) -> MatrixFingerprint {
        self.inner.fingerprint.with_epoch(self.overlay_epoch())
    }

    /// Applies a batch of mutations to the overlay atomically (one epoch
    /// swap covers the whole batch; the epoch advances by `ops.len()`).
    /// Returns the new epoch.
    ///
    /// All update variants carry absolute cell state, so re-applying the
    /// same batch is idempotent (same resulting overrides, higher epoch) —
    /// the serving layer's mutate-during-compaction retry depends on this.
    ///
    /// The first mutation on a handle builds the fallback CSR and the
    /// inverse permutations (both memoized); after that each op costs two
    /// binary searches.
    ///
    /// # Panics
    /// Panics if a coordinate is out of bounds for the matrix shape.
    pub fn apply_updates(&self, ops: &[MatrixUpdate<T>]) -> u64 {
        if ops.is_empty() {
            return self.overlay_epoch();
        }
        let inner = &*self.inner;
        let fallback = self.fallback_csr();
        let mut store = inner.overlay.lock().unwrap();
        store.ensure_inverses(&inner.reordering);
        let mut cells = store.snapshot.cells().to_vec();
        for op in ops {
            let (r, c) = op.cell();
            assert!(
                r < inner.fingerprint.nrows && c < inner.ncols,
                "update at ({r},{c}) out of bounds for {}x{}",
                inner.fingerprint.nrows,
                inner.ncols
            );
            let value = op.value_f64();
            let base = store.base_value(&fallback, r, c);
            let cell = OverlayCell {
                row: r,
                col: c,
                value,
                correction: value - base,
            };
            match cells.binary_search_by_key(&(r, c), |x| (x.row, x.col)) {
                Ok(i) => cells[i] = cell,
                Err(i) => cells.insert(i, cell),
            }
        }
        let epoch = store.snapshot.epoch() + ops.len() as u64;
        store.snapshot = Arc::new(OverlaySnapshot::from_parts(cells, epoch));
        epoch
    }

    /// The effective matrix `base ⊕ overlay` as a CSR in the original
    /// coordinate space — the compaction operand (re-preparing this under
    /// the same config folds the overlay into a fresh base). With an empty
    /// overlay this reconstructs the original input exactly.
    pub fn merged_csr(&self) -> Csr<T> {
        let inner = &*self.inner;
        let fallback = self.fallback_csr();
        // Un-permute the fallback CSR back into original coordinates.
        let rp = &inner.reordering.row_perm;
        let cp = inner.reordering.col_perm.as_ref();
        let mut base = Coo::with_capacity(inner.fingerprint.nrows, inner.ncols, fallback.nnz());
        for (r, c, v) in fallback.iter() {
            let orig_c = cp.map_or(c, |p| p.source_of(c));
            base.push(rp.source_of(r), orig_c, v);
        }
        let base = base.to_csr();
        let overrides = self.overlay_snapshot().overrides();
        Coo::with_overrides(&base, &overrides).to_csr()
    }

    /// Re-anchors an absolute override set onto *this* handle's base — the
    /// publish step of background compaction. Corrections are recomputed
    /// against this base; overrides the base already satisfies (the cells
    /// the compaction folded in) drop out, and coordinates this handle
    /// already overrides — mutations that raced past the swap and were
    /// retried here — are kept as-is, since they are strictly newer than
    /// the incoming set. The epoch advances to at least `epoch` so the
    /// counter never runs backwards across a swap. Returns the resulting
    /// epoch.
    pub fn rebase_overlay(&self, incoming: &[OverlayCell], epoch: u64) -> u64 {
        let inner = &*self.inner;
        let fallback = self.fallback_csr();
        let mut store = inner.overlay.lock().unwrap();
        store.ensure_inverses(&inner.reordering);
        let mut cells = store.snapshot.cells().to_vec();
        for cell in incoming {
            let base = store.base_value(&fallback, cell.row, cell.col);
            let correction = cell.value - base;
            match cells.binary_search_by_key(&(cell.row, cell.col), |x| (x.row, x.col)) {
                // Existing override is newer (written after the swap):
                // keep it.
                Ok(_) => {}
                Err(i) => {
                    if correction != 0.0 {
                        cells.insert(
                            i,
                            OverlayCell {
                                row: cell.row,
                                col: cell.col,
                                value: cell.value,
                                correction,
                            },
                        );
                    }
                }
            }
        }
        let new_epoch = store.snapshot.epoch().max(epoch);
        store.snapshot = Arc::new(OverlaySnapshot::from_parts(cells, new_epoch));
        new_epoch
    }

    /// Whether two handles share the same prepared state (pointer
    /// identity, not content equality). The serving layer uses this to
    /// detect an epoch swap between fetching a handle and mutating it.
    pub fn ptr_eq(&self, other: &Smat<T>) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptFlags;
    use smat_formats::{Coo, F16};
    use smat_reorder::ReorderAlgorithm;

    fn interleaved(n: usize) -> Csr<F16> {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            let base = if r % 2 == 0 { 0 } else { n / 2 };
            for j in 0..8 {
                let c = (base + j * 3) % n;
                coo.push(r, c, F16::from_f64(((r + c) % 5) as f64 - 2.0));
            }
        }
        coo.to_csr()
    }

    fn rhs(k: usize, n: usize) -> Dense<F16> {
        Dense::from_fn(k, n, |i, j| F16::from_f64(((i + 2 * j) % 5) as f64 - 2.0))
    }

    #[test]
    fn pipeline_result_matches_reference_in_original_order() {
        let a = interleaved(96);
        let b = rhs(96, 8);
        let want = a.spmm_reference(&b);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let run = engine.spmm(&b);
        assert_eq!(run.c, want, "row permutation must be undone");
    }

    #[test]
    fn reordering_variants_all_produce_same_product() {
        let a = interleaved(64);
        let b = rhs(64, 16);
        let want = a.spmm_reference(&b);
        for alg in [
            ReorderAlgorithm::Identity,
            ReorderAlgorithm::JaccardRows { tau: 0.7 },
            ReorderAlgorithm::JaccardRowsCols { tau: 0.7 },
            ReorderAlgorithm::ReverseCuthillMcKee,
            ReorderAlgorithm::Saad { tau: 0.5 },
            ReorderAlgorithm::GrayCode,
            ReorderAlgorithm::DegreeSort,
        ] {
            let cfg = SmatConfig {
                reorder: alg,
                ..SmatConfig::default()
            };
            let run = Smat::prepare(&a, cfg).spmm(&b);
            assert_eq!(run.c, want, "algorithm {} broke the product", alg.name());
        }
    }

    #[test]
    fn prepare_subtimings_sum_to_at_most_total() {
        let a = interleaved(128);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let t = engine.prepare_timings();
        assert!(t.reorder_ms >= 0.0 && t.pack_ms >= 0.0 && t.convert_ms >= 0.0);
        assert!(
            t.stages_ms() <= t.total_ms,
            "stages {} must not exceed total {} (trace overhead lives in the total)",
            t.stages_ms(),
            t.total_ms
        );
        assert_eq!(t.total_ms, engine.prepare_wall_ms());
    }

    #[test]
    fn lsh_reorder_runs_through_the_pipeline() {
        let a = interleaved(64);
        let b = rhs(64, 16);
        let cfg = SmatConfig {
            reorder: ReorderAlgorithm::JaccardLsh {
                tau: 0.7,
                bands: 8,
                rows_per_band: 1,
            },
            ..SmatConfig::default()
        };
        let run = Smat::prepare(&a, cfg).spmm(&b);
        assert_eq!(run.c, a.spmm_reference(&b));
    }

    #[test]
    fn report_exposes_block_reduction() {
        let a = interleaved(128);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let run = engine.spmm(&rhs(128, 8));
        assert!(run.report.nblocks > 0);
        assert!(run.report.block_reduction() >= 1.0);
        assert!(run.report.elapsed_ms() > 0.0);
        assert!(run.report.gflops() > 0.0);
        assert_eq!(run.report.kernel_label, "T+B+C");
    }

    #[test]
    fn prepare_once_run_many() {
        let a = interleaved(48);
        let engine = Smat::prepare(&a, SmatConfig::default());
        for n in [1, 8, 17] {
            let b = rhs(48, n);
            assert_eq!(engine.spmm(&b).c, a.spmm_reference(&b), "N={n}");
        }
    }

    #[test]
    fn naive_flags_still_correct_via_pipeline() {
        let a = interleaved(40);
        let b = rhs(40, 8);
        let cfg = SmatConfig {
            opts: OptFlags::none(),
            ..SmatConfig::default()
        };
        let run = Smat::prepare(&a, cfg).spmm(&b);
        assert_eq!(run.c, a.spmm_reference(&b));
        assert_eq!(run.report.kernel_label, "naive");
    }

    #[test]
    fn axpby_epilogue_matches_manual_combination() {
        let a = interleaved(48);
        let b = rhs(48, 8);
        let c0 = Dense::from_fn(48, 8, |i, j| F16::from_f64(((i + j) % 3) as f64));
        let engine = Smat::prepare(&a, SmatConfig::default());
        let run = engine.spmm_axpby(&b, &c0, 2.0, 3.0);
        // Reference: alpha * (A*B) + beta * C0, combined in f64 then
        // rounded once — matching the fused epilogue.
        let prod = a.spmm_reference(&b);
        let want = Dense::from_fn(48, 8, |i, j| {
            F16::from_f64(2.0 * prod.get(i, j).to_f64() + 3.0 * c0.get(i, j).to_f64())
        });
        assert_eq!(run.c, want);
    }

    #[test]
    fn axpby_with_beta_zero_equals_plain_spmm() {
        let a = interleaved(32);
        let b = rhs(32, 8);
        let c0 = Dense::zeros(32, 8);
        let engine = Smat::prepare(&a, SmatConfig::default());
        assert_eq!(engine.spmm_axpby(&b, &c0, 1.0, 0.0).c, engine.spmm(&b).c);
    }

    #[test]
    fn axpby_beta_load_costs_extra_traffic() {
        let a = interleaved(64);
        let b = rhs(64, 8);
        let c0 = Dense::zeros(64, 8);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let plain = engine.spmm(&b).report.launch.totals.global_bytes;
        let fused = engine
            .spmm_axpby(&b, &c0, 1.0, 1.0)
            .report
            .launch
            .totals
            .global_bytes;
        assert!(
            fused > plain,
            "beta != 0 must load the C tiles: {fused} vs {plain}"
        );
    }

    #[test]
    fn spmv_is_the_n1_special_case() {
        let a = interleaved(40);
        let x: Vec<F16> = (0..40)
            .map(|i| F16::from_f64(((i % 5) as f64) - 2.0))
            .collect();
        let engine = Smat::prepare(&a, SmatConfig::default());
        let (y, report) = engine.spmv(&x);
        let b = Dense::from_vec(40, 1, x.clone());
        let want = a.spmm_reference(&b);
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(v, want.get(i, 0));
        }
        assert!(report.elapsed_ms() > 0.0);
    }

    #[test]
    #[should_panic(expected = "B must have")]
    fn dimension_mismatch_panics() {
        let a = interleaved(32);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let _ = engine.spmm(&rhs(16, 8));
    }

    #[test]
    fn preflight_rejects_oversubscribed_smem_before_launch() {
        use crate::config::PreflightMode;
        use smat_diag::{DiagCode, DiagnosticsExt};
        // 96x96 blocks request (96*96 + 4*96*8 + 4*96*8)*2 = 30720 B of
        // shared memory; the tiny test device has 16 KiB per SM. The
        // engine itself would reject this too — pre-flight must get there
        // first and say *why* with a typed finding.
        let a = interleaved(96);
        let cfg = SmatConfig {
            block_h: 96,
            block_w: 96,
            device: smat_gpusim::DeviceConfig::tiny_test_device(),
            preflight: PreflightMode::Force,
            ..SmatConfig::default()
        };
        let engine = Smat::prepare(&a, cfg);
        let err = engine.try_spmm(&rhs(96, 8)).unwrap_err();
        let SimError::PreflightRejected { diagnostics } = err else {
            panic!("expected a pre-flight rejection, got {err:?}");
        };
        assert!(diagnostics.codes().contains(&DiagCode::SmemOverflow));
        assert!(diagnostics.has_errors());
    }

    #[test]
    fn preflight_rejects_nonfinite_payload_with_typed_diagnostic() {
        use crate::config::PreflightMode;
        use smat_diag::{DiagCode, DiagnosticsExt};
        let mut coo = Coo::new(32, 32);
        coo.push(0, 0, F16::from_f32(f32::NAN));
        coo.push(17, 3, F16::ONE);
        let a = coo.to_csr();
        let cfg = SmatConfig {
            preflight: PreflightMode::Force,
            ..SmatConfig::default()
        };
        let engine = Smat::prepare(&a, cfg);
        let err = engine.try_spmm(&rhs(32, 8)).unwrap_err();
        let SimError::PreflightRejected { diagnostics } = err else {
            panic!("expected a pre-flight rejection, got {err:?}");
        };
        assert!(diagnostics.codes().contains(&DiagCode::NonFinitePayload));
        // The Display form is a readable multi-line report.
        let msg = SimError::PreflightRejected { diagnostics }.to_string();
        assert!(msg.contains("pre-flight rejected"), "{msg}");
        assert!(msg.contains("F008"), "{msg}");
    }

    #[test]
    fn preflight_off_defers_to_engine_resource_check() {
        use crate::config::PreflightMode;
        let a = interleaved(96);
        let cfg = SmatConfig {
            block_h: 96,
            block_w: 96,
            device: smat_gpusim::DeviceConfig::tiny_test_device(),
            preflight: PreflightMode::Off,
            ..SmatConfig::default()
        };
        let engine = Smat::prepare(&a, cfg);
        let err = engine.try_spmm(&rhs(96, 8)).unwrap_err();
        assert!(
            matches!(err, SimError::SharedMemoryExceeded { .. }),
            "with pre-flight off the engine's own check fires: {err:?}"
        );
    }

    #[test]
    fn handles_are_cheap_shared_clones() {
        let a = interleaved(64);
        let b = rhs(64, 8);
        let engine = Smat::prepare(&a, SmatConfig::default());
        assert_eq!(engine.handle_count(), 1);
        let shared = engine.clone();
        assert_eq!(engine.handle_count(), 2);
        // Both handles see the same prepared state and produce the product.
        assert_eq!(shared.fingerprint(), engine.fingerprint());
        assert!(std::ptr::eq(shared.bcsr(), engine.bcsr()));
        assert_eq!(shared.spmm(&b).c, a.spmm_reference(&b));
        drop(shared);
        assert_eq!(engine.handle_count(), 1);
    }

    #[test]
    fn handles_are_send_sync_for_element_types() {
        fn assert_send_sync<S: Send + Sync>() {}
        assert_send_sync::<Smat<F16>>();
        assert_send_sync::<Smat<f32>>();
    }

    #[test]
    fn fingerprint_matches_the_input_matrix() {
        use smat_formats::MatrixFingerprint;
        let a = interleaved(64);
        let engine = Smat::prepare(&a, SmatConfig::default());
        assert_eq!(engine.fingerprint(), MatrixFingerprint::of_csr(&a));
    }

    #[test]
    fn preflight_is_memoized_per_rhs_width() {
        let a = interleaved(64);
        let engine = Smat::prepare(&a, SmatConfig::default());
        assert_eq!(engine.preflight_cache_len(), 0);
        let first = engine.preflight_cached(8);
        let again = engine.preflight_cached(8);
        assert!(
            Arc::ptr_eq(&first, &again),
            "same n must reuse the cached findings"
        );
        assert_eq!(engine.preflight_cache_len(), 1);
        let other = engine.preflight_cached(16);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(engine.preflight_cache_len(), 2);
        // The owned-copy entry point agrees with the cache.
        assert_eq!(engine.preflight(8), *first);
        // Clones share the cache (it lives on the prepared state).
        assert_eq!(engine.clone().preflight_cache_len(), 2);
    }

    #[test]
    fn spmm_on_external_device_matches_embedded_device() {
        let a = interleaved(64);
        let b = rhs(64, 8);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let pool_device = Gpu::new(engine.config().device.clone());
        let on_pool = engine.try_spmm_on(&pool_device, &b).unwrap();
        let embedded = engine.try_spmm(&b).unwrap();
        assert_eq!(on_pool.c, embedded.c);
        assert_eq!(
            on_pool.report.launch.time_ms,
            embedded.report.launch.time_ms
        );
    }

    #[test]
    fn fallback_csr_is_memoized_and_matches_tc_pipeline_bitwise() {
        let a = interleaved(64);
        let b = rhs(64, 8);
        for alg in [
            ReorderAlgorithm::JaccardRows { tau: 0.7 },
            // Exercises the column permutation branch of permute_rhs.
            ReorderAlgorithm::JaccardRowsCols { tau: 0.7 },
        ] {
            let cfg = SmatConfig {
                reorder: alg,
                ..SmatConfig::default()
            };
            let engine = Smat::prepare(&a, cfg);
            let csr = engine.fallback_csr();
            assert!(
                Arc::ptr_eq(&csr, &engine.fallback_csr()),
                "fallback CSR must be built once and shared"
            );
            assert_eq!(csr.nnz(), a.nnz(), "padding zeros must be dropped");
            let b_permuted = engine.permute_rhs(&b);
            let b_eff = b_permuted.as_ref().unwrap_or(&b);
            let scalar = engine.restore_row_order(&csr.spmm_reference(b_eff));
            // The scalar degradation path must be indistinguishable from
            // the Tensor Core result — same bits, original row order.
            assert_eq!(scalar, engine.spmm(&b).c, "algorithm {}", alg.name());
        }
    }

    #[test]
    fn permute_rhs_is_none_without_column_permutation() {
        let a = interleaved(32);
        let engine = Smat::prepare(&a, SmatConfig::default());
        assert!(engine.reordering().col_perm.is_none());
        assert!(engine.permute_rhs(&rhs(32, 4)).is_none());
    }

    #[test]
    fn overlay_spmm_matches_merged_rebuild_bitwise() {
        use crate::overlay::MatrixUpdate;
        let a = interleaved(64);
        let b = rhs(64, 8);
        for alg in [
            ReorderAlgorithm::JaccardRows { tau: 0.7 },
            // Exercises the permuted-coordinate base lookups on both axes.
            ReorderAlgorithm::JaccardRowsCols { tau: 0.7 },
        ] {
            let cfg = SmatConfig {
                reorder: alg,
                ..SmatConfig::default()
            };
            let engine = Smat::prepare(&a, cfg.clone());
            let ops = [
                MatrixUpdate::Update {
                    row: 3,
                    col: 5,
                    value: F16::from_f64(2.0),
                },
                MatrixUpdate::Insert {
                    row: 10,
                    col: 63,
                    value: F16::from_f64(-1.0),
                },
                MatrixUpdate::Delete {
                    row: 1,
                    col: a.row_cols(1)[0],
                },
            ];
            let epoch = engine.apply_updates(&ops);
            assert_eq!(epoch, 3);
            let merged = engine.merged_csr();
            assert_eq!(merged.get(3, 5), Some(F16::from_f64(2.0)));
            assert_eq!(merged.get(10, 63), Some(F16::from_f64(-1.0)));
            assert_eq!(merged.get(1, a.row_cols(1)[0]), None);
            let rebuilt = Smat::prepare(&merged, cfg);
            assert_eq!(
                engine.spmm(&b).c,
                rebuilt.spmm(&b).c,
                "overlay path must equal a from-scratch rebuild ({})",
                alg.name()
            );
            assert_eq!(engine.spmm(&b).c, merged.spmm_reference(&b));
        }
    }

    #[test]
    fn merged_csr_with_empty_overlay_reconstructs_the_input() {
        let a = interleaved(48);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let merged = engine.merged_csr();
        assert_eq!(merged.row_ptr(), a.row_ptr());
        assert_eq!(merged.col_idx(), a.col_idx());
        assert_eq!(merged.values(), a.values());
    }

    #[test]
    fn pinned_snapshot_executes_on_the_admitted_epoch() {
        use crate::overlay::MatrixUpdate;
        let a = interleaved(48);
        let b = rhs(48, 8);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let before = engine.spmm(&b).c;
        let pinned = engine.overlay_snapshot();
        engine.apply_updates(&[MatrixUpdate::Update {
            row: 0,
            col: 0,
            value: F16::from_f64(3.0),
        }]);
        // A pinned execution ignores the later mutation...
        let gpu = Gpu::new(engine.config().device.clone());
        let run = engine.try_spmm_on_pinned(&gpu, &b, &pinned).unwrap();
        assert_eq!(run.c, before, "in-flight work finishes on its epoch");
        // ...while the unpinned path sees it.
        assert_ne!(engine.spmm(&b).c, before);
        assert_eq!(engine.overlay_epoch(), 1);
        assert_eq!(engine.effective_fingerprint().epoch, 1);
        assert_eq!(engine.fingerprint().epoch, 0, "base identity is stable");
    }

    #[test]
    fn reapplying_updates_is_idempotent_on_overrides() {
        use crate::overlay::MatrixUpdate;
        let a = interleaved(32);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let ops = [
            MatrixUpdate::Update {
                row: 2,
                col: 7,
                value: F16::from_f64(4.0),
            },
            MatrixUpdate::Delete { row: 5, col: 3 },
        ];
        engine.apply_updates(&ops);
        let cells_once = engine.overlay_snapshot().cells().to_vec();
        engine.apply_updates(&ops);
        let again = engine.overlay_snapshot();
        assert_eq!(again.cells(), cells_once.as_slice(), "absolute semantics");
        assert_eq!(again.epoch(), 4, "the epoch still advances");
    }

    #[test]
    fn rebase_folds_satisfied_overrides_and_keeps_newer_ones() {
        use crate::overlay::MatrixUpdate;
        let a = interleaved(32);
        let engine = Smat::prepare(&a, SmatConfig::default());
        engine.apply_updates(&[MatrixUpdate::Update {
            row: 1,
            col: 2,
            value: F16::from_f64(5.0),
        }]);
        let old_cells = engine.overlay_snapshot().cells().to_vec();
        let old_epoch = engine.overlay_epoch();
        // Compaction: prepare the merged matrix fresh, then rebase.
        let fresh = Smat::prepare(&engine.merged_csr(), SmatConfig::default());
        // A mutation that raced past the swap and was retried on `fresh`.
        fresh.apply_updates(&[MatrixUpdate::Update {
            row: 1,
            col: 2,
            value: F16::from_f64(9.0),
        }]);
        let epoch = fresh.rebase_overlay(&old_cells, old_epoch);
        assert!(epoch >= old_epoch);
        let ov = fresh.overlay_snapshot();
        // The newer retried value wins; the folded override is dropped.
        assert_eq!(ov.len(), 1);
        assert_eq!(ov.cells()[0].value, 9.0);
        // A rebase with no racing mutations empties the overlay entirely.
        let quiet = Smat::prepare(&engine.merged_csr(), SmatConfig::default());
        quiet.rebase_overlay(&old_cells, old_epoch);
        assert!(quiet.overlay_snapshot().is_empty());
        assert_eq!(quiet.overlay_epoch(), old_epoch);
    }

    #[test]
    fn preflight_memo_is_epoch_keyed_and_rejects_nonfinite_overrides() {
        use crate::config::PreflightMode;
        use crate::overlay::MatrixUpdate;
        use smat_diag::{DiagCode, DiagnosticsExt};
        let a = interleaved(32);
        let cfg = SmatConfig {
            preflight: PreflightMode::Force,
            ..SmatConfig::default()
        };
        let engine = Smat::prepare(&a, cfg);
        assert!(engine.try_spmm(&rhs(32, 8)).is_ok());
        assert_eq!(engine.preflight_cache_len(), 1);
        // Mutating re-keys the memo: same n, new epoch, fresh analysis.
        engine.apply_updates(&[MatrixUpdate::Update {
            row: 0,
            col: 1,
            value: F16::from_f32(f32::NAN),
        }]);
        let err = engine.try_spmm(&rhs(32, 8)).unwrap_err();
        let SimError::PreflightRejected { diagnostics } = err else {
            panic!("expected a pre-flight rejection, got {err:?}");
        };
        assert!(diagnostics.codes().contains(&DiagCode::NonFinitePayload));
        assert_eq!(
            engine.preflight_cache_len(),
            2,
            "old-epoch memo must not answer for the mutated payload"
        );
        // Deleting the poisoned cell clears the rejection at the new epoch.
        engine.apply_updates(&[MatrixUpdate::Delete { row: 0, col: 1 }]);
        assert!(engine.try_spmm(&rhs(32, 8)).is_ok());
    }

    #[test]
    fn preflight_memo_stays_bounded_under_client_widths_and_mutations() {
        use crate::overlay::MatrixUpdate;
        let a = interleaved(32);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let first = engine.overlay_snapshot();
        for n in 1..=400 {
            engine.preflight_cached_at(n, &first);
            assert!(engine.preflight_cache_len() <= PREFLIGHT_MEMO_CAP);
        }
        for step in 0..300 {
            engine.apply_updates(&[MatrixUpdate::Update {
                row: step % 32,
                col: (step * 7) % 32,
                value: F16::from_f64((step % 5) as f64 - 2.0),
            }]);
            engine.preflight_cached(8);
            assert!(engine.preflight_cache_len() <= PREFLIGHT_MEMO_CAP);
        }
        // `(1, first epoch)` was evicted long ago: re-querying it recomputes
        // the same findings a fresh pass reports.
        let requeried = engine.preflight_cached_at(1, &first);
        assert_eq!(*requeried, engine.run_preflight(1, &first));
        let current = engine.overlay_snapshot();
        assert_eq!(
            *engine.preflight_cached(400),
            engine.run_preflight(400, &current)
        );
        assert_eq!(engine.preflight_cache_len(), PREFLIGHT_MEMO_CAP);
    }

    #[test]
    fn overlay_axpby_matches_merged_rebuild() {
        use crate::overlay::MatrixUpdate;
        let a = interleaved(48);
        let b = rhs(48, 8);
        let c0 = Dense::from_fn(48, 8, |i, j| F16::from_f64(((i + j) % 3) as f64));
        let engine = Smat::prepare(&a, SmatConfig::default());
        engine.apply_updates(&[MatrixUpdate::Update {
            row: 4,
            col: 9,
            value: F16::from_f64(-2.0),
        }]);
        let rebuilt = Smat::prepare(&engine.merged_csr(), SmatConfig::default());
        assert_eq!(
            engine.spmm_axpby(&b, &c0, 2.0, 3.0).c,
            rebuilt.spmm_axpby(&b, &c0, 2.0, 3.0).c
        );
    }

    #[test]
    fn packed_format_is_bitwise_identical_end_to_end() {
        let a = interleaved(96);
        let b = rhs(96, 24);
        let plain = Smat::prepare(&a, SmatConfig::default());
        let packed = Smat::prepare(
            &a,
            SmatConfig {
                format: MatrixFormat::PackedBcsr,
                ..SmatConfig::default()
            },
        );
        assert!(packed.packed_index().is_some());
        assert!(plain.packed_index().is_none());
        assert!(packed.operand_index_bytes() < plain.operand_index_bytes());
        assert_eq!(packed.spmm(&b).c, plain.spmm(&b).c);
        // The pre-flight pass (packed verifier + footprint-aware analyzer)
        // must not reject the packed launch.
        use smat_diag::DiagnosticsExt;
        assert!(!packed.preflight(24).has_errors());
    }

    #[test]
    fn panel_pipeline_is_bitwise_identical_end_to_end() {
        let a = interleaved(96);
        let b = rhs(96, 16);
        let plain = Smat::prepare(&a, SmatConfig::default());
        let panel = Smat::prepare(
            &a,
            SmatConfig {
                format: MatrixFormat::PackedBcsr,
                panel_depth: 4,
                ..SmatConfig::default()
            },
        );
        let run_plain = plain.spmm(&b);
        let run_panel = panel.spmm(&b);
        assert_eq!(run_panel.c, run_plain.c);
        assert!(
            run_panel.report.launch.totals.pipe_syncs < run_plain.report.launch.totals.pipe_syncs
        );
    }

    #[test]
    fn preflight_reports_warnings_without_blocking() {
        use smat_diag::{DiagCode, DiagnosticsExt};
        let a = interleaved(64);
        let engine = Smat::prepare(&a, SmatConfig::default());
        let diags = engine.preflight(8);
        // The seed kernel stages the A tile row-major and budgets a single
        // async buffer — both known warnings, neither a launch blocker.
        assert!(!diags.has_errors(), "{diags:?}");
        assert!(diags.codes().contains(&DiagCode::BankConflict));
        // And indeed the launch still succeeds under Auto (debug build).
        assert!(engine.try_spmm(&rhs(64, 8)).is_ok());
    }
}
