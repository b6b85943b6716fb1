//! Cost-model-driven admission planner.
//!
//! The paper fixes `{16×16 blocks, Jaccard rows, T+B+C}` for every matrix;
//! its own block-size discussion (§II-B3) and performance model (Eq. 1,
//! [`crate::perfmodel`]) imply the optimum is matrix-dependent. This module
//! closes the loop the ROADMAP calls the *serving-layer learning loop*:
//!
//! 1. **Decide** — at admission, enumerate a small candidate space
//!    `{block_h, block_w, reorder}`. Each candidate is scored with *cheap
//!    structure statistics* ([`smat_reorder::stats`]): the
//!    permutation is computed once per effective signature
//!    ([`ReorderAlgorithm::permutation_signature`]), the permuted matrix's
//!    block count `n_e` comes from [`count_blocks`] (no BCSR build, no
//!    launch), and the calibrated Tensor Core [`PerfModel`] predicts
//!    `T_tot = T_e · (n_e · ⌈n/8⌉) + T_init`. The winning candidate and its
//!    prediction become a [`PlanDecision`]; every decision runs on Tensor
//!    Cores, as in the paper.
//! 2. **Observe** — the serving layer feeds observed kernel times back via
//!    [`Planner::observe`]; the Tensor Core line is refit online over a
//!    sliding window every 8 new samples, making every recorded prediction
//!    falsifiable (`plan_mean_rel_error` in the server stats).
//!
//! Every planner starts from an offline [`Calibration`] (the paper's
//! band-matrix fit); there is no uncalibrated mode.
//!
//! The model variable is `x = n_e · ⌈n/NTILE⌉`: the kernel executes one
//! elementary computation (block × B-tile MMA) per stored block per output
//! column tile, so Eq. 1's `n_e` generalizes across right-hand-side widths
//! by multiplying with the tile count.

use std::sync::Mutex;

use serde::Serialize;
use smat_formats::{Csr, Dense, Element};
use smat_gpusim::Gpu;
use smat_reorder::stats::count_blocks;
use smat_reorder::{reorder, ReorderAlgorithm, Reordering};

use crate::config::{MatrixFormat, SmatConfig};
use crate::kernel::{smat_spmm_scheduled_with, Epilogue, KernelPath, NTILE};
use crate::perfmodel::{PerfModel, PerfSample};
use crate::pipeline::Smat;

/// Sliding-window capacity for online refit samples.
const OBSERVE_WINDOW: usize = 128;
/// Refit cadence: the Tensor Core line is refit after this many new
/// observations (provided the window is identifiable).
const REFIT_EVERY: usize = 8;

/// Candidate space the planner searches at admission and
/// [`crate::autotune()`] sweeps.
#[derive(Clone, Debug)]
pub struct PlanSpace {
    /// Block shapes to consider; each must map to an MMA fragment shape the
    /// device supports (`m = h`, `k = w`).
    pub block_shapes: Vec<(usize, usize)>,
    /// Reordering schemes to consider.
    pub reorderings: Vec<ReorderAlgorithm>,
}

impl Default for PlanSpace {
    /// The f16-supported fragment shapes (`m16n8k16`, `m16n8k8`) crossed
    /// with the paper's default reordering, no reordering, and Gray code.
    fn default() -> Self {
        PlanSpace {
            block_shapes: vec![(16, 16), (16, 8)],
            reorderings: vec![
                ReorderAlgorithm::Identity,
                ReorderAlgorithm::JaccardRows { tau: 0.7 },
                ReorderAlgorithm::GrayCode,
            ],
        }
    }
}

/// The planner's choice for one matrix, recorded *before* execution so the
/// prediction can be checked against observed launch times.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PlanDecision {
    /// Chosen BCSR block height.
    pub block_h: usize,
    /// Chosen BCSR block width.
    pub block_w: usize,
    /// Chosen preprocessing permutation.
    pub reorder: ReorderAlgorithm,
    /// Predicted `T_tot` in milliseconds for the planning width
    /// (see [`Planner::decide`]'s `n_cols`).
    pub predicted_ms: f64,
    /// Block count `n_e` of the permuted matrix under the chosen shape —
    /// equals `bcsr.nblocks()` of the resulting prepare.
    pub n_e: usize,
}

impl PlanDecision {
    /// Materializes the decision as a full [`SmatConfig`], inheriting
    /// everything the planner does not choose (accumulation mode, schedule,
    /// device, preflight policy) from `base`. Every decision runs on Tensor
    /// Cores and streams the bit-packed index its cost line was fitted on.
    pub fn apply(&self, base: &SmatConfig) -> SmatConfig {
        let mut opts = base.opts;
        opts.tc = true;
        SmatConfig {
            block_h: self.block_h,
            block_w: self.block_w,
            reorder: self.reorder,
            opts,
            format: MatrixFormat::PackedBcsr,
            ..base.clone()
        }
    }

    /// The model variable for this decision at right-hand-side width `n`:
    /// `x = n_e · ⌈n/NTILE⌉`.
    pub fn model_x(&self, n: usize) -> f64 {
        self.n_e as f64 * n.div_ceil(NTILE).max(1) as f64
    }
}

/// Fitted Eq. 1 cost lines.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Calibration {
    /// Model of the tensor-core kernel (`opts.tc = true`) streaming the
    /// bit-packed BCSR index: fitted on packed probes, refit from the packed
    /// launches planned configurations run, and the line every
    /// [`PlanDecision`] is scored on.
    pub tc: PerfModel,
    /// Model of the scalar kernel (`opts.tc = false`) streaming the plain
    /// index, fitted offline only. It is the price line of overlay
    /// corrections ([`Planner::overlay_surcharge_ms`],
    /// [`Planner::should_compact`]) and never scores a decision.
    pub scalar: PerfModel,
}

impl Calibration {
    /// Fits both models by probe-running every matrix in `matrices` once
    /// per mode with `base`'s block shape and no reordering, against an
    /// `n_cols`-wide right-hand side — the paper's band-matrix fitting
    /// procedure (§III) with the caller choosing the suite
    /// (`smat_workloads::generators::calibration_bands` reproduces the
    /// paper's). The Tensor Core probe streams the packed index, the
    /// scalar probe the plain one.
    ///
    /// # Panics
    /// Panics if fewer than two matrices produce distinct block counts (the
    /// slope is unidentifiable) or a probe launch fails.
    pub fn fit_on<T: Element>(matrices: &[Csr<T>], n_cols: usize, base: &SmatConfig) -> Self {
        let gpu = Gpu::new(base.device.clone());
        let mut tc_samples = Vec::with_capacity(matrices.len());
        let mut scalar_samples = Vec::with_capacity(matrices.len());
        for a in matrices {
            let cfg = SmatConfig {
                reorder: ReorderAlgorithm::Identity,
                format: MatrixFormat::PackedBcsr,
                ..base.clone()
            };
            let engine = Smat::prepare(a, cfg);
            let probe = probe_rhs::<T>(a.ncols(), n_cols);
            let x = engine.bcsr().nblocks() as f64 * n_cols.div_ceil(NTILE).max(1) as f64;
            for (use_tc, samples) in [(true, &mut tc_samples), (false, &mut scalar_samples)] {
                let t_ms = probe_launch(&gpu, &engine, &probe, use_tc, base)
                    .expect("calibration probe launch failed");
                samples.push(PerfSample { n_e: x, t_ms });
            }
        }
        Calibration {
            tc: PerfModel::fit(&tc_samples),
            scalar: PerfModel::fit(&scalar_samples),
        }
    }
}

/// The Tensor Core line's online refit window.
#[derive(Debug, Default)]
struct ObserveWindow {
    samples: Vec<PerfSample>,
    /// Samples added since the last refit attempt.
    fresh: usize,
}

impl ObserveWindow {
    /// Adds `sample`, dropping the oldest beyond [`OBSERVE_WINDOW`]. Every
    /// [`REFIT_EVERY`] new samples it attempts a refit and returns the new
    /// line — unless the window's x-spread is unidentifiable (a burst of
    /// identical shapes must not wipe out the calibration) or the fitted
    /// slope is not a physical cost (`T_e` non-finite or `≤ 0` would rank
    /// candidates by the *most* blocks).
    fn push(&mut self, sample: PerfSample) -> Option<PerfModel> {
        self.samples.push(sample);
        if self.samples.len() > OBSERVE_WINDOW {
            self.samples.remove(0);
        }
        self.fresh += 1;
        if self.fresh < REFIT_EVERY {
            return None;
        }
        self.fresh = 0;
        let (min_x, max_x) = self
            .samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| {
                (lo.min(s.n_e), hi.max(s.n_e))
            });
        if max_x - min_x <= max_x.abs() * 1e-6 + 1e-12 {
            return None;
        }
        let line = PerfModel::fit(&self.samples);
        (line.t_e_ms.is_finite() && line.t_e_ms > 0.0).then_some(line)
    }
}

/// Mutable planner state behind one lock: the current calibration plus the
/// observation window feeding online refits.
#[derive(Debug)]
struct PlannerState {
    calibration: Calibration,
    window: ObserveWindow,
    observations: u64,
    refits: u64,
}

/// The admission planner. Cheap to share (`Arc<Planner>` in the serving
/// layer); all methods take `&self`.
#[derive(Debug)]
pub struct Planner {
    space: PlanSpace,
    state: Mutex<PlannerState>,
}

impl Planner {
    /// A planner starting from a pre-fitted calibration (see
    /// [`Calibration::fit_on`]); every decision is model-scored.
    pub fn with_calibration(space: PlanSpace, calibration: Calibration) -> Self {
        Planner {
            space,
            state: Mutex::new(PlannerState {
                calibration,
                window: ObserveWindow::default(),
                observations: 0,
                refits: 0,
            }),
        }
    }

    /// The candidate space this planner searches.
    pub fn space(&self) -> &PlanSpace {
        &self.space
    }

    /// The current calibration (updated by online refits).
    pub fn calibration(&self) -> Calibration {
        self.lock_state().calibration
    }

    /// Observed samples fed back so far (accepted by [`Planner::observe`]).
    pub fn observations(&self) -> u64 {
        self.lock_state().observations
    }

    /// Online refits performed so far.
    pub fn refits(&self) -> u64 {
        self.lock_state().refits
    }

    /// Predicted Tensor Core `T_tot` in milliseconds for `n_e` blocks
    /// against an `n_cols`-wide right-hand side, under the current
    /// calibration. This is the line [`Planner::decide`] scores, so a
    /// [`PlanDecision`]'s `predicted_ms` reproduces from `(n_e, n_cols)`.
    pub fn predict(&self, n_e: usize, n_cols: usize) -> f64 {
        let x = n_e as f64 * n_cols.div_ceil(NTILE).max(1) as f64;
        self.calibration().tc.predict(x)
    }

    /// The modeled per-request surcharge of executing `overlay_terms`
    /// scalar correction terms on top of the Tensor Core base, against an
    /// `n_cols`-wide right-hand side: the *marginal* scalar cost
    /// `T_e(scalar) · overlay_terms · ⌈n/NTILE⌉` (no launch constant — the
    /// overlay rides on an already-paid launch).
    pub fn overlay_surcharge_ms(&self, overlay_terms: usize, n_cols: usize) -> f64 {
        let x = overlay_terms as f64 * n_cols.div_ceil(NTILE).max(1) as f64;
        self.calibration().scalar.t_e_ms * x
    }

    /// Whether compacting a mutated matrix (re-preparing `base ⊕ overlay`)
    /// has crossed the amortization point: the overlay's scalar surcharge
    /// over the next `horizon` expected requests exceeds the modeled cost
    /// of one full Tensor Core pass over the `base_ne`-block base — the
    /// deterministic proxy for the prepare (both are one linear sweep of
    /// the matrix; using the model instead of a host wall clock keeps the
    /// decision a pure function of content, so replays are bitwise
    /// reproducible).
    pub fn should_compact(
        &self,
        base_ne: usize,
        overlay_terms: usize,
        n_cols: usize,
        horizon: u64,
    ) -> bool {
        let surcharge = self.overlay_surcharge_ms(overlay_terms, n_cols);
        surcharge * horizon as f64 >= self.predict(base_ne, n_cols)
    }

    /// Chooses a configuration for matrix `a` and a planning width of
    /// `n_cols` output columns. Costs one permutation per effective
    /// signature plus one [`count_blocks`] pass per candidate — no BCSR
    /// build, no launch.
    ///
    /// # Panics
    /// Panics if the space is empty.
    pub fn decide<T: Element>(&self, a: &Csr<T>, n_cols: usize) -> PlanDecision {
        assert!(
            !self.space.block_shapes.is_empty() && !self.space.reorderings.is_empty(),
            "empty planning space"
        );
        let mut span = smat_trace::span("plan", "planner");
        span.arg("rows", a.nrows() as u64);
        span.arg("nnz", a.nnz() as u64);
        span.arg("n_cols", n_cols as u64);
        let line = self.calibration().tc;
        let ntiles = n_cols.div_ceil(NTILE).max(1) as f64;
        let mut cache = ReorderCache::new(a);
        let mut best: Option<PlanDecision> = None;
        for &(h, w) in &self.space.block_shapes {
            for &alg in &self.space.reorderings {
                let n_e = count_blocks(cache.permuted(alg, h, w), h, w);
                let predicted = line.predict(n_e as f64 * ntiles);
                if best.as_ref().is_none_or(|b| predicted < b.predicted_ms) {
                    best = Some(PlanDecision {
                        block_h: h,
                        block_w: w,
                        reorder: alg,
                        predicted_ms: predicted,
                        n_e,
                    });
                }
            }
        }
        let decision = best.expect("non-empty planning space");
        span.arg("block_h", decision.block_h as u64);
        span.arg("block_w", decision.block_w as u64);
        span.arg("reorder", decision.reorder.name());
        span.arg("n_e", decision.n_e as u64);
        span.arg("predicted_ms", decision.predicted_ms);
        decision
    }

    /// Feeds an observed kernel time back into the Tensor Core line: `t_ms`
    /// is the simulated launch time of an `n_cols`-wide SpMM over a planned
    /// prepare with `n_e` blocks. Non-positive or non-finite times are
    /// ignored (degraded/fallback executions are not kernel samples).
    pub fn observe(&self, n_e: usize, n_cols: usize, t_ms: f64) {
        if !(t_ms.is_finite() && t_ms > 0.0) {
            return;
        }
        let x = n_e as f64 * n_cols.div_ceil(NTILE).max(1) as f64;
        let mut st = self.lock_state();
        st.observations += 1;
        let Some(model) = st.window.push(PerfSample { n_e: x, t_ms }) else {
            return;
        };
        st.calibration.tc = model;
        st.refits += 1;
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, PlannerState> {
        // Poisoning can only happen if a panic fires inside one of the
        // short critical sections above; the state is a plain value that
        // stays consistent, so recover rather than cascade.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The fixed probe right-hand side of calibration fits; values are
/// irrelevant for (simulated) timing.
fn probe_rhs<T: Element>(rows: usize, n_cols: usize) -> Dense<T> {
    Dense::from_fn(rows, n_cols.max(1), |i, j| {
        T::from_f64(((i + j) % 3) as f64)
    })
}

/// One probe launch of `engine`'s BCSR in the given execution mode,
/// returning the simulated time. The Tensor Core probe streams `engine`'s
/// packed index when it has one; the scalar probe always streams the plain
/// index. Goes through the kernel directly so both modes reuse a single
/// prepare.
fn probe_launch<T: Element>(
    gpu: &Gpu,
    engine: &Smat<T>,
    probe: &Dense<T>,
    use_tc: bool,
    base: &SmatConfig,
) -> Result<f64, smat_gpusim::SimError> {
    let mut opts = base.opts;
    opts.tc = use_tc;
    let b_permuted;
    let b_eff = match engine.permute_rhs(probe) {
        Some(p) => {
            b_permuted = p;
            &b_permuted
        }
        None => probe,
    };
    let (launch, _) = smat_spmm_scheduled_with(
        gpu,
        engine.bcsr(),
        b_eff,
        opts,
        base.accum,
        Epilogue::default(),
        base.schedule,
        KernelPath {
            packed: engine.packed_index().filter(|_| use_tc),
            panel_depth: base.panel_depth,
        },
    )?;
    Ok(launch.time_ms)
}

/// Memoizes `reorder()` products per effective permutation signature so a
/// candidate sweep computes each distinct permutation (and, on demand, the
/// permuted matrix) exactly once. Used by both the planner and
/// [`crate::autotune()`].
pub struct ReorderCache<'a, T> {
    a: &'a Csr<T>,
    entries: Vec<CacheEntry<T>>,
}

struct CacheEntry<T> {
    alg: ReorderAlgorithm,
    signature: (usize, usize),
    reordering: Reordering,
    permuted: Option<Csr<T>>,
}

impl<'a, T: Element> ReorderCache<'a, T> {
    /// A cache over matrix `a`.
    pub fn new(a: &'a Csr<T>) -> Self {
        ReorderCache {
            a,
            entries: Vec::new(),
        }
    }

    /// Number of distinct permutations computed so far.
    pub fn computed(&self) -> usize {
        self.entries.len()
    }

    fn entry_index(&mut self, alg: ReorderAlgorithm, block_h: usize, block_w: usize) -> usize {
        let signature = alg.permutation_signature(block_h, block_w);
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.alg == alg && e.signature == signature)
        {
            return i;
        }
        let reordering = reorder(self.a, alg, block_h, block_w);
        self.entries.push(CacheEntry {
            alg,
            signature,
            reordering,
            permuted: None,
        });
        self.entries.len() - 1
    }

    /// The reordering for a candidate, computed on first use per signature.
    pub fn reordering(
        &mut self,
        alg: ReorderAlgorithm,
        block_h: usize,
        block_w: usize,
    ) -> Reordering {
        let i = self.entry_index(alg, block_h, block_w);
        self.entries[i].reordering.clone()
    }

    /// The permuted matrix for a candidate, computed (and cached) on first
    /// use per signature.
    pub fn permuted(&mut self, alg: ReorderAlgorithm, block_h: usize, block_w: usize) -> &Csr<T> {
        let i = self.entry_index(alg, block_h, block_w);
        if self.entries[i].permuted.is_none() {
            let permuted = self.entries[i].reordering.apply(self.a);
            self.entries[i].permuted = Some(permuted);
        }
        self.entries[i].permuted.as_ref().expect("just filled")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_formats::{Coo, F16};

    /// A band matrix with semi-bandwidth `b` (inline so core needs no
    /// workloads dependency; `smat_workloads::generators::band` is the
    /// public equivalent).
    fn band(n: usize, b: usize) -> Csr<F16> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for j in i.saturating_sub(b)..(i + b + 1).min(n) {
                coo.push(i, j, F16::from_f64(1.0));
            }
        }
        coo.to_csr()
    }

    fn scrambled_families(n: usize) -> Csr<F16> {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            let base = (r % 4) * (n / 4);
            for j in 0..6 {
                coo.push(r, (base + j * 16) % n, F16::from_f64(1.0));
            }
        }
        coo.to_csr()
    }

    fn band_suite() -> Vec<Csr<F16>> {
        [2usize, 4, 8, 16, 24]
            .iter()
            .map(|&b| band(96, b))
            .collect()
    }

    fn calibrated_planner() -> Planner {
        let cal = Calibration::fit_on(&band_suite(), 8, &SmatConfig::default());
        Planner::with_calibration(PlanSpace::default(), cal)
    }

    /// A planner on a hand-written calibration (no probe launches).
    fn synthetic_planner(line: PerfModel) -> Planner {
        Planner::with_calibration(
            PlanSpace::default(),
            Calibration {
                tc: line,
                scalar: line,
            },
        )
    }

    #[test]
    fn calibration_fits_positive_slopes() {
        let cal = Calibration::fit_on(&band_suite(), 8, &SmatConfig::default());
        assert!(cal.tc.t_e_ms > 0.0, "tc slope: {}", cal.tc.t_e_ms);
        assert!(cal.scalar.t_e_ms > 0.0);
        assert!(
            cal.tc.r2 > 0.9,
            "band fit should be near-linear: {}",
            cal.tc.r2
        );
        // The scalar kernel pays more per elementary computation.
        assert!(cal.scalar.t_e_ms > cal.tc.t_e_ms);
    }

    #[test]
    fn calibrated_decision_is_deterministic_and_finite() {
        let planner = calibrated_planner();
        let a = scrambled_families(128);
        let d1 = planner.decide(&a, 8);
        let d2 = planner.decide(&a, 8);
        assert!(d1.predicted_ms.is_finite() && d1.predicted_ms > 0.0);
        assert!(d1.n_e > 0);
        assert_eq!((d1.block_h, d1.block_w), (d2.block_h, d2.block_w));
        assert_eq!(d1.reorder, d2.reorder);
        assert_eq!(d1.predicted_ms.to_bits(), d2.predicted_ms.to_bits());
    }

    #[test]
    fn decision_n_e_matches_prepared_block_count() {
        let planner = calibrated_planner();
        let a = scrambled_families(96);
        let d = planner.decide(&a, 8);
        let engine = Smat::prepare(&a, d.apply(&SmatConfig::default()));
        assert_eq!(d.n_e, engine.bcsr().nblocks());
    }

    #[test]
    fn overlay_surcharge_is_marginal_and_linear_in_terms() {
        let planner = calibrated_planner();
        let one = planner.overlay_surcharge_ms(1, 8);
        let ten = planner.overlay_surcharge_ms(10, 8);
        assert!(one > 0.0);
        assert_eq!(ten.to_bits(), (10.0 * one).to_bits(), "no launch constant");
        assert_eq!(planner.overlay_surcharge_ms(0, 8), 0.0);
    }

    #[test]
    fn should_compact_crosses_the_amortization_point() {
        let planner = calibrated_planner();
        // A tiny overlay on a large base over a short horizon: keep serving
        // the overlay.
        assert!(!planner.should_compact(4096, 1, 8, 1));
        // A huge overlay over a long horizon on a small base: re-prepare.
        assert!(planner.should_compact(8, 4096, 8, 1024));
        // Monotone in the horizon: once compaction wins at horizon h, it
        // still wins at every longer horizon.
        let mut seen_true = false;
        for h in [1u64, 4, 16, 64, 256, 1024, 4096] {
            let d = planner.should_compact(64, 32, 8, h);
            assert!(!seen_true || d, "decision regressed at horizon {h}");
            seen_true = d;
        }
        // Deterministic: bitwise-identical inputs, identical decision.
        assert_eq!(
            planner.should_compact(64, 32, 8, 16),
            planner.should_compact(64, 32, 8, 16)
        );
    }

    #[test]
    fn calibrated_decision_picks_tc_on_a_band_matrix() {
        // On a clean blocked matrix the planned Tensor Core configuration
        // is strictly faster than the scalar kernel on the same blocks.
        let planner = calibrated_planner();
        let a = band(96, 8);
        let d = planner.decide(&a, 8);
        let b = probe_rhs::<F16>(a.ncols(), 8);
        let cfg = d.apply(&SmatConfig::default());
        assert!(cfg.opts.tc, "{cfg:?}");
        let tc_ms = Smat::prepare(&a, cfg.clone()).spmm(&b).report.elapsed_ms();
        let mut scalar = cfg;
        scalar.opts.tc = false;
        scalar.format = MatrixFormat::PlainBcsr;
        let scalar_ms = Smat::prepare(&a, scalar).spmm(&b).report.elapsed_ms();
        assert!(tc_ms < scalar_ms, "tc {tc_ms} ms vs scalar {scalar_ms} ms");
    }

    #[test]
    fn observe_refits_toward_a_synthetic_linear_workload() {
        // Start from a deliberately wrong calibration and feed samples from
        // a known line; the online refit must converge to it.
        let planner = synthetic_planner(PerfModel {
            t_e_ms: 123.0,
            t_init_ms: 9.9,
            r2: 0.0,
        });
        let true_te = 2.5e-4;
        let true_init = 0.75;
        for i in 1..=32usize {
            let n_e = 100 * i;
            let x = n_e as f64; // n_cols = 8 → one tile
            planner.observe(n_e, 8, true_te * x + true_init);
        }
        assert!(planner.refits() >= 1, "refits: {}", planner.refits());
        assert_eq!(planner.observations(), 32);
        let predicted = planner.predict(2000, 8);
        let truth = true_te * 2000.0 + true_init;
        assert!(
            ((predicted - truth) / truth).abs() < 1e-6,
            "predicted {predicted} vs truth {truth}"
        );
        // The scalar line is never refit (still the bad line).
        assert_eq!(planner.calibration().scalar.t_e_ms, 123.0);
    }

    #[test]
    fn refits_follow_new_samples_after_the_window_fills() {
        // Once the window holds OBSERVE_WINDOW samples its length stays
        // fixed; the cadence must still count new samples, not the length.
        let planner = synthetic_planner(PerfModel {
            t_e_ms: 1e-3,
            t_init_ms: 0.5,
            r2: 1.0,
        });
        for i in 0..300usize {
            let n_e = 50 + (i % 17) * 10;
            planner.observe(n_e, 8, 1e-3 * n_e as f64 + 0.5);
        }
        assert_eq!(planner.observations(), 300);
        assert_eq!(planner.refits(), 300 / REFIT_EVERY as u64);
    }

    #[test]
    fn degenerate_observations_do_not_wipe_calibration() {
        let planner = calibrated_planner();
        let before = planner.calibration().tc;
        // A burst of identical shapes and some garbage times.
        for _ in 0..64 {
            planner.observe(500, 8, 1.0);
        }
        planner.observe(500, 8, f64::NAN);
        planner.observe(500, 8, 0.0);
        planner.observe(500, 8, -3.0);
        let after = planner.calibration().tc;
        assert_eq!(before.t_e_ms.to_bits(), after.t_e_ms.to_bits());
        assert_eq!(planner.refits(), 0);
        // Only the finite positive samples were counted.
        assert_eq!(planner.observations(), 64);
    }

    #[test]
    fn falling_observations_never_install_a_non_physical_line() {
        // Launch times that fall as the block count grows fit a negative
        // slope; installing it would make `decide` prefer the most blocks.
        let planner = calibrated_planner();
        let before = planner.calibration().tc;
        for i in 0..2 * REFIT_EVERY {
            let n_e = 20 + 15 * i;
            planner.observe(n_e, 8, before.predict(400.0 - n_e as f64));
        }
        assert_eq!(planner.observations(), 2 * REFIT_EVERY as u64);
        assert_eq!(planner.refits(), 0);
        let after = planner.calibration().tc;
        assert_eq!(before.t_e_ms.to_bits(), after.t_e_ms.to_bits());
        assert_eq!(before.t_init_ms.to_bits(), after.t_init_ms.to_bits());
    }

    #[test]
    fn calibration_carries_a_packed_cost_line() {
        // The TC line is fitted on packed-index probes: it reproduces a fit
        // over packed launches bitwise, and per elementary computation it
        // costs no more than a plain-index fit (same compute, strictly
        // fewer metadata bytes on the band suite).
        let base = SmatConfig::default();
        let cal = Calibration::fit_on(&band_suite(), 8, &base);
        let gpu = Gpu::new(base.device.clone());
        let tc_line = |format: MatrixFormat| {
            let samples: Vec<PerfSample> = band_suite()
                .iter()
                .map(|a| {
                    let cfg = SmatConfig {
                        reorder: ReorderAlgorithm::Identity,
                        format,
                        ..base.clone()
                    };
                    let engine = Smat::prepare(a, cfg);
                    let probe = probe_rhs::<F16>(a.ncols(), 8);
                    PerfSample {
                        n_e: engine.bcsr().nblocks() as f64,
                        t_ms: probe_launch(&gpu, &engine, &probe, true, &base).unwrap(),
                    }
                })
                .collect();
            PerfModel::fit(&samples)
        };
        let packed = tc_line(MatrixFormat::PackedBcsr);
        let plain = tc_line(MatrixFormat::PlainBcsr);
        assert_eq!(cal.tc.t_e_ms.to_bits(), packed.t_e_ms.to_bits());
        assert_eq!(cal.tc.t_init_ms.to_bits(), packed.t_init_ms.to_bits());
        assert!(
            cal.tc.t_e_ms <= plain.t_e_ms,
            "packed T_e {} vs plain {}",
            cal.tc.t_e_ms,
            plain.t_e_ms
        );
    }

    #[test]
    fn decision_format_applies_to_the_config() {
        // Every decision runs on Tensor Cores over the packed index its
        // line prices, whatever the base config says.
        let planner = calibrated_planner();
        let a = scrambled_families(128);
        let d = planner.decide(&a, 8);
        let mut base = SmatConfig::default();
        base.opts.tc = false;
        base.format = MatrixFormat::PlainBcsr;
        let cfg = d.apply(&base);
        assert!(cfg.opts.tc);
        assert_eq!(cfg.format, MatrixFormat::PackedBcsr);
        let engine = Smat::prepare_with_plan(&a, cfg, d);
        assert!(engine.packed_index().is_some());
        assert_eq!(d.n_e, engine.bcsr().nblocks());
    }

    #[test]
    fn tc_refits_keep_decisions_on_the_packed_index() {
        // Serving feeds TC launches back; refitting the TC line from them
        // must never flip a TC decision to another index format, however
        // far the refit line falls below the offline fit.
        let planner = calibrated_planner();
        let offline = planner.calibration().tc;
        for i in 0..2 * REFIT_EVERY {
            let n_e = 40 + 10 * i;
            planner.observe(n_e, 8, 0.5 * offline.predict(n_e as f64));
        }
        assert!(planner.refits() >= 1, "refits: {}", planner.refits());
        assert!(planner.calibration().tc.predict(100.0) < offline.predict(100.0));
        let a = band(96, 8);
        let d = planner.decide(&a, 8);
        let cfg = d.apply(&SmatConfig::default());
        assert_eq!(cfg.format, MatrixFormat::PackedBcsr);
        assert!(Smat::prepare_with_plan(&a, cfg, d).packed_index().is_some());
    }

    #[test]
    fn reorder_cache_computes_each_signature_once() {
        let a = scrambled_families(64);
        let mut cache = ReorderCache::new(&a);
        // GrayCode ignores block_h: two shapes sharing w → one entry.
        cache.reordering(ReorderAlgorithm::GrayCode, 16, 16);
        cache.reordering(ReorderAlgorithm::GrayCode, 8, 16);
        assert_eq!(cache.computed(), 1);
        // ...but a different w is a different signature.
        cache.reordering(ReorderAlgorithm::GrayCode, 16, 8);
        assert_eq!(cache.computed(), 2);
        // Identity ignores both dims.
        cache.reordering(ReorderAlgorithm::Identity, 16, 16);
        cache.reordering(ReorderAlgorithm::Identity, 4, 4);
        assert_eq!(cache.computed(), 3);
        // Jaccard depends on both.
        cache.reordering(ReorderAlgorithm::JaccardRows { tau: 0.7 }, 16, 16);
        cache.reordering(ReorderAlgorithm::JaccardRows { tau: 0.7 }, 16, 8);
        assert_eq!(cache.computed(), 5);
        // Same params again: cached.
        cache.permuted(ReorderAlgorithm::JaccardRows { tau: 0.7 }, 16, 16);
        assert_eq!(cache.computed(), 5);
        // Different tau is a different algorithm even at the same shape.
        cache.reordering(ReorderAlgorithm::JaccardRows { tau: 0.3 }, 16, 16);
        assert_eq!(cache.computed(), 6);
    }

    #[test]
    fn cached_reordering_matches_direct_computation() {
        let a = scrambled_families(96);
        let mut cache = ReorderCache::new(&a);
        for &(h, w) in &[(16usize, 16usize), (16, 8), (8, 16)] {
            for alg in [
                ReorderAlgorithm::Identity,
                ReorderAlgorithm::JaccardRows { tau: 0.7 },
                ReorderAlgorithm::GrayCode,
                ReorderAlgorithm::DegreeSort,
            ] {
                let cached = cache.reordering(alg, h, w);
                let direct = reorder(&a, alg, h, w);
                assert_eq!(
                    cached.row_perm.as_slice(),
                    direct.row_perm.as_slice(),
                    "{alg:?} at {h}x{w}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty planning space")]
    fn rejects_empty_space() {
        let line = PerfModel {
            t_e_ms: 1e-3,
            t_init_ms: 0.5,
            r2: 1.0,
        };
        let planner = Planner::with_calibration(
            PlanSpace {
                block_shapes: vec![],
                reorderings: vec![],
            },
            Calibration {
                tc: line,
                scalar: line,
            },
        );
        let a = band(32, 2);
        let _ = planner.decide(&a, 8);
    }
}
