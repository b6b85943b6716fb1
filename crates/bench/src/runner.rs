//! Shared machinery of the experiment harness: engine enumeration, metric
//! records, and geometric-mean summaries.

use serde::Serialize;
use smat::{Smat, SmatConfig};
use smat_baselines::{CusparseLike, DaspLike, MagicubeLike};
use smat_formats::{Csr, Dense, F16};
use smat_gpusim::{Gpu, SimError};
use smat_reorder::{reorder, ReorderAlgorithm};

/// The SpMM engines compared throughout the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Engine {
    /// SMaT (this paper).
    Smat,
    /// DASP-like batched TC SpMV.
    Dasp,
    /// Magicube-like SR-BCRS int16.
    Magicube,
    /// cuSPARSE-like CSR SpMM.
    Cusparse,
}

impl Engine {
    /// The paper's four engines, in its plotting order.
    pub fn all() -> [Engine; 4] {
        [
            Engine::Smat,
            Engine::Dasp,
            Engine::Magicube,
            Engine::Cusparse,
        ]
    }

    /// Display name used in reports and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Smat => "SMaT",
            Engine::Dasp => "DASP",
            Engine::Magicube => "Magicube",
            Engine::Cusparse => "cuSPARSE",
        }
    }
}

/// One measured point.
#[derive(Clone, Debug, Serialize)]
pub struct Measurement {
    /// Engine name.
    pub engine: String,
    /// Simulated kernel milliseconds.
    pub time_ms: f64,
    /// Effective GFLOP/s over `2·nnz·N`.
    pub gflops: f64,
    /// SM load imbalance (max/mean busy).
    pub imbalance: f64,
    /// Set when the simulated device rejected the launch (e.g. OOM).
    pub error: Option<String>,
}

impl Measurement {
    fn failed(engine: &str, err: SimError) -> Self {
        Measurement {
            engine: engine.to_string(),
            time_ms: f64::NAN,
            gflops: 0.0,
            imbalance: f64::NAN,
            error: Some(err.to_string()),
        }
    }
}

/// Runs one engine on `A·B`. For the baselines, the requested reordering is
/// applied to `A` up front (their performance depends on the row order just
/// like SMaT's; Figures 5–7 measure exactly this). SMaT reorders internally
/// through its own pipeline.
pub fn run_engine(
    engine: Engine,
    gpu: &Gpu,
    a: &Csr<F16>,
    b: &Dense<F16>,
    reordering: ReorderAlgorithm,
) -> Measurement {
    match engine {
        Engine::Smat => {
            let cfg = SmatConfig {
                reorder: reordering,
                device: gpu.cfg.clone(),
                ..SmatConfig::default()
            };
            let prepared = Smat::prepare(a, cfg);
            match prepared.try_spmm(b) {
                Ok(run) => Measurement {
                    engine: "SMaT".to_string(),
                    time_ms: run.report.elapsed_ms(),
                    gflops: run.report.gflops(),
                    imbalance: run.report.launch.sm_imbalance(),
                    error: None,
                },
                Err(e) => Measurement::failed("SMaT", e),
            }
        }
        _ => {
            // Apply the permutation to A (and, for row+col variants, to the
            // rows of B) before handing the matrix to the baseline.
            let r = reorder(a, reordering, 16, 16);
            let a_perm = r.apply(a);
            let b_perm_storage;
            let b_eff: &Dense<F16> = match &r.col_perm {
                Some(cp) => {
                    b_perm_storage = b.select_rows(cp.as_slice());
                    &b_perm_storage
                }
                None => b,
            };
            let out = match engine {
                Engine::Dasp => DaspLike::new(gpu, &a_perm).spmm(b_eff),
                Engine::Magicube => MagicubeLike::new(gpu, &a_perm).spmm(b_eff),
                Engine::Cusparse => CusparseLike::new(gpu, &a_perm).spmm(b_eff),
                Engine::Smat => unreachable!(),
            };
            match out {
                Ok((res, _)) => Measurement {
                    engine: engine.name().to_string(),
                    time_ms: res.time_ms,
                    gflops: res.gflops(),
                    imbalance: res.sm_imbalance(),
                    error: None,
                },
                Err(e) => Measurement::failed(engine.name(), e),
            }
        }
    }
}

/// Like [`run_engine`] but returns the busiest-SM roofline profile
/// (`None` if the launch failed).
pub fn run_engine_profiled(
    engine: Engine,
    gpu: &Gpu,
    a: &Csr<F16>,
    b: &Dense<F16>,
    reordering: ReorderAlgorithm,
) -> Option<smat_gpusim::BoundProfile> {
    match engine {
        Engine::Smat => {
            let cfg = SmatConfig {
                reorder: reordering,
                device: gpu.cfg.clone(),
                ..SmatConfig::default()
            };
            Smat::prepare(a, cfg)
                .try_spmm(b)
                .ok()
                .map(|run| run.report.launch.profile)
        }
        _ => {
            let r = reorder(a, reordering, 16, 16);
            let a_perm = r.apply(a);
            let out = match engine {
                Engine::Dasp => DaspLike::new(gpu, &a_perm).spmm(b),
                Engine::Magicube => MagicubeLike::new(gpu, &a_perm).spmm(b),
                Engine::Cusparse => CusparseLike::new(gpu, &a_perm).spmm(b),
                Engine::Smat => unreachable!(),
            };
            out.ok().map(|(res, _)| res.profile)
        }
    }
}

/// Geometric mean of a sequence (ignores non-finite or non-positive values).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for v in values {
        if v.is_finite() && v > 0.0 {
            log_sum += v.ln();
            count += 1;
        }
    }
    if count == 0 {
        f64::NAN
    } else {
        (log_sum / count as f64).exp()
    }
}

/// Formats a GFLOP/s or ratio cell, tolerating NaN (failed runs).
pub fn fmt_cell(v: f64) -> String {
    if v.is_nan() {
        "OOM".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_workloads::{dense_b, random_uniform};

    #[test]
    fn all_engines_run_on_a_small_matrix() {
        let gpu = Gpu::a100();
        let a: Csr<F16> = random_uniform(96, 96, 0.9, 5);
        let b = dense_b::<F16>(96, 8);
        for e in Engine::all() {
            let m = run_engine(e, &gpu, &a, &b, ReorderAlgorithm::Identity);
            assert!(m.error.is_none(), "{} failed: {:?}", e.name(), m.error);
            assert!(m.time_ms > 0.0 && m.gflops > 0.0, "{}: {m:?}", e.name());
        }
    }

    #[test]
    fn reordering_variants_run_for_baselines() {
        let gpu = Gpu::a100();
        let a: Csr<F16> = random_uniform(64, 64, 0.85, 6);
        let b = dense_b::<F16>(64, 8);
        for alg in [
            ReorderAlgorithm::JaccardRows { tau: 0.7 },
            ReorderAlgorithm::JaccardRowsCols { tau: 0.7 },
        ] {
            let m = run_engine(Engine::Cusparse, &gpu, &a, &b, alg);
            assert!(m.error.is_none());
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([3.0]) - 3.0).abs() < 1e-12);
        assert!(geomean([f64::NAN]).is_nan());
        assert!((geomean([1.0, f64::NAN, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_cell_handles_ranges() {
        assert_eq!(fmt_cell(f64::NAN), "OOM");
        assert_eq!(fmt_cell(123.4), "123");
        assert_eq!(fmt_cell(12.345), "12.35");
        assert_eq!(fmt_cell(0.5), "0.5000");
    }
}
