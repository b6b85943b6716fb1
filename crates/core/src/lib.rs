//! # smat
//!
//! The SMaT library — (S)parse (Ma)trix Matrix (T)ensor Core-accelerated
//! SpMM for unstructured sparse matrices (Okanovic et al., SC 2024) — on the
//! simulated A100 of `smat-gpusim`.
//!
//! Pipeline (Fig. 1 of the paper): a CSR matrix is permuted by a
//! block-densifying row reordering (Jaccard clustering by default), stored
//! as BCSR with blocks matching the Tensor Core MMA fragment, and multiplied
//! by the warp-level 2D-parallel kernel of Algorithm 1 (`memcpy_async`
//! staging, `ldmatrix` fragment loads, `HMMA16816` tensor-core MMA).
//!
//! ```
//! use smat::{Smat, SmatConfig};
//! use smat_formats::{Csr, Dense, Element, F16, Coo};
//!
//! let mut coo = Coo::new(64, 64);
//! for i in 0..64 { coo.push(i, (i * 7) % 64, F16::from_f32(1.0)); }
//! let a: Csr<F16> = coo.to_csr();
//! let b = Dense::from_fn(64, 8, |i, j| F16::from_f64(((i + j) % 3) as f64));
//!
//! let engine = Smat::prepare(&a, SmatConfig::default());
//! let run = engine.spmm(&b);
//! assert_eq!(run.c, a.spmm_reference(&b));
//! ```

#![forbid(unsafe_code)]

pub mod autotune;
pub mod config;
pub mod kernel;
pub mod lru;
pub mod overlay;
pub mod perfmodel;
pub mod pipeline;
pub mod planner;

pub use autotune::{autotune, TuneReport};
pub use config::{AccumMode, MatrixFormat, OptFlags, PreflightMode, Schedule, SmatConfig};
pub use kernel::{
    build_launch_config, build_launch_config_for, smat_spmm, smat_spmm_axpby, smat_spmm_scheduled,
    smat_spmm_scheduled_with, Epilogue, KernelPath, NTILE, WARPS_PER_TB,
};
pub use lru::LruMap;
pub use overlay::{MatrixUpdate, OverlayCell, OverlaySnapshot};
pub use perfmodel::{PerfModel, PerfSample};
pub use pipeline::{PrepareTimings, RunReport, Smat, SmatRun};
pub use planner::{Calibration, PlanDecision, PlanSpace, Planner, ReorderCache};
