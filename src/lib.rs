//! # smat-repro
//!
//! Facade crate for the Rust reproduction of *High Performance Unstructured
//! SpMM Computation Using Tensor Cores* (Okanovic et al., SC 2024) — the
//! SMaT library — including every substrate it depends on:
//!
//! * [`formats`] — CSR/COO/BCSR/packed-BCSR/SR-BCRS/dense formats and
//!   software half-precision scalars;
//! * [`reorder`] — block-densifying row/column permutations (Jaccard
//!   clustering, RCM, Saad, Gray-code);
//! * [`gpusim`] — a functional + analytical-timing simulator of the NVIDIA
//!   A100 execution model (SMs, warps, shared memory, Tensor Core MMA);
//! * [`smat`] — the SMaT pipeline and kernel (the paper's contribution);
//! * [`baselines`] — cuSPARSE-, DASP-, Magicube-, and cuBLAS-like
//!   comparison kernels running on the same simulator;
//! * [`workloads`] — deterministic matrix generators (band, RMAT, meshes,
//!   SuiteSparse mimics);
//! * [`diag`] / [`analyze`] — typed diagnostics, the format invariant
//!   verifiers, and the kernel-schedule hazard analyzer backing the
//!   pipeline's pre-flight hook and the `analyze` example CLI;
//! * [`shard`] — 1D row partitioning of oversized operands into
//!   nnz-balanced device-sized shards, the fan-out/join primitive, and the
//!   cooperative multi-device executor;
//! * [`serve`] — the async multi-tenant serving engine (prepared-matrix
//!   registry, plan cache, request batcher, two-level device-pool
//!   scheduler with shard-aware fan-out);
//! * [`trace`] — the structured tracing/metrics layer (dual-clock span
//!   recorder, Chrome Trace export, summary tables) threaded through the
//!   pipeline, simulator, and serving engine;
//! * [`sanitize`] — the concurrency verification layer: checked sync
//!   primitives feeding a lockdep-style lock-order analysis, plus a
//!   deterministic interleaving model checker the serving protocols are
//!   proved against (C001–C008 diagnostics).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use smat_repro::prelude::*;
//!
//! // A small random sparse matrix in CSR, in FP16.
//! let a = smat_repro::workloads::random_uniform::<F16>(256, 256, 0.95, 42);
//! let b = Dense::<F16>::from_fn(256, 8, |i, j| F16::from_f32(((i + j) % 3) as f32));
//!
//! // The full SMaT pipeline: reorder -> BCSR -> simulated TC kernel.
//! let engine = Smat::prepare(&a, SmatConfig::default());
//! let run = engine.spmm(&b);
//!
//! assert_eq!(run.c.shape(), (256, 8));
//! assert!(run.report.elapsed_ms() > 0.0);
//! ```

pub use smat_analyze as analyze;
pub use smat_baselines as baselines;
pub use smat_diag as diag;
pub use smat_formats as formats;
pub use smat_gpusim as gpusim;
pub use smat_reorder as reorder;
pub use smat_sanitize as sanitize;
pub use smat_serve as serve;
pub use smat_shard as shard;
pub use smat_trace as trace;
pub use smat_workloads as workloads;

/// The SMaT core library (re-export of the `smat` crate).
pub use smat;

/// Commonly used items in one import.
pub mod prelude {
    pub use smat::{autotune, PlanSpace, PreflightMode, Schedule, Smat, SmatConfig};
    pub use smat_diag::{DiagCode, Diagnostic, DiagnosticsExt, Severity};
    pub use smat_formats::{Bcsr, Bf16, Csr, Dense, Element, Permutation, F16};
    pub use smat_gpusim::DeviceConfig;
    pub use smat_reorder::ReorderAlgorithm;
}
