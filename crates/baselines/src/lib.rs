//! # smat-baselines
//!
//! The comparison targets of the paper's evaluation (§V-A), re-implemented
//! algorithmically on the shared A100 simulator so that every library pays
//! its characteristic costs through one cost model:
//!
//! * [`CusparseLike`] — vendor-style CSR SpMM on CUDA cores (per-nonzero
//!   decode, scattered B gathers);
//! * [`DaspLike`] — Tensor-Core SpMV with row-packing, batched over columns
//!   to emulate SpMM (matrix re-streamed per column);
//! * [`MagicubeLike`] — SR-BCRS int16 SpMM on Tensor Cores (stride padding,
//!   large preprocessing footprint, simulated OOMs);
//! * [`CublasLike`] — dense Tensor-Core GEMM reported as effective FLOP/s
//!   over the nonzero fraction.

#![forbid(unsafe_code)]

pub mod cublas;
pub mod cusparse;
pub mod dasp;
pub mod magicube;

pub use cublas::{CublasLike, GemmTime};
pub use cusparse::CusparseLike;
pub use dasp::DaspLike;
pub use magicube::MagicubeLike;
