//! # smat-formats
//!
//! Sparse and dense matrix formats for the SMaT (SC'24) reproduction:
//!
//! * [`Coo`] — coordinate triplets, the ingestion format;
//! * [`Csr`] — compressed sparse row, the unstructured baseline format
//!   (§II-B1 of the paper);
//! * [`Bcsr`] — blocked CSR, SMaT's internal format whose block shape
//!   matches the Tensor Core MMA fragment (§IV-B);
//! * [`PackedBcsr`]/[`PackedIndex`] — BCSR with bit-packed block metadata
//!   (per-row occupancy bitmap or delta/varint block columns, whichever is
//!   smaller), the compressed index the hot kernel path streams;
//! * [`SrBcrs`] — Magicube's strided row-major blocked CRS (§IV-B);
//! * [`Dense`] — row-major dense matrices for `B`, `C`, and references;
//! * [`F16`]/[`Bf16`] — software half-precision scalars with bit-exact IEEE
//!   rounding, plus the [`Element`] trait unifying all Tensor-Core-supported
//!   input types;
//! * [`mtx`] — Matrix Market I/O.

#![forbid(unsafe_code)]

pub mod bcsr;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod fingerprint;
pub mod footprint;
pub mod mtx;
pub mod packed;
pub mod permutation;
pub mod scalar;
pub mod srbcrs;
pub mod validate;

pub use bcsr::{Bcsr, BlockRowStats};
pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
pub use fingerprint::{Fnv1a, MatrixFingerprint};
pub use footprint::FormatFootprint;
pub use packed::{PackedBcsr, PackedDecodeError, PackedIndex, RowEncoding};
pub use permutation::Permutation;
pub use scalar::{Bf16, Element, F16};
pub use srbcrs::SrBcrs;
