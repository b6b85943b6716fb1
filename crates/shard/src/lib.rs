//! `smat-shard`: 1D row partitioning and the fan-out/join completion
//! protocol.
//!
//! Everything below this crate dispatches a whole prepared matrix to one
//! simulated device. This crate decomposes a CSR operand into
//! device-sized, nnz-balanced **row shards** ([`partition()`]); the serving
//! tier (`smat-serve`) prepares each shard through the ordinary pipeline,
//! so each shard carries its own reordering, fingerprint, and plan-cache
//! line, and fans one request out across its device pool.
//!
//! Row partitioning is the exactness trick: every nonzero of row `i` lives
//! in exactly one shard, so shard `s`'s product is precisely rows
//! `[row_start, row_end)` of the full product and the join is
//! [`Dense::vconcat`](smat_formats::Dense::vconcat) — a buffer append, no
//! arithmetic. The sharded result is therefore bitwise identical to the
//! unsharded path wherever the per-row accumulation is exact (the
//! small-integer discipline every conformance test uses).
//!
//! The [`FanoutJoin`] completion protocol is the concurrent core: it
//! tracks outstanding shards behind a checked `smat-sanitize` mutex, makes
//! duplicate completions (a hedge racing the original) idempotent, and
//! fires the join callback exactly once, outside the lock.

pub mod join;
pub mod partition;

pub use join::FanoutJoin;
pub use partition::{estimated_csr_bytes, partition, ShardDescriptor, ShardPlan, ShardPolicy};
