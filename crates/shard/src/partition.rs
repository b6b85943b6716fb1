//! The 1D row partitioner: contiguous, nnz-balanced row ranges sized to a
//! bytes-per-shard budget.
//!
//! The partitioner works on the *unprepared* CSR operand: shards are cut
//! before any reordering, so a shard's row range refers to original row
//! indices and the join is a plain concatenation in shard order. Balance
//! is by nonzero count (the paper's cost model charges `T_e` per block,
//! and blocks track nnz far better than rows on power-law matrices), with
//! the byte budget deciding *how many* shards to cut.

use smat_formats::{Csr, Element};

/// Default shard budget: 64 MiB of estimated CSR payload per device.
/// Small enough that several shards of a big operand fit one simulated
/// A100, large enough that small matrices never shard.
pub const DEFAULT_MAX_BYTES: usize = 64 << 20;

/// Partitioning policy: the target byte budget per shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct ShardPolicy {
    /// Target bytes per shard, measured with [`estimated_csr_bytes`].
    /// `0` disables sharding (everything stays in one shard).
    pub max_bytes: usize,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        ShardPolicy {
            max_bytes: DEFAULT_MAX_BYTES,
        }
    }
}

/// One shard: a contiguous range of original rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize)]
pub struct ShardDescriptor {
    /// Position in the plan (and in the joined output).
    pub index: usize,
    /// First original row owned by this shard (inclusive).
    pub row_start: usize,
    /// One past the last original row owned by this shard.
    pub row_end: usize,
    /// Nonzeros in the shard's rows.
    pub nnz: usize,
    /// Estimated CSR bytes of the shard (same model as
    /// [`estimated_csr_bytes`]).
    pub est_bytes: usize,
}

impl ShardDescriptor {
    /// Number of rows the shard owns.
    pub fn nrows(&self) -> usize {
        self.row_end - self.row_start
    }
}

/// The full partition of one matrix: shard descriptors in row order.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct ShardPlan {
    /// Rows of the partitioned matrix.
    pub nrows: usize,
    /// Columns of the partitioned matrix (shared by every shard).
    pub ncols: usize,
    /// Total nonzeros across shards.
    pub nnz: usize,
    /// Estimated CSR bytes of the whole operand.
    pub est_bytes: usize,
    /// The shards, ordered by `row_start`; covers `[0, nrows)` exactly.
    pub shards: Vec<ShardDescriptor>,
}

impl ShardPlan {
    /// The one-shard plan of an `nrows × ncols` matrix with `nnz` nonzeros:
    /// the whole matrix, unsplit.
    pub fn single<T: Element>(nrows: usize, ncols: usize, nnz: usize) -> Self {
        let est_bytes = range_bytes::<T>(nrows, nnz);
        ShardPlan {
            nrows,
            ncols,
            nnz,
            est_bytes,
            shards: vec![ShardDescriptor {
                index: 0,
                row_start: 0,
                row_end: nrows,
                nnz,
                est_bytes,
            }],
        }
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// Whether the plan actually splits the matrix (more than one shard).
    pub fn is_sharded(&self) -> bool {
        self.shards.len() > 1
    }

    /// Row count per shard, in shard order — the argument
    /// [`Dense::split_rows`](smat_formats::Dense::split_rows) expects.
    pub fn heights(&self) -> Vec<usize> {
        self.shards.iter().map(ShardDescriptor::nrows).collect()
    }
}

/// Estimated in-memory CSR footprint: one value and one column index per
/// nonzero plus the row-pointer array. The simulator charges index
/// traffic at `usize` width, so the estimate uses the same.
pub fn estimated_csr_bytes<T: Element>(a: &Csr<T>) -> usize {
    range_bytes::<T>(a.nrows(), a.nnz())
}

fn range_bytes<T: Element>(nrows: usize, nnz: usize) -> usize {
    nnz * (size_of::<T>() + size_of::<usize>()) + (nrows + 1) * size_of::<usize>()
}

/// Cuts `a` into nnz-balanced contiguous row shards such that each shard's
/// estimated bytes stay near `policy.max_bytes`.
///
/// The shard count is `ceil(total_bytes / max_bytes)`, clamped to the row
/// count (a shard owns at least one row); boundaries then equalize the
/// *cumulative nonzero count*, so a dense stripe produces narrow shards
/// and an empty stripe wide ones. `max_bytes == 0` disables splitting.
/// The shards always cover `[0, nrows)` exactly, in order.
pub fn partition<T: Element>(a: &Csr<T>, policy: &ShardPolicy) -> ShardPlan {
    let total_bytes = estimated_csr_bytes(a);
    let want = if policy.max_bytes == 0 {
        1
    } else {
        total_bytes.div_ceil(policy.max_bytes).max(1)
    };
    let nshards = want.min(a.nrows().max(1));
    let total_nnz = a.nnz();
    if nshards == 1 {
        return ShardPlan::single::<T>(a.nrows(), a.ncols(), total_nnz);
    }

    let mut shards = Vec::with_capacity(nshards);
    let mut start = 0usize;
    let mut cum = 0usize;
    for s in 0..nshards {
        let end = if s + 1 == nshards {
            // The last shard absorbs everything left, including trailing
            // empty rows the nnz walk would otherwise never reach.
            a.nrows()
        } else {
            // Later shards must each still receive at least one row.
            let max_end = a.nrows() - (nshards - 1 - s);
            let target = ((s + 1) * total_nnz).div_ceil(nshards);
            let mut end = start;
            while end < max_end {
                cum += a.row_nnz(end);
                end += 1;
                if cum >= target {
                    break;
                }
            }
            end
        };
        let nnz = a.row_ptr()[end] - a.row_ptr()[start];
        shards.push(ShardDescriptor {
            index: s,
            row_start: start,
            row_end: end,
            nnz,
            est_bytes: range_bytes::<T>(end - start, nnz),
        });
        start = end;
    }

    ShardPlan {
        nrows: a.nrows(),
        ncols: a.ncols(),
        nnz: total_nnz,
        est_bytes: total_bytes,
        shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_formats::F16;
    use smat_workloads::random_uniform;

    fn check_cover(plan: &ShardPlan) {
        let mut at = 0;
        let mut nnz = 0;
        for (i, s) in plan.shards.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.row_start, at, "shards must tile the row space");
            assert!(s.row_end >= s.row_start);
            at = s.row_end;
            nnz += s.nnz;
        }
        assert_eq!(at, plan.nrows, "shards must cover every row");
        assert_eq!(nnz, plan.nnz, "every nonzero lands in exactly one shard");
    }

    #[test]
    fn small_matrix_stays_one_shard() {
        let a: Csr<F16> = random_uniform(64, 64, 0.9, 7);
        let plan = partition(&a, &ShardPolicy::default());
        assert_eq!(plan.nshards(), 1);
        assert!(!plan.is_sharded());
        check_cover(&plan);
    }

    #[test]
    fn byte_budget_drives_shard_count() {
        let a: Csr<F16> = random_uniform(256, 256, 0.9, 11);
        let total = estimated_csr_bytes(&a);
        let plan = partition(
            &a,
            &ShardPolicy {
                max_bytes: total.div_ceil(4),
            },
        );
        assert_eq!(plan.nshards(), 4);
        check_cover(&plan);
        // nnz balance: no shard more than ~2x the mean.
        let mean = plan.nnz as f64 / 4.0;
        for s in &plan.shards {
            assert!(
                (s.nnz as f64) < 2.0 * mean + a.ncols() as f64,
                "shard {} holds {} nnz vs mean {mean}",
                s.index,
                s.nnz
            );
        }
    }

    #[test]
    fn zero_budget_disables_sharding() {
        let a: Csr<F16> = random_uniform(128, 32, 0.8, 3);
        let plan = partition(&a, &ShardPolicy { max_bytes: 0 });
        assert_eq!(plan.nshards(), 1);
        check_cover(&plan);
    }

    #[test]
    fn tiny_budget_clamps_to_one_row_per_shard() {
        let a: Csr<F16> = random_uniform(8, 16, 0.5, 5);
        let plan = partition(&a, &ShardPolicy { max_bytes: 1 });
        assert_eq!(plan.nshards(), 8, "shard count clamps to the row count");
        check_cover(&plan);
        assert!(plan.shards.iter().all(|s| s.nrows() == 1));
    }

    #[test]
    fn empty_matrix_partitions_to_one_empty_shard() {
        let a: Csr<F16> = Csr::empty(0, 10);
        let plan = partition(&a, &ShardPolicy { max_bytes: 1 });
        assert_eq!(plan.nshards(), 1);
        assert_eq!(plan.shards[0].nrows(), 0);
        check_cover(&plan);
    }

    #[test]
    fn trailing_empty_rows_belong_to_the_last_shard() {
        // Rows 0..4 dense-ish, rows 4..12 empty: the nnz walk satisfies
        // every target early; the tail must still be covered.
        let mut coo = smat_formats::Coo::new(12, 8);
        for i in 0..4 {
            for j in 0..8 {
                coo.push(i, j, F16::from_f64(1.0));
            }
        }
        let a = coo.to_csr();
        let plan = partition(&a, &ShardPolicy { max_bytes: 80 });
        assert!(plan.is_sharded());
        check_cover(&plan);
        assert_eq!(plan.shards.last().unwrap().row_end, 12);
    }

    #[test]
    fn plan_serializes() {
        let a: Csr<F16> = random_uniform(32, 32, 0.9, 1);
        let plan = partition(&a, &ShardPolicy { max_bytes: 256 });
        let json = serde_json::to_string(&plan).unwrap();
        assert!(json.contains("\"row_start\""), "{json}");
    }
}
