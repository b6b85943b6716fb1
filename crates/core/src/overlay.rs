//! Dynamic-matrix support: the COO delta overlay riding on a prepared
//! [`Smat`](crate::Smat).
//!
//! The inspector/executor split freezes a matrix at prepare time; real
//! graph workloads mutate edges and values between queries. Rather than
//! re-running the expensive prepare per update, mutations accumulate in a
//! sorted COO *overlay* of cell overrides: `A_eff(r,c)` is the override
//! value where one exists and the prepared base value elsewhere. Execution
//! then follows the cuTeSpMM-style split — the prepared base runs on the
//! Tensor Core path unchanged, and the overlay's additive corrections run
//! on a scalar host path over exactly the touched rows
//! ([`OverlaySnapshot::apply_corrections`]).
//!
//! Every mutation bumps an `epoch` counter. The epoch is stamped into
//! [`MatrixFingerprint`](smat_formats::MatrixFingerprint) via
//! [`with_epoch`](smat_formats::MatrixFingerprint::with_epoch), so plan
//! caches, preflight memos, and planner decisions keyed on fingerprints
//! can never be applied across a mutation: the stale key simply no longer
//! exists.
//!
//! Snapshots are immutable and `Arc`-shared: a mutation builds a fresh
//! snapshot and swaps the pointer, so an in-flight execution pinned to the
//! snapshot it admitted under is untouched by later mutations.
//!
//! ## Bitwise determinism contract
//!
//! The corrections are applied in ascending `(row, col)` order with `f64`
//! accumulation and one final rounding per touched output element — the
//! same discipline as [`Csr::spmm_reference`](smat_formats::Csr), the
//! oracle of the conformance suite. In the exact regime the whole test
//! suite operates in (small-integer payloads whose products and partial
//! sums are exactly representable), the overlay path is therefore bitwise
//! identical to a from-scratch prepare of `base ⊕ overlay` at the same
//! epoch, across formats and reorderings; the `tests/properties.rs`
//! interleaving proptest pins this down.

use smat_formats::{Dense, Element};

/// One mutation of a dynamic matrix. All three variants carry *absolute*
/// cell state (insert/update set the value, delete zeroes it), so
/// re-applying an update is idempotent — the property the serving layer's
/// mutate-during-compaction retry relies on.
#[derive(Clone, Copy, Debug)]
pub enum MatrixUpdate<T> {
    /// Stores `value` at an unoccupied cell. Inserting over an occupied
    /// cell behaves exactly like [`MatrixUpdate::Update`] (upsert).
    Insert {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
        /// The new cell value.
        value: T,
    },
    /// Replaces the value at a cell (occupied or not — upsert).
    Update {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
        /// The new cell value.
        value: T,
    },
    /// Removes the cell (sets it to structural zero).
    Delete {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
    },
}

impl<T: Element> MatrixUpdate<T> {
    /// The targeted `(row, col)` coordinate.
    pub fn cell(&self) -> (usize, usize) {
        match *self {
            MatrixUpdate::Insert { row, col, .. }
            | MatrixUpdate::Update { row, col, .. }
            | MatrixUpdate::Delete { row, col } => (row, col),
        }
    }

    /// The same update aimed at `row` — how a row-sharded tenant moves an
    /// update into the coordinates of the shard that owns it.
    pub fn with_row(self, row: usize) -> Self {
        match self {
            MatrixUpdate::Insert { col, value, .. } => MatrixUpdate::Insert { row, col, value },
            MatrixUpdate::Update { col, value, .. } => MatrixUpdate::Update { row, col, value },
            MatrixUpdate::Delete { col, .. } => MatrixUpdate::Delete { row, col },
        }
    }

    /// The absolute cell value after the update, exactly widened to `f64`
    /// (`0.0` for deletes).
    pub fn value_f64(&self) -> f64 {
        match *self {
            MatrixUpdate::Insert { value, .. } | MatrixUpdate::Update { value, .. } => {
                value.to_f64()
            }
            MatrixUpdate::Delete { .. } => 0.0,
        }
    }
}

/// One overridden cell of an [`OverlaySnapshot`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlayCell {
    /// Row index in the *original* (pre-permutation) coordinate space.
    pub row: usize,
    /// Column index in the original coordinate space.
    pub col: usize,
    /// Effective value of the cell after the override (exact `f64`
    /// widening of the element value; `0.0` means deleted).
    pub value: f64,
    /// `value − base(row, col)`: the additive correction the scalar path
    /// executes on top of the base Tensor Core product.
    pub correction: f64,
}

/// An immutable view of a matrix overlay at one epoch: the sorted COO
/// delta plus the mutation counter. Cheap to share (`Arc` in the serving
/// layer); mutations build a new snapshot rather than editing one.
#[derive(Clone, Debug, Default)]
pub struct OverlaySnapshot {
    /// Overridden cells, sorted by `(row, col)`, unique coordinates.
    cells: Vec<OverlayCell>,
    /// Number of mutations applied since the base was prepared.
    epoch: u64,
}

impl OverlaySnapshot {
    /// The empty overlay at epoch 0 — the state of a freshly prepared
    /// matrix.
    pub fn empty() -> Self {
        OverlaySnapshot::default()
    }

    /// Builds a snapshot from sorted cells (crate-internal: the `Smat`
    /// mutation path maintains the sort order invariant).
    pub(crate) fn from_parts(cells: Vec<OverlayCell>, epoch: u64) -> Self {
        debug_assert!(
            cells
                .windows(2)
                .all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col)),
            "overlay cells must be sorted by (row, col) and unique"
        );
        OverlaySnapshot { cells, epoch }
    }

    /// The mutation counter this snapshot was taken at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The overridden cells, sorted by `(row, col)`.
    pub fn cells(&self) -> &[OverlayCell] {
        &self.cells
    }

    /// Number of overridden cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell is overridden (epoch may still be nonzero after
    /// vacuous mutations or a compaction rebase).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of cells with a nonzero correction — the term count of the
    /// scalar overlay path, the `x` the planner prices compaction with.
    pub fn correction_terms(&self) -> usize {
        self.cells.iter().filter(|c| c.correction != 0.0).count()
    }

    /// The overrides as `(row, col, value)` triplets for
    /// [`Coo::with_overrides`](smat_formats::Coo::with_overrides) — the
    /// compaction merge input.
    pub fn overrides(&self) -> Vec<(usize, usize, f64)> {
        self.cells.iter().map(|c| (c.row, c.col, c.value)).collect()
    }

    /// Applies the overlay corrections to a base product `c = A_base·B`
    /// given in the original row order: for every touched row `r`,
    /// `c[r][j] ← round(c[r][j] + Σ_cells alpha·correction·b[col][j])`,
    /// accumulated in `f64` over cells in ascending column order and
    /// rounded once per element. `alpha` scales the corrections for the
    /// `spmm_axpby` epilogue (`1.0` for plain SpMM).
    pub fn apply_corrections<T: Element>(&self, c: &mut Dense<T>, b: &Dense<T>, alpha: f64) {
        if self.cells.is_empty() {
            return;
        }
        let n = c.ncols();
        let mut i = 0;
        while i < self.cells.len() {
            let row = self.cells[i].row;
            let row_end = self.cells[i..]
                .iter()
                .position(|cell| cell.row != row)
                .map_or(self.cells.len(), |p| i + p);
            let row_cells = &self.cells[i..row_end];
            if row_cells.iter().any(|cell| cell.correction != 0.0) {
                for j in 0..n {
                    let mut acc = c.get(row, j).to_f64();
                    for cell in row_cells {
                        if cell.correction != 0.0 {
                            acc += alpha * cell.correction * b.get(cell.col, j).to_f64();
                        }
                    }
                    c.set(row, j, T::from_f64(acc));
                }
            }
            i = row_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_formats::F16;

    fn snapshot(cells: Vec<OverlayCell>, epoch: u64) -> OverlaySnapshot {
        OverlaySnapshot::from_parts(cells, epoch)
    }

    #[test]
    fn empty_snapshot_is_a_no_op() {
        let ov = OverlaySnapshot::empty();
        assert_eq!(ov.epoch(), 0);
        assert_eq!(ov.correction_terms(), 0);
        let b = Dense::from_fn(4, 2, |i, j| F16::from_f64((i + j) as f64));
        let mut c = Dense::from_fn(4, 2, |i, j| F16::from_f64((i * j) as f64));
        let before = c.clone();
        ov.apply_corrections(&mut c, &b, 1.0);
        assert_eq!(c, before);
    }

    #[test]
    fn corrections_accumulate_in_f64_per_row() {
        // Two corrections in row 1 (cols 0 and 2) against a 4-row B.
        let ov = snapshot(
            vec![
                OverlayCell {
                    row: 1,
                    col: 0,
                    value: 3.0,
                    correction: 2.0,
                },
                OverlayCell {
                    row: 1,
                    col: 2,
                    value: 0.0,
                    correction: -1.0,
                },
            ],
            2,
        );
        let b = Dense::from_fn(4, 2, |i, j| F16::from_f64((i + 2 * j) as f64));
        let mut c = Dense::<F16>::zeros(3, 2);
        ov.apply_corrections(&mut c, &b, 1.0);
        for j in 0..2 {
            let want = 2.0 * b.get(0, j).to_f64() - b.get(2, j).to_f64();
            assert_eq!(c.get(1, j).to_f64(), want, "col {j}");
            assert_eq!(c.get(0, j).to_f64(), 0.0, "untouched rows stay");
            assert_eq!(c.get(2, j).to_f64(), 0.0);
        }
    }

    #[test]
    fn alpha_scales_corrections() {
        let ov = snapshot(
            vec![OverlayCell {
                row: 0,
                col: 1,
                value: 1.0,
                correction: 1.0,
            }],
            1,
        );
        let b = Dense::from_fn(2, 1, |i, _| F16::from_f64((i + 1) as f64));
        let mut c = Dense::<F16>::zeros(1, 1);
        ov.apply_corrections(&mut c, &b, 3.0);
        assert_eq!(c.get(0, 0).to_f64(), 3.0 * 2.0);
    }

    #[test]
    fn update_variants_expose_absolute_cell_state() {
        let ins = MatrixUpdate::Insert {
            row: 1,
            col: 2,
            value: F16::from_f64(2.0),
        };
        let del = MatrixUpdate::<F16>::Delete { row: 3, col: 4 };
        assert_eq!(ins.cell(), (1, 2));
        assert_eq!(ins.value_f64(), 2.0);
        assert_eq!(del.cell(), (3, 4));
        assert_eq!(del.value_f64(), 0.0);
    }
}
