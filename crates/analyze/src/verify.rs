//! Format-invariant verifiers: one pass per storage format, each returning
//! every violation it finds as a typed [`Diagnostic`].
//!
//! The structural checks (pointer shapes, index ranges, sort order,
//! bijectivity) are shared with the typed constructors through
//! [`smat_formats::validate`]; the passes here add what only a whole-value
//! scan can see — NaN/Inf payloads ([`DiagCode::NonFinitePayload`]),
//! padding slots that must be zero ([`DiagCode::PaddingNotZero`]), COO
//! entries outside the matrix ([`DiagCode::EntryOutOfBounds`]), and
//! cross-structure dimension agreement ([`DiagCode::DimensionMismatch`]).

use smat_diag::{DiagCode, Diagnostic, Location};
use smat_formats::srbcrs::PAD_COL;
use smat_formats::validate::{validate_bcsr_parts, validate_csr_parts, validate_permutation};
use smat_formats::{Bcsr, Coo, Csr, Element, PackedDecodeError, PackedIndex, Permutation, SrBcrs};

/// Scans a value slice for NaN/Inf payloads, reporting each offending
/// position as [`DiagCode::NonFinitePayload`].
fn scan_finite<T: Element>(values: &[T], what: &str, diags: &mut Vec<Diagnostic>) {
    for (pos, v) in values.iter().enumerate() {
        let f = v.to_f64();
        if !f.is_finite() {
            diags.push(Diagnostic::new(
                DiagCode::NonFinitePayload,
                Location::Pos { pos },
                format!("{what} value at position {pos} is {f} (must be finite)"),
            ));
        }
    }
}

/// Verifies every CSR invariant: pointer shape, strictly increasing
/// in-range column indices, index/value arity, and finite payloads.
pub fn verify_csr<T: Element>(m: &Csr<T>) -> Vec<Diagnostic> {
    let mut diags = validate_csr_parts(
        m.nrows(),
        m.ncols(),
        m.row_ptr(),
        m.col_idx(),
        m.values().len(),
    );
    scan_finite(m.values(), "CSR", &mut diags);
    diags
}

/// Verifies every BCSR invariant: nonzero block dimensions, the
/// block-granularity pointer structure, payload arity `nblocks·h·w`, a
/// plausible scalar `nnz`, and finite payloads.
pub fn verify_bcsr<T: Element>(m: &Bcsr<T>) -> Vec<Diagnostic> {
    let mut diags = validate_bcsr_parts(
        m.nrows(),
        m.ncols(),
        m.block_h(),
        m.block_w(),
        m.row_ptr(),
        m.col_idx(),
        m.values().len(),
        m.nnz(),
    );
    scan_finite(m.values(), "BCSR block", &mut diags);
    diags
}

/// Verifies a COO triplet list: every entry inside the matrix bounds
/// ([`DiagCode::EntryOutOfBounds`]), duplicate coordinates flagged as a
/// warning ([`DiagCode::DuplicateEntry`] — legal before `compact`, but a
/// conversion to CSR will silently sum them), and finite payloads.
pub fn verify_coo<T: Element>(m: &Coo<T>) -> Vec<Diagnostic> {
    verify_entries(m.nrows(), m.ncols(), m.entries())
}

/// Raw-triplet form of [`verify_coo`], for entry lists that have not been
/// through the bounds-asserting [`Coo`] constructors (e.g. a parser's
/// intermediate buffer).
pub fn verify_entries<T: Element>(
    nrows: usize,
    ncols: usize,
    entries: &[(usize, usize, T)],
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (pos, &(r, c, v)) in entries.iter().enumerate() {
        if r >= nrows || c >= ncols {
            diags.push(Diagnostic::new(
                DiagCode::EntryOutOfBounds,
                Location::Pos { pos },
                format!("entry ({r},{c}) out of bounds for {nrows}x{ncols}"),
            ));
        }
        if !v.to_f64().is_finite() {
            diags.push(Diagnostic::new(
                DiagCode::NonFinitePayload,
                Location::Pos { pos },
                format!(
                    "COO value at position {pos} is {} (must be finite)",
                    v.to_f64()
                ),
            ));
        }
    }
    let mut coords: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
    coords.sort_unstable();
    for w in coords.windows(2) {
        if w[0] == w[1] {
            diags.push(Diagnostic::new(
                DiagCode::DuplicateEntry,
                Location::Row { row: w[0].0 },
                format!(
                    "duplicate coordinate ({}, {}): conversion will sum the values",
                    w[0].0, w[0].1
                ),
            ));
        }
    }
    diags
}

/// Verifies an SR-BCRS matrix: panel-pointer shape, in-range non-padding
/// column indices, padded zero vectors that are actually zero
/// ([`DiagCode::PaddingNotZero`]), a nonzero count that matches the stored
/// payload, and finite payloads.
pub fn verify_srbcrs<T: Element>(m: &SrBcrs<T>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let pp = m.panel_ptr();
    if pp.first() != Some(&0) {
        diags.push(Diagnostic::new(
            DiagCode::RowPtrStart,
            Location::RowPtr { index: 0 },
            format!("panel_ptr must start at 0, found {:?}", pp.first()),
        ));
    }
    for i in 0..m.npanels() {
        if pp[i] > pp[i + 1] {
            diags.push(Diagnostic::new(
                DiagCode::RowPtrNonMonotone,
                Location::RowPtr { index: i + 1 },
                format!(
                    "panel_ptr must be monotone: panel_ptr[{i}] = {} > panel_ptr[{}] = {}",
                    pp[i],
                    i + 1,
                    pp[i + 1]
                ),
            ));
        }
    }
    if pp.last() != Some(&m.nvectors()) {
        diags.push(Diagnostic::new(
            DiagCode::RowPtrEnd,
            Location::RowPtr { index: m.npanels() },
            format!(
                "panel_ptr must end at the vector count {}, found {:?}",
                m.nvectors(),
                pp.last()
            ),
        ));
        return diags; // vector offsets below would be unreliable
    }

    let mut stored_nonzeros = 0usize;
    for (p, &panel_base) in pp.iter().enumerate().take(m.npanels()) {
        for v in 0..m.vectors_in_panel(p) {
            let c = m.col_idx()[panel_base + v];
            let is_pad = c == PAD_COL;
            if !is_pad && c >= m.ncols() {
                diags.push(Diagnostic::new(
                    DiagCode::ColIdxOutOfBounds,
                    Location::Pos {
                        pos: panel_base + v,
                    },
                    format!(
                        "vector {v} of panel {p} names column {c} (ncols = {})",
                        m.ncols()
                    ),
                ));
            }
            for lr in 0..m.vec_len() {
                let val = m.vector_element(p, v, lr).to_f64();
                if !val.is_finite() {
                    diags.push(Diagnostic::new(
                        DiagCode::NonFinitePayload,
                        Location::Pos {
                            pos: panel_base + v,
                        },
                        format!(
                            "element {lr} of vector {v} in panel {p} is {val} (must be finite)"
                        ),
                    ));
                } else if val != 0.0 {
                    if is_pad {
                        diags.push(Diagnostic::new(
                            DiagCode::PaddingNotZero,
                            Location::Pos {
                                pos: panel_base + v,
                            },
                            format!(
                                "padded zero vector {v} of panel {p} holds {val} at element {lr}"
                            ),
                        ));
                    } else {
                        stored_nonzeros += 1;
                    }
                }
            }
        }
    }
    if stored_nonzeros != m.nnz() {
        diags.push(Diagnostic::new(
            DiagCode::NnzInconsistent,
            Location::Whole,
            format!(
                "vectors hold {stored_nonzeros} nonzeros but nnz reports {}",
                m.nnz()
            ),
        ));
    }
    diags
}

/// Verifies a bit-packed BCSR index structurally, per block row:
///
/// * the stream offsets are monotone and stay inside the stream
///   ([`DiagCode::PackedStreamCorrupt`]);
/// * the row's slice decodes cleanly — no truncated varints
///   ([`DiagCode::PackedStreamCorrupt`]), no zero gaps and no out-of-range
///   block columns ([`DiagCode::PackedDeltaNonMonotone`]);
/// * the decoded block count (bitmap popcount / varint entry count) equals
///   the stored count from the payload row pointers
///   ([`DiagCode::PackedPopcountMismatch`]).
///
/// When `against` is given, every decoded row is additionally compared to
/// the companion BCSR's `col_idx` slice — the slot-aliasing contract the
/// kernel relies on ([`DiagCode::PackedPopcountMismatch`] on divergence,
/// since a disagreement means packed slots map to the wrong payload).
pub fn verify_packed<T: Element>(p: &PackedIndex, against: Option<&Bcsr<T>>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for bi in 0..p.nblock_rows() {
        match p.try_decode_row(bi) {
            Err(PackedDecodeError::TruncatedVarint { byte }) => {
                diags.push(Diagnostic::new(
                    DiagCode::PackedStreamCorrupt,
                    Location::Row { row: bi },
                    format!("block row {bi}: varint truncated at stream byte {byte}"),
                ));
            }
            Err(PackedDecodeError::CorruptOffsets { lo, hi }) => {
                diags.push(Diagnostic::new(
                    DiagCode::PackedStreamCorrupt,
                    Location::Row { row: bi },
                    format!(
                        "block row {bi}: stream offsets [{lo}, {hi}) are non-monotone \
                         or exceed the stream length"
                    ),
                ));
            }
            Err(PackedDecodeError::NonMonotone { position, col }) => {
                diags.push(Diagnostic::new(
                    DiagCode::PackedDeltaNonMonotone,
                    Location::Row { row: bi },
                    format!(
                        "block row {bi}: zero gap at position {position} \
                         (column {col} repeated — deltas must be >= 1)"
                    ),
                ));
            }
            Err(PackedDecodeError::ColumnOutOfRange { position, col }) => {
                diags.push(Diagnostic::new(
                    DiagCode::PackedDeltaNonMonotone,
                    Location::Row { row: bi },
                    format!(
                        "block row {bi}: decoded block column {col} at position \
                         {position} out of range (nblock_cols = {})",
                        p.nblock_cols()
                    ),
                ));
            }
            Ok(cols) => {
                let stored = p.blocks_in_row(bi);
                if cols.len() != stored {
                    diags.push(Diagnostic::new(
                        DiagCode::PackedPopcountMismatch,
                        Location::Row { row: bi },
                        format!(
                            "block row {bi}: {} decoded block columns ({}) but \
                             row_ptr stores {stored} blocks",
                            cols.len(),
                            if p.is_bitmap_row(bi) {
                                "bitmap popcount"
                            } else {
                                "varint entries"
                            },
                        ),
                    ));
                } else if let Some(b) = against {
                    if bi < b.nblock_rows() && cols != b.row_block_cols(bi) {
                        diags.push(Diagnostic::new(
                            DiagCode::PackedPopcountMismatch,
                            Location::Row { row: bi },
                            format!(
                                "block row {bi}: decoded block columns diverge from \
                                 the companion BCSR col_idx — payload slots would \
                                 be misaddressed"
                            ),
                        ));
                    }
                }
            }
        }
    }
    if let Some(b) = against {
        if p.nblock_rows() != b.nblock_rows()
            || p.nblock_cols() != b.nblock_cols()
            || p.row_ptr() != b.row_ptr()
        {
            diags.push(Diagnostic::new(
                DiagCode::DimensionMismatch,
                Location::Whole,
                format!(
                    "packed index shape ({}x{} block grid, {} blocks) disagrees \
                     with the companion BCSR ({}x{}, {} blocks)",
                    p.nblock_rows(),
                    p.nblock_cols(),
                    p.nblocks(),
                    b.nblock_rows(),
                    b.nblock_cols(),
                    b.nblocks()
                ),
            ));
        }
    }
    diags
}

/// Verifies a permutation is a bijection of `0..len` and, when an expected
/// domain size is given, that the length matches it
/// ([`DiagCode::PermLengthMismatch`]).
pub fn verify_permutation(p: &Permutation, expected_len: Option<usize>) -> Vec<Diagnostic> {
    let mut diags = validate_permutation(p.as_slice());
    if let Some(n) = expected_len {
        if p.len() != n {
            diags.push(Diagnostic::new(
                DiagCode::PermLengthMismatch,
                Location::Whole,
                format!(
                    "permutation has length {} but permutes a dimension of {n}",
                    p.len()
                ),
            ));
        }
    }
    diags
}

/// Checks the SpMM operand shapes `C[m×n] = A[m×k] · B[k×n]`
/// ([`DiagCode::DimensionMismatch`] when `A.ncols != B.nrows`).
pub fn verify_spmm_dims(
    a_nrows: usize,
    a_ncols: usize,
    b_nrows: usize,
    b_ncols: usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if a_ncols != b_nrows {
        diags.push(Diagnostic::new(
            DiagCode::DimensionMismatch,
            Location::Whole,
            format!(
                "inner dimensions must match: A is {a_nrows}x{a_ncols}, B is {b_nrows}x{b_ncols}"
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use smat_diag::DiagnosticsExt;
    use smat_formats::F16;

    fn sample_csr() -> Csr<f32> {
        let mut coo = Coo::new(4, 6);
        coo.push(0, 0, 1.0);
        coo.push(0, 5, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(3, 1, 4.0);
        coo.push(3, 3, 5.0);
        coo.to_csr()
    }

    #[test]
    fn well_formed_structures_are_clean() {
        let csr = sample_csr();
        assert!(verify_csr(&csr).is_empty());
        assert!(verify_srbcrs(&SrBcrs::from_csr(&csr, 2, 2)).is_empty());
        assert!(verify_bcsr(&Bcsr::from_csr(&csr, 2, 2)).is_empty());
        assert!(verify_coo(&csr.to_coo()).is_empty());
        assert!(verify_permutation(&Permutation::identity(4), Some(4)).is_empty());
    }

    #[test]
    fn nan_payload_fires_f008() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, F16::from_f32(f32::NAN));
        coo.push(1, 1, F16::ONE);
        let d = verify_coo(&coo);
        assert!(d.codes().contains(&DiagCode::NonFinitePayload), "{d:?}");
        let csr = coo.to_csr();
        assert!(verify_csr(&csr)
            .codes()
            .contains(&DiagCode::NonFinitePayload));
        let bcsr = Bcsr::from_csr(&csr, 2, 2);
        assert!(verify_bcsr(&bcsr)
            .codes()
            .contains(&DiagCode::NonFinitePayload));
    }

    #[test]
    fn coo_duplicates_warn_but_do_not_error() {
        let mut coo = Coo::new(3, 3);
        coo.push(1, 1, 1.0f32);
        coo.push(1, 1, 2.0);
        let d = verify_coo(&coo);
        assert_eq!(d.codes(), vec![DiagCode::DuplicateEntry]);
        assert!(!d.has_errors());
    }

    #[test]
    fn raw_entry_out_of_bounds_fires_f016() {
        // `Coo` constructors assert bounds, so the raw-triplet verifier is
        // the path a parser would take before building the structure.
        let d = verify_entries(4, 4, &[(1, 2, 1.0f32), (6, 7, 1.0)]);
        assert_eq!(d.codes(), vec![DiagCode::EntryOutOfBounds]);
        assert!(d.has_errors());
    }

    #[test]
    fn permutation_length_mismatch_fires_f014() {
        let p = Permutation::identity(4);
        let d = verify_permutation(&p, Some(6));
        assert_eq!(d.codes(), vec![DiagCode::PermLengthMismatch]);
    }

    #[test]
    fn spmm_dims_mismatch_fires_f009() {
        assert!(verify_spmm_dims(8, 8, 8, 4).is_empty());
        let d = verify_spmm_dims(8, 8, 4, 4);
        assert_eq!(d.codes(), vec![DiagCode::DimensionMismatch]);
        assert!(d.has_errors());
    }

    #[test]
    fn well_formed_packed_index_is_clean_against_its_bcsr() {
        let bcsr = Bcsr::from_csr(&sample_csr(), 2, 2);
        let p = PackedIndex::from_bcsr(&bcsr);
        assert!(verify_packed(&p, Some(&bcsr)).is_empty());
        assert!(verify_packed::<f32>(&p, None).is_empty());
    }

    #[test]
    fn packed_popcount_mismatch_fires_f018() {
        // A bitmap row whose popcount (3) disagrees with row_ptr (2 blocks).
        let p = PackedIndex::from_raw_parts(
            8,
            16,
            16,
            vec![0, 2],
            vec![0, 1],
            vec![1], // row 0 tagged bitmap
            vec![0b0000_0111],
        );
        let d = verify_packed::<f32>(&p, None);
        assert_eq!(d.codes(), vec![DiagCode::PackedPopcountMismatch]);
        assert!(d.has_errors());
    }

    #[test]
    fn packed_zero_gap_fires_f019() {
        // Delta stream [5, 0]: a zero gap repeats column 5.
        let p =
            PackedIndex::from_raw_parts(16, 16, 16, vec![0, 2], vec![0, 2], vec![0], vec![5, 0]);
        let d = verify_packed::<f32>(&p, None);
        assert_eq!(d.codes(), vec![DiagCode::PackedDeltaNonMonotone]);
    }

    #[test]
    fn packed_corrupt_stream_fires_f020() {
        // Truncated varint (continuation bit with no successor byte).
        let truncated = PackedIndex::from_raw_parts(
            1 << 20,
            16,
            16,
            vec![0, 1],
            vec![0, 1],
            vec![0],
            vec![0x80],
        );
        let d = verify_packed::<f32>(&truncated, None);
        assert_eq!(d.codes(), vec![DiagCode::PackedStreamCorrupt]);
        // Offsets that run past the stream.
        let bad_offsets =
            PackedIndex::from_raw_parts(16, 16, 16, vec![0, 1], vec![0, 9], vec![0], vec![3]);
        let d = verify_packed::<f32>(&bad_offsets, None);
        assert_eq!(d.codes(), vec![DiagCode::PackedStreamCorrupt]);
    }

    #[test]
    fn packed_slot_divergence_from_companion_bcsr_is_reported() {
        // Structurally valid on its own, but decodes different block
        // columns than the BCSR it claims to index — payload slots would
        // be misaddressed.
        let bcsr = Bcsr::from_csr(&sample_csr(), 2, 2);
        let rows: Vec<Vec<usize>> = (0..bcsr.nblock_rows())
            .map(|bi| {
                bcsr.row_block_cols(bi)
                    .iter()
                    .map(|&c| (c + 1) % bcsr.nblock_cols())
                    .map(|c| c.min(bcsr.nblock_cols() - 1))
                    .collect::<Vec<_>>()
            })
            .map(|mut v: Vec<usize>| {
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        let p = PackedIndex::from_block_rows(bcsr.nblock_cols(), 2, 2, &rows);
        let d = verify_packed(&p, Some(&bcsr));
        assert!(d.has_errors(), "{d:?}");
    }
}
