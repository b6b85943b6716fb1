//! Compressed Sparse Row (CSR): the ingestion format of SMaT and the storage
//! format of the cuSPARSE and DASP baselines.

use crate::coo::Coo;
use crate::dense::Dense;
use crate::permutation::Permutation;
use crate::scalar::Element;

/// CSR sparse matrix with sorted column indices within each row.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Element> Csr<T> {
    /// Builds from raw arrays, validating the CSR invariants:
    /// monotone `row_ptr`, in-range and strictly increasing column indices
    /// per row, and matching array lengths.
    ///
    /// # Panics
    /// Panics if any invariant is violated. Use [`Csr::try_from_raw`] for a
    /// typed-diagnostic error instead.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        match Self::try_from_raw(nrows, ncols, row_ptr, col_idx, values) {
            Ok(m) => m,
            Err(diags) => panic!("{}", diags[0].message),
        }
    }

    /// Builds from raw arrays, returning every violated CSR invariant as a
    /// typed [`Diagnostic`](smat_diag::Diagnostic) instead of panicking.
    ///
    /// # Errors
    /// Returns all violations found, in deterministic scan order; the vector
    /// is non-empty whenever this returns `Err`.
    pub fn try_from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Result<Self, Vec<smat_diag::Diagnostic>> {
        let diags =
            crate::validate::validate_csr_parts(nrows, ncols, &row_ptr, &col_idx, values.len());
        if !diags.is_empty() {
            return Err(diags);
        }
        Ok(Csr {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Empty matrix with no nonzeros.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from a dense matrix, dropping zeros.
    pub fn from_dense(dense: &Dense<T>) -> Self {
        let mut coo = Coo::with_capacity(dense.nrows(), dense.ncols(), dense.nrows());
        for i in 0..dense.nrows() {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if !v.is_zero() {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }
    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }
    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }
    /// Per-row offsets into `col_idx`; length `nrows + 1`.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }
    /// Column index of each stored nonzero, sorted within each row.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }
    /// Value of each stored nonzero, parallel to `col_idx`.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Fraction of zero entries, `1 - nnz/(nrows*ncols)`.
    pub fn sparsity(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 1.0;
        }
        1.0 - self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Column indices of row `i`.
    #[inline]
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    #[inline]
    pub fn row_values(&self, i: usize) -> &[T] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Number of nonzeros in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Value at `(i, j)` if stored.
    pub fn get(&self, i: usize, j: usize) -> Option<T> {
        let cols = self.row_cols(i);
        cols.binary_search(&j)
            .ok()
            .map(|k| self.values[self.row_ptr[i] + k])
    }

    /// Iterates `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            self.row_cols(i)
                .iter()
                .zip(self.row_values(i))
                .map(move |(&c, &v)| (i, c, v))
        })
    }

    /// Converts to a canonical COO triplet list.
    pub fn to_coo(&self) -> Coo<T> {
        Coo::from_entries(self.nrows, self.ncols, self.iter().collect())
    }

    /// Converts to a dense matrix (zeros filled in).
    pub fn to_dense(&self) -> Dense<T> {
        let mut out = Dense::zeros(self.nrows, self.ncols);
        for (i, j, v) in self.iter() {
            out.set(i, j, v);
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Csr<T> {
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![T::zero(); self.nnz()];
        for (i, j, v) in self.iter() {
            let dst = cursor[j];
            col_idx[dst] = i;
            values[dst] = v;
            cursor[j] += 1;
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Row-permuted copy: row `i` of the result is row `perm.source_of(i)`
    /// of `self` (`A' = P·A`).
    pub fn permute_rows(&self, perm: &Permutation) -> Csr<T> {
        assert_eq!(
            perm.len(),
            self.nrows,
            "permutation length must match nrows"
        );
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for i in 0..self.nrows {
            let src = perm.source_of(i);
            col_idx.extend_from_slice(self.row_cols(src));
            values.extend_from_slice(self.row_values(src));
            row_ptr.push(col_idx.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Column-permuted copy: column `j` of the result is column
    /// `perm.source_of(j)` of `self` (`A' = A·Pᵀ`).
    pub fn permute_cols(&self, perm: &Permutation) -> Csr<T> {
        assert_eq!(
            perm.len(),
            self.ncols,
            "permutation length must match ncols"
        );
        // destination[old column] = new column
        let inv = perm.inverse();
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, T)> = Vec::new();
        for i in 0..self.nrows {
            scratch.clear();
            scratch.extend(
                self.row_cols(i)
                    .iter()
                    .zip(self.row_values(i))
                    .map(|(&c, &v)| (inv.source_of(c), v)),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Exact reference SpMM `C = A·B` with f64 accumulation; the oracle every
    /// kernel in the workspace is tested against.
    pub fn spmm_reference(&self, b: &Dense<T>) -> Dense<T> {
        assert_eq!(
            self.ncols,
            b.nrows(),
            "inner dimensions must match: A is {}x{}, B is {}x{}",
            self.nrows,
            self.ncols,
            b.nrows(),
            b.ncols()
        );
        let n = b.ncols();
        let mut acc = vec![0f64; n];
        let mut out = Dense::zeros(self.nrows, n);
        for i in 0..self.nrows {
            acc.iter_mut().for_each(|a| *a = 0.0);
            for (&k, &v) in self.row_cols(i).iter().zip(self.row_values(i)) {
                let v = v.to_f64();
                let brow = b.row(k);
                for (a, &bv) in acc.iter_mut().zip(brow) {
                    *a += v * bv.to_f64();
                }
            }
            let row = out.row_mut(i);
            for (o, &a) in row.iter_mut().zip(acc.iter()) {
                *o = T::from_f64(a);
            }
        }
        out
    }

    /// Converts element type (through `f64`).
    pub fn cast<U: Element>(&self) -> Csr<U> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self
                .values
                .iter()
                .map(|v| U::from_f64(v.to_f64()))
                .collect(),
        }
    }

    /// Per-row nonzero counts (used by load-balance statistics).
    pub fn row_nnz_histogram(&self) -> Vec<usize> {
        (0..self.nrows).map(|i| self.row_nnz(i)).collect()
    }

    /// Copies the row range `[start, end)` into a standalone CSR matrix
    /// with the same column space.
    ///
    /// This is the row-range view the 1D shard partitioner cuts on: each
    /// shard keeps every nonzero of the rows it owns, so `A·B` restricted
    /// to those rows equals the slice's product with the same `B` — the
    /// sharded join is a pure row concatenation.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > nrows`.
    pub fn slice_rows(&self, start: usize, end: usize) -> Csr<T> {
        assert!(
            start <= end && end <= self.nrows,
            "row slice [{start}, {end}) out of bounds for {} rows",
            self.nrows
        );
        let base = self.row_ptr[start];
        let stop = self.row_ptr[end];
        Csr {
            nrows: end - start,
            ncols: self.ncols,
            row_ptr: self.row_ptr[start..=end].iter().map(|p| p - base).collect(),
            col_idx: self.col_idx[base..stop].to_vec(),
            values: self.values[base..stop].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f32> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Csr::from_raw(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.get(2, 1), Some(4.0));
        assert_eq!(m.get(1, 1), None);
        assert!((m.sparsity() - (1.0 - 4.0 / 9.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_raw_rejects_unsorted_columns() {
        let _ = Csr::<f32>::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_raw_rejects_out_of_range_column() {
        let _ = Csr::<f32>::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(Csr::from_dense(&d), m);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 0), Some(2.0));
    }

    #[test]
    fn permute_rows_moves_rows() {
        let m = sample();
        let p = Permutation::from_vec(vec![2, 0, 1]);
        let pm = m.permute_rows(&p);
        assert_eq!(pm.row_cols(0), m.row_cols(2));
        assert_eq!(pm.row_values(0), m.row_values(2));
        assert_eq!(pm.row_nnz(2), 0);
    }

    #[test]
    fn permute_rows_then_inverse_restores() {
        let m = sample();
        let p = Permutation::from_vec(vec![1, 2, 0]);
        let restored = m.permute_rows(&p).permute_rows(&p.inverse());
        assert_eq!(restored, m);
    }

    #[test]
    fn permute_cols_keeps_sorted_invariant() {
        let m = sample();
        let p = Permutation::from_vec(vec![2, 1, 0]);
        let pm = m.permute_cols(&p);
        // Column 0 of pm is old column 2.
        assert_eq!(pm.get(0, 0), Some(2.0));
        assert_eq!(pm.get(0, 2), Some(1.0));
        for i in 0..3 {
            let cols = pm.row_cols(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn spmm_reference_against_hand_computed() {
        let m = sample();
        let b = Dense::from_fn(3, 2, |i, j| (i * 2 + j + 1) as f32);
        // B = [1 2; 3 4; 5 6]
        let c = m.spmm_reference(&b);
        assert_eq!(c.get(0, 0), 1.0 * 1.0 + 2.0 * 5.0);
        assert_eq!(c.get(0, 1), 1.0 * 2.0 + 2.0 * 6.0);
        assert_eq!(c.get(1, 0), 0.0);
        assert_eq!(c.get(2, 0), 3.0 * 1.0 + 4.0 * 3.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn spmm_reference_checks_dims() {
        let m = sample();
        let b = Dense::<f32>::zeros(2, 2);
        let _ = m.spmm_reference(&b);
    }

    #[test]
    fn slice_rows_matches_row_ranges() {
        let m = sample();
        let top = m.slice_rows(0, 2);
        assert_eq!(top.nrows(), 2);
        assert_eq!(top.ncols(), 3);
        assert_eq!(top.nnz(), 2);
        assert_eq!(top.row_cols(0), m.row_cols(0));
        assert_eq!(top.row_values(0), m.row_values(0));
        assert_eq!(top.row_nnz(1), 0);
        let bottom = m.slice_rows(2, 3);
        assert_eq!(bottom.row_cols(0), m.row_cols(2));
        assert_eq!(bottom.row_values(0), m.row_values(2));
        let empty = m.slice_rows(1, 1);
        assert_eq!(empty.nrows(), 0);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn slice_rows_product_matches_full_product_rows() {
        let m = sample();
        let b = Dense::from_fn(3, 2, |i, j| (i * 2 + j + 1) as f32);
        let full = m.spmm_reference(&b);
        let part = m.slice_rows(1, 3).spmm_reference(&b);
        assert_eq!(part.row(0), full.row(1));
        assert_eq!(part.row(1), full.row(2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rows_validates_bounds() {
        let _ = sample().slice_rows(1, 4);
    }

    #[test]
    fn row_permutation_commutes_with_spmm() {
        // (P A) B == P (A B): the algebraic fact SMaT's preprocessing relies on.
        let m = sample();
        let b = Dense::from_fn(3, 2, |i, j| (i + j) as f32);
        let p = Permutation::from_vec(vec![2, 0, 1]);
        let lhs = m.permute_rows(&p).spmm_reference(&b);
        let rhs = m.spmm_reference(&b).select_rows(p.as_slice());
        assert_eq!(lhs, rhs);
    }
}
