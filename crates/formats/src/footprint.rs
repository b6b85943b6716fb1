//! Format-agnostic operand footprint accounting.
//!
//! `build_launch_config` (and through it the preflight analyzer and the
//! Eq. 1 perf model) prices an SpMM launch by the bytes its operands
//! occupy: the A-matrix payload, the A-matrix *index structure*, and the
//! dense B/C panels. Before this trait the kernel hard-coded the plain
//! BCSR sum; routing every format through one method keeps packed, plain,
//! and padded layouts honest about what they actually move.

use crate::bcsr::Bcsr;
use crate::packed::PackedBcsr;
use crate::scalar::Element;
use crate::srbcrs::SrBcrs;

/// Byte accounting every SpMM operand format reports about itself.
pub trait FormatFootprint {
    /// Stored value bytes, padding included — what the payload slabs
    /// occupy in device memory.
    fn payload_bytes(&self) -> usize;
    /// Index-structure bytes — pointers, column indices, offsets, tags.
    /// For compressed layouts this is the *compressed* size.
    fn index_bytes(&self) -> usize;
    /// Logical row count of the operand (for sizing the C panel).
    fn operand_rows(&self) -> usize;
    /// Logical column count of the operand (for sizing the B panel).
    fn operand_cols(&self) -> usize;

    /// Total device footprint of `A·B = C` with `n` dense columns and
    /// `elem_bytes`-wide elements: payload + index + B panel + C panel.
    fn spmm_footprint_bytes(&self, n: usize, elem_bytes: usize) -> usize {
        self.payload_bytes()
            + self.index_bytes()
            + (self.operand_cols() * n + self.operand_rows() * n) * elem_bytes
    }
}

impl<T: Element> FormatFootprint for Bcsr<T> {
    fn payload_bytes(&self) -> usize {
        Bcsr::payload_bytes(self)
    }
    fn index_bytes(&self) -> usize {
        Bcsr::index_bytes(self)
    }
    fn operand_rows(&self) -> usize {
        self.nrows()
    }
    fn operand_cols(&self) -> usize {
        self.ncols()
    }
}

impl<T: Element> FormatFootprint for PackedBcsr<T> {
    fn payload_bytes(&self) -> usize {
        PackedBcsr::payload_bytes(self)
    }
    fn index_bytes(&self) -> usize {
        PackedBcsr::index_bytes(self)
    }
    fn operand_rows(&self) -> usize {
        self.nrows()
    }
    fn operand_cols(&self) -> usize {
        self.ncols()
    }
}

impl<T: Element> FormatFootprint for SrBcrs<T> {
    fn payload_bytes(&self) -> usize {
        SrBcrs::payload_bytes(self)
    }
    fn index_bytes(&self) -> usize {
        SrBcrs::index_bytes(self)
    }
    fn operand_rows(&self) -> usize {
        self.nrows()
    }
    fn operand_cols(&self) -> usize {
        self.ncols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csr::Csr;

    /// Deterministic power-law fixture: early rows are dense, the tail is
    /// nearly empty — the dc2/rmat shape the packed index targets.
    fn power_law() -> Csr<f32> {
        let mut coo = Coo::new(256, 256);
        for r in 0..256 {
            let deg = (256 / (r + 1)).max(1);
            for j in 0..deg {
                coo.push(r, (r * 31 + j * 17) % 256, 1.0 + (j % 3) as f32);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn packed_footprint_is_smaller_than_plain_on_power_law_fixture() {
        let a = power_law();
        let plain = Bcsr::from_csr(&a, 16, 16);
        let packed = PackedBcsr::from_bcsr(&plain);
        assert!(
            FormatFootprint::index_bytes(&packed) < FormatFootprint::index_bytes(&plain),
            "packed index {} >= plain index {}",
            packed.index_bytes(),
            plain.index_bytes()
        );
        // Payload slabs are shared byte-for-byte; only the index shrinks,
        // so the whole-launch footprint must shrink by exactly the index
        // delta.
        assert_eq!(
            FormatFootprint::payload_bytes(&packed),
            FormatFootprint::payload_bytes(&plain)
        );
        let n = 32;
        assert_eq!(
            plain.spmm_footprint_bytes(n, 2) - packed.spmm_footprint_bytes(n, 2),
            plain.index_bytes() - packed.index_bytes()
        );
    }
}
