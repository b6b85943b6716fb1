//! # smat-analyze
//!
//! Static analysis for the SMaT workspace: invariant verification of every
//! sparse-matrix storage format and hazard analysis of kernel schedules,
//! reported as machine-readable typed diagnostics.
//!
//! Three passes share the [`smat_diag`] diagnostic core:
//!
//! * **Format verifiers** ([`verify`]) — structural invariants of
//!   CSR/COO/BCSR/SR-BCRS matrices, the bit-packed BCSR index
//!   (bitmap popcount vs stored blocks, monotone deltas, offset
//!   integrity), and permutations: monotone pointer arrays, sorted
//!   deduplicated in-bounds indices, arity and dimension consistency,
//!   padding-slot hygiene, NaN/Inf payload detection, bijectivity.
//!   Codes `F001`–`F020`.
//! * **Schedule analyzer** ([`schedule`]) — given BCSR geometry, a
//!   [`LaunchConfig`](smat_gpusim::LaunchConfig), a device, and a
//!   [`ScheduleSpec`]: shared-memory overflow, under-reported footprints,
//!   device OOM, malformed or imbalanced warp→SM assignments, `ldmatrix`
//!   bank-conflict exposure, and async double-buffering hazards. Codes
//!   `S001`–`S010`.
//! * **Reporting** ([`report`]) — compiler-style human listings and a
//!   stable JSON rendering for tooling.
//!
//! The `smat` pipeline runs the first two passes as a pre-flight hook
//! (debug builds by default) and rejects error-severity findings with a
//! typed `SimError::PreflightRejected` before the simulator executes; the
//! `analyze` example exposes the same passes as a CLI over `.mtx` files.

#![forbid(unsafe_code)]

pub mod report;
pub mod schedule;
pub mod verify;

pub use report::{render_human, render_json};
pub use schedule::{analyze_launch, ScheduleSpec};
pub use smat_diag::{DiagCode, Diagnostic, DiagnosticsExt, Location, Severity};
pub use verify::{
    verify_bcsr, verify_coo, verify_csr, verify_entries, verify_packed, verify_permutation,
    verify_spmm_dims, verify_srbcrs,
};

#[cfg(test)]
mod tests {
    use super::*;
    use smat_formats::{Bcsr, Coo, F16};
    use smat_gpusim::{CopyMode, DeviceConfig, LaunchConfig};

    /// End-to-end: a corrupt structure plus an oversubscribed schedule
    /// produce one combined, renderable batch with stable codes.
    #[test]
    fn passes_compose_into_one_batch() {
        let mut coo = Coo::new(32, 32);
        coo.push(0, 0, F16::from_f32(f32::NAN));
        coo.push(17, 3, F16::ONE);
        let bcsr = Bcsr::from_csr(&coo.to_csr(), 16, 16);

        let mut diags = verify_bcsr(&bcsr);
        let cfg = LaunchConfig {
            copy_mode: CopyMode::AsyncPipelined,
            label: "t".into(),
            footprint_bytes: usize::MAX / 2,
            shared_bytes_per_block: 1 << 30,
            assignment: None,
        };
        diags.extend(analyze_launch(
            &bcsr,
            8,
            &cfg,
            &DeviceConfig::a100_sxm4_40gb(),
            &ScheduleSpec::default(),
        ));

        assert!(diags.has_errors());
        let codes = diags.codes();
        assert!(codes.contains(&DiagCode::NonFinitePayload));
        assert!(codes.contains(&DiagCode::SmemOverflow));

        let json = render_json(&diags);
        assert!(json.contains("\"F008\"") && json.contains("\"S001\""));
        assert!(render_human(&diags).contains("error [S001]"));
    }
}
