//! Property-based tests (proptest) on the cross-crate invariants: format
//! conversion roundtrips, Eq. (2) block bounds, permutation algebra, and
//! kernel-vs-reference agreement on arbitrary matrices and configurations.

use proptest::prelude::*;
use smat::{AccumMode, MatrixUpdate, OptFlags, PlanSpace, Planner, Smat, SmatConfig};
use smat_formats::{Bcsr, Coo, Csr, Dense, Element, Permutation, SrBcrs, F16};
use smat_reorder::{reorder, ReorderAlgorithm};

/// Strategy: a sparse matrix as (rows, cols, entries with small-int values).
fn sparse_matrix() -> impl Strategy<Value = Csr<F16>> {
    (1usize..60, 1usize..60).prop_flat_map(|(r, c)| {
        proptest::collection::vec(((0..r), (0..c), -4i32..=4), 0..200).prop_map(move |entries| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                if v != 0 {
                    coo.push(i, j, F16::from_f64(v as f64));
                }
            }
            coo.to_csr()
        })
    })
}

fn rhs(k: usize, n: usize) -> Dense<F16> {
    Dense::from_fn(k, n, |i, j| {
        F16::from_f64(((i * 3 + j * 5) % 7) as f64 - 3.0)
    })
}

/// Every reordering algorithm, with `tau` driving the thresholded ones.
fn all_reorder_algorithms(tau: f64) -> [ReorderAlgorithm; 9] {
    [
        ReorderAlgorithm::Identity,
        ReorderAlgorithm::JaccardRows { tau },
        ReorderAlgorithm::JaccardRowsCols { tau },
        ReorderAlgorithm::JaccardLsh {
            tau,
            bands: 8,
            rows_per_band: 1,
        },
        ReorderAlgorithm::ReverseCuthillMcKee,
        ReorderAlgorithm::Saad { tau },
        ReorderAlgorithm::GrayCode,
        ReorderAlgorithm::Bisection,
        ReorderAlgorithm::DegreeSort,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bcsr_roundtrips_csr(a in sparse_matrix(), h in 1usize..20, w in 1usize..20) {
        let bcsr = Bcsr::from_csr(&a, h, w);
        prop_assert_eq!(bcsr.to_csr(), a);
    }

    #[test]
    fn bcsr_block_count_within_eq2_bounds(a in sparse_matrix(), h in 1usize..20, w in 1usize..20) {
        let bcsr = Bcsr::from_csr(&a, h, w);
        let (lo, hi) = bcsr.block_count_bounds();
        prop_assert!(lo <= bcsr.nblocks());
        prop_assert!(bcsr.nblocks() <= hi.max(1) || bcsr.nblocks() == 0);
        // Padding accounting is consistent.
        prop_assert_eq!(
            bcsr.padding() + bcsr.nnz(),
            bcsr.nblocks() * h * w
        );
    }

    #[test]
    fn srbcrs_roundtrips_csr(a in sparse_matrix(), v in 1usize..12, s in 1usize..8) {
        let sr = SrBcrs::from_csr(&a.cast::<i16>(), v, s);
        prop_assert_eq!(sr.to_csr(), a.cast::<i16>());
    }

    #[test]
    fn transpose_is_involutive(a in sparse_matrix()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn dense_roundtrip(a in sparse_matrix()) {
        prop_assert_eq!(Csr::from_dense(&a.to_dense()), a);
    }

    #[test]
    fn dense_split_rows_vconcat_roundtrips(
        a in sparse_matrix(),
        cuts in proptest::collection::vec(0usize..60, 0..5),
    ) {
        // split∘vconcat is bitwise: the sharded join relies on this.
        let d = a.to_dense();
        let mut heights = Vec::new();
        let mut left = d.nrows();
        for c in cuts {
            let h = c % (left + 1);
            heights.push(h);
            left -= h;
        }
        heights.push(left);
        let parts = d.split_rows(&heights);
        let refs: Vec<&Dense<F16>> = parts.iter().collect();
        prop_assert_eq!(Dense::vconcat(&refs), d);
    }

    #[test]
    fn csr_slice_rows_reassembles_and_preserves_products(
        a in sparse_matrix(),
        cut_seed in 0usize..1000,
    ) {
        // Slicing rows then multiplying each slice gives exactly the rows of
        // the full product — the invariant that makes 1D sharding exact.
        let mid = cut_seed % (a.nrows() + 1);
        let top = a.slice_rows(0, mid);
        let bottom = a.slice_rows(mid, a.nrows());
        prop_assert_eq!(top.nnz() + bottom.nnz(), a.nnz());
        let b = rhs(a.ncols(), 4);
        let full = a.spmm_reference(&b);
        let joined = Dense::vconcat(&[
            &top.spmm_reference(&b),
            &bottom.spmm_reference(&b),
        ]);
        prop_assert_eq!(joined, full);
    }

    #[test]
    fn row_permutation_commutes_with_spmm(a in sparse_matrix(), seed in 0u64..1000) {
        // (P·A)·B == P·(A·B) — the algebraic basis of SMaT's preprocessing.
        let n = a.nrows();
        let perm = {
            let mut idx: Vec<usize> = (0..n).collect();
            // Simple seeded shuffle.
            let mut state = seed.wrapping_add(1);
            for i in (1..n).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                idx.swap(i, j);
            }
            Permutation::from_vec(idx)
        };
        let b = rhs(a.ncols(), 4);
        let lhs = a.permute_rows(&perm).spmm_reference(&b);
        let rhs_ = a.spmm_reference(&b).select_rows(perm.as_slice());
        prop_assert_eq!(lhs, rhs_);
    }

    #[test]
    fn every_reorder_algorithm_returns_a_bijection(a in sparse_matrix(), tau in 0.1f64..0.95) {
        for alg in all_reorder_algorithms(tau) {
            let r = reorder(&a, alg, 8, 8);
            // Permutation::from_vec inside reorder validates bijectivity;
            // check the shape and inverse algebra explicitly anyway, plus
            // that the permuted matrix preserves the nnz multiset.
            prop_assert_eq!(r.row_perm.len(), a.nrows());
            prop_assert!(r.row_perm.then(&r.row_perm.inverse()).is_identity());
            if let Some(cp) = &r.col_perm {
                prop_assert_eq!(cp.len(), a.ncols());
                prop_assert!(cp.then(&cp.inverse()).is_identity());
            }
            let pm = r.apply(&a);
            prop_assert_eq!(pm.nnz(), a.nnz());
            let mut h1 = a.row_nnz_histogram();
            let mut h2 = pm.row_nnz_histogram();
            h1.sort_unstable();
            h2.sort_unstable();
            if r.col_perm.is_none() {
                prop_assert_eq!(h1, h2);
            }
        }
    }

    #[test]
    fn every_reorder_algorithm_preserves_the_product(
        a in sparse_matrix(), tau in 0.1f64..0.95, n in 1usize..8
    ) {
        // (P·A·Qᵀ)·(Q·B) == P·(A·B): multiplying the reordered matrix by
        // the correspondingly permuted RHS gives the original product with
        // its rows shuffled by P — bitwise, since reordering moves values
        // without touching them and the reference accumulates in f64.
        let b = rhs(a.ncols(), n);
        let want = a.spmm_reference(&b);
        for alg in all_reorder_algorithms(tau) {
            let r = reorder(&a, alg, 8, 8);
            let b_eff = match &r.col_perm {
                Some(cp) => b.select_rows(cp.as_slice()),
                None => b.clone(),
            };
            let lhs = r.apply(&a).spmm_reference(&b_eff);
            prop_assert_eq!(
                lhs,
                want.select_rows(r.row_perm.as_slice()),
                "alg {}", alg.name()
            );
        }
    }

    #[test]
    fn smat_equals_reference_for_arbitrary_matrices(
        a in sparse_matrix(),
        n in 1usize..12,
        tc in proptest::bool::ANY,
        bcsr_iter in proptest::bool::ANY,
        async_copy in proptest::bool::ANY,
    ) {
        let b = rhs(a.ncols(), n);
        let cfg = SmatConfig {
            opts: OptFlags { tc, bcsr_iter, async_copy },
            ..SmatConfig::default()
        };
        let run = Smat::prepare(&a, cfg).spmm(&b);
        prop_assert_eq!(run.c, a.spmm_reference(&b));
    }

    #[test]
    fn narrow_accumulation_is_close_to_wide(a in sparse_matrix()) {
        // Narrow (f16) accumulation may differ from wide, but only within
        // the rounding error bound of the row sums involved.
        let b = rhs(a.ncols(), 4);
        let mk = |accum| SmatConfig { accum, ..SmatConfig::default() };
        let wide = Smat::prepare(&a, mk(AccumMode::Wide)).spmm(&b).c;
        let narrow = Smat::prepare(&a, mk(AccumMode::Narrow)).spmm(&b).c;
        // Max possible |row sum| here: nnz_row * 4 * 3; f16 relative error
        // per rounding step ~2^-11, with at most nblocks_row steps.
        let bound = a.nrows().max(1) as f64 * 16.0; // generous analytic bound
        prop_assert!(wide.max_abs_diff(&narrow) <= bound);
    }

    #[test]
    fn permutation_inverse_roundtrip(seed in 0u64..10_000, n in 1usize..100) {
        let mut idx: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_add(7);
        for i in (1..n).rev() {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let j = (state >> 32) as usize % (i + 1);
            idx.swap(i, j);
        }
        let p = Permutation::from_vec(idx);
        let data: Vec<usize> = (100..100 + n).collect();
        let restored = p.inverse().apply(&p.apply(&data));
        prop_assert_eq!(restored, data);
        prop_assert!(p.then(&p.inverse()).is_identity());
    }

    #[test]
    fn f16_f32_conversion_roundtrips_representable(bits in 0u16..=0xffff) {
        let h = F16::from_bits(bits);
        if !h.is_nan() {
            // f16 -> f32 -> f16 must be the identity on non-NaN values.
            prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
        } else {
            prop_assert!(F16::from_f32(h.to_f32()).is_nan());
        }
    }

    #[test]
    fn f16_conversion_is_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mtx_roundtrip_preserves_matrix(a in sparse_matrix()) {
        let mut buf = Vec::new();
        smat_formats::mtx::write_csr(&a, &mut buf).unwrap();
        let back: Csr<F16> =
            smat_formats::mtx::read_csr_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn column_permutation_roundtrips(a in sparse_matrix(), seed in 0u64..500) {
        let m = a.ncols();
        let mut idx: Vec<usize> = (0..m).collect();
        let mut state = seed.wrapping_add(3);
        for i in (1..m).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            idx.swap(i, j);
        }
        let p = Permutation::from_vec(idx);
        prop_assert_eq!(a.permute_cols(&p).permute_cols(&p.inverse()), a);
    }

    #[test]
    fn srbcrs_padding_accounting_is_consistent(
        a in sparse_matrix(), v in 1usize..10, s in 1usize..6
    ) {
        let sr = SrBcrs::from_csr(&a.cast::<i16>(), v, s);
        prop_assert_eq!(sr.padding() + sr.nnz(), sr.nvectors() * sr.vec_len());
        // Every panel's vector count is stride-aligned.
        for p in 0..sr.npanels() {
            prop_assert_eq!(sr.vectors_in_panel(p) % s, 0);
        }
        // Real vectors never exceed total vectors.
        prop_assert!(sr.nvectors_real() <= sr.nvectors());
    }

    #[test]
    fn f16_addition_is_commutative_and_negation_exact(
        a in -1000i32..1000, b in -1000i32..1000
    ) {
        let x = F16::from_f64(a as f64 / 8.0);
        let y = F16::from_f64(b as f64 / 8.0);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(-(-x), x);
        prop_assert_eq!((x - x).to_f32(), 0.0);
    }

    #[test]
    fn smat_axpby_linearity(a in sparse_matrix(), alpha in -4i32..=4, beta in -4i32..=4) {
        // alpha.(A.B) + beta.C computed by the fused epilogue equals the
        // hand-combined value (both with one final rounding).
        let b = rhs(a.ncols(), 4);
        let c0 = Dense::from_fn(a.nrows(), 4, |i, j| {
            F16::from_f64(((i + j) % 3) as f64)
        });
        let engine = Smat::prepare(&a, SmatConfig::default());
        let run = engine.spmm_axpby(&b, &c0, alpha as f64, beta as f64);
        let prod = a.spmm_reference(&b);
        let want = Dense::from_fn(a.nrows(), 4, |i, j| {
            F16::from_f64(
                alpha as f64 * prod.get(i, j).to_f64()
                    + beta as f64 * c0.get(i, j).to_f64(),
            )
        });
        prop_assert_eq!(run.c, want);
    }

    #[test]
    fn all_engines_agree_on_arbitrary_matrices(a in sparse_matrix(), n in 1usize..10) {
        use smat_baselines::{CusparseLike, DaspLike, MagicubeLike};
        let gpu = smat_gpusim::Gpu::a100();
        let b = rhs(a.ncols(), n);
        let want = a.spmm_reference(&b);
        prop_assert_eq!(&Smat::prepare(&a, SmatConfig::default()).spmm(&b).c, &want);
        prop_assert_eq!(&CusparseLike::new(&gpu, &a).spmm(&b).unwrap().1, &want);
        prop_assert_eq!(&DaspLike::new(&gpu, &a).spmm(&b).unwrap().1, &want);
        prop_assert_eq!(&MagicubeLike::new(&gpu, &a).spmm(&b).unwrap().1, &want);
    }

    #[test]
    fn bisection_is_always_a_valid_permutation(a in sparse_matrix()) {
        let r = reorder(&a, ReorderAlgorithm::Bisection, 8, 8);
        prop_assert_eq!(r.row_perm.len(), a.nrows());
        prop_assert_eq!(r.apply(&a).nnz(), a.nnz());
    }
}

/// One step of an arbitrary dynamic-matrix schedule: either a cell
/// mutation (insert/update/delete, encoded by `value`: 0 = delete) or an
/// SpMM query at some RHS width.
#[derive(Clone, Debug)]
enum DynStep {
    Mutate { row: usize, col: usize, value: i32 },
    Query { n: usize },
}

fn dyn_schedule() -> impl Strategy<Value = Vec<DynStep>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0usize..1_000_000, 0usize..1_000_000, -3i32..=3).prop_map(|(r, c, v)| {
                DynStep::Mutate { row: r, col: c, value: v }
            }),
            1 => (1usize..8).prop_map(|n| DynStep::Query { n }),
        ],
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_update_query_interleaving_matches_a_from_scratch_rebuild(
        a in sparse_matrix(),
        schedule in dyn_schedule(),
    ) {
        // The dynamic-matrix contract: after ANY interleaving of cell
        // mutations and SpMM queries, (1) every query against the overlayed
        // handle is bitwise identical to a handle prepared from scratch at
        // the same epoch, and (2) the epoch counts mutations exactly. The
        // mutation coordinates are drawn from the full usize range and
        // folded into bounds here, so occupied cells, holes, and repeat
        // hits of the same cell all occur.
        let smat = Smat::prepare(&a, SmatConfig::default());
        let mut cells: std::collections::BTreeMap<(usize, usize), f64> =
            std::collections::BTreeMap::new();
        let mut applied = 0u64;
        for step in &schedule {
            match *step {
                DynStep::Mutate { row, col, value } => {
                    let (row, col) = (row % a.nrows(), col % a.ncols());
                    let op: MatrixUpdate<F16> = if value == 0 {
                        MatrixUpdate::Delete { row, col }
                    } else {
                        MatrixUpdate::Update {
                            row,
                            col,
                            value: F16::from_f64(value as f64),
                        }
                    };
                    applied += 1;
                    prop_assert_eq!(
                        smat.apply_updates(std::slice::from_ref(&op)),
                        applied,
                        "epoch must count mutations"
                    );
                    cells.insert((row, col), value as f64);
                }
                DynStep::Query { n } => {
                    let b = rhs(a.ncols(), n);
                    let overrides: Vec<(usize, usize, f64)> =
                        cells.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
                    let merged = Coo::with_overrides(&a, &overrides).to_csr();
                    let rebuilt = Smat::prepare(&merged, SmatConfig::default());
                    prop_assert_eq!(
                        smat.spmm(&b).c,
                        rebuilt.spmm(&b).c,
                        "overlayed product diverged from the epoch-{} rebuild",
                        applied
                    );
                    prop_assert_eq!(smat.spmm(&b).c, merged.spmm_reference(&b));
                }
            }
        }
        prop_assert_eq!(smat.overlay_epoch(), applied);
        // Terminal check even if the schedule ended on a mutation: the
        // compaction operand equals the override merge.
        let overrides: Vec<(usize, usize, f64)> =
            cells.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
        prop_assert_eq!(
            smat.merged_csr().to_dense(),
            Coo::with_overrides(&a, &overrides).to_csr().to_dense()
        );
    }
}

/// One calibration shared by every planner property case: fitting is
/// deterministic, so this keeps the cases fast without making them depend
/// on each other.
fn shared_calibration() -> smat::Calibration {
    use std::sync::OnceLock;
    static CAL: OnceLock<smat::Calibration> = OnceLock::new();
    *CAL.get_or_init(|| {
        smat::Calibration::fit_on(
            &smat_workloads::calibration_bands::<F16>(96),
            8,
            &SmatConfig::default(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planner_decisions_stay_in_space_and_conform(
        a in sparse_matrix(), n in 1usize..12
    ) {
        // The calibrated planner, on an arbitrary matrix: its decision must
        // come from the declared space, carry a usable prediction, count
        // blocks exactly as the prepare it induces, and the pipeline it
        // picks must stay bitwise-exact.
        let base = SmatConfig::default();
        let planner = Planner::with_calibration(PlanSpace::default(), shared_calibration());
        let d = planner.decide(&a, n);
        prop_assert!(
            planner.space().block_shapes.contains(&(d.block_h, d.block_w))
        );
        prop_assert!(planner.space().reorderings.contains(&d.reorder));
        prop_assert!(
            d.predicted_ms.is_finite() && d.predicted_ms > 0.0,
            "prediction must be finite and positive: {}", d.predicted_ms
        );
        prop_assert!(
            planner.predict(d.n_e, n) == d.predicted_ms,
            "recorded prediction must reproduce from (n_e, width)"
        );

        // Deciding again is bitwise the same decision: admission planning
        // may not introduce nondeterminism into the serving path.
        let d2 = planner.decide(&a, n);
        prop_assert_eq!((d.block_h, d.block_w), (d2.block_h, d2.block_w));
        prop_assert_eq!(d.reorder, d2.reorder);
        prop_assert_eq!(d.n_e, d2.n_e);
        prop_assert_eq!(d.predicted_ms.to_bits(), d2.predicted_ms.to_bits());

        let engine = Smat::prepare_with_plan(&a, d.apply(&base), d);
        prop_assert_eq!(
            engine.bcsr().nblocks(), d.n_e,
            "the decision's n_e must equal the blocks the prepare builds"
        );
        let b = rhs(a.ncols(), n);
        prop_assert_eq!(engine.spmm(&b).c, a.spmm_reference(&b));
    }

    #[test]
    fn planner_observations_never_corrupt_the_calibration(
        a in sparse_matrix(),
        times in proptest::collection::vec(0.001f64..10.0, 1..12),
        same_x in proptest::bool::ANY,
    ) {
        // Feeding any stream of observed launch times — including bursts
        // with zero x-spread, which must be rejected by the identifiability
        // guard rather than fitted — leaves the planner with a finite,
        // positive prediction for every matrix.
        let planner = Planner::with_calibration(PlanSpace::default(), shared_calibration());
        let d = planner.decide(&a, 8);
        for (i, t) in times.iter().enumerate() {
            let n_e = if same_x { d.n_e.max(1) } else { d.n_e.max(1) + i * 7 };
            planner.observe(n_e, 8, *t);
        }
        prop_assert_eq!(planner.observations(), times.len() as u64);
        let after = planner.decide(&a, 8);
        prop_assert!(
            after.predicted_ms.is_finite(),
            "prediction after refits: {}", after.predicted_ms
        );
        let cal = planner.calibration();
        prop_assert!(cal.tc.t_e_ms.is_finite() && cal.scalar.t_e_ms.is_finite());
        prop_assert!(cal.tc.t_init_ms.is_finite() && cal.scalar.t_init_ms.is_finite());
    }
}
