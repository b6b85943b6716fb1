//! Differential conformance suite: every sparse format × every reordering
//! algorithm × a grid of block shapes, checked against a naive dense f64
//! oracle.
//!
//! Comparison discipline:
//!
//! * The workload generators emit small-integer values, which are exact in
//!   every element type and in both accumulator widths, so the default
//!   (wide-accumulation) comparisons are **bitwise** — any deviation is a
//!   conformance bug, not float noise.
//! * The one place bitwise equality is *not* guaranteed is
//!   `AccumMode::Narrow`, which rounds the running sum to the storage type
//!   after every k-block. That case is checked against the oracle with a
//!   documented ULP bound instead (see
//!   `narrow_accumulation_is_ulp_bounded_against_the_oracle`).

use std::collections::BTreeMap;

use smat::{Calibration, MatrixFormat, MatrixUpdate, PlanSpace, Planner};
use smat_formats::{Bcsr, Coo, Csr, Dense, Element, PackedBcsr, SrBcrs, F16};
use smat_reorder::ReorderAlgorithm;
use smat_repro::prelude::*;
use smat_repro::serve::{CompactionPolicy, Server, ServerConfig};
use smat_repro::workloads;
use smat_shard::estimated_csr_bytes;

/// Naive dense oracle: expand `A` to dense and run the textbook triple loop
/// with f64 accumulation over the *full* inner dimension (zeros included),
/// rounding once at the end. Exact for small-integer inputs, so it agrees
/// bitwise with `Csr::spmm_reference` (which skips zeros but also
/// accumulates in f64, ascending k).
fn dense_oracle<T: Element>(a: &Csr<T>, b: &Dense<T>) -> Dense<T> {
    let ad = a.to_dense();
    Dense::from_fn(a.nrows(), b.ncols(), |i, j| {
        let mut acc = 0.0f64;
        for k in 0..a.ncols() {
            acc += ad.get(i, k).to_f64() * b.get(k, j).to_f64();
        }
        T::from_f64(acc)
    })
}

/// A test matrix with uneven row lengths, empty rows, and an empty trailing
/// column block — the shapes that break format conversions in practice.
fn awkward_matrix() -> Csr<F16> {
    let mut coo = Coo::new(96, 80);
    for r in 0..96 {
        if r % 7 == 3 {
            continue; // empty rows
        }
        for j in 0..(1 + r % 5) {
            let c = (r * 3 + j * 13) % 72; // columns 72..80 stay empty
            coo.push(r, c, F16::from_f64(((r + 2 * j) % 7) as f64 - 3.0));
        }
    }
    coo.to_csr()
}

fn rhs(k: usize, n: usize) -> Dense<F16> {
    Dense::from_fn(k, n, |i, j| {
        F16::from_f64(workloads::values::rhs_value(i, j))
    })
}

/// Round-trips `a` through each non-CSR format and returns the CSR that
/// comes back, labelled. Every pipeline and reference comparison below runs
/// on these, so a lossy conversion shows up as an oracle mismatch.
fn format_roundtrips(a: &Csr<F16>) -> Vec<(&'static str, Csr<F16>)> {
    vec![
        ("csr", a.clone()),
        ("coo", {
            let mut coo = Coo::new(a.nrows(), a.ncols());
            for (r, c, v) in a.iter() {
                coo.push(r, c, v);
            }
            coo.to_csr()
        }),
        ("bcsr", Bcsr::from_csr(a, 16, 16).to_csr()),
        ("packed-bcsr", PackedBcsr::from_csr(a, 16, 16).to_csr()),
        ("sr-bcrs", SrBcrs::from_csr(a, 8, 4).to_csr()),
    ]
}

/// Every reordering algorithm the crate exposes.
fn all_reorderings() -> Vec<ReorderAlgorithm> {
    vec![
        ReorderAlgorithm::Identity,
        ReorderAlgorithm::JaccardRows { tau: 0.7 },
        ReorderAlgorithm::JaccardRowsCols { tau: 0.7 },
        ReorderAlgorithm::JaccardLsh {
            tau: 0.7,
            bands: 8,
            rows_per_band: 1,
        },
        ReorderAlgorithm::ReverseCuthillMcKee,
        ReorderAlgorithm::Saad { tau: 0.5 },
        ReorderAlgorithm::GrayCode,
        ReorderAlgorithm::Bisection,
        ReorderAlgorithm::DegreeSort,
    ]
}

/// Block shapes that map to supported MMA fragment shapes (`m = h = 16`,
/// `k = w`).
const BLOCK_SHAPES: [(usize, usize); 3] = [(16, 16), (16, 8), (16, 32)];

#[test]
fn every_format_spmm_reference_matches_the_dense_oracle() {
    for a in [
        awkward_matrix(),
        workloads::random_uniform(128, 96, 0.9, 21),
    ] {
        let b = rhs(a.ncols(), 9);
        let want = dense_oracle(&a, &b);
        assert_eq!(a.spmm_reference(&b), want, "csr");
        let mut coo = Coo::new(a.nrows(), a.ncols());
        for (r, c, v) in a.iter() {
            coo.push(r, c, v);
        }
        assert_eq!(coo.spmm_reference(&b), want, "coo");
        for (h, w) in BLOCK_SHAPES {
            assert_eq!(
                Bcsr::from_csr(&a, h, w).spmm_reference(&b),
                want,
                "bcsr {h}x{w}"
            );
            assert_eq!(
                PackedBcsr::from_csr(&a, h, w).spmm_reference(&b),
                want,
                "packed-bcsr {h}x{w}"
            );
        }
        for (vl, s) in [(8, 4), (16, 2), (4, 8)] {
            assert_eq!(
                SrBcrs::from_csr(&a, vl, s).spmm_reference(&b),
                want,
                "sr-bcrs v{vl} s{s}"
            );
        }
    }
}

#[test]
fn pipeline_conforms_for_every_format_reordering_and_block_shape() {
    let base = awkward_matrix();
    let b = rhs(base.ncols(), 9);
    for (fmt, a) in format_roundtrips(&base) {
        let want = dense_oracle(&a, &b);
        for alg in all_reorderings() {
            for (h, w) in BLOCK_SHAPES {
                let cfg = SmatConfig {
                    block_h: h,
                    block_w: w,
                    reorder: alg,
                    ..SmatConfig::default()
                };
                let run = Smat::prepare(&a, cfg).spmm(&b);
                assert_eq!(
                    run.c,
                    want,
                    "format {fmt}, reorder {}, block {h}x{w}",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn packed_bcsr_pipeline_conforms_and_matches_plain_bitwise() {
    // The bit-packed index is a metadata re-encoding, not a new numeric
    // path: for every reordering and block shape, the packed-format
    // pipeline (and its panel-staged variant) must agree with the dense
    // oracle AND be bitwise identical to the plain-BCSR run, while
    // actually streaming fewer index bytes.
    let base = awkward_matrix();
    let b = rhs(base.ncols(), 9);
    let want = dense_oracle(&base, &b);
    for alg in all_reorderings() {
        for (h, w) in BLOCK_SHAPES {
            let plain_cfg = SmatConfig {
                block_h: h,
                block_w: w,
                reorder: alg,
                ..SmatConfig::default()
            };
            let packed_cfg = SmatConfig {
                format: MatrixFormat::PackedBcsr,
                ..plain_cfg.clone()
            };
            let panel_cfg = SmatConfig {
                panel_depth: 4,
                ..packed_cfg.clone()
            };
            let plain = Smat::prepare(&base, plain_cfg);
            let packed = Smat::prepare(&base, packed_cfg);
            let panel = Smat::prepare(&base, panel_cfg);
            let plain_c = plain.spmm(&b).c;
            let packed_c = packed.spmm(&b).c;
            let panel_c = panel.spmm(&b).c;
            let ctx = format!("reorder {}, block {h}x{w}", alg.name());
            assert_eq!(packed_c, want, "packed vs oracle: {ctx}");
            assert_eq!(packed_c, plain_c, "packed vs plain: {ctx}");
            assert_eq!(panel_c, plain_c, "packed+panel vs plain: {ctx}");
            assert!(
                packed.operand_index_bytes() < plain.operand_index_bytes(),
                "{ctx}: packed index {} must undercut plain {}",
                packed.operand_index_bytes(),
                plain.operand_index_bytes()
            );
        }
    }
}

#[test]
fn planner_chosen_configs_conform_bitwise() {
    // The admission planner only picks *which* configuration runs; the run
    // itself must stay in the bitwise-exact regime. Exercise the planner
    // on its offline calibration and after online refits (which move the
    // Tensor Core line, so decisions can differ) on matrices with awkward
    // structure, and make sure the chosen pipeline agrees with the dense
    // oracle exactly.
    let base = SmatConfig::default();
    let cal = Calibration::fit_on(&workloads::calibration_bands::<F16>(96), 8, &base);
    let calibrated = Planner::with_calibration(PlanSpace::default(), cal);
    let refitted = Planner::with_calibration(PlanSpace::default(), cal);
    // Observations that fall with the block count refit a falling line:
    // the refitted planner then ranks candidates by the most blocks, so it
    // picks another block shape or reordering than the offline planner
    // (which ranks by the fewest), and both choices are checked.
    for i in 0..16usize {
        let n_e = 20 + 15 * i;
        let x = n_e as f64;
        refitted.observe(n_e, 8, cal.tc.predict(400.0 - x));
    }
    assert_eq!(refitted.observations(), 16);
    assert!(refitted.refits() >= 2, "refits: {}", refitted.refits());
    assert!(refitted.calibration().tc.t_e_ms < 0.0);
    for (label, a) in [
        ("awkward", awkward_matrix()),
        ("uniform", workloads::random_uniform(128, 96, 0.9, 21)),
        ("rmat", workloads::rmat::<F16>(7, 600, 77)),
    ] {
        let b = rhs(a.ncols(), 9);
        let want = dense_oracle(&a, &b);
        let offline = calibrated.decide(&a, b.ncols());
        let refit = refitted.decide(&a, b.ncols());
        assert_ne!(
            (offline.block_h, offline.block_w, offline.reorder),
            (refit.block_h, refit.block_w, refit.reorder),
            "{label}: the refit must move the decision"
        );
        for (mode, d) in [("calibrated", offline), ("refitted", refit)] {
            let run = Smat::prepare(&a, d.apply(&base)).spmm(&b);
            assert_eq!(
                run.c,
                want,
                "{label} under the {mode} planner's choice ({}x{}, {})",
                d.block_h,
                d.block_w,
                d.reorder.name()
            );
        }
    }
}

#[test]
fn integer_elements_conform_exactly() {
    // The integer path (i16 storage, i32 accumulation) is exact end to end;
    // SR-BCRS is Magicube's native integer substrate, so exercise it there
    // and through the reference kernels.
    let a16: Csr<i16> = awkward_matrix().cast();
    let b = Dense::from_fn(a16.ncols(), 9, |i, j| ((i + 2 * j) % 5) as i16 - 2);
    let want = dense_oracle(&a16, &b);
    assert_eq!(a16.spmm_reference(&b), want, "csr i16");
    assert_eq!(
        SrBcrs::from_csr(&a16, 8, 4).spmm_reference(&b),
        want,
        "sr-bcrs i16"
    );
    assert_eq!(
        Bcsr::from_csr(&a16, 16, 16).spmm_reference(&b),
        want,
        "bcsr i16"
    );
}

/// Maps an F16 bit pattern to a monotone integer so ULP distance is a
/// subtraction (standard sign-magnitude → biased-ordinal trick).
fn f16_ordinal(x: F16) -> i32 {
    let bits = i32::from(x.0);
    if bits & 0x8000 != 0 {
        0x8000 - (bits & 0x7fff)
    } else {
        0x8000 + bits
    }
}

fn ulp_distance(a: F16, b: F16) -> u32 {
    (f16_ordinal(a) - f16_ordinal(b)).unsigned_abs()
}

#[test]
fn narrow_accumulation_is_ulp_bounded_against_the_oracle() {
    // Narrow accumulation rounds the running sum to f16 after every
    // k-block (the paper's Listing 1 variant), so bitwise equality with the
    // f64 oracle is NOT guaranteed. Bound: the inputs are non-negative (no
    // cancellation → the running magnitude is monotone), so each of the
    // ⌈K/w⌉ per-block roundings contributes at most 1 ULP at the *final*
    // magnitude, plus 1 for the oracle's own final rounding:
    //
    //     ulp(narrow, oracle) ≤ ⌈K/w⌉ + 1.
    //
    // The B values use denominator 3 so essentially every product and
    // partial sum actually rounds — the bound is exercised, not vacuous.
    let a: Csr<F16> = {
        let mut coo = Coo::new(96, 96);
        for r in 0..96 {
            for j in 0..6 {
                coo.push(
                    r,
                    (r * 5 + j * 17) % 96,
                    F16::from_f64(((r + j) % 4 + 1) as f64 / 3.0),
                );
            }
        }
        coo.to_csr()
    };
    let b = Dense::from_fn(96, 8, |i, j| {
        F16::from_f64(((i + 3 * j) % 5 + 1) as f64 / 3.0)
    });
    let want = dense_oracle(&a, &b);
    for (h, w) in BLOCK_SHAPES {
        let cfg = SmatConfig {
            block_h: h,
            block_w: w,
            accum: smat::AccumMode::Narrow,
            ..SmatConfig::default()
        };
        let got = Smat::prepare(&a, cfg).spmm(&b).c;
        let bound = (a.ncols().div_ceil(w) + 1) as u32;
        let mut worst = 0;
        for i in 0..want.nrows() {
            for j in 0..want.ncols() {
                let d = ulp_distance(got.get(i, j), want.get(i, j));
                worst = worst.max(d);
                assert!(
                    d <= bound,
                    "block {h}x{w}: C[{i},{j}] off by {d} ULP (bound {bound}): \
                     narrow {} vs oracle {}",
                    got.get(i, j).to_f64(),
                    want.get(i, j).to_f64()
                );
            }
        }
        // The wide default on the same inputs stays bitwise-equal to the
        // oracle even with rounding-hostile values: f16×f16 products are
        // exact in f32 and these magnitudes never exceed f32's integer-exact
        // accumulation range.
        assert!(worst <= bound, "block {h}x{w}: worst {worst} > {bound}");
    }
}

#[test]
fn sharded_execution_conforms_for_every_reordering_and_shard_count() {
    // Row partitioning composes with any per-shard pipeline: each shard
    // reorders and packs independently, and the server's row-concatenated
    // join over a 3-device pool must still agree bitwise with the dense
    // oracle. The awkward matrix puts empty rows and ragged row lengths on
    // both sides of shard boundaries.
    let a = awkward_matrix();
    let b = rhs(a.ncols(), 9);
    let want = dense_oracle(&a, &b);
    for target in [2usize, 3, 5] {
        let server: Server<F16> = Server::new(ServerConfig {
            devices: 3,
            registry_capacity: all_reorderings().len(),
            shard_max_bytes: Some(estimated_csr_bytes(&a).div_ceil(target)),
            ..ServerConfig::default()
        });
        for alg in all_reorderings() {
            let cfg = SmatConfig {
                reorder: alg,
                ..SmatConfig::default()
            };
            let key = server.register_with_config(&a, cfg);
            let plan = server.shard_plan(&key).expect("registered as sharded");
            assert_eq!(plan.nshards(), target, "reorder {}", alg.name());
            let got = server.submit(key, b.clone()).wait().expect("served");
            assert_eq!(got.c, want, "reorder {}, {target} shards", alg.name());
        }
        let stats = server.stats();
        assert_eq!(stats.fanout_requests, all_reorderings().len() as u64);
        assert_eq!(stats.registry.evictions, 0);
    }
}

/// The scripted mutation sequence for the dynamic-matrix arm: updates of
/// occupied cells, inserts into unoccupied cells (including an empty row
/// and the empty trailing column block of [`awkward_matrix`]), deletes of
/// both kinds, a delete of an absent cell, and a re-insert after delete.
fn mutation_script() -> Vec<MatrixUpdate<F16>> {
    let v = F16::from_f64;
    vec![
        // (0,0) is occupied in the awkward matrix; overwrite it.
        MatrixUpdate::Update {
            row: 0,
            col: 0,
            value: v(2.0),
        },
        // Columns 72..80 are structurally empty; insert there.
        MatrixUpdate::Insert {
            row: 5,
            col: 75,
            value: v(-2.0),
        },
        // Row 3 is an empty row (3 % 7 == 3); populate it.
        MatrixUpdate::Insert {
            row: 3,
            col: 40,
            value: v(1.0),
        },
        // Delete an occupied base cell.
        MatrixUpdate::Delete { row: 1, col: 3 },
        // Rewrite the cell inserted two steps ago.
        MatrixUpdate::Update {
            row: 5,
            col: 75,
            value: v(3.0),
        },
        // Delete a cell that was never present (absolute no-op state).
        MatrixUpdate::Delete { row: 50, col: 74 },
        // Delete the overlay-inserted cell again.
        MatrixUpdate::Delete { row: 3, col: 40 },
        // Re-insert over the deleted base cell.
        MatrixUpdate::Insert {
            row: 1,
            col: 3,
            value: v(-1.0),
        },
    ]
}

#[test]
fn mutated_sharded_tenants_conform_at_every_epoch_and_after_compaction() {
    // The mutation script through `Server::mutate` on a 3-shard tenant,
    // plus cells on both sides of every shard boundary: each update routes
    // to the shard owning its row, and after every step the fanned-out
    // response must equal the dense oracle on the override merge. Then one
    // batch spanning every shard, and an explicit compaction that folds
    // each shard's overlay into a fresh base — still bitwise.
    let a = awkward_matrix();
    let b = rhs(a.ncols(), 9);
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 3,
        shard_max_bytes: Some(estimated_csr_bytes(&a).div_ceil(3)),
        compaction: CompactionPolicy {
            auto: false,
            ..CompactionPolicy::default()
        },
        ..ServerConfig::default()
    });
    let key = server.register(&a);
    let plan = server.shard_plan(&key).expect("registered as sharded");
    assert_eq!(plan.nshards(), 3);
    let v = F16::from_f64;
    let mut script = mutation_script();
    let mut spanning = Vec::new();
    for d in &plan.shards[1..] {
        let (above, below) = (d.row_start - 1, d.row_start);
        script.push(MatrixUpdate::Insert {
            row: above,
            col: 76,
            value: v(2.0),
        });
        script.push(MatrixUpdate::Update {
            row: below,
            col: 76,
            value: v(-1.0),
        });
        script.push(MatrixUpdate::Delete {
            row: below,
            col: below * 3 % 72,
        });
        spanning.push(MatrixUpdate::Update {
            row: above,
            col: above * 3 % 72,
            value: v(3.0),
        });
        spanning.push(MatrixUpdate::Delete {
            row: above,
            col: 76,
        });
    }
    spanning.push(MatrixUpdate::Insert {
        row: 0,
        col: 79,
        value: v(-2.0),
    });

    let mut cells: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let check = |cells: &BTreeMap<(usize, usize), f64>, what: &str| {
        let overrides: Vec<(usize, usize, f64)> =
            cells.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
        let want = dense_oracle(&Coo::with_overrides(&a, &overrides).to_csr(), &b);
        let got = server.submit(key, b.clone()).wait().expect("served");
        assert_eq!(got.c, want, "{what}");
    };
    for (step, op) in script.iter().enumerate() {
        let epoch = server.mutate(key, std::slice::from_ref(op)).unwrap();
        assert_eq!(epoch, (step + 1) as u64, "one epoch per update");
        cells.insert(op.cell(), op.value_f64());
        check(&cells, &format!("step {step} ({op:?})"));
    }
    let epoch = server.mutate(key, &spanning).unwrap();
    assert_eq!(epoch, (script.len() + spanning.len()) as u64);
    for op in &spanning {
        cells.insert(op.cell(), op.value_f64());
    }
    check(&cells, "batch spanning every shard");

    assert!(server.compact(key), "every shard carries corrections");
    server.quiesce_compactions();
    assert_eq!(server.stats().compactions, 3, "one fold per shard");
    let tenant = server.registry().peek_tenant(&key).expect("resident");
    for shard in tenant.shards() {
        assert_eq!(shard.overlay_snapshot().correction_terms(), 0);
    }
    check(&cells, "after compaction");
    assert_eq!(
        server.mutate(key, &[]).unwrap(),
        epoch,
        "the fold keeps epochs"
    );
}

#[test]
fn mutated_pipelines_conform_for_every_format_and_reordering() {
    // Dynamic-matrix arm: replay the mutation script one step at a time and
    // after EVERY step compare the overlayed pipeline against a dense
    // oracle rebuilt from scratch (base ⊕ overrides-so-far). Any divergence
    // between the incremental delta path and a clean re-preparation is a
    // conformance bug. Runs over every format round-trip and every
    // reordering, because the overlay corrections are applied in the
    // original coordinate space *after* the permuted-space kernel.
    let base = awkward_matrix();
    let b = rhs(base.ncols(), 9);
    for (fmt, a) in format_roundtrips(&base) {
        for alg in all_reorderings() {
            let cfg = SmatConfig {
                reorder: alg,
                ..SmatConfig::default()
            };
            let smat = Smat::prepare(&a, cfg);
            let mut cells: BTreeMap<(usize, usize), f64> = BTreeMap::new();
            for (step, op) in mutation_script().iter().enumerate() {
                let epoch = smat.apply_updates(std::slice::from_ref(op));
                assert_eq!(
                    epoch,
                    (step + 1) as u64,
                    "each mutation bumps the epoch exactly once"
                );
                let (row, col) = op.cell();
                cells.insert((row, col), op.value_f64());
                let overrides: Vec<(usize, usize, f64)> =
                    cells.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
                let merged = Coo::with_overrides(&a, &overrides).to_csr();
                let want = dense_oracle(&merged, &b);
                assert_eq!(
                    smat.spmm(&b).c,
                    want,
                    "format {fmt}, reorder {}, step {step} ({op:?})",
                    alg.name()
                );
                assert_eq!(
                    smat.merged_csr().to_dense(),
                    merged.to_dense(),
                    "format {fmt}, reorder {}, step {step}: compaction \
                     operand diverged from the override merge",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn mutated_spmm_matches_a_from_scratch_rebuild_at_every_epoch() {
    // The compaction contract: at any epoch, re-preparing `merged_csr()`
    // from scratch (even under a different reordering) yields a pipeline
    // whose product is bitwise identical to the overlayed one. This is the
    // exact swap `smat-serve` performs in the background.
    let a = awkward_matrix();
    let b = rhs(a.ncols(), 9);
    let smat = Smat::prepare(&a, SmatConfig::default());
    for op in mutation_script() {
        smat.apply_updates(std::slice::from_ref(&op));
        let overlayed = smat.spmm(&b).c;
        let rebuilt = Smat::prepare(&smat.merged_csr(), SmatConfig::default()).spmm(&b);
        assert_eq!(overlayed, rebuilt.c, "rebuild at epoch {op:?}");
        let reordered_cfg = SmatConfig {
            reorder: ReorderAlgorithm::ReverseCuthillMcKee,
            ..SmatConfig::default()
        };
        let rebuilt_rcm = Smat::prepare(&smat.merged_csr(), reordered_cfg).spmm(&b);
        assert_eq!(overlayed, rebuilt_rcm.c, "RCM rebuild at {op:?}");
    }
}

#[test]
fn empty_and_degenerate_matrices_conform() {
    let empty: Csr<F16> = Coo::new(32, 32).to_csr();
    let b = rhs(32, 4);
    let want = dense_oracle(&empty, &b);
    assert_eq!(empty.spmm_reference(&b), want);
    assert_eq!(Bcsr::from_csr(&empty, 16, 16).spmm_reference(&b), want);
    assert_eq!(SrBcrs::from_csr(&empty, 8, 4).spmm_reference(&b), want);
    let run = Smat::prepare(&empty, SmatConfig::default()).spmm(&b);
    assert_eq!(run.c, want);

    // Single-entry matrix: the permutation plumbing has nothing to hide
    // behind.
    let mut one = Coo::new(40, 40);
    one.push(17, 23, F16::from_f64(2.0));
    let one = one.to_csr();
    let b = rhs(40, 4);
    let want = dense_oracle(&one, &b);
    for alg in all_reorderings() {
        let cfg = SmatConfig {
            reorder: alg,
            ..SmatConfig::default()
        };
        assert_eq!(
            Smat::prepare(&one, cfg).spmm(&b).c,
            want,
            "reorder {}",
            alg.name()
        );
    }
}
