//! Integration tests of the simulated-device behaviour: determinism,
//! resource errors, and the performance *shapes* the paper reports (who
//! wins where) — the claims EXPERIMENTS.md quantifies.

use smat_formats::Csr;
use smat_gpusim::{Gpu, SimError};
use smat_reorder::ReorderAlgorithm;
use smat_repro::baselines::{CublasLike, CusparseLike, DaspLike, MagicubeLike};
use smat_repro::prelude::*;
use smat_repro::smat::{Calibration, MatrixFormat, PlanSpace, Planner};
use smat_repro::workloads;

#[test]
fn simulation_is_deterministic() {
    let a = workloads::random_uniform::<F16>(150, 150, 0.92, 1);
    let b = workloads::dense_b::<F16>(150, 8);
    let run1 = Smat::prepare(&a, SmatConfig::default()).spmm(&b);
    let run2 = Smat::prepare(&a, SmatConfig::default()).spmm(&b);
    assert_eq!(run1.c, run2.c);
    assert_eq!(run1.report.elapsed_ms(), run2.report.elapsed_ms());
    assert_eq!(run1.report.launch.totals, run2.report.launch.totals);
}

#[test]
fn smat_beats_cusparse_on_blockable_mesh() {
    // The paper's core claim at N=8 on mesh-structured matrices.
    let gpu = Gpu::a100();
    let a: Csr<F16> = workloads::by_name("cop20k_A").unwrap().generate(0.01);
    let b = workloads::dense_b::<F16>(a.ncols(), 8);
    let smat = Smat::prepare(&a, SmatConfig::default()).spmm(&b);
    let (cusp, _) = CusparseLike::new(&gpu, &a).spmm(&b).unwrap();
    assert!(
        smat.report.elapsed_ms() * 2.0 < cusp.time_ms,
        "SMaT {} ms should clearly beat cuSPARSE {} ms",
        smat.report.elapsed_ms(),
        cusp.time_ms
    );
}

#[test]
fn dasp_wins_only_at_n_equals_1() {
    // Fig. 10: DASP is the fastest SpMV (N=1) but loses by N=8.
    let gpu = Gpu::a100();
    let a: Csr<F16> = workloads::by_name("cop20k_A").unwrap().generate(0.01);
    let engine = Smat::prepare(&a, SmatConfig::default());

    let b1 = workloads::dense_b::<F16>(a.ncols(), 1);
    let dasp1 = DaspLike::new(&gpu, &a).spmm(&b1).unwrap().0.time_ms;
    let smat1 = engine.spmm(&b1).report.elapsed_ms();
    assert!(dasp1 < smat1, "DASP should win SpMV: {dasp1} vs {smat1}");

    let b8 = workloads::dense_b::<F16>(a.ncols(), 8);
    let dasp8 = DaspLike::new(&gpu, &a).spmm(&b8).unwrap().0.time_ms;
    let smat8 = engine.spmm(&b8).report.elapsed_ms();
    assert!(smat8 < dasp8, "SMaT should win at N=8: {smat8} vs {dasp8}");
}

#[test]
fn reordering_speeds_up_scrambled_matrices() {
    // Fig. 4: on a scrambled FEM mesh, Jaccard clustering pays off.
    let a: Csr<F16> = workloads::by_name("shipsec1").unwrap().generate(0.01);
    let b = workloads::dense_b::<F16>(a.ncols(), 8);
    let with = Smat::prepare(&a, SmatConfig::default()).spmm(&b);
    let without = Smat::prepare(&a, SmatConfig::default().without_reordering()).spmm(&b);
    assert!(with.report.block_reduction() > 1.2);
    assert!(
        with.report.elapsed_ms() < without.report.elapsed_ms(),
        "reordered {} ms vs original {} ms",
        with.report.elapsed_ms(),
        without.report.elapsed_ms()
    );
}

#[test]
fn dc2_power_law_is_smats_worst_case() {
    // §VI-B: dc2 underutilizes tensor cores (blocks nearly empty) and the
    // static schedule is imbalanced; DASP handles it better.
    let gpu = Gpu::a100();
    let a: Csr<F16> = workloads::by_name("dc2").unwrap().generate(0.02);
    let b = workloads::dense_b::<F16>(a.ncols(), 8);
    let smat = Smat::prepare(&a, SmatConfig::default()).spmm(&b);
    // Tensor core utilization (useful flop / TC flop) is very poor.
    let tc_flop = smat.report.launch.totals.tc_flop(4096);
    let useful = smat.report.launch.totals.flop_useful;
    assert!(
        (useful as f64) < 0.25 * tc_flop as f64,
        "dc2 blocks should be nearly empty: {useful} useful of {tc_flop}"
    );
    // And the gap to DASP shrinks dramatically compared to mesh matrices.
    let (dasp, _) = DaspLike::new(&gpu, &a).spmm(&b).unwrap();
    let gap_dc2 = dasp.time_ms / smat.report.elapsed_ms();

    let mesh: Csr<F16> = workloads::by_name("consph").unwrap().generate(0.01);
    let bm = workloads::dense_b::<F16>(mesh.ncols(), 8);
    let smat_m = Smat::prepare(&mesh, SmatConfig::default()).spmm(&bm);
    let (dasp_m, _) = DaspLike::new(&gpu, &mesh).spmm(&bm).unwrap();
    let gap_mesh = dasp_m.time_ms / smat_m.report.elapsed_ms();
    assert!(
        gap_dc2 < gap_mesh,
        "SMaT's advantage must shrink on dc2: {gap_dc2:.2} vs {gap_mesh:.2}"
    );
}

#[test]
fn magicube_oom_reproduces_on_reduced_memory_device() {
    // §VI-B: Magicube's representation runs out of memory where SMaT fits.
    let a: Csr<F16> = workloads::by_name("mip1").unwrap().generate(0.01);
    let b = workloads::dense_b::<F16>(a.ncols(), 8);
    let mut cfg = DeviceConfig::a100_sxm4_40gb();
    cfg.global_mem_bytes = 3 * a.nnz(); // fits CSR-ish, not Magicube's 4x i16
    let gpu = Gpu::new(cfg.clone());
    let magicube = MagicubeLike::new(&gpu, &a);
    assert!(matches!(
        magicube.spmm(&b),
        Err(SimError::OutOfMemory { .. })
    ));
    // SMaT still fails or fits depending on padding; on this matrix its
    // footprint is smaller than Magicube's.
    let smat_cfg = SmatConfig {
        device: cfg,
        ..SmatConfig::default()
    };
    let smat_footprint = {
        let engine = Smat::prepare(&a, smat_cfg);
        engine.bcsr().payload_bytes() + engine.bcsr().index_bytes()
    };
    assert!(smat_footprint < magicube.footprint_bytes(a.ncols(), 8));
}

#[test]
fn band_crossover_against_cublas_exists() {
    // Fig. 9a: SMaT beats cuBLAS-effective at high sparsity and loses in
    // the dense limit.
    let gpu = Gpu::a100();
    let n = 2048;
    let b = workloads::dense_b::<F16>(n, 8);
    let cublas = CublasLike::new(&gpu).gemm_time(n, n, 8).unwrap();

    let sparse = workloads::band::<F16>(n, 16);
    let cfg = SmatConfig {
        reorder: ReorderAlgorithm::Identity,
        ..SmatConfig::default()
    };
    let smat_sparse = Smat::prepare(&sparse, cfg.clone()).spmm(&b);
    assert!(
        smat_sparse.report.gflops() > cublas.gflops_effective(sparse.nnz(), 8),
        "SMaT must beat cuBLAS-effective on a 98%-sparse band"
    );

    let dense = workloads::band::<F16>(n, n);
    let smat_dense = Smat::prepare(&dense, cfg).spmm(&b);
    let ratio = cublas.gflops_dense / smat_dense.report.gflops();
    assert!(
        ratio > 1.0 && ratio < 6.0,
        "in the dense limit SMaT should be moderately slower than cuBLAS \
         (paper: 2.3x); got {ratio:.2}x"
    );
}

#[test]
fn oom_errors_are_descriptive() {
    let err = SimError::OutOfMemory {
        needed: 100,
        available: 50,
    };
    let msg = err.to_string();
    assert!(msg.contains("100") && msg.contains("50"));
}

#[test]
fn packed_index_is_never_slower_than_plain_across_the_plan_space() {
    // The planner prices one Tensor Core line, fitted on the packed index,
    // and every TC decision runs packed. That is only sound while the
    // packed index never loses to the plain one: check every shape and
    // reordering the default plan space holds, on the Table I mimics and
    // an RMAT graph, at the batch widths the server launches.
    let space = PlanSpace::default();
    let mut matrices: Vec<(String, Csr<F16>)> = workloads::table1()
        .iter()
        .map(|m| (m.name.to_string(), m.generate(0.002)))
        .collect();
    matrices.push(("rmat".to_string(), workloads::rmat(8, 1500, 42)));
    for (name, a) in &matrices {
        for &(h, w) in &space.block_shapes {
            for &alg in &space.reorderings {
                let reordering = smat_reorder::reorder(a, alg, h, w);
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
                let plain = Smat::prepare_with_reordering(a, plain_cfg, reordering.clone());
                let packed = Smat::prepare_with_reordering(a, packed_cfg, reordering);
                for n in [8, 16, 32] {
                    let b = workloads::dense_b::<F16>(a.ncols(), n);
                    let plain_ms = plain.spmm(&b).report.elapsed_ms();
                    let packed_ms = packed.spmm(&b).report.elapsed_ms();
                    assert!(
                        packed_ms <= plain_ms,
                        "{name}, {h}x{w}, {}, n={n}: packed {packed_ms} ms > plain {plain_ms} ms",
                        alg.name()
                    );
                }
            }
        }
    }
}

/// A 16×16 matrix with every entry stored: exactly one 16×16 block.
fn one_block() -> Csr<F16> {
    let mut coo = smat_formats::Coo::new(16, 16);
    for i in 0..16 {
        for j in 0..16 {
            coo.push(i, j, F16::from_f64(((i + j) % 5) as f64 - 2.0));
        }
    }
    coo.to_csr()
}

/// `cfg` on the scalar kernel, streaming the plain index it reads.
fn scalar_twin(cfg: &SmatConfig) -> SmatConfig {
    let mut scalar = cfg.clone();
    scalar.opts.tc = false;
    scalar.format = MatrixFormat::PlainBcsr;
    scalar
}

#[test]
fn tensor_cores_are_never_slower_than_the_scalar_kernel_across_the_plan_space() {
    // The planner scores only the Tensor Core line, so every decision runs
    // on Tensor Cores. That is only sound while the scalar kernel (over
    // the plain index it streams) never wins a whole matrix: check every
    // shape and reordering of the default plan space, from the smallest
    // launch (one block) through an ultra-sparse graph to Table I mimics,
    // at the widths the server batches to.
    let space = PlanSpace::default();
    let matrices: Vec<(&str, Csr<F16>)> = vec![
        ("one-block", one_block()),
        ("rmat_s14_ultra_sparse", workloads::rmat(14, 2000, 42)),
        ("mip1", workloads::by_name("mip1").unwrap().generate(0.002)),
        ("dc2", workloads::by_name("dc2").unwrap().generate(0.002)),
    ];
    for (name, a) in &matrices {
        for &(h, w) in &space.block_shapes {
            for &alg in &space.reorderings {
                let reordering = smat_reorder::reorder(a, alg, h, w);
                let tc_cfg = SmatConfig {
                    block_h: h,
                    block_w: w,
                    reorder: alg,
                    format: MatrixFormat::PackedBcsr,
                    ..SmatConfig::default()
                };
                assert!(tc_cfg.opts.tc);
                let scalar_cfg = scalar_twin(&tc_cfg);
                let tc = Smat::prepare_with_reordering(a, tc_cfg, reordering.clone());
                let scalar = Smat::prepare_with_reordering(a, scalar_cfg, reordering);
                for n in [8, 32] {
                    let b = workloads::dense_b::<F16>(a.ncols(), n);
                    let tc_ms = tc.spmm(&b).report.elapsed_ms();
                    let scalar_ms = scalar.spmm(&b).report.elapsed_ms();
                    assert!(
                        tc_ms <= scalar_ms,
                        "{name}, {h}x{w}, {}, n={n}: TC {tc_ms} ms > scalar {scalar_ms} ms",
                        alg.name()
                    );
                }
            }
        }
    }
}

#[test]
fn calibrated_planner_runs_a_one_block_matrix_on_tensor_cores() {
    // The smallest launch is where a scalar line with a lower launch
    // constant would undercut the Tensor Core one in the model, although
    // the simulator runs Tensor Cores faster there too. The planner prices
    // Tensor Cores only, so the one-block matrix runs on them.
    let base = SmatConfig::default();
    let cal = Calibration::fit_on(&workloads::calibration_bands::<F16>(512), 8, &base);
    let planner = Planner::with_calibration(PlanSpace::default(), cal);
    let a = one_block();
    let d = planner.decide(&a, 8);
    let cfg = d.apply(&base);
    assert!(cfg.opts.tc, "{d:?}");
    assert_eq!(cfg.format, MatrixFormat::PackedBcsr);
    let b = workloads::dense_b::<F16>(a.ncols(), 8);
    let scalar = Smat::prepare(&a, scalar_twin(&cfg)).spmm(&b);
    let tc = Smat::prepare_with_plan(&a, cfg, d).spmm(&b);
    assert_eq!(tc.c, a.spmm_reference(&b));
    assert!(
        tc.report.elapsed_ms() < scalar.report.elapsed_ms(),
        "TC {} ms vs scalar {} ms",
        tc.report.elapsed_ms(),
        scalar.report.elapsed_ms()
    );
}

/// The mixed rmat/dc2-class inputs the packed-index and panel-pipeline
/// evidence is measured on (`BENCH_PR10.json`), at width 32.
fn mixed_workloads() -> Vec<(&'static str, Csr<F16>)> {
    vec![
        ("dc2", workloads::by_name("dc2").unwrap().generate(0.005)),
        (
            "cop20k_A",
            workloads::by_name("cop20k_A").unwrap().generate(0.005),
        ),
        ("rmat_s9", workloads::rmat(9, 6000, 42)),
        ("rmat_s10_sparse", workloads::rmat(10, 4000, 7)),
    ]
}

#[test]
fn packed_index_and_panel_pipeline_cut_metadata_and_time_bitwise() {
    // Plain BCSR metadata against the bit-packed index, with and without
    // panel-staged double buffering: the packed index streams fewer
    // metadata bytes, the panel pipeline leaves the encoding alone, the
    // pair beats the plain kernel on simulated time, and no arm changes a
    // bit of the product.
    let plain = SmatConfig::default();
    let packed = SmatConfig {
        format: MatrixFormat::PackedBcsr,
        ..plain.clone()
    };
    let panel = SmatConfig {
        panel_depth: 4,
        ..packed.clone()
    };
    for (name, a) in mixed_workloads() {
        let b = workloads::dense_b::<F16>(a.ncols(), 32);
        let [plain, packed, panel] = [&plain, &packed, &panel].map(|cfg| {
            let engine = Smat::prepare(&a, cfg.clone());
            let run = engine.spmm(&b);
            (engine.operand_index_bytes(), run.report.elapsed_ms(), run.c)
        });
        assert_eq!(
            packed.2, plain.2,
            "{name}: the packed index changed the product"
        );
        assert_eq!(
            panel.2, plain.2,
            "{name}: the panel pipeline changed the product"
        );
        assert!(
            packed.0 < plain.0,
            "{name}: packed index {} B >= plain {} B",
            packed.0,
            plain.0
        );
        assert_eq!(
            panel.0, packed.0,
            "{name}: the panel arm changed the index encoding"
        );
        assert!(
            panel.1 < plain.1,
            "{name}: packed+panel {} ms >= plain {} ms",
            panel.1,
            plain.1
        );
    }
}
