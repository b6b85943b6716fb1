//! Integration tests of the extensions beyond the paper's minimal scope:
//! BLAS-style epilogues, SpMV, autotuning, the bisection reorderer, and the
//! roofline profile.

use smat::{autotune, PlanSpace, SmatConfig};
use smat_formats::{Csr, Dense, Element};
use smat_gpusim::{Bound, Gpu};
use smat_reorder::ReorderAlgorithm;
use smat_repro::prelude::*;
use smat_repro::workloads;

#[test]
fn axpby_matches_reference_on_mimics() {
    for name in ["rma10", "dc2"] {
        let a: Csr<F16> = workloads::by_name(name).unwrap().generate(0.003);
        let b = workloads::dense_b::<F16>(a.ncols(), 8);
        let c0 = Dense::from_fn(a.nrows(), 8, |i, j| {
            F16::from_f64(((i * 2 + j) % 5) as f64 - 2.0)
        });
        let engine = Smat::prepare(&a, SmatConfig::default());
        let run = engine.spmm_axpby(&b, &c0, 3.0, -2.0);
        let prod = a.spmm_reference(&b);
        let want = Dense::from_fn(a.nrows(), 8, |i, j| {
            F16::from_f64(3.0 * prod.get(i, j).to_f64() - 2.0 * c0.get(i, j).to_f64())
        });
        assert_eq!(run.c, want, "axpby on {name}");
    }
}

#[test]
fn spmv_agrees_with_dasp_spmv() {
    let gpu = Gpu::a100();
    let a: Csr<F16> = workloads::by_name("cant").unwrap().generate(0.003);
    let x: Vec<F16> = (0..a.ncols())
        .map(|i| F16::from_f64(((i % 7) as f64) - 3.0))
        .collect();
    let engine = Smat::prepare(&a, SmatConfig::default());
    let (y, _) = engine.spmv(&x);

    let bx = Dense::from_vec(a.ncols(), 1, x);
    let (_, dasp_y) = smat_repro::baselines::DaspLike::new(&gpu, &a)
        .spmm(&bx)
        .unwrap();
    for (i, &v) in y.iter().enumerate() {
        assert_eq!(v, dasp_y.get(i, 0), "row {i}");
    }
}

#[test]
fn autotuned_config_is_never_slower_than_default() {
    for name in ["cop20k_A", "conf5_4-8x8"] {
        let a: Csr<F16> = workloads::by_name(name).unwrap().generate(0.005);
        let report = autotune(&a, 8, &SmatConfig::default(), &PlanSpace::default());
        let s = report
            .speedup_over_default()
            .expect("default configuration is in the space");
        assert!(s >= 1.0 - 1e-9, "{name}: tuner regressed by {s}");
        // And the winner still computes the right product.
        let b = workloads::dense_b::<F16>(a.ncols(), 8);
        let run = Smat::prepare(&a, report.best).spmm(&b);
        assert_eq!(run.c, a.spmm_reference(&b), "{name}");
    }
}

#[test]
fn bisection_reordering_helps_scrambled_mesh() {
    let a: Csr<F16> = workloads::by_name("consph").unwrap().generate(0.01);
    let (_, effect) = smat_reorder::evaluate_reordering(&a, ReorderAlgorithm::Bisection, 16, 16);
    assert!(
        effect.block_reduction() > 1.3,
        "bisection reduction {}",
        effect.block_reduction()
    );
    // And it preserves the product through the pipeline.
    let b = workloads::dense_b::<F16>(a.ncols(), 8);
    let cfg = SmatConfig {
        reorder: ReorderAlgorithm::Bisection,
        ..SmatConfig::default()
    };
    assert_eq!(Smat::prepare(&a, cfg).spmm(&b).c, a.spmm_reference(&b));
}

#[test]
fn roofline_profile_classifies_spmm_regimes() {
    // Tall-skinny SpMM (N=8) on the simulated A100 is memory-system-bound,
    // never compute-bound — the Fig. 9a mechanism.
    let a = workloads::band::<F16>(1024, 128);
    let b = workloads::dense_b::<F16>(1024, 8);
    let cfg = SmatConfig {
        reorder: ReorderAlgorithm::Identity,
        ..SmatConfig::default()
    };
    let run = Smat::prepare(&a, cfg).spmm(&b);
    let bound = run.report.launch.profile.bound();
    assert_ne!(bound, Bound::Compute, "N=8 SpMM can't be compute-bound");
    // Wider N amortizes the A traffic and launch overhead: effective
    // GFLOP/s must grow substantially (the Fig. 9a -> 9b shift).
    let b128 = workloads::dense_b::<F16>(1024, 128);
    let cfg = SmatConfig {
        reorder: ReorderAlgorithm::Identity,
        ..SmatConfig::default()
    };
    let run128 = Smat::prepare(&a, cfg).spmm(&b128);
    assert!(
        run128.report.gflops() > run.report.gflops() * 1.5,
        "N=128 ({}) must be far more efficient than N=8 ({})",
        run128.report.gflops(),
        run.report.gflops()
    );
}

#[test]
fn i8_block_16x32_runs_the_wide_k_mma_shape() {
    let a32: Csr<f32> = workloads::random_uniform(128, 128, 0.9, 31);
    let a: Csr<i8> = a32.cast();
    let b = Dense::from_fn(128, 8, |i, j| {
        <i8 as Element>::from_f64(((i + j) % 5) as f64 - 2.0)
    });
    let cfg = SmatConfig {
        block_h: 16,
        block_w: 32,
        ..SmatConfig::default()
    };
    let run = Smat::prepare(&a, cfg).spmm(&b);
    assert_eq!(run.c, a.spmm_reference(&b));
}

#[test]
fn tune_space_prefers_identity_on_band_matrices() {
    // conf5-like band input: reordering can't help, and the tuner should
    // not pay for it.
    let a = workloads::band::<F16>(512, 8);
    let report = autotune(&a, 8, &SmatConfig::default(), &PlanSpace::default());
    let identity_best = report
        .trials
        .iter()
        .filter(|t| t.reorder == "original")
        .map(|t| t.time_ms)
        .fold(f64::INFINITY, f64::min);
    let overall_best = report
        .trials
        .iter()
        .map(|t| t.time_ms)
        .fold(f64::INFINITY, f64::min);
    assert!(
        identity_best <= overall_best * 1.05,
        "identity should be on the Pareto front for bands"
    );
}

#[test]
fn balanced_schedule_rescues_dc2() {
    // §VI-E: the static 2D schedule is dc2's problem; LPT pre-balancing
    // (a persistent-kernel style schedule) must recover a large part of
    // the loss without changing the result.
    // B must be wide enough that each block row spans several warps: with a
    // single 8-column tile the heaviest block row is one warp, which lands
    // alone on an SM even round-robin, and no assignment can beat that
    // single-warp lower bound.
    let a: Csr<F16> = workloads::by_name("dc2").unwrap().generate(0.02);
    let b = workloads::dense_b::<F16>(a.ncols(), 64);
    let mk = |schedule| SmatConfig {
        schedule,
        ..SmatConfig::default()
    };
    let static_run = Smat::prepare(&a, mk(Schedule::Static2D)).spmm(&b);
    let balanced_run = Smat::prepare(&a, mk(Schedule::BalancedGreedy)).spmm(&b);
    assert_eq!(static_run.c, balanced_run.c, "schedule must not change C");
    assert!(
        balanced_run.report.elapsed_ms() < static_run.report.elapsed_ms(),
        "balanced {} must beat static {} on dc2",
        balanced_run.report.elapsed_ms(),
        static_run.report.elapsed_ms()
    );
    assert!(balanced_run.report.launch.sm_imbalance() < static_run.report.launch.sm_imbalance());
}

#[test]
fn h100_speedup_tracks_bandwidth_not_compute() {
    // SpMM at N=8 is bandwidth-bound: moving to the H100 model must speed
    // it up by roughly the bandwidth ratio (~2.2x), far below the ~3.2x
    // Tensor Core ratio.
    let a: Csr<F16> = workloads::by_name("consph").unwrap().generate(0.01);
    let b = workloads::dense_b::<F16>(a.ncols(), 8);
    let run_on = |device: DeviceConfig| {
        let cfg = SmatConfig {
            device,
            ..SmatConfig::default()
        };
        Smat::prepare(&a, cfg).spmm(&b).report.gflops()
    };
    let a100 = run_on(DeviceConfig::a100_sxm4_40gb());
    let h100 = run_on(DeviceConfig::h100_sxm5_80gb());
    let speedup = h100 / a100;
    assert!(
        (1.2..=2.6).contains(&speedup),
        "H100 speedup {speedup} should track the bandwidth ratio"
    );
}
