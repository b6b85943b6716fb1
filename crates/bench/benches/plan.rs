//! Admission-planner benchmark: simulated SpMM time under the planner's
//! chosen configuration versus the fixed paper default, on the mixed
//! rmat/dc2-class workloads the serving engine admits in practice.
//!
//! Two kinds of output per matrix:
//!
//! * deterministic `plan_sim/<name>: ...` lines with the simulated kernel
//!   milliseconds of both arms, the planner's prediction and the planned
//!   configuration (its index format follows the mode) — these are
//!   what `scripts/bench_plan.sh` commits to `BENCH_PR8.json`;
//! * criterion wall-clock arms (`plan/default/<name>`,
//!   `plan/planned/<name>`) over the prepared handles, as a host-side
//!   sanity check that the simulated ordering is not an artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smat::{Calibration, PlanSpace, Planner, Smat, SmatConfig};
use smat_formats::{Csr, F16};
use smat_workloads::{by_name, calibration_bands, dense_b, rmat};

const N_COLS: usize = 32;

fn mixed_workloads() -> Vec<(&'static str, Csr<F16>)> {
    vec![
        ("dc2", by_name("dc2").unwrap().generate(0.005)),
        ("cop20k_A", by_name("cop20k_A").unwrap().generate(0.005)),
        ("rmat_s9", rmat(9, 6000, 42)),
        ("rmat_s10_sparse", rmat(10, 4000, 7)),
    ]
}

fn bench_plan(c: &mut Criterion) {
    let base = SmatConfig::default();
    let planner = Planner::with_calibration(
        PlanSpace::default(),
        Calibration::fit_on(&calibration_bands::<F16>(256), N_COLS, &base),
    );

    let mut group = c.benchmark_group("plan");
    group.sample_size(10);
    for (name, a) in mixed_workloads() {
        let b = dense_b::<F16>(a.ncols(), N_COLS);
        let d = planner.decide(&a, N_COLS);
        let planned_cfg = d.apply(&base);
        let format = planned_cfg.format.name();
        let default_engine = Smat::prepare(&a, base.clone());
        let planned_engine = Smat::prepare_with_plan(&a, planned_cfg, d);
        let default_ms = default_engine.spmm(&b).report.elapsed_ms();
        let planned_ms = planned_engine.spmm(&b).report.elapsed_ms();
        // Deterministic record: the simulator is exact, so these numbers
        // are reproducible and safe to commit as evidence.
        println!(
            "plan_sim/{name}: default={default_ms:.6} ms planned={planned_ms:.6} ms \
             predicted={:.6} ms config={}x{}/{}/tc={}/{format}",
            d.predicted_ms,
            d.block_h,
            d.block_w,
            d.reorder.name(),
            d.use_tc
        );
        group.bench_with_input(BenchmarkId::new("default", name), &b, |bch, b| {
            bch.iter(|| std::hint::black_box(default_engine.spmm(b)));
        });
        group.bench_with_input(BenchmarkId::new("planned", name), &b, |bch, b| {
            bch.iter(|| std::hint::black_box(planned_engine.spmm(b)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plan);
criterion_main!(benches);
