//! Integration tests of the cost-model-driven admission planner: planned
//! registrations serve bitwise-identical products to the same
//! configurations pinned manually, pinned registrations bypass the
//! planner, shards plan independently, and observed launches drive the
//! online refit loop.

use std::sync::Arc;

use smat::{MatrixFormat, Smat, SmatConfig};
use smat_formats::{Csr, Dense, Element, F16};
use smat_serve::{block_on, Calibration, PlanSpace, Planner, Server, ServerConfig};
use smat_shard::estimated_csr_bytes;
use smat_workloads::{by_name, calibration_bands, dense_b, random_uniform, rmat};

fn rhs(k: usize, n: usize, salt: usize) -> Dense<F16> {
    Dense::from_fn(k, n, |i, j| {
        F16::from_f64(((i + 2 * j + salt) % 5) as f64 - 2.0)
    })
}

fn calibration() -> Calibration {
    Calibration::fit_on(&calibration_bands::<F16>(96), 8, &SmatConfig::default())
}

fn planned_config(cal: Calibration) -> ServerConfig {
    ServerConfig {
        devices: 2,
        planner: Some(Arc::new(Planner::with_calibration(
            PlanSpace::default(),
            cal,
        ))),
        ..ServerConfig::default()
    }
}

#[test]
fn planned_serving_is_bitwise_identical_to_manually_pinned_configs() {
    let cal = calibration();
    let base = SmatConfig::default();
    let mats: Vec<Csr<F16>> = (0..3u64)
        .map(|s| random_uniform(128, 128, 0.9, s))
        .collect();

    // Manual arm: decide offline with an identical calibration (decisions
    // are deterministic for a fixed calibration) and pin each choice.
    let offline = Planner::with_calibration(PlanSpace::default(), cal);
    let manual: Server<F16> = Server::new(ServerConfig {
        devices: 2,
        ..ServerConfig::default()
    });
    let manual_keys: Vec<_> = mats
        .iter()
        .map(|a| {
            let d = offline.decide(a, manual_config_width());
            manual.register_with_config(a, d.apply(&base))
        })
        .collect();

    // Planned arm: the server's own planner chooses at admission.
    let planned: Server<F16> = Server::new(planned_config(cal));
    let planned_keys: Vec<_> = mats.iter().map(|a| planned.register(a)).collect();

    for i in 0..9 {
        let (a, m) = (&mats[i % 3], i % 3);
        let b = rhs(128, 8, i);
        let want = a.spmm_reference(&b);
        let rp = block_on(planned.submit(planned_keys[m], b.clone())).expect("planned serve");
        let rm = block_on(manual.submit(manual_keys[m], b)).expect("pinned serve");
        assert_eq!(rp.c, want, "planned response must be exact");
        assert_eq!(
            rp.c, rm.c,
            "planned serving must be bitwise identical to the same \
             configuration chosen manually"
        );
        assert!(
            rp.predicted_ms.is_some_and(|p| p.is_finite() && p > 0.0),
            "planned response carries its prediction: {:?}",
            rp.predicted_ms
        );
        assert!(
            rm.predicted_ms.is_none(),
            "a pinned registration has no plan to grade"
        );
    }

    let stats = planned.stats();
    assert_eq!(stats.planned_requests, 9);
    assert!(stats.plan_predictions >= 1);
    assert!(
        stats.plan_mean_rel_error.is_finite(),
        "rel error: {}",
        stats.plan_mean_rel_error
    );
    assert!(stats.plan_observations >= 9, "{}", stats.plan_observations);
    let manual_stats = manual.stats();
    assert_eq!(manual_stats.planned_requests, 0);
    assert_eq!(manual_stats.plan_predictions, 0);
}

/// The planning width of the planned arm: the server plans at its column
/// budget, so the manual arm must decide at the same width to reproduce
/// the decision.
fn manual_config_width() -> usize {
    ServerConfig::default().column_budget
}

#[test]
fn pinned_registration_bypasses_the_planner() {
    let server: Server<F16> = Server::new(planned_config(calibration()));
    let a: Csr<F16> = random_uniform(96, 96, 0.9, 5);
    let key = server.register_with_config(&a, SmatConfig::default());
    let b = rhs(96, 8, 0);
    let want = a.spmm_reference(&b);
    let resp = block_on(server.submit(key, b)).expect("pinned serve");
    assert_eq!(resp.c, want);
    assert!(resp.predicted_ms.is_none());
    let stats = server.stats();
    assert_eq!(stats.planned_requests, 0);
    assert_eq!(stats.plan_predictions, 0);
    assert_eq!(stats.plan_observations, 0, "no feedback without a plan");
}

#[test]
fn warm_prepare_plans_and_parked_submissions_get_predictions() {
    let server: Server<F16> = Server::new(planned_config(calibration()));
    let a: Csr<F16> = random_uniform(128, 128, 0.92, 9);
    // Warm in the background and submit immediately: the request parks on
    // the in-flight (planned) prepare and completes with its prediction.
    let key = server.warm_prepare(&a);
    let b = rhs(128, 8, 3);
    let want = a.spmm_reference(&b);
    let resp = block_on(server.submit(key, b)).expect("parked planned serve");
    assert_eq!(resp.c, want);
    assert!(resp.predicted_ms.is_some());
    assert_eq!(server.stats().planned_requests, 1);
}

#[test]
fn sharded_registration_plans_each_shard_and_stays_exact() {
    let a: Csr<F16> = random_uniform(256, 128, 0.88, 42);
    let max_bytes = estimated_csr_bytes(&a).div_ceil(3);
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 3,
        shard_max_bytes: Some(max_bytes),
        ..planned_config(calibration())
    });
    let key = server.register(&a);
    assert_eq!(
        server.shard_plan(&key).expect("sharded").nshards(),
        3,
        "operand must actually shard"
    );
    for i in 0..2 {
        let b = rhs(128, 8, i);
        let want = a.spmm_reference(&b);
        let resp = block_on(server.submit(key, b)).expect("sharded planned serve");
        assert_eq!(
            resp.c, want,
            "per-shard planning must preserve bitwise exactness"
        );
        assert!(
            resp.predicted_ms.is_some_and(|p| p.is_finite() && p > 0.0),
            "join sums the shard predictions: {:?}",
            resp.predicted_ms
        );
    }
    let stats = server.stats();
    // Every shard sub-request ran under a planner-chosen configuration.
    assert_eq!(stats.planned_requests, 6);
    assert_eq!(stats.completed, 2);
    assert!(stats.plan_mean_rel_error.is_finite());
}

#[test]
fn observed_launches_drive_online_refits() {
    let server: Server<F16> = Server::new(planned_config(calibration()));
    // Two matrices with different block counts: the observation window
    // spans distinct model x-values, so the spread guard admits refits.
    let a0: Csr<F16> = random_uniform(128, 128, 0.9, 1);
    let a1: Csr<F16> = random_uniform(160, 160, 0.95, 2);
    let k0 = server.register(&a0);
    let k1 = server.register(&a1);
    for i in 0..16 {
        let (a, k, n) = if i % 2 == 0 {
            (&a0, k0, 128)
        } else {
            (&a1, k1, 160)
        };
        let b = rhs(n, 8, i);
        let want = a.spmm_reference(&b);
        let resp = block_on(server.submit(k, b)).expect("served");
        assert_eq!(resp.c, want);
    }
    let stats = server.stats();
    assert_eq!(stats.plan_observations, 16);
    assert!(
        stats.plan_refits >= 1,
        "16 observations across two shapes must refit: {}",
        stats.plan_refits
    );
    assert!(stats.plan_mean_rel_error.is_finite());
    assert_eq!(stats.planned_requests, 16);
}

#[test]
fn planned_configs_beat_the_paper_default_on_mixed_workloads() {
    // The admission planner's evidence (`BENCH_PR8.json`): on the mixed
    // rmat/dc2-class inputs at width 32, the configurations it picks run
    // in no more summed simulated time than the fixed paper default, and
    // every pick streams the packed index its line is fitted on.
    const N: usize = 32;
    let base = SmatConfig::default();
    let planner = Planner::with_calibration(
        PlanSpace::default(),
        Calibration::fit_on(&calibration_bands::<F16>(256), N, &base),
    );
    let inputs: Vec<Csr<F16>> = vec![
        by_name("dc2").unwrap().generate(0.005),
        by_name("cop20k_A").unwrap().generate(0.005),
        rmat(9, 6000, 42),
        rmat(10, 4000, 7),
    ];
    let (mut default_ms, mut planned_ms) = (0.0, 0.0);
    for a in &inputs {
        let b = dense_b::<F16>(a.ncols(), N);
        let d = planner.decide(a, N);
        let cfg = d.apply(&base);
        assert_eq!(cfg.format, MatrixFormat::PackedBcsr, "{cfg:?}");
        default_ms += Smat::prepare(a, base.clone()).spmm(&b).report.elapsed_ms();
        planned_ms += Smat::prepare_with_plan(a, cfg, d)
            .spmm(&b)
            .report
            .elapsed_ms();
    }
    assert!(
        planned_ms <= default_ms,
        "planned {planned_ms} ms > default {default_ms} ms"
    );
}
