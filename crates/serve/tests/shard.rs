//! Integration tests of sharded tenants: registration, fan-out/join
//! serving, placement, registry capacity, warm-prepare parking, and chaos
//! recovery with replay determinism.

use smat::MatrixUpdate;
use smat_formats::{Coo, Csr, Dense, Element, F16};
use smat_gpusim::FaultConfig;
use smat_serve::{
    block_on, ChaosStats, CompactionPolicy, RecoveryPolicy, Server, ServerConfig, ServerStats,
};
use smat_shard::estimated_csr_bytes;
use smat_workloads::random_uniform;

fn rhs(k: usize, n: usize, salt: usize) -> Dense<F16> {
    Dense::from_fn(k, n, |i, j| {
        F16::from_f64(((i + 2 * j + salt) % 5) as f64 - 2.0)
    })
}

/// A matrix big enough to split into `nshards` under the returned budget.
fn sharded_operand(nshards: usize, seed: u64) -> (Csr<F16>, usize) {
    let a: Csr<F16> = random_uniform(256, 128, 0.88, seed);
    let max_bytes = estimated_csr_bytes(&a).div_ceil(nshards);
    (a, max_bytes)
}

#[test]
fn sharded_serving_is_bitwise_identical_across_three_devices() {
    let (a, max_bytes) = sharded_operand(3, 42);
    let mut server: Server<F16> = Server::new(ServerConfig {
        devices: 3,
        shard_max_bytes: Some(max_bytes),
        ..ServerConfig::default()
    });
    let key = server.register(&a);
    let plan = server.shard_plan(&key).expect("key registered as sharded");
    assert_eq!(plan.nshards(), 3);

    // Pause so every fan-out's sub-requests enqueue against stable loads:
    // placement (and the dispatch counters below) become deterministic.
    server.pause();
    let futs: Vec<_> = (0..6)
        .map(|i| {
            let b = rhs(128, 8, i);
            let want = a.spmm_reference(&b);
            (server.submit(key, b), want)
        })
        .collect();
    server.resume();
    for (fut, want) in futs {
        let resp = block_on(fut).expect("sharded request served");
        assert_eq!(resp.c, want, "sharded response must be bitwise identical");
    }

    let stats = server.stats();
    assert_eq!(stats.submitted, 6, "each parent counts once");
    assert_eq!(stats.completed, 6);
    assert_eq!(stats.fanout_requests, 6);
    assert_eq!(stats.shard_subrequests, 18);
    assert_eq!(stats.failed, 0);
    // From equal loads the least-loaded sort places shard i on device i:
    // every device receives exactly one sub-request per fan-out.
    for d in &stats.devices {
        assert_eq!(d.dispatched, 6, "device {} dispatch count", d.device);
    }
    server.shutdown();
    let stats = server.stats();
    for d in &stats.devices {
        assert_eq!(
            d.dispatched, d.completed,
            "device {} lost a sub-request",
            d.device
        );
    }
}

#[test]
fn small_matrices_stay_one_shard() {
    let a: Csr<F16> = random_uniform(64, 64, 0.9, 3);
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 2,
        // Budget far above the operand: registration stays unsharded.
        shard_max_bytes: Some(64 << 20),
        ..ServerConfig::default()
    });
    let key = server.register(&a);
    assert!(server.shard_plan(&key).is_none());
    let b = rhs(64, 8, 0);
    let want = a.spmm_reference(&b);
    let resp = block_on(server.submit(key, b)).expect("served directly");
    assert_eq!(resp.c, want);
    let stats = server.stats();
    assert_eq!(stats.fanout_requests, 0);
    assert_eq!(stats.shard_subrequests, 0);
    assert_eq!(stats.submitted, 1);
}

#[test]
fn sharded_tenants_count_against_the_registry_capacity() {
    // Each registry line is one tenant, however many shards it has: three
    // 3-shard tenants in a 2-line registry evict the oldest, which then
    // reports UnknownMatrix like any evicted unsharded tenant.
    let (operands, budgets): (Vec<_>, Vec<_>) =
        (31..34).map(|seed| sharded_operand(3, seed)).unzip();
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 3,
        registry_capacity: 2,
        shard_max_bytes: budgets.into_iter().max(),
        ..ServerConfig::default()
    });
    let keys: Vec<_> = operands.iter().map(|a| server.register(a)).collect();
    let stats = server.stats().registry;
    assert_eq!((stats.entries, stats.evictions), (2, 1));
    assert_eq!(stats.prepares, 9, "one prepare per shard");
    assert!(
        server.shard_plan(&keys[0]).is_none(),
        "oldest tenant evicted"
    );
    assert!(matches!(
        block_on(server.submit(keys[0], rhs(128, 8, 0))),
        Err(smat_serve::ServeError::UnknownMatrix)
    ));
    for (a, key) in operands.iter().zip(&keys).skip(1) {
        assert_eq!(server.shard_plan(key).expect("resident").nshards(), 3);
        let b = rhs(128, 8, 1);
        let resp = block_on(server.submit(*key, b.clone())).expect("served");
        assert_eq!(resp.c, a.spmm_reference(&b));
    }
}

#[test]
fn identical_row_slices_mutated_apart_never_share_a_batch() {
    // [M; M] splits into two shards with identical content. Each shard is
    // its own mutable handle, so after one different update per shard both
    // sit at epoch 1 with different overlays. On one device every
    // sub-request lands in the same queue; were the shard keys equal, the
    // batcher would group both halves under one (key, epoch) and compute
    // the second half with the first half's overlay.
    let m: Csr<F16> = random_uniform(64, 64, 0.85, 5);
    let m = m.to_dense();
    let a = Csr::from_dense(&Dense::from_fn(128, 64, |i, j| m.get(i % 64, j)));
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 1,
        shard_max_bytes: Some(estimated_csr_bytes(&a).div_ceil(2)),
        compaction: CompactionPolicy {
            auto: false,
            ..CompactionPolicy::default()
        },
        ..ServerConfig::default()
    });
    let key = server.register(&a);
    let plan = server.shard_plan(&key).expect("key registered as sharded");
    assert_eq!(plan.nshards(), 2);
    assert_eq!(
        plan.shards[0].row_end, 64,
        "the halves are identical slices"
    );

    let overrides = [(3, 5, 4.0), (64 + 9, 1, -2.0)];
    for &(row, col, value) in &overrides {
        let op = MatrixUpdate::Update {
            row,
            col,
            value: F16::from_f64(value),
        };
        server.mutate(key, &[op]).expect("in bounds");
    }
    let merged = Coo::with_overrides(&a, &overrides).to_csr();

    server.pause();
    let futs: Vec<_> = (0..4)
        .map(|i| {
            let b = rhs(64, 8, i);
            let want = merged.spmm_reference(&b);
            (server.submit(key, b), want)
        })
        .collect();
    server.resume();
    for (fut, want) in futs {
        let resp = block_on(fut).expect("served");
        assert_eq!(resp.c, want, "each half must compute on its own overlay");
    }
}

#[test]
fn submissions_park_on_an_in_flight_sharded_warm_prepare() {
    let (a, max_bytes) = sharded_operand(3, 7);
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 3,
        shard_max_bytes: Some(max_bytes),
        ..ServerConfig::default()
    });
    // Warm in the background and submit immediately: the request must park
    // on the shard entry and fan out when preparation lands, not bounce.
    let key = server.warm_prepare(&a);
    let b = rhs(128, 16, 1);
    let want = a.spmm_reference(&b);
    let resp = block_on(server.submit(key, b)).expect("parked fan-out served");
    assert_eq!(resp.c, want);
    let stats = server.stats();
    assert_eq!(stats.fanout_requests, 1);
    assert_eq!(stats.completed, 1);
    assert!(server.shard_plan(&key).is_some(), "entry published");
}

#[test]
fn sharded_shape_mismatch_is_rejected_before_any_dispatch() {
    let (a, max_bytes) = sharded_operand(3, 11);
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 3,
        shard_max_bytes: Some(max_bytes),
        ..ServerConfig::default()
    });
    let key = server.register(&a);
    match block_on(server.submit(key, rhs(64, 8, 0))) {
        Err(smat_serve::ServeError::ShapeMismatch {
            expected_rows,
            got_rows,
        }) => {
            assert_eq!(expected_rows, 128);
            assert_eq!(got_rows, 64);
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.submitted, 0);
    assert_eq!(stats.shard_subrequests, 0, "no orphan sub-requests");
    assert!(stats.devices.iter().all(|d| d.dispatched == 0));
}

/// One full chaos run over a sharded matrix: serial submissions fix every
/// work id, so the fault/recovery schedule is a pure function of the seed.
fn chaos_run(seed: u64) -> (Vec<Dense<F16>>, ChaosStats, ServerStats) {
    let (a, max_bytes) = sharded_operand(3, 21);
    let mut server: Server<F16> = Server::new(ServerConfig {
        devices: 3,
        shard_max_bytes: Some(max_bytes),
        chaos: Some(FaultConfig::blended(seed, 0.35)),
        recovery: RecoveryPolicy {
            backoff_base_us: 0,
            fallback_attempts: 16,
            ..RecoveryPolicy::default()
        },
        ..ServerConfig::default()
    });
    let key = server.register(&a);
    let mut responses = Vec::new();
    for i in 0..10 {
        let b = rhs(128, 8, i);
        let want = a.spmm_reference(&b);
        // Drained submission windows: the fan-out enqueues against an idle
        // pool, so shard→device placement — and with it the entire fault
        // and recovery schedule — is identical run to run.
        server.pause();
        let fut = server.submit(key, b);
        server.resume();
        let resp = block_on(fut).expect("recovery absorbs the faults");
        assert_eq!(
            resp.c, want,
            "faulted sharded serving returned a wrong product"
        );
        responses.push(resp.c);
    }
    server.shutdown();
    let stats = server.stats();
    (responses, stats.chaos, stats)
}

#[test]
fn losing_a_device_mid_fanout_hedges_only_the_lost_shard() {
    let (responses, chaos, stats) = chaos_run(2024);
    assert_eq!(responses.len(), 10);
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.failed, 0, "every fan-out must recover");
    assert!(chaos.faults_injected > 0, "{chaos:?}");
    assert!(
        chaos.hedges >= 1,
        "a faulted shard must hedge to a peer device: {chaos:?}"
    );
    // Recovery is per sub-request: the healthy shards of a fan-out are
    // never re-dispatched, so hedges stay below the sub-request count.
    assert!(chaos.hedges < stats.shard_subrequests, "{chaos:?}");
    // No sub-request may be lost to the ladder: every dispatch completes.
    for d in &stats.devices {
        assert_eq!(
            d.dispatched, d.completed,
            "device {} lost a sub-request under chaos",
            d.device
        );
    }
}

#[test]
fn chaos_fanout_replays_deterministically() {
    let (responses_a, chaos_a, _) = chaos_run(2024);
    let (responses_b, chaos_b, _) = chaos_run(2024);
    assert_eq!(
        chaos_a, chaos_b,
        "replay must reproduce the chaos counters exactly"
    );
    assert_eq!(responses_a, responses_b, "replay must reproduce every bit");
}
