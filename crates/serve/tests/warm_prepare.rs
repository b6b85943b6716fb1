//! Warm-prepare admission: requests that arrive while a matrix is still
//! being prepared must park on the in-flight preparation — no duplicate
//! prepare, no blocked submitter — and complete with the shared handle once
//! it lands. A seeded-chaos arm confirms the parked path keeps the replay
//! determinism guarantee: response bytes are identical across two runs even
//! though batch composition behind a warm prepare may race. The
//! warm-registered trace replay is in `recorded.rs`.

use std::sync::{Arc, Barrier};

use smat::Smat;
use smat_formats::F16;
use smat_gpusim::FaultConfig;
use smat_serve::{block_on, AdmissionState, Server, ServerConfig, Tenant};

mod common;
use common::{digest, key_of, matrix_fixed_values, panel, width};

#[test]
fn requests_submitted_mid_warm_prepare_park_and_share_one_handle() {
    let config = ServerConfig::default();
    let server: Server<F16> = Server::new(config.clone());
    let a = matrix_fixed_values(64, 0);
    let key = key_of(&a, &config.smat);

    // Drive the registry's warm-prepare directly with a barrier-gated
    // closure so the preparation is provably still in flight while the
    // test submits — Server::warm_prepare wires the same entry point.
    let gate = Arc::new(Barrier::new(2));
    let (g, a2, cfg) = (Arc::clone(&gate), a.clone(), config.smat.clone());
    assert!(server.registry().warm_prepare(key, move || {
        g.wait();
        Tenant::unsharded(key, Smat::prepare(&a2, cfg))
    }));
    assert_eq!(
        server.registry().admission_state(&key),
        AdmissionState::Preparing
    );

    // Submit while preparing: admission must return immediately (this
    // thread holds the only release of the barrier, so any blocking here
    // would deadlock the test) and the requests park.
    let futures: Vec<_> = (0..6)
        .map(|i| server.submit(key, panel(64, width(i), i)))
        .collect();
    assert_eq!(
        server.registry().admission_state(&key),
        AdmissionState::Preparing,
        "submission must not wait for the prepare"
    );
    gate.wait();

    for (i, fut) in futures.into_iter().enumerate() {
        let resp = block_on(fut).expect("parked request completes");
        assert_eq!(
            resp.c,
            a.spmm_reference(&panel(64, width(i), i)),
            "request {i}"
        );
    }

    let stats = server.registry().stats();
    assert_eq!(stats.prepares, 1, "parked requests must not re-prepare");
    assert_eq!(stats.warm_prepares, 1);
    assert_eq!(stats.parked, 6, "all six requests should have parked");

    // Every parked request was served from the one resident handle.
    let h1 = server.registry().wait_ready(&key).expect("resident");
    let h2 = server.registry().wait_ready(&key).expect("resident");
    assert!(h1.shards()[0].ptr_eq(&h2.shards()[0]), "one shared handle");
}

#[test]
fn warm_prepare_on_server_is_idempotent_with_register() {
    let server: Server<F16> = Server::new(ServerConfig::default());
    let a = matrix_fixed_values(48, 1);
    let key = server.warm_prepare(&a);
    // A second warm and a full register of the same matrix attach to the
    // same slot: exactly one preparation ever runs.
    assert_eq!(server.warm_prepare(&a), key);
    assert_eq!(server.register(&a), key);
    let resp = block_on(server.submit(key, panel(48, 4, 0))).expect("serves");
    assert_eq!(resp.c, a.spmm_reference(&panel(48, 4, 0)));
    assert_eq!(server.registry().stats().prepares, 1);
}

/// One full run of the chaos arm: warm-prepare, then stream requests
/// immediately so the early ones park behind the in-flight preparation.
fn chaos_run(seed: u64) -> Vec<u64> {
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 2,
        chaos: Some(FaultConfig::blended(seed, 0.3)),
        ..ServerConfig::default()
    });
    let a = matrix_fixed_values(64, 0);
    let key = server.warm_prepare(&a);
    let futures: Vec<_> = (0..48)
        .map(|i| server.submit(key, panel(64, width(i), i)))
        .collect();
    let digests = futures
        .into_iter()
        .map(|fut| digest(&block_on(fut).expect("recovery absorbs faults").c))
        .collect();
    assert_eq!(server.registry().stats().warm_prepares, 1);
    assert_eq!(server.registry().stats().prepares, 1);
    digests
}

#[test]
fn chaos_replay_behind_warm_prepare_is_byte_identical() {
    // Batch composition behind a warm prepare may race (how many requests
    // park depends on prepare timing), so devices/attempts can differ
    // between runs — but response bytes must not: batching and the whole
    // recovery ladder are bitwise-stable.
    let first = chaos_run(7);
    let second = chaos_run(7);
    assert_eq!(first, second, "response checksums diverged across replays");
}
