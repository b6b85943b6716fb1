//! Warm-prepare admission: requests that arrive while a matrix is still
//! being prepared must park on the in-flight preparation — no duplicate
//! prepare, no blocked submitter — and complete with the shared handle once
//! it lands. A seeded-chaos arm confirms the parked path keeps the replay
//! determinism guarantee: response bytes are identical across two runs even
//! though batch composition behind a warm prepare may race.

use std::sync::{Arc, Barrier};

use smat::Smat;
use smat_formats::{Coo, Csr, Dense, Element, MatrixFingerprint, F16};
use smat_gpusim::FaultConfig;
use smat_serve::{block_on, AdmissionState, MatrixKey, Server, ServerConfig, Tenant};

fn matrix(n: usize, shift: usize) -> Csr<F16> {
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        for j in 0..5 {
            coo.push(
                r,
                (r * 3 + j * 11 + shift) % n,
                F16::from_f64(((r + j) % 5) as f64 - 2.0),
            );
        }
    }
    coo.to_csr()
}

fn panel(k: usize, seq: usize) -> Dense<F16> {
    let n = 4 + (seq % 3) * 4;
    Dense::from_fn(k, n, |i, j| {
        F16::from_f64((((i + 3 * j + 7 * seq) % 9) as f64 - 4.0) / 2.0)
    })
}

/// FNV-1a over the f64 renderings of a panel — the cross-run determinism
/// digest (bitwise: two equal digests here mean byte-equal responses).
fn fnv(c: &Dense<F16>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..c.nrows() {
        for j in 0..c.ncols() {
            for byte in c.get(i, j).to_f64().to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn requests_submitted_mid_warm_prepare_park_and_share_one_handle() {
    let config = ServerConfig::default();
    let server: Server<F16> = Server::new(config.clone());
    let a = matrix(64, 0);
    let key = MatrixKey::new(MatrixFingerprint::of_csr(&a), &config.smat);

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
    let futures: Vec<_> = (0..6).map(|i| server.submit(key, panel(64, i))).collect();
    assert_eq!(
        server.registry().admission_state(&key),
        AdmissionState::Preparing,
        "submission must not wait for the prepare"
    );
    gate.wait();

    for (i, fut) in futures.into_iter().enumerate() {
        let resp = block_on(fut).expect("parked request completes");
        assert_eq!(resp.c, a.spmm_reference(&panel(64, i)), "request {i}");
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
    let a = matrix(48, 1);
    let key = server.warm_prepare(&a);
    // A second warm and a full register of the same matrix attach to the
    // same slot: exactly one preparation ever runs.
    assert_eq!(server.warm_prepare(&a), key);
    assert_eq!(server.register(&a), key);
    let resp = block_on(server.submit(key, panel(48, 0))).expect("serves");
    assert_eq!(resp.c, a.spmm_reference(&panel(48, 0)));
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
    let a = matrix(64, 0);
    let key = server.warm_prepare(&a);
    let futures: Vec<_> = (0..48).map(|i| server.submit(key, panel(64, i))).collect();
    let digests = futures
        .into_iter()
        .map(|fut| fnv(&block_on(fut).expect("recovery absorbs faults").c))
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
