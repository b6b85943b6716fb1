//! Cross-module serving-engine tests: get-or-prepare under real thread
//! contention, LRU eviction order, concurrent submission through the full
//! server, the batching bitwise-equality property, and a trace replay
//! that verifies every response and reproduces its end state.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use smat::{OverlaySnapshot, Smat, SmatConfig};
use smat_formats::{Coo, Csr, Dense, Element, F16};
use smat_gpusim::Gpu;
use smat_serve::{spmm_batched, MatrixKey, PreparedMatrixRegistry, Server, ServerConfig, Tenant};

mod common;
use common::replay::{config, replay_twice, spec, Mutations, Registration};
use common::{key_of, matrix, rhs};

#[test]
fn racing_get_or_prepare_runs_prepare_exactly_once() {
    const THREADS: usize = 8;
    let cfg = SmatConfig::default();
    let a = Arc::new(matrix(96, 0));
    let key = key_of(&a, &cfg);
    let registry: Arc<PreparedMatrixRegistry<F16>> = Arc::new(PreparedMatrixRegistry::new(4));
    let closure_runs = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (registry, a, cfg, runs, barrier) = (
                Arc::clone(&registry),
                Arc::clone(&a),
                cfg.clone(),
                Arc::clone(&closure_runs),
                Arc::clone(&barrier),
            );
            std::thread::spawn(move || {
                barrier.wait(); // maximize the race window
                let (tenant, _) = registry.get_or_prepare(key, || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Tenant::unsharded(key, Smat::prepare(&a, cfg))
                });
                tenant.shards()[0].clone()
            })
        })
        .collect();
    let smats: Vec<Smat<F16>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    assert_eq!(closure_runs.load(Ordering::SeqCst), 1, "duplicate prepare");
    assert_eq!(registry.stats().prepares, 1);
    // Every thread got the same underlying prepared state, not a copy.
    for s in &smats[1..] {
        assert!(std::ptr::eq(smats[0].bcsr(), s.bcsr()));
    }
    // All THREADS lookups are accounted: one miss admitted the slot, the
    // rest were hits on the already-admitted key.
    let stats = registry.stats();
    assert_eq!(stats.hits + stats.misses, THREADS as u64);
    assert_eq!(stats.misses, 1);
}

#[test]
fn racing_prepares_of_distinct_matrices_do_not_serialize_lookups() {
    // Two keys prepared concurrently: each runs once, neither blocks the
    // other's completion (prepare executes outside the registry lock).
    let cfg = SmatConfig::default();
    let a0 = Arc::new(matrix(96, 0));
    let a1 = Arc::new(matrix(96, 7));
    let (k0, k1) = (key_of(&a0, &cfg), key_of(&a1, &cfg));
    let registry: Arc<PreparedMatrixRegistry<F16>> = Arc::new(PreparedMatrixRegistry::new(4));
    let barrier = Arc::new(Barrier::new(2));

    let spawn = |key: MatrixKey, a: Arc<Csr<F16>>| {
        let (registry, cfg, barrier) = (Arc::clone(&registry), cfg.clone(), Arc::clone(&barrier));
        std::thread::spawn(move || {
            barrier.wait();
            registry
                .get_or_prepare(key, || Tenant::unsharded(key, Smat::prepare(&a, cfg)))
                .0
        })
    };
    let h0 = spawn(k0, Arc::clone(&a0));
    let h1 = spawn(k1, Arc::clone(&a1));
    h0.join().unwrap();
    h1.join().unwrap();
    assert_eq!(registry.stats().prepares, 2);
    assert_eq!(registry.len(), 2);
}

#[test]
fn lru_eviction_follows_access_recency_exactly() {
    let cfg = SmatConfig::default();
    let mats: Vec<Csr<F16>> = (0..4).map(|s| matrix(64, s)).collect();
    let keys: Vec<MatrixKey> = mats.iter().map(|a| key_of(a, &cfg)).collect();
    let registry: PreparedMatrixRegistry<F16> = PreparedMatrixRegistry::new(3);
    for (k, a) in keys.iter().zip(&mats).take(3) {
        registry.get_or_prepare(*k, || Tenant::unsharded(*k, Smat::prepare(a, cfg.clone())));
    }
    // Recency now 0 < 1 < 2. Touch 0 and 1; 2 becomes the victim.
    assert!(registry.get(&keys[0]).is_some());
    assert!(registry.get(&keys[1]).is_some());
    registry.get_or_prepare(keys[3], || {
        Tenant::unsharded(keys[3], Smat::prepare(&mats[3], cfg.clone()))
    });
    assert!(registry.get(&keys[2]).is_none(), "stalest entry evicted");
    for &i in &[0usize, 1, 3] {
        assert!(registry.get(&keys[i]).is_some(), "key {i} must survive");
    }
    assert_eq!(registry.stats().evictions, 1);
}

#[test]
fn concurrent_submitters_all_get_correct_products() {
    const THREADS: usize = 6;
    const PER_THREAD: usize = 20;
    let server: Arc<Server<F16>> = Arc::new(Server::new(ServerConfig {
        devices: 3,
        column_budget: 48,
        ..ServerConfig::default()
    }));
    let a0 = Arc::new(matrix(96, 0));
    let a1 = Arc::new(matrix(96, 5));
    let k0 = server.register(&a0);
    let k1 = server.register(&a1);
    let barrier = Arc::new(Barrier::new(THREADS));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (server, a0, a1, barrier) = (
                Arc::clone(&server),
                Arc::clone(&a0),
                Arc::clone(&a1),
                Arc::clone(&barrier),
            );
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..PER_THREAD {
                    let (a, k) = if (t + i) % 2 == 0 {
                        (&a0, k0)
                    } else {
                        (&a1, k1)
                    };
                    let b = rhs(96, 8 + 8 * (i % 3), t * 100 + i);
                    let want = a.spmm_reference(&b);
                    let resp = server.submit(k, b).wait().expect("served");
                    assert_eq!(resp.c, want, "thread {t} request {i}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.completed, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.registry.prepares, 2);
    assert!(stats.registry.hit_rate() > 0.9);
}

/// Strategy: a square sparse matrix dimension, entry set, and 1–5 panel
/// widths for the batched-vs-solo equality property.
fn batch_case() -> impl Strategy<Value = (Csr<F16>, Vec<usize>)> {
    (16usize..80)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(((0..n), (0..n), -4i32..=4), 1..240),
                proptest::collection::vec(1usize..24, 1..5),
                Just(n),
            )
        })
        .prop_map(|(entries, widths, n)| {
            let mut coo = Coo::new(n, n);
            for (i, j, v) in entries {
                if v != 0 {
                    coo.push(i, j, F16::from_f64(v as f64));
                }
            }
            (coo.to_csr(), widths)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batcher's core guarantee: concatenating panels, running one wide
    /// SpMM, and splitting the product back is *bitwise* identical to
    /// executing every request on its own.
    #[test]
    fn batched_then_split_is_bitwise_equal_to_solo_runs(case in batch_case()) {
        let (a, widths) = case;
        let smat = Smat::prepare(&a, SmatConfig::default());
        let gpu = Gpu::new(smat.config().device.clone());
        let panels: Vec<Dense<F16>> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| rhs(a.ncols(), w, 13 * i + 1))
            .collect();
        let refs: Vec<&Dense<F16>> = panels.iter().collect();
        let (batched, _) = spmm_batched(&smat, &gpu, &refs, &OverlaySnapshot::empty()).expect("batched launch");
        prop_assert_eq!(batched.len(), panels.len());
        for (got, b) in batched.iter().zip(&panels) {
            let solo = smat.try_spmm_on(&gpu, b).expect("solo launch");
            prop_assert_eq!(got, &solo.c);
        }
    }
}

#[test]
fn trace_replay_verifies_every_response_and_reproduces_its_end_state() {
    let first = replay_twice(config, &spec(200), Mutations::Overlay, Registration::Sync);
    let registry = first.stats.registry;
    assert!(registry.hits >= 1, "no registry cache hit: {registry:?}");
    assert!(
        registry.hit_rate() > 0.9,
        "hit rate {}",
        registry.hit_rate()
    );
}
