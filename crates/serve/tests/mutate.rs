//! Integration tests of the dynamic-matrix path: mutation → epoch-keyed
//! planning → background compaction, under real thread contention and
//! fault injection.
//!
//! The unit tests in `server.rs` / `registry.rs` / `plan.rs` cover each
//! layer alone; these tests drive the layers together:
//!
//! * the stale-plan regression through the full server (a mutated tenant's
//!   next request must re-plan, never launch under the pre-mutation plan),
//! * the eviction-during-compaction race (the compactor's pinned clone
//!   keeps the handle alive; the publish-if-same-handle check prevents
//!   resurrection),
//! * the chaos arm: a compaction killed mid-flight leaves the tenant
//!   serving its old epoch, byte-identically, and the single-flight guard
//!   resets so a later compaction can succeed,
//! * concurrent mutators racing auto-compaction converge to the oracle.
//!
//! The mutating trace replay is in `recorded.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use smat::{MatrixUpdate, Smat, SmatConfig};
use smat_formats::{Coo, Element, F16};
use smat_serve::{
    block_on, CompactionPolicy, PreparedMatrixRegistry, ServeError, Server, ServerConfig, Tenant,
};

mod common;
use common::{key_of, matrix, rhs};

#[test]
fn a_mutated_tenant_never_launches_under_a_stale_plan_end_to_end() {
    // Drive the PlanCache through the full server: same tenant, same RHS
    // width, before and after a mutation. The epoch-keyed plan entry must
    // miss after the mutation (a stale-geometry launch would reuse the old
    // entry and hit), and the served product must be the merged one.
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 1,
        compaction: CompactionPolicy {
            auto: false,
            ..CompactionPolicy::default()
        },
        ..ServerConfig::default()
    });
    let a = matrix(96, 0);
    let key = server.register(&a);
    let b = rhs(96, 8, 1);

    block_on(server.submit(key, b.clone())).unwrap();
    let misses_before = server.stats().plans.misses;
    block_on(server.submit(key, b.clone())).unwrap();
    assert_eq!(
        server.stats().plans.misses,
        misses_before,
        "an unmutated repeat at the same width is a plan hit"
    );

    server
        .mutate(
            key,
            &[MatrixUpdate::Update {
                row: 1,
                col: 2,
                value: F16::from_f64(4.0),
            }],
        )
        .unwrap();
    let resp = block_on(server.submit(key, b.clone())).unwrap();
    assert_eq!(
        server.stats().plans.misses,
        misses_before + 1,
        "the post-mutation request must re-plan under the new epoch"
    );
    let merged = Coo::with_overrides(&a, &[(1, 2, 4.0)]).to_csr();
    assert_eq!(resp.c, merged.spmm_reference(&b));
}

#[test]
fn eviction_during_compaction_keeps_the_pinned_handle_and_never_resurrects() {
    // The satellite-2 race: evict a tenant while its background compaction
    // is still reading the old handle. The compactor owns a clone, so the
    // prepare completes on live data; the publish-if-same-handle check then
    // discards the fresh handle instead of resurrecting the evicted key.
    let cfg = SmatConfig::default();
    let a = matrix(96, 0);
    let key = key_of(&a, &cfg);
    let registry: Arc<PreparedMatrixRegistry<F16>> = Arc::new(PreparedMatrixRegistry::new(4));
    registry.get_or_prepare(key, || {
        Tenant::unsharded(key, Smat::prepare(&a, cfg.clone()))
    });
    registry
        .peek(&key)
        .unwrap()
        .apply_updates(&[MatrixUpdate::Update {
            row: 0,
            col: 0,
            value: F16::from_f64(7.0),
        }]);

    // Two rendezvous points: the compactor signals it has started reading
    // the old handle, then waits until the eviction has happened before it
    // finishes the prepare and attempts to publish.
    let started = Arc::new(Barrier::new(2));
    let evicted = Arc::new(Barrier::new(2));
    let prepared_ok = Arc::new(AtomicBool::new(false));
    let (s, e, p) = (
        Arc::clone(&started),
        Arc::clone(&evicted),
        Arc::clone(&prepared_ok),
    );
    let spawned = registry.compact_prepare(key, move |old| {
        s.wait();
        e.wait();
        // The registry entry is gone by now; the pinned clone must still
        // be fully usable (merged_csr walks base + overlay).
        let merged = old.merged_csr();
        p.store(merged.nnz() > 0, Ordering::SeqCst);
        Smat::prepare(&merged, old.config().clone())
    });
    assert!(spawned, "compaction must start on a resident tenant");
    started.wait();
    assert!(registry.invalidate(&key), "evict mid-compaction");
    evicted.wait();
    registry.wait_compactions();

    assert!(
        prepared_ok.load(Ordering::SeqCst),
        "the compactor's pinned handle must survive the eviction"
    );
    assert!(
        registry.peek(&key).is_none(),
        "publishing after eviction would resurrect a forgotten tenant"
    );
    assert_eq!(registry.stats().compactions, 0, "nothing was published");
}

#[test]
fn a_compaction_killed_mid_flight_leaves_the_old_epoch_serving_byte_identically() {
    // Chaos arm: the prepare dies partway through. The tenant must keep
    // serving the pre-compaction handle (old epoch, overlay corrections
    // intact), two replays of the same request must be byte-identical, and
    // the single-flight guard must reset so a later compaction succeeds.
    let cfg = SmatConfig::default();
    let a = matrix(96, 3);
    let key = key_of(&a, &cfg);
    let registry: Arc<PreparedMatrixRegistry<F16>> = Arc::new(PreparedMatrixRegistry::new(4));
    registry.get_or_prepare(key, || {
        Tenant::unsharded(key, Smat::prepare(&a, cfg.clone()))
    });
    let handle = registry.peek(&key).unwrap();
    handle.apply_updates(&[
        MatrixUpdate::Update {
            row: 2,
            col: 2,
            value: F16::from_f64(5.0),
        },
        MatrixUpdate::Delete { row: 4, col: 12 },
    ]);
    let b = rhs(96, 8, 2);
    let before = handle.spmm(&b).c;

    let spawned = registry.compact_prepare(key, |_old| {
        panic!("fault injected mid-compaction");
    });
    assert!(spawned);
    registry.wait_compactions();

    let after = registry.peek(&key).expect("tenant still resident");
    assert!(
        after.ptr_eq(&handle),
        "the failed compaction must not have swapped the handle"
    );
    assert_eq!(after.overlay_epoch(), 2, "old epoch keeps serving");
    assert_eq!(after.spmm(&b).c, before, "replay is byte-identical");
    assert_eq!(after.spmm(&b).c, before, "and stays so on a second replay");
    assert_eq!(
        registry.stats().compactions,
        0,
        "a dead compaction counts nothing"
    );

    // The Unflag drop guard ran during the panic unwind: a retry compacts
    // normally and folds the overlay.
    let retried = registry.compact_prepare(key, |old| {
        Smat::prepare(&old.merged_csr(), old.config().clone())
    });
    assert!(retried, "single-flight guard must be clear after the panic");
    registry.wait_compactions();
    assert_eq!(registry.stats().compactions, 1);
    let fresh = registry.peek(&key).unwrap();
    assert_eq!(fresh.overlay_snapshot().correction_terms(), 0);
    assert_eq!(fresh.spmm(&b).c, before, "the fold preserves the product");
}

#[test]
fn concurrent_mutators_racing_auto_compaction_converge_to_the_oracle() {
    // Eight threads mutate disjoint cells of one tenant while the
    // structural trigger fires background compactions underneath them.
    // After quiescing, the served product must equal the oracle with every
    // cell applied — the mutate retry loop and the rebase between them may
    // not lose a single update.
    let server: Arc<Server<F16>> = Arc::new(Server::new(ServerConfig {
        devices: 2,
        compaction: CompactionPolicy {
            auto: true,
            min_overlay_cells: 1,
            overlay_nnz_fraction: 0.0,
            horizon: 256,
        },
        ..ServerConfig::default()
    }));
    let a = matrix(96, 0);
    let key = server.register(&a);

    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let (server, barrier) = (Arc::clone(&server), Arc::clone(&barrier));
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..4 {
                    let op = MatrixUpdate::Update {
                        row: t * 2,
                        col: i * 7,
                        value: F16::from_f64((t + i + 1) as f64),
                    };
                    server.mutate(key, std::slice::from_ref(&op)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.quiesce_compactions();

    let mut overrides: Vec<(usize, usize, f64)> = (0..THREADS)
        .flat_map(|t| (0..4).map(move |i| (t * 2, i * 7, (t + i + 1) as f64)))
        .collect();
    overrides.sort_unstable_by_key(|&(r, c, _)| (r, c));
    let merged = Coo::with_overrides(&a, &overrides).to_csr();
    let b = rhs(96, 16, 5);
    assert_eq!(
        block_on(server.submit(key, b.clone())).unwrap().c,
        merged.spmm_reference(&b),
        "every concurrently applied update must be visible"
    );
    let stats = server.stats();
    assert_eq!(stats.mutations, (THREADS * 4) as u64);
    // Across swaps the epoch is merged with `max` (a retried op counts on
    // both sides, an op folded by a compaction counts on the retired one),
    // so the exact value is schedule-dependent — but it can never exceed
    // the op count and never return to zero while updates are live.
    let epoch = server.registry().peek(&key).unwrap().overlay_epoch();
    assert!(
        (1..=(THREADS * 4) as u64).contains(&epoch),
        "epoch {epoch} out of range"
    );
}

#[test]
fn mutating_an_evicted_tenant_reports_unknown_not_stale_state() {
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 1,
        ..ServerConfig::default()
    });
    let a = matrix(64, 0);
    let key = server.register(&a);
    assert!(server.invalidate(&key));
    assert!(matches!(
        server.mutate(key, &[MatrixUpdate::Delete { row: 0, col: 0 }],),
        Err(ServeError::UnknownMatrix)
    ));
}
