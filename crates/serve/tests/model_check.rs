//! Deterministic model checking of the serving protocols.
//!
//! These tests run the three protocol cores of `smat-serve` under the
//! `smat-sanitize` interleaving model checker:
//!
//! 1. the [`ParkSlot`] publish-then-drain parking protocol (the heart of
//!    `get_or_park` / `wait_ready`),
//! 2. the warm-prepare single-producer invariant (a foreground
//!    `get_or_prepare` attaching to an in-flight warm prepare never
//!    duplicates the prepare),
//! 3. the circuit breaker's single-writer transition sequence,
//! 4. the worker wait loop against `Server::resume`: the resume wake-up
//!    reaches a worker that tested `paused` just before it.
//!
//! Each clean protocol must be explored exhaustively within the preemption
//! bound, or cap-bounded with the cap logged through the `C008` truncation
//! note. The final test is the counterexample: it hands the breaker a
//! *second* writer and the checker finds the schedule on which the
//! trip disappears — the reason the server keeps breakers single-writer.
//!
//! The dynamic-matrix additions model the **compaction epoch-swap**
//! protocol of `PreparedMatrixRegistry::compact_prepare` (snapshot →
//! prepare → publish-if-same-handle → rebase) against the mutation retry
//! loop of `Server::mutate` (apply → re-check current handle → retry onto
//! the fresh one): no update is ever lost, the newest write wins over the
//! rebase, and a reader never observes a torn (published-but-unfolded)
//! handle — also for a two-shard tenant whose compaction swaps one shard
//! while a mutator writes both. Two counterexamples close the suite:
//! rebase-by-overwrite loses the newest write, and publish-before-fold is a
//! torn read.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use smat_sanitize::sync::{AtomicBool, AtomicU32, Condvar, Mutex};
use smat_sanitize::{model, DiagCode, DiagnosticsExt, ModelConfig, ModelReport};
use smat_serve::{CircuitBreaker, ParkSlot};

/// Asserts the protocol came back clean: zero error-severity findings, and
/// either the bounded space was exhausted or the truncation cap was logged
/// via the C008 note (whose message states the budget).
fn assert_clean(report: &ModelReport) {
    println!("{}", report.summary());
    assert!(report.is_clean(), "{report:?}");
    assert!(report.findings.iter().all(|d| !d.is_error()), "{report:?}");
    if !report.exhausted {
        assert!(
            report
                .findings
                .codes()
                .contains(&DiagCode::ModelExplorationTruncated),
            "truncated exploration must carry the C008 cap note: {report:?}"
        );
    }
}

#[test]
fn park_slot_publish_then_drain_is_race_free_under_the_model() {
    // Three threads over the full slot need more than the default DFS
    // budget to exhaust the preemption-bounded space.
    let cfg = ModelConfig {
        max_schedules: 40_000,
        ..ModelConfig::named("serve.parkslot")
    };
    let report = model::check(cfg, || {
        let slot: Arc<ParkSlot<u32>> = Arc::new(ParkSlot::new());
        let runs = Arc::new(AtomicU32::new(0));
        let delivered = Arc::new(AtomicU32::new(0));
        let (s1, r1) = (Arc::clone(&slot), Arc::clone(&runs));
        let f1 = model::spawn(move || {
            s1.fulfill(|| {
                r1.fetch_add(1, Ordering::SeqCst);
                7
            })
        });
        let (s2, r2) = (Arc::clone(&slot), Arc::clone(&runs));
        let f2 = model::spawn(move || {
            s2.fulfill(|| {
                r2.fetch_add(1, Ordering::SeqCst);
                7
            })
        });
        let (s3, d3) = (Arc::clone(&slot), Arc::clone(&delivered));
        let parker = model::spawn(move || {
            let d = Arc::clone(&d3);
            s3.park(Box::new(move |v| {
                assert_eq!(v, 7, "waiter saw an unpublished value");
                d.fetch_add(1, Ordering::SeqCst);
            }));
        });
        let ran1 = f1.join();
        let ran2 = f2.join();
        parker.join();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one produce runs");
        assert_eq!(
            u32::from(ran1) + u32::from(ran2),
            1,
            "exactly one fulfiller reports having produced"
        );
        assert_eq!(
            delivered.load(Ordering::SeqCst),
            1,
            "the parked waiter is served exactly once, never lost"
        );
        assert_eq!(slot.get(), Some(7));
    });
    assert_clean(&report);
    assert!(report.schedules > 1, "{}", report.summary());
}

#[test]
fn warm_prepare_attach_never_duplicates_the_prepare_under_the_model() {
    let report = model::check(ModelConfig::named("serve.warm_prepare"), || {
        let slot: Arc<ParkSlot<u32>> = Arc::new(ParkSlot::new());
        let runs = Arc::new(AtomicU32::new(0));
        // The background warm-prepare fulfiller.
        let (s1, r1) = (Arc::clone(&slot), Arc::clone(&runs));
        let warm = model::spawn(move || {
            s1.fulfill(|| {
                r1.fetch_add(1, Ordering::SeqCst);
                11
            });
        });
        // A foreground get_or_prepare racing it: it must either win the
        // producer race or attach and wait — never run a second prepare
        // after the first published.
        let (s2, r2) = (Arc::clone(&slot), Arc::clone(&runs));
        let attach = model::spawn(move || {
            s2.fulfill(|| {
                r2.fetch_add(1, Ordering::SeqCst);
                11
            });
            s2.get().expect("fulfill implies published")
        });
        warm.join();
        assert_eq!(attach.join(), 11);
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "warm + foreground prepare must collapse to one execution"
        );
    });
    assert_clean(&report);
}

#[test]
fn breaker_single_writer_trips_once_per_open_under_the_model() {
    let report = model::check(ModelConfig::named("serve.breaker"), || {
        let breaker = Arc::new(CircuitBreaker::new());
        let (b, trips, closes) = (
            Arc::clone(&breaker),
            Arc::new(AtomicU32::new(0)),
            Arc::new(AtomicU32::new(0)),
        );
        let (t, c) = (Arc::clone(&trips), Arc::clone(&closes));
        // The owning device's worker: the only writer, exactly as the
        // server wires it (hedge outcomes never touch a foreign breaker).
        let writer = model::spawn(move || {
            for _ in 0..3 {
                if b.record_failure(2) {
                    t.fetch_add(1, Ordering::SeqCst);
                }
            }
            if b.record_success() {
                c.fetch_add(1, Ordering::SeqCst);
            }
            for _ in 0..2 {
                if b.record_failure(2) {
                    t.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        // Concurrent dispatch-side readers must not perturb the writer's
        // transition sequence, under any schedule.
        let b2 = Arc::clone(&breaker);
        let reader = model::spawn(move || {
            let _ = b2.is_open();
            let _ = b2.is_open();
        });
        writer.join();
        reader.join();
        assert!(breaker.is_open(), "final failure streak leaves it open");
        assert_eq!(
            trips.load(Ordering::SeqCst),
            2,
            "exactly one trip per open period"
        );
        assert_eq!(closes.load(Ordering::SeqCst), 1, "one close per success");
    });
    assert_clean(&report);
}

/// One dynamic tenant's handle, reduced to a single conceptual cell: the
/// prepared base holds the cell value folded in at prepare time, the
/// overlay is an absolute override of it (`Smat`'s copy-on-write snapshot
/// collapses to a mutex here because the model checker serializes access),
/// and the epoch counts applied mutations.
struct CellHandle {
    /// Cell value folded into the prepared base (written once, before
    /// publish, by whoever prepares the handle).
    base: AtomicU32,
    /// Absolute overlay override of the cell, `0` = no override.
    overlay: Mutex<u32>,
    epoch: AtomicU32,
}

impl CellHandle {
    fn new(base: u32) -> CellHandle {
        CellHandle {
            base: AtomicU32::new(base),
            overlay: Mutex::labeled("model.cell_overlay", 0),
            epoch: AtomicU32::new(0),
        }
    }

    /// `Smat::apply_updates` for the one cell: absolute override + epoch
    /// bump under the overlay lock.
    fn apply(&self, value: u32) {
        let mut cell = self.overlay.lock().unwrap();
        *cell = value;
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// The served value of the cell: overlay override if present, folded
    /// base otherwise.
    fn value(&self) -> u32 {
        let cell = *self.overlay.lock().unwrap();
        if cell != 0 {
            cell
        } else {
            self.base.load(Ordering::SeqCst)
        }
    }
}

/// `Server::mutate`'s retry loop against the published-handle index:
/// apply to the current handle, then re-check — if a compaction swapped
/// mid-apply, re-apply the (absolute, hence idempotent) update to the
/// fresh handle.
fn model_mutate(handles: &[Arc<CellHandle>; 2], published: &AtomicU32, value: u32) {
    let mut h = published.load(Ordering::SeqCst) as usize;
    loop {
        handles[h].apply(value);
        let cur = published.load(Ordering::SeqCst) as usize;
        if cur == h {
            break;
        }
        h = cur;
    }
}

/// `compact_prepare`'s thread body: snapshot the old overlay, fold it into
/// a fresh base, publish, then rebase the old handle's *final* overlay
/// insert-if-absent (a racing mutator's retried write is strictly newer
/// and must win).
fn model_compact(old: &CellHandle, fresh: &CellHandle, published: &AtomicU32) {
    let snap = *old.overlay.lock().unwrap();
    let folded = if snap != 0 {
        snap
    } else {
        old.base.load(Ordering::SeqCst)
    };
    fresh.base.store(folded, Ordering::SeqCst);
    published.store(1, Ordering::SeqCst);
    // Rebase AFTER the swap is visible: any mutation ordered before its
    // mutator's re-check is in this final snapshot; any ordered after was
    // retried onto `fresh` directly.
    let last = *old.overlay.lock().unwrap();
    let last_epoch = old.epoch.load(Ordering::SeqCst);
    if last != 0 && last != snap {
        let mut cell = fresh.overlay.lock().unwrap();
        if *cell == 0 {
            *cell = last;
        }
    }
    fresh.epoch.fetch_max(last_epoch, Ordering::SeqCst);
}

#[test]
fn compaction_epoch_swap_loses_no_update_under_the_model() {
    // A mutator writing 5 then 7 races the full snapshot → fold → publish
    // → rebase sequence, with a concurrent reader. Invariants on every
    // schedule: the final published value is 7 (the newest write is never
    // lost to the swap and never overwritten by the rebase), the epoch
    // accounts for both mutations, and no read observes a torn handle
    // (a published-but-unfolded base would serve 0).
    let cfg = ModelConfig {
        max_schedules: 40_000,
        ..ModelConfig::named("serve.epoch_swap")
    };
    let report = model::check(cfg, || {
        let handles = [Arc::new(CellHandle::new(3)), Arc::new(CellHandle::new(0))];
        let published = Arc::new(AtomicU32::new(0));
        let (h1, p1) = (handles.clone(), Arc::clone(&published));
        let mutator = model::spawn(move || {
            model_mutate(&h1, &p1, 5);
            model_mutate(&h1, &p1, 7);
        });
        let (h2, p2) = (handles.clone(), Arc::clone(&published));
        let compactor = model::spawn(move || {
            model_compact(&h2[0], &h2[1], &p2);
        });
        let (h3, p3) = (handles.clone(), Arc::clone(&published));
        let reader = model::spawn(move || {
            // Pin the handle the way admission does, then read through it:
            // any epoch-consistent value is legal, a torn 0 never is.
            let pinned = &h3[p3.load(Ordering::SeqCst) as usize];
            let v = pinned.value();
            assert!(
                v == 3 || v == 5 || v == 7,
                "torn read: published handle served {v}"
            );
        });
        mutator.join();
        compactor.join();
        reader.join();
        let current = &handles[published.load(Ordering::SeqCst) as usize];
        assert_eq!(
            current.value(),
            7,
            "the newest write survives the swap on every schedule"
        );
        assert!(
            current.epoch.load(Ordering::SeqCst) >= 1,
            "the published epoch reflects the mutation history"
        );
    });
    assert_clean(&report);
    assert!(report.schedules > 1, "{}", report.summary());
}

/// The two versions of a two-shard tenant that a compaction of shard 0
/// moves between: version `v` serves shard `s` from
/// `handles[TENANTS[v][s]]`. Shard 1 had nothing to fold, so both versions
/// share its handle.
const TENANTS: [[usize; 2]; 2] = [[0, 2], [1, 2]];

/// `Server::mutate` for the part of a batch routed to `shard`: apply to the
/// shard's handle in the published tenant, then re-check that handle —
/// retrying onto the fresh one only if the compaction swapped this shard.
fn model_mutate_shard(
    handles: &[Arc<CellHandle>; 3],
    published: &AtomicU32,
    shard: usize,
    value: u32,
) {
    let mut h = TENANTS[published.load(Ordering::SeqCst) as usize][shard];
    loop {
        handles[h].apply(value);
        let cur = TENANTS[published.load(Ordering::SeqCst) as usize][shard];
        if cur == h {
            break;
        }
        h = cur;
    }
}

#[test]
fn compacting_one_shard_loses_no_update_to_either_shard_under_the_model() {
    // A two-shard tenant whose shard 0 carries a correction: compaction
    // re-prepares shard 0 only and publishes a tenant that keeps shard 1's
    // handle. A mutator writes both shards twice, racing the swap. On
    // every schedule both shards serve the newest write, and the clean
    // shard's writes land exactly once (nothing retries them).
    let cfg = ModelConfig {
        max_schedules: 40_000,
        ..ModelConfig::named("serve.epoch_swap_sharded")
    };
    let report = model::check(cfg, || {
        let handles = [
            Arc::new(CellHandle::new(3)),
            Arc::new(CellHandle::new(0)),
            Arc::new(CellHandle::new(4)),
        ];
        handles[0].apply(2);
        let published = Arc::new(AtomicU32::new(0));
        let (h1, p1) = (handles.clone(), Arc::clone(&published));
        let mutator = model::spawn(move || {
            for (v0, v1) in [(5, 6), (7, 8)] {
                model_mutate_shard(&h1, &p1, 0, v0);
                model_mutate_shard(&h1, &p1, 1, v1);
            }
        });
        let (h2, p2) = (handles.clone(), Arc::clone(&published));
        let compactor = model::spawn(move || {
            model_compact(&h2[0], &h2[1], &p2);
        });
        mutator.join();
        compactor.join();
        let tenant = TENANTS[published.load(Ordering::SeqCst) as usize];
        assert_eq!(handles[tenant[0]].value(), 7, "shard 0 lost a write");
        assert_eq!(handles[tenant[1]].value(), 8, "shard 1 lost a write");
        assert_eq!(handles[2].epoch.load(Ordering::SeqCst), 2);
    });
    assert_clean(&report);
    assert!(report.schedules > 1, "{}", report.summary());
}

#[test]
fn rebase_by_overwrite_loses_the_newest_write_and_the_model_proves_it() {
    // The counterexample behind insert-if-absent: if the rebase *overwrote*
    // the fresh overlay with the old handle's final snapshot, there is a
    // schedule where a mutator's retried newer write (7) lands on the
    // fresh handle first and the rebase then clobbers it with the stale
    // snapshot (5) — the newest update silently vanishes.
    let cfg = ModelConfig {
        max_schedules: 40_000,
        ..ModelConfig::named("serve.epoch_swap_overwrite")
    };
    let report = model::check(cfg, || {
        let handles = [Arc::new(CellHandle::new(3)), Arc::new(CellHandle::new(0))];
        let published = Arc::new(AtomicU32::new(0));
        let (h1, p1) = (handles.clone(), Arc::clone(&published));
        let mutator = model::spawn(move || {
            model_mutate(&h1, &p1, 5);
            model_mutate(&h1, &p1, 7);
        });
        let (h2, p2) = (handles.clone(), Arc::clone(&published));
        let compactor = model::spawn(move || {
            let (old, fresh) = (&h2[0], &h2[1]);
            let snap = *old.overlay.lock().unwrap();
            let folded = if snap != 0 {
                snap
            } else {
                old.base.load(Ordering::SeqCst)
            };
            fresh.base.store(folded, Ordering::SeqCst);
            p2.store(1, Ordering::SeqCst);
            let last = *old.overlay.lock().unwrap();
            if last != 0 {
                // BUG under test: unconditional overwrite instead of
                // insert-if-absent.
                *fresh.overlay.lock().unwrap() = last;
            }
        });
        mutator.join();
        compactor.join();
        let current = &handles[published.load(Ordering::SeqCst) as usize];
        assert_eq!(current.value(), 7, "newest write must win");
    });
    assert!(
        report
            .findings
            .codes()
            .contains(&DiagCode::ModelInvariantViolation),
        "expected the checker to find the clobbered-write schedule: {report:?}"
    );
    assert!(!report.is_clean());
}

#[test]
fn publishing_before_folding_is_a_torn_read_and_the_model_proves_it() {
    // The counterexample behind fold-then-publish: swap the published
    // index before storing the folded base and there is a schedule where
    // a reader pins the fresh handle with its base still unwritten — it
    // serves 0 for a cell that has been 3 since epoch zero.
    let report = model::check(ModelConfig::named("serve.epoch_swap_torn"), || {
        let handles = [Arc::new(CellHandle::new(3)), Arc::new(CellHandle::new(0))];
        let published = Arc::new(AtomicU32::new(0));
        let (h1, p1) = (handles.clone(), Arc::clone(&published));
        let compactor = model::spawn(move || {
            let (old, fresh) = (&h1[0], &h1[1]);
            // BUG under test: publish first, fold after.
            p1.store(1, Ordering::SeqCst);
            let folded = old.base.load(Ordering::SeqCst);
            fresh.base.store(folded, Ordering::SeqCst);
        });
        let (h2, p2) = (handles.clone(), Arc::clone(&published));
        let reader = model::spawn(move || {
            let pinned = &h2[p2.load(Ordering::SeqCst) as usize];
            let v = pinned.value();
            assert_ne!(v, 0, "published handle served an unfolded base");
        });
        compactor.join();
        reader.join();
    });
    assert!(
        report
            .findings
            .codes()
            .contains(&DiagCode::ModelInvariantViolation),
        "expected the checker to find the torn-read schedule: {report:?}"
    );
    assert!(!report.is_clean());
}

#[test]
fn a_second_breaker_writer_is_schedule_dependent_and_the_model_proves_it() {
    // The counterexample behind the single-writer rule: let a hedge lane
    // record its success on the home breaker and there is a schedule where
    // the success lands *between* two home failures, resetting the
    // consecutive count — the trip silently disappears, and with it the
    // replay determinism of `breaker_trips`.
    let report = model::check(ModelConfig::named("serve.breaker_two_writers"), || {
        let breaker = Arc::new(CircuitBreaker::new());
        let home = Arc::clone(&breaker);
        let w1 = model::spawn(move || {
            let t1 = home.record_failure(2);
            let t2 = home.record_failure(2);
            u32::from(t1) + u32::from(t2)
        });
        let hedge = Arc::clone(&breaker);
        let w2 = model::spawn(move || {
            let _ = hedge.record_success();
        });
        let trips = w1.join();
        w2.join();
        assert_eq!(trips, 1, "two consecutive failures must trip the breaker");
    });
    assert!(
        report
            .findings
            .codes()
            .contains(&DiagCode::ModelInvariantViolation),
        "expected the checker to find the lost-trip schedule: {report:?}"
    );
    assert!(!report.is_clean());
}

/// A worker's wait loop against `Server::resume`, reduced to one queued
/// request: the worker tests "queue non-empty and not paused" under its
/// queue lock and waits otherwise; the resumer clears `paused` and wakes
/// it, taking the queue lock first iff `lock_before_notify`. The worker is
/// not joined, so a wake-up it slept through shows as a lost wakeup.
fn resume_protocol(lock_before_notify: bool) -> ModelReport {
    model::check(ModelConfig::named("serve.resume"), move || {
        let paused = Arc::new(AtomicBool::new(true));
        let queue = Arc::new((Mutex::labeled("model.queue", 1u32), Condvar::new()));
        let (p, q) = (Arc::clone(&paused), Arc::clone(&queue));
        let worker = model::spawn(move || {
            let (m, cv) = &*q;
            let mut queued = m.lock_or_recover();
            while *queued == 0 || p.load(Ordering::SeqCst) {
                queued = cv.wait(queued);
            }
            *queued -= 1;
        });
        paused.store(false, Ordering::SeqCst);
        let (m, cv) = &*queue;
        if lock_before_notify {
            drop(m.lock_or_recover());
        }
        cv.notify_all();
        drop(worker);
    })
}

#[test]
fn resume_wakes_a_worker_that_just_saw_the_pause_under_the_model() {
    assert_clean(&resume_protocol(true));
}

#[test]
fn resume_without_the_queue_lock_loses_the_wakeup_and_the_model_proves_it() {
    // The counterexample behind `Server::wake_workers`: notifying without
    // the queue lock lands between the worker's `paused` test and its
    // wait, and the worker sleeps forever with a request in its queue.
    let report = resume_protocol(false);
    assert!(
        report.findings.codes().contains(&DiagCode::ModelLostWakeup),
        "expected the checker to find the lost resume wake-up: {report:?}"
    );
    assert!(!report.is_clean());
}
