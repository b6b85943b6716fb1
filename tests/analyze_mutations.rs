//! Mutation coverage for the `smat-analyze` format verifiers: start from a
//! random *valid* matrix, corrupt exactly one invariant dimension of its
//! raw parts, and assert the verifier reports the matching diagnostic code.
//! The dual direction is covered too: every conversion roundtrip the
//! pipeline uses (CSR ↔ BCSR ↔ COO, plus SR-BCRS) must stay
//! verifier-clean.
//!
//! The same discipline extends to the `smat-sanitize` concurrency codes
//! (C001–C008, see the `concurrency` module at the bottom): start from a
//! *correct* lock-order graph or synchronization protocol, mutate exactly
//! one aspect (reverse one acquisition edge, move the predicate check out
//! from under the mutex, drop the lock around a read-modify-write, add a
//! second writer), and assert the matching analysis — lockdep or the
//! interleaving model checker — fires the matching code, while the
//! unmutated original stays clean.

use proptest::prelude::*;
use smat_analyze::{
    verify_bcsr, verify_coo, verify_csr, verify_entries, verify_permutation, verify_srbcrs,
    DiagCode, DiagnosticsExt,
};
use smat_formats::{Bcsr, Coo, Csr, Element, Permutation, SrBcrs, F16};

/// Strategy: a random sparse matrix with at least one nonzero, so every
/// mutation below has something to corrupt.
fn nonempty_matrix() -> impl Strategy<Value = Csr<F16>> {
    (2usize..40, 2usize..40).prop_flat_map(|(r, c)| {
        proptest::collection::vec(((0..r), (0..c), 1i32..=4), 1..120).prop_map(move |entries| {
            let mut coo = Coo::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, F16::from_f64(f64::from(v)));
            }
            coo.to_csr()
        })
    })
}

/// A seeded permutation of `0..n` (Fisher–Yates over a simple LCG).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_add(11);
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        idx.swap(i, j);
    }
    idx
}

/// Raw CSR parts of a valid matrix, ready to be corrupted.
fn parts(a: &Csr<F16>) -> (Vec<usize>, Vec<usize>, Vec<F16>) {
    (
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.values().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- CSR structural mutations: one invariant, one exact code ----

    #[test]
    fn truncated_row_ptr_fires_f001(a in nonempty_matrix()) {
        let (mut rp, ci, vs) = parts(&a);
        rp.pop();
        let err = Csr::try_from_raw(a.nrows(), a.ncols(), rp, ci, vs).unwrap_err();
        prop_assert_eq!(err.codes(), vec![DiagCode::RowPtrLength]);
    }

    #[test]
    fn shifted_row_ptr_start_fires_f002(a in nonempty_matrix()) {
        let (mut rp, ci, vs) = parts(&a);
        rp[0] += 1;
        let err = Csr::try_from_raw(a.nrows(), a.ncols(), rp, ci, vs).unwrap_err();
        prop_assert!(err.codes().contains(&DiagCode::RowPtrStart), "{err:?}");
    }

    #[test]
    fn wrong_row_ptr_end_fires_f003(a in nonempty_matrix()) {
        let (mut rp, ci, vs) = parts(&a);
        *rp.last_mut().unwrap() += 1;
        let err = Csr::try_from_raw(a.nrows(), a.ncols(), rp, ci, vs).unwrap_err();
        prop_assert!(err.codes().contains(&DiagCode::RowPtrEnd), "{err:?}");
    }

    #[test]
    fn non_monotone_row_ptr_fires_f004(a in nonempty_matrix()) {
        let (mut rp, ci, vs) = parts(&a);
        // nnz >= 1 guarantees a strictly increasing adjacent pair to swap.
        let i = (0..a.nrows()).find(|&i| rp[i] < rp[i + 1]).unwrap();
        rp.swap(i, i + 1);
        let err = Csr::try_from_raw(a.nrows(), a.ncols(), rp, ci, vs).unwrap_err();
        prop_assert!(err.codes().contains(&DiagCode::RowPtrNonMonotone), "{err:?}");
    }

    #[test]
    fn out_of_bounds_col_idx_fires_f005(a in nonempty_matrix(), pick in 0usize..1000) {
        let (rp, mut ci, vs) = parts(&a);
        let k = pick % ci.len();
        // Adding ncols keeps the row strictly increasing at k but pushes the
        // index out of range, so F005 is the only structural violation.
        ci[k] += a.ncols();
        let err = Csr::try_from_raw(a.nrows(), a.ncols(), rp, ci, vs).unwrap_err();
        prop_assert!(err.codes().contains(&DiagCode::ColIdxOutOfBounds), "{err:?}");
    }

    #[test]
    fn unsorted_col_idx_fires_f006(a in nonempty_matrix()) {
        let (rp, mut ci, vs) = parts(&a);
        // Duplicate the first entry of a row holding at least two; skip the
        // (rare) draws where every row has a single nonzero.
        let Some(i) = (0..a.nrows()).find(|&i| rp[i + 1] - rp[i] >= 2) else {
            return;
        };
        ci[rp[i] + 1] = ci[rp[i]];
        let err = Csr::try_from_raw(a.nrows(), a.ncols(), rp, ci, vs).unwrap_err();
        prop_assert!(err.codes().contains(&DiagCode::ColIdxUnsorted), "{err:?}");
    }

    #[test]
    fn values_arity_mismatch_fires_f007(a in nonempty_matrix()) {
        let (rp, ci, mut vs) = parts(&a);
        vs.pop();
        let err = Csr::try_from_raw(a.nrows(), a.ncols(), rp, ci, vs).unwrap_err();
        prop_assert_eq!(err.codes(), vec![DiagCode::ArityMismatch]);
    }

    // ---- Payload mutations: structure stays valid, values go bad ----

    #[test]
    fn nan_payload_fires_f008_at_the_poisoned_position(
        a in nonempty_matrix(), pick in 0usize..1000
    ) {
        let (rp, ci, mut vs) = parts(&a);
        let k = pick % vs.len();
        vs[k] = F16::from_f32(f32::NAN);
        let poisoned = Csr::try_from_raw(a.nrows(), a.ncols(), rp, ci, vs).unwrap();
        let diags = verify_csr(&poisoned);
        prop_assert_eq!(diags.codes(), vec![DiagCode::NonFinitePayload]);
        // The BCSR built from it must flag the same poison.
        let bcsr = Bcsr::from_csr(&poisoned, 4, 4);
        prop_assert!(
            verify_bcsr(&bcsr).codes().contains(&DiagCode::NonFinitePayload)
        );
    }

    // ---- BCSR mutations ----

    #[test]
    fn zero_block_dim_fires_f010(a in nonempty_matrix()) {
        let b = Bcsr::from_csr(&a, 4, 4);
        let err = Bcsr::<F16>::try_from_raw(
            a.nrows(), a.ncols(), 0, 4,
            b.row_ptr().to_vec(), b.col_idx().to_vec(), b.values().to_vec(), b.nnz(),
        ).unwrap_err();
        prop_assert_eq!(err.codes(), vec![DiagCode::BlockDimZero]);
    }

    #[test]
    fn truncated_block_payload_fires_f007(a in nonempty_matrix()) {
        let b = Bcsr::from_csr(&a, 4, 4);
        let mut vs = b.values().to_vec();
        vs.pop();
        let err = Bcsr::<F16>::try_from_raw(
            a.nrows(), a.ncols(), 4, 4,
            b.row_ptr().to_vec(), b.col_idx().to_vec(), vs, b.nnz(),
        ).unwrap_err();
        prop_assert_eq!(err.codes(), vec![DiagCode::ArityMismatch]);
    }

    #[test]
    fn inflated_nnz_fires_f011(a in nonempty_matrix()) {
        let b = Bcsr::from_csr(&a, 4, 4);
        let err = Bcsr::<F16>::try_from_raw(
            a.nrows(), a.ncols(), 4, 4,
            b.row_ptr().to_vec(), b.col_idx().to_vec(), b.values().to_vec(),
            b.values().len() + 1,
        ).unwrap_err();
        prop_assert_eq!(err.codes(), vec![DiagCode::NnzInconsistent]);
    }

    // ---- Permutation mutations ----

    #[test]
    fn out_of_range_image_fires_f012(n in 2usize..50, seed in 0u64..1000, pick in 0usize..1000) {
        let mut idx = shuffled(n, seed);
        let i = pick % n;
        idx[i] = n + pick;
        let err = Permutation::try_from_vec(idx).unwrap_err();
        prop_assert_eq!(err.codes(), vec![DiagCode::PermOutOfRange]);
    }

    #[test]
    fn duplicate_image_fires_f013(n in 2usize..50, seed in 0u64..1000, pick in 0usize..1000) {
        let mut idx = shuffled(n, seed);
        let i = pick % (n - 1);
        idx[i + 1] = idx[i];
        let err = Permutation::try_from_vec(idx).unwrap_err();
        prop_assert_eq!(err.codes(), vec![DiagCode::PermDuplicate]);
    }

    #[test]
    fn length_mismatch_fires_f014(n in 1usize..50, seed in 0u64..1000) {
        let p = Permutation::from_vec(shuffled(n, seed));
        prop_assert!(verify_permutation(&p, Some(n)).is_empty());
        let diags = verify_permutation(&p, Some(n + 1));
        prop_assert_eq!(diags.codes(), vec![DiagCode::PermLengthMismatch]);
    }

    // ---- Raw-triplet mutations ----

    #[test]
    fn out_of_bounds_entry_fires_f016(a in nonempty_matrix(), pick in 0usize..1000) {
        let mut entries: Vec<(usize, usize, F16)> = a.iter().collect();
        let k = pick % entries.len();
        entries[k].0 += a.nrows();
        let diags = verify_entries(a.nrows(), a.ncols(), &entries);
        prop_assert_eq!(diags.codes(), vec![DiagCode::EntryOutOfBounds]);
    }

    #[test]
    fn duplicated_entry_warns_f017(a in nonempty_matrix(), pick in 0usize..1000) {
        let mut entries: Vec<(usize, usize, F16)> = a.iter().collect();
        let k = pick % entries.len();
        entries.push(entries[k]);
        let diags = verify_entries(a.nrows(), a.ncols(), &entries);
        prop_assert_eq!(diags.codes(), vec![DiagCode::DuplicateEntry]);
        // Duplicates are a warning (COO accumulates them), never an error.
        prop_assert!(!diags.has_errors());
    }

    // ---- Conversion roundtrips stay verifier-clean ----

    #[test]
    fn every_conversion_roundtrip_is_verifier_clean(
        a in nonempty_matrix(), h in 1usize..9, w in 1usize..9
    ) {
        prop_assert!(verify_csr(&a).is_empty());

        let bcsr = Bcsr::from_csr(&a, h, w);
        prop_assert!(verify_bcsr(&bcsr).is_empty());
        let back = bcsr.to_csr();
        prop_assert!(verify_csr(&back).is_empty());
        prop_assert_eq!(&back, &a);

        let coo = a.to_coo();
        prop_assert!(verify_coo(&coo).is_empty());
        prop_assert!(verify_csr(&coo.to_csr()).is_empty());
    }

    #[test]
    fn srbcrs_conversion_is_verifier_clean(
        a in nonempty_matrix(), v in 1usize..10, s in 1usize..6
    ) {
        let sr = SrBcrs::from_csr(&a.cast::<i16>(), v, s);
        prop_assert!(verify_srbcrs(&sr).is_empty());
        prop_assert!(verify_csr(&sr.to_csr()).is_empty());
    }
}

// ---------------------------------------------------------------------
// Concurrency codes C001–C008: mutate one aspect of a correct protocol
// ---------------------------------------------------------------------

mod concurrency {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use proptest::prelude::*;
    use smat_sanitize::sync::{AtomicBool, Condvar, Mutex};
    use smat_sanitize::{model, DiagCode, DiagnosticsExt, LockOrderGraph, ModelConfig};

    use crate::shuffled;

    /// A random *acyclic* lock-order graph: nodes `0..n` are a valid
    /// global acquisition order and every generated edge points forward
    /// along it, plus its forward edge list. The analyzer must accept any
    /// such graph; reversing any single edge must make it reject.
    fn random_dag(n: usize, seed: u64) -> (LockOrderGraph, Vec<(usize, usize)>) {
        let mut g = LockOrderGraph::new();
        for i in 0..n {
            g.add_node(format!("lock{i}"));
        }
        let mut edges = Vec::new();
        let picks = shuffled(n * n, seed);
        for &p in picks.iter().take(2 * n) {
            let (a, b) = (p / n, p % n);
            if a < b {
                g.add_edge(a, b);
                edges.push((a, b));
            }
        }
        if edges.is_empty() {
            g.add_edge(0, n - 1);
            edges.push((0, n - 1));
        }
        (g, edges)
    }

    /// The wait protocol under the model checker: when `under_mutex` the
    /// predicate is checked (and re-checked) while holding the mutex —
    /// correct; the mutation samples it through an atomic *before* taking
    /// the mutex, opening the classic lost-wakeup window.
    fn wait_protocol(under_mutex: bool, seed: u64) -> smat_sanitize::ModelReport {
        let cfg = ModelConfig {
            seed,
            ..ModelConfig::named("mutation.wait")
        };
        model::check(cfg, move || {
            let flag = Arc::new(AtomicBool::new(false));
            let pair = Arc::new((Mutex::labeled("mutation.wait.m", false), Condvar::new()));
            let (flag2, pair2) = (Arc::clone(&flag), Arc::clone(&pair));
            let waiter = model::spawn(move || {
                let (m, cv) = &*pair2;
                if under_mutex {
                    let mut g = m.lock_or_recover();
                    while !*g {
                        g = cv.wait(g);
                    }
                } else if !flag2.load(Ordering::SeqCst) {
                    // MUTATION: predicate sampled outside the mutex and
                    // never re-checked under it.
                    let g = m.lock_or_recover();
                    let _g = cv.wait(g);
                }
            });
            let signaler = model::spawn(move || {
                let (m, cv) = &*pair;
                *m.lock_or_recover() = true;
                flag.store(true, Ordering::SeqCst);
                cv.notify_all();
            });
            signaler.join();
            drop(waiter);
        })
    }

    /// Two increments of a shared counter under the model checker: the
    /// correct version holds the mutex across the whole read-modify-write;
    /// the mutation releases it between the read and the write.
    fn rmw_protocol(atomic_rmw: bool, seed: u64) -> smat_sanitize::ModelReport {
        let cfg = ModelConfig {
            seed,
            ..ModelConfig::named("mutation.rmw")
        };
        model::check(cfg, move || {
            let n = Arc::new(Mutex::labeled("mutation.rmw.n", 0u32));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let n = Arc::clone(&n);
                    model::spawn(move || {
                        if atomic_rmw {
                            *n.lock_or_recover() += 1;
                        } else {
                            // MUTATION: lock dropped between read and write.
                            let v = *n.lock_or_recover();
                            model::yield_now();
                            *n.lock_or_recover() = v + 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*n.lock_or_recover(), 2, "lost update");
        })
    }

    /// Two threads taking two locks under the model checker: consistent
    /// acquisition order when `consistent`, the AB-BA mutation otherwise.
    fn two_lock_protocol(consistent: bool, seed: u64) -> smat_sanitize::ModelReport {
        let cfg = ModelConfig {
            seed,
            ..ModelConfig::named("mutation.two_lock")
        };
        model::check(cfg, move || {
            let a = Arc::new(Mutex::labeled("mutation.two_lock.a", ()));
            let b = Arc::new(Mutex::labeled("mutation.two_lock.b", ()));
            let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
            let t1 = model::spawn(move || {
                let _ga = a1.lock_or_recover();
                let _gb = b1.lock_or_recover();
            });
            let t2 = model::spawn(move || {
                if consistent {
                    let _ga = a.lock_or_recover();
                    let _gb = b.lock_or_recover();
                } else {
                    // MUTATION: contradicting acquisition order.
                    let _gb = b.lock_or_recover();
                    let _ga = a.lock_or_recover();
                }
            });
            t1.join();
            t2.join();
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // ---- C001 / C004: lock-order graph mutations ----

        #[test]
        fn reversing_one_dag_edge_fires_c001(
            n in 3usize..10, seed in 0u64..10_000, pick in 0usize..1000
        ) {
            let (mut g, edges) = random_dag(n, seed);
            prop_assert!(g.analyze().is_empty(), "forward-ordered graph is clean");
            let (a, b) = edges[pick % edges.len()];
            g.add_edge(b, a);
            prop_assert_eq!(g.analyze().codes(), vec![DiagCode::LockOrderCycle]);
        }

        #[test]
        fn adding_one_self_edge_fires_c004(
            n in 3usize..10, seed in 0u64..10_000, pick in 0usize..1000
        ) {
            let (mut g, _) = random_dag(n, seed);
            g.add_edge(pick % n, pick % n);
            let diags = g.analyze();
            prop_assert_eq!(diags.codes(), vec![DiagCode::DoubleAcquire]);
            prop_assert!(diags[0].message.contains(&format!("lock{}", pick % n)));
        }

        // ---- C005: acquisition-order mutation under the model ----

        #[test]
        fn reversing_the_acquisition_order_fires_c005(seed in 0u64..10_000) {
            let clean = two_lock_protocol(true, seed);
            prop_assert!(clean.is_clean(), "{clean:?}");
            let buggy = two_lock_protocol(false, seed);
            prop_assert!(
                buggy.findings.codes().contains(&DiagCode::ModelDeadlock),
                "expected C005 in {buggy:?}"
            );
        }

        // ---- C006: predicate-outside-the-mutex mutation ----

        #[test]
        fn hoisting_the_predicate_out_of_the_mutex_fires_c006(seed in 0u64..10_000) {
            let clean = wait_protocol(true, seed);
            prop_assert!(clean.is_clean(), "{clean:?}");
            prop_assert!(clean.exhausted, "{}", clean.summary());
            let buggy = wait_protocol(false, seed);
            prop_assert!(
                buggy.findings.codes().contains(&DiagCode::ModelLostWakeup),
                "expected C006 in {buggy:?}"
            );
        }

        // ---- C007: splitting the read-modify-write mutation ----

        #[test]
        fn splitting_the_rmw_critical_section_fires_c007(seed in 0u64..10_000) {
            let clean = rmw_protocol(true, seed);
            prop_assert!(clean.is_clean(), "{clean:?}");
            let buggy = rmw_protocol(false, seed);
            prop_assert!(
                buggy.findings.codes().contains(&DiagCode::ModelInvariantViolation),
                "expected C007 in {buggy:?}"
            );
        }

        // ---- C008: shrinking the schedule budget until it truncates ----

        #[test]
        fn shrinking_the_schedule_budget_fires_the_c008_note(
            budget in 1usize..4, seed in 0u64..10_000
        ) {
            let run = |max_schedules| {
                let cfg = ModelConfig {
                    max_schedules,
                    random_walks: 2,
                    seed,
                    ..ModelConfig::named("mutation.budget")
                };
                model::check(cfg, || {
                    let n = Arc::new(smat_sanitize::sync::AtomicU32::new(0));
                    let hs: Vec<_> = (0..3)
                        .map(|_| {
                            let n = Arc::clone(&n);
                            model::spawn(move || {
                                n.fetch_add(1, Ordering::SeqCst);
                            })
                        })
                        .collect();
                    for h in hs {
                        h.join();
                    }
                })
            };
            let generous = run(4096);
            prop_assert!(generous.exhausted, "{}", generous.summary());
            prop_assert!(generous.findings.is_empty(), "{generous:?}");
            let truncated = run(budget);
            prop_assert!(!truncated.exhausted);
            prop_assert_eq!(
                truncated.findings.codes(),
                vec![DiagCode::ModelExplorationTruncated]
            );
            prop_assert!(truncated.is_clean(), "a C008 note is not a failure");
        }
    }

    // C002 and C003 are runtime findings of the process-global lockdep
    // engine, so both scenarios live in one sequential test: enabling the
    // engine is process-wide and two concurrent enable/reset cycles would
    // race. The mutation in both is the same single aspect: a blocking
    // wait entered while a lock the wakeup path needs is still held.
    #[test]
    fn blocking_while_holding_a_lock_fires_c002_and_c003() {
        smat_sanitize::reset();
        smat_sanitize::enable();

        // C003: a park-style wait checkpoint with a checked lock held.
        let held = Mutex::labeled("mutation.park.held", ());
        {
            let _g = held.lock_or_recover();
            smat_sanitize::check_park("mutation.park");
        }

        // C002: a condvar wait entered while a *different* mutex is held.
        // The notifier hammers notify_all so the waiter always wakes up
        // regardless of how the two threads interleave.
        let outer = Mutex::labeled("mutation.cv.outer", ());
        let pair = Arc::new((Mutex::labeled("mutation.cv.inner", ()), Condvar::new()));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (pair2, done2) = (Arc::clone(&pair), Arc::clone(&done));
        let notifier = std::thread::spawn(move || {
            while !done2.load(Ordering::SeqCst) {
                pair2.1.notify_all();
                std::thread::yield_now();
            }
        });
        {
            let _o = outer.lock_or_recover();
            let g = pair.0.lock_or_recover();
            let _g = pair.1.wait(g);
        }
        done.store(true, Ordering::SeqCst);
        notifier.join().unwrap();

        smat_sanitize::disable();
        let findings = smat_sanitize::report();
        smat_sanitize::reset();
        let codes = findings.codes();
        assert!(
            codes.contains(&DiagCode::LockHeldAcrossPark),
            "expected C003 in {findings:?}"
        );
        assert!(
            codes.contains(&DiagCode::CondvarWaitHoldingLock),
            "expected C002 in {findings:?}"
        );
    }
}
