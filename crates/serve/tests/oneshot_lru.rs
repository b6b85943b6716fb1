//! Concurrency edge cases for the oneshot channel and a model-based
//! property test for [`LruMap`].
//!
//! The oneshot tests target the two transitions that only happen under
//! scheduling pressure: a sender dropped while the receiving task is parked
//! inside `poll` (must wake with `None`, not hang), and the wake-vs-fulfill
//! race where the send lands in the window between a `Poll::Pending` return
//! and the thread parking. The LRU test drives `LruMap` and a naive
//! reference model with the same randomized operation sequence and demands
//! identical observable behavior at every step.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;
use smat::LruMap;
use smat_serve::oneshot::{block_on, channel};

#[test]
fn sender_dropped_while_receiver_parked_in_poll() {
    // The receiver must first register its waker (returning Pending and
    // parking), *then* lose the sender. A sleep before the drop makes the
    // parked-in-poll interleaving overwhelmingly likely; correctness does
    // not depend on it (the drop wakes the waker either way).
    let (tx, rx) = channel::<u32>();
    let parked = Arc::new(AtomicBool::new(false));
    let parked2 = Arc::clone(&parked);
    let waiter = std::thread::spawn(move || {
        parked2.store(true, Ordering::Release);
        block_on(rx)
    });
    while !parked.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(30));
    drop(tx);
    assert_eq!(
        waiter.join().expect("receiver thread must not panic"),
        None,
        "dropping the sender must resolve a parked receiver to None"
    );
}

#[test]
fn concurrent_drop_and_wait_never_hangs() {
    // Same transition with no deliberate staggering: racing `wait` against
    // the drop across many iterations exercises both orders.
    for i in 0..200 {
        let (tx, rx) = channel::<u32>();
        let barrier = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&barrier);
        let dropper = std::thread::spawn(move || {
            b2.wait();
            if i % 2 == 0 {
                std::thread::yield_now();
            }
            drop(tx);
        });
        barrier.wait();
        assert_eq!(rx.wait(), None);
        dropper.join().unwrap();
    }
}

#[test]
fn wake_vs_fulfill_race_delivers_every_value() {
    // The classic lost-wakeup shape: the send may land exactly between the
    // receiver's `Poll::Pending` and its `thread::park()`. The channel must
    // tolerate every interleaving — `block_on` re-polls after any unpark,
    // and `Sender::send` wakes the registered waker under the state lock.
    for i in 0..500u32 {
        let (tx, rx) = channel::<u32>();
        let barrier = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&barrier);
        let sender = std::thread::spawn(move || {
            b2.wait();
            tx.send(i);
        });
        barrier.wait();
        assert_eq!(block_on(rx), Some(i), "value lost at iteration {i}");
        sender.join().unwrap();
    }
}

#[test]
fn send_beats_first_poll() {
    // Fulfill strictly before the receiver ever polls: the first poll must
    // complete immediately without a waker round-trip.
    let (tx, rx) = channel::<&str>();
    tx.send("early");
    assert_eq!(block_on(rx), Some("early"));
}

/// Naive reference model of the documented `LruMap` semantics: a plain map
/// plus an explicit recency tick, evicting the minimum tick on overflow.
struct ModelLru {
    entries: HashMap<u8, (i32, u64)>,
    capacity: usize,
    tick: u64,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        ModelLru {
            entries: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    fn get(&mut self, k: u8) -> Option<i32> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&k).map(|(v, last)| {
            *last = tick;
            *v
        })
    }

    fn peek(&self, k: u8) -> Option<i32> {
        self.entries.get(&k).map(|(v, _)| *v)
    }

    fn insert(&mut self, k: u8, v: i32) -> Option<(u8, i32)> {
        self.tick += 1;
        self.entries.insert(k, (v, self.tick));
        if self.entries.len() <= self.capacity {
            return None;
        }
        let victim = *self
            .entries
            .iter()
            .min_by_key(|(_, (_, t))| *t)
            .map(|(key, _)| key)
            .expect("non-empty");
        self.entries.remove(&victim).map(|(val, _)| (victim, val))
    }

    fn remove(&mut self, k: u8) -> Option<i32> {
        self.entries.remove(&k).map(|(v, _)| v)
    }
}

/// One randomized operation against both implementations.
/// `sel % 4` chooses among insert / get / peek / remove.
#[derive(Clone, Copy, Debug)]
struct Op {
    sel: u8,
    key: u8,
    value: i32,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lru_matches_reference_model(
        capacity in 1usize..6,
        ops in proptest::collection::vec((0u8..4, 0u8..8, -100i32..100), 1..120),
    ) {
        let mut real: LruMap<u8, i32> = LruMap::new(capacity);
        let mut model = ModelLru::new(capacity);
        for (step, &(sel, key, value)) in ops.iter().enumerate() {
            let op = Op { sel, key, value };
            match op.sel {
                0 => {
                    let got = real.insert(op.key, op.value);
                    let want = model.insert(op.key, op.value);
                    prop_assert_eq!(got, want, "insert diverged at step {}: {:?}", step, op);
                }
                1 => {
                    let got = real.get(&op.key).copied();
                    let want = model.get(op.key);
                    prop_assert_eq!(got, want, "get diverged at step {}: {:?}", step, op);
                }
                2 => {
                    let got = real.peek(&op.key).copied();
                    let want = model.peek(op.key);
                    prop_assert_eq!(got, want, "peek diverged at step {}: {:?}", step, op);
                }
                _ => {
                    let got = real.remove(&op.key);
                    let want = model.remove(op.key);
                    prop_assert_eq!(got, want, "remove diverged at step {}: {:?}", step, op);
                }
            }
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert!(real.len() <= capacity);
            // Full-state agreement: every surviving key maps identically.
            for (k, v) in real.iter() {
                prop_assert_eq!(model.peek(*k), Some(*v), "key {} diverged", k);
            }
        }
    }
}
