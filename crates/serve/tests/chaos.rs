//! Determinism regression for the chaos layer: replaying the same request
//! trace with the same fault seed must reproduce byte-identical responses,
//! identical fault counters, and the identical set of injected-fault /
//! recovery trace events — the fault schedule is a pure function of
//! (seed, device, request content), never of wall-clock or thread timing.
//! Every test here injects faults, so each holds the gate: a concurrent
//! one would add its `chaos` events to another's traced multiset.

use smat_formats::{Dense, F16};
use smat_gpusim::FaultConfig;
use smat_serve::{block_on, ChaosStats, Server, ServerConfig, TraceHandle};

mod common;
use common::replay::{config, replay_twice, spec, Mutations, Registration};
use common::{gate, matrix_fixed_values, panel, width};

const REQUESTS: usize = 96;
const WINDOW: usize = 16;

struct Replay {
    /// `(c, device, attempts, degraded)` per request, in trace order.
    responses: Vec<(Dense<F16>, usize, u32, bool)>,
    chaos: ChaosStats,
    /// Canonical (sorted) rendering of every `chaos`-category trace event.
    /// Sorting is deliberate: events from concurrent workers drain in
    /// nondeterministic *order*, but the multiset must be identical.
    events: Vec<String>,
}

fn replay(seed: u64, rate: f64) -> Replay {
    let tracer = TraceHandle::new();
    tracer.enable();
    let server: Server<F16> = Server::new(ServerConfig {
        devices: 2,
        chaos: Some(FaultConfig::blended(seed, rate)),
        ..ServerConfig::default()
    });
    let matrices = [matrix_fixed_values(64, 0), matrix_fixed_values(64, 3)];
    let keys = [server.register(&matrices[0]), server.register(&matrices[1])];

    let mut responses = Vec::with_capacity(REQUESTS);
    let mut seq = 0usize;
    while seq < REQUESTS {
        // The pause/resume window discipline of the trace-replay driver:
        // batch composition (and hence work ids) must not depend on how
        // fast the workers drain relative to the submitting thread.
        server.pause();
        let futures: Vec<_> = (0..WINDOW.min(REQUESTS - seq))
            .map(|w| server.submit(keys[(seq + w) % 2], panel(64, width(seq + w), seq + w)))
            .collect();
        server.resume();
        for fut in futures {
            let resp = block_on(fut).expect("recovery absorbs injected faults");
            responses.push((resp.c, resp.device, resp.attempts, resp.degraded));
        }
        seq += WINDOW;
    }
    let chaos = server.stats().chaos;
    drop(server);
    tracer.disable();
    let mut events: Vec<String> = tracer
        .drain()
        .into_iter()
        .filter(|e| e.cat == "chaos")
        .map(|e| format!("{} {:?}", e.name, e.args))
        .collect();
    events.sort_unstable();
    Replay {
        responses,
        chaos,
        events,
    }
}

#[test]
fn same_seed_reproduces_responses_counters_and_fault_events() {
    let _gate = gate();
    let first = replay(7, 0.3);
    assert!(
        first.chaos.faults_injected > 0 && first.chaos.retries > 0,
        "the regression is vacuous unless faults actually fired: {:?}",
        first.chaos
    );
    assert!(!first.events.is_empty(), "chaos events must be traced");

    let second = replay(7, 0.3);
    for (i, (a, b)) in first.responses.iter().zip(&second.responses).enumerate() {
        assert_eq!(a.0, b.0, "request {i}: response bytes diverged");
        assert_eq!(
            (a.1, a.2, a.3),
            (b.1, b.2, b.3),
            "request {i}: (device, attempts, degraded) diverged"
        );
    }
    assert_eq!(first.chaos, second.chaos, "fault counters diverged");
    assert_eq!(first.events, second.events, "fault event multiset diverged");
}

#[test]
fn different_seeds_produce_different_fault_schedules() {
    // Not a determinism requirement per se, but the guard that the seed is
    // actually reaching the plan: two seeds at the same rate should not
    // produce the same schedule (astronomically unlikely with ~30 faults
    // over hundreds of keyed draws).
    let _gate = gate();
    let a = replay(7, 0.3);
    let b = replay(8, 0.3);
    assert_ne!(
        a.events, b.events,
        "seeds 7 and 8 injected identical fault schedules"
    );
}

#[test]
fn faulted_trace_replay_answers_every_request_correctly() {
    let _gate = gate();
    let chaotic = || ServerConfig {
        chaos: Some(FaultConfig::blended(7, 0.25)),
        ..config()
    };
    let first = replay_twice(chaotic, &spec(160), Mutations::Overlay, Registration::Sync);
    let chaos = first.stats.chaos;
    assert!(
        chaos.faults_injected > 0,
        "rate 0.25 injected nothing: {chaos:?}"
    );
    assert!(chaos.retries > 0, "faults without retries: {chaos:?}");
    assert_eq!(
        first.stats.failed, 0,
        "a request exhausted the recovery ladder"
    );
}
