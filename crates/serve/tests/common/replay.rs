//! The trace-replay driver. It registers a trace's tenants on a fresh
//! server, replays the trace in pause/resume windows (so backpressure,
//! placement, batch composition and compaction points are reproducible),
//! and checks every response bitwise against an out-of-band reference
//! handle mutated in lockstep with the server. [`replay_twice`] runs it
//! twice: the [`Summary`] is the replay-stable end state, so the second
//! replay must reproduce the first's exactly.

use std::slice;

use smat::Smat;
use smat_formats::{Coo, Csr, Element, Fnv1a, F16};
use smat_serve::{
    AdmissionState, ChaosStats, CompactionPolicy, DeviceStats, MatrixKey, MatrixUpdate,
    PlanDecision, Planner, Server, ServerConfig, ServerStats,
};
use smat_workloads::{mutation_trace, random_uniform, serve_trace, TraceMutation, TraceSpec};

use super::{digest, panel};

/// Square dimension of a tenant; the trace's large tenants double it.
pub const SIZE: usize = 128;
/// Requests submitted per pause/resume window.
const WINDOW: usize = 32;

/// How scheduled cell mutations reach the server.
#[derive(Clone, Copy)]
pub enum Mutations {
    /// `Server::mutate` into the tenant's delta overlay.
    Overlay,
    /// The strawman: merge into the base, invalidate, and re-register (a
    /// fresh fingerprint and a fresh `T_init`-paying prepare per update).
    ReRegister,
}

/// How tenants are admitted before the first window.
#[derive(Clone, Copy)]
pub enum Registration {
    /// The synchronous `Server::register` barrier.
    Sync,
    /// `Server::warm_prepare` for every tenant, then a counter-neutral
    /// readiness spin.
    Warm,
}

/// A `requests`-long Zipf(1.0) trace over four tenants at widths 8/16/32.
pub fn spec(requests: usize) -> TraceSpec {
    TraceSpec {
        requests,
        ..TraceSpec::default()
    }
}

/// Two devices, a 64-column budget, one registry line per tenant, and a
/// compaction floor low enough that a mutating trace folds overlays in.
pub fn config() -> ServerConfig {
    ServerConfig {
        registry_capacity: 4,
        compaction: CompactionPolicy {
            min_overlay_cells: 16,
            ..CompactionPolicy::default()
        },
        ..ServerConfig::default()
    }
}

/// The end state replays of one trace must reproduce: the fields the
/// drained-window contract of `smat_serve::stats` covers, and an FNV-1a
/// checksum over every response's bits in trace order.
#[derive(Debug, PartialEq)]
pub struct Summary {
    counters: Vec<(&'static str, u64)>,
    /// `[served, cols, launches, dispatched]` per device.
    devices: Vec<[u64; 4]>,
    chaos: ChaosStats,
    pub checksum: u64,
}

impl Summary {
    fn new(s: &ServerStats, checksum: u64) -> Self {
        let counters = vec![
            ("submitted", s.submitted),
            ("completed", s.completed),
            ("rejected_queue_full", s.rejected_queue_full),
            ("rejected_deadline", s.rejected_deadline),
            ("rejected_preflight", s.rejected_preflight),
            ("failed", s.failed),
            ("batches", s.batches),
            ("batched_requests", s.batched_requests),
            ("max_batch", s.max_batch),
            ("mutations", s.mutations),
            ("compactions", s.compactions),
            ("fanout_requests", s.fanout_requests),
            ("shard_subrequests", s.shard_subrequests),
            ("sim_ns_total", (s.sim_ms_total * 1e6).round() as u64),
            ("planned_requests", s.planned_requests),
            ("registry_hits", s.registry.hits),
            ("registry_misses", s.registry.misses),
            ("registry_prepares", s.registry.prepares),
            ("registry_evictions", s.registry.evictions),
            ("plan_hits", s.plans.hits),
            ("plan_misses", s.plans.misses),
        ];
        let device = |d: &DeviceStats| [d.served, d.cols, d.launches, d.dispatched];
        Summary {
            counters,
            devices: s.devices.iter().map(device).collect(),
            chaos: s.chaos,
            checksum,
        }
    }
}

/// What one replay leaves behind.
pub struct Replay {
    pub summary: Summary,
    pub stats: ServerStats,
    /// Scheduled mutations applied.
    pub mutations: usize,
    /// The planner's offline decision per tenant (empty without one); the
    /// reference handles run these configurations pinned by hand.
    pub decisions: Vec<PlanDecision>,
    /// `|predicted − observed| / observed` per response carrying a plan
    /// prediction, graded at the width of the launch that served it.
    pub plan_errors: Vec<f64>,
}

fn update(m: &TraceMutation) -> MatrixUpdate<F16> {
    if m.delete {
        MatrixUpdate::Delete {
            row: m.row,
            col: m.col,
        }
    } else {
        MatrixUpdate::Update {
            row: m.row,
            col: m.col,
            value: F16::from_f64(m.value),
        }
    }
}

/// One full replay of `spec` on a fresh server built from `config`. Panics
/// on any failed request and, with `verify`, on any response that differs
/// from its reference.
fn replay(
    config: ServerConfig,
    spec: &TraceSpec,
    mutations: Mutations,
    registration: Registration,
    verify: bool,
) -> Replay {
    let trace = serve_trace(spec);
    let mut large = vec![false; spec.n_matrices];
    for r in &trace {
        large[r.matrix] = r.large;
    }
    let dim = |m: usize| if large[m] { 2 * SIZE } else { SIZE };
    let dims: Vec<(usize, usize)> = (0..spec.n_matrices).map(|m| (dim(m), dim(m))).collect();
    // A separate RNG stream: the request trace is identical with and
    // without mutations.
    let schedule = mutation_trace(spec, &dims);
    let mut bases: Vec<Csr<F16>> = (0..spec.n_matrices)
        .map(|m| random_uniform(dim(m), dim(m), 0.88 + 0.02 * m as f64, spec.seed + m as u64))
        .collect();

    // The server's planner decides from (calibration, matrix) alone, so an
    // offline twin taken before any refit reproduces its admission choices
    // at the column budget. References are prepared outside the server so
    // verification never touches its registry counters.
    let offline = config
        .planner
        .as_ref()
        .map(|p| Planner::with_calibration(p.space().clone(), p.calibration()));
    let decisions: Vec<PlanDecision> = offline
        .iter()
        .flat_map(|p| bases.iter().map(|a| p.decide(a, config.column_budget)))
        .collect();
    let reference = |m: usize, a: &Csr<F16>| {
        let cfg = match decisions.get(m) {
            Some(d) => d.apply(&config.smat),
            None => config.smat.clone(),
        };
        Smat::prepare(a, cfg)
    };
    let mut refs: Vec<Smat<F16>> = (0..bases.len()).map(|m| reference(m, &bases[m])).collect();

    let server: Server<F16> = Server::new(config.clone());
    let mut keys: Vec<MatrixKey> = match registration {
        Registration::Sync => bases.iter().map(|a| server.register(a)).collect(),
        Registration::Warm => {
            let keys: Vec<MatrixKey> = bases.iter().map(|a| server.warm_prepare(a)).collect();
            // Unlike `wait_ready`, polling the admission state counts no
            // registry lookup, so the summary stays comparable.
            for k in &keys {
                while server.registry().admission_state(k) != AdmissionState::Ready {
                    std::thread::yield_now();
                }
            }
            keys
        }
    };

    let mut checksum = Fnv1a::new();
    let mut plan_errors = Vec::new();
    let mut pending = schedule.iter().peekable();
    for window in trace.chunks(WINDOW) {
        server.pause();
        // The window's mutations land before its submissions and their
        // compactions finish before admission, so epoch swaps happen at
        // fixed trace positions.
        let last = window[window.len() - 1].seq;
        let mut mutated = false;
        while let Some(m) = pending.next_if(|m| m.seq <= last) {
            mutated = true;
            match mutations {
                Mutations::Overlay => {
                    let op = update(m);
                    server
                        .mutate(keys[m.matrix], slice::from_ref(&op))
                        .expect("scheduled mutation applies");
                    if verify {
                        refs[m.matrix].apply_updates(slice::from_ref(&op));
                    }
                }
                Mutations::ReRegister => {
                    let value = if m.delete { 0.0 } else { m.value };
                    let a =
                        Coo::with_overrides(&bases[m.matrix], &[(m.row, m.col, value)]).to_csr();
                    // The window is drained, so nothing in flight still
                    // needs the stale entry; retiring it keeps one
                    // registry line per tenant.
                    server.invalidate(&keys[m.matrix]);
                    keys[m.matrix] = server.register(&a);
                    if verify {
                        refs[m.matrix] = reference(m.matrix, &a);
                    }
                    bases[m.matrix] = a;
                }
            }
        }
        if mutated {
            server.quiesce_compactions();
        }
        let futures: Vec<_> = window
            .iter()
            .map(|req| {
                let b = panel(dim(req.matrix), req.n_cols, req.seq);
                (req, server.submit(keys[req.matrix], b.clone()), b)
            })
            .collect();
        server.resume();
        for (req, fut, b) in futures {
            let resp = fut
                .wait()
                .unwrap_or_else(|e| panic!("request {} failed: {e}", req.seq));
            if let Some(predicted) = resp.predicted_ms {
                if resp.sim_ms > 0.0 {
                    plan_errors.push((predicted - resp.sim_ms).abs() / resp.sim_ms);
                }
            }
            checksum.write_u64(digest(&resp.c));
            // One unbatched launch of this request alone on the reference.
            assert!(
                !verify || refs[req.matrix].spmm(&b).c == resp.c,
                "request {} diverged from its unbatched reference",
                req.seq
            );
        }
    }
    let stats = server.stats();
    Replay {
        summary: Summary::new(&stats, checksum.finish()),
        stats,
        mutations: schedule.len(),
        decisions,
        plan_errors,
    }
}

/// Replays twice, each time on a fresh `config()` (a planner inside must
/// not carry refits over), asserts the two end states are identical, and
/// returns the first replay. Only the first replay checks its responses
/// against the references; the second matches it through the summary's
/// response checksum.
pub fn replay_twice(
    config: impl Fn() -> ServerConfig,
    spec: &TraceSpec,
    mutations: Mutations,
    registration: Registration,
) -> Replay {
    let first = replay(config(), spec, mutations, registration, true);
    let second = replay(config(), spec, mutations, registration, false);
    assert_eq!(
        first.summary, second.summary,
        "the second replay diverged from the first"
    );
    first
}
