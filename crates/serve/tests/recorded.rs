//! Trace replays under the process-wide recorders: mutating, planned,
//! sharded and warm-registered replays stay exact, reproducible and
//! lock-order clean, and a traced replay covers every lifecycle stage. The
//! lock-order engine and the tracer record every thread of the process, so
//! these replays share a binary whose tests all hold the gate, and a drop
//! guard switches each recorder off even when a replay panics.

use std::sync::Arc;

use smat::SmatConfig;
use smat_formats::F16;
use smat_serve::{Calibration, PlanSpace, Planner, ServerConfig};
use smat_workloads::{calibration_bands, TraceSpec};

mod common;
use common::gate;
use common::replay::{config, replay_twice, spec, Mutations, Registration, Replay, SIZE};

/// Calls its function when dropped.
struct OnDrop(fn());

impl Drop for OnDrop {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// Runs `f` with lock-order recording on and fails on any finding (a
/// C-code) in the graph it accumulated.
fn lock_order_clean<R>(f: impl FnOnce() -> R) -> R {
    let _gate = gate();
    smat_sanitize::reset();
    smat_sanitize::enable();
    let out = {
        let _off = OnDrop(smat_sanitize::disable);
        f()
    };
    let findings = smat_sanitize::report();
    assert!(findings.is_empty(), "lock-order findings: {findings:#?}");
    out
}

#[test]
fn mutating_replay_is_exact_and_matches_re_registration_bit_for_bit() {
    // Every response is checked against a reference handle mutated in
    // lockstep (a stale-plan launch or a lost update would mismatch), and
    // the second replay must reproduce the end state, compactions included.
    let dynamic = TraceSpec {
        mutate_rate: 0.5,
        ..spec(256)
    };
    let (overlay, naive) = lock_order_clean(|| {
        let overlay = replay_twice(config, &dynamic, Mutations::Overlay, Registration::Sync);
        // The strawman pays a fresh prepare per update but must serve the
        // same bits.
        let naive = replay_twice(config, &dynamic, Mutations::ReRegister, Registration::Sync);
        (overlay, naive)
    });
    assert!(overlay.mutations > 0, "the mutation schedule was empty");
    assert_eq!(overlay.stats.mutations, overlay.mutations as u64);
    assert!(
        overlay.stats.compactions >= 1,
        "the structural trigger never fired a background compaction"
    );
    assert_eq!(
        overlay.summary.checksum, naive.summary.checksum,
        "overlay serving diverged from re-preparing per update"
    );
    let prepares = [&overlay, &naive].map(|r| r.stats.registry.prepares);
    assert!(prepares[1] > prepares[0], "{prepares:?} prepares");
}

#[test]
fn planned_trace_replay_grades_predictions_and_keeps_the_refit_cadence() {
    // 512 requests fill the planner's observation window, where the refit
    // cadence must still hold. Every response is checked against a
    // reference prepared under the offline twin's decision pinned by hand.
    let cal = Calibration::fit_on(&calibration_bands::<F16>(SIZE), 8, &SmatConfig::default());
    let planner = || Planner::with_calibration(PlanSpace::default(), cal);
    let planned = || ServerConfig {
        planner: Some(Arc::new(planner())),
        ..config()
    };
    let first = lock_order_clean(|| {
        replay_twice(planned, &spec(512), Mutations::Overlay, Registration::Sync)
    });
    let stats = &first.stats;
    assert!(!first.decisions.is_empty(), "no decision");
    assert!(stats.planned_requests > 0, "nothing planned");
    assert!(stats.plan_predictions > 0, "nothing graded");
    assert!(stats.plan_mean_rel_error.is_finite());
    let errors = &first.plan_errors;
    assert!(
        !errors.is_empty() && errors.iter().all(|e| e.is_finite()),
        "per-response prediction errors: {errors:?}"
    );
    // The Tensor Core line refits at most once per 8 new observations.
    let (refits, seen) = (stats.plan_refits, stats.plan_observations);
    assert!(refits <= seen / 8, "{refits} refits, {seen} seen");
}

/// A lock-order-checked replay of 128 requests on three devices with a
/// 20000-byte shard budget, so the two large (256×256) tenants split and the
/// 128×128 ones stay whole, with `mutate_rate` cell updates per request.
fn sharded_replay(mutate_rate: f64) -> Replay {
    let sharding = || ServerConfig {
        devices: 3,
        shard_max_bytes: Some(20_000),
        ..config()
    };
    let spec = TraceSpec {
        large_matrices: 2,
        mutate_rate,
        ..spec(128)
    };
    lock_order_clean(|| replay_twice(sharding, &spec, Mutations::Overlay, Registration::Sync))
}

#[test]
fn sharded_trace_replay_fans_out_on_every_device_and_joins_exactly() {
    let stats = sharded_replay(0.0).stats;
    let (fanouts, subrequests) = (stats.fanout_requests, stats.shard_subrequests);
    assert!(fanouts > 0, "no request fanned out");
    assert!(subrequests > fanouts, "a fan-out must emit several shards");
    assert!(
        subrequests >= 3 * fanouts / 2,
        "large tenants should split into several shards: {subrequests} sub-requests over {fanouts} fan-outs"
    );
    let dispatched: Vec<u64> = stats.devices.iter().map(|d| d.dispatched).collect();
    let completed: Vec<u64> = stats.devices.iter().map(|d| d.completed).collect();
    assert_eq!(dispatched, completed, "lost sub-requests");
    assert!(
        dispatched.iter().all(|&d| d > 0),
        "a device sat idle under fan-out: {dispatched:?}"
    );
}

#[test]
fn sharded_mutating_replay_routes_writes_to_row_shards_exactly() {
    // Each update lands in the overlay of the shard owning its row; every
    // fanned-out response must match a whole-matrix reference mutated in
    // lockstep.
    let first = sharded_replay(0.5);
    assert!(first.stats.fanout_requests > 0, "no request fanned out");
    assert!(first.mutations > 0, "the mutation schedule was empty");
}

#[test]
fn warm_registered_trace_replay_is_lock_order_clean() {
    lock_order_clean(|| replay_twice(config, &spec(96), Mutations::Overlay, Registration::Warm));
}

/// One span per serving lifecycle stage, plus pipeline and simulator ones.
const STAGES: &str = "admission queue_wait batch_form launch complete prepare kernel_execute";

#[test]
fn traced_replay_covers_every_lifecycle_stage() {
    let _gate = gate();
    smat_trace::reset();
    smat_trace::enable();
    {
        let _off = OnDrop(smat_trace::disable);
        replay_twice(config, &spec(64), Mutations::Overlay, Registration::Sync);
    }
    let events = smat_trace::drain();
    // Timestamps are unsigned nanoseconds by type.
    assert!(!events.is_empty(), "trace is empty");
    for stage in STAGES.split(' ') {
        let found = events.iter().any(|e| e.name == stage);
        assert!(found, "missing lifecycle span '{stage}'");
    }
    let sim = events.iter().any(|e| e.cat == "sim");
    assert!(sim, "no simulated-device events in the trace");

    // The Chrome export of this trace: one document with named host
    // threads, the simulated-device tracks and every stage. `check.sh`
    // parses the export of `reproduce serve --trace`.
    let json = smat_trace::chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\":[{"));
    assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    let tracks = ["thread_name", "device 0 (sim)", "launches"];
    for name in tracks.into_iter().chain(STAGES.split(' ')) {
        let found = json.contains(&format!("\"name\":\"{name}\""));
        assert!(found, "export lacks '{name}'");
    }
}
