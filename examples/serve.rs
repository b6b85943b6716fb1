//! Trace-replay driver for the `smat-serve` engine: registers a set of
//! synthetic matrices, replays a Zipf-skewed request trace over a pool of
//! simulated devices, verifies every batched response against an unbatched
//! run of the same request, and replays the whole trace a second time on a
//! fresh server to assert a deterministic end state.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example serve
//! cargo run --release --example serve -- --requests 512 --matrices 6 --devices 4
//! cargo run --release --example serve -- --seed 7 --window 16 --budget 128
//! cargo run --release --example serve -- --warm-prepare --sanitize
//! cargo run --release --example serve -- --devices 3 --shard-max-bytes 20000 --large-matrices 2
//! cargo run --release --example serve -- --plan
//! cargo run --release --example serve -- --mutate-rate 0.1
//! ```
//!
//! `--shard-max-bytes N` (0 = off) turns on partitioned serving: matrices
//! whose estimated CSR footprint exceeds `N` bytes are split into
//! nnz-balanced row shards and every submission against them fans out
//! across the device pool, joined by row concatenation (bitwise identical
//! to unsharded execution). `--large-matrices M` marks `M` of the tenants as large (double
//! dimension), so sharded and unsharded traffic interleave in the trace.
//!
//! `--plan` turns on the cost-model-driven admission planner: a perf-model
//! calibration is fitted once on the paper's band suite, each tenant's
//! configuration is chosen by the calibrated planner at registration, and
//! every response's predicted kernel time is checked against the observed
//! one (the per-request predicted-vs-actual record aggregated in the JSON
//! output). Bitwise verification still runs — against references prepared
//! under the *same decisions made manually* — because planner-chosen
//! configurations preserve exactness.
//!
//! `--mutate-rate R` makes the matrices dynamic: a deterministic mutation
//! schedule (expected `R` cell updates per request, Zipf-targeted over
//! every tenant, sharded ones included) is interleaved with the request
//! windows. Each window
//! applies its mutations through [`Server::mutate`] and quiesces any
//! background compaction before submitting, so epoch swaps land at
//! deterministic trace positions and the double-replay check covers the
//! whole dynamic path. Verification replays every update against
//! independently prepared reference handles. `--naive-update` serves the
//! same schedule the strawman way — re-registering the fully merged matrix
//! after every mutation (paying `T_init` each time); `scripts/check.sh`
//! asserts both strategies end on the same checksum and that the naive
//! one prepares more often.
//!
//! `--sanitize` runs both replays under the `smat-sanitize` lock-order
//! engine and fails the run (exit 1) on any concurrency finding.
//!
//! Stdout is a single JSON record (trace spec, verification verdicts, the
//! deterministic end-state summary, and the full `ServerStats` snapshot of
//! the first run); progress goes to stderr. Exit status: 0 when every
//! response matched its unbatched reference and both replays agree, 1
//! otherwise, 2 on usage errors.

use std::process::ExitCode;
use std::sync::Arc;

use smat_repro::formats::{Coo, Csr, Dense, Element, Fnv1a, F16};
use smat_repro::gpusim::{FaultConfig, SimError};
use smat_repro::reorder::ReorderAlgorithm;
use smat_repro::serve::{
    AdmissionState, Calibration, ChaosStats, MatrixKey, MatrixUpdate, PlanDecision, PlanSpace,
    Planner, ServeError, Server, ServerConfig, ServerStats,
};
use smat_repro::smat::{Smat, SmatConfig};
use smat_repro::workloads::{
    calibration_bands, mutation_trace, random_uniform, serve_trace, TraceMutation, TraceRequest,
    TraceSpec,
};

struct Args {
    requests: usize,
    matrices: usize,
    devices: usize,
    seed: u64,
    /// Requests submitted per pause/resume window (larger windows batch more).
    window: usize,
    /// Column budget per batched launch.
    budget: usize,
    /// Square dimension of each synthetic matrix.
    size: usize,
    /// Write a Chrome Trace Event JSON of the first replay here.
    trace: Option<String>,
    /// Seed for the fault-injection plan; `None` serves fault-free.
    chaos_seed: Option<u64>,
    /// Blended fault rate fed to [`FaultConfig::blended`].
    fault_rate: f64,
    /// Row-reordering algorithm for preparation (`None` = library default).
    reorder: Option<ReorderAlgorithm>,
    /// Prepare matrices on background threads (`Server::warm_prepare`)
    /// instead of the synchronous `register` barrier.
    warm_prepare: bool,
    /// Run both replays under the `smat-sanitize` lock-order engine and
    /// fail the run on any concurrency finding (C-codes).
    sanitize: bool,
    /// Shard byte budget for registered matrices (0 = sharding off).
    shard_max_bytes: usize,
    /// How many tenants are large (double dimension; candidates for
    /// sharding when `--shard-max-bytes` is set).
    large_matrices: usize,
    /// Choose each tenant's configuration with the calibrated admission
    /// planner instead of serving everything under the base config.
    plan: bool,
    /// Expected cell mutations per request (0 = static matrices).
    mutate_rate: f64,
    /// Serve mutations the strawman way: re-register the merged matrix
    /// after every update instead of accumulating a delta overlay.
    naive_update: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            requests: 256,
            matrices: 4,
            devices: 2,
            seed: 42,
            window: 32,
            budget: 64,
            size: 128,
            trace: None,
            chaos_seed: None,
            fault_rate: 0.1,
            reorder: None,
            warm_prepare: false,
            sanitize: false,
            shard_max_bytes: 0,
            large_matrices: 0,
            plan: false,
            mutate_rate: 0.0,
            naive_update: false,
        }
    }
}

/// Maps a CLI name (the `ReorderAlgorithm::name` vocabulary) to the
/// algorithm, with default parameters for the thresholded ones.
fn parse_reorder(name: &str) -> Option<ReorderAlgorithm> {
    Some(match name {
        "original" | "identity" => ReorderAlgorithm::Identity,
        "jaccard" | "jaccard-rows" => ReorderAlgorithm::JaccardRows { tau: 0.7 },
        "jaccard-rows-cols" => ReorderAlgorithm::JaccardRowsCols { tau: 0.7 },
        "jaccard-lsh" => ReorderAlgorithm::JaccardLsh {
            tau: 0.7,
            bands: 8,
            rows_per_band: 1,
        },
        "rcm" => ReorderAlgorithm::ReverseCuthillMcKee,
        "saad" => ReorderAlgorithm::Saad { tau: 0.5 },
        "gray" => ReorderAlgorithm::GrayCode,
        "bisection" => ReorderAlgorithm::Bisection,
        "degree-sort" => ReorderAlgorithm::DegreeSort,
        _ => return None,
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: serve [--requests N] [--matrices M] [--devices D] [--seed S]\n\
         \u{20}            [--window W] [--budget COLS] [--size DIM] [--trace PATH]\n\
         \u{20}            [--chaos-seed S] [--fault-rate R] [--reorder NAME]\n\
         \u{20}            [--warm-prepare] [--sanitize] [--plan]\n\
         \u{20}            [--shard-max-bytes N] [--large-matrices M]\n\
         \u{20}            [--mutate-rate R] [--naive-update]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<usize>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--requests" => args.requests = value("--requests")?,
            "--matrices" => args.matrices = value("--matrices")?,
            "--devices" => args.devices = value("--devices")?,
            "--seed" => args.seed = value("--seed")? as u64,
            "--window" => args.window = value("--window")?,
            "--budget" => args.budget = value("--budget")?,
            "--size" => args.size = value("--size")?,
            "--trace" => {
                args.trace = Some(it.next().ok_or("--trace needs a path")?);
            }
            "--chaos-seed" => args.chaos_seed = Some(value("--chaos-seed")? as u64),
            "--reorder" => {
                let name = it.next().ok_or("--reorder needs a name")?;
                args.reorder =
                    Some(parse_reorder(&name).ok_or_else(|| format!("unknown reordering {name}"))?);
            }
            "--warm-prepare" => args.warm_prepare = true,
            "--sanitize" => args.sanitize = true,
            "--plan" => args.plan = true,
            "--naive-update" => args.naive_update = true,
            "--mutate-rate" => {
                args.mutate_rate = it
                    .next()
                    .ok_or("--mutate-rate needs a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("--mutate-rate: {e}"))?;
            }
            "--shard-max-bytes" => args.shard_max_bytes = value("--shard-max-bytes")?,
            "--large-matrices" => args.large_matrices = value("--large-matrices")?,
            "--fault-rate" => {
                args.fault_rate = it
                    .next()
                    .ok_or("--fault-rate needs a value")?
                    .parse::<f64>()
                    .map_err(|e| format!("--fault-rate: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.requests == 0 || args.matrices == 0 || args.devices == 0 || args.window == 0 {
        return Err("all counts must be positive".into());
    }
    if !(0.0..=1.0).contains(&args.fault_rate) {
        return Err("--fault-rate must be within [0, 1]".into());
    }
    if !(0.0..=1.0).contains(&args.mutate_rate) {
        return Err("--mutate-rate must be within [0, 1]".into());
    }
    if args.naive_update && args.mutate_rate == 0.0 {
        return Err("--naive-update needs --mutate-rate > 0".into());
    }
    Ok(args)
}

/// The pipeline configuration shared by the server and the out-of-band
/// reference handles (they must match for bitwise verification).
fn smat_config(args: &Args) -> SmatConfig {
    SmatConfig {
        reorder: args.reorder.unwrap_or(SmatConfig::default().reorder),
        ..SmatConfig::default()
    }
}

/// Square dimension of tenant `m`'s matrix: large tenants are doubled so a
/// `--shard-max-bytes` budget sized between the two splits only them.
fn tenant_dim(args: &Args, large: bool) -> usize {
    if large {
        args.size * 2
    } else {
        args.size
    }
}

/// Deterministic per-request B panel: the trace position salts the pattern
/// so requests are distinguishable while replays regenerate identical data.
fn panel(rows: usize, req: &TraceRequest) -> Dense<F16> {
    Dense::from_fn(rows, req.n_cols, |i, j| {
        F16::from_f64((((i + 3 * j + 7 * req.seq) % 9) as f64 - 4.0) / 2.0)
    })
}

/// The end-state fields that must be identical across replays of the same
/// trace. Host-scheduling-driven numbers (latency percentiles, occupancy,
/// busy time) are deliberately excluded — see `ServerStats` docs.
#[derive(Debug, PartialEq, serde::Serialize)]
struct DeterministicSummary {
    submitted: u64,
    completed: u64,
    rejected_queue_full: u64,
    rejected_deadline: u64,
    rejected_preflight: u64,
    failed: u64,
    batches: u64,
    batched_requests: u64,
    max_batch: u64,
    /// Mutation batches applied and background compactions published —
    /// both pure functions of the trace + schedule under the quiesced
    /// window discipline.
    mutations: u64,
    compactions: u64,
    registry_hits: u64,
    registry_misses: u64,
    registry_prepares: u64,
    registry_evictions: u64,
    plan_hits: u64,
    plan_misses: u64,
    sim_ns_total: u64,
    per_device_served: Vec<u64>,
    per_device_cols: Vec<u64>,
    per_device_launches: Vec<u64>,
    /// Fan-out accounting for sharded tenants (zero with sharding off).
    fanout_requests: u64,
    shard_subrequests: u64,
    /// Requests (direct + shard sub-requests) enqueued per device — the
    /// two-level scheduler's placement, reproducible under the window
    /// discipline.
    per_device_dispatched: Vec<u64>,
    /// Fault-injection and recovery counters — reproducible under the
    /// pause/resume window discipline with a fixed `--chaos-seed`.
    chaos: ChaosStats,
    /// Requests served under a planner-chosen configuration (zero without
    /// `--plan`). Deterministic under the window discipline; the
    /// prediction-error stats are *not* (they depend on batch
    /// composition) and stay out of this summary.
    planned_requests: u64,
    /// FNV-1a over every response's C bits, in trace order.
    output_checksum: u64,
}

impl DeterministicSummary {
    fn new(stats: &ServerStats, output_checksum: u64) -> Self {
        DeterministicSummary {
            submitted: stats.submitted,
            completed: stats.completed,
            rejected_queue_full: stats.rejected_queue_full,
            rejected_deadline: stats.rejected_deadline,
            rejected_preflight: stats.rejected_preflight,
            failed: stats.failed,
            batches: stats.batches,
            batched_requests: stats.batched_requests,
            max_batch: stats.max_batch,
            mutations: stats.mutations,
            compactions: stats.compactions,
            registry_hits: stats.registry.hits,
            registry_misses: stats.registry.misses,
            registry_prepares: stats.registry.prepares,
            registry_evictions: stats.registry.evictions,
            plan_hits: stats.plans.hits,
            plan_misses: stats.plans.misses,
            sim_ns_total: (stats.sim_ms_total * 1e6).round() as u64,
            per_device_served: stats.devices.iter().map(|d| d.served).collect(),
            per_device_cols: stats.devices.iter().map(|d| d.cols).collect(),
            per_device_launches: stats.devices.iter().map(|d| d.launches).collect(),
            fanout_requests: stats.fanout_requests,
            shard_subrequests: stats.shard_subrequests,
            per_device_dispatched: stats.devices.iter().map(|d| d.dispatched).collect(),
            chaos: stats.chaos,
            planned_requests: stats.planned_requests,
            output_checksum,
        }
    }
}

struct Replay {
    summary: DeterministicSummary,
    stats: ServerStats,
    mismatches: usize,
    batched_responses: u64,
    degraded_responses: u64,
    /// Requests that exhausted the recovery ladder (chaos runs only).
    exhausted: u64,
    /// Responses carrying a plan prediction (`--plan` only).
    plan_checked: u64,
    /// Σ |predicted − observed| / observed over those responses.
    plan_rel_sum: f64,
    /// Worst per-request relative prediction error.
    plan_rel_max: f64,
}

/// Converts a scheduled trace mutation into the serving-layer update op.
fn to_update(m: &TraceMutation) -> MatrixUpdate<F16> {
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

/// One full replay on a fresh server: register, submit in pause/resume
/// windows (so backpressure, device assignment, and batch composition are
/// reproducible), verify each response against an unbatched run.
///
/// `references` are whole-matrix handles prepared *outside* the server
/// (same `SmatConfig`), so verification never perturbs the registry's
/// counters and checks sharded tenants against the unsharded product.
fn replay(
    args: &Args,
    matrices: &[Csr<F16>],
    references: &[Smat<F16>],
    trace: &[TraceRequest],
    mutations: &[TraceMutation],
    plan_cal: Option<Calibration>,
    verify: bool,
) -> Replay {
    let server: Server<F16> = Server::new(ServerConfig {
        devices: args.devices,
        column_budget: args.budget,
        // One line per tenant, sharded or not.
        registry_capacity: args.matrices.max(2),
        chaos: args
            .chaos_seed
            .map(|seed| FaultConfig::blended(seed, args.fault_rate)),
        smat: smat_config(args),
        shard_max_bytes: (args.shard_max_bytes > 0).then_some(args.shard_max_bytes),
        // A fresh planner per replay, seeded from the one shared
        // calibration: decisions depend only on (calibration, matrix), so
        // both replays register identical configurations and the
        // deterministic summary stays comparable.
        planner: plan_cal.map(|cal| Arc::new(Planner::with_calibration(PlanSpace::default(), cal))),
        // Compact eagerly enough that a default-sized mutating trace
        // exercises the fold-in path; the calibrated model (with `--plan`)
        // still overrides this structural floor.
        compaction: smat_repro::serve::CompactionPolicy {
            min_overlay_cells: 16,
            ..smat_repro::serve::CompactionPolicy::default()
        },
        ..ServerConfig::default()
    });
    let mut keys: Vec<MatrixKey> = if args.warm_prepare {
        // Background preparation: all matrices prepare concurrently while
        // this thread only pays the fingerprint pass. The readiness spin is
        // counter-neutral (unlike `wait_ready`) so the deterministic
        // summary's registry counters stay comparable across replays.
        let keys: Vec<MatrixKey> = matrices.iter().map(|a| server.warm_prepare(a)).collect();
        for k in &keys {
            while server.registry().admission_state(k) != AdmissionState::Ready {
                std::thread::yield_now();
            }
        }
        keys
    } else {
        matrices.iter().map(|a| server.register(a)).collect()
    };

    let mut checksum = Fnv1a::new();
    let mut mismatches = 0usize;
    let mut batched_responses = 0u64;
    let mut degraded_responses = 0u64;
    let mut exhausted = 0u64;
    let mut plan_checked = 0u64;
    let mut plan_rel_sum = 0.0f64;
    let mut plan_rel_max = 0.0f64;
    // Dynamic-matrix state: cheap handle clones of the references (the
    // overlay path mutates them in lockstep with the server) and, for the
    // naive strawman, an owned copy of each base matrix to merge into.
    let mut refs: Vec<Smat<F16>> = references.to_vec();
    let mut bases: Vec<Csr<F16>> = if args.naive_update {
        matrices.to_vec()
    } else {
        Vec::new()
    };
    let mut mcur = 0usize;
    for window in trace.chunks(args.window) {
        server.pause();
        // This window's mutations land before its submissions, and any
        // background compaction they trigger is quiesced before admission —
        // so epoch swaps happen at deterministic trace positions and the
        // double-replay check covers the dynamic path.
        let window_last = window.last().expect("chunks are non-empty").seq;
        let mut window_mutated = false;
        while mcur < mutations.len() && mutations[mcur].seq <= window_last {
            let m = &mutations[mcur];
            mcur += 1;
            window_mutated = true;
            if args.naive_update {
                // Strawman: merge into the base and re-register (a fresh
                // fingerprint, a fresh T_init-paying prepare).
                let value = if m.delete { 0.0 } else { m.value };
                bases[m.matrix] =
                    Coo::with_overrides(&bases[m.matrix], &[(m.row, m.col, value)]).to_csr();
                // Retire the stale entry first: the registry is sized for
                // one live handle per tenant, and the window is drained, so
                // nothing in flight still needs the old key.
                server.invalidate(&keys[m.matrix]);
                keys[m.matrix] = server.register(&bases[m.matrix]);
                if verify {
                    refs[m.matrix] = Smat::prepare(&bases[m.matrix], smat_config(args));
                }
            } else {
                let op = to_update(m);
                server
                    .mutate(keys[m.matrix], std::slice::from_ref(&op))
                    .expect("scheduled mutation must apply");
                if verify {
                    // The reference handle tracks the same overlay, so the
                    // solo-run oracle is always at the server's epoch.
                    refs[m.matrix].apply_updates(std::slice::from_ref(&op));
                }
            }
        }
        if window_mutated {
            server.quiesce_compactions();
        }
        let futures: Vec<_> = window
            .iter()
            .map(|req| {
                let b = panel(tenant_dim(args, req.large), req);
                (req, server.submit(keys[req.matrix], b))
            })
            .collect();
        server.resume();
        for (req, fut) in futures {
            let resp = match fut.wait() {
                Ok(resp) => resp,
                // At high fault rates a batch can exhaust the bounded
                // recovery ladder; that is the deterministic, typed outcome
                // of the configured policy, not a crash. Fold a marker into
                // the checksum so replays must fail the *same* requests.
                Err(ServeError::Sim(SimError::FaultInjected { .. }))
                    if args.chaos_seed.is_some() =>
                {
                    exhausted += 1;
                    checksum.write_u64(0xDEAD_FA17);
                    continue;
                }
                Err(e) => panic!("request {} failed: {e}", req.seq),
            };
            if resp.batched_with > 1 {
                batched_responses += 1;
            }
            if resp.degraded {
                degraded_responses += 1;
            }
            // The per-request predicted-vs-actual record: both numbers
            // describe the request's shared launch, so the ratio grades
            // the prediction at the width that actually ran.
            if let Some(pred) = resp.predicted_ms {
                if resp.sim_ms > 0.0 {
                    let rel = (pred - resp.sim_ms).abs() / resp.sim_ms;
                    plan_checked += 1;
                    plan_rel_sum += rel;
                    plan_rel_max = plan_rel_max.max(rel);
                }
            }
            for v in resp.c.as_slice() {
                checksum.write_u64(v.to_f64().to_bits());
            }
            if verify {
                // Unbatched reference: an identically-prepared handle, one
                // launch for this request alone. Must be bitwise identical.
                let solo = refs[req.matrix].spmm(&panel(tenant_dim(args, req.large), req));
                if solo.c != resp.c {
                    eprintln!("MISMATCH at seq {}", req.seq);
                    mismatches += 1;
                }
            }
        }
    }
    let stats = server.stats();
    Replay {
        summary: DeterministicSummary::new(&stats, checksum.finish()),
        stats,
        mismatches,
        batched_responses,
        degraded_responses,
        exhausted,
        plan_checked,
        plan_rel_sum,
        plan_rel_max,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };

    let spec = TraceSpec {
        requests: args.requests,
        n_matrices: args.matrices,
        widths: vec![8, 16, 32],
        zipf_s: 1.0,
        seed: args.seed,
        large_matrices: args.large_matrices,
        mutate_rate: args.mutate_rate,
    };
    let trace = serve_trace(&spec);
    // Which tenants the trace marked large (doubled dimension below).
    let mut is_large = vec![false; args.matrices];
    for r in &trace {
        is_large[r.matrix] = r.large;
    }
    // The mutation schedule rides a separate RNG stream, so the request
    // trace above is byte-identical with and without mutations.
    let dims: Vec<(usize, usize)> = (0..args.matrices)
        .map(|m| {
            let d = tenant_dim(&args, is_large[m]);
            (d, d)
        })
        .collect();
    let muts = mutation_trace(&spec, &dims);
    // Distinct sparsity per matrix so the prepared pipelines differ.
    let matrices: Vec<Csr<F16>> = (0..args.matrices)
        .map(|m| {
            let sparsity = 0.88 + 0.02 * (m as f64);
            let dim = tenant_dim(&args, is_large[m]);
            random_uniform::<F16>(dim, dim, sparsity, args.seed + m as u64)
        })
        .collect();
    // With --plan, fit the Eq. 1 calibration once on the paper's band
    // suite; both replays (and the reference decisions below) share it.
    let plan_cal = args.plan.then(|| {
        let cal =
            Calibration::fit_on(&calibration_bands::<F16>(args.size), 8, &smat_config(&args));
        eprintln!(
            "plan: calibrated T_e(tc, packed)={:.3e} ms T_init(tc)={:.3e} ms (r2 {:.4}) | T_e(scalar)={:.3e} ms",
            cal.tc.t_e_ms, cal.tc.t_init_ms, cal.tc.r2, cal.scalar.t_e_ms
        );
        cal
    });
    // The decisions the server's planner will make, reproduced offline
    // (decisions are a pure function of calibration + matrix): the
    // reference handles below are prepared under the *same configurations
    // chosen manually*, so verification checks that planned serving is
    // bitwise identical to hand-pinning those configs. The planning width
    // is the server's column budget.
    let plan_decisions: Option<Vec<PlanDecision>> = plan_cal.map(|cal| {
        let offline = Planner::with_calibration(PlanSpace::default(), cal);
        matrices
            .iter()
            .map(|a| offline.decide(a, args.budget))
            .collect()
    });
    // Out-of-band reference handles for bitwise verification: prepared with
    // the server's exact per-tenant config, but never touching its registry
    // (`get` would count hits).
    let references: Vec<Smat<F16>> = matrices
        .iter()
        .enumerate()
        .map(|(m, a)| {
            let cfg = match &plan_decisions {
                Some(ds) => ds[m].apply(&smat_config(&args)),
                None => smat_config(&args),
            };
            Smat::prepare(a, cfg)
        })
        .collect();
    eprintln!(
        "replaying {} requests over {} matrices ({}x{}) on {} devices (window {}, budget {})",
        args.requests, args.matrices, args.size, args.size, args.devices, args.window, args.budget
    );
    if args.shard_max_bytes > 0 {
        eprintln!(
            "sharding: matrices above {} bytes fan out across the pool ({} large tenants)",
            args.shard_max_bytes, args.large_matrices
        );
    }
    if let Some(seed) = args.chaos_seed {
        eprintln!(
            "chaos: injecting faults with seed {seed} at blended rate {}",
            args.fault_rate
        );
    }
    if args.mutate_rate > 0.0 {
        eprintln!(
            "mutations: {} scheduled at rate {}{}",
            muts.len(),
            args.mutate_rate,
            if args.naive_update {
                " (naive re-prepare-per-update mode)"
            } else {
                " (overlay mode)"
            }
        );
    }

    // Lock-order smoke: record every checked-lock acquisition across both
    // replays (and the warm-prepare threads they spawn) and analyze the
    // accumulated graph at the end. The serving protocols must come back
    // with zero C-codes.
    if args.sanitize {
        smat_repro::sanitize::reset();
        smat_repro::sanitize::enable();
        eprintln!("sanitize: lock-order recording enabled");
    }

    // Trace only the first replay: the recorder is process-global, so the
    // second (determinism-check) replay would otherwise interleave its
    // spans with the first run's timeline.
    let tracer = smat_repro::trace::TraceHandle::new();
    if args.trace.is_some() {
        tracer.enable();
    }
    let first = replay(&args, &matrices, &references, &trace, &muts, plan_cal, true);
    if let Some(path) = &args.trace {
        tracer.disable();
        let events = tracer.drain();
        eprintln!("{}", smat_repro::trace::summary_table(&events));
        let json = smat_repro::trace::chrome_trace_json(&events);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing trace to {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("wrote {} trace events to {path}", events.len());
    }
    eprintln!(
        "run 1: completed {}/{} | registry hit rate {:.3} | mean batch {:.2} | {} responses rode a shared launch",
        first.stats.completed,
        args.requests,
        first.stats.registry.hit_rate(),
        first.stats.mean_batch(),
        first.batched_responses,
    );
    if first.stats.chaos.any_activity() {
        let c = &first.stats.chaos;
        eprintln!(
            "run 1 chaos: {} faults ({} transient / {} ecc / {} offline) | {} retries | {} hedges | {} breaker trips | {} degraded completions | {} requests exhausted the ladder",
            c.faults_injected,
            c.faults_transient,
            c.faults_ecc,
            c.faults_offline,
            c.retries,
            c.hedges,
            c.breaker_trips,
            c.degraded_completions,
            first.exhausted,
        );
    }
    if args.plan {
        eprintln!(
            "run 1 plan: {} planned requests | {} predictions checked | mean rel error {:.4} (worst {:.4}) | {} refits over {} observations",
            first.stats.planned_requests,
            first.plan_checked,
            if first.plan_checked == 0 {
                0.0
            } else {
                first.plan_rel_sum / first.plan_checked as f64
            },
            first.plan_rel_max,
            first.stats.plan_refits,
            first.stats.plan_observations,
        );
    }
    if args.mutate_rate > 0.0 {
        eprintln!(
            "run 1 mutations: {} applied | {} background compactions",
            first.stats.mutations, first.stats.compactions,
        );
    }
    let second = replay(
        &args,
        &matrices,
        &references,
        &trace,
        &muts,
        plan_cal,
        false,
    );
    let runs_identical = first.summary == second.summary;
    eprintln!(
        "run 2: end state {} run 1",
        if runs_identical {
            "identical to"
        } else {
            "DIVERGED from"
        }
    );
    if !runs_identical {
        eprintln!("run 1: {:?}", first.summary);
        eprintln!("run 2: {:?}", second.summary);
    }

    let sanitize_findings = if args.sanitize {
        smat_repro::sanitize::disable();
        let findings = smat_repro::sanitize::report();
        if findings.is_empty() {
            eprintln!("sanitize: lock-order graph clean across both replays (0 findings)");
        } else {
            eprint!("{}", smat_repro::analyze::render_human(&findings));
        }
        Some(findings)
    } else {
        None
    };

    let record = serde_json::json!({
        "example": "serve",
        "spec": spec,
        "devices": args.devices,
        "window": args.window,
        "column_budget": args.budget,
        "matrix_dim": args.size,
        "verified_requests": args.requests,
        "mismatches": first.mismatches,
        "batched_responses": first.batched_responses,
        "degraded_responses": first.degraded_responses,
        "exhausted_requests": first.exhausted,
        "chaos_seed": args.chaos_seed,
        "fault_rate": args.fault_rate,
        "shard_max_bytes": args.shard_max_bytes,
        "mutate_rate": args.mutate_rate,
        "naive_update": args.naive_update,
        "mutations_applied": muts.len(),
        "fanout_requests": first.stats.fanout_requests,
        "shard_subrequests": first.stats.shard_subrequests,
        "registry_hit_rate": first.stats.registry.hit_rate(),
        "plan_enabled": args.plan,
        "plan": args.plan.then(|| serde_json::json!({
            "calibration": plan_cal,
            // Whole-matrix decisions per tenant (sharded tenants re-plan
            // per shard inside the server; these are the unsharded view).
            "decisions": plan_decisions,
            "planned_requests": first.stats.planned_requests,
            "plan_predictions": first.stats.plan_predictions,
            "plan_mean_rel_error": first.stats.plan_mean_rel_error,
            "plan_refits": first.stats.plan_refits,
            "plan_observations": first.stats.plan_observations,
            // Per-request predicted-vs-actual aggregate over responses.
            "request_checks": first.plan_checked,
            "request_mean_rel_error": if first.plan_checked == 0 { 0.0 }
                else { first.plan_rel_sum / first.plan_checked as f64 },
            "request_max_rel_error": first.plan_rel_max,
        })),
        "runs_identical": runs_identical,
        "sanitize_enabled": args.sanitize,
        "sanitize_findings": sanitize_findings.as_ref().map_or(0, Vec::len),
        "sanitize_codes": sanitize_findings
            .as_ref()
            .map_or_else(Vec::new, |f| {
                f.iter().map(|d| d.code.as_str()).collect::<Vec<_>>()
            }),
        "deterministic": first.summary,
        "stats": first.stats,
    });
    println!("{record}");

    let sanitize_clean = sanitize_findings.as_ref().is_none_or(Vec::is_empty);
    if first.mismatches == 0 && runs_identical && sanitize_clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
