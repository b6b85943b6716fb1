//! `serve-zipf` and `serve-churn`: the serving path.
//!
//! Both replay a seeded Zipf trace through `smat_serve::Server` in bursts,
//! the discipline that keeps batch composition and simulated time
//! independent of thread timing: pause dispatch, apply the burst's
//! mutations, quiesce compactions, submit the burst, resume, poll
//! `Server::stats()` once as a monitoring scrape would, and wait for the
//! whole burst. One client thread generates all load. Panels and oracles
//! are built outside the timed region.

use std::collections::{BTreeMap, HashMap};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

use smat::{Calibration, MatrixUpdate, PlanSpace, Planner, PrepareTimings, SmatConfig};
use smat_formats::{Coo, Csr, Dense, Element, F16};
use smat_serve::{
    AdmissionState, CompactionPolicy, MatrixKey, ResponseFuture, ServeError, ServeResponse, Server,
    ServerConfig, ServerStats,
};
use smat_workloads::calibration_bands;

use crate::bench::{self, Outcome, Params, Workload};
use crate::inputs::{self, Mutation, Request};
use crate::spans::Tracer;

/// Scale of ordinary tenants and of the large (sharded) ones.
const SMALL_SCALE: f64 = 0.01;
const LARGE_SCALE: f64 = 0.02;
/// Distinct right-hand sides per (tenant, width).
const VARIANTS: u64 = 4;

/// Everything that differs between the two serving workloads.
struct Shape {
    /// Tenants in popularity-rank order (rank 0 is the hottest).
    names: &'static [&'static str],
    /// Tenants generated at the large scale, which alone exceed
    /// `shard_max_bytes` when sharding is on.
    large: &'static [&'static str],
    widths: &'static [usize],
    zipf_s: f64,
    /// Cell writes per request.
    mutate_rate: f64,
    burst: usize,
    /// Simulated devices, one worker thread each.
    devices: usize,
    requests_per_second: f64,
}

/// Zipf(1.0) over the nine mimics. The hottest tenant and one mid-ranked
/// one are large and fan out across both devices: `mip1` has the most
/// nonzeros per row of the suite, so at the large scale it outweighs every
/// other tenant in bytes whatever its instance.
const ZIPF: Shape = Shape {
    names: &[
        "shipsec1",
        "cop20k_A",
        "rma10",
        "consph",
        "pdb1HYS",
        "mip1",
        "cant",
        "conf5_4-8x8",
        "dc2",
    ],
    large: &["shipsec1", "mip1"],
    widths: &[8, 16, 32],
    zipf_s: 1.0,
    mutate_rate: 0.0,
    burst: 16,
    devices: 2,
    requests_per_second: 17.0,
};

/// More tenants than registry lines, three of them RMAT power-law graphs,
/// a flatter Zipf, narrow requests, and enough mutations that compaction
/// fires several times per run. One device: with two, the planner's online
/// refits see launch observations in thread-timing order, so its refitted
/// model, the compaction decisions made from it, and registry residency
/// after those compactions would differ from run to run of one seed.
const CHURN: Shape = Shape {
    names: &[
        "cop20k_A",
        "rmat-0",
        "rma10",
        "mip1",
        "rmat-1",
        "pdb1HYS",
        "cant",
        "rmat-2",
        "consph",
        "conf5_4-8x8",
        "shipsec1",
        "dc2",
    ],
    large: &[],
    widths: &[8],
    zipf_s: 0.5,
    mutate_rate: 0.3,
    burst: 16,
    devices: 1,
    requests_per_second: 45.0,
};
const CHURN_REGISTRY_LINES: usize = 6;
const RMAT_SCALE: u32 = 10;
const RMAT_NNZ: usize = 6000;
/// Dimension of the band matrices the planner is calibrated on.
const CALIBRATION_DIM: usize = 512;

struct Tenant {
    base: Csr<F16>,
    /// `base` with every mutation so far applied: the oracle's operand.
    content: Csr<F16>,
    overrides: BTreeMap<(usize, usize), f64>,
    version: u64,
    key: Option<MatrixKey>,
    large: bool,
    /// `total_ms` bits of the last prepared handle seen, to notice a
    /// compaction's fresh handle.
    seen_prepare: Option<u64>,
    nblocks: usize,
    index_bytes: usize,
}

impl Tenant {
    fn new(base: Csr<F16>, large: bool) -> Self {
        Tenant {
            content: base.clone(),
            base,
            overrides: BTreeMap::new(),
            version: 0,
            key: None,
            large,
            seen_prepare: None,
            nblocks: 0,
            index_bytes: 0,
        }
    }

    fn key(&self) -> MatrixKey {
        self.key.expect("tenant registered at set-up")
    }
}

/// Prepare and registration observations (set-up and timed region alike).
#[derive(Default)]
struct PrepObs {
    register_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    reorder_ms: f64,
    pack_ms: f64,
    convert_ms: f64,
}

impl PrepObs {
    fn prepared(&mut self, t: &PrepareTimings) {
        self.prepare_ms.push(t.total_ms);
        self.reorder_ms += t.reorder_ms;
        self.pack_ms += t.pack_ms;
        self.convert_ms += t.convert_ms;
    }
}

/// Records what the registry holds for `t` after a prepare may have run.
fn observe_handle(
    server: &Server<F16>,
    t: &mut Tenant,
    obs: &mut PrepObs,
) -> Option<PrepareTimings> {
    let h = server.registry().peek(&t.key())?;
    let timings = h.prepare_timings();
    t.nblocks = h.bcsr().nblocks();
    t.index_bytes = h.operand_index_bytes();
    if t.seen_prepare != Some(timings.total_ms.to_bits()) {
        t.seen_prepare = Some(timings.total_ms.to_bits());
        obs.prepared(&timings);
    }
    Some(timings)
}

fn register(server: &Server<F16>, tracer: &mut Tracer, t: &mut Tenant, op: u64, obs: &mut PrepObs) {
    let t0 = Instant::now();
    let key = tracer.call("register", op, || server.register(&t.content));
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    t.key = Some(key);
    obs.register_ms.push(ms);
    if let Some(timings) = observe_handle(server, t, obs) {
        obs.overhead_ms.push(ms - timings.total_ms);
    }
}

fn tenant_matrix(name: &str, seed: u64, large: bool) -> Csr<F16> {
    match name.strip_prefix("rmat-") {
        Some(k) => {
            let k: u64 = k.parse().expect("rmat tenant index");
            smat_workloads::rmat(RMAT_SCALE, RMAT_NNZ, inputs::mix(seed ^ (k + 1)))
        }
        None => inputs::mimic(name, seed, if large { LARGE_SCALE } else { SMALL_SCALE }),
    }
}

struct Setup {
    server: Server<F16>,
    tenants: Vec<Tenant>,
    obs: PrepObs,
}

/// Builds the tenants, starts the server, calibrates the planner (churn),
/// and registers every tenant: all of `setup_s`.
fn setup(w: Workload, shape: &Shape, seed: u64, tracer: &mut Tracer) -> Setup {
    let mut tenants: Vec<Tenant> = shape
        .names
        .iter()
        .map(|name| {
            let large = shape.large.contains(name);
            Tenant::new(tenant_matrix(name, seed, large), large)
        })
        .collect();
    let config = match w {
        Workload::ServeZipf => {
            let bytes = |large: bool| {
                tenants
                    .iter()
                    .filter(move |t| t.large == large)
                    .map(|t| smat_shard::estimated_csr_bytes(&t.base))
            };
            let max_small = bytes(false).max().unwrap_or(0);
            let (min_large, max_large) = (bytes(true).min(), bytes(true).max());
            let (min_large, max_large) = (min_large.unwrap_or(0), max_large.unwrap_or(0));
            // Above every small tenant, below every large one, and at least
            // half the largest, so each large tenant splits into exactly two
            // shards, one per device.
            let budget = (max_small + 1).max(max_large.div_ceil(2));
            assert!(
                budget < min_large,
                "large tenants must outweigh every other tenant"
            );
            ServerConfig {
                devices: shape.devices,
                registry_capacity: 4 * tenants.len(),
                shard_max_bytes: Some(budget),
                ..ServerConfig::default()
            }
        }
        _ => {
            let base = SmatConfig::default();
            let cal = Calibration::fit_on(&calibration_bands::<F16>(CALIBRATION_DIM), 8, &base);
            ServerConfig {
                devices: shape.devices,
                registry_capacity: CHURN_REGISTRY_LINES,
                planner: Some(Arc::new(Planner::with_calibration(
                    PlanSpace::default(),
                    cal,
                ))),
                compaction: CompactionPolicy::default(),
                smat: base,
                ..ServerConfig::default()
            }
        }
    };
    let server = Server::new(config);
    let mut obs = PrepObs::default();
    // Coldest first, so the hottest tenants are the resident ones when the
    // registry is smaller than the tenant set.
    for (i, t) in tenants.iter_mut().enumerate().rev() {
        register(&server, tracer, t, i as u64, &mut obs);
        assert_eq!(
            server.shard_plan(&t.key()).is_some(),
            t.large,
            "exactly the large tenants are sharded"
        );
    }
    Setup {
        server,
        tenants,
        obs,
    }
}

/// A burst's response and the moment the client saw it.
type Done = (Result<ServeResponse<F16>, ServeError>, Instant);

/// Waits for every response of a burst, timestamping each one the moment
/// the client sees it complete (not in submission order).
fn wait_all(futures: Vec<ResponseFuture<F16>>) -> Vec<Done> {
    struct Unpark(std::thread::Thread);
    impl Wake for Unpark {
        fn wake(self: Arc<Self>) {
            self.0.unpark();
        }
    }
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut pending: Vec<Option<ResponseFuture<F16>>> = futures.into_iter().map(Some).collect();
    let mut done: Vec<Option<Done>> = pending.iter().map(|_| None).collect();
    let mut left = pending.len();
    while left > 0 {
        for (slot, out) in pending.iter_mut().zip(done.iter_mut()) {
            if let Some(fut) = slot {
                if let Poll::Ready(res) = Pin::new(fut).poll(&mut cx) {
                    *out = Some((res, Instant::now()));
                    *slot = None;
                    left -= 1;
                }
            }
        }
        if left > 0 {
            std::thread::park();
        }
    }
    done.into_iter()
        .map(|d| d.expect("every future resolved"))
        .collect()
}

fn to_update(m: &Mutation) -> MatrixUpdate<F16> {
    if m.value == 0.0 {
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

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub fn run(w: Workload, p: &Params) -> Outcome {
    let shape = match w {
        Workload::ServeZipf => &ZIPF,
        _ => &CHURN,
    };
    let mut tracer = Tracer::new(p.trace);
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..p.setup_rounds() {
        drop(s.take());
        tracer.clear();
        let t0 = Instant::now();
        s = Some(setup(w, shape, p.seed, &mut tracer));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        server,
        mut tenants,
        mut obs,
    } = s.expect("at least one set-up round");

    // Warm-up: every (tenant, width) pair once, in rank order, untimed.
    let mut trace: Vec<Request> = (0..tenants.len())
        .flat_map(|tenant| shape.widths.iter().map(move |&width| (tenant, width)))
        .enumerate()
        .map(|(seq, (tenant, width))| Request {
            seq,
            tenant,
            width,
            variant: 0,
        })
        .collect();
    let warmup = trace.len();
    let timed_requests = p.ops(shape.requests_per_second, 2 * shape.burst);
    let timed = inputs::quota_trace(
        timed_requests,
        tenants.len(),
        shape.zipf_s,
        shape.widths,
        VARIANTS,
        p.seed,
    );
    trace.extend(timed.into_iter().map(|r| Request {
        seq: r.seq + warmup,
        ..r
    }));
    let dims: Vec<(usize, usize)> = tenants
        .iter()
        .map(|t| (t.base.nrows(), t.base.ncols()))
        .collect();
    let mutations: Vec<Mutation> = inputs::quota_mutations(
        timed_requests,
        shape.mutate_rate,
        &dims,
        shape.zipf_s,
        p.seed,
    )
    .into_iter()
    .map(|m| Mutation {
        seq: m.seq + warmup,
        ..m
    })
    .collect();
    let mut panels: HashMap<(usize, usize, u64), Dense<F16>> = HashMap::new();
    let mut oracle: HashMap<(usize, u64, usize, u64), Dense<F16>> = HashMap::new();

    let mut off = Tracer::new(false);
    let mut s0: Option<ServerStats> = None;
    let (mut attempted, mut failed, mut mismatches, mut checked) = (0u64, 0u64, 0u64, 0u64);
    let mut completed = 0u64;
    let mut timed_s = 0.0f64;
    let mut flop = 0.0f64;
    let mut latency_ms = Vec::new();
    let mut burst_rates = Vec::new();
    let (mut sharded_ms, mut unsharded_ms) = (Vec::new(), Vec::new());
    let mut mcur = 0usize;
    let (warm, measured) = trace.split_at(warmup);
    let bursts = warm.chunks(shape.burst).map(|b| (false, b));
    let bursts = bursts.chain(measured.chunks(shape.burst).map(|b| (true, b)));
    for (bi, (timed, reqs)) in bursts.enumerate() {
        if timed && s0.is_none() {
            s0 = Some(server.stats());
        }
        // Untimed prelude: this burst's mutations into the oracle's view of
        // each tenant, and the request panels.
        let last_seq = reqs.last().expect("chunks are non-empty").seq;
        let first_mut = mcur;
        while mcur < mutations.len() && mutations[mcur].seq <= last_seq {
            let m = &mutations[mcur];
            tenants[m.tenant].overrides.insert((m.row, m.col), m.value);
            mcur += 1;
        }
        let muts = &mutations[first_mut..mcur];
        let mut touched: Vec<usize> = muts.iter().map(|m| m.tenant).collect();
        touched.sort_unstable();
        touched.dedup();
        for &ti in &touched {
            let t = &mut tenants[ti];
            let cells: Vec<(usize, usize, f64)> =
                t.overrides.iter().map(|(&(r, c), &v)| (r, c, v)).collect();
            t.content = Coo::with_overrides(&t.base, &cells).to_csr();
            t.version += 1;
            oracle.retain(|k, _| k.0 != ti);
        }
        let bs: Vec<Dense<F16>> = reqs
            .iter()
            .map(|r| {
                let rows = tenants[r.tenant].base.ncols();
                panels
                    .entry((r.tenant, r.width, r.variant))
                    .or_insert_with(|| {
                        let key = p.seed
                            ^ ((r.tenant as u64) << 8)
                            ^ ((r.width as u64) << 16)
                            ^ r.variant;
                        inputs::panel(rows, r.width, inputs::mix(key))
                    })
                    .clone()
            })
            .collect();

        // Timed region.
        let tr: &mut Tracer = if timed { &mut tracer } else { &mut off };
        let root = tr.begin("burst", bi as u64);
        let t_start = Instant::now();
        server.pause();
        for m in muts {
            let key = tenants[m.tenant].key();
            // An evicted tenant takes its mutations along when the client
            // re-registers its current content.
            if server.registry().admission_state(&key) == AdmissionState::Absent {
                continue;
            }
            attempted += u64::from(timed);
            let op = to_update(m);
            if let Err(e) = tr.call("mutate", m.seq as u64, || {
                server.mutate(key, std::slice::from_ref(&op))
            }) {
                eprintln!(
                    "{}: mutation before request {} failed: {e}",
                    w.name(),
                    m.seq
                );
                failed += u64::from(timed);
            }
            // Quiescing after every write, not once per burst, keeps the
            // outcome independent of thread timing: a second write to a
            // tenant whose compaction is still running would land on the
            // old or the new handle depending on when the compaction
            // publishes, and each publish also refreshes the tenant's
            // LRU recency.
            tr.call("quiesce_compactions", m.seq as u64, || {
                server.quiesce_compactions()
            });
        }

        let mut futures = Vec::with_capacity(reqs.len());
        let mut submitted_at = Vec::with_capacity(reqs.len());
        for (r, b) in reqs.iter().zip(bs) {
            let t = &mut tenants[r.tenant];
            // Sharded parents live outside the registry and are never evicted.
            if server.registry().admission_state(&t.key()) == AdmissionState::Absent && !t.large {
                register(&server, tr, t, r.seq as u64, &mut obs);
            }
            let key = t.key();
            submitted_at.push(Instant::now());
            futures.push(tr.call("submit", r.seq as u64, || server.submit(key, b)));
        }
        server.resume();
        let t_resume = Instant::now();
        tr.call("stats", bi as u64, || server.stats());
        let done = wait_all(futures);
        let t_end = Instant::now();
        for (r, (_, t_done)) in reqs.iter().zip(&done) {
            tr.record("wait", r.seq as u64, t_resume, *t_done);
        }
        tr.end(root);

        // Untimed postlude: compactions' fresh handles, then the oracle.
        for &ti in &touched {
            observe_handle(&server, &mut tenants[ti], &mut obs);
        }
        if !timed {
            continue;
        }
        let burst_s = (t_end - t_start).as_secs_f64();
        timed_s += burst_s;
        let completed_before = completed;
        for ((r, (res, t_done)), t_sub) in reqs.iter().zip(done).zip(&submitted_at) {
            attempted += 1;
            let mut resp = match res {
                Ok(resp) => resp,
                Err(e) => {
                    eprintln!("{}: request {} failed: {e}", w.name(), r.seq);
                    failed += 1;
                    continue;
                }
            };
            if p.corrupt_op == Some(checked) {
                inputs::corrupt(&mut resp.c);
            }
            checked += 1;
            let t = &tenants[r.tenant];
            let want = oracle
                .entry((r.tenant, t.version, r.width, r.variant))
                .or_insert_with(|| {
                    t.content
                        .spmm_reference(&panels[&(r.tenant, r.width, r.variant)])
                });
            if !inputs::same_bits(&resp.c, want) {
                eprintln!("{}: request {} differs from the oracle", w.name(), r.seq);
                mismatches += 1;
                failed += 1;
                continue;
            }
            completed += 1;
            flop += 2.0 * t.content.nnz() as f64 * r.width as f64;
            let ms = (t_done - *t_sub).as_secs_f64() * 1e3;
            latency_ms.push(ms);
            if t.large {
                sharded_ms.push(ms);
            } else {
                unsharded_ms.push(ms);
            }
        }
        burst_rates.push((completed - completed_before) as f64 / burst_s);
    }
    let s0 = s0.expect("at least one timed burst");
    let s1 = server.stats();
    drop(server);

    let mut out = Outcome {
        values: BTreeMap::new(),
        attempted,
        failed,
        mismatches,
        nondeterministic: Vec::new(),
        samples: BTreeMap::new(),
        devices: shape.devices,
        tracer,
    };
    let sim_ms = s1.sim_ms_total - s0.sim_ms_total;
    out.set_sampled(
        "throughput_ops_s",
        bench::percentile(&burst_rates, bench::RATE_QUANTILE),
        burst_rates.len(),
    );
    out.set_sampled(
        "latency_p50_ms",
        bench::median(&latency_ms),
        latency_ms.len(),
    );
    out.set_sampled(
        "latency_p90_ms",
        bench::percentile(&latency_ms, 0.9),
        latency_ms.len(),
    );
    out.samples
        .insert("latency_beyond_p90".into(), bench::beyond_p90(&latency_ms));
    out.set("sim_gflops", flop / (sim_ms * 1e-3) / 1e9);
    out.set_sampled("setup_s", bench::median(&setup_s), setup_s.len());
    out.set("peak_rss_mb", inputs::peak_rss_mb().unwrap_or(f64::NAN));

    out.set("kernel.sim_ms", sim_ms / completed.max(1) as f64);
    let unsharded = tenants.iter().filter(|t| !t.large);
    out.set(
        "formats.nblocks",
        unsharded.clone().map(|t| t.nblocks).sum::<usize>() as f64,
    );
    out.set(
        "formats.index_bytes",
        unsharded.map(|t| t.index_bytes).sum::<usize>() as f64,
    );
    out.set(
        "prepare.count",
        (s1.registry.prepares + s1.registry.compactions) as f64,
    );
    out.set_sampled(
        "prepare.host_ms_p50",
        bench::median(&obs.prepare_ms),
        obs.prepare_ms.len(),
    );
    out.set("prepare.reorder_ms", obs.reorder_ms);
    out.set("prepare.pack_ms", obs.pack_ms);
    out.set("prepare.convert_ms", obs.convert_ms);
    out.set_sampled(
        "register.host_ms_p50",
        bench::median(&obs.register_ms),
        obs.register_ms.len(),
    );
    out.set_sampled(
        "register.overhead_ms",
        bench::median(&obs.overhead_ms),
        obs.overhead_ms.len(),
    );
    let (r0, r1) = (&s0.registry, &s1.registry);
    out.set(
        "registry.hit_ratio",
        ratio(r1.hits - r0.hits, r1.misses - r0.misses),
    );
    out.set("registry.evictions", (r1.evictions - r0.evictions) as f64);
    out.set("planner.mean_rel_error", s1.plan_mean_rel_error);
    out.set("planner.refits", s1.plan_refits as f64);
    out.set(
        "plan_cache.hit_ratio",
        ratio(
            s1.plans.hits - s0.plans.hits,
            s1.plans.misses - s0.plans.misses,
        ),
    );
    let launches = s1.batches - s0.batches;
    out.set(
        "batch.requests_per_launch",
        (s1.batched_requests - s0.batched_requests) as f64 / launches.max(1) as f64,
    );
    out.set("batch.max", s1.max_batch as f64);
    let busy_ms: f64 = s1
        .devices
        .iter()
        .zip(&s0.devices)
        .map(|(a, b)| a.busy_ms - b.busy_ms)
        .sum();
    out.set(
        "device.busy_share",
        busy_ms / (shape.devices as f64 * timed_s * 1e3),
    );
    out.set(
        "shard.fanouts",
        (s1.fanout_requests - s0.fanout_requests) as f64,
    );
    out.set(
        "shard.subrequests",
        (s1.shard_subrequests - s0.shard_subrequests) as f64,
    );
    out.set_sampled(
        "shard.latency_p50_ms",
        bench::median(&sharded_ms),
        sharded_ms.len(),
    );
    out.set_sampled(
        "unsharded.latency_p50_ms",
        bench::median(&unsharded_ms),
        unsharded_ms.len(),
    );
    out.set("mutate.count", (s1.mutations - s0.mutations) as f64);
    out.set("compaction.count", (s1.compactions - s0.compactions) as f64);

    if out.tracer.enabled() {
        let us = |v: Vec<f64>| v.into_iter().map(|ms| ms * 1e3).collect::<Vec<f64>>();
        let submit = us(out.tracer.durations_ms("submit"));
        out.set_sampled("submit.host_us_p50", bench::median(&submit), submit.len());
        let stats = out.tracer.durations_ms("stats");
        out.set_sampled("stats.host_ms_p50", bench::median(&stats), stats.len());
        out.set("stats.host_ms_last", stats.last().copied().unwrap_or(0.0));
        let mutate = us(out.tracer.durations_ms("mutate"));
        out.set_sampled("mutate.host_us_p50", bench::median(&mutate), mutate.len());
        out.set(
            "compaction.wait_ms",
            out.tracer.durations_ms("quiesce_compactions").iter().sum(),
        );
        out.set_self_times();
    }
    out
}
