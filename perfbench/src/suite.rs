//! `spmm-suite`: the library path with no serving layer.
//!
//! One caller runs closed-loop `Smat::try_spmm` under the default
//! `SmatConfig` at one fixed width over the nine Table I mimics. One
//! operation is one pass: one SpMM per mimic in a fixed order, so every
//! operation does the same work and the simulated counters of every pass
//! are identical.

use std::collections::BTreeMap;
use std::time::Instant;

use smat::{Smat, SmatConfig};
use smat_formats::{Csr, Dense, F16};
use smat_gpusim::Counters;

use crate::bench::{self, Outcome, Params};
use crate::inputs;
use crate::spans::Tracer;

/// Mimic scale: the full Table I sizes times this factor.
const SCALE: f64 = 0.01;
/// Right-hand-side width of every SpMM (one 8-column MMA tile).
const WIDTH: usize = 8;
/// Distinct right-hand sides per mimic; passes cycle through them.
const VARIANTS: u64 = 4;
/// Nominal pass rate that turns `--seconds` into a fixed pass count.
const PASSES_PER_SECOND: f64 = 6.5;

/// The Table I order, which is also the order within a pass.
const MIMICS: [&str; 9] = [
    "mip1",
    "conf5_4-8x8",
    "cant",
    "pdb1HYS",
    "rma10",
    "cop20k_A",
    "consph",
    "shipsec1",
    "dc2",
];

struct Setup {
    tenants: Vec<Csr<F16>>,
    engines: Vec<Smat<F16>>,
}

fn setup(seed: u64, tracer: &mut Tracer) -> Setup {
    let tenants: Vec<Csr<F16>> = MIMICS
        .iter()
        .map(|m| inputs::mimic(m, seed, SCALE))
        .collect();
    let engines = tenants
        .iter()
        .enumerate()
        .map(|(i, a)| {
            tracer.call("prepare", i as u64, || {
                Smat::prepare(a, SmatConfig::default())
            })
        })
        .collect();
    Setup { tenants, engines }
}

pub fn run(p: &Params) -> Outcome {
    let mut tracer = Tracer::new(p.trace);
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..p.setup_rounds() {
        drop(s.take());
        tracer.clear();
        let t0 = Instant::now();
        s = Some(setup(p.seed, &mut tracer));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup { tenants, engines } = s.expect("at least one set-up round");

    let panels: Vec<Vec<Dense<F16>>> = tenants
        .iter()
        .enumerate()
        .map(|(i, a)| {
            (0..VARIANTS)
                .map(|v| {
                    inputs::panel(
                        a.ncols(),
                        WIDTH,
                        inputs::mix(p.seed ^ ((i as u64) << 8) ^ v),
                    )
                })
                .collect()
        })
        .collect();
    let mut oracle: BTreeMap<(usize, usize), Dense<F16>> = BTreeMap::new();

    // Warm-up pass, untimed and untraced.
    for (e, b) in engines.iter().zip(&panels) {
        let _ = e.try_spmm(&b[0]);
    }

    let passes = p.ops(PASSES_PER_SECOND, 3);
    let mut latency_ms = Vec::with_capacity(passes);
    let (mut attempted, mut failed, mut mismatches, mut checked) = (0u64, 0u64, 0u64, 0u64);
    let mut sim_ms = 0.0f64;
    let mut flop = 0.0f64;
    // Per-mimic simulated time and counters of the first pass; every later
    // pass must reproduce them exactly.
    let mut first: Vec<Option<(f64, Counters)>> = vec![None; engines.len()];
    let mut nondeterministic = Vec::new();
    let mut blocks_before = 0usize;
    let mut blocks_after = 0usize;
    for pass in 0..passes {
        let v = (inputs::mix(p.seed ^ pass as u64) % VARIANTS) as usize;
        let root = tracer.begin("pass", pass as u64);
        let t0 = Instant::now();
        let runs: Vec<_> = engines
            .iter()
            .zip(&panels)
            .map(|(e, b)| tracer.call("spmm", pass as u64, || e.try_spmm(&b[v])))
            .collect();
        latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tracer.end(root);

        attempted += 1;
        let mut pass_ok = true;
        for (i, run) in runs.into_iter().enumerate() {
            let mut run = match run {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("spmm-suite: pass {pass} {}: {e}", MIMICS[i]);
                    pass_ok = false;
                    continue;
                }
            };
            if p.corrupt_op == Some(checked) {
                inputs::corrupt(&mut run.c);
            }
            checked += 1;
            let want = oracle
                .entry((i, v))
                .or_insert_with(|| tenants[i].spmm_reference(&panels[i][v]));
            if !inputs::same_bits(&run.c, want) {
                eprintln!(
                    "spmm-suite: pass {pass} {}: output differs from the oracle",
                    MIMICS[i]
                );
                mismatches += 1;
                pass_ok = false;
            }
            let launch = &run.report.launch;
            sim_ms += launch.time_ms;
            flop += 2.0 * tenants[i].nnz() as f64 * WIDTH as f64;
            match &first[i] {
                None => {
                    first[i] = Some((launch.time_ms, launch.totals));
                    blocks_before += run.report.stats_before.nblocks;
                    blocks_after += run.report.stats_after.nblocks;
                }
                Some((t, c)) if t.to_bits() != launch.time_ms.to_bits() || *c != launch.totals => {
                    nondeterministic.push(format!(
                        "{} pass {pass}: simulated launch differs",
                        MIMICS[i]
                    ));
                }
                Some(_) => {}
            }
        }
        if !pass_ok {
            failed += 1;
        }
    }

    let mut out = Outcome {
        values: BTreeMap::new(),
        attempted,
        failed,
        mismatches,
        nondeterministic,
        samples: BTreeMap::new(),
        devices: 1,
        tracer,
    };
    let slice_rates: Vec<f64> = latency_ms
        .chunks(passes.div_ceil(bench::SLICES))
        .map(|c| c.len() as f64 * 1e3 / c.iter().sum::<f64>())
        .collect();
    out.set_sampled(
        "throughput_ops_s",
        bench::percentile(&slice_rates, bench::RATE_QUANTILE),
        slice_rates.len(),
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

    // Deterministic per-layer values: one pass's modelled counters.
    let mut per_pass = Counters::default();
    for (_, c) in first.iter().flatten() {
        per_pass.add(c);
    }
    out.set("kernel.sim_ms", sim_ms / passes as f64);
    out.set("gpusim.mma", per_pass.mma as f64);
    out.set("gpusim.global_bytes", per_pass.global_bytes as f64);
    out.set("gpusim.shared_tx", per_pass.shared_tx as f64);
    out.set("gpusim.ldmatrix", per_pass.ldmatrix as f64);
    out.set("gpusim.pipe_syncs", per_pass.pipe_syncs as f64);
    out.set("gpusim.alu", per_pass.alu as f64);
    out.set(
        "formats.nblocks",
        engines.iter().map(|e| e.bcsr().nblocks()).sum::<usize>() as f64,
    );
    out.set(
        "formats.index_bytes",
        engines.iter().map(Smat::operand_index_bytes).sum::<usize>() as f64,
    );
    out.set("prepare.count", engines.len() as f64);
    out.set(
        "reorder.block_reduction",
        blocks_before as f64 / blocks_after.max(1) as f64,
    );
    let timings: Vec<_> = engines.iter().map(Smat::prepare_timings).collect();
    out.set(
        "prepare.reorder_ms",
        timings.iter().map(|t| t.reorder_ms).sum(),
    );
    out.set("prepare.pack_ms", timings.iter().map(|t| t.pack_ms).sum());
    out.set(
        "prepare.convert_ms",
        timings.iter().map(|t| t.convert_ms).sum(),
    );

    if out.tracer.enabled() {
        let spmm = out.tracer.durations_ms("spmm");
        out.set_sampled("kernel.host_ms_p50", bench::median(&spmm), spmm.len());
        let tiles = passes
            * engines
                .iter()
                .map(|e| e.bcsr().nblocks() * WIDTH.div_ceil(8))
                .sum::<usize>();
        out.set(
            "kernel.host_ns_per_tile",
            spmm.iter().sum::<f64>() * 1e6 / tiles as f64,
        );
        for (i, name) in MIMICS.iter().enumerate() {
            let mine: Vec<f64> = spmm.iter().skip(i).step_by(MIMICS.len()).copied().collect();
            out.set_sampled(
                &format!("kernel.host_ms.{name}"),
                bench::median(&mine),
                mine.len(),
            );
        }
        let prep = out.tracer.durations_ms("prepare");
        out.set_sampled("prepare.host_ms_p50", bench::median(&prep), prep.len());
        out.set_self_times();
    }
    out
}
