//! One function per table/figure of the paper. Each prints a human-readable
//! table to stdout and returns machine-readable JSON records (collected by
//! the `reproduce` binary with `--json`).
//!
//! Sizes: the paper runs 16k×16k band matrices and full SuiteSparse
//! matrices on an A100; this harness defaults to `band_n = 4096` and
//! `scale = 0.1` mimics so the full suite completes in minutes on one CPU
//! core (EXPERIMENTS.md documents the scaling). Pass `--full` to reproduce
//! the paper's exact dimensions.

use serde_json::{json, Value};
use smat::{AccumMode, OptFlags, PerfModel, PerfSample, Schedule, Smat, SmatConfig};
use smat_baselines::CublasLike;
use smat_formats::{Csr, Element, F16};
use smat_gpusim::Gpu;
use smat_reorder::{evaluate_reordering, ReorderAlgorithm};
use smat_workloads::{band, band_nnz, dense_b, table1};

use crate::runner::{fmt_cell, geomean, run_engine, Engine, Measurement};

/// Harness-wide parameters.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Linear scale factor applied to the Table I mimics.
    pub scale: f64,
    /// Dimension of the synthetic band matrices (paper: 16384).
    pub band_n: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 0.1,
            band_n: 4096,
        }
    }
}

impl HarnessConfig {
    /// The paper's full-size configuration.
    pub fn full() -> Self {
        HarnessConfig {
            scale: 1.0,
            band_n: 16384,
        }
    }

    /// Band widths swept in Fig. 2 (paper: 64…4096 on a 16k matrix, i.e.
    /// n/256 … n/4), geometric with factor 2.
    pub fn fig2_bandwidths(&self) -> Vec<usize> {
        let mut b = (self.band_n / 256).max(8);
        let mut out = Vec::new();
        while b <= self.band_n / 4 {
            out.push(b);
            b *= 2;
        }
        out
    }

    /// Band widths swept in Fig. 9 (paper: 64 … 16k = fully dense).
    pub fn fig9_bandwidths(&self) -> Vec<usize> {
        let mut b = (self.band_n / 256).max(8);
        let mut out = Vec::new();
        while b < self.band_n {
            out.push(b);
            b *= 2;
        }
        out.push(self.band_n); // dense
        out
    }
}

fn gpu() -> Gpu {
    Gpu::a100()
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Table I: the benchmark matrices (mimics), with generated-vs-paper stats.
pub fn run_table1(cfg: &HarnessConfig) -> Vec<Value> {
    println!(
        "\n== Table I: benchmark matrices (mimics at scale {}) ==",
        cfg.scale
    );
    println!(
        "{:<18} {:<18} {:>10} {:>12} {:>9}  {:>10} {:>12}",
        "domain", "name", "n (gen)", "nnz (gen)", "sparsity", "n (paper)", "nnz (paper)"
    );
    let mut records = Vec::new();
    for m in table1() {
        let g: Csr<F16> = m.generate(cfg.scale);
        println!(
            "{:<18} {:<18} {:>10} {:>12} {:>8.2}%  {:>10} {:>12}",
            m.domain,
            m.name,
            g.nrows(),
            g.nnz(),
            g.sparsity() * 100.0,
            m.full_n,
            m.full_nnz
        );
        records.push(json!({
            "experiment": "table1",
            "matrix": m.name,
            "domain": m.domain,
            "nrows": g.nrows(),
            "nnz": g.nnz(),
            "sparsity": g.sparsity(),
            "paper_n": m.full_n,
            "paper_nnz": m.full_nnz,
            "paper_sparsity": m.sparsity(),
        }));
    }
    records
}

// ---------------------------------------------------------------------------
// Fig. 2 — performance model vs measurement across optimization combos
// ---------------------------------------------------------------------------

/// Fig. 2: run every T/B/C combination over band matrices of increasing
/// bandwidth, fit `T_tot = T_e·n_e + T_init` per variant, and report
/// measured vs model.
pub fn run_fig2(cfg: &HarnessConfig) -> Vec<Value> {
    let gpu = gpu();
    let n = cfg.band_n;
    let bandwidths = cfg.fig2_bandwidths();
    println!("\n== Fig. 2: perf model validation, {n}x{n} band x dense {n}x8 ==");

    let mut records = Vec::new();
    let b = dense_b::<F16>(n, 8);

    for opts in OptFlags::all_combinations() {
        let mut samples = Vec::new();
        let mut per_bw = Vec::new();
        for &bw in &bandwidths {
            let a = band::<F16>(n, bw);
            let config = SmatConfig {
                reorder: ReorderAlgorithm::Identity, // band is already optimal
                opts,
                device: gpu.cfg.clone(),
                ..SmatConfig::default()
            };
            let engine = Smat::prepare(&a, config);
            let run = engine.spmm(&b);
            samples.push(PerfSample {
                n_e: run.report.nblocks as f64,
                t_ms: run.report.elapsed_ms(),
            });
            per_bw.push((bw, run.report.nblocks, run.report.elapsed_ms()));
        }
        let model = PerfModel::fit(&samples);
        let (mre, excluded) = model.relative_error_stats(&samples);
        println!(
            "\n-- variant {:<6}  T_e = {:.6} us/block, T_init = {:.4} ms, R^2 = {:.4}, MRE = {:.2}%{}",
            opts.label(),
            model.t_e_ms * 1e3,
            model.t_init_ms,
            model.r2,
            mre * 100.0,
            if excluded > 0 {
                format!(" ({excluded} zero-time samples excluded)")
            } else {
                String::new()
            }
        );
        println!(
            "{:>10} {:>10} {:>14} {:>14} {:>8}",
            "bandwidth", "n_e", "measured ms", "model ms", "err %"
        );
        for (bw, n_e, t) in &per_bw {
            let pred = model.predict(*n_e as f64);
            println!(
                "{:>10} {:>10} {:>14.4} {:>14.4} {:>7.2}%",
                bw,
                n_e,
                t,
                pred,
                (pred - t) / t * 100.0
            );
            records.push(json!({
                "experiment": "fig2",
                "variant": opts.label(),
                "bandwidth": bw,
                "n_e": n_e,
                "measured_ms": t,
                "model_ms": pred,
                "t_e_ms": model.t_e_ms,
                "t_init_ms": model.t_init_ms,
                "r2": model.r2,
                "model_mre": mre,
                "mre_excluded": excluded,
            }));
        }
    }

    // Headline ratios of §III: TC API ~10x, full vs naive ~22x.
    let time_of = |label: &str| -> f64 {
        let vals: Vec<f64> = records
            .iter()
            .filter(|r| r["variant"] == label)
            .map(|r| r["measured_ms"].as_f64().unwrap())
            .collect();
        geomean(vals)
    };
    let naive = time_of("naive");
    println!("\n-- speedup over naive (geomean across bandwidths) --");
    for label in ["C", "B", "T", "B+C", "T+C", "T+B", "T+B+C"] {
        println!("{label:<6} {:>8.2}x", naive / time_of(label));
    }
    records
}

// ---------------------------------------------------------------------------
// Fig. 3 — blocks-per-row distributions under reordering
// ---------------------------------------------------------------------------

/// Fig. 3: block count and blocks-per-row distribution for original / row /
/// row+col reorderings of every Table I matrix.
pub fn run_fig3(cfg: &HarnessConfig) -> Vec<Value> {
    println!("\n== Fig. 3: BCSR blocks per row, reordering effect (16x16 blocks) ==");
    println!(
        "{:<14} {:<14} {:>10} {:>10} {:>10} {:>10}",
        "matrix", "ordering", "blocks", "mean/row", "stddev", "max/row"
    );
    let mut records = Vec::new();
    for m in table1() {
        let a: Csr<F16> = m.generate(cfg.scale);
        let arms = [
            ("original", ReorderAlgorithm::Identity),
            ("rows", ReorderAlgorithm::JaccardRows { tau: 0.7 }),
            ("rows+cols", ReorderAlgorithm::JaccardRowsCols { tau: 0.7 }),
        ];
        for (label, alg) in arms {
            let (_, effect) = evaluate_reordering(&a, alg, 16, 16);
            println!(
                "{:<14} {:<14} {:>10} {:>10.2} {:>10.2} {:>10}",
                m.name,
                label,
                effect.after.nblocks,
                effect.after.mean,
                effect.after.stddev,
                effect.after.max
            );
            records.push(json!({
                "experiment": "fig3",
                "matrix": m.name,
                "ordering": label,
                "nblocks": effect.after.nblocks,
                "mean": effect.after.mean,
                "stddev": effect.after.stddev,
                "max": effect.after.max,
                "block_reduction": effect.block_reduction(),
                "stddev_reduction": effect.stddev_reduction(),
            }));
        }
    }
    records
}

// ---------------------------------------------------------------------------
// Figs. 4-7 — reordering effect on each library's performance
// ---------------------------------------------------------------------------

/// Figs. 4–7: GFLOP/s of one engine on every Table I matrix under the three
/// orderings (N = 8).
pub fn run_reorder_effect(cfg: &HarnessConfig, engine: Engine) -> Vec<Value> {
    let fig = match engine {
        Engine::Smat => "fig4",
        Engine::Dasp => "fig5",
        Engine::Magicube => "fig6",
        Engine::Cusparse => "fig7",
    };
    println!(
        "\n== {}: reordering effect on {} (GFLOP/s, N=8) ==",
        fig.to_uppercase(),
        engine.name()
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "matrix", "original", "rows", "rows+cols"
    );
    let gpu = gpu();
    let mut records = Vec::new();
    for m in table1() {
        let a: Csr<F16> = m.generate(cfg.scale);
        let b = dense_b::<F16>(a.ncols(), 8);
        let mut cells = Vec::new();
        for (label, alg) in [
            ("original", ReorderAlgorithm::Identity),
            ("rows", ReorderAlgorithm::JaccardRows { tau: 0.7 }),
            ("rows+cols", ReorderAlgorithm::JaccardRowsCols { tau: 0.7 }),
        ] {
            let meas = run_engine(engine, &gpu, &a, &b, alg);
            records.push(json!({
                "experiment": fig,
                "matrix": m.name,
                "engine": engine.name(),
                "ordering": label,
                "gflops": meas.gflops,
                "time_ms": meas.time_ms,
                "imbalance": meas.imbalance,
                "error": meas.error,
            }));
            cells.push(meas.gflops);
        }
        println!(
            "{:<14} {:>12} {:>12} {:>12}",
            m.name,
            fmt_cell(cells[0]),
            fmt_cell(cells[1]),
            fmt_cell(cells[2])
        );
    }
    records
}

// ---------------------------------------------------------------------------
// Fig. 8 — performance comparison on the SuiteSparse set
// ---------------------------------------------------------------------------

/// Fig. 8 + §VI-B summary: all four engines on every Table I matrix (N = 8),
/// with geomean speedups.
pub fn run_fig8(cfg: &HarnessConfig) -> Vec<Value> {
    println!("\n== Fig. 8: performance comparison (GFLOP/s, N=8) ==");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "matrix", "SMaT", "DASP", "Magicube", "cuSPARSE"
    );
    let gpu = gpu();
    let mut records = Vec::new();
    let mut per_engine: std::collections::HashMap<&str, Vec<f64>> = Default::default();

    for m in table1() {
        let a: Csr<F16> = m.generate(cfg.scale);
        let b = dense_b::<F16>(a.ncols(), 8);
        let mut row: Vec<Measurement> = Vec::new();
        for e in Engine::all() {
            // SMaT runs with its preprocessing; the baselines consume the
            // matrix as distributed (their own internal preprocessing is
            // part of their engines).
            let alg = if e == Engine::Smat {
                ReorderAlgorithm::smat_default()
            } else {
                ReorderAlgorithm::Identity
            };
            row.push(run_engine(e, &gpu, &a, &b, alg));
        }
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10}",
            m.name,
            fmt_cell(row[0].gflops),
            fmt_cell(row[1].gflops),
            fmt_cell(row[2].gflops),
            fmt_cell(row[3].gflops)
        );
        for (e, meas) in Engine::all().iter().zip(&row) {
            per_engine.entry(e.name()).or_default().push(meas.gflops);
            records.push(json!({
                "experiment": "fig8",
                "matrix": m.name,
                "engine": meas.engine,
                "gflops": meas.gflops,
                "time_ms": meas.time_ms,
                "imbalance": meas.imbalance,
                "error": meas.error,
            }));
        }
    }

    // §VI-B summary: geomean + max speedups of SMaT over each baseline.
    println!("\n-- SMaT speedup summary (paper: 2.60x DASP, 10.78x Magicube, 16.32x cuSPARSE) --");
    let smat = per_engine.get("SMaT").cloned().unwrap_or_default();
    for other in ["DASP", "Magicube", "cuSPARSE"] {
        let vals = per_engine.get(other).cloned().unwrap_or_default();
        let ratios: Vec<f64> = smat
            .iter()
            .zip(&vals)
            .map(|(s, o)| if *o > 0.0 { s / o } else { f64::NAN })
            .collect();
        let g = geomean(ratios.iter().copied());
        let max = ratios.iter().copied().fold(f64::NAN, f64::max);
        println!("vs {other:<10} geomean {g:>7.2}x   max {max:>8.2}x");
        records.push(json!({
            "experiment": "fig8-summary",
            "baseline": other,
            "geomean_speedup": g,
            "max_speedup": max,
        }));
    }

    let rows: Vec<(String, f64)> = Engine::all()
        .iter()
        .map(|e| {
            (
                e.name().to_string(),
                geomean(per_engine.get(e.name()).cloned().unwrap_or_default()),
            )
        })
        .collect();
    println!();
    print!(
        "{}",
        crate::plot::bar_chart("geomean GFLOP/s across Table I", &rows, 48)
    );
    records
}

// ---------------------------------------------------------------------------
// Fig. 9 — synthetic band matrix sweep
// ---------------------------------------------------------------------------

/// Fig. 9a (N=8) / 9b (N=128): band matrix sweep from b=64-equivalent up to
/// fully dense, all engines plus cuBLAS effective FLOP/s.
pub fn run_fig9(cfg: &HarnessConfig, n_cols: usize) -> Vec<Value> {
    let gpu = gpu();
    let n = cfg.band_n;
    let sub = if n_cols <= 8 { "9a" } else { "9b" };
    println!("\n== Fig. {sub}: band {n}x{n} * dense {n}x{n_cols}, GFLOP/s ==");
    println!(
        "{:>10} {:>9} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "bandwidth", "sparsity", "SMaT", "DASP", "Magicube", "cuSPARSE", "cuBLAS(eff)"
    );

    // cuBLAS measured once on the dense matrix, then scaled by nnz fraction
    // (the paper's §VI-C "Note").
    let cublas_dense = CublasLike::new(&gpu)
        .gemm_time(n, n, n_cols)
        .expect("dense GEMM timing");

    let mut records = Vec::new();
    for bw in cfg.fig9_bandwidths() {
        let a = band::<F16>(n, bw);
        let b = dense_b::<F16>(n, n_cols);
        let sparsity = a.sparsity();
        let mut cells = Vec::new();
        for e in Engine::all() {
            // Band matrices are already optimally blocked: no reordering
            // (§VI-C).
            let meas = run_engine(e, &gpu, &a, &b, ReorderAlgorithm::Identity);
            records.push(json!({
                "experiment": format!("fig{sub}"),
                "bandwidth": bw,
                "sparsity": sparsity,
                "engine": meas.engine,
                "gflops": meas.gflops,
                "time_ms": meas.time_ms,
                "error": meas.error,
            }));
            cells.push(meas.gflops);
        }
        let cublas_eff = cublas_dense.gflops_effective(a.nnz(), n_cols);
        records.push(json!({
            "experiment": format!("fig{sub}"),
            "bandwidth": bw,
            "sparsity": sparsity,
            "engine": "cuBLAS-effective",
            "gflops": cublas_eff,
            "time_ms": cublas_dense.time_ms,
        }));
        println!(
            "{:>10} {:>8.2}% {:>10} {:>10} {:>10} {:>10} {:>12}",
            bw,
            sparsity * 100.0,
            fmt_cell(cells[0]),
            fmt_cell(cells[1]),
            fmt_cell(cells[2]),
            fmt_cell(cells[3]),
            fmt_cell(cublas_eff)
        );
    }

    // Crossover report: lowest sparsity at which SMaT >= cuBLAS effective.
    let mut crossover: Option<f64> = None;
    for bw in cfg.fig9_bandwidths() {
        let smat = records
            .iter()
            .find(|r| r["bandwidth"] == bw as u64 && r["engine"] == "SMaT")
            .and_then(|r| r["gflops"].as_f64())
            .unwrap_or(0.0);
        let nnz = band_nnz(n, bw);
        let eff = cublas_dense.gflops_effective(nnz, n_cols);
        if smat >= eff {
            let sp = 1.0 - nnz as f64 / (n as f64 * n as f64);
            crossover = Some(crossover.map_or(sp, |c: f64| c.min(sp)));
        }
    }
    match crossover {
        Some(sp) => println!(
            "-- SMaT beats cuBLAS-effective down to sparsity {:.1}% (paper: {}%)",
            sp * 100.0,
            if n_cols <= 8 { 78 } else { 96 }
        ),
        None => println!("-- SMaT never beats cuBLAS-effective in this sweep"),
    }

    // Figure-style rendering: GFLOP/s vs bandwidth, one series per engine.
    let x_labels: Vec<String> = cfg
        .fig9_bandwidths()
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut series: Vec<(String, Vec<f64>)> = Vec::new();
    for engine in ["SMaT", "DASP", "Magicube", "cuSPARSE", "cuBLAS-effective"] {
        let ys: Vec<f64> = cfg
            .fig9_bandwidths()
            .iter()
            .map(|&bw| {
                records
                    .iter()
                    .find(|r| r["bandwidth"] == bw as u64 && r["engine"] == engine)
                    .and_then(|r| r["gflops"].as_f64())
                    .unwrap_or(f64::NAN)
            })
            .collect();
        series.push((engine.to_string(), ys));
    }
    println!();
    print!(
        "{}",
        crate::plot::line_plot(
            &format!("Fig. {sub} as a plot (GFLOP/s vs bandwidth)"),
            &x_labels,
            &series,
            12
        )
    );
    records
}

// ---------------------------------------------------------------------------
// Fig. 10 — scaling the outer dimension N
// ---------------------------------------------------------------------------

/// Fig. 10: wall-clock vs N on the cop20k_A mimic.
pub fn run_fig10(cfg: &HarnessConfig) -> Vec<Value> {
    let gpu = gpu();
    let m = smat_workloads::by_name("cop20k_A").expect("cop20k_A mimic");
    let a: Csr<F16> = m.generate(cfg.scale);
    println!(
        "\n== Fig. 10: wall-clock (ms) vs N on cop20k_A mimic ({}x{}, {} nnz) ==",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "N", "SMaT", "DASP", "Magicube", "cuSPARSE"
    );
    let mut records = Vec::new();
    for n_cols in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1000] {
        let b = dense_b::<F16>(a.ncols(), n_cols);
        let mut cells = Vec::new();
        for e in Engine::all() {
            let alg = if e == Engine::Smat {
                ReorderAlgorithm::smat_default()
            } else {
                ReorderAlgorithm::Identity
            };
            let meas = run_engine(e, &gpu, &a, &b, alg);
            records.push(json!({
                "experiment": "fig10",
                "n": n_cols,
                "engine": meas.engine,
                "time_ms": meas.time_ms,
                "gflops": meas.gflops,
                "error": meas.error,
            }));
            cells.push(meas.time_ms);
        }
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>12}",
            n_cols,
            fmt_cell(cells[0]),
            fmt_cell(cells[1]),
            fmt_cell(cells[2]),
            fmt_cell(cells[3])
        );
    }
    records
}

/// Precision study: the paper claims SMaT "works with all data types
/// supported by the MMA hardware units" — this runs the same pipeline in
/// f16, bf16 and int8 (block 16×32 feeding `mma.m16n8k32`, double the FLOP
/// rate at equal bytes) and reports simulated throughput plus accuracy
/// against an f32 reference on non-integer values.
pub fn run_precision(cfg: &HarnessConfig) -> Vec<Value> {
    use smat_formats::{Bf16, Dense};
    let gpu = gpu();
    let m = smat_workloads::by_name("cop20k_A").expect("mimic");
    let a32: Csr<f32> = m.generate(cfg.scale);
    // Fractional values exercise rounding: v / 3 is inexact in every
    // storage precision.
    let a32 = Csr::from_raw(
        a32.nrows(),
        a32.ncols(),
        a32.row_ptr().to_vec(),
        a32.col_idx().to_vec(),
        a32.values().iter().map(|v| v / 3.0).collect(),
    );
    let b32 = Dense::from_fn(a32.ncols(), 8, |i, j| {
        (((i * 3 + j * 5) % 7) as f32 - 3.0) / 3.0
    });
    let reference = a32.spmm_reference(&b32);
    let ref_scale = reference
        .as_slice()
        .iter()
        .map(|v| v.abs() as f64)
        .fold(0.0, f64::max)
        .max(1e-30);

    println!("\n== Precision study: cop20k_A mimic, N=8 ==");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>12}",
        "precision", "block", "GFLOP/s", "max rel err", "time ms"
    );
    let mut records = Vec::new();

    fn run_one<T: Element>(
        gpu: &Gpu,
        a32: &Csr<f32>,
        b32: &Dense<f32>,
        reference: &Dense<f32>,
        ref_scale: f64,
        block: (usize, usize),
    ) -> (f64, f64, f64) {
        let a: Csr<T> = a32.cast();
        let b: Dense<T> = b32.cast();
        let config = SmatConfig {
            block_h: block.0,
            block_w: block.1,
            device: gpu.cfg.clone(),
            ..SmatConfig::default()
        };
        let run = Smat::prepare(&a, config).spmm(&b);
        let err = (0..reference.nrows())
            .flat_map(|i| (0..8).map(move |j| (i, j)))
            .map(|(i, j)| (run.c.get(i, j).to_f64() - reference.get(i, j) as f64).abs())
            .fold(0.0, f64::max)
            / ref_scale;
        (run.report.gflops(), err, run.report.elapsed_ms())
    }

    type PrecisionCase = (&'static str, (usize, usize), (f64, f64, f64));
    let cases: Vec<PrecisionCase> = vec![
        (
            "f32-sim",
            (16, 16),
            run_one::<f32>(&gpu, &a32, &b32, &reference, ref_scale, (16, 16)),
        ),
        (
            "f16",
            (16, 16),
            run_one::<F16>(&gpu, &a32, &b32, &reference, ref_scale, (16, 16)),
        ),
        (
            "bf16",
            (16, 16),
            run_one::<Bf16>(&gpu, &a32, &b32, &reference, ref_scale, (16, 16)),
        ),
        (
            "i8",
            (16, 32),
            run_one::<i8>(&gpu, &a32, &b32, &reference, ref_scale, (16, 32)),
        ),
    ];
    for (name, block, (gflops, err, t)) in &cases {
        println!(
            "{:<10} {:>12} {:>12.1} {:>14.3e} {:>12.4}",
            name,
            format!("{}x{}", block.0, block.1),
            gflops,
            err,
            t
        );
        records.push(json!({
            "experiment": "precision",
            "precision": name,
            "block": format!("{}x{}", block.0, block.1),
            "gflops": gflops,
            "max_rel_err": err,
            "time_ms": t,
        }));
    }
    records
}

/// Roofline classification: which resource bounds each engine on a mesh
/// matrix and on the band sweep extremes — the mechanism behind the Fig. 9
/// crossovers (SpMM at N=8 is bandwidth-bound; scalar kernels drown in
/// latency/decode; dense TC GEMM at large N is compute-bound).
pub fn run_roofline(cfg: &HarnessConfig) -> Vec<Value> {
    use smat_gpusim::Bound;
    let gpu = gpu();
    println!("\n== Roofline: busiest-SM cycle breakdown (N=8) ==");
    println!(
        "{:<14} {:<10} {:>12} {:>12} {:>12}  bound",
        "workload", "engine", "comp cyc", "mem cyc", "latency cyc"
    );
    let mut records = Vec::new();
    let mut cases: Vec<(String, Csr<F16>)> = vec![
        (
            "cop20k_A".to_string(),
            smat_workloads::by_name("cop20k_A")
                .unwrap()
                .generate(cfg.scale),
        ),
        (
            format!("band b={}", cfg.band_n / 64),
            band(cfg.band_n / 4, cfg.band_n / 256),
        ),
    ];
    cases.push((
        format!("band dense {}", cfg.band_n / 4),
        band(cfg.band_n / 4, cfg.band_n / 4),
    ));
    for (name, a) in &cases {
        let b = dense_b::<F16>(a.ncols(), 8);
        for e in Engine::all().iter() {
            let alg = if *e == Engine::Smat {
                ReorderAlgorithm::smat_default()
            } else {
                ReorderAlgorithm::Identity
            };
            let meas = crate::runner::run_engine_profiled(*e, &gpu, a, &b, alg);
            let (p, bound) = match &meas {
                Some(p) => (*p, p.bound()),
                None => continue,
            };
            let _: Bound = bound;
            println!(
                "{:<14} {:<10} {:>12.0} {:>12.0} {:>12.0}  {}",
                name,
                e.name(),
                p.comp_cycles,
                p.mem_cycles,
                p.exposure_cycles,
                bound
            );
            records.push(json!({
                "experiment": "roofline",
                "workload": name,
                "engine": e.name(),
                "comp_cycles": p.comp_cycles,
                "mem_cycles": p.mem_cycles,
                "exposure_cycles": p.exposure_cycles,
                "bound": bound.to_string(),
            }));
        }
    }
    records
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper
// ---------------------------------------------------------------------------

/// Block-size ablation: 16×16 (M16N8K16) vs 16×8 (M16N8K8) blocks.
pub fn run_ablation_block_size(cfg: &HarnessConfig) -> Vec<Value> {
    let gpu = gpu();
    println!("\n== Ablation: BCSR block shape (GFLOP/s, N=8) ==");
    println!("{:<14} {:>12} {:>12}", "matrix", "16x16", "16x8");
    let mut records = Vec::new();
    for m in table1() {
        let a: Csr<F16> = m.generate(cfg.scale);
        let b = dense_b::<F16>(a.ncols(), 8);
        let mut cells = Vec::new();
        for (h, w) in [(16usize, 16usize), (16, 8)] {
            let config = SmatConfig {
                block_h: h,
                block_w: w,
                device: gpu.cfg.clone(),
                ..SmatConfig::default()
            };
            let run = Smat::prepare(&a, config).spmm(&b);
            records.push(json!({
                "experiment": "ablation-block-size",
                "matrix": m.name,
                "block": format!("{h}x{w}"),
                "gflops": run.report.gflops(),
                "nblocks": run.report.nblocks,
            }));
            cells.push(run.report.gflops());
        }
        println!(
            "{:<14} {:>12} {:>12}",
            m.name,
            fmt_cell(cells[0]),
            fmt_cell(cells[1])
        );
    }
    records
}

/// Reordering-algorithm shootout (the §IV-C candidate comparison).
pub fn run_ablation_reorder(cfg: &HarnessConfig) -> Vec<Value> {
    println!("\n== Ablation: reordering algorithms (BCSR block count, 16x16) ==");
    let algs = [
        ReorderAlgorithm::Identity,
        ReorderAlgorithm::JaccardRows { tau: 0.7 },
        ReorderAlgorithm::ReverseCuthillMcKee,
        ReorderAlgorithm::Saad { tau: 0.6 },
        ReorderAlgorithm::GrayCode,
        ReorderAlgorithm::Bisection,
        ReorderAlgorithm::DegreeSort,
    ];
    print!("{:<14}", "matrix");
    for alg in &algs {
        print!(" {:>13}", alg.name());
    }
    println!();
    let mut records = Vec::new();
    for m in table1() {
        let a: Csr<F16> = m.generate(cfg.scale);
        print!("{:<14}", m.name);
        for alg in algs {
            let (_, effect) = evaluate_reordering(&a, alg, 16, 16);
            print!(" {:>13}", effect.after.nblocks);
            records.push(json!({
                "experiment": "ablation-reorder",
                "matrix": m.name,
                "algorithm": alg.name(),
                "nblocks": effect.after.nblocks,
                "reduction": effect.block_reduction(),
            }));
        }
        println!();
    }
    records
}

/// Jaccard threshold sweep on the matrices where clustering matters.
pub fn run_ablation_tau(cfg: &HarnessConfig) -> Vec<Value> {
    println!("\n== Ablation: Jaccard threshold tau (block count) ==");
    let taus = [0.3, 0.5, 0.6, 0.7, 0.8, 0.9];
    print!("{:<14}", "matrix");
    for t in taus {
        print!(" {:>9}", format!("tau={t}"));
    }
    println!();
    let mut records = Vec::new();
    for name in ["mip1", "cop20k_A", "dc2"] {
        let m = smat_workloads::by_name(name).unwrap();
        let a: Csr<F16> = m.generate(cfg.scale);
        print!("{name:<14}");
        for tau in taus {
            let (_, effect) =
                evaluate_reordering(&a, ReorderAlgorithm::JaccardRows { tau }, 16, 16);
            print!(" {:>9}", effect.after.nblocks);
            records.push(json!({
                "experiment": "ablation-tau",
                "matrix": name,
                "tau": tau,
                "nblocks": effect.after.nblocks,
            }));
        }
        println!();
    }
    records
}

/// Device sensitivity: the same SpMM on the A100 and H100 models. The
/// conclusions (who wins, bounds) must not be A100 artifacts; the expected
/// H100 speedup on bandwidth-bound SpMM tracks the ~2.2x bandwidth ratio,
/// not the ~3.2x compute ratio.
pub fn run_devices(cfg: &HarnessConfig) -> Vec<Value> {
    use smat_gpusim::DeviceConfig;
    println!("\n== Device sensitivity: A100 vs H100 (GFLOP/s, N=8) ==");
    println!(
        "{:<14} {:>12} {:>12} {:>10}",
        "matrix", "A100", "H100", "speedup"
    );
    let mut records = Vec::new();
    for m in table1() {
        let a: Csr<F16> = m.generate(cfg.scale);
        let b = dense_b::<F16>(a.ncols(), 8);
        let mut cells = Vec::new();
        for device in [
            DeviceConfig::a100_sxm4_40gb(),
            DeviceConfig::h100_sxm5_80gb(),
        ] {
            let name = device.name;
            let config = SmatConfig {
                device,
                ..SmatConfig::default()
            };
            let run = Smat::prepare(&a, config).spmm(&b);
            records.push(json!({
                "experiment": "devices",
                "matrix": m.name,
                "device": name,
                "gflops": run.report.gflops(),
                "bound": format!("{}", run.report.launch.profile.bound()),
            }));
            cells.push(run.report.gflops());
        }
        println!(
            "{:<14} {:>12} {:>12} {:>9.2}x",
            m.name,
            fmt_cell(cells[0]),
            fmt_cell(cells[1]),
            cells[1] / cells[0]
        );
    }
    records
}

/// Scheduling ablation: the paper's static 2D grid vs LPT pre-balancing
/// (what a persistent-kernel implementation achieves). Addresses §VI-E
/// directly: dc2's skewed blocks-per-row distribution is the static
/// schedule's worst case.
pub fn run_ablation_schedule(cfg: &HarnessConfig) -> Vec<Value> {
    let gpu = gpu();
    println!("\n== Ablation: warp scheduling (GFLOP/s, N=8) ==");
    println!(
        "{:<14} {:>12} {:>12} {:>10} {:>14} {:>14}",
        "matrix", "static-2D", "balanced", "speedup", "imbal static", "imbal balanced"
    );
    let mut records = Vec::new();
    for m in table1() {
        let a: Csr<F16> = m.generate(cfg.scale);
        let b = dense_b::<F16>(a.ncols(), 8);
        let mut cells: Vec<(f64, f64)> = Vec::new();
        for schedule in [Schedule::Static2D, Schedule::BalancedGreedy] {
            let config = SmatConfig {
                schedule,
                device: gpu.cfg.clone(),
                ..SmatConfig::default()
            };
            let run = Smat::prepare(&a, config).spmm(&b);
            records.push(json!({
                "experiment": "ablation-schedule",
                "matrix": m.name,
                "schedule": format!("{schedule:?}"),
                "gflops": run.report.gflops(),
                "imbalance": run.report.launch.sm_imbalance(),
            }));
            cells.push((run.report.gflops(), run.report.launch.sm_imbalance()));
        }
        println!(
            "{:<14} {:>12} {:>12} {:>9.2}x {:>14.2} {:>14.2}",
            m.name,
            fmt_cell(cells[0].0),
            fmt_cell(cells[1].0),
            cells[1].0 / cells[0].0,
            cells[0].1,
            cells[1].1
        );
    }
    records
}

/// Accumulation-mode ablation: wide (f32) vs narrow (f16, Listing 1) —
/// correctness impact measured as max |wide - narrow| on a band workload.
pub fn run_ablation_accum(cfg: &HarnessConfig) -> Vec<Value> {
    let gpu = gpu();
    let n = (cfg.band_n / 4).max(1024);
    // All-positive values and a wide band push row sums past 2048, where
    // f16 has a 2-ulp spacing and per-block (narrow) rounding diverges from
    // a single wide rounding.
    let pattern = band::<F16>(n, n / 2);
    let a = {
        let values: Vec<F16> = pattern
            .values()
            .iter()
            .map(|v| F16::from_f64(v.to_f64().abs()))
            .collect();
        Csr::from_raw(
            n,
            n,
            pattern.row_ptr().to_vec(),
            pattern.col_idx().to_vec(),
            values,
        )
    };
    let b = smat_formats::Dense::from_fn(n, 8, |_, _| F16::from_f64(1.0));
    let mk = |accum| SmatConfig {
        accum,
        device: gpu.cfg.clone(),
        reorder: ReorderAlgorithm::Identity,
        ..SmatConfig::default()
    };
    let wide = Smat::prepare(&a, mk(AccumMode::Wide)).spmm(&b);
    let narrow = Smat::prepare(&a, mk(AccumMode::Narrow)).spmm(&b);
    let diff = wide.c.max_abs_diff(&narrow.c);
    println!("\n== Ablation: accumulation mode, band {n}x{n} b=n/2, positive values ==");
    println!("max |wide(f32-acc) - narrow(f16-acc)| = {diff}");
    vec![json!({
        "experiment": "ablation-accum",
        "band_n": n,
        "max_abs_diff": diff,
    })]
}

// ---------------------------------------------------------------------------
// Serving (beyond the paper: multi-tenant engine over the prepared pipeline)
// ---------------------------------------------------------------------------

/// Serving study: replays a Zipf-skewed request trace through `smat-serve`
/// under several pool shapes and batching budgets, reporting simulated
/// makespan (max per-device kernel time), throughput, amortization factor,
/// and registry/plan cache effectiveness. The paper's prepare-once cost
/// (`T_init`) is paid per distinct matrix; everything after is `T_e`.
pub fn run_serve(cfg: &HarnessConfig) -> Vec<Value> {
    use smat_formats::Dense;
    use smat_serve::{Server, ServerConfig};
    use smat_workloads::{random_uniform, serve_trace, TraceSpec};

    let requests = ((2560.0 * cfg.scale) as usize).clamp(200, 4096);
    let n_matrices = 4;
    let dim = 128;
    let spec = TraceSpec {
        requests,
        n_matrices,
        widths: vec![8, 16, 32],
        zipf_s: 1.0,
        seed: 42,
        large_matrices: 0,
        mutate_rate: 0.0,
    };
    let trace = serve_trace(&spec);
    let matrices: Vec<Csr<F16>> = (0..n_matrices)
        .map(|m| random_uniform(dim, dim, 0.88 + 0.02 * m as f64, 42 + m as u64))
        .collect();

    println!(
        "\n== Serving: {requests} requests, {n_matrices} matrices ({dim}x{dim}), Zipf s={} ==",
        spec.zipf_s
    );
    println!(
        "{:>7} {:>7} {:>8} {:>10} {:>12} {:>12} {:>10} {:>9}",
        "devices",
        "budget",
        "batches",
        "mean batch",
        "sim span ms",
        "req/s (sim)",
        "p99 ms",
        "hit rate"
    );

    let mut records = Vec::new();
    for (devices, budget) in [(1usize, 1usize), (1, 64), (2, 64), (4, 64), (2, 128)] {
        let server: Server<F16> = Server::new(ServerConfig {
            devices,
            column_budget: budget,
            registry_capacity: n_matrices,
            ..ServerConfig::default()
        });
        let keys: Vec<_> = matrices.iter().map(|a| server.register(a)).collect();
        for window in trace.chunks(32) {
            server.pause();
            let futures: Vec<_> = window
                .iter()
                .map(|req| {
                    let b = Dense::from_fn(dim, req.n_cols, |i, j| {
                        F16::from_f64((((i + 3 * j + 7 * req.seq) % 9) as f64 - 4.0) / 2.0)
                    });
                    server.submit(keys[req.matrix], b)
                })
                .collect();
            server.resume();
            for fut in futures {
                fut.wait().expect("request served");
            }
        }
        let stats = server.stats();
        // Devices run concurrently: the simulated makespan is the busiest
        // device's kernel time, not the pool sum.
        let makespan_ms = stats
            .devices
            .iter()
            .map(|d| d.sim_ms)
            .fold(0.0f64, f64::max);
        let rps_sim = if makespan_ms > 0.0 {
            stats.completed as f64 / (makespan_ms / 1e3)
        } else {
            0.0
        };
        println!(
            "{:>7} {:>7} {:>8} {:>10.2} {:>12.3} {:>12.0} {:>10.3} {:>9.3}",
            devices,
            budget,
            stats.batches,
            stats.mean_batch(),
            makespan_ms,
            rps_sim,
            stats.latency.p99_ms,
            stats.registry.hit_rate()
        );
        records.push(json!({
            "experiment": "serve",
            "devices": devices,
            "column_budget": budget,
            "requests": requests,
            "completed": stats.completed,
            "batches": stats.batches,
            "mean_batch": stats.mean_batch(),
            "max_batch": stats.max_batch,
            "sim_ms_makespan": makespan_ms,
            "sim_ms_total": stats.sim_ms_total,
            "throughput_rps_sim": rps_sim,
            "registry_hit_rate": stats.registry.hit_rate(),
            "registry_prepares": stats.registry.prepares,
            "plan_hit_rate": stats.plans.hit_rate(),
            "latency_p50_ms": stats.latency.p50_ms,
            "latency_p99_ms": stats.latency.p99_ms,
        }));
    }
    records
}
