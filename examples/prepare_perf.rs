//! Prepare-path performance driver: measures the one-time inspection cost
//! (`T_init` in the paper's cost model) across reorder strategies and BCSR
//! conversion modes, and gates the parallel pipeline's correctness.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example prepare_perf > BENCH_PR5.json # benchmark
//! cargo run --release --example prepare_perf -- --smoke        # correctness gate
//! ```
//!
//! Default mode prints one JSON record to stdout: per (matrix, strategy)
//! timings — reorder / pack / convert / total milliseconds and the block
//! count the strategy achieved; a reordering runs once per matrix, so its
//! sequential and parallel conversion records share its reorder and pack
//! times — plus per-matrix summaries (LSH-vs-exact
//! speedup and block-count ratio). The first command above regenerates
//! the committed `BENCH_PR5.json`. It exits 1 when a matrix of at least
//! 100k rows (the `rmat-131k` acceptance workload) gains less than
//! [`MIN_LARGE_SPEEDUP`]× from LSH + parallel conversion over the exact
//! sequential path.
//!
//! `--smoke` (used by `scripts/check.sh`) asserts on small fixed-seed
//! inputs that (1) the rayon-parallel BCSR conversion is bitwise identical
//! to the sequential one and (2) the LSH-bucketed Jaccard reordering lands
//! within 15% of the exact algorithm's block count on inputs derived from
//! `data/sample.mtx`. Exit status 0 on success, 1 on any violation.

use std::process::ExitCode;
use std::time::Instant;

use smat_repro::formats::{mtx, Bcsr, Coo, Csr, F16};
use smat_repro::reorder::{reorder, ReorderAlgorithm, Reordering};
use smat_repro::workloads::{mesh2d, random_uniform, rmat, scramble_rows};

const BLOCK: usize = 16;
const TAU: f64 = 0.7;
/// Least LSH + parallel speedup over exact + sequential a matrix of at
/// least [`LARGE_ROWS`] rows must show.
const MIN_LARGE_SPEEDUP: f64 = 5.0;
const LARGE_ROWS: usize = 100_000;

fn lsh() -> ReorderAlgorithm {
    ReorderAlgorithm::JaccardLsh {
        tau: TAU,
        bands: 8,
        rows_per_band: 1,
    }
}

/// Block-diagonal tiling of `a` (`copies` shifted copies), the derivation
/// that scales `data/sample.mtx` up while keeping its clusterable shape.
fn tile_diag(a: &Csr<F16>, copies: usize) -> Csr<F16> {
    let (nr, nc) = (a.nrows(), a.ncols());
    let mut coo = Coo::new(nr * copies, nc * copies);
    for t in 0..copies {
        for (i, j, v) in a.iter() {
            coo.push(t * nr + i, t * nc + j, v);
        }
    }
    coo.to_csr()
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One reorder strategy, timed once per matrix: reorder with `alg`, then
/// apply the permutation. Returns the permuted matrix with the reorder and
/// pack milliseconds, which every conversion mode timed on it shares.
fn reorder_timed(a: &Csr<F16>, alg: ReorderAlgorithm) -> (Csr<F16>, f64, f64) {
    let t0 = Instant::now();
    let r: Reordering = reorder(a, alg, BLOCK, BLOCK);
    let reorder_ms = ms(t0);
    let t1 = Instant::now();
    let permuted = r.apply(a);
    (permuted, reorder_ms, ms(t1))
}

/// One timed BCSR conversion of an already permuted matrix, sequential or
/// parallel. Returns the milliseconds and the converted block count.
fn convert_timed(permuted: &Csr<F16>, parallel: bool) -> (f64, usize) {
    let t = Instant::now();
    let bcsr = if parallel {
        Bcsr::from_csr_parallel(permuted, BLOCK, BLOCK)
    } else {
        Bcsr::from_csr(permuted, BLOCK, BLOCK)
    };
    (ms(t), bcsr.nblocks())
}

fn bench_matrices() -> Vec<(&'static str, Csr<F16>)> {
    vec![
        ("mesh2d-8k", scramble_rows(&mesh2d(90, 90), 1)),
        ("rand-32k", random_uniform(32_768, 32_768, 0.9998, 7)),
        // The >=100k-row acceptance workload: power-law rows make the
        // exact algorithm's shared-column candidate sweep expensive, which
        // is precisely the breadth LSH bucketing bounds.
        ("rmat-131k", rmat(17, 1_000_000, 7)),
    ]
}

fn bench() -> ExitCode {
    // Each reorder strategy runs once per matrix; its permuted matrix is
    // then converted under each listed mode (`true` = parallel). A record
    // is one `{strategy}+{mode}` pair.
    let strategies: [(&str, ReorderAlgorithm, &[bool]); 3] = [
        (
            "jaccard-exact",
            ReorderAlgorithm::JaccardRows { tau: TAU },
            &[false, true],
        ),
        ("jaccard-lsh", lsh(), &[false, true]),
        ("rcm", ReorderAlgorithm::ReverseCuthillMcKee, &[true]),
    ];
    let mut records = Vec::new();
    let mut summaries = Vec::new();
    let mut failures = 0usize;
    for (name, a) in bench_matrices() {
        eprintln!("{name}: {} rows, {} nnz", a.nrows(), a.nnz());
        let mut totals = std::collections::HashMap::new();
        let mut blocks = std::collections::HashMap::new();
        for (alg_name, alg, modes) in strategies {
            let (permuted, reorder_ms, pack_ms) = reorder_timed(&a, alg);
            for &parallel in modes {
                let (convert_ms, nblocks) = convert_timed(&permuted, parallel);
                let mode = if parallel { "parallel" } else { "sequential" };
                let strategy = format!("{alg_name}+{mode}");
                let total = reorder_ms + pack_ms + convert_ms;
                eprintln!(
                    "  {strategy:>26}: reorder {reorder_ms:9.2} ms | convert {convert_ms:7.2} ms | total {total:9.2} ms | {nblocks} blocks"
                );
                records.push(serde_json::json!({
                    "matrix": name,
                    "rows": a.nrows(),
                    "nnz": a.nnz(),
                    "strategy": strategy,
                    "reorder_ms": reorder_ms,
                    "pack_ms": pack_ms,
                    "convert_ms": convert_ms,
                    "total_prepare_ms": total,
                    "nnz_blocks": nblocks,
                }));
                totals.insert(strategy.clone(), total);
                blocks.insert(strategy, nblocks);
            }
        }
        let speedup = totals["jaccard-exact+sequential"] / totals["jaccard-lsh+parallel"];
        let ratio =
            blocks["jaccard-lsh+parallel"] as f64 / blocks["jaccard-exact+sequential"] as f64;
        eprintln!(
            "  lsh+parallel speedup over exact+sequential: {speedup:.2}x (block ratio {ratio:.3})"
        );
        if a.nrows() >= LARGE_ROWS && speedup < MIN_LARGE_SPEEDUP {
            eprintln!("bench FAIL: {name}: speedup below the {MIN_LARGE_SPEEDUP}x acceptance bar");
            failures += 1;
        }
        summaries.push(serde_json::json!({
            "matrix": name,
            "rows": a.nrows(),
            "speedup_lsh_parallel_vs_exact_sequential": speedup,
            "lsh_block_count_ratio": ratio,
        }));
    }
    println!(
        "{}",
        serde_json::json!({
            "example": "prepare_perf",
            "block": BLOCK,
            "tau": TAU,
            "records": records,
            "summaries": summaries,
        })
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The check.sh gate: fixed seeds, small inputs, hard assertions.
fn smoke() -> ExitCode {
    let sample: Csr<F16> = match mtx::read_csr_path("data/sample.mtx") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smoke: cannot read data/sample.mtx: {e:?}");
            return ExitCode::from(1);
        }
    };
    let mut failures = 0usize;

    // Gate 1: parallel conversion is bitwise identical to sequential.
    let bitwise_inputs: Vec<(&str, Csr<F16>)> = vec![
        ("sample-x8", scramble_rows(&tile_diag(&sample, 8), 3)),
        ("rand-4k", random_uniform(4096, 4096, 1e-3, 7)),
        ("mesh2d-4k", scramble_rows(&mesh2d(64, 64), 5)),
    ];
    for (name, a) in &bitwise_inputs {
        for (h, w) in [(16, 16), (16, 8)] {
            let seq = Bcsr::from_csr(a, h, w);
            let par = Bcsr::from_csr_parallel(a, h, w);
            if seq != par {
                eprintln!("smoke FAIL: {name} {h}x{w}: parallel BCSR differs from sequential");
                failures += 1;
            }
        }
    }
    eprintln!("smoke: parallel BCSR bitwise check done");

    // Gate 2: LSH block count within 15% of exact Jaccard on
    // sample-derived inputs.
    for copies in [8usize, 32] {
        let a = scramble_rows(&tile_diag(&sample, copies), 11);
        let exact = reorder(&a, ReorderAlgorithm::JaccardRows { tau: TAU }, BLOCK, BLOCK);
        let approx = reorder(&a, lsh(), BLOCK, BLOCK);
        let b_exact = Bcsr::from_csr(&exact.apply(&a), BLOCK, BLOCK).nblocks();
        let b_lsh = Bcsr::from_csr(&approx.apply(&a), BLOCK, BLOCK).nblocks();
        let ratio = b_lsh as f64 / b_exact as f64;
        eprintln!("smoke: sample-x{copies}: exact {b_exact} blocks, lsh {b_lsh} blocks (ratio {ratio:.3})");
        if ratio > 1.15 {
            eprintln!("smoke FAIL: sample-x{copies}: LSH block count exceeds exact by >15%");
            failures += 1;
        }
    }

    if failures == 0 {
        eprintln!("smoke: all prepare-path gates passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("smoke: {failures} gate(s) failed");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--smoke") => smoke(),
        None => bench(),
        Some(other) => {
            eprintln!("usage: prepare_perf [--smoke]   (unknown argument {other})");
            ExitCode::from(2)
        }
    }
}
