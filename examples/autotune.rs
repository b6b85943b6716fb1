//! Autotuning the SMaT configuration per matrix: block shape and reordering
//! are matrix-dependent (the padding-vs-block-count trade-off of §II-B3),
//! and preparation is a one-time inspector cost — so search the space with
//! simulated dry-runs before committing.
//!
//! Run with: `cargo run --release --example autotune [matrix-name]`

use smat::{autotune, PlanSpace, SmatConfig};
use smat_repro::prelude::*;
use smat_repro::workloads;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "shipsec1".to_string());
    let mimic =
        workloads::by_name(&name).unwrap_or_else(|| panic!("unknown Table I matrix '{name}'"));
    let a = mimic.generate::<F16>(0.05);
    println!(
        "{name} (mimic): {}x{}, {} nnz",
        a.nrows(),
        a.ncols(),
        a.nnz()
    );

    let space = PlanSpace {
        block_shapes: vec![(16, 16), (16, 8)],
        reorderings: vec![
            ReorderAlgorithm::Identity,
            ReorderAlgorithm::JaccardRows { tau: 0.7 },
            ReorderAlgorithm::GrayCode,
            ReorderAlgorithm::Bisection,
        ],
    };
    let report = autotune(&a, 8, &SmatConfig::default(), &space);

    println!(
        "\n{:<8} {:<14} {:>12} {:>10} {:>10}",
        "block", "reorder", "time ms", "blocks", "fill %"
    );
    for t in &report.trials {
        println!(
            "{:<8} {:<14} {:>12.4} {:>10} {:>9.1}%",
            format!("{}x{}", t.block_h, t.block_w),
            t.reorder,
            t.time_ms,
            t.nblocks,
            t.fill_ratio * 100.0
        );
    }
    println!(
        "\nwinner: {}x{} blocks with {}",
        report.best.block_h,
        report.best.block_w,
        report.best.reorder.name()
    );
    println!(
        "reorder passes: {} for {} trials (permutations hoisted across block shapes)",
        report.reorders_computed,
        report.trials.len()
    );
    if let Some(s) = report.speedup_over_default() {
        println!("speedup over the paper's default configuration: {s:.2}x");
    }

    // Use the tuned configuration end-to-end and verify correctness.
    let b = workloads::dense_b::<F16>(a.ncols(), 8);
    let run = Smat::prepare(&a, report.best.clone()).spmm(&b);
    assert_eq!(run.c, a.spmm_reference(&b));
    println!(
        "tuned run: {:.4} ms, {:.1} GFLOP/s (verified against the reference)",
        run.report.elapsed_ms(),
        run.report.gflops()
    );
}
