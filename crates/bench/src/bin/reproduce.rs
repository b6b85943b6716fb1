//! Regenerates the paper's tables and figures on the simulated A100.
//!
//! Usage:
//!   reproduce [--scale S] [--band-n N] [--full] [--json FILE]
//!             [--trace FILE] <experiments...>
//!
//! Experiments: table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9a fig9b fig10
//!              ablations all

use std::io::Write;

use smat_bench::experiments as exp;
use smat_bench::{Engine, HarnessConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = HarnessConfig::default();
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args[i].parse().expect("--scale takes a float");
            }
            "--band-n" => {
                i += 1;
                cfg.band_n = args[i].parse().expect("--band-n takes an integer");
            }
            "--full" => cfg = HarnessConfig::full(),
            "--json" => {
                i += 1;
                json_path = Some(args[i].clone());
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args[i].clone());
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            other => wanted.push(other.to_string()),
        }
        i += 1;
    }
    if wanted.is_empty() {
        print_help();
        return;
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = [
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9a",
            "fig9b",
            "fig10",
            "roofline",
            "precision",
            "devices",
            "serve",
            "ablations",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
    }

    println!(
        "# SMaT reproduction harness — scale {}, band_n {}, device A100-SXM4-40GB (simulated)",
        cfg.scale, cfg.band_n
    );

    if trace_path.is_some() {
        smat_trace::enable();
    }

    let mut records = Vec::new();
    for w in &wanted {
        let mut r = match w.as_str() {
            "table1" => exp::run_table1(&cfg),
            "fig2" => exp::run_fig2(&cfg),
            "fig3" => exp::run_fig3(&cfg),
            "fig4" => exp::run_reorder_effect(&cfg, Engine::Smat),
            "fig5" => exp::run_reorder_effect(&cfg, Engine::Dasp),
            "fig6" => exp::run_reorder_effect(&cfg, Engine::Magicube),
            "fig7" => exp::run_reorder_effect(&cfg, Engine::Cusparse),
            "fig8" => exp::run_fig8(&cfg),
            "fig9a" => exp::run_fig9(&cfg, 8),
            "fig9b" => exp::run_fig9(&cfg, 128),
            "fig10" => exp::run_fig10(&cfg),
            "roofline" => exp::run_roofline(&cfg),
            "precision" => exp::run_precision(&cfg),
            "devices" => exp::run_devices(&cfg),
            "serve" => exp::run_serve(&cfg),
            "ablations" => {
                let mut v = exp::run_ablation_block_size(&cfg);
                v.extend(exp::run_ablation_reorder(&cfg));
                v.extend(exp::run_ablation_tau(&cfg));
                v.extend(exp::run_ablation_accum(&cfg));
                v.extend(exp::run_ablation_schedule(&cfg));
                v
            }
            other => {
                eprintln!("unknown experiment '{other}' (see --help)");
                std::process::exit(2);
            }
        };
        records.append(&mut r);
    }

    if let Some(path) = trace_path {
        smat_trace::disable();
        let events = smat_trace::drain();
        println!("\n{}", smat_trace::summary_table(&events));
        std::fs::write(&path, smat_trace::chrome_trace_json(&events)).expect("write trace output");
        println!("[wrote {} trace events to {path}]", events.len());
    }

    if let Some(path) = json_path {
        let mut f = std::fs::File::create(&path).expect("create json output");
        for r in &records {
            writeln!(f, "{}", serde_json::to_string(r).unwrap()).unwrap();
        }
        println!("\n[wrote {} records to {path}]", records.len());
    }
}

fn print_help() {
    println!(
        "reproduce — regenerate the SMaT paper's tables and figures (simulated A100)

USAGE:
  reproduce [OPTIONS] <EXPERIMENTS...>

EXPERIMENTS:
  table1   benchmark matrix set           fig8    library comparison + summary
  fig2     perf model / T,B,C ablation    fig9a   band sweep, N=8 (incl. cuBLAS)
  fig3     blocks-per-row distributions   fig9b   band sweep, N=128
  fig4     reordering effect on SMaT      fig10   wall-clock vs N (cop20k_A)
  fig5     reordering effect on DASP      ablations  block size / reorder algs /
  fig6     reordering effect on Magicube             tau sweep / accumulation
  fig7     reordering effect on cuSPARSE
  roofline busiest-SM cycle breakdown   precision  f16/bf16/i8 study
  devices  A100 vs H100 sensitivity     serve   multi-tenant serving study
                                          all     everything above

OPTIONS:
  --scale S    mimic scale factor (default 0.1; paper sizes at 1.0)
  --band-n N   band matrix dimension (default 4096; paper uses 16384)
  --full       shorthand for --scale 1.0 --band-n 16384
  --json FILE  also write JSON-lines records
  --trace FILE also write a Chrome Trace Event JSON (open in Perfetto)"
    );
}
