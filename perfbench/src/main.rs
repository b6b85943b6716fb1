//! Two-clock benchmark of the SMaT library and serving paths.
//!
//! ```text
//! perfbench --workload <spmm-suite|serve-zipf|serve-churn> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) first runs the same workload untraced in a child
//! process (for `trace.overhead_ratio`), then runs it with the span
//! recorder on and prints the per-layer metrics. The last line of standard
//! output is always the result object; the lines before it are a human
//! table and a `perfbench-meta` line with the run's metadata. Spans are
//! written as Chrome Trace Event JSON under `out/` next to this package's
//! manifest. See `BENCHMARK.json` at the repository root for what every
//! metric means.

mod bench;
mod inputs;
mod json;
mod serve;
mod spans;
mod suite;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use bench::{Outcome, Params, Workload, END_TO_END, PER_LAYER, SPAN_NAMES};

/// Where traces, result records, and determinism records go.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const RUSTC_VERSION: &str = env!("PERFBENCH_RUSTC_VERSION");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(w: Workload, p: &Params) -> Outcome {
    match w {
        Workload::SpmmSuite => suite::run(p),
        Workload::ServeZipf | Workload::ServeChurn => serve::run(w, p),
    }
}

/// The metrics a result line carries, in catalogue order, with units.
fn selected(out: &Outcome, traced: bool) -> Vec<(String, &'static str, f64)> {
    if !traced {
        return END_TO_END
            .iter()
            .map(|d| {
                let v = *out
                    .values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("{} not measured", d.name));
                (d.name.to_string(), d.unit, v)
            })
            .collect();
    }
    let mut v: Vec<(String, &'static str, f64)> = PER_LAYER
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit,
                out.values.get(d.name).copied().unwrap_or(0.0),
            )
        })
        .collect();
    for span in SPAN_NAMES {
        let name = bench::self_ms_name(span);
        let value = out.values.get(&name).copied().unwrap_or(0.0);
        v.push((name, "ms", value));
    }
    v
}

/// The final result line.
fn result_line(correct: bool, out: &Outcome, metrics: &[(String, &'static str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json::string(name),
            json::number(*value),
            json::string(unit)
        );
    }
    s.push_str("}}");
    s
}

/// Values that must repeat bit for bit for the same binary and arguments.
fn deterministic_values(out: &Outcome) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter(|d| d.deterministic)
        .map(|d| (d.name, out.values.get(d.name).copied().unwrap_or(0.0)))
        .collect()
}

/// FNV-1a of this executable, so determinism records never compare runs of
/// different builds.
fn exe_digest() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compares this run's deterministic values with the record left by an
/// earlier run of the same binary, workload, seed and length (the traced
/// run's untraced child always leaves one), or leaves the record. Returns
/// the names that differ.
fn check_determinism(args: &Args, out: &Outcome) -> Vec<String> {
    let dir = Path::new(OUT_DIR).join("determinism");
    let path = dir.join(format!(
        "{}-{}-{}-{}.txt",
        exe_digest(),
        args.workload.name(),
        args.seed,
        args.seconds
    ));
    let mine: String = deterministic_values(out)
        .iter()
        .map(|(n, v)| format!("{n} {:016x}\n", v.to_bits()))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(prev) => prev
            .lines()
            .zip(mine.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("{a} -> {b}"))
            .collect(),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, mine));
            Vec::new()
        }
    }
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn meta_line(args: &Args, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rayon = std::env::var("RAYON_NUM_THREADS").map_or("null".to_string(), |v| json::string(&v));
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json::string(k)))
        .collect();
    format!(
        "perfbench-meta {{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"devices\": {}, \"server_worker_threads\": {}, \"client_threads\": 1, \
         \"rayon_num_threads\": {rayon}, \"rustc\": {}, \"git_revision\": {}, \"error_rate\": {}, \
         \"mismatches\": {}, \"samples\": {{{}}}}}",
        json::string(args.workload.name()),
        args.seed,
        held_out_seed(args.seed),
        args.seconds,
        args.trace,
        out.devices,
        if args.workload == Workload::SpmmSuite { 0 } else { out.devices },
        json::string(RUSTC_VERSION),
        json::string(&git_revision()),
        json::number(out.error_rate()),
        out.mismatches,
        samples.join(", ")
    )
}

/// The seed a performance claim made on `seed` is validated on: fixed per
/// seed and never equal to it.
fn held_out_seed(seed: u64) -> u64 {
    let h = inputs::mix(seed ^ 0x6865_6c64_5f6f_7574);
    if h == seed {
        h ^ 1
    } else {
        h
    }
}

fn table(out: &Outcome, metrics: &[(String, &'static str, f64)]) -> String {
    let mut s = String::new();
    for (name, unit, value) in metrics {
        let n = out
            .samples
            .get(name.as_str())
            .map_or(String::new(), |n| format!("  (n={n})"));
        let _ = writeln!(s, "{name:<32} {value:>16.6} {unit:<8}{n}");
    }
    let _ = writeln!(
        s,
        "{:<32} {:>16.6} {:<8}  ({} failed of {})",
        "error_rate",
        out.error_rate(),
        "ratio",
        out.failed,
        out.attempted
    );
    if out.tracer.enabled() {
        let _ = writeln!(
            s,
            "\n{:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, t) in out.tracer.layer_times() {
            let _ = writeln!(
                s,
                "{name:<24} {:>8} {:>12.3} {:>12.3}",
                t.count, t.total_ms, t.self_ms
            );
        }
    }
    s
}

/// Runs the same workload untraced in a fresh child process and returns
/// its throughput.
fn untraced_throughput(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the untraced child: {e}"))?;
    if !output.status.success() {
        return Err(format!("untraced child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or("untraced child printed nothing")?;
    let v = json::parse(last)?;
    if v.get("correct") != Some(&json::Value::Bool(true)) {
        return Err("untraced child reported incorrect results".into());
    }
    v.get("metrics")
        .and_then(|m| m.get("throughput_ops_s"))
        .and_then(|m| m.get("value"))
        .and_then(json::Value::as_f64)
        .ok_or_else(|| "untraced child printed no throughput".into())
}

fn write_file(path: &Path, contents: &str) {
    if let Err(e) = std::fs::create_dir_all(path.parent().expect("file in a directory"))
        .and_then(|()| std::fs::write(path, contents))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn run(args: &Args) -> Result<String, String> {
    let untraced = if args.trace {
        Some(untraced_throughput(args)?)
    } else {
        None
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tiny: false,
        corrupt_op: None,
    };
    let mut out = run_workload(args.workload, &params);
    if let Some(untraced) = untraced {
        let traced = out.values["throughput_ops_s"];
        out.set("trace.overhead_ratio", untraced / traced);
    }
    let mut nondeterministic = std::mem::take(&mut out.nondeterministic);
    nondeterministic.extend(check_determinism(args, &out));
    for d in &nondeterministic {
        eprintln!("perfbench: DETERMINISM VIOLATION: {d}");
    }
    let metrics = selected(&out, args.trace);
    if let Some((name, _, _)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    let correct = out.mismatches == 0 && nondeterministic.is_empty();
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if args.trace {
        write_file(
            &PathBuf::from(OUT_DIR).join(format!("trace-{tag}.json")),
            &out.tracer
                .chrome_trace(&format!("perfbench {}", args.workload.name())),
        );
    }
    let meta = meta_line(args, &out);
    let line = result_line(correct, &out, &metrics);
    write_file(
        &PathBuf::from(OUT_DIR).join(format!("result-{tag}.json")),
        &format!("{meta}\n{line}\n"),
    );
    print!("{}", table(&out, &metrics));
    println!("{meta}");
    Ok(line)
}

/// Quick mode: every workload tiny, checking that every catalogued metric
/// prints with its unit, that simulated values repeat across two runs of
/// one seed, and that a corrupted output is caught.
fn self_test() -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)?;
    let listed = |key: &str| -> Result<Vec<(String, String)>, String> {
        spec.get(key)
            .and_then(json::Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(json::Value::as_str);
                let unit = m.get("unit").and_then(json::Value::as_str);
                name.zip(unit)
                    .map(|(n, u)| (n.to_string(), u.to_string()))
                    .ok_or(format!("{key} entry without name or unit"))
            })
            .collect()
    };
    let (e2e, layers) = (listed("end_to_end")?, listed("per_layer")?);
    for w in Workload::ALL {
        let tiny = |trace, corrupt_op| Params {
            seed: 7,
            seconds: 1,
            trace,
            tiny: true,
            corrupt_op,
        };
        let a = run_workload(w, &tiny(false, None));
        let b = run_workload(w, &tiny(true, None));
        for (out, traced, want) in [(&a, false, &e2e), (&b, true, &layers)] {
            if out.failed != 0 || out.mismatches != 0 || !out.nondeterministic.is_empty() {
                return Err(format!("{}: {} failed operations", w.name(), out.failed));
            }
            let line = json::parse(&result_line(true, out, &selected(out, traced)))?;
            let printed = line
                .get("metrics")
                .and_then(json::Value::as_object)
                .ok_or("no metrics")?;
            if printed.len() != want.len() {
                return Err(format!(
                    "{}: printed {} metrics, BENCHMARK.json lists {}",
                    w.name(),
                    printed.len(),
                    want.len()
                ));
            }
            for (name, unit) in want {
                let m = line.get("metrics").and_then(|m| m.get(name));
                let got = m.and_then(|m| m.get("unit")).and_then(json::Value::as_str);
                if got != Some(unit.as_str())
                    || m.and_then(|m| m.get("value"))
                        .and_then(json::Value::as_f64)
                        .is_none()
                {
                    return Err(format!("{}: metric {name} [{unit}] not printed", w.name()));
                }
            }
        }
        let (da, db) = (deterministic_values(&a), deterministic_values(&b));
        if let Some(((n, x), (_, y))) = da
            .iter()
            .zip(&db)
            .find(|((_, x), (_, y))| x.to_bits() != y.to_bits())
        {
            return Err(format!(
                "{}: simulated value {n} differs between two runs of one seed: {x} vs {y}",
                w.name()
            ));
        }
        let c = run_workload(w, &tiny(false, Some(1)));
        if c.mismatches != 1 || c.error_rate() <= 0.0 {
            return Err(format!(
                "{}: a corrupted output was not caught ({} mismatches, error_rate {})",
                w.name(),
                c.mismatches,
                c.error_rate()
            ));
        }
        eprintln!("self-test {}: ok", w.name());
    }
    Ok(())
}

/// Thread count of the simulator's per-launch parallelism unless the caller
/// sets `RAYON_NUM_THREADS`. The simulator spawns that many scoped threads
/// for every launch, so with one per core two serving devices oversubscribe
/// a 2-core host and every host metric follows whatever else the host runs.
const DEFAULT_RAYON_THREADS: &str = "1";

fn main() -> ExitCode {
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        // Before any thread exists; children inherit it.
        std::env::set_var("RAYON_NUM_THREADS", DEFAULT_RAYON_THREADS);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() == 1 && argv[0] == "--self-test" {
        return match self_test() {
            Ok(()) => {
                println!("self-test: ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
