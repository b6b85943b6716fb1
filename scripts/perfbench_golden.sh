#!/usr/bin/env bash
# Prints, as JSON, every value perfbench's determinism record names (the
# metrics `perfbench/src/bench.rs` marks deterministic: sim_gflops,
# kernel.sim_ms, gpusim.*, formats.*, the counts, the hit ratios) for each
# workload at --seed 42 --seconds 2, from one untraced and one traced run.
# These are simulated-clock values and counters, so they repeat bit for bit
# across runs and hosts, and perfbench prints shortest round-trip floats:
# `scripts/check.sh` compares this output exactly against the committed
# data/perfbench_golden.json. When a change moves a simulated value on
# purpose, regenerate the golden and explain its diff in CHANGES.md:
#
#   scripts/perfbench_golden.sh > data/perfbench_golden.json
#
# Fails if a run reports a mismatch, a failed operation or a determinism
# violation.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml

for workload in spmm-suite serve-zipf serve-churn; do
    for trace in 0 1; do
        result="$(perfbench/target/release/perfbench --workload "$workload" \
            --seed 42 --seconds 2 --trace "$trace" 2>/dev/null | tail -n 1)"
        echo "$workload $result"
    done
done | python3 -c '
import json, re, sys

catalogue = open("perfbench/src/bench.rs").read()
names = set(re.findall(r"def\(\"([^\"]+)\", \"[^\"]*\", true\)", catalogue))
assert names, "no deterministic metric in perfbench/src/bench.rs"
golden = {}
for line in sys.stdin:
    workload, result = line.split(" ", 1)
    rec = json.loads(result)
    assert rec["correct"] is True and rec["failed"] == 0, f"{workload}: {result}"
    golden.setdefault(workload, {}).update(
        (k, m["value"]) for k, m in rec["metrics"].items() if k in names
    )
for workload, values in golden.items():
    missing = names - set(values)
    assert not missing, f"{workload}: no value for {sorted(missing)}"
print(json.dumps(golden, indent=1, sort_keys=True))
'
