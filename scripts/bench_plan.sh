#!/usr/bin/env bash
# Admission-planner benchmark: regenerates BENCH_PR8.json, the committed
# evidence for the cost-model-driven planner — per-matrix simulated kernel
# time under the planner's chosen configuration vs the fixed paper default
# on the mixed rmat/dc2-class workloads (the `plan` criterion bench; a
# Tensor Core config runs the packed index, the format the planner's one
# TC cost line is fitted on), plus
# an end-to-end planned trace replay of the serve example (bitwise
# verification against hand-pinned configs, replay determinism, prediction
# accuracy accounting).
#
# Usage: scripts/bench_plan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release --example serve
cargo bench -q -p smat-bench --bench plan 2>&1 | tee /tmp/bench_plan_criterion.txt

./target/release/examples/serve --plan --requests 256 --matrices 4 --seed 42 \
    > /tmp/bench_plan_serve.json

python3 - <<'PY'
import json
import re

sim = {}
arms = {}
with open("/tmp/bench_plan_criterion.txt") as f:
    for line in f:
        m = re.match(
            r"plan_sim/(\S+): default=([0-9.]+) ms planned=([0-9.]+) ms "
            r"predicted=([0-9.]+) ms config=(\S+)",
            line.strip(),
        )
        if m:
            sim[m.group(1)] = {
                "default_sim_ms": float(m.group(2)),
                "planned_sim_ms": float(m.group(3)),
                "predicted_ms": float(m.group(4)),
                "planned_config": m.group(5),
            }
        m = re.match(r"plan/(\S+): ([0-9.]+) ms/iter \((\d+) samples\)", line.strip())
        if m:
            arms[m.group(1)] = {"ms_per_iter": float(m.group(2)), "samples": int(m.group(3))}
assert sim, "no plan_sim lines in bench output"
assert any(k.startswith("planned/") for k in arms), f"missing arms: {sorted(arms)}"

# Per-matrix, the planner may tie the default (when the default config is
# its own choice) but the aggregate must not regress: planned throughput
# >= default-config throughput on the mixed workloads.
default_total = sum(r["default_sim_ms"] for r in sim.values())
planned_total = sum(r["planned_sim_ms"] for r in sim.values())
assert planned_total <= default_total * (1.0 + 1e-9), \
    f"planned {planned_total} ms > default {default_total} ms"

serve = json.load(open("/tmp/bench_plan_serve.json"))
assert serve["plan_enabled"], "serve run did not enable the planner"
assert serve["mismatches"] == 0, "planned serving diverged from hand-pinned configs"
assert serve["runs_identical"], "planned replay was not deterministic"
plan = serve["plan"]
assert plan["planned_requests"] > 0 and plan["plan_predictions"] > 0
assert plan["plan_refits"] <= plan["plan_observations"] // 8, \
    "the planner refit more than once per 8 new observations per mode"
for r in sim.values():
    tc, fmt = r["planned_config"].split("/")[-2:]
    assert fmt == ("packed" if tc == "tc=true" else "plain"), r["planned_config"]

record = {
    "example": "bench_plan",
    "workloads": sim,
    "criterion": arms,
    "planned_total_sim_ms": planned_total,
    "default_total_sim_ms": default_total,
    "planned_speedup_over_default": default_total / planned_total,
    "serve_planned": {
        "spec": serve["spec"],
        "mismatches": serve["mismatches"],
        "runs_identical": serve["runs_identical"],
        "planned_requests": plan["planned_requests"],
        "plan_predictions": plan["plan_predictions"],
        "plan_mean_rel_error": plan["plan_mean_rel_error"],
        "plan_refits": plan["plan_refits"],
        "plan_observations": plan["plan_observations"],
        "request_mean_rel_error": plan["request_mean_rel_error"],
        "request_max_rel_error": plan["request_max_rel_error"],
    },
}
with open("BENCH_PR8.json", "w") as f:
    json.dump(record, f)

for name, r in sim.items():
    tie = " (tie: planner chose the default)" if r["planned_sim_ms"] == r["default_sim_ms"] else ""
    print(f"{name:<18} default {r['default_sim_ms']:.6f} ms | planned "
          f"{r['planned_sim_ms']:.6f} ms [{r['planned_config']}]{tie}")
print(f"aggregate: planned {planned_total:.6f} ms vs default {default_total:.6f} ms "
      f"({record['planned_speedup_over_default']:.3f}x)")
print(f"end-to-end: {plan['planned_requests']} planned requests, "
      f"mean rel error {plan['plan_mean_rel_error']:.3f}, "
      f"{plan['plan_refits']} refits over {plan['plan_observations']} observations")
print("wrote BENCH_PR8.json")
PY
