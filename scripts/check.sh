#!/usr/bin/env bash
# Offline repository gate: formatting, lints, tests, and a smoke run of the
# static analyzer CLI on the bundled matrices. No network access required —
# all dependencies are in-tree shims.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> differential conformance suite (formats x reorderings x blocks)"
cargo test -q --test conformance

echo "==> packed-index smoke: bit-packed BCSR arm stays bitwise-exact"
cargo test -q --test conformance packed

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> analyzer CLI: clean matrix must pass"
cargo run -q --example analyze -- data/sample.mtx

echo "==> analyzer CLI: corrupt matrix must be rejected (exit 1)"
if cargo run -q --example analyze -- data/corrupt.mtx --format json; then
    echo "error: corrupt.mtx was not rejected" >&2
    exit 1
fi

echo "==> analyzer CLI: oversubscribed schedule must be rejected (exit 1)"
if cargo run -q --example analyze -- data/sample.mtx --device tiny --block 96x96 >/dev/null; then
    echo "error: 96x96 blocks on the tiny device were not rejected" >&2
    exit 1
fi

echo "==> serving engine: trace replay must verify and be deterministic"
cargo build -q --release --example serve
serve_json="$(./target/release/examples/serve --requests 200 2>/dev/null)"
# The example already exits non-zero on any mismatch or replay divergence;
# additionally assert the stats record parses and the registry saw hits.
python3 - "$serve_json" <<'PY'
import json, sys
rec = json.loads(sys.argv[1])
assert rec["mismatches"] == 0, "batched outputs diverged from unbatched runs"
assert rec["runs_identical"] is True, "end state not deterministic across replays"
hits = rec["stats"]["registry"]["hits"]
assert hits >= 1, f"expected at least one registry cache hit, got {hits}"
assert rec["registry_hit_rate"] > 0.9, rec["registry_hit_rate"]
print(f"serve smoke OK: {rec['verified_requests']} requests verified, "
      f"{hits} registry hits (rate {rec['registry_hit_rate']:.3f})")
PY

echo "==> chaos smoke: injected faults, zero incorrect responses, reproducible"
chaos_json="$(./target/release/examples/serve --requests 160 --chaos-seed 7 --fault-rate 0.25 2>/dev/null)"
python3 - "$chaos_json" <<'PY'
import json, sys
rec = json.loads(sys.argv[1])
assert rec["mismatches"] == 0, "a faulted response diverged from its unfaulted reference"
assert rec["runs_identical"] is True, "chaos replay not deterministic for a fixed seed"
chaos = rec["deterministic"]["chaos"]
assert chaos["faults_injected"] > 0, f"fault rate 0.25 injected nothing: {chaos}"
assert chaos["retries"] > 0, f"faults without retries: {chaos}"
assert rec["stats"]["failed"] == 0, "a request exhausted the recovery ladder"
print(f"chaos smoke OK: {chaos['faults_injected']} faults "
      f"({chaos['faults_transient']} transient / {chaos['faults_ecc']} ecc / "
      f"{chaos['faults_offline']} offline), {chaos['retries']} retries, "
      f"{chaos['hedges']} hedges, {chaos['breaker_trips']} breaker trips, "
      f"{chaos['degraded_completions']} degraded — all responses correct")
PY

echo "==> shard smoke: sharded replay bitwise-verified, deterministic, sanitize-clean"
# Forces the two large tenants over the shard budget: every request against
# them fans out across the 3-device pool, joins by row concatenation, and
# must still verify bitwise against the unbatched single-handle reference.
shard_json="$(./target/release/examples/serve --requests 128 --devices 3 \
    --shard-max-bytes 20000 --large-matrices 2 --sanitize 2>/dev/null)"
python3 - "$shard_json" <<'PY'
import json, sys
rec = json.loads(sys.argv[1])
assert rec["mismatches"] == 0, "a sharded join diverged from the unsharded reference"
assert rec["runs_identical"] is True, "sharded replay not deterministic"
assert rec["fanout_requests"] > 0, "no request actually fanned out"
assert rec["shard_subrequests"] > rec["fanout_requests"], \
    "fan-outs must produce multiple sub-requests each"
assert rec["shard_subrequests"] >= 3 * rec["fanout_requests"] // 2, \
    "large tenants should split into multiple shards"
assert rec["sanitize_findings"] == 0, f"C-codes fired: {rec['sanitize_codes']}"
disp = [d["dispatched"] for d in rec["stats"]["devices"]]
comp = [d["completed"] for d in rec["stats"]["devices"]]
assert disp == comp, f"lost sub-requests: dispatched {disp} vs completed {comp}"
assert all(d > 0 for d in disp), f"a device sat idle under fan-out: {disp}"
print(f"shard smoke OK: {rec['fanout_requests']} fan-outs -> "
      f"{rec['shard_subrequests']} sub-requests across {len(disp)} devices, "
      f"0 mismatches, deterministic, lock-order clean")
PY

echo "==> sharded-mutation smoke: writes routed to row shards, bitwise-verified, deterministic"
# The same sharded replay with a mutation schedule over every tenant: each
# update lands in the overlay of the shard owning its row, and every
# fanned-out response must still match a whole-matrix reference mutated in
# lockstep.
shard_mutate_json="$(./target/release/examples/serve --requests 128 --devices 3 \
    --shard-max-bytes 20000 --large-matrices 2 --mutate-rate 0.5 --sanitize 2>/dev/null)"
python3 - "$shard_mutate_json" <<'PY'
import json, sys
rec = json.loads(sys.argv[1])
assert rec["mismatches"] == 0, "a sharded response diverged from its mutated reference"
assert rec["runs_identical"] is True, "sharded mutating replay not deterministic"
assert rec["fanout_requests"] > 0, "no request actually fanned out"
assert rec["mutations_applied"] > 0, "mutation schedule was empty"
assert rec["sanitize_findings"] == 0, f"C-codes fired: {rec['sanitize_codes']}"
print(f"sharded-mutation smoke OK: {rec['mutations_applied']} mutations over "
      f"{rec['fanout_requests']} fan-outs, 0 mismatches, deterministic, lock-order clean")
PY

echo "==> plan smoke: planned replay bitwise-verified, predictions graded, sanitize-clean"
# --plan routes every registration through the cost-model-driven admission
# planner; the example verifies planned serving bitwise against references
# prepared under the same decisions chosen manually, and grades every
# prediction against the launch it planned. 512 requests run long enough
# to fill the planner's observation window, where the refit cadence must
# still hold.
plan_json="$(./target/release/examples/serve --requests 512 --plan --sanitize 2>/dev/null)"
python3 - "$plan_json" <<'PY'
import json, math, sys
rec = json.loads(sys.argv[1])
assert rec["plan_enabled"] is True
assert rec["mismatches"] == 0, "a planned response diverged from its hand-pinned reference"
assert rec["runs_identical"] is True, "planned replay not deterministic"
assert rec["sanitize_findings"] == 0, f"C-codes fired: {rec['sanitize_codes']}"
plan = rec["plan"]
assert plan["planned_requests"] > 0, "no request ran under a planner-chosen config"
assert plan["plan_predictions"] > 0, "no prediction was graded against a launch"
assert math.isfinite(plan["plan_mean_rel_error"]), plan["plan_mean_rel_error"]
assert plan["request_checks"] > 0 and math.isfinite(plan["request_mean_rel_error"])
assert plan["decisions"], "no admission decisions were recorded"
# The Tensor Core line refits at most once per 8 new observations, also once its
# sliding window is full.
assert plan["plan_refits"] <= plan["plan_observations"] // 8, \
    f"{plan['plan_refits']} refits over {plan['plan_observations']} observations"
print(f"plan smoke OK: {plan['planned_requests']} planned requests, "
      f"{plan['plan_predictions']} predictions graded "
      f"(mean rel error {plan['plan_mean_rel_error']:.3f}), "
      f"{plan['plan_refits']} refits over {plan['plan_observations']} observations")
PY

echo "==> mutate smoke: dynamic matrices, zero stale-plan launches, deterministic"
# --mutate-rate makes the tenants dynamic: every mutation bumps the overlay
# epoch, every response is verified against a reference handle mutated in
# lockstep (a stale-plan launch would mismatch), and the second replay must
# reproduce the end state byte-for-byte — compaction swaps included.
mutate_json="$(./target/release/examples/serve --requests 256 --mutate-rate 0.5 \
    --sanitize 2>/dev/null)"
python3 - "$mutate_json" <<'PY'
import json, sys
rec = json.loads(sys.argv[1])
assert rec["mutations_applied"] > 0, "mutation schedule was empty"
assert rec["mismatches"] == 0, \
    "a response diverged from its epoch reference (stale plan or lost update)"
assert rec["runs_identical"] is True, "mutating replay not deterministic"
assert rec["sanitize_findings"] == 0, f"C-codes fired: {rec['sanitize_codes']}"
det = rec["deterministic"]
assert det["mutations"] == rec["mutations_applied"], det["mutations"]
assert det["compactions"] >= 1, \
    f"the structural trigger never fired a background compaction: {det['compactions']}"
print(f"mutate smoke OK: {det['mutations']} mutations, "
      f"{det['compactions']} background compactions, 0 stale-plan launches, "
      f"deterministic double-replay, lock-order clean")
PY

echo "==> mutate smoke: naive re-prepare mode is bitwise-identical to overlay serving"
naive_json="$(./target/release/examples/serve --requests 256 --mutate-rate 0.5 \
    --naive-update 2>/dev/null)"
python3 - "$mutate_json" "$naive_json" <<'PY'
import json, sys
overlay, naive = (json.loads(a) for a in sys.argv[1:3])
assert naive["mismatches"] == 0 and naive["runs_identical"] is True
a = overlay["deterministic"]["output_checksum"]
b = naive["deterministic"]["output_checksum"]
assert a == b, f"overlay serving diverged from re-prepare-per-update: {a} vs {b}"
op = overlay["deterministic"]["registry_prepares"]
np_ = naive["deterministic"]["registry_prepares"]
assert np_ > op, f"naive mode must re-prepare per update: {np_} vs {op} prepares"
print(f"naive-mode smoke OK: checksum {a} identical across both update strategies, "
      f"{np_} naive prepares vs {op} overlay prepares")
PY

echo "==> sanitize: raw std::sync primitives are banned in crates/serve"
# Every lock/condvar in the serving engine must be a checked smat-sanitize
# primitive so the lock-order engine and the model checker see it. The shim
# lives in crates/sanitize/src/sync.rs; OnceLock, Barrier, and std atomics
# without protocol roles stay allowed.
if grep -rnE 'std::sync::(Mutex|RwLock|Condvar)' crates/serve/src; then
    echo "error: raw std::sync lock in crates/serve — use smat_sanitize::sync" >&2
    exit 1
fi

echo "==> sanitize: model checker must pass the serve protocols and fail the fixtures"
cargo test -q -p smat-sanitize --test model_fixtures
cargo test -q -p smat-serve --test model_check

echo "==> sanitize: lock-order smoke over the serving engine (zero C-codes)"
sanitize_json="$(./target/release/examples/serve --requests 96 --warm-prepare --sanitize 2>/dev/null)"
python3 - "$sanitize_json" <<'PY'
import json, sys
rec = json.loads(sys.argv[1])
assert rec["sanitize_enabled"] is True
assert rec["sanitize_findings"] == 0, f"C-codes fired: {rec['sanitize_codes']}"
print("sanitize smoke OK: lock-order graph clean across both replays")
PY

echo "==> prepare-path smoke: parallel BCSR bitwise-identical, LSH quality in tolerance"
cargo build -q --release --example prepare_perf
./target/release/examples/prepare_perf --smoke

echo "==> tracing: serve --trace must emit a valid Chrome trace"
trace_file="$(mktemp /tmp/smat_trace.XXXXXX.json)"
trap 'rm -f "$trace_file"' EXIT
./target/release/examples/serve --requests 64 --trace "$trace_file" >/dev/null 2>&1
python3 - "$trace_file" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "trace is empty"
names = {e["name"] for e in events}
# One span per serving lifecycle stage, plus pipeline + simulator coverage.
for required in ("admission", "queue_wait", "batch_form", "launch",
                 "complete", "prepare", "kernel_execute"):
    assert required in names, f"missing lifecycle span '{required}'"
cats = {e.get("cat") for e in events}
assert "sim" in cats, "no simulated-device events in trace"
for e in events:
    if e.get("ph") != "M":  # metadata events carry no timestamp
        assert isinstance(e["ts"], (int, float)) and e["ts"] >= 0, e
print(f"trace smoke OK: {len(events)} events, "
      f"{len(names)} distinct names, categories {sorted(c for c in cats if c)}")
PY

echo "==> perfbench self-test: every metric printed, simulated values repeat, corruption caught"
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- --self-test

echo "==> perfbench golden: simulated values match data/perfbench_golden.json exactly"
# Refresh after an intended change with
#   scripts/perfbench_golden.sh > data/perfbench_golden.json
golden_file="$(mktemp /tmp/perfbench_golden.XXXXXX.json)"
trap 'rm -f "$trace_file" "$golden_file"' EXIT
scripts/perfbench_golden.sh > "$golden_file"
if ! diff -u data/perfbench_golden.json "$golden_file"; then
    echo "error: perfbench simulated values moved; see the diff above" >&2
    exit 1
fi
echo "perfbench golden OK: $(grep -c '": [0-9-]' "$golden_file") values identical"

echo "==> reproduce golden: paper-figure records match data/reproduce_golden.jsonl exactly"
# Refresh after an intended change with
#   scripts/reproduce_golden.sh > data/reproduce_golden.jsonl
reproduce_file="$(mktemp /tmp/reproduce_golden.XXXXXX.jsonl)"
trap 'rm -f "$trace_file" "$golden_file" "$reproduce_file"' EXIT
scripts/reproduce_golden.sh > "$reproduce_file"
if ! diff -u data/reproduce_golden.jsonl "$reproduce_file"; then
    echo "error: a paper figure moved; see the diff above" >&2
    exit 1
fi
echo "reproduce golden OK: $(wc -l < "$reproduce_file") records identical"

echo "All checks passed."
