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
# default-members covers every crate: the conformance suite, the model
# checker and the serving trace replays (crates/serve/tests) all run here.
cargo test -q

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

echo "==> sanitize: raw std::sync primitives are banned in crates/serve"
# Every lock/condvar in the serving engine must be a checked smat-sanitize
# primitive so the lock-order engine and the model checker see it. The shim
# lives in crates/sanitize/src/sync.rs; OnceLock, Barrier, and std atomics
# without protocol roles stay allowed.
if grep -rnE 'std::sync::(Mutex|RwLock|Condvar)' crates/serve/src; then
    echo "error: raw std::sync lock in crates/serve — use smat_sanitize::sync" >&2
    exit 1
fi

echo "==> prepare-path smoke: parallel BCSR bitwise-identical, LSH quality in tolerance"
cargo build -q --release --example prepare_perf
./target/release/examples/prepare_perf --smoke

echo "==> serving trace: reproduce serve --trace must write a Chrome trace that parses"
# (Span coverage is asserted by crates/serve/tests/recorded.rs.)
trace_file="$(mktemp /tmp/smat_trace.XXXXXX.json)"
trap 'rm -f "$trace_file"' EXIT
cargo run -q --release --offline -p smat-bench --bin reproduce -- serve --trace "$trace_file" >/dev/null
python3 -c 'import json, sys; assert json.load(open(sys.argv[1]))["traceEvents"], "trace is empty"' "$trace_file"

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
