#!/usr/bin/env bash
# Prints, as JSON lines, every record the paper-figure experiments of the
# `reproduce` harness emit (table1, fig2-fig10, ablations) at a small
# scale. Each record is a simulated-clock value: the run carries no host
# clock, so the output repeats byte for byte across runs and hosts, and
# `scripts/check.sh` compares it exactly against the committed
# data/reproduce_golden.jsonl. When a change moves a paper figure on
# purpose, regenerate the golden and explain its diff in CHANGES.md:
#
#   scripts/reproduce_golden.sh > data/reproduce_golden.jsonl
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet --offline -p smat-bench --bin reproduce

out="$(mktemp /tmp/reproduce_golden.XXXXXX.jsonl)"
trap 'rm -f "$out"' EXIT
./target/release/reproduce table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9a fig9b \
    fig10 ablations --scale 0.02 --band-n 1024 --json "$out" >/dev/null
cat "$out"
