#!/usr/bin/env bash
# Collect one set of untraced runs for `--compare`: RUNS seeds per workload,
# starting at FIRST_SEED, each run's last line appended to OUT/<workload>.jsonl.
# Run from the repository root:  benchmark/aa.sh OUT [FIRST_SEED] [RUNS]
set -euo pipefail
out=${1:?usage: benchmark/aa.sh OUT [FIRST_SEED] [RUNS]}
first=${2:-1}
runs=${3:-10}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p "$out"
for workload in ingest_batch stream_wire query_serve mixed_rw; do
  for ((seed = first; seed < first + runs; seed++)); do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
      tail -n 1 >>"$out/$workload.jsonl"
  done
done
