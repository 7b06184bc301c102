#!/usr/bin/env bash
# Build the benchmark offline, then run it.
#
#   benchmark/run.sh                      every workload, seeds 7 and 31, then a traced pass
#   benchmark/run.sh --quick              smoke run, marked "quick": true
#   benchmark/run.sh --twice              two passes, compared against the metrics' bounds
#   benchmark/run.sh --workload W --seed S [--out DIR]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1     one measurement
#   benchmark/run.sh compare a.json b.json
#
# A command line with --trace is one measurement (what BENCHMARK.json's
# command runs); `compare` and `spec` are passed through; anything else
# is the suite.
set -euo pipefail
cd "$(dirname "$0")/.."

# The package is a workspace of its own; its build never touches the
# root manifest, lock file or target directory layout.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/gridflow-benchmark"

case "${1:-}" in
  compare|spec) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--trace" ]; then
    exec "$bin" run "$@"
  fi
done
exec "$bin" suite "$@"
