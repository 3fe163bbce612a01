#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#   bash benchmark/run.sh run --seed S
#   bash benchmark/run.sh compare A.json B.json
# Run from the repository root. Build output goes to stderr, so the
# benchmark's own stdout (last line: a JSON summary) stays clean.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
