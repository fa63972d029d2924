#!/usr/bin/env bash
# Build the benchmark from source with dune, then run it; every argument
# passes through to the benchmark binary.  Run from the repository root:
#   bash manetbench/run.sh --workload secure_rsa30 --seed 1 --seconds 30 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./manetbench/main.exe 1>&2
exec ./_build/default/manetbench/main.exe "$@"
