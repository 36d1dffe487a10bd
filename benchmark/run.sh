#!/usr/bin/env bash
# Build the benchmark from this checkout and run it; arguments go to
# `velum_bench run` (see benchmark/README.md), e.g.
#   bash benchmark/run.sh --workload fabric --seed 3 --seconds 12 --trace 0
# The dune cache stays off so the build reads and writes only inside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
exec dune exec --root . --cache=disabled --display=quiet ./benchmark/velum_bench.exe -- run "$@"
