#!/usr/bin/env bash
# Build perfbench from this checkout and run it with the given arguments.
#   bash bench/perf/run.sh --workload spec-mem --seed 1 --seconds 12 --trace 0
# Build output goes to stderr, so the last line of stdout is perfbench's own.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not a full checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
# --cache=disabled keeps the build inside the checkout.
dune build --root . --cache=disabled --display quiet bench/perf/perfbench.exe >&2
exec ./_build/default/bench/perf/perfbench.exe "$@"
