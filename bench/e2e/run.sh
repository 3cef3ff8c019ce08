#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it with the given
# arguments. Run from the repository root:
#
#   bash bench/e2e/run.sh --workload adhoc --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line of standard output is the
# benchmark's JSON result. The dune cache is disabled so the build writes
# nothing outside the checkout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
