#!/usr/bin/env bash
# Build the repository benchmark from source and run it, from the root of
# a checkout (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --selftest
#   bash perfbench/run.sh --regen-reference
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no repository sources here (dune-project and lib/ are missing)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi

# Keep the build inside the checkout, and keep the libraries' own
# environment switches (metrics, tracing, job count) out of the numbers.
export DUNE_CACHE=disabled
unset WX_JOBS WX_METRICS WX_TRACE WX_MEMGC WX_PROGRESS WX_PROGRESS_INTERVAL_MS

dune build --root . --display quiet ./perfbench/main.exe >&2
case " $* " in
  *" --selftest "*) exec ./_build/default/perfbench/main.exe "$@" --manifest BENCHMARK.json ;;
  *) exec ./_build/default/perfbench/main.exe "$@" ;;
esac
