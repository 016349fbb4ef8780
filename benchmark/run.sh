#!/bin/sh
# Build the ledger and the two command-line tools it drives, then run one
# workload. Run from the root of the source tree:
#
#   sh benchmark/run.sh --workload sim-suite --seed 1 --seconds 16 --trace 0
#
# Build output goes to standard error, so the last line of standard output
# is the ledger's JSON result. Everything the build and the run write stays
# inside the tree: _build/ and benchmark/.ledger/ (the shared dune cache is
# off).
set -e
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
mkdir -p benchmark/.ledger/tmp
TMPDIR="$PWD/benchmark/.ledger/tmp"
export TMPDIR
DUNE_CACHE=disabled dune build --root . ./benchmark/ledger.exe ./bin/salam_dse.exe ./bin/salam_served.exe 1>&2
exec ./_build/default/benchmark/ledger.exe "$@"
