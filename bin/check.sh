#!/bin/sh
# CI-style gate: everything builds, all tests pass, docs build cleanly.
# Run from the repo root: ./bin/check.sh
#
# FUZZ_POINTS tunes the crash-fuzz sweeps' point budget (default 200;
# CI raises it — see .github/workflows/ci.yml). The same budget covers
# the plain sweep (test/test_fault.ml), the background-writer sweep
# (test/test_eviction.ml), which re-runs every fault mode with the
# writer/checkpointer domain and prefetch racing the crash point, and
# the snapshot-reader sweep (test/test_mvcc.ml), which re-runs every
# fault mode with a lock-free MVCC reader domain racing the crash point.
#
# After the full run, the suites whose protocols hand work between
# domains — txn, group_commit, mvcc and fault — run 3 more times each,
# unpinned, to catch schedule-dependent failures. Each run is wrapped in
# a 600-second `timeout`, so a wedged domain (a follower nobody wakes, a
# lost condvar signal) fails with a message instead of hanging.
#
# --force-restarts additionally runs the OLC forced-restart stress cases
# (test/test_olc.ml reads OLC_FORCE_RESTARTS): a writer domain repeatedly
# X-latches the root so optimistic visits must exercise the
# restart/fallback machinery, not just the happy path.
set -eu

cd "$(dirname "$0")/.."

FUZZ_POINTS="${FUZZ_POINTS:-200}"
export FUZZ_POINTS

for arg in "$@"; do
  case "$arg" in
    --force-restarts)
      OLC_FORCE_RESTARTS=1
      export OLC_FORCE_RESTARTS
      echo "(forced-restart OLC stress enabled)"
      ;;
    *)
      echo "check.sh: unknown argument: $arg" >&2
      echo "usage: ./bin/check.sh [--force-restarts]" >&2
      exit 2
      ;;
  esac
done

echo "== dune build @all =="
dune build @all

echo "== dune runtest (FUZZ_POINTS=$FUZZ_POINTS) =="
dune runtest

for suite in txn group_commit mvcc fault; do
  for run in 1 2 3; do
    echo "== $suite suite, repeat $run/3 =="
    status=0
    timeout 600 dune exec test/test_main.exe -- test "$suite" || status=$?
    if [ "$status" -eq 124 ]; then
      echo "check.sh: $suite suite (repeat $run) hung: no result after 600 s" >&2
      exit 1
    elif [ "$status" -ne 0 ]; then
      echo "check.sh: $suite suite (repeat $run) failed" >&2
      exit "$status"
    fi
  done
done

echo "== dune build @doc =="
dune build @doc

echo "check.sh: all green"
