#!/usr/bin/env bash
# Runs the paper's six table/figure bins and diffs their tables against the
# recorded ones next to this script. Every row is a pure function of the
# seeds in the bins, so any difference is a change in the reproduced
# numbers. Two kinds of line are not rows and are dropped on both sides:
# the headline that prints `engine.describe()` (it carries the host's
# thread count) and fig_detection's `trace -> <path>` line. The per-round
# trace fig_detection writes is then read back by `smst-analyze ingest`.
#
#   ci/figures/check.sh            # diff against ci/figures/*.txt
#   ci/figures/check.sh --record   # overwrite them (a PR that means to
#                                  # move a figure says so)
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cd "$here/../.."

cargo build --release -p smst-bench --bins -p smst-analyze --bin smst-analyze
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
status=0
for bin in table1 fig_construction fig_memory fig_lowerbound fig_detection fig_locality; do
  # fig_detection writes TRACE_fig_detection.jsonl next to its table
  SMST_BENCH_DIR="$out" "target/release/$bin" |
    grep -v -e 'threads=' -e ' -> ' >"$out/$bin.txt"
  if [ "${1:-}" = "--record" ]; then
    cp "$out/$bin.txt" "$here/$bin.txt"
  elif ! diff -u "$here/$bin.txt" "$out/$bin.txt"; then
    echo "figure \`$bin\` moved" >&2
    status=1
  fi
done
target/release/smst-analyze ingest "$out"
exit $status
