#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   crates/bench/e2e/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1]
#
# With --workload and --trace: one run, whose last line of standard output
# is the result object (what BENCHMARK.json's command relies on). Without
# them: every workload untraced, then every workload traced, and the
# results gathered into crates/bench/e2e/out/e2e_seed<S>.json.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
cd "$here/../../.."

# relative to the repo root; the benchmark driver sets CARGO_TARGET_DIR
target=${CARGO_TARGET_DIR:-target/e2e}
# the benchmark and the remote backend's worker binary it launches
cargo build --release --offline --quiet \
    --manifest-path crates/bench/e2e/Cargo.toml --target-dir "$target" \
    -p smst-e2e -p smst-net --bin smst-e2e --bin smst-net >&2

export SMST_NET_WORKER="$target/release/smst-net"
exec "$target/release/smst-e2e" --out crates/bench/e2e/out "$@"
