#!/usr/bin/env bash
# Builds the shipped server (root manifest, so it gets the root [profile.release]) and
# the benchmark (its own manifest), then runs it.
#
#   benchmark/run.sh                                   all four workloads, untraced then
#                                                      traced -> benchmark/out/result.json
#   benchmark/run.sh --workload wire_hot --seed 7      one workload, one seed
#   benchmark/run.sh --workload wire_cold --trace 1    its ring pass
#   benchmark/run.sh suite --quick                     1/10 volume smoke run
#   benchmark/run.sh compare A.json... -- B.json...    two sets of runs against the bounds
#   benchmark/run.sh aa 5                              two interleaved sets of the current tree
#
# Run from anywhere; it works from the repo root, where the root manifest lives.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/server ]; then
    echo "benchmark/run.sh: $(pwd) is not a checkout of the repo (no root manifest to build gss-server from)" >&2
    exit 2
fi

cargo build --offline --release --quiet -p gss-server --bin gss-server
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml

export GSS_SERVER_BIN="${CARGO_TARGET_DIR:-target}/release/gss-server"
benchmark="${CARGO_TARGET_DIR:-benchmark/target}/release/gss-benchmark"
if [ "$#" -eq 0 ]; then
    exec "$benchmark" suite
fi
exec "$benchmark" "$@"
