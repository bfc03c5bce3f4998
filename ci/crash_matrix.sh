#!/usr/bin/env bash
# Crash kill-matrix: prove that a SIGKILL'd file-backed ingest run is recoverable.
#
# For each mode (strict, threaded, group-commit) this starts the matching
# `crash_harness` ingest, SIGKILLs it at a randomized offset, then runs the matching
# verify, which reopens the sketch file(s) (write-ahead-log replay) and asserts:
#   * strict:   one writer, zero acknowledged-item loss, and
#   * threaded: 3 concurrent writers over a sharded sketch (one file + log per
#               shard) — zero loss of any thread's acknowledged items, with the killed
#               process's stale .lock sidecars reclaimed on reopen, and
#   * group-commit: the threaded run under a deliberately wide group-commit window
#               (50 ms / 4 MiB), so the kill lands mid-window with the cadence
#               `fdatasync` still pending — acknowledgement is write()-based, so
#               zero acknowledged loss must hold anyway — and with automatic
#               checkpoints every 256 KiB of shard log, so kills also land inside
#               checkpoints racing other writers' lock-free acknowledgements, and
#   * in all:   every recovered item's edge answers with at least its exact weight.
#
# Usage: ci/crash_matrix.sh [iterations-per-mode]   (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."

ITERATIONS="${1:-3}"
ITEMS=1200000

# release-witness = release + debug-assertions: the kill-matrix doubles as the runtime
# lock-order witness's integration run — an inversion panics the harness and fails CI.
cargo build --profile release-witness -p gss-experiments --bin crash_harness
BIN=target/release-witness/crash_harness

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

# Deterministic-but-varied kill offsets; rerun with SEED=<n> (or the legacy
# CRASH_MATRIX_SEED) to reproduce a failing run exactly.
SEED="${SEED:-${CRASH_MATRIX_SEED:-$RANDOM}}"
echo "crash matrix: $ITERATIONS iterations per mode, seed $SEED"

# Failing iterations park their progress sidecars (plus the seed) here so CI can
# upload them as artifacts; the workdir itself is a mktemp and vanishes on exit.
ARTIFACTS="target/matrix-artifacts"
save_artifacts() {
  mkdir -p "$ARTIFACTS"
  echo "$SEED" > "$ARTIFACTS/crash-matrix-seed"
  for f in "$@"; do
    [ -e "$f" ] && cp "$f" "$ARTIFACTS/" || true
  done
}

failures=0
for mode in strict threaded group-commit; do
  ingest_cmd=ingest
  verify_cmd=verify
  case "$mode" in
    threaded)
      ingest_cmd=ingest-threaded
      verify_cmd=verify-threaded
      ;;
    group-commit)
      ingest_cmd=ingest-group
      verify_cmd=verify-group
      ;;
  esac
  for i in $(seq 1 "$ITERATIONS"); do
    sketch="$WORKDIR/crash-$mode-$i.gss"
    progress="$WORKDIR/progress-$mode-$i"
    # Kill offset in [0.30, 1.29] s: from "barely created" to "deep into the stream",
    # varied per mode and per iteration (and per run via the seed).
    delay=$(awk -v s="$SEED" -v i="$i" -v m="$mode" 'BEGIN {
      srand(s * 31 + i * 7919 + (m == "threaded") * 611953 + (m == "group-commit") * 999331);
      rand();
      printf "%.2f", 0.30 + rand()
    }')
    "$BIN" "$ingest_cmd" "$sketch" "$progress" "$ITEMS" &
    pid=$!
    sleep "$delay"
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    if [ "$mode" = threaded ] || [ "$mode" = group-commit ]; then
      # The progress files carry no trailing newline: read each one separately.
      acknowledged=$(for f in "$progress".0 "$progress".1 "$progress".2; do
        cat "$f" 2>/dev/null; echo
      done | awk '{ sum += $1 } END { print sum + 0 }')
    else
      acknowledged=$(cat "$progress" 2>/dev/null || echo 0)
    fi
    # A completed ingest means the kill landed after the final sync: the iteration
    # would "verify" a cleanly checkpointed file and prove nothing about recovery.
    if [ "$acknowledged" = "$ITEMS" ]; then
      echo "--- $mode #$i: ingest finished all $ITEMS items before the ${delay}s kill —"
      echo "    vacuous iteration; raise ITEMS for this runner class"
      failures=$((failures + 1))
      save_artifacts "$progress" "$progress".0 "$progress".1 "$progress".2
      continue
    fi
    echo "--- $mode #$i: killed after ${delay}s at $acknowledged acknowledged items"
    if "$BIN" "$verify_cmd" "$sketch" "$progress"; then
      echo "--- $mode #$i: OK"
    else
      echo "--- $mode #$i: FAILED"
      failures=$((failures + 1))
      save_artifacts "$progress" "$progress".0 "$progress".1 "$progress".2
    fi
  done
done

if [ "$failures" -ne 0 ]; then
  echo "crash matrix: $failures failure(s) — reproduce with SEED=$SEED;" \
    "progress sidecars saved under $ARTIFACTS/"
  exit 1
fi
echo "crash matrix: all $((3 * ITERATIONS)) kills recovered with zero acknowledged loss"
