#!/usr/bin/env bash
# Crash and fault matrix: one harness (`crash_harness ingest|verify <lane>`), four lanes,
# one seed.  Every run's verify reopens the store the way gss-server restarts a tenant
# (`ShardedGss::open_sharded`) and requires zero loss of what the run promised, with
# every acknowledged edge answering at least its exact weight.
#
# Kill lanes — the ingest is SIGKILLed at a randomized offset:
#   * strict:   one writer;
#   * threaded: 3 concurrent writers over a sharded sketch (one file + log per shard),
#               a reader querying alongside, stale .lock sidecars reclaimed on reopen;
#   * group:    threaded under a deliberately wide group-commit window (50 ms /
#               4 MiB), so the kill lands mid-window with the cadence `fdatasync`
#               still pending, and with automatic checkpoints every 256 KiB of shard
#               log, so kills also land inside checkpoints.
# A kill iteration counts only when the ingest died by SIGKILL (status 137) with some
# but not all items acknowledged.
#
# Fault lane — the strict lane with a randomized `GSS_FAULT_PLAN` armed (EIO, ENOSPC,
# torn writes, failed fsync/truncate, transient EINTR/short I/O) and no kill: a hard
# fault must fail stop with an honest durability report (checked at the scene), verify
# holds the report to its word, and nothing may panic.  A fault at creation is fine.
#
# Usage: ci/crash_matrix.sh [kills-per-lane] [fault-schedules]   (defaults 3 and 30)
set -euo pipefail
cd "$(dirname "$0")/.."

KILLS="${1:-3}"
SCHEDULES="${2:-30}"
KILL_ITEMS=1200000
FAULT_ITEMS=30000

# release-witness = release + debug-assertions: the matrix doubles as the runtime
# lock-order witness's integration run — an inversion panics the harness and fails CI.
cargo build --profile release-witness -p gss-experiments --bin crash_harness
BIN=target/release-witness/crash_harness

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

# Deterministic-but-varied kill offsets and schedules; rerun with SEED=<n> to reproduce
# a failing run exactly.
SEED="${SEED:-$RANDOM}"
echo "crash matrix: $KILLS kills per lane, $SCHEDULES fault schedules, seed $SEED"

# Failing iterations park their sidecars (plus the seed) here so CI can upload them as
# artifacts; the workdir itself is a mktemp and vanishes on exit.
ARTIFACTS="target/matrix-artifacts"
failures=0
# fail <label> <reason> <sidecar>...
fail() {
  echo "--- $1: FAILED ($2)"
  failures=$((failures + 1))
  mkdir -p "$ARTIFACTS"
  echo "$SEED" > "$ARTIFACTS/matrix-seed"
  for f in "${@:3}"; do
    [ -e "$f" ] && cp "$f" "$ARTIFACTS/" || true
  done
}

# verify <label> <lane> <base> <progress> [ingest-log]
verify() {
  if "$BIN" verify "$2" "$3" "$4"; then
    echo "--- $1: OK"
  else
    fail "$1" "verify" "$4".* "${@:5}"
  fi
}

for lane in strict threaded group; do
  for i in $(seq 1 "$KILLS"); do
    base="$WORKDIR/$lane-$i.gss"
    progress="$WORKDIR/$lane-$i.progress"
    # Kill offset in [0.30, 1.29] s: from "barely created" to "deep into the stream",
    # varied per lane and per iteration (and per run via the seed).
    delay=$(awk -v s="$SEED" -v i="$i" -v m="$lane" 'BEGIN {
      srand(s * 31 + i * 7919 + (m == "threaded") * 611953 + (m == "group") * 999331);
      rand();
      printf "%.2f", 0.30 + rand()
    }')
    "$BIN" ingest "$lane" "$base" "$progress" "$KILL_ITEMS" &
    pid=$!
    sleep "$delay"
    kill -9 "$pid" 2>/dev/null || true
    status=0
    wait "$pid" 2>/dev/null || status=$?
    # The progress files carry no trailing newline: read each one separately.
    acknowledged=$(for f in "$progress".[0-9]; do
      cat "$f" 2>/dev/null; echo
    done | awk '{ sum += $1 } END { print sum + 0 }')
    if [ "$status" -ne 137 ]; then
      fail "$lane #$i" "ingest exited with status $status before the ${delay}s kill" \
        "$progress".*
    elif [ "$acknowledged" -eq 0 ] || [ "$acknowledged" -eq "$KILL_ITEMS" ]; then
      # Nothing or everything acknowledged: the iteration proves nothing about recovery.
      fail "$lane #$i" "vacuous: killed at $acknowledged of $KILL_ITEMS acknowledged items" \
        "$progress".*
    else
      echo "--- $lane #$i: killed after ${delay}s at $acknowledged acknowledged items"
      verify "$lane #$i" "$lane" "$base" "$progress"
    fi
  done
done
kill_failures=$failures

fired=0
hard_stops=0
transient_runs=0
for i in $(seq 1 "$SCHEDULES"); do
  base="$WORKDIR/fault-$i.gss"
  progress="$WORKDIR/fault-$i.progress"
  ingest_log="$WORKDIR/fault-$i.log"
  # Schedule mix: 40% hard write faults (EIO/ENOSPC/torn), 20% failed fsync,
  # 10% failed truncate, 20% transient-only, 10% transient-then-hard combos.
  # Occurrence ranges track real call frequencies: writes are per-item-ish,
  # fsyncs per commit/drain, set_len only at creation/checkpoint.
  spec=$(awk -v s="$SEED" -v i="$i" 'BEGIN {
    srand(s * 131 + i * 7919); rand();
    c = rand();
    if (c < 0.40) {
      k = rand();
      kind = (k < 0.34) ? "eio" : (k < 0.67) ? "enospc" : "torn";
      printf "write:%s@%d", kind, 1 + int(rand() * 500);
    } else if (c < 0.60) {
      op = (rand() < 0.7) ? "sync_data" : "sync_all";
      kind = (rand() < 0.5) ? "eio" : "enospc";
      occ = (op == "sync_all") ? 1 : 1 + int(rand() * 18);
      printf "%s:%s@%d", op, kind, occ;
    } else if (c < 0.70) {
      kind = (rand() < 0.5) ? "enospc" : "eio";
      printf "set_len:%s@%d", kind, 1 + int(rand() * 3);
    } else if (c < 0.90) {
      if (rand() < 0.5) { op = "read"; kind = (rand() < 0.5) ? "eintr" : "short"; }
      else              { op = "write"; kind = "eintr"; }
      printf "%s:%s@%d", op, kind, 1 + int(rand() * 40);
    } else {
      printf "write:eintr@%d;write:eio@%d", 1 + int(rand() * 30), 50 + int(rand() * 400);
    }
  }')
  echo "--- schedule #$i: GSS_FAULT_PLAN=\"$spec\""
  if ! GSS_FAULT_PLAN="$spec" "$BIN" ingest strict "$base" "$progress" "$FAULT_ITEMS" \
      >"$ingest_log" 2>&1; then
    cat "$ingest_log"
    fail "schedule #$i" "ingest broke the fail-stop contract" "$progress".* "$ingest_log"
    continue
  fi
  sed 's/^/    /' "$ingest_log"
  if grep -q "fail-stop" "$ingest_log"; then
    fired=$((fired + 1))
    hard_stops=$((hard_stops + 1))
  elif ! grep -q "injected_faults 0" "$ingest_log"; then
    fired=$((fired + 1))
    transient_runs=$((transient_runs + 1))
  fi
  # Verify with the plan cleared: recovery itself runs against healthy I/O.
  verify "schedule #$i" strict "$base" "$progress" "$ingest_log"
done

fault_failures=$((failures - kill_failures))
echo "crash matrix: $((3 * KILLS - kill_failures))/$((3 * KILLS)) kills recovered," \
  "$((SCHEDULES - fault_failures))/$SCHEDULES schedules survived;" \
  "$fired/$SCHEDULES schedules fired ($hard_stops hard fail-stops," \
  "$transient_runs transient-absorbed runs)"
# Vacuous-pass guard: a matrix where most schedules never inject anything proves
# nothing — the occurrence ranges above are tuned so the large majority fire.
if [ $((fired * 3)) -lt $((SCHEDULES * 2)) ]; then
  echo "crash matrix: vacuous — fewer than 2/3 of schedules injected a fault;" \
    "retune the occurrence ranges for FAULT_ITEMS"
  failures=$((failures + 1))
fi
if [ "$failures" -ne 0 ]; then
  echo "crash matrix: failed — reproduce with SEED=$SEED; sidecars saved under $ARTIFACTS/"
  exit 1
fi
echo "crash matrix: no acknowledged loss, no false ack, no panic"
