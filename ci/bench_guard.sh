#!/usr/bin/env bash
# Throughput regression guard: compare freshly measured bench reports against the
# committed trajectory and fail when smoke ingest throughput drops by more than the
# tolerance (CI boxes are noisy; 30% is a regression, not jitter).
#
# Accepts one or more <committed, fresh> pairs, so the memory trajectory
# (BENCH_ingest.json), the file-backed trajectory (BENCH_ingest_file.json) and the
# durability trajectory (BENCH_durability.json) are guarded by one invocation.
#
# Ingest reports: the single-thread sharded rate is the hard gate; the 4- and 8-writer
# sharded rates are printed so the multi-writer trajectory is tracked per PR (they
# gate softly: only a collapse below the tolerance relative to their committed points
# fails).
#
# Durability reports (detected via `"bench": "durability"`): the file-ingest rate
# (`ingest_file_strict`) is the hard gate — it is the number group commit exists to
# protect — and the in-memory rate gates softly the same way.
#
# Usage: ci/bench_guard.sh <committed json> <fresh json> [<committed json> <fresh json>]...
set -euo pipefail

if [ "$#" -lt 2 ] || [ $(($# % 2)) -ne 0 ]; then
  echo "usage: bench_guard.sh <committed json> <fresh json> [<committed> <fresh>]..."
  exit 2
fi

# Fresh must reach at least this fraction of the committed rate.  The committed
# trajectory is produced on the dev container class; if CI moves to a much slower
# runner class, set BENCH_GUARD_TOLERANCE in the workflow instead of letting the
# guard rot red.
TOLERANCE="${BENCH_GUARD_TOLERANCE:-0.70}"

# The reports are written by gss_experiments::BenchReport: one result object per line,
# so each sharded entry is grep-able without a JSON parser.
extract() { # <file> <threads>
  grep -o "\"name\": \"sharded\", \"threads\": $2\.[0-9]*[^}]*" "$1" |
    grep -o '"mitems_per_sec": [0-9.]*' | head -1 | grep -o '[0-9.]*$'
}

# Durability rows carry no threads field; they are keyed by name alone.
extract_named() { # <file> <name>
  grep -o "\"name\": \"$2\"[^}]*" "$1" |
    grep -o '"mitems_per_sec": [0-9.]*' | head -1 | grep -o '[0-9.]*$'
}

# Gates fresh ≥ committed × tolerance; prints the comparison. Returns 1 on regression.
gate() { # <label> <committed rate> <fresh rate>
  echo "bench guard: $1 committed ${2} Mitems/s, fresh ${3} Mitems/s (tolerance ${TOLERANCE}x)"
  awk -v a="$2" -v b="$3" -v t="$TOLERANCE" 'BEGIN { exit !(b + 0 >= a * t) }'
}

failures=0
while [ "$#" -gt 0 ]; do
  baseline="$1"
  fresh="$2"
  shift 2
  if grep -q '"bench": "durability"' "$fresh"; then
    old=$(extract_named "$baseline" ingest_file_strict)
    new=$(extract_named "$fresh" ingest_file_strict)
    if [ -z "$old" ] || [ -z "$new" ]; then
      echo "bench guard: could not extract strict ingest throughput from" \
        "$baseline/$fresh (old='$old' new='$new')"
      failures=$((failures + 1))
      continue
    fi
    if ! gate "[$fresh] strict file ingest" "$old" "$new"; then
      echo "bench guard [$fresh]: file ingest regressed vs the committed trajectory"
      failures=$((failures + 1))
      continue
    fi
    # Memory rate: tracked, gated only against collapse.
    old_n=$(extract_named "$baseline" ingest_memory)
    new_n=$(extract_named "$fresh" ingest_memory)
    if [ -n "$old_n" ] && [ -n "$new_n" ] && ! gate "[$fresh] ingest_memory" "$old_n" "$new_n"; then
      echo "bench guard [$fresh]: ingest_memory collapsed vs the committed point"
      failures=$((failures + 1))
    fi
    continue
  fi
  old=$(extract "$baseline" 1)
  new=$(extract "$fresh" 1)
  if [ -z "$old" ] || [ -z "$new" ]; then
    echo "bench guard: could not extract single-thread throughput from" \
      "$baseline/$fresh (old='$old' new='$new')"
    failures=$((failures + 1))
    continue
  fi
  if ! gate "[$fresh] single-thread sharded" "$old" "$new"; then
    echo "bench guard [$fresh]: single-thread ingest regressed more than $(awk \
      -v t="$TOLERANCE" 'BEGIN { printf "%d", (1 - t) * 100 }')% vs the committed trajectory"
    failures=$((failures + 1))
    continue
  fi
  # Multi-writer points: tracked (printed) on every run, gated only against collapse.
  for threads in 4 8; do
    old_mt=$(extract "$baseline" "$threads")
    new_mt=$(extract "$fresh" "$threads")
    [ -z "$old_mt" ] || [ -z "$new_mt" ] && continue
    if ! gate "[$fresh] ${threads}-writer sharded" "$old_mt" "$new_mt"; then
      echo "bench guard [$fresh]: ${threads}-writer ingest collapsed vs the committed point"
      failures=$((failures + 1))
    fi
  done
done

if [ "$failures" -ne 0 ]; then
  echo "bench guard: $failures failure(s)"
  exit 1
fi
echo "bench guard: OK"
