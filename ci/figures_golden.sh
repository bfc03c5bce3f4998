#!/usr/bin/env bash
# Runs every table and figure at smoke scale (`gss-experiments all smoke`) on the storage
# backend `GSS_STORAGE` names (memory when unset) and diffs each CSV against its golden
# copy in crates/experiments/golden/smoke/.  The timing columns are masked by header name
# before the diff — Table I's update speeds (every column but `data_structure`, all Mips)
# and the parameter ablation's `mips` — and every other byte must match.
#
# The run gets a temp dir of its own (file-backed sketches land in it) and an output dir
# of its own; both are removed when the script exits.  A change that moves a figure's
# numbers on purpose regenerates the golden tables with `--bless` and says so.
#
# Usage: ci/figures_golden.sh [--bless]
#        GSS_STORAGE=file ci/figures_golden.sh
set -euo pipefail
cd "$(dirname "$0")/.."

golden=crates/experiments/golden/smoke
bless=false
case "${1:-}" in
    --bless) bless=true ;;
    "") ;;
    *) echo "usage: ci/figures_golden.sh [--bless]" >&2; exit 2 ;;
esac

# The header names of a CSV's timing columns.
timing_columns() {
    case "$1" in
        table1_update_speed.csv) echo "email-EuAll cit-HepPh web-NotreDame" ;;
        ablation_parameters.csv) echo "mips" ;;
    esac
}

# Prints CSV file $1 with the fields under the header names in $2 replaced by `*`.
# Quoted fields may hold commas, so lines are split outside quotes only.
mask() {
    awk -v names="$2" '
        function split_csv(line, out,    n, i, c, field, quoted) {
            n = 0; field = ""; quoted = 0
            for (i = 1; i <= length(line); i++) {
                c = substr(line, i, 1)
                if (c == "\"") quoted = !quoted
                if (c == "," && !quoted) { out[++n] = field; field = "" } else field = field c
            }
            out[++n] = field
            return n
        }
        NR == 1 {
            count = split(names, wanted, " ")
            n = split_csv($0, header)
            for (i = 1; i <= n; i++) for (j = 1; j <= count; j++) if (header[i] == wanted[j]) masked[i] = 1
            print
            next
        }
        {
            n = split_csv($0, fields)
            line = ""
            for (i = 1; i <= n; i++) line = line (i > 1 ? "," : "") (i in masked ? "*" : fields[i])
            print line
        }
    ' "$1"
}

cargo build --release --bin gss-experiments
target_dir="${CARGO_TARGET_DIR:-target}"
case "$target_dir" in /*) ;; *) target_dir="$(pwd)/$target_dir" ;; esac
binary="$target_dir/release/gss-experiments"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/tmp"
backend="${GSS_STORAGE:-memory}"
start=$(date +%s)
if ! TMPDIR="$work/tmp" CARGO_TARGET_DIR="$work/out" "$binary" all smoke >"$work/log" 2>&1; then
    tail -n 40 "$work/log"
    echo "gss-experiments all smoke failed on the $backend backend" >&2
    exit 1
fi
echo "all smoke on the $backend backend: $(($(date +%s) - start)) s"

produced="$work/out/experiments"
if $bless; then
    rm -rf "$golden"
    mkdir -p "$golden"
    for csv in "$produced"/*.csv; do
        name="$(basename "$csv")"
        mask "$csv" "$(timing_columns "$name")" >"$golden/$name"
    done
    echo "wrote $(ls "$golden" | wc -l) golden tables to $golden"
    exit 0
fi

failed=0
for csv in "$produced"/*.csv; do
    name="$(basename "$csv")"
    if [ ! -f "$golden/$name" ]; then
        echo "no golden table for $name" >&2
        failed=1
    elif ! diff -u "$golden/$name" <(mask "$csv" "$(timing_columns "$name")"); then
        echo "$name differs from its golden table on the $backend backend" >&2
        failed=1
    fi
done
for expected in "$golden"/*.csv; do
    if [ ! -f "$produced/$(basename "$expected")" ]; then
        echo "the run wrote no $(basename "$expected")" >&2
        failed=1
    fi
done
if [ "$failed" -ne 0 ]; then
    exit 1
fi
echo "$(ls "$golden" | wc -l) tables match their golden copies on the $backend backend"
