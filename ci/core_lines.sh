#!/usr/bin/env bash
# Prints gss-core's non-test line count: every `crates/core/src/**/*.rs` except the
# `tests.rs` files, each counted up to (not including) its first `#[cfg(test)]` line.
# Simplicity work reports this number before and after.
#
# Usage: ci/core_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/core/src -name '*.rs' ! -name tests.rs \
    -exec awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' {} \; |
    awk '{ total += $1 } END { print total }'
