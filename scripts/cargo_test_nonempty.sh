#!/usr/bin/env bash
# Run `cargo test` with the given arguments and fail unless at least one
# test ran. A name or path filter that matches nothing — a test that was
# renamed or moved — otherwise passes on zero tests.
#
#   ./scripts/cargo_test_nonempty.sh --release -q --test matrix_parity large_park
set -uo pipefail
cd "$(dirname "$0")/.."

log=$(mktemp)
trap 'rm -f "$log"' EXIT

cargo test "$@" 2>&1 | tee "$log"
status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ]; then
    exit "$status"
fi

# Sum the "N passed" counts of every test binary's summary line.
passed=$(sed 's/\x1b\[[0-9;]*m//g' "$log" |
    sed -n 's/^test result: [A-Za-z]*\. \([0-9][0-9]*\) passed.*/\1/p' |
    awk '{ total += $1 } END { print total + 0 }')
if [ "$passed" -eq 0 ]; then
    echo "error: \`cargo test $*\` ran no test; check its filter." >&2
    exit 1
fi
echo "cargo test $*: $passed passed"
