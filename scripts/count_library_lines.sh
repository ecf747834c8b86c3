#!/usr/bin/env bash
# Non-test library lines, per crate and in total: the lines of every
# `crates/<crate>/src/**/*.rs` file before its first `#[cfg(test)]` line,
# skipping blank lines and `//` comment lines (doc comments included).
# Test modules are cut the same way `scripts/lint_panics.sh` cuts them (the
# repo convention keeps them last in the file).
#
# Usage: ./scripts/count_library_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate=${dir#crates/}
    crate=${crate%/src}
    count=0
    while IFS= read -r file; do
        n=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$file" | grep -cvE '^[[:space:]]*(//|$)' || true)
        count=$((count + n))
    done < <(find "$dir" -name '*.rs' | sort)
    printf '%-8s %6d\n' "$crate" "$count"
    total=$((total + count))
done
printf '%-8s %6d\n' total "$total"
