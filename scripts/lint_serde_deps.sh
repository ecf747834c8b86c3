#!/usr/bin/env bash
# Serde stays out of the library. Only the paper binaries in paws-bench
# write JSON (results/*.json), and of the library's types only paws-data's
# `ThresholdPoint` and `DatasetStats` reach that output. So among the root
# package and the manifests under crates/, only paws-data and paws-bench may
# declare `serde`, and only paws-bench may declare `serde_json`.
#
# Checked: every `[dependencies]`, `[dev-dependencies]` and
# `[build-dependencies]` table, target-specific ones included. The root's
# `[workspace.dependencies]` only names what members may use, so it is not
# a declaration. `perfbench/` is a workspace of its own with its own JSON
# record, and the vendored stand-ins under `vendor/` are not checked.
set -uo pipefail
cd "$(dirname "$0")/.."

# The dependency names one manifest declares.
declared() {
    awk '
        /^\[/ {
            in_deps = 0
            if ($0 ~ /^\[workspace\./) next
            if (match($0, /dependencies\.[A-Za-z0-9_-]+\]$/)) {
                print substr($0, RSTART + 13, RLENGTH - 14)
            } else if ($0 ~ /dependencies\]$/) {
                in_deps = 1
            }
            next
        }
        in_deps && /^[A-Za-z0-9_-]/ { split($0, name, /[ .=]/); print name[1] }
    ' "$1"
}

fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    for dep in $(declared "$manifest" | sort -u); do
        case "$dep $manifest" in
        "serde crates/data/Cargo.toml" | "serde crates/bench/Cargo.toml" | \
            "serde_json crates/bench/Cargo.toml") ;;
        "serde "* | "serde_json "*)
            echo "error: $manifest declares \`$dep\`. Only paws-data and paws-bench may" >&2
            echo "       declare serde, and only paws-bench serde_json." >&2
            fail=1
            ;;
        esac
    done
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "Serde lint clean: serde only in paws-data and paws-bench, serde_json only in paws-bench."
