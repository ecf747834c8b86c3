#!/usr/bin/env bash
# Panic-surface ratchet: the serving surface is contractually panic-free
# (typed PawsError / SnapshotError / QueryError / SolverError / PlanError
# everywhere a deployment can reach), so new `unwrap` / `expect` /
# `panic!` / `unreachable!` sites in non-test library code must not creep
# in. Every pre-existing site below was audited (PR 6): they are either
# infallible by construction (fixed-size `try_into`, guarded indexing),
# documented-panic facades over a `try_*` twin (e.g. `PwlFunction::new`),
# or sit on train-time paths that never see untrusted input.
#
# Test modules are stripped (everything from the first `#[cfg(test)]`
# line onward — the repo convention keeps them last in the file), so the
# counts cover only reachable library code. A file whose count DROPS is
# reported as a reminder to tighten its allowlist entry; a count that
# RISES fails the lint.
set -uo pipefail
cd "$(dirname "$0")/.."

pattern='\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|\.unwrap_or_else\('

# "max-count path" pairs: the audited panic-capable line count per file.
allowlist() {
    cat <<'EOF'
2 crates/bench/src/bin/fig6.rs
1 crates/bench/src/bin/fig7.rs
2 crates/bench/src/bin/fig8.rs
2 crates/bench/src/bin/fig9.rs
1 crates/bench/src/bin/table1.rs
1 crates/bench/src/bin/table2.rs
2 crates/bench/src/bin/table3.rs
4 crates/bench/src/lib.rs
1 crates/core/src/lib.rs
1 crates/core/src/pipeline.rs
1 crates/core/src/scenario.rs
1 crates/data/src/discretize.rs
2 crates/data/src/simd.rs
3 crates/field/src/simulate.rs
5 crates/geo/src/park.rs
1 crates/ml/src/bagging.rs
2 crates/ml/src/gp.rs
7 crates/ml/src/snapshot.rs
1 crates/ml/src/traits.rs
1 crates/plan/src/game.rs
5 crates/plan/src/pwl.rs
3 crates/plan/src/routes.rs
5 crates/sim/src/behaviour.rs
2 crates/sim/src/patrol.rs
EOF
}

allowed_for() {
    allowlist | awk -v f="$1" '$2 == f { print $1; found = 1 } END { if (!found) print 0 }'
}

fail=0
while IFS= read -r file; do
    count=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$file" | grep -cE "$pattern")
    allowed=$(allowed_for "$file")
    if [ "$count" -gt "$allowed" ]; then
        echo "error: $file has $count panic-capable line(s) (allowlisted: $allowed)." >&2
        echo "       New unwrap/expect/panic!/unreachable! in library code must become" >&2
        echo "       typed errors (PawsError & friends); only audited sites may stay." >&2
        fail=1
    elif [ "$count" -lt "$allowed" ]; then
        echo "note: $file is down to $count panic-capable line(s) (allowlisted: $allowed) — tighten scripts/lint_panics.sh."
    fi
done < <(find crates/*/src src vendor/rayon/src -name '*.rs' 2>/dev/null | sort)

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "Panic lint clean: no new unwrap/expect/panic! sites in non-test library code."
