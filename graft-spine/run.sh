#!/usr/bin/env bash
# Builds graft-spine and runs one workload (or all five, each in its own
# process). Prints every metric by name with its unit, writes
# DIR/<workload>.json (and, traced, DIR/<workload>.layers.json and
# DIR/<workload>.trace.json), and exits non-zero if any output check
# fails.
#
#   graft-spine/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                      [--trace 0|1] [--smoke] [--out DIR]
#   graft-spine/run.sh compare A_DIR B_DIR
#
# Everything is read and written inside the checkout: the build goes to
# $CARGO_TARGET_DIR (default: target/ at the repository root), results
# and scratch files to DIR (default: <target dir>/spine-out).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Build output goes to stderr, so stdout carries results only.
cargo build --release --offline --manifest-path graft-spine/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/graft-spine"

if [[ "${1:-}" == "compare" ]]; then
    exec "$bin" "$@"
fi

workload=all
out="$CARGO_TARGET_DIR/spine-out"
pass=()
while (($#)); do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --smoke) pass+=("$1"); shift ;;
        --seed | --seconds | --trace) pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# One CPU for the whole run. The host schedules this VM's vCPUs as it
# likes: for minutes at a time the guest packs every thread onto one of
# them, and whatever needs two threads (a two-worker job, a client and
# its server worker) then costs 30-40% more or less than it did before.
# On one CPU both regimes are the same: the pinned numbers stay within
# 3% while the unpinned ones swing. The CPU is the first one this shell
# may use; without `taskset` the run goes unpinned.
pin=()
if cpus="$(taskset -cp $$ 2>/dev/null)"; then
    cpus="${cpus##*: }"
    pin=(taskset -c "${cpus%%[,-]*}")
fi

# Host facts the binary cannot see for itself.
export SPINE_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export SPINE_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

if [[ "$workload" != all ]]; then
    exec "${pin[@]}" "$bin" run --workload "$workload" --out "$out" "${pass[@]}"
fi
status=0
for name in $("$bin" list); do
    "${pin[@]}" "$bin" run --workload "$name" --out "$out" "${pass[@]}" || status=1
done
exit "$status"
