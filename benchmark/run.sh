#!/usr/bin/env bash
# Build the benchmark in release mode and run it.
#
#   benchmark/run.sh --workload W [--seed S] [--seconds N] [--trace [0|1]] [--reps R] [--quick]
#       one workload, one process; the last line of stdout is the result JSON
#   benchmark/run.sh [--seed S] [--seconds N] [--trace [0|1]] [--quick]
#       every workload, untraced then traced (or only the mode given), each in
#       its own process; results are kept in benchmark/out/ and validated
#
# Builds into $CARGO_TARGET_DIR, or benchmark/target when that is unset.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# From benchmark/, so cargo finds the repo's .cargo/config.toml (and with it
# the build flags the program itself is built with) wherever this was called.
(cd "$here" && cargo build --release --offline --quiet)
bin="$target/release/observatory"

one=false
modes="0 1"
prev=""
for a in "$@"; do
    case "$a" in
        --workload) one=true ;;
        0|1) [ "$prev" = "--trace" ] && modes="$a" ;;
    esac
    prev="$a"
done
[ "$prev" = "--trace" ] && modes="1"

if $one; then
    exec "$bin" --out-dir "$here/out" "$@"
fi

# Strip any --trace from the arguments; the loop below sets it.
args=()
skip=false
for a in "$@"; do
    if $skip; then
        skip=false
        case "$a" in 0|1) continue ;; esac
    fi
    if [ "$a" = "--trace" ]; then
        skip=true
        continue
    fi
    args+=("$a")
done

mkdir -p "$here/out"
rm -f "$here"/out/result-*.json
status=0
for w in $("$bin" --describe | sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p'); do
    for t in $modes; do
        if "$bin" --out-dir "$here/out" --workload "$w" --trace "$t" "${args[@]}" | tee "$here/out/last.log"; then
            tail -n 1 "$here/out/last.log" > "$here/out/result-$w-$t.json"
        else
            echo "FAILED: $w --trace $t" >&2
            status=1
        fi
    done
done
rm -f "$here/out/last.log"
python3 "$here/tools.py" validate "$bin" "$here/out" || status=1
exit $status
