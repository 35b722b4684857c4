#!/usr/bin/env bash
# A/A check: run every workload's untraced run twice on the same commit and
# fail if any end-to-end metric of the second set is worse than the first by
# more than its bound in BENCHMARK.json. Arguments are passed to run.sh
# (e.g. --seed 1337, --seconds 6).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
for set in 1 2; do
    "$here/run.sh" --trace 0 "$@"
    rm -rf "$here/out/aa-$set"
    mkdir -p "$here/out/aa-$set"
    mv "$here"/out/result-*-0.json "$here/out/aa-$set/"
done
python3 "$here/tools.py" aa "$here/out/aa-1" "$here/out/aa-2"
