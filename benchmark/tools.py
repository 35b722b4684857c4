#!/usr/bin/env python3
"""Checks on the benchmark's own output (run.sh and aa.sh call these).

  tools.py validate BIN OUT_DIR   BENCHMARK.json against the contract and
                                  against `BIN --describe`; every
                                  OUT_DIR/result-<workload>-<trace>.json
                                  against BENCHMARK.json
  tools.py aa DIR1 DIR2           second set no worse than the first by more
                                  than each end-to-end metric's bound
  tools.py spread BIN SECONDS SEED...
                                  one untraced run per seed and workload;
                                  prints each end-to-end metric's median and
                                  (Q3 - Q1) / median, as the driver computes
                                  them, and fails when one exceeds its bound
"""
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_contract(b, errors):
    def need(ok, msg):
        if not ok:
            errors.append("BENCHMARK.json: " + msg)

    need((ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024, "larger than 64 KiB")
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    need(set(b) == keys, f"keys are {sorted(b)}")
    need(1 <= len(b["paths"]) <= 16, "1 to 16 paths")
    need(len(b["command"]) <= 32 and all(len(c) <= 200 for c in b["command"]), "command too long")
    need(isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60, "run_seconds out of range")
    need(2 <= len(b["workloads"]) <= 8, "2 to 8 workloads")
    need(1 <= len(b["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    need(1 <= len(b["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for w in b["workloads"]:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        need(len(w["why"]) <= 200 and "\n" not in w["why"], f"why of {w['name']} too long")
        names.append(w["name"])
    for m in b["end_to_end"]:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end-to-end keys {sorted(m)}")
        need(0 < m["bound"] <= 0.25, f"bound of {m['name']} out of range")
        names.append(m["name"])
    for m in b["per_layer"]:
        need(set(m) == {"name", "unit", "better"}, f"per-layer keys {sorted(m)}")
        names.append(m["name"])
    for m in b["end_to_end"] + b["per_layer"]:
        need(bool(UNIT.match(m["unit"])), f"unit of {m['name']}: {m['unit']!r}")
        need(m["better"] in ("higher", "lower"), f"direction of {m['name']}")
    for n in names:
        need(bool(NAME.match(n)), f"name {n!r}")
    need(len(names) == len(set(names)), "a name is used twice")
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s missing")
    runs = 4 + 22 * len(b["workloads"])
    print(f"# the driver makes {runs} runs; at 3420 s that is {3420 / runs:.1f} s each, builds included")


def check_result(path, b, errors):
    workload, trace = re.match(r"result-(.+)-([01])\.json$", path.name).groups()
    r = json.loads(path.read_text())
    want = b["per_layer"] if trace == "1" else b["end_to_end"]

    def need(ok, msg):
        if not ok:
            errors.append(f"{path.name}: {msg}")

    need(set(r) == {"correct", "attempted", "failed", "metrics"}, f"keys are {sorted(r)}")
    need(r.get("correct") is True, "not correct")
    need(isinstance(r.get("attempted"), int) and r["attempted"] >= 1, "attempted")
    need(isinstance(r.get("failed"), int) and r["failed"] >= 0, "failed")
    got = r.get("metrics", {})
    need(list(got) == [m["name"] for m in want], "metric names differ from BENCHMARK.json")
    for m in want:
        v = got.get(m["name"], {})
        need(v.get("unit") == m["unit"], f"unit of {m['name']}")
        need(isinstance(v.get("value"), (int, float)), f"value of {m['name']}")
        if trace == "0":
            need(v.get("value", 0) > 0, f"{m['name']} is not positive")
    need(workload in [w["name"] for w in b["workloads"]], "unknown workload")


def validate(binary, out_dir):
    errors = []
    b = benchmark_json()
    check_contract(b, errors)
    described = subprocess.run([binary, "--describe"], capture_output=True, text=True, check=True).stdout
    if described != (ROOT / "BENCHMARK.json").read_text():
        errors.append("BENCHMARK.json differs from `observatory --describe`")
    results = sorted(Path(out_dir).glob("result-*.json"))
    for path in results:
        check_result(path, b, errors)
    for e in errors:
        print("INVALID:", e)
    print(f"# validated BENCHMARK.json and {len(results)} result files: {'FAILED' if errors else 'ok'}")
    return 1 if errors else 0


def worse_by(metric, first, second):
    """Share of `first` by which `second` is worse (negative when better)."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def load_set(directory):
    return {
        p.name: json.loads(p.read_text())["metrics"]
        for p in sorted(Path(directory).glob("result-*-0.json"))
    }


def aa(dir1, dir2):
    b = benchmark_json()
    first, second = load_set(dir1), load_set(dir2)
    failed = first.keys() != second.keys() or not first
    for name in sorted(first.keys() & second.keys()):
        for m in b["end_to_end"]:
            v1, v2 = first[name][m["name"]]["value"], second[name][m["name"]]["value"]
            w = worse_by(m, v1, v2)
            verdict = "ok" if w <= m["bound"] else "WORSE THAN BOUND"
            failed |= w > m["bound"]
            print(f"{name:32} {m['name']:12} {v1:14.6g} {v2:14.6g} {w:+8.2%} (bound {m['bound']:.0%}) {verdict}")
    print("# A/A:", "FAILED" if failed else "ok")
    return 1 if failed else 0


def spread(binary, seconds, seeds):
    b = benchmark_json()
    failed = False
    for w in b["workloads"]:
        runs = []
        for seed in seeds:
            out = subprocess.run(
                [binary, "--workload", w["name"], "--seed", seed, "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, check=True,
            ).stdout
            runs.append(json.loads(out.strip().splitlines()[-1])["metrics"])
        for m in b["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / q2
            over = share > m["bound"] and m["name"] != "setup_s"
            failed |= over
            print(
                f"{w['name']:12} {m['name']:12} median {q2:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} "
                f"spread {share:7.2%} bound {m['bound']:.0%} n {len(values)}{' OVER' if over else ''}",
                flush=True,
            )
    return 1 if failed else 0


def main(argv):
    if len(argv) == 4 and argv[1] == "validate":
        return validate(argv[2], argv[3])
    if len(argv) == 4 and argv[1] == "aa":
        return aa(argv[2], argv[3])
    if len(argv) >= 5 and argv[1] == "spread":
        return spread(argv[2], argv[3], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
