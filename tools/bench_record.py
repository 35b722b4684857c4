#!/usr/bin/env python3
"""BENCH_observatory.jsonl, the committed trajectory of benchmark/ results.

append PR DIR...  fold each DIR's result-<workload>-0.json (run.sh's result line, or a
                  run's whole stdout) into one new line, measured on `git rev-parse HEAD`
check             every line names exactly BENCHMARK.json's workloads and end-to-end
                  metrics as q1 <= median <= q3, `pr` strictly increases line to line,
                  and the last line's base is an ancestor of HEAD
"""
import json, os, re, statistics, subprocess, sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "BENCH_observatory.jsonl")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = sorted(w["name"] for w in SPEC["workloads"])
METRICS = sorted(m["name"] for m in SPEC["end_to_end"])

def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)

def quartiles(xs):
    return [float(f"{q:.6g}") for q in statistics.quantiles(xs if len(xs) > 1 else xs * 2, n=4, method="inclusive")]

def append(pr, dirs):
    # A run's stdout header carries its settings; run.sh's one-line files ran on the defaults.
    line = {"pr": int(pr), "base": git("rev-parse", "HEAD").stdout.strip(), "host_parallelism": os.cpu_count(),
            "seconds": SPEC["run_seconds"], "seed": 42, "runs": len(dirs), "workloads": {}}
    for w in WORKLOADS:
        texts = [open(os.path.join(d, f"result-{w}-0.json")).read().strip() for d in dirs]
        results = [json.loads(t.splitlines()[-1]) for t in texts]
        assert all(r["correct"] and r["failed"] == 0 for r in results), f"{w}: a run failed"
        digests = set(re.findall(r"^# sim_digest ([0-9a-f]{16})", "\n".join(texts), re.M))
        assert len(digests) <= 1, f"{w}: runs disagree on sim_digest: {sorted(digests)}"
        header = re.search(r"^# workload \S+ seed (\d+) seconds (\d+) trace \d+ host_parallelism (\d+)", texts[0], re.M)
        if header:
            line.update(zip(("seed", "seconds", "host_parallelism"), map(int, header.groups())))
        line["workloads"][w] = {m: quartiles([r["metrics"][m]["value"] for r in results]) for m in METRICS}
        if digests:
            line["workloads"][w]["sim_digest"] = digests.pop()
    open(RECORD, "a").write(json.dumps(line) + "\n")

def check():
    lines = [json.loads(l) for l in open(RECORD) if l.strip()]
    assert lines, "BENCH_observatory.jsonl is empty"
    for prev, l in zip([None] + lines, lines):
        assert prev is None or l["pr"] > prev["pr"], f"PR {l['pr']} follows PR {prev['pr']}: want strictly increasing"
        assert sorted(l["workloads"]) == WORKLOADS, f"PR {l['pr']}: workloads differ from BENCHMARK.json"
        for w, ms in l["workloads"].items():
            assert sorted(set(ms) - {"sim_digest"}) == METRICS, f"PR {l['pr']} {w}: metrics differ from BENCHMARK.json"
            assert all(len(ms[m]) == 3 for m in METRICS), f"PR {l['pr']} {w}: want [q1, median, q3]"
            for m in METRICS:
                assert ms[m][0] <= ms[m][1] <= ms[m][2], f"PR {l['pr']} {w} {m}: {ms[m]} is not q1 <= median <= q3"
    base = lines[-1]["base"]
    assert git("merge-base", "--is-ancestor", base, "HEAD").returncode == 0, f"{base} is not an ancestor of HEAD"
    print(f"BENCH_observatory.jsonl: {len(lines)} line(s) ok; PR {lines[-1]['pr']} measured on {base[:7]}")

if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "append":
        append(sys.argv[2], sys.argv[3:])
    elif sys.argv[1:] == ["check"]:
        check()
    else:
        sys.exit(__doc__)
