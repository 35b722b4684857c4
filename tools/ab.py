#!/usr/bin/env python3
"""A/B pair runner: tools/ab.py PARENT CHANGE --workload W [--workload W2 ...] --pairs N --seed S [--seconds N] [--save DIR]

Exports each commit with `git archive` into a temporary directory (removed at
exit), builds its observatory with its own CARGO_TARGET_DIR and runs N pairs
per workload through that commit's `benchmark/run.sh` at its default length
(or `--seconds N`, passed through), alternating which side runs first; no file
of this checkout changes. Every run
must exit 0 with `correct` true and `failed` 0, and every run of both sides must
print the same `# sim_digest` / `# sequence_digest`; `# CHECK FAILED` lines are
echoed, and for fleet_idle each run's first and last `# snapshot decode_s`
repetition is printed (a decode that slows down over a run shows there). Per
end-to-end metric of BENCHMARK.json it prints both medians with
[q1, q3], the ratio change/parent, the pairs the change won, the bound and a
verdict ("unresolved" when the medians differ by no more than the parent's
q3 - q1), and it flags a side whose per-process `setup_s` splits into two
modes. --save DIR keeps each change-side run as DIR/pair-<i>/result-<W>-0.json
for `tools/bench_record.py append`. Exit 1 on a failed check or a metric worse
than its bound.
"""
import argparse, json, os, re, statistics, subprocess, sys, tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs):
    return statistics.quantiles(xs if len(xs) > 1 else xs * 2, n=4, method="inclusive")


def two_modes(xs):
    """The widest gap between sorted samples with two or more on each side,
    when it exceeds 10 % of the median and both sides' ranges together."""
    xs, best = sorted(xs), None
    for i in range(2, len(xs) - 1):
        gap = xs[i] - xs[i - 1]
        if gap > 0.10 * statistics.median(xs) and gap > xs[i - 1] - xs[0] + xs[-1] - xs[i]:
            if best is None or gap > best[0]:
                best = (gap, xs[:i], xs[i:])
    return best and best[1:]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    args = ap.parse_args()
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {}
        for side, commit in (("parent", args.parent), ("change", args.change)):
            src, env = os.path.join(tmp, side), dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, side + "-target"))
            os.makedirs(src)
            tar = subprocess.run(["git", "-C", ROOT, "archive", commit], check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", src], input=tar, check=True)
            if subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"], cwd=os.path.join(src, "benchmark"), env=env).returncode:
                sys.exit(f"ab: building {side} ({commit}) failed")
            sides[side] = (src, env)
        spec = json.load(open(os.path.join(sides["change"][0], "BENCHMARK.json")))
        for w in args.workload:
            print(f"== {w}: {args.parent} vs {args.change}, seed {args.seed}, {args.pairs} pairs")
            values, digests = {"parent": [], "change": []}, set()
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    src, env = sides[side]
                    length = ["--seconds", str(args.seconds)] if args.seconds else []
                    p = subprocess.run(["bash", "benchmark/run.sh", "--workload", w, "--seed", str(args.seed), "--trace", "0"] + length,
                                       cwd=src, env=env, capture_output=True, text=True)
                    for line in p.stdout.splitlines():
                        if line.startswith("# CHECK FAILED"):
                            print(f"  {side} pair {i + 1}: {line}")
                    decode = re.search(r"^# snapshot decode_s \[([^\]]*)\]", p.stdout, re.M)
                    if w == "fleet_idle" and decode:
                        ds = decode.group(1).split(", ")
                        print(f"  {side} pair {i + 1}: snapshot decode_s first {ds[0]} last {ds[-1]} of {len(ds)}")
                    digests.update(re.findall(r"^# (sim_digest|sequence_digest) ([0-9a-f]{16})", p.stdout, re.M))
                    try:
                        res = json.loads(p.stdout.strip().splitlines()[-1])
                    except (IndexError, json.JSONDecodeError):
                        res = {}
                    if p.returncode or res.get("correct") is not True or res.get("failed") != 0:
                        ok = False
                        print(f"  {side} pair {i + 1}: FAILED run: exit {p.returncode}, correct {res.get('correct')}, "
                              f"failed {res.get('failed')} of {res.get('attempted')} {p.stderr.strip()[-200:]}")
                    values[side].append({m: v["value"] for m, v in res.get("metrics", {}).items()})
                    if args.save and side == "change":
                        os.makedirs(os.path.join(args.save, f"pair-{i + 1}"), exist_ok=True)
                        open(os.path.join(args.save, f"pair-{i + 1}", f"result-{w}-0.json"), "w").write(p.stdout)
                print(f"  pair {i + 1} ({order[0]} first): " + "  ".join(
                    f"{s} " + " ".join(f"{m} {values[s][-1].get(m, 0):.4g}" for m in ("work_per_s", "latency_ms", "setup_s"))
                    for s in sides))
            for kind in sorted({k for k, _ in digests}):
                ds = sorted(d for k, d in digests if k == kind)
                ok &= len(ds) == 1
                print(f"  {kind} {', '.join(ds)}" + (" (every run)" if len(ds) == 1 else "  DIGESTS DISAGREE"))
            pairs = [(p, c) for p, c in zip(values["parent"], values["change"]) if p and c]
            if not pairs:
                continue
            print(f"  {'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}  ratio  wins  bound  verdict")
            for m in spec["end_to_end"]:
                name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
                (pq1, pm, pq3), (cq1, cm, cq3) = (quartiles([v[k][name] for v in pairs]) for k in (0, 1))
                wins = sum((c[name] > p[name]) == higher and c[name] != p[name] for p, c in pairs)
                if (cm < pm * (1 - bound)) if higher else (cm > pm * (1 + bound)):
                    verdict, ok = "WORSE BEYOND BOUND", False
                else:
                    verdict = "unresolved" if abs(cm - pm) <= pq3 - pq1 else ("better" if (cm > pm) == higher else "worse")
                print(f"  {name:<12} {pm:>12.5g} [{pq1:.5g}, {pq3:.5g}] {cm:>12.5g} [{cq1:.5g}, {cq3:.5g}]  "
                      f"{cm / pm:.3f} {wins:>2}/{len(pairs):<2} {bound:>5}  {verdict}")
            for side in sides:
                modes = two_modes([v["setup_s"] for v in values[side] if v])
                if modes:
                    print(f"  setup_s on {side} has two modes: " + ", ".join(f"{len(g)} runs at {min(g):.4g}-{max(g):.4g} s" for g in modes))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
