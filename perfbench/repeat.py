#!/usr/bin/env python3
"""Steadiness evidence for the benchmark: run independent sets of every
workload and compare them against BENCHMARK.json's bounds.

Run from the repository root:

    python3 perfbench/repeat.py                      # 2 sets x 10 runs x every workload
    python3 perfbench/repeat.py --sets 1 --runs 5 --workloads wide_sparse
    python3 perfbench/repeat.py --sets 1 --runs 8 --workloads hfast_dense --same-seed

Each run is one `perfbench/run.py --trace 0` process with its own seed; the
sets use disjoint seeds and the workloads take turns within a set. With
--same-seed every run uses --seed-base. For every workload and end-to-end
metric it prints each set's median, quartiles and
spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles), the metric's bound,
and how far the last set's median moved from the first's. A spread above
the bound, or a median that worsened by more than the bound, is marked FAIL
and makes the exit code 1; a spread above a third of the bound is marked
WIDE. Raw results go to .bench_build/perfbench-work/repeat-<time>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--same-seed", action="store_true")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    raw = {w: [[] for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed_base + (0 if args.same_seed else 1000 * s + i)
                record, result = run_once(w, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{w} seed {seed}: incorrect result {result}")
                raw[w][s].append({"seed": seed, "result": result, "record": record})
                m = result["metrics"]
                print(f"set {s} run {i} {w:17s} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items())
                      + f" steal={record['steal_pct']:.2f}%", file=sys.stderr, flush=True)

    out = ROOT / ".bench_build" / "perfbench-work" / f"repeat-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))

    ok = True
    print(f"{'workload':17s} {'metric':13s} {'set':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s} {'drift':>7s}  verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for s in range(args.sets):
                values = [r["result"]["metrics"][name]["value"] for r in raw[w][s]]
                med, q1, q3, sp = spread(values)
                first_median = med if first_median is None else first_median
                worse = med - first_median if metric["better"] == "lower" else first_median - med
                drift = worse / first_median
                verdict = "ok"
                if sp > bound or drift > bound:
                    verdict, ok = "FAIL", False
                elif sp > bound / 3:
                    verdict = "WIDE"
                print(f"{w:17s} {name:13s} {s:3d} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{sp:7.3f} {bound:6.2f} {drift:+7.3f}  {verdict}")
    print(f"raw results: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
