#!/usr/bin/env python3
"""Self-test of the benchmark, in seconds. Run from the repository root:

    python3 perfbench/smoke_test.py

Checks that run.py and pipeline_bench reject an unknown workload, a
malformed seed and a stray argument with a non-zero exit and a message
naming it, and that every workload's cells (dense_sharded's too) pass their exactness checks
(sharded == serial, warm cache hits == cold misses, pinned digests) at the
reduced --smoke size, untraced and traced, with exactly BENCHMARK.json's
metrics. Exits 1 on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the build lives there)

# Workloads pipeline_bench runs that BENCHMARK.json leaves out (README.md
# says why); their cells are checked here all the same.
DIAGNOSTIC = ("dense_sharded",)


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def expect_rejected(cmd, needle):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode == 0 or needle not in proc.stderr or proc.stdout.strip():
        fail(f"{cmd[1:]} exited {proc.returncode}, stderr {proc.stderr!r}")
    message = next(line for line in proc.stderr.splitlines() if needle in line)
    print(f"ok   rejects {needle}: {message}")


def main():
    run.build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runpy = [sys.executable, str(BENCH_DIR / "run.py")]
    binary = [str(run.BINARY)]
    for front in (runpy, binary):
        expect_rejected(front + ["--workload", "no_such_load", "--seed", "1"], "'no_such_load'")
        expect_rejected(front + ["--workload", "hfast_dense", "--seed", "12x"], "'12x'")
        expect_rejected(front + ["--workload", "hfast_dense", "--seed", "-3"], "'-3'")
        expect_rejected(front + ["--workload", "hfast_dense", "--seed", "1", "stray"], "'stray'")
        expect_rejected(front + ["--workload", "hfast_dense", "--seed", "1", "--trace", "2"],
                        "--trace '2'")

    for w in [w["name"] for w in spec["workloads"]] + list(DIAGNOSTIC):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run(runpy + ["--workload", w, "--seed", "1", "--smoke",
                                           "--trace", trace],
                                  cwd=ROOT, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                fail(f"{w} --smoke --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{w} --smoke --trace {trace}: {result}\n{proc.stderr}")
            want = {m["name"] for m in spec[kind]}
            if set(result["metrics"]) != want:
                fail(f"{w} --trace {trace}: metrics {sorted(result['metrics'])}")
            print(f"ok   {w} --smoke --trace {trace}: {result['attempted']} cells exact")
    print("PASS")


if __name__ == "__main__":
    main()
