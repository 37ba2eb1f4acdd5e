#!/usr/bin/env python3
"""Benchmark of record for the trace -> provision -> lower -> replay pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload hfast_dense --seed 1 --seconds 15 --trace 0

Builds perfbench/ (and the hfast library from src/) into
.bench_build/perfbench on first use, then runs one pipeline_bench process
with the arguments given, after these defaults: --seconds from
BENCHMARK.json's run_seconds, the pinned digests, the work directory
.bench_build/perfbench-work and the source id. pipeline_bench checks the
arguments and prints two JSON lines on stdout: the run's record (noise
diagnostics, per-cell digests) and, last, the result {"correct",
"attempted", "failed", "metrics"}. Build output goes to stderr. Exits
non-zero without a result when the sources are missing, the build fails,
the arguments are malformed or the run fails.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
BINARY = BUILD_DIR / "pipeline_bench"
# The pipeline_bench process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def build():
    """Configure once, then build incrementally. Build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"hfast sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "pipeline_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))


def main(argv):
    try:
        run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        build()
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        # Later flags override earlier ones, so the caller's arguments win.
        cmd = [str(BINARY), "--seconds", str(run_seconds),
               "--digests", str(BENCH_DIR / "digests.txt"),
               "--work-dir", str(WORK_DIR), "--commit", source_id(), *argv]
        # subprocess.run kills the child and waits for it on a timeout.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"perfbench/run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
