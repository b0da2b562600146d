#!/usr/bin/env python3
"""Per-stage cost of the foodwatch CLI: wall time, CPU time, peak RSS and
the artifact directory's size.

Runs CLI stages one after another against one artifact directory, each in a
child process of its own, and prints one JSON line per stage. CPU time and
peak RSS come from ``os.wait4``; ``dir_mb`` is the total size of the files
in the artifact directory once the stage has exited. Arguments this script
does not know (``--seed``, ``--days``, ``--set key=value``, ``--config``) go
to every stage.

Each stage runs with one BLAS thread (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1), as the benchmark runs
it, so a stage's CPU time does not depend on how many threads the box has to
spare. The launcher imports neither foodwatch nor numpy, so its own resident
set stays small. On Linux a child's ``ru_maxrss`` includes the high-water
mark that it inherits through fork and exec, so a launcher that had touched
more memory than a stage would report its own mark as the stage's; the first
line printed is the launcher's own mark, which bounds that floor.

    python scripts/stage_costs.py --seed 0 --set sim.n_users=6000
    python scripts/stage_costs.py --out run --stages rank,inspect,evaluate
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STAGES = ("simulate", "train-wsm", "eval-wsm", "rank", "inspect", "evaluate", "report")
SRC = Path(__file__).resolve().parents[1] / "src"
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_stage(stage: str, out: str, stage_args: list[str]) -> dict:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "foodwatch.cli", stage, "--out", out, *stage_args],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {
        "stage": stage,
        "exit": child.returncode,
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # Linux reports kilobytes
        "dir_mb": round(dir_bytes(out) / 2**20, 1),
    }


def dir_bytes(path: str) -> int:
    """The total size of the files under ``path``; 0 if it does not exist."""
    return sum(os.path.getsize(os.path.join(top, name)) for top, _, names in os.walk(path) for name in names)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="artifact directory (default: a temporary one, removed after)")
    parser.add_argument("--stages", default=",".join(STAGES), help="comma-separated CLI stages, in order")
    args, stage_args = parser.parse_known_args()
    stages = args.stages.split(",")
    unknown = sorted(set(stages) - set(STAGES))
    if unknown:
        parser.error(f"unknown stages: {', '.join(unknown)}")

    with tempfile.TemporaryDirectory() as scratch:
        out = args.out or scratch
        launcher_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({"launcher_peak_rss_mb": round(launcher_mb, 1)}), flush=True)
        for stage in stages:
            cost = run_stage(stage, out, stage_args)
            print(json.dumps(cost), flush=True)
            if cost["exit"] != 0:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
