"""Run the benchmark over several seeds and record medians and spreads.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 0-9 --commit <sha> --out baseline.json

Each (workload, seed) of every workload is one ``perfbench/run.py``
process, run one after another for ``run_seconds`` from ``BENCHMARK.json``.
For every end-to-end metric the record holds the ten values, their median
and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. With
``--trace-seeds`` it also runs traced passes and records their per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds, trace_seeds = parse_seeds(args.seeds), parse_seeds(args.trace_seeds)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    record = {"commit": args.commit, "seeds": seeds, "trace_seeds": trace_seeds,
              "seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        entry = {"why": WORKLOADS[name].why, "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["metrics"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"],
                "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else 0.0,
                "values": values,
            }
            print(f"{name:16s} {metric:14s} median {statistics.median(values):10.4f} "
                  f"spread {entry['metrics'][metric]['spread']:.4f}", flush=True)
        if trace_seeds:
            entry["traces"] = {
                str(seed): {k: m["value"] for k, m in run_once(name, seed, seconds, 1)["metrics"].items()}
                for seed in trace_seeds
            }
        record["workloads"][name] = entry
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
