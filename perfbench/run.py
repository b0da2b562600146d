"""Run one foodwatch benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload full_run --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--trace 0`` times repetitions of the workload through the CLI and reports
the end-to-end metrics; ``--trace 1`` runs one traced in-process pass and
reports the per-layer metrics (see ``perfbench/tracing.py``). ``--workload
all`` runs every workload untraced and prefixes each metric with its
workload's name. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results, including the output checks, artifact hashes and
workload properties, are written to ``.perfbench/results/``.

Exit codes: 0 with a result line; 2 when the program's sources are missing
or a workload's set-up fails, without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import (  # noqa: E402
    SINGLE_THREAD_ENV,
    WORKLOADS,
    BenchError,
    check_program,
    timed_run,
    trace_run,
)

END_TO_END_UNITS = {
    "run_s": "s",
    "run_cpu_s": "s",
    "shortlist_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "setup_s": "s",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench.tracing import LAYER_METRICS

    work = ROOT / ".perfbench" / f"work-{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            result = trace_run(WORKLOADS[name], seed, work)
        else:
            result = timed_run(WORKLOADS[name], seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = LAYER_METRICS if trace else END_TO_END_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    result.update(workload=name, seed=seed, trace=int(trace))
    path = ROOT / ".perfbench" / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")
    return result


def print_summary(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  repetitions {result['attempted']}, failed {result['failed']}")
    for i, problems in enumerate(result["checks"]):
        print(f"  checks[{i}]: {'ok' if not problems else '; '.join(problems)}")
    for i, warnings in enumerate(result.get("warnings", [])):
        if warnings:
            print(f"  warnings[{i}]: {'; '.join(warnings)}")
    for key in ("properties", "sha256"):
        for name, value in result.get(key, {}).items():
            print(f"  {key}.{name} = {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD_ENV)  # before the traced pass imports numpy
    try:
        check_program()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        trace = bool(args.trace) and args.workload != "all"
        results = [run_workload(name, args.seed, args.seconds, trace) for name in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_summary(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
