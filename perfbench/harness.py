"""Workloads, timed repetitions, output checks and the traced pass.

Every timed repetition runs the ``foodwatch`` CLI, one process at a time, in
fresh processes against a fresh output directory, so no state carries over.
Each process is reaped with ``os.wait4``, which gives its own CPU time and
peak RSS rather than a sum over all children.

The three workloads each let a likely optimisation show in one workload and
not in another:

* ``full_run`` -- ``foodwatch run`` at the default config, the command users
  time. ``features`` and ``wsm`` dominate (scoring and training), and about
  82% of query events repeat the feature-relevant content of an earlier one.
* ``daily_rank_long`` -- the operator's daily job on a 56-day horizon and a
  400+400 restaurant registry. Set-up runs ``simulate`` and ``train-wsm``;
  each repetition times ``rank``, ``inspect`` and ``evaluate`` on a copy.
  ``compute_daily_lists`` rescans every visit each day (days x visits) and
  release builds one RNG per restaurant-day, so ``pipeline``, ``locmodel``,
  ``privacy`` and ``logdata`` (a dataset reload per stage) take about as
  much time as scoring (``features`` and ``wsm``), and more once the release
  RNGs (``seeding``) count; ``features`` is still the largest single layer.
  The daily job runs neither ``eval-wsm`` nor ``report``. At this config
  ``eval-wsm`` exits 2 ("high-recall stratum too small: need 100 distinct
  texts, have 19"): training consumes the synthetic city's fixed positive
  vocabulary.
* ``long_tail`` -- the default city with query repetition removed by
  :mod:`perfbench.longtail`, timed stage by stage from ``train-wsm`` to
  ``report``. Key reuse is 0 by construction and string reuse falls, so
  memoising whole events can only help ``full_run`` while memoising strings
  helps both; it also exercises the write-once, read-many dataset and model
  files.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALL_TIMEOUT_S = 170.0
AUC_FLOOR = 0.80  # the README's acceptance floors for the rater evaluation
F1_FLOOR = 0.65
MIB = 1024 * 1024
# Timed repetitions per run, at least: two, so outputs can be compared. One
# repetition takes 10-17 s, so more would push a full pass of the benchmark
# (70 runs) towards an hour.
MIN_REPETITIONS = 2


@functools.cache
def stage_artifacts() -> dict[str, tuple[str, ...]]:
    """The files each CLI stage must leave in its output directory, named by
    the program's own file-name constants."""
    from foodwatch import pipeline as p
    from foodwatch import report as r

    dataset = p.DatasetPaths.in_dir(p.dataset_dir(Path()))
    private = p.private_dir(Path())
    artifacts = {
        "simulate": tuple(str(path) for path in vars(dataset).values())
        + (str(private / p.WORLD_FILE), str(private / p.GROUND_TRUTH_FILE), p.VALIDATION_FILE),
        "train-wsm": (p.MODEL_FILE,),
        "eval-wsm": (r.METRICS_CSV,),
        "rank": (p.SCORED_CSV, p.LINKS_CSV, r.RELEASED_CSV, r.DAILY_LISTS_CSV),
        "inspect": (p.FINDER_INSPECTIONS_CSV, p.ALL_INSPECTIONS_CSV),
        "evaluate": (r.PRECISION_CSV, r.RISK_DISTRIBUTION_CSV, r.VIOLATIONS_CSV, r.ATTRIBUTION_CSV),
        "report": (p.REPORT_TXT,),
    }
    artifacts["run"] = tuple(a for stage in artifacts.values() for a in stage) + (p.MANIFEST,)
    return artifacts


def compared_outputs() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The outputs whose sha256 the results record, and those of them that
    must be byte-identical across the repetitions of one seed."""
    from foodwatch import pipeline as p
    from foodwatch import report as r

    same = (r.DAILY_LISTS_CSV, r.RELEASED_CSV, r.METRICS_CSV)
    return same + (p.MODEL_FILE,), same


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: tuple[str, ...]  # --set key=value, on top of --seed
    setup: tuple[str, ...]  # CLI stages that prepare the directory each repetition copies
    timed: tuple[str, ...]  # CLI stages of one timed repetition
    setup_repeats: int  # set-ups per run; setup_s is their median
    long_tail: bool = False

    @property
    def shortlist_stage(self) -> str:
        return "run" if "run" in self.timed else "rank"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="full_run",
            why="foodwatch run at the default config, the command users time; features and wsm "
            "dominate and 82% of query events repeat an earlier event's content",
            overrides=(),
            setup=(),
            timed=("run",),
            setup_repeats=5,
        ),
        Workload(
            name="daily_rank_long",
            why="daily rank, inspect, evaluate over 56 days and 800 restaurants: daily lists, "
            "release and reloads about tie with scoring; eval-wsm exits 2 here (19 of 100 texts)",
            overrides=("days=56", "sim.cities=A:400,B:400", "sim.background_queries_per_day=0.3"),
            setup=("simulate", "train-wsm"),
            timed=("rank", "inspect", "evaluate"),
            setup_repeats=1,  # one set-up (simulate + train-wsm) costs about 10 s
        ),
        Workload(
            name="long_tail",
            why="default city with one unique token per query event, so no event repeats: train "
            "to report stage by stage with key reuse 0 and lower string reuse",
            overrides=(),
            setup=("simulate",),
            timed=("train-wsm", "eval-wsm", "rank", "inspect", "evaluate", "report"),
            setup_repeats=4,
            long_tail=True,
        ),
    )
}


# --- processes -------------------------------------------------------------------


@dataclass
class Call:
    stage: str
    returncode: int
    launched: float  # time.time() just before the process started
    start: float  # perf_counter
    end: float
    cpu_s: float
    rss_mb: float
    message: str = ""


def check_program() -> None:
    """Refuse to run without the program's sources in this checkout."""
    if not (SRC / "foodwatch" / "cli.py").is_file():
        raise BenchError(f"no foodwatch sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import foodwatch

    if Path(foodwatch.__file__).resolve().parent != (SRC / "foodwatch").resolve():
        raise BenchError(f"foodwatch imported from {foodwatch.__file__}, not from {SRC}")


# The pipeline is single-threaded by design, but numpy's bundled OpenBLAS
# starts helper threads for vector operations such as the per-batch dot
# product in training. On a shared 2-core box those threads make one
# ``train-wsm`` take anywhere from 2.4 to 4.2 s, against 3.65 to 3.93 s with one
# thread, so the benchmark runs the program, and its own traced pass, with
# one BLAS thread. A change that wants BLAS threads has to change this setting
# in a benchmark change of its own.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def cli_args(workload: Workload, stage: str, seed: int, out: Path, extra=()) -> list[str]:
    args = [stage, "--out", str(out), "--seed", str(seed)]
    for kv in workload.overrides + tuple(extra):
        args += ["--set", kv]
    return args


def run_cli(args: list[str], log_path: Path) -> Call:
    """Run ``foodwatch <args>`` in a fresh interpreter and reap it."""
    cmd = [sys.executable, "-m", "foodwatch.cli", *args]
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "wb") as log:
        launched = time.time()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    message = ""
    if proc.returncode != 0:
        message = log_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
    return Call(
        stage=args[0],
        returncode=proc.returncode,
        launched=launched,
        start=start,
        end=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / MIB,  # ru_maxrss is in KiB on Linux
        message=message,
    )


# --- outputs ---------------------------------------------------------------------


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def quality_floors_judged(workload: Workload, seed: int) -> bool:
    """Whether a classifier-floor miss fails the repetition.

    The README states the floors for the default run (default config, seed
    0), where ``tests/test_acceptance.py`` checks them, and ``long_tail`` met
    them at seeds 0-9 when this benchmark was defined, so both are judged. At
    other ``full_run`` seeds the 200-query rater evaluation can land below
    the F1 floor (seeds 6, 7 and 8 of 0-9 then), so a miss there is recorded
    as a warning and does not fail the repetition.
    """
    from foodwatch.config import RunConfig

    return workload.long_tail or run_config(workload, seed) == RunConfig()


def wsm_quality(out: Path) -> dict[str, float]:
    from foodwatch.report import METRICS_CSV

    return {
        row[0]: float(row[1])
        for row in _csv_rows(out / METRICS_CSV)
        if row[0] in ("roc_auc", "f1")
    }


def floor_misses(out: Path) -> list[str]:
    """The README's classifier floors that the run in ``out`` missed."""
    quality = wsm_quality(out)
    misses = []
    if quality.get("roc_auc", 0.0) < AUC_FLOOR:
        misses.append(f"AUC {quality.get('roc_auc')} below {AUC_FLOOR}")
    if quality.get("f1", 0.0) < F1_FLOOR:
        misses.append(f"F1 {quality.get('f1')} below {F1_FLOOR}")
    return misses


def check_outputs(workload: Workload, seed: int, out: Path, stages) -> tuple[list[str], list[str]]:
    """Problems with the artifacts the given stages must leave in ``out``,
    and warnings: classifier-floor misses where the floors are not judged."""
    from foodwatch.pipeline import MANIFEST

    problems = []
    for stage in stages:
        for rel in stage_artifacts()[stage]:
            path = out / rel
            if not path.is_file() or path.stat().st_size == 0:
                problems.append(f"{rel} missing or empty")
    if "run" in stages and (out / MANIFEST).is_file():
        listed = json.loads((out / MANIFEST).read_text(encoding="utf-8"))["files"]
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file() and p.name != MANIFEST}
        if set(listed) != on_disk:
            problems.append(f"{MANIFEST} does not list exactly the files written")
        problems += [
            f"manifest hash of {rel} is stale"
            for rel in listed
            if (out / rel).is_file() and sha256(out / rel) != listed[rel]
        ]
    warnings = []
    if "eval-wsm" in stages or "run" in stages:
        if quality_floors_judged(workload, seed):
            problems += floor_misses(out)
        else:
            warnings += floor_misses(out)
    return problems, warnings


def _csv_rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


# --- repetitions -------------------------------------------------------------------


@dataclass
class Repetition:
    ok: bool
    problems: list[str]
    run_s: float = 0.0
    run_cpu_s: float = 0.0
    shortlist_s: float = 0.0
    peak_rss_mb: float = 0.0
    artifact_mb: float = 0.0
    hashes: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def run_repetition(workload: Workload, seed: int, prepared: Path | None, out: Path, extra=()) -> Repetition:
    """One timed pass over the workload's stages, in a fresh directory."""
    if prepared is not None:
        shutil.copytree(prepared, out)
    else:
        out.mkdir(parents=True)
    before = dir_bytes(out)
    calls = []
    for stage in workload.timed:
        call = run_cli(cli_args(workload, stage, seed, out, extra), out.parent / f"{out.name}.{stage}.log")
        calls.append(call)
        if call.returncode != 0:
            return Repetition(False, [f"{stage} exited {call.returncode}: {call.message}"])
    problems, warnings = check_outputs(workload, seed, out, workload.timed)
    hashed, _ = compared_outputs()
    rep = Repetition(
        ok=not problems,
        problems=problems,
        run_s=calls[-1].end - calls[0].start,
        run_cpu_s=sum(c.cpu_s for c in calls),
        peak_rss_mb=max(c.rss_mb for c in calls),
        artifact_mb=(dir_bytes(out) - before) / MIB,
        hashes={n: sha256(out / n) for n in hashed if (out / n).is_file()},
        warnings=warnings,
    )
    shortlist = next(c for c in calls if c.stage == workload.shortlist_stage)
    if workload.shortlist_stage == "run":  # the file's mtime against the launch time
        from foodwatch.report import DAILY_LISTS_CSV

        daily = out / DAILY_LISTS_CSV
        rep.shortlist_s = daily.stat().st_mtime - shortlist.launched if daily.is_file() else 0.0
    else:
        rep.shortlist_s = shortlist.end - calls[0].start
    return rep


def prepare(workload: Workload, seed: int, out: Path) -> float:
    """Run the workload's set-up stages into ``out``; returns their wall time."""
    if not workload.setup:  # interpreter start, package import and config load
        call = run_cli(["config-keys"], out.parent / f"{out.name}.log")
        if call.returncode != 0:
            raise BenchError(f"config-keys exited {call.returncode}: {call.message}")
        return call.end - call.start
    out.mkdir(parents=True)
    wall = 0.0
    for stage in workload.setup:
        call = run_cli(cli_args(workload, stage, seed, out), out.parent / f"{out.name}.{stage}.log")
        if call.returncode != 0:
            raise BenchError(f"set-up {stage} exited {call.returncode}: {call.message}")
        wall += call.end - call.start
    return wall


# --- workload properties -----------------------------------------------------------


def run_config(workload: Workload, seed: int):
    from foodwatch.config import RunConfig, apply_overrides

    return apply_overrides(RunConfig(), [f"seed={seed}", *workload.overrides])


def workload_properties(workload: Workload, seed: int, dataset: Path, released: Path, tokens: int) -> dict:
    """Input properties of one workload and seed: the dataset directory and
    the released aggregates of one repetition."""
    from foodwatch.logdata import load_queries

    from perfbench.tracing import feature_key, feature_reuse

    queries = load_queries(dataset / "queries.jsonl")
    reuse = feature_reuse({0: Counter(feature_key(event) for event in queries)})
    with open(dataset / "visits.csv", encoding="utf-8") as fh:
        visits = sum(1 for _ in fh) - 1
    return {
        "queries": len(queries),
        "visits": visits,
        "restaurant_days": len(_csv_rows(released)),
        "days": run_config(workload, seed).days,
        "features.key_reuse": reuse["features.key_reuse"],
        "features.distinct_keys": reuse["features.distinct_keys"],
        "features.string_reuse": reuse["features.string_reuse"],
        "features.strings_hashed": reuse["features.strings_hashed"],
        "features.distinct_strings": reuse["features.distinct_strings"],
        "long_tail_tokens": tokens,
    }


# --- whole runs ----------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def warm_up(work: Path) -> None:
    """One untimed CLI start, so byte-compiling the package in a fresh
    checkout is not charged to the first timed process."""
    call = run_cli(["config-keys"], work / "warm-up.log")
    if call.returncode != 0:
        raise BenchError(f"config-keys exited {call.returncode}: {call.message}")


def timed_run(workload: Workload, seed: int, seconds: float, work: Path, extra=()) -> dict:
    """Set-up timings, then repetitions for at least ``seconds`` seconds and
    at least ``MIN_REPETITIONS`` repetitions."""
    warm_up(work)
    setups = []
    for i in range(workload.setup_repeats):
        setups.append(prepare(workload, seed, work / f"setup{i}"))
        if i and workload.setup:
            shutil.rmtree(work / f"setup{i}")
    prepared = work / "setup0" if workload.setup else None
    tokens = 0
    if workload.long_tail:  # the benchmark's own rewrite, outside setup_s
        from perfbench.longtail import rewrite_queries

        tokens = rewrite_queries(prepared / "dataset" / "queries.jsonl", seed)

    _, same = compared_outputs()
    reps: list[Repetition] = []
    began = time.perf_counter()
    while len(reps) < MIN_REPETITIONS or time.perf_counter() - began < seconds:
        rep = run_repetition(workload, seed, prepared, work / f"rep{len(reps)}", extra)
        if rep.ok and reps and reps[0].ok:
            for name in same:
                if rep.hashes.get(name) != reps[0].hashes.get(name):
                    rep.ok = False
                    rep.problems.append(f"{name} differs from the first repetition")
        reps.append(rep)

    from foodwatch.report import RELEASED_CSV

    good = [r for r in reps if r.ok]
    hashes = dict(good[0].hashes) if good else {}
    props = {}
    if good:
        first = work / f"rep{reps.index(good[0])}"
        dataset = (prepared if prepared is not None else first) / "dataset"
        props = workload_properties(workload, seed, dataset, first / RELEASED_CSV, tokens)
        props.update(wsm_quality(first))
    return {
        "metrics": {
            "run_s": _median([r.run_s for r in good]),
            "run_cpu_s": _median([r.run_cpu_s for r in good]),
            "shortlist_s": _median([r.shortlist_s for r in good]),
            "peak_rss_mb": _median([r.peak_rss_mb for r in good]),
            "artifact_mb": _median([r.artifact_mb for r in good]),
            "setup_s": _median(setups),
        },
        "attempted": len(reps),
        "failed": len(reps) - len(good),
        "failed_frac": (len(reps) - len(good)) / len(reps),
        "checks": [r.problems for r in reps],
        "warnings": [r.warnings for r in reps],
        "setup_runs_s": setups,
        "repetitions_s": [r.run_s for r in reps],
        "sha256": hashes,
        "properties": props,
    }


def traced_pass(workload: Workload, seed: int, work: Path, tracer) -> tuple[Path | None, int]:
    """Run the workload's set-up and timed stages in-process, through
    ``foodwatch.cli.main`` as the timed repetitions do, under ``tracer``.

    Returns the prepared directory (``None`` for ``full_run``) and the span id
    where the timed stages begin. A stage that exits non-zero raises
    :class:`BenchError`.
    """
    from foodwatch import cli

    def stage(name: str, out: Path) -> None:
        with open(work / f"trace.{name}.log", "a", encoding="utf-8") as log:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.main(cli_args(workload, name, seed, out))
        if code != 0:
            raise BenchError(f"traced {name} exited {code}")

    prepared = None
    with tracer.instrument():
        if workload.setup:
            prepared = work / "trace-setup"
            prepared.mkdir(parents=True)
            for name in workload.setup:
                stage(name, prepared)
        if workload.long_tail:
            from perfbench.longtail import rewrite_queries

            rewrite_queries(prepared / "dataset" / "queries.jsonl", seed)
        out = work / "trace-out"
        if prepared is not None:
            shutil.copytree(prepared, out)
        timed_first = len(tracer.names)
        for name in workload.timed:
            stage(name, out)
    return prepared, timed_first


def trace_run(workload: Workload, seed: int, work: Path) -> dict:
    """One traced in-process pass plus one untraced repetition for the
    overhead, with the traced outputs checked against the untraced ones."""
    from perfbench.tracing import Tracer, layer_metrics

    warm_up(work)
    run_id = f"{workload.name}-seed{seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    try:
        prepared, timed_first = traced_pass(workload, seed, work, tracer)
    except BenchError as exc:
        return {"metrics": {}, "attempted": 1, "failed": 1, "checks": [[str(exc)]]}
    trace_path = ROOT / ".perfbench" / "traces" / f"{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_path)
    metrics = layer_metrics(tracer, timed_first)

    traced = work / "trace-out"
    problems, warnings = check_outputs(workload, seed, traced, workload.timed)
    rep = run_repetition(workload, seed, prepared, work / "rep0")
    _, same = compared_outputs()
    for name in same:
        if rep.ok and (traced / name).is_file() and rep.hashes.get(name) != sha256(traced / name):
            problems.append(f"traced {name} differs from the untraced one")
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - rep.run_s
    return {
        "metrics": metrics,
        "attempted": 2,
        "failed": int(bool(problems)) + int(not rep.ok),
        "checks": [problems, rep.problems],
        "warnings": [warnings, rep.warnings],
        "untraced_run_s": rep.run_s,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
