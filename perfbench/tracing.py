"""Layer tracing for the foodwatch benchmark, from outside the program.

A :class:`Tracer` replaces each layer's public entry points at the names
their callers imported (``foodwatch.pipeline.aggregate_restaurants``,
``foodwatch.wsm.featurize``, ``foodwatch.citysim.make_rng``, ...) with a
wrapper that records one span per call: name, start, end and parent span.
Spans stay in memory in flat lists and are written out once, when the pass
ends. Counts are taken at the same boundaries, from each call's arguments
and result; the bookkeeping runs inside a ``bench.count`` span, so its cost
shows as the ``bench`` layer instead of inflating the caller's self time.

A span's layer is its name up to the first dot. Self time is a span's
duration minus the part of it that its child spans cover, so the layer self
times of a set of root spans add up to the roots' summed duration.

``features.bucket`` is deliberately not wrapped (about a million calls per
run): string counts are derived afterwards from the distinct inputs that
``featurize`` saw.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = (
    "citysim",
    "seeding",
    "logdata",
    "features",
    "wsm",
    "locmodel",
    "privacy",
    "pipeline",
    "raters",
    "stats",
    "report",
)

# The metrics a traced pass reports, with their units. Times ending in ``_s``
# are self times, except ``pipeline.stage.*`` and ``trace.*``, which are
# durations (see ``layer_metrics`` for what each covers).
STAGES = ("simulate", "train", "eval_wsm", "rank", "inspect", "evaluate", "report")
LAYER_METRICS: dict[str, str] = {
    "citysim.simulate_s": "s",
    "citysim.generate_world_s": "s",
    "citysim.user_days": "count",
    "citysim.visits": "count",
    "citysim.queries": "count",
    "citysim.inspections": "count",
    "seeding.make_rng_calls": "count",
    "seeding.make_rng_s": "s",
    "logdata.load_calls": "count",
    "logdata.load_s": "s",
    "logdata.bytes_read": "bytes",
    "logdata.write_s": "s",
    "logdata.bytes_written": "bytes",
    "features.featurize_calls": "count",
    "features.featurize_s": "s",
    "features.distinct_keys": "count",
    "features.strings_hashed": "count",
    "features.distinct_strings": "count",
    "features.key_reuse": "ratio",
    "features.string_reuse": "ratio",
    "wsm.weak_label_s": "s",
    "wsm.train_s": "s",
    "wsm.train_examples": "count",
    "wsm.train_updates": "count",
    "wsm.score_calls": "count",
    "wsm.score_s": "s",
    "wsm.eval_s": "s",
    "wsm.model_io_s": "s",
    "wsm.model_bytes": "bytes",
    "locmodel.link_s": "s",
    "locmodel.links": "count",
    "locmodel.affected_users": "count",
    "locmodel.aggregate_calls": "count",
    "locmodel.aggregate_s": "s",
    "locmodel.visits_scanned": "count",
    "locmodel.rank_s": "s",
    "locmodel.attribute_s": "s",
    "privacy.anonymize_s": "s",
    "privacy.cap_s": "s",
    "privacy.release_calls": "count",
    "privacy.release_cells": "count",
    "privacy.suppressed_cells": "count",
    "privacy.release_s": "s",
    **{f"pipeline.stage.{stage}_s": "s" for stage in STAGES},
    "pipeline.daily_lists_s": "s",
    "pipeline.days_listed": "count",
    "pipeline.shortlisted": "count",
    "pipeline.manifest_s": "s",
    "raters.units": "count",
    "raters.majority_s": "s",
    "raters.alpha_s": "s",
    "stats.logit_fits": "count",
    "stats.irls_iterations": "count",
    "stats.logit_s": "s",
    "stats.linear_s": "s",
    "stats.chi2_s": "s",
    "report.csv_rows_written": "count",
    "report.write_csv_s": "s",
    "report.read_csv_s": "s",
    "report.render_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("bench",)},
    "trace.spans": "count",
    "trace.total_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

# metric name -> span names whose self times it sums
SELF_TIME_METRICS = {
    "citysim.simulate_s": ("citysim.simulate",),
    "citysim.generate_world_s": ("citysim.generate_world",),
    "seeding.make_rng_s": ("seeding.make_rng",),
    "logdata.load_s": ("logdata.load",),
    "logdata.write_s": ("logdata.write",),
    "features.featurize_s": ("features.featurize",),
    "wsm.weak_label_s": ("wsm.weak_label",),
    "wsm.train_s": ("wsm.train",),
    "wsm.score_s": ("wsm.score",),
    "wsm.eval_s": ("wsm.eval",),
    "wsm.model_io_s": ("wsm.model_io",),
    "locmodel.link_s": ("locmodel.link",),
    "locmodel.aggregate_s": ("locmodel.aggregate",),
    "locmodel.rank_s": ("locmodel.rank",),
    "locmodel.attribute_s": ("locmodel.attribute",),
    "privacy.anonymize_s": ("privacy.anonymize",),
    "privacy.cap_s": ("privacy.cap",),
    "privacy.release_s": ("privacy.release",),
    "pipeline.daily_lists_s": ("pipeline.daily_lists",),
    "pipeline.manifest_s": ("pipeline.manifest",),
    "raters.majority_s": ("raters.majority",),
    "raters.alpha_s": ("raters.alpha",),
    "stats.logit_s": ("stats.logit",),
    "stats.linear_s": ("stats.linear",),
    "stats.chi2_s": ("stats.chi2",),
    "report.write_csv_s": ("report.write_csv",),
    "report.read_csv_s": ("report.read_csv",),
    "report.render_s": ("report.render",),
}

# metric name -> span name whose calls it counts
CALL_COUNT_METRICS = {
    "seeding.make_rng_calls": "seeding.make_rng",
    "features.featurize_calls": "features.featurize",
    "wsm.score_calls": "wsm.score",
    "locmodel.aggregate_calls": "locmodel.aggregate",
    "privacy.release_calls": "privacy.release",
    "stats.logit_fits": "stats.logit",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def feature_key(event) -> tuple:
    """The feature-relevant content of a query event: everything
    ``features.feature_strings`` reads."""
    return (
        event.text,
        tuple((p.url, p.title, p.snippet, tuple(sorted(p.concept_tags))) for p in event.results),
    )


def feature_reuse(scopes: dict) -> dict[str, float]:
    """Key and string reuse over the events each scope featurised.

    A scope is one program process: the whole ``run``, or one CLI stage, since
    nothing the program could memoise survives between processes. ``scopes``
    maps a scope to a ``Counter`` of feature keys, and each key's count is how
    often an event with that content was featurised. Each featurisation
    hashes every feature string of its event, duplicates included; a key or
    string counts as reused when it was already seen in the same scope.
    """
    from foodwatch.features import feature_strings

    calls = hashed = distinct_keys = distinct_strings = 0
    for key_counts in scopes.values():
        seen: set[str] = set()
        for key, count in key_counts.items():
            strings = list(feature_strings(_event_of(key)))
            hashed += count * len(strings)
            seen.update(strings)
        calls += sum(key_counts.values())
        distinct_keys += len(key_counts)
        distinct_strings += len(seen)
    return {
        "features.featurize_calls": calls,
        "features.distinct_keys": distinct_keys,
        "features.strings_hashed": hashed,
        "features.distinct_strings": distinct_strings,
        "features.key_reuse": 1.0 - distinct_keys / calls if calls else 0.0,
        "features.string_reuse": 1.0 - distinct_strings / hashed if hashed else 0.0,
    }


def _event_of(key: tuple):
    """A query event carrying exactly the content of a feature key."""
    from foodwatch.logdata import QueryEvent, ResultPage

    text, pages = key
    results = tuple(
        ResultPage(url, title, snippet, frozenset(tags), False, 0.0) for url, title, snippet, tags in pages
    )
    return QueryEvent(user_id="", ts=0, text=text, results=results)


# --- counters: (tracer, result, args, kwargs) -> None --------------------------


def _count_simulate(tr, result, args, kwargs):
    dataset, _ = result
    world = _arg(args, kwargs, 0, "world")
    tr.counts["citysim.user_days"] += len(world.users) * _arg(args, kwargs, 1, "days")
    tr.counts["citysim.visits"] += len(dataset.visits)
    tr.counts["citysim.queries"] += len(dataset.queries)
    tr.counts["citysim.inspections"] += len(dataset.inspections)


def _count_inspection(tr, result, args, kwargs):  # a finder inspection; the rest come from simulate
    tr.counts["citysim.inspections"] += 1


def _count_load_dataset(tr, result, args, kwargs):
    paths = _arg(args, kwargs, 0, "paths")
    tr.counts["logdata.load_calls"] += 1
    tr.counts["logdata.bytes_read"] += _file_bytes(
        paths.queries, paths.visits, paths.restaurants, paths.inspections
    )


def _count_load_inspections(tr, result, args, kwargs):
    tr.counts["logdata.load_calls"] += 1
    tr.counts["logdata.bytes_read"] += _file_bytes(_arg(args, kwargs, 0, "path"))


def _count_write_dataset(tr, result, args, kwargs):
    paths = _arg(args, kwargs, 1, "paths")
    tr.counts["logdata.bytes_written"] += _file_bytes(
        paths.queries, paths.visits, paths.restaurants, paths.inspections
    )


def _count_write_inspections(tr, result, args, kwargs):
    tr.counts["logdata.bytes_written"] += _file_bytes(_arg(args, kwargs, 1, "path"))


def _count_featurize(tr, result, args, kwargs):
    event = _arg(args, kwargs, 0, "event")
    tr.feature_keys.setdefault(tr.root(), Counter())[feature_key(event)] += 1


def _count_train(tr, result, args, kwargs):
    labeled = _arg(args, kwargs, 0, "labeled")
    hyper = result.hyper
    n = len(labeled.examples)
    tr.counts["wsm.train_examples"] += n
    tr.counts["wsm.train_updates"] += hyper.epochs * -(-n // hyper.batch_size)


def _count_model_load(tr, result, args, kwargs):
    tr.counts["wsm.model_bytes"] += _file_bytes(_arg(args, kwargs, 0, "path"))


def _count_model_save(tr, result, args, kwargs):
    tr.counts["wsm.model_bytes"] += _file_bytes(_arg(args, kwargs, 1, "path"))


def _count_link(tr, result, args, kwargs):
    from foodwatch.locmodel import first_positive_queries

    scored = _arg(args, kwargs, 1, "scored_queries")
    p_star = kwargs.get("p_star", args[3] if len(args) > 3 else 0.7)
    tr.counts["locmodel.links"] += len(result)
    tr.counts["locmodel.affected_users"] += len(first_positive_queries(scored, p_star))


def _count_aggregate(tr, result, args, kwargs):
    tr.counts["locmodel.visits_scanned"] += len(_arg(args, kwargs, 0, "visits"))


def _count_release(tr, result, args, kwargs):
    tr.counts["privacy.release_cells"] += len(result)
    tr.counts["privacy.suppressed_cells"] += sum(1 for r in result.values() if r.suppressed)


def _count_daily_lists(tr, result, args, kwargs):
    tr.counts["pipeline.shortlisted"] += len(result.daily_rows)
    tr.counts["pipeline.days_listed"] += len({row[0] for row in result.daily_rows})


def _count_majority(tr, result, args, kwargs):
    tr.counts["raters.units"] += len(_arg(args, kwargs, 0, "matrix"))


def _count_logit(tr, result, args, kwargs):
    tr.counts["stats.irls_iterations"] += result.iterations


def _count_write_csv(tr, result, args, kwargs):
    tr.counts["report.csv_rows_written"] += len(_arg(args, kwargs, 2, "rows"))


# (module, attribute, span name, counter). Attributes are patched where the
# caller looks them up, so internal calls inside a layer stay unwrapped.
ENTRY_POINTS = (
    ("pipeline", "run_pipeline", "pipeline.run", None),
    ("pipeline", "stage_simulate", "pipeline.stage.simulate", None),
    ("pipeline", "stage_train", "pipeline.stage.train", None),
    ("pipeline", "stage_eval_wsm", "pipeline.stage.eval_wsm", None),
    ("pipeline", "stage_rank", "pipeline.stage.rank", None),
    ("pipeline", "stage_inspect", "pipeline.stage.inspect", None),
    ("pipeline", "stage_evaluate", "pipeline.stage.evaluate", None),
    ("pipeline", "stage_report", "pipeline.stage.report", None),
    ("pipeline", "compute_model", "pipeline.compute_model", None),
    ("pipeline", "compute_daily_lists", "pipeline.daily_lists", _count_daily_lists),
    ("pipeline", "write_manifest", "pipeline.manifest", None),
    ("pipeline", "generate_world", "citysim.generate_world", None),
    ("pipeline", "simulate", "citysim.simulate", _count_simulate),
    ("pipeline", "simulate_inspection", "citysim.inspect", _count_inspection),
    ("pipeline", "simulate_raters", "citysim.raters", None),
    ("pipeline", "anonymize_ground_truth", "citysim.ground_truth", None),
    ("pipeline", "save_ground_truth", "citysim.ground_truth", None),
    ("pipeline", "load_ground_truth", "citysim.ground_truth", None),
    ("pipeline", "derive_seed", "seeding.derive_seed", None),
    ("citysim", "make_rng", "seeding.make_rng", None),
    ("privacy", "make_rng", "seeding.make_rng", None),
    ("wsm", "make_rng", "seeding.make_rng", None),
    ("pipeline", "load_dataset", "logdata.load", _count_load_dataset),
    ("pipeline", "load_inspections", "logdata.load", _count_load_inspections),
    ("pipeline", "write_dataset", "logdata.write", _count_write_dataset),
    ("pipeline", "write_inspections", "logdata.write", _count_write_inspections),
    ("pipeline", "validate_dataset", "logdata.validate", None),
    ("wsm", "featurize", "features.featurize", _count_featurize),
    ("pipeline", "weak_label", "wsm.weak_label", None),
    ("pipeline", "train_wsm", "wsm.train", _count_train),
    ("pipeline", "score_query", "wsm.score", None),
    ("pipeline", "build_eval_sample", "wsm.eval", None),
    ("pipeline", "evaluate_wsm", "wsm.eval", None),
    ("pipeline", "load_model", "wsm.model_io", _count_model_load),
    ("pipeline", "save_model", "wsm.model_io", _count_model_save),
    ("pipeline", "link_exposures", "locmodel.link", _count_link),
    ("pipeline", "aggregate_restaurants", "locmodel.aggregate", _count_aggregate),
    ("pipeline", "rank_restaurants", "locmodel.rank", None),
    ("pipeline", "attribute_sources", "locmodel.attribute", None),
    ("pipeline", "anonymize_ids", "privacy.anonymize", None),
    ("pipeline", "cap_contributions", "privacy.cap", None),
    ("pipeline", "release", "privacy.release", _count_release),
    ("pipeline", "majority_labels", "raters.majority", _count_majority),
    ("pipeline", "krippendorff_alpha", "raters.alpha", None),
    ("pipeline", "precision_table", "stats.precision_table", None),
    ("pipeline", "build_design_matrix", "stats.design", None),
    ("pipeline", "adjusted_means_linear", "stats.linear", None),
    ("pipeline", "chi_square_independence", "stats.chi2", None),
    ("stats", "fit_binomial_logit", "stats.logit", _count_logit),
    ("report", "write_csv", "report.write_csv", _count_write_csv),
    ("report", "read_csv", "report.read_csv", None),
    ("report", "render_report", "report.render", None),
)


class Tracer:
    """Spans of one traced pass, kept in flat lists indexed by span id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []  # -1 for a root span
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.feature_keys: dict[int, Counter] = {}  # root span -> featurised keys
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def root(self) -> int:
        return self._stack[0] if self._stack else -1

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if count is not None:
                cid = self.begin("bench.count")
                try:
                    count(self, result, args, kwargs)
                finally:
                    self.end(cid)
            return result

        return traced

    @contextmanager
    def instrument(self):
        """Patch every entry point for the duration of the block."""
        import importlib

        saved = []
        try:
            for module_name, attr, name, count in ENTRY_POINTS:
                module = importlib.import_module(f"foodwatch.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def roots_since(self, first_id: int) -> list[int]:
        return [i for i in range(first_id, len(self.names)) if self.parents[i] == -1]

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: id, parent, name, start, end, run."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps([i, self.parents[i], name, self.starts[i], self.ends[i], self.run_id])
                )
                fh.write("\n")


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[int]] = {}
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(sid)
    out = []
    for sid in range(len(parents)):
        start, end = starts[sid], ends[sid]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(sid, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[child], cursor), min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, timed_first_id: int) -> dict[str, float]:
    """Every per-layer metric of one pass except ``trace.overhead_s``.

    ``timed_first_id`` is the first span of the workload's timed stages; the
    spans before it belong to its set-up stages. The named layer metrics
    cover the whole pass, set-up included, so ``citysim`` and training show
    on every workload. The ``<layer>.self_s`` totals cover only the timed
    stages and add up to ``trace.run_s``; ``trace.total_s`` adds the set-up.
    """
    selfs = self_times(tracer.parents, tracer.starts, tracer.ends)
    by_name_self: Counter = Counter()
    by_name_calls: Counter = Counter()
    by_name_duration: Counter = Counter()
    by_layer: Counter = Counter({layer: 0.0 for layer in LAYERS + ("bench",)})
    for sid, name in enumerate(tracer.names):
        by_name_self[name] += selfs[sid]
        by_name_calls[name] += 1
        by_name_duration[name] += tracer.ends[sid] - tracer.starts[sid]
        if sid >= timed_first_id:
            by_layer[name.split(".", 1)[0]] += selfs[sid]

    metrics: dict[str, float] = {name: 0 for name in LAYER_METRICS}
    metrics.update({k: v for k, v in tracer.counts.items()})
    metrics.update(feature_reuse(tracer.feature_keys))
    for metric, spans in SELF_TIME_METRICS.items():
        metrics[metric] = sum(by_name_self[s] for s in spans)
    for metric, span in CALL_COUNT_METRICS.items():
        metrics[metric] = by_name_calls[span]
    for stage in STAGES:
        metrics[f"pipeline.stage.{stage}_s"] = by_name_duration[f"pipeline.stage.{stage}"]
    if not by_name_calls["pipeline.stage.train"]:  # inside ``run`` training has no stage wrapper
        metrics["pipeline.stage.train_s"] = by_name_duration["pipeline.compute_model"]
    for layer, seconds in by_layer.items():
        metrics[f"{layer}.self_s"] = seconds
    roots = tracer.roots_since(0)
    metrics["trace.spans"] = len(tracer.names)
    metrics["trace.total_s"] = sum(tracer.ends[r] - tracer.starts[r] for r in roots)
    metrics["trace.run_s"] = sum(
        tracer.ends[r] - tracer.starts[r] for r in tracer.roots_since(timed_first_id)
    )
    return metrics
