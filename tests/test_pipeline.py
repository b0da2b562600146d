import hashlib
import importlib
import json
import shutil
from datetime import date as Date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch import pipeline
from foodwatch import report as report_mod
from foodwatch.citysim import DAY_S, SIM_EPOCH_DATE
from foodwatch.cli import main as cli_main
from foodwatch.config import RunConfig, apply_overrides
from foodwatch.logdata import DatasetPaths, load_dataset, write_dataset
from foodwatch.pipeline import (
    ALL_INSPECTIONS_CSV,
    LINKS_CSV,
    MANIFEST,
    MODEL_FILE,
    WORLD_FILE,
    dataset_dir,
    load_world_recipe,
    private_dir,
    run_pipeline,
)
from foodwatch.wsm import weak_label
from oracles import wilson_oracle

ROOT = Path(__file__).resolve().parents[1]

SMALL = [
    "days=8",
    "sim.n_users=700",
    "sim.cities=A:60,B:60",
    "wsm.eval_size=60",
    "wsm.epochs=30",
    "cli.warmup_days=4",
]


def small_config(seed=5, extra=()):
    return apply_overrides(RunConfig(seed=seed), SMALL + list(extra))


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    manifest = run_pipeline(small_config(), out)
    return out, manifest


def test_all_artifacts_present_and_listed(small_run):
    out, manifest = small_run
    expected = {
        "dataset/queries.jsonl",
        "dataset/visits.csv",
        "dataset/restaurants.csv",
        "dataset/inspections.csv",
        "private/world.json",
        "private/ground_truth.json",
        "validation.json",
        "model.json",
        "wsm_metrics.csv",
        "scored_queries.csv",
        "links.csv",
        "released_aggregates.csv",
        "daily_lists.csv",
        "finder_inspections.csv",
        "inspections_all.csv",
        "precision.csv",
        "risk_distribution.csv",
        "violations.csv",
        "attribution.csv",
        "report.txt",
    }
    assert set(manifest["files"]) == expected
    on_disk = {
        str(p.relative_to(out)) for p in out.rglob("*") if p.is_file() and p.name != MANIFEST
    }
    assert on_disk == expected  # no orphan outputs


def test_manifest_checksums_match_recomputed_hashes(small_run):
    out, manifest = small_run
    for rel, digest in manifest["files"].items():
        recomputed = hashlib.sha256((out / rel).read_bytes()).hexdigest()
        assert recomputed == digest, rel


def test_daily_list_header_is_the_documented_interface(small_run):
    out, _ = small_run
    header, rows = report_mod.read_csv(out / report_mod.DAILY_LISTS_CSV)
    assert header == [
        "date", "restaurant_id", "city", "risk_level",
        "visitors", "affected", "proportion", "signal",
    ]
    released_header, released_rows = report_mod.read_csv(out / report_mod.RELEASED_CSV)
    assert released_header == header + ["suppressed"]
    assert all(r[-1] in ("True", "False") for r in released_rows)


def test_report_csvs_round_trip_exactly(small_run):
    out, _ = small_run
    _, rows = report_mod.read_csv(out / report_mod.METRICS_CSV)
    metrics = {r[0]: r[1] for r in rows}
    assert float(metrics["roc_auc"]) == float(repr(float(metrics["roc_auc"])))
    # the text report is a pure function of the CSVs
    first = report_mod.render_report(out)
    second = report_mod.render_report(out)
    assert first == second
    assert (out / "report.txt").read_text() == first


_CELLS = st.text(alphabet=st.sampled_from(["a", "1", " ", ",", '"', "\n", "\r", "\u00e9"]), max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda width: st.tuples(
            st.lists(_CELLS, min_size=width, max_size=width),
            st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=5),
        )
    )
)
def test_csv_codec_round_trips_commas_quotes_and_newlines(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("codec") / "table.csv"
    report_mod.write_csv(path, header, rows)
    assert report_mod.read_csv(path, header) == (header, rows)


def test_precision_rows_conserve_inspection_counts(small_run):
    out, _ = small_run
    _, rows = report_mod.read_csv(out / report_mod.PRECISION_CSV)
    from foodwatch.logdata import load_inspections

    total = len(load_inspections(out / ALL_INSPECTIONS_CSV))
    overall = next(
        r for r in rows if r[0] == "FINDER_vs_BASELINE" and r[1] == "overall"
    )
    assert int(overall[2]) + int(overall[5]) == total


def test_world_recipe_regenerates_world(small_run):
    out, _ = small_run
    world = load_world_recipe(private_dir(out) / "world.json")
    assert len(world.restaurants) == 120
    payload = json.loads((private_dir(out) / "world.json").read_text())
    assert set(payload) == {"seed", "cfg"}  # no users, no latent dump


def test_stage_commands_reproduce_run_artifacts(tmp_path, small_run):
    run_out, _ = small_run
    out = tmp_path / "staged"
    args = ["--out", str(out), "--seed", "5"] + [f"--set={kv}" for kv in SMALL]
    for command in ("simulate", "train-wsm", "eval-wsm", "rank", "inspect", "evaluate", "report"):
        assert cli_main([command] + args) == 0, command
    for rel in (
        "dataset/queries.jsonl",
        "model.json",
        "wsm_metrics.csv",
        "links.csv",
        "daily_lists.csv",
        "inspections_all.csv",
        "precision.csv",
        "report.txt",
    ):
        assert (out / rel).read_bytes() == (run_out / rel).read_bytes(), rel


def test_zero_infection_run_degrades_gracefully(tmp_path):
    config = small_config(
        seed=9,
        extra=[
            "sim.p_infect_unsafe=0",
            "sim.p_infect_safe=0",
            "sim.p_frivolous_complaint=0",
            # ambiguous-research noise alone must not clear the cutoff
            "locmodel.cutoff=0.35",
        ],
    )
    out = tmp_path / "zero"
    run_pipeline(config, out)
    _, rows = report_mod.read_csv(out / report_mod.PRECISION_CSV)
    overall = next(r for r in rows if r[0] == "FINDER_vs_BASELINE" and r[1] == "overall")
    assert int(overall[2]) == 0  # no FINDER inspections
    text = (out / "report.txt").read_text()
    assert "Unsafe-detection precision" in text


def test_privacy_off_releases_exact_counts(tmp_path):
    config = small_config(extra=["privacy.enabled=false"])
    out = tmp_path / "open"
    run_pipeline(config, out)
    visits = load_dataset(DatasetPaths.in_dir(dataset_dir(out))).visits
    _, links = report_mod.read_csv(out / LINKS_CSV)
    _, released = report_mod.read_csv(out / report_mod.RELEASED_CSV)
    assert released and all(row[8] == "False" for row in released)

    width = config.locmodel.agg_window_days * DAY_S
    for date in sorted({row[0] for row in released}):
        # a list dated day d+1 covers visits that ended in the trailing window before it
        end = (Date.fromisoformat(date) - SIM_EPOCH_DATE).days * DAY_S
        start = max(0, end - width)
        visitors: dict[str, set] = {}
        affected: dict[str, set] = {}
        for v in visits:
            if start <= v.exit_ts < end:
                visitors.setdefault(v.restaurant_id, set()).add(v.user_id)
        for user, rid, exit_ts, *_ in links:
            if start <= int(exit_ts) < end:
                affected.setdefault(rid, set()).add(user)
        rows = {row[1]: row for row in released if row[0] == date}
        assert set(rows) == set(visitors), date
        for rid, users in visitors.items():
            hit = len(affected.get(rid, set()) & users)
            row = rows[rid]
            assert row[4:6] == [str(len(users)), str(hit)], row  # integers, never "12.0"
            assert float(row[6]) == hit / len(users)
            assert float(row[7]) == pytest.approx(wilson_oracle(hit, len(users)), abs=1e-12)

    _, daily = report_mod.read_csv(out / report_mod.DAILY_LISTS_CSV)
    assert daily
    released_rows = {tuple(row) for row in released}
    assert all(tuple(row + ["False"]) in released_rows for row in daily)


def _truncate_model(out):
    path = out / MODEL_FILE
    path.write_text(path.read_text()[:200])
    return str(path)


def _shorten_link_row(out):
    path = out / LINKS_CSV
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:3])
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:2:"


def _shorten_risk_row(out):
    path = out / report_mod.RISK_DISTRIBUTION_CSV
    lines = path.read_text().splitlines()
    lines[1] = lines[1].split(",")[0]
    path.write_text("\n".join(lines) + "\n")
    return f"{path}:2:"


def _rename_precision_column(out):
    path = out / report_mod.PRECISION_CSV
    text = path.read_text()
    path.write_text(text.replace("odds_ratio", "oddsratio", 1))
    return f"{path}:1: missing column odds_ratio"


def _edit_line(path, index, edit):
    """Replace line ``index`` (0 is the header) of a file by ``edit(line)``."""
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def _empty_visits(out):
    path = dataset_dir(out) / "visits.csv"
    path.write_text("")  # no header line: not an empty stream
    return f"{path}:1: missing column user_id"


def _non_integer_exit_ts(out):
    path = dataset_dir(out) / "visits.csv"
    _edit_line(path, 2, lambda line: line.rsplit(",", 1)[0] + ",soon")
    return f"{path}:3: exit_ts must be an integer"


def _blank_line_before_short_link_row(out):
    path = out / LINKS_CSV
    _edit_line(path, 2, lambda line: ",".join(line.split(",")[:3]))
    _edit_line(path, 1, lambda line: "\n" + line)  # the short row moves to line 4
    return f"{path}:4: expected 5 fields, got 3"


def _shorten_inspection_row(out):
    path = out / ALL_INSPECTIONS_CSV
    _edit_line(path, 3, lambda line: line.split(",")[0])
    return f"{path}:4: expected 6 fields, got 1"


def _rename_header_column(path, column):
    _edit_line(path, 0, lambda line: line.replace(column, column.upper()))
    return f"{path}:1: missing column {column}; expected header"


def _rename_risk_distribution_column(out):
    return _rename_header_column(out / report_mod.RISK_DISTRIBUTION_CSV, "finder_pct")


def _rename_violations_column(out):
    return _rename_header_column(out / report_mod.VIOLATIONS_CSV, "p_value")


def _rename_attribution_column(out):
    return _rename_header_column(out / report_mod.ATTRIBUTION_CSV, "fraction")


def _rename_metrics_column(out):
    return _rename_header_column(out / report_mod.METRICS_CSV, "value")


def _drop_world_cfg(out):
    path = private_dir(out) / WORLD_FILE
    payload = json.loads(path.read_text())
    del payload["cfg"]
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "command, corrupt",
    [
        ("rank", _truncate_model),
        ("evaluate", _shorten_link_row),
        ("inspect", _drop_world_cfg),
        ("report", _shorten_risk_row),
        ("report", _rename_precision_column),
        ("train-wsm", _empty_visits),
        ("train-wsm", _non_integer_exit_ts),
        ("evaluate", _blank_line_before_short_link_row),
        ("evaluate", _shorten_inspection_row),
        ("report", _rename_risk_distribution_column),
        ("report", _rename_violations_column),
        ("report", _rename_attribution_column),
        ("report", _rename_metrics_column),
    ],
)
def test_corrupt_intermediates_are_data_errors(tmp_path, small_run, capsys, command, corrupt):
    out = tmp_path / "run"
    shutil.copytree(small_run[0], out)
    where = corrupt(out)
    args = ["--out", str(out), "--seed", "5"] + [f"--set={kv}" for kv in SMALL]
    assert cli_main([command] + args) == 2
    assert where in capsys.readouterr().err


def test_run_calls_every_stage_through_its_module_name(monkeypatch, tmp_path):
    calls = []
    for stage in pipeline.STAGES:
        monkeypatch.setattr(
            pipeline, stage.function, lambda config, out, name=stage.command: calls.append(name)
        )
    monkeypatch.setattr(pipeline, "write_manifest", lambda config, out: {"files": {}})
    run_pipeline(small_config(), tmp_path)
    assert calls == ["simulate", "train-wsm", "eval-wsm", "rank", "inspect", "evaluate", "report"]


def test_run_weak_labels_once(monkeypatch, tmp_path):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return weak_label(*args, **kwargs)

    monkeypatch.setattr(pipeline, "weak_label", counted)
    run_pipeline(small_config(), tmp_path)
    assert len(calls) == 1  # train-wsm labels; eval-wsm reuses its labeled set


def test_run_never_reads_the_dataset_back(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(pipeline, "load_dataset", lambda paths: calls.append(paths))
    run_pipeline(small_config(), tmp_path)
    assert calls == []  # simulate keeps the dataset it wrote for the later stages


@pytest.mark.parametrize("extra", [(), ("days=20", "sim.cities=A:60,B:40")])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_simulated_dataset_equals_its_reload(tmp_path, seed, extra):
    # run keeps the simulated dataset instead of reading it back, so the
    # stage commands, which do read it, must see the same streams in the same order
    _, dataset, _ = pipeline.compute_simulation(small_config(seed, extra))
    paths = DatasetPaths.in_dir(tmp_path)
    write_dataset(dataset, paths)
    assert load_dataset(paths) == dataset


def test_benchmark_trace_entry_points_resolve(monkeypatch):
    # The benchmark's traced pass replaces these module attributes with
    # timing wrappers, so each must exist and be looked up at call time.
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    missing = [
        f"foodwatch.{module}.{attr}"
        for module, attr, *_ in tracing.ENTRY_POINTS
        if not hasattr(importlib.import_module(f"foodwatch.{module}"), attr)
    ]
    assert not missing
