import contextlib
import hashlib
import importlib
import json
import math
import shutil
import sys
from collections import Counter
from dataclasses import fields
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foodwatch import citysim, features, logdata, pipeline, privacy
from foodwatch import report as report_mod
from foodwatch.citysim import (
    DAY_S,
    SIM_EPOCH_DATE,
    SimConfig,
    generate_world,
    load_ground_truth,
    save_ground_truth,
)
from foodwatch.cli import main as cli_main
from foodwatch.config import RunConfig, apply_overrides
from foodwatch.errors import UsageError
from foodwatch.locmodel import ScoredQueries, link_exposures
from foodwatch.logdata import DatasetPaths, load_dataset, write_dataset
from foodwatch.pipeline import (
    pseudonyms,
    ALL_INSPECTIONS_CSV,
    GROUND_TRUTH_FILE,
    LINKS_CSV,
    MANIFEST,
    MODEL_FILE,
    SCORED_CSV,
    WORLD_FILE,
    dataset_dir,
    load_world_recipe,
    private_dir,
    run_pipeline,
    save_world_recipe,
)
from foodwatch.seeding import derive_seed
from foodwatch.wsm import build_eval_sample, has_foodborne_click, weak_label
from conftest import assert_same_log
from oracles import load_query_objects, load_visit_objects, simulate_oracle, wilson_oracle

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


# The files that carry user pseudonyms, and the manifest that hashes them.
PSEUDONYMOUS_FILES = {
    "dataset/queries.jsonl",
    "dataset/visits.csv",
    "links.csv",
    "scored_queries.csv",
    "private/ground_truth.json",
    MANIFEST,
}


def test_a_second_pseudonym_key_changes_only_the_files_that_carry_pseudonyms(tmp_path):
    # the draws are keyed by raw user ids, so the key renames users and
    # changes nothing else: not the release, the lists or the model
    runs = {}
    for key in ("default", "f" * 32):
        runs[key] = tmp_path / key
        run_pipeline(small_config(5, [] if key == "default" else [f"privacy.hash_key={key}"]), runs[key])
    first, second = runs.values()
    files = {str(p.relative_to(first)) for p in first.rglob("*") if p.is_file()}
    assert files == {str(p.relative_to(second)) for p in second.rglob("*") if p.is_file()}
    changed = {name for name in files if (first / name).read_bytes() != (second / name).read_bytes()}
    assert changed == PSEUDONYMOUS_FILES


# The files rank, inspect and evaluate write that do not depend on the order
# of the dataset's lines. scored_queries.csv is in stream order, which is
# stable by time, so only its rows with equal times may swap.
ROW_ORDER_FREE_FILES = (
    LINKS_CSV,
    report_mod.RELEASED_CSV,
    report_mod.DAILY_LISTS_CSV,
    pipeline.FINDER_INSPECTIONS_CSV,
    ALL_INSPECTIONS_CSV,
    report_mod.PRECISION_CSV,
    report_mod.RISK_DISTRIBUTION_CSV,
    report_mod.VIOLATIONS_CSV,
    report_mod.ATTRIBUTION_CSV,
)


def _shuffle_lines(path: Path, rng: np.random.Generator, header: int) -> None:
    """Permute the lines of a file after its first ``header`` lines."""
    lines = path.read_bytes().splitlines(keepends=True)
    rows = lines[header:]
    path.write_bytes(b"".join(lines[:header] + [rows[i] for i in rng.permutation(len(rows))]))


@pytest.mark.parametrize("shuffle, extra", [(1, []), (2, ["privacy.enabled=false"])])
def test_dataset_row_order_changes_no_rank_inspect_or_evaluate_output(tmp_path, small_run, shuffle, extra):
    # a metamorphic relation: with the model kept, permuting the lines of
    # the query log and the rows of the visit log leaves the links, release,
    # lists, inspections and evaluation tables byte-identical, so visits
    # that tie on exit, arriving in another order, rank the same
    args = ["--seed", "5"] + [f"--set={kv}" for kv in SMALL + extra]
    runs = {}
    for name in ("kept", "shuffled"):
        runs[name] = tmp_path / name
        shutil.copytree(small_run[0], runs[name])
        if name == "shuffled":
            rng = np.random.default_rng(shuffle)
            _shuffle_lines(dataset_dir(runs[name]) / "queries.jsonl", rng, header=0)
            _shuffle_lines(dataset_dir(runs[name]) / "visits.csv", rng, header=1)
        for command in ("rank", "inspect", "evaluate"):
            assert cli_main([command, "--out", str(runs[name])] + args) == 0, command
    kept, shuffled = runs.values()
    assert (dataset_dir(kept) / "visits.csv").read_bytes() != (dataset_dir(shuffled) / "visits.csv").read_bytes()
    for name in ROW_ORDER_FREE_FILES:
        assert (kept / name).read_bytes() == (shuffled / name).read_bytes(), name
    (kept_header, kept_rows), (header, rows) = (report_mod.read_csv(run / SCORED_CSV) for run in (kept, shuffled))
    assert header == kept_header
    assert [row[1] for row in rows] == [row[1] for row in kept_rows]
    assert sorted(rows) == sorted(kept_rows)


# The files rank, inspect and evaluate write from distinct visitor and
# affected counts, which a repeated visit row cannot move.
VISIT_REPEAT_FREE_FILES = tuple(
    name for name in ROW_ORDER_FREE_FILES if name not in (LINKS_CSV, report_mod.ATTRIBUTION_CSV)
)


@pytest.mark.parametrize("extra", [[], ["privacy.enabled=false"]])
def test_repeated_visit_rows_change_no_count(tmp_path, small_run, extra):
    # a metamorphic relation: with the model kept, repeating a third of the
    # visit rows (same user, restaurant and times) leaves the release, lists,
    # inspections and every evaluation table but attribution byte-identical.
    # The links keep their (user, restaurant, exit, anchor) keys; recency
    # ranks count visit rows, so a repeated row may raise a rank, never lower it
    args = ["--seed", "5"] + [f"--set={kv}" for kv in SMALL + extra]
    runs = {}
    for name in ("kept", "repeated"):
        runs[name] = tmp_path / name
        shutil.copytree(small_run[0], runs[name])
        if name == "repeated":
            path = dataset_dir(runs[name]) / "visits.csv"
            lines = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(b"".join(lines + lines[1::3]))
        for command in ("rank", "inspect", "evaluate"):
            assert cli_main([command, "--out", str(runs[name])] + args) == 0, command
    kept, repeated = runs.values()
    for name in VISIT_REPEAT_FREE_FILES:
        assert (kept / name).read_bytes() == (repeated / name).read_bytes(), name
    kept_ranks, ranks = (
        {tuple(row[:4]): int(row[4]) for row in report_mod.read_csv(run / LINKS_CSV)[1]} for run in (kept, repeated)
    )
    assert ranks.keys() == kept_ranks.keys()
    assert all(kept_ranks[key] <= rank for key, rank in ranks.items())


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


def test_risk_distribution_rows_match_a_bruteforce_count(small_run):
    out, _ = small_run
    _, restaurants = report_mod.read_csv(dataset_dir(out) / "restaurants.csv", ["restaurant_id", "city", "risk_level"])
    risk_of = {rid: risk for rid, _, risk in restaurants}
    _, inspections = report_mod.read_csv(out / ALL_INSPECTIONS_CSV)
    groups = {"finder": [], "baseline": []}
    for restaurant_id, _, trigger, *_ in inspections:
        groups["finder" if trigger == "FINDER" else "baseline"].append(risk_of[restaurant_id])
    _, rows = report_mod.read_csv(out / report_mod.RISK_DISTRIBUTION_CSV, report_mod.RISK_DISTRIBUTION_HEADER)

    levels = ["high", "medium", "low"]
    assert [row[0] for row in rows] == levels
    table = [[group.count(level) for level in levels] for group in groups.values()]
    for row, finder_n, baseline_n in zip(rows, *table):
        assert (int(row[1]), int(row[3])) == (finder_n, baseline_n)
        assert float(row[2]) == pytest.approx(100 * finder_n / len(groups["finder"]), rel=1e-12)
        assert float(row[4]) == pytest.approx(100 * baseline_n / len(groups["baseline"]), rel=1e-12)
    assert [row[5] != "" for row in rows] == [True, False, False]
    total = sum(map(sum, table))
    expected = [[sum(group) * level_n / total for level_n in map(sum, zip(*table))] for group in table]
    statistic = sum((o - e) ** 2 / e for og, eg in zip(table, expected) for o, e in zip(og, eg))
    assert float(rows[0][5]) == pytest.approx(math.exp(-statistic / 2), rel=1e-9)  # the 2-dof upper tail


def test_world_recipe_regenerates_world(small_run):
    out, _ = small_run
    world = load_world_recipe(private_dir(out) / "world.json")
    assert len(world.restaurants) == 120
    payload = json.loads((private_dir(out) / "world.json").read_text())
    assert set(payload) == {"seed", "sim"}  # no users, no latent dump
    assert all(line.startswith("sim.") for line in payload["sim"])
    assert "sim.cities=A:60,B:60" in payload["sim"]


# A value text of each SimConfig field type, as a config line spells it. The
# first two numbers of a triple leave room for a third that sums to 1.
_FLOAT = st.floats(0.0, 1.0) | st.floats(0.0, 100.0)
_VALUE_TEXT = {
    "int": st.integers(0, 40).map(str),
    "float": _FLOAT.map(repr),
    "tuple[float, float, float]": st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda ab: f"{ab[0]!r},{(1 - ab[0]) * ab[1]!r},{1 - ab[0] - (1 - ab[0]) * ab[1]!r}"
    ),
    "dict[str, int]": st.dictionaries(
        st.text("ABab09_", min_size=1, max_size=3), st.integers(1, 4), min_size=1, max_size=3
    ).map(lambda cities: ",".join(f"{name}:{n}" for name, n in cities.items())),
}
_SIM_LINES = st.lists(
    st.sampled_from(fields(SimConfig)).flatmap(
        lambda f: _VALUE_TEXT[f.type].map(lambda raw: f"sim.{f.name}={raw}")
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@example(["sim.p_infect_safe=0.30000000000000004", "sim.incubation_sigma=0", "sim.cities=B:2,A:3"], 7)
@example([], 0)
@given(_SIM_LINES, st.integers(0, 2**64 - 1))
def test_world_recipe_round_trips_every_expressible_sim_config(tmp_path_factory, lines, seed):
    config = RunConfig()
    for line in lines:
        with contextlib.suppress(UsageError):  # a refused line expresses no config
            config = apply_overrides(config, [line])
    world = generate_world(config.sim, seed)
    path = tmp_path_factory.mktemp("recipe") / WORLD_FILE
    save_world_recipe(world, path)
    loaded = load_world_recipe(path)
    assert loaded.cfg == config.sim
    assert loaded == world


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


def _inverted_visit(out):
    # a visit that ends before it starts: the simulator never writes one
    path = dataset_dir(out) / "visits.csv"

    def edit(line):
        user_id, restaurant_id, entry_ts, exit_ts = line.split(",")
        return ",".join([user_id, restaurant_id, exit_ts, entry_ts])

    _edit_line(path, 2, edit)
    return f"{path}:3: entry_ts "


def _blank_line_before_short_link_row(out):
    path = out / LINKS_CSV
    _edit_line(path, 2, lambda line: ",".join(line.split(",")[:3]))
    _edit_line(path, 1, lambda line: "\n" + line)  # the short row moves to line 4
    return f"{path}:4: expected 5 fields, got 3"


def _set_link_rank(out, rank):
    path = out / LINKS_CSV
    _edit_line(path, 1, lambda line: line.rsplit(",", 1)[0] + f",{rank}")
    return f"{path}:2: recency_rank must be >= 1, got {rank}"


def _negative_link_rank(out):
    return _set_link_rank(out, -5)


def _zero_link_rank(out):
    return _set_link_rank(out, 0)  # ranks start at 1


def _link_exit_after_anchor(out):
    # linking keeps only visits that end before the anchor query
    path = out / LINKS_CSV

    def edit(line):
        user_id, restaurant_id, _, anchor, rank = line.split(",")
        return ",".join([user_id, restaurant_id, str(int(anchor) + 1), anchor, rank])

    _edit_line(path, 1, edit)
    return f"{path}:2: visit_exit_ts "


def _edit_first_link(out, edit):
    """Replace the first links.csv row by ``edit(out, *row)``; the message
    names the file and the edited link."""
    path = out / LINKS_CSV
    lines = path.read_text().splitlines()
    row = edit(out, *lines[1].split(","))
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    return f"{path}: link {row[0]},{row[1]},{row[2]} has recency rank {row[4]}, but the visit log ranks it 0: it names no qualifying visit"


def _visit_rows(out):
    return report_mod.read_csv(dataset_dir(out) / "visits.csv")[1]


def _unknown_link_user(out):
    return _edit_first_link(out, lambda out, user_id, *rest: ["nobody", *rest])


def _never_visited_link_pair(out):
    def edit(out, user_id, restaurant_id, *rest):
        visited = {row[1] for row in _visit_rows(out) if row[0] == user_id}
        registry = report_mod.read_csv(dataset_dir(out) / "restaurants.csv")[1]
        return [user_id, min(row[0] for row in registry if row[0] not in visited), *rest]

    return _edit_first_link(out, edit)


def _link_exit_of_no_visit(out):
    def edit(out, user_id, restaurant_id, exit_ts, *rest):
        exits = {int(row[3]) for row in _visit_rows(out)}
        exit_ts = int(exit_ts) - 1
        while exit_ts in exits:
            exit_ts -= 1
        return [user_id, restaurant_id, str(exit_ts), *rest]

    return _edit_first_link(out, edit)


def _link_exit_of_another_visit(out):
    # an exit some visit has, but no visit of the link's own pair
    def edit(out, user_id, restaurant_id, exit_ts, anchor, rank):
        rows = _visit_rows(out)
        own = {int(row[3]) for row in rows if row[:2] == [user_id, restaurant_id]}
        other = max(int(row[3]) for row in rows if int(row[3]) < int(anchor) and int(row[3]) not in own)
        return [user_id, restaurant_id, str(other), anchor, rank]

    return _edit_first_link(out, edit)


def _wrong_link_rank(out):
    # a positive rank, but not the one the visit log gives the link's visit
    path = out / LINKS_CSV
    lines = path.read_text().splitlines()
    user_id, restaurant_id, exit_ts, anchor, rank = lines[1].split(",")
    lines[1] = ",".join([user_id, restaurant_id, exit_ts, anchor, str(int(rank) + 1)])
    path.write_text("\n".join(lines) + "\n")
    return f"{path}: link {user_id},{restaurant_id},{exit_ts} has recency rank {int(rank) + 1}"


def _link_times_past_int64(out):
    # digits that int() reads, but that no int64 column holds
    path = out / LINKS_CSV
    _edit_line(path, 1, lambda line: ",".join([*line.split(",")[:2], str(10**19), str(10**19 + 5), "1"]))
    return f"{path}:2: visit_exit_ts must be <= {2**63 - 1}, got {10**19}"


def _huge_critical_count(out):
    # too large for a float, which the violations model would take it as
    path = out / ALL_INSPECTIONS_CSV

    def edit(line):
        fields = line.split(",")
        fields[4] = "9" * 401
        return ",".join(fields)

    _edit_line(path, 3, edit)
    return f"{path}:4: critical_count must be <= {2**63 - 1}, got 999"


def _fractional_train_seed(out):
    # int() would truncate it, and the model would claim another seed
    path = out / MODEL_FILE
    _edit_json(path, lambda payload: payload.update(train_seed=1.7))
    return f"{path}: malformed artifact (ValueError: train_seed must be an integer, got 1.7)"


def _undecodable_byte(path, index):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[index] = b"\xff" + lines[index]
    path.write_bytes(b"".join(lines))
    return f"{path}:{index + 1}: not UTF-8 (invalid start byte, byte 0xff)"


def _undecodable_query_byte(out):
    return _undecodable_byte(dataset_dir(out) / "queries.jsonl", 299)


def _undecodable_visit_byte(out):
    return _undecodable_byte(dataset_dir(out) / "visits.csv", 299)


def _oversized_registry_field(out):
    # longer than csv.field_size_limit(), which the csv module refuses
    path = dataset_dir(out) / "restaurants.csv"
    _edit_line(path, 1, lambda line: line + "x" * 200_000)
    return f"{path}:2: field larger than field limit"


def _oversized_visit_field(out):
    # in the writer's layout, which the bulk reader splits, but longer than
    # csv.field_size_limit(), which the row reader refuses
    path = dataset_dir(out) / "visits.csv"
    lines = path.read_bytes().split(b"\r\n")
    lines[2] = b"x" * 200_000 + lines[2]
    path.write_bytes(b"\r\n".join(lines))
    return f"{path}:3: field larger than field limit"


def _visit_unregistered_restaurant(out):
    def edit(line):
        user_id, _, entry_ts, exit_ts = line.split(",")
        return ",".join([user_id, "r99999", entry_ts, exit_ts])

    _edit_line(dataset_dir(out) / "visits.csv", 1, edit)
    return "visits reference unknown restaurants: r99999"


def _inspection_unregistered_restaurant(out):
    _edit_line(out / ALL_INSPECTIONS_CSV, 1, lambda line: ",".join(["r99999", *line.split(",")[1:]]))
    return "inspections reference unknown restaurants: r99999"


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
    del payload["sim"]
    path.write_text(json.dumps(payload))
    return str(path)


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _negative_meals_in_world_recipe(out):
    # a recipe line that a config file would be refused for: rejected as data, naming the file
    path = private_dir(out) / WORLD_FILE
    _edit_json(path, lambda payload: payload["sim"].append("sim.meals_per_day=-1"))
    return f"{path}: malformed artifact (UsageError: sim.meals_per_day must be >= 0"


def _zero_epochs_in_model_hyper(out):
    path = out / MODEL_FILE
    _edit_json(path, lambda payload: payload["hyper"].update(epochs=0))
    return f"{path}: malformed artifact (UsageError: wsm.epochs must be >= 1"


def _non_finite_model_numbers(out):
    # json reads NaN and Infinity; such a model would score every query 1.0
    path = out / MODEL_FILE
    _edit_json(
        path, lambda payload: payload.update(weights=[math.nan] + payload["weights"][1:], intercept=math.inf)
    )
    return f"{path}: malformed artifact (ValueError: model weights must be finite"


def _shorten_background_inspection_row(out):
    path = dataset_dir(out) / "inspections.csv"
    _edit_line(path, 2, lambda line: line.split(",")[0])
    return f"{path}:3: expected 6 fields, got 1"


def _edit_ground_truth(out, edit):
    path = private_dir(out) / GROUND_TRUTH_FILE
    _edit_json(path, edit)
    return path


def _resize_query_labels(out, size):
    path = private_dir(out) / GROUND_TRUTH_FILE
    n = len(json.loads(path.read_text())["query_labels"])
    _edit_json(path, lambda payload: payload.update(query_labels=(payload["query_labels"] + [0] * 5)[: size(n)]))
    return f"{path}: {size(n)} query labels for {n} queries"


def _halve_query_labels(out):
    return _resize_query_labels(out, lambda n: n // 2)


def _extra_query_labels(out):
    return _resize_query_labels(out, lambda n: n + 5)


def _non_binary_query_labels(out):
    path = _edit_ground_truth(
        out, lambda payload: payload.update(query_labels=[7] * len(payload["query_labels"]))
    )
    return f"{path}: malformed artifact (ValueError: query_labels must each be 0 or 1)"


def _string_searched(out):
    path = _edit_ground_truth(out, lambda payload: payload["infections"][0].update(searched="false"))
    return f"{path}: malformed artifact (ValueError: searched must be true or false, got 'false')"


def _string_meal_exit_ts(out):
    def edit(payload):
        record = payload["infections"][0]
        record["meal_exit_ts"] = str(record["meal_exit_ts"])

    path = _edit_ground_truth(out, edit)
    return f"{path}: malformed artifact (ValueError: meal_exit_ts must be an integer, got '"


def _fractional_query_ts(out):
    def edit(payload):
        record = next(r for r in payload["infections"] if r["query_ts"] is not None)
        record["query_ts"] += 0.5

    path = _edit_ground_truth(out, edit)
    return f"{path}: malformed artifact (ValueError: query_ts must be an integer, got "


def _model_not_an_object(out):
    path = out / MODEL_FILE
    path.write_text("[]")
    return f"{path}: malformed artifact (ValueError: model must be a JSON object)"


def _fractional_world_seed(out):
    # int() would truncate it, and the stage would regenerate another world
    path = private_dir(out) / WORLD_FILE
    _edit_json(path, lambda payload: payload.update(seed=1.7))
    return f"{path}: malformed artifact (ValueError: seed must be an integer, got 1.7)"


def _non_string_infection_ids(out):
    path = _edit_ground_truth(out, lambda payload: payload["infections"][0].update(user_id=1, source_restaurant_id=None))
    return f"{path}: malformed artifact (ValueError: user_id must be a string, got 1)"


@pytest.mark.parametrize(
    "command, corrupt",
    [
        ("rank", _truncate_model),
        ("evaluate", _shorten_link_row),
        ("inspect", _drop_world_cfg),
        ("report", _shorten_risk_row),
        ("report", _rename_precision_column),
        ("rank", _empty_visits),
        ("rank", _non_integer_exit_ts),
        ("evaluate", _blank_line_before_short_link_row),
        ("evaluate", _shorten_inspection_row),
        ("evaluate", _inspection_unregistered_restaurant),
        ("evaluate", _visit_unregistered_restaurant),
        ("report", _rename_risk_distribution_column),
        ("report", _rename_violations_column),
        ("report", _rename_attribution_column),
        ("report", _rename_metrics_column),
        ("inspect", _negative_meals_in_world_recipe),
        ("rank", _zero_epochs_in_model_hyper),
        ("rank", _non_finite_model_numbers),
        ("eval-wsm", _non_finite_model_numbers),
        ("inspect", _shorten_background_inspection_row),
        ("eval-wsm", _halve_query_labels),
        ("eval-wsm", _extra_query_labels),
        ("eval-wsm", _non_binary_query_labels),
        ("eval-wsm", _string_searched),
        ("eval-wsm", _string_meal_exit_ts),
        ("eval-wsm", _fractional_query_ts),
        ("rank", _inverted_visit),
        ("evaluate", _inverted_visit),
        ("rank", _model_not_an_object),
        ("inspect", _fractional_world_seed),
        ("eval-wsm", _non_string_infection_ids),
        ("evaluate", _negative_link_rank),
        ("evaluate", _zero_link_rank),
        ("evaluate", _link_exit_after_anchor),
        ("evaluate", _unknown_link_user),
        ("evaluate", _never_visited_link_pair),
        ("evaluate", _link_exit_of_no_visit),
        ("evaluate", _link_exit_of_another_visit),
        ("evaluate", _wrong_link_rank),
        ("evaluate", _link_times_past_int64),
        ("evaluate", _huge_critical_count),
        ("eval-wsm", _fractional_train_seed),
        ("rank", _fractional_train_seed),
        ("train-wsm", _undecodable_query_byte),
        ("rank", _undecodable_visit_byte),
        ("evaluate", _undecodable_visit_byte),
        ("evaluate", _oversized_registry_field),
        ("rank", _oversized_visit_field),
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
    for loader in ("load_dataset", "load_queries", "load_visit_log", "load_inspections", "load_ground_truth"):
        monkeypatch.setattr(pipeline, loader, lambda path, name=loader: calls.append(name))
    run_pipeline(small_config(), tmp_path)
    assert calls == []  # simulate keeps the streams and ground truth it wrote for the later stages


def test_stages_run_alone_read_through_pipeline_loader_names(monkeypatch, tmp_path, small_run):
    # a stage command gets a fresh run, which reads each input through the
    # loader that pipeline's name holds when it runs: the benchmark tracer
    # counts reads by wrapping those names
    out = tmp_path / "run"
    shutil.copytree(small_run[0], out)
    calls = Counter()
    for loader in ("load_queries", "load_model", "load_ground_truth", "load_visit_log", "load_inspections"):
        real = getattr(pipeline, loader)
        monkeypatch.setattr(pipeline, loader, lambda path, real=real, name=loader: calls.update([name]) or real(path))
    expected = {
        "eval-wsm": {"load_queries": 1, "load_model": 1, "load_ground_truth": 1},
        "inspect": {"load_inspections": 1},  # the background inspections
        "evaluate": {"load_visit_log": 1, "load_inspections": 1},  # all inspections
    }
    args = ["--out", str(out), "--seed", "5"] + [f"--set={kv}" for kv in SMALL]
    for command, reads in expected.items():
        calls.clear()
        assert cli_main([command] + args) == 0
        assert calls == reads, command


def test_run_builds_no_event_objects(monkeypatch, tmp_path):
    # the simulator fills the logs' columns, the classifier reads query codes
    # and the aggregation visit codes, so no stage of a run asks a log for its
    # event view
    built = []
    for name in ("QueryEvent", "ResultPage", "VisitEvent"):
        cls = getattr(logdata, name)

        def counted(*args, cls=cls, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("foodwatch.")]:
            if getattr(module, name, None) is cls:
                monkeypatch.setattr(module, name, counted)
    run_pipeline(small_config(), tmp_path)
    assert (tmp_path / MANIFEST).exists()
    assert built == []


def test_simulated_logs_load_in_bulk(small_run, monkeypatch):
    # every line the writers write is in the loaders' bulk layout, so a writer
    # change that leaves it fails here instead of slowing every stage
    paths = DatasetPaths.in_dir(dataset_dir(small_run[0]))

    def refused(*args):
        raise AssertionError("a line left the bulk layout")

    monkeypatch.setattr(logdata, "_parse_query", refused)
    monkeypatch.setattr(logdata, "read_csv", refused)
    queries = logdata.load_queries(paths.queries)
    assert len(queries) > logdata.BULK_LINES
    assert_same_log(queries, logdata.QueryLog.of(load_query_objects(paths.queries)))
    assert_same_log(logdata.load_visits(paths.visits), logdata.VisitLog.of(load_visit_objects(paths.visits)))


def test_run_drops_inputs_once_no_later_stage_needs_them(tmp_path):
    run = pipeline.Run(tmp_path)
    kept = {}
    for stage in pipeline.STAGES:
        stage(small_config(), run)
        kept[stage.command] = set(run._inputs)
    assert all("dataset" not in names for names in kept.values())  # each stream is kept by itself
    assert {"truth", "labeled"} & kept["eval-wsm"] == set()
    assert {"queries", "model"} & kept["rank"] == set()
    assert "visit_log" in kept["rank"]  # kept by simulate for the daily lists and evaluate


def test_rank_reads_no_inspections(tmp_path, small_run):
    out = tmp_path / "run"
    shutil.copytree(small_run[0], out)
    (dataset_dir(out) / "inspections.csv").unlink()
    outputs = (SCORED_CSV, LINKS_CSV, report_mod.RELEASED_CSV, report_mod.DAILY_LISTS_CSV)
    for name in outputs:
        (out / name).unlink()
    args = ["--out", str(out), "--seed", "5"] + [f"--set={kv}" for kv in SMALL]
    assert cli_main(["rank"] + args) == 0
    for name in outputs:
        assert (out / name).read_bytes() == (small_run[0] / name).read_bytes(), name


def test_evaluate_reads_no_query_log(tmp_path, small_run):
    out = tmp_path / "run"
    shutil.copytree(small_run[0], out)
    (dataset_dir(out) / "queries.jsonl").unlink()
    tables = (
        report_mod.PRECISION_CSV,
        report_mod.RISK_DISTRIBUTION_CSV,
        report_mod.VIOLATIONS_CSV,
        report_mod.ATTRIBUTION_CSV,
    )
    for table in tables:
        (out / table).unlink()
    args = ["--out", str(out), "--seed", "5"] + [f"--set={kv}" for kv in SMALL]
    assert cli_main(["evaluate"] + args) == 0
    for table in tables:
        assert (out / table).read_bytes() == (small_run[0] / table).read_bytes(), table


def test_classifier_stages_read_only_the_query_log(tmp_path, small_run):
    out = tmp_path / "run"
    shutil.copytree(small_run[0], out)
    for name in ("visits.csv", "restaurants.csv", "inspections.csv"):
        (dataset_dir(out) / name).unlink()
    outputs = (MODEL_FILE, report_mod.METRICS_CSV)
    for name in outputs:
        (out / name).unlink()
    args = ["--out", str(out), "--seed", "5"] + [f"--set={kv}" for kv in SMALL]
    assert cli_main(["train-wsm"] + args) == 0
    assert cli_main(["eval-wsm"] + args) == 0
    for name in outputs:
        assert (out / name).read_bytes() == (small_run[0] / name).read_bytes(), name


@pytest.mark.parametrize("extra", [(), ("days=20", "sim.cities=A:60,B:40")])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_simulated_dataset_equals_its_reload(tmp_path, seed, extra):
    # run keeps the simulated dataset instead of reading it back, so the
    # stage commands, which do read it, must see the same streams in the same order
    _, dataset, truth = pipeline.compute_simulation(small_config(seed, extra))
    paths = DatasetPaths.in_dir(tmp_path)
    write_dataset(dataset, paths)
    assert load_dataset(paths) == dataset
    # and the ground truth, which eval-wsm reads
    assert truth.infections
    save_ground_truth(truth, tmp_path / "truth.json")
    assert load_ground_truth(tmp_path / "truth.json") == truth


def test_simulated_and_loaded_events_carry_tuples_and_frozensets(tmp_path):
    # the event classes take their containers as given, without re-wrapping
    _, dataset, _ = pipeline.compute_simulation(small_config())
    paths = DatasetPaths.in_dir(tmp_path)
    write_dataset(dataset, paths)
    for queries in (dataset.queries, load_dataset(paths).queries):
        assert queries
        assert all(type(q.results) is tuple for q in queries)
        assert all(type(p.concept_tags) is frozenset for q in queries for p in q.results)


def test_run_never_calls_the_per_string_reference(monkeypatch, tmp_path):
    # featurize_rows hashes token spans; the per-string path stays a test oracle
    def refuse(*args):
        raise AssertionError("the pipeline called the per-string featurizer")

    monkeypatch.setattr(features, "feature_strings", refuse)
    monkeypatch.setattr(features, "bucket", refuse)
    run_pipeline(small_config(), tmp_path)
    assert (tmp_path / "manifest.json").exists()


def test_run_never_calls_the_anonymizers(monkeypatch, tmp_path):
    # the simulator emits pseudonyms; the anonymizers stay as its test reference
    def refuse(*args):
        raise AssertionError("the pipeline called an anonymizer")

    for name in ("anonymize_ids", "anonymize_ground_truth"):
        monkeypatch.setattr(pipeline, name, refuse)
        monkeypatch.setattr(privacy, name, refuse)
    run_pipeline(small_config(), tmp_path)
    assert (tmp_path / MANIFEST).exists()


# sha256 of every file the simulate stage writes. None of them depends on
# BLAS, so the pin holds on any thread count. A change that alters these
# files on purpose re-records the hashes and says why.
SIMULATE_HASHES = {
    "small-seed5": {
        "dataset/queries.jsonl": "1514927e1c7d76210626d451f3f8f09e9990718fb327d20f056e17f4d72b4acb",
        "dataset/visits.csv": "97a14e509feb74654f98f0ea09e6ab52019578a3d16146e5a472d43226bc6c0d",
        "dataset/restaurants.csv": "1dd9ab4951fdacb4eadb9ee6461d137d6b8d94d6432146f210cf40197262755e",
        "dataset/inspections.csv": "9006ec7efc32fcac0b6185f3a5dda1bc2d8309698851279e082d5d3f1c5ab9bb",
        "private/world.json": "c3b340fb4e52f1e07e4a92d386ca9863e541c95e32a663b7715b495aad834289",
        "private/ground_truth.json": "02643ce57d8dcd61f180f16f271044afa180231ac22d8f9f165610429398e6c2",
        "validation.json": "166b3ee34a9da04500bcd725e5c0c06e2db0324e078dc2148ebb8952cf6acf6f",
    },
    "default-seed0": {
        "dataset/queries.jsonl": "30538b0dfb702933882fd771a828816b73e4b03dc9dc943788c14962e4a421f0",
        "dataset/visits.csv": "8df1cd345111aa2b79920475fd4e40dd1e1d0ee6cd80de10e706529ac893bd55",
        "dataset/restaurants.csv": "ef77265412e51a91dff6bad95ad4b047d947673c9623286ae7adbb1ddab8594d",
        "dataset/inspections.csv": "a42a3bafa2e3345f083202585dd1bbda503171442d3a367f07510e9db0777604",
        "private/world.json": "2e9b954a5a2ea54c4bc50c8a73dac856891904de30bb7a04b707c9fe85436e5d",
        "private/ground_truth.json": "04bd442627198bd8d98ef40ba7d2a5fe535c677c2c6bc8edf3d8fd6d6a091627",
        "validation.json": "9f6e23ae0c2b79d58e4ad5bccbdaa1135e421699ebddf5e185c14ac2282d1f97",
    },
    # complaints common, so complaint blame is well exercised: 975 complaint
    # inspections against 30 in small-seed5
    "small-seed5-complaints": {
        "dataset/queries.jsonl": "f076a49ed03fb3a91458ca5a754a9ad98f7b70f834999014a745a256ad61f6bd",
        "dataset/visits.csv": "6cbf2395ddec8f2d3561345d4871a627cf416a3e5586d3f914ff513dcdda957b",
        "dataset/restaurants.csv": "1dd9ab4951fdacb4eadb9ee6461d137d6b8d94d6432146f210cf40197262755e",
        "dataset/inspections.csv": "34e46f537688e93d4dd61b4659f3d65c6734d1744d15e43858fa8878087b9e23",
        "private/world.json": "525d7b7bc8a3bfc9a980d41a31f963d3aa1cd5c03bd59eb42cabdaa1e401ebd0",
        "private/ground_truth.json": "f6b0a28c857f9ddbcf0d8053b3968da40d308288843c91405c58eec29673a46e",
        "validation.json": "3ad0ef75892047af705ffd644e6e7903f5a46b2527b89c8c17a86a37e6f8126b",
    },
    # edge configs, each exercising a draw that draws nothing or runs the
    # scalar generator: a one-restaurant city (integers over one value),
    # Poisson rates of 0, rates on both sides of 10 (numpy switches Poisson
    # algorithms there), and a fixed incubation delay (no normal draw)
    "small-seed5-one-restaurant": {
        "dataset/queries.jsonl": "8edbe661fbfad990ace55e4d8ce131f1eaf78bb6cb388abca10cc2dedbc4fbdd",
        "dataset/visits.csv": "7c555b81593b324b00f83041a8d9a8f6a3c825a6b5ec0ddb069f340100b85f32",
        "dataset/restaurants.csv": "1dd8f9dd253862bb5317796cf2c229570cab98bf2e01f80e33779294deac0c35",
        "dataset/inspections.csv": "0157329b96af5ec582235e0710553ef87b1cd904c147b2b56842f12783ae26e9",
        "private/world.json": "6c4a886b3cf8b1408cdd7127ad6db1538a59f0c0efe3be84303dec6bbd40656f",
        "private/ground_truth.json": "6be9e1fa563d03be55595e9ae3fc7206933433f22c7e2af088620f6c54c267ed",
        "validation.json": "9a0301a2be2885c15c59cd342bdfc324b492b6663b03ef5327eb49d2f369c385",
    },
    "small-seed5-no-meals": {
        "dataset/queries.jsonl": "60531a76cc51546974cc1f1c66786dc2f46e98658a34565661fb04e1eb6cf706",
        "dataset/visits.csv": "ccfd4af881ab46f6d1847eb27f987b16a6205f3c7e04f10252c2e22697626d39",
        "dataset/restaurants.csv": "1dd9ab4951fdacb4eadb9ee6461d137d6b8d94d6432146f210cf40197262755e",
        "dataset/inspections.csv": "c34bcff091101564dcf3ab869f4403f413e8dab53ff9fc33fcbeea6f65b27e12",
        "private/world.json": "4fb785c6485e2e7b5f0be9c95784a13a043ece9ce8ec35c1e34d5e290f1f1a4d",
        "private/ground_truth.json": "abcfe07912e91bd2e177a68f1a80a2a90acbddd8165afeec245362e874d0e5af",
        "validation.json": "adadab6d55f4565fcc99e84a30388b8a3854508ee807aa1ea0339acaa72e2339",
    },
    "small-seed5-no-background": {
        "dataset/queries.jsonl": "37c2fa496ca98ed0c61fe74ec383fc4ad7f5ced3bef8ebeba3ae209e5403716e",
        "dataset/visits.csv": "97a14e509feb74654f98f0ea09e6ab52019578a3d16146e5a472d43226bc6c0d",
        "dataset/restaurants.csv": "1dd9ab4951fdacb4eadb9ee6461d137d6b8d94d6432146f210cf40197262755e",
        "dataset/inspections.csv": "4d9f10bc304c88eb10d91d36dd95076104b8208b053e19e31f79ba3baae33da6",
        "private/world.json": "8d9c528f3e813d04df62d6ffd1dd4dac46f6508fc46394cda865632e6d72722e",
        "private/ground_truth.json": "fd8094d71882ee7f45e6b9acd358c6c496a2f482d0e08ca124e611bdb538afc9",
        "validation.json": "8ed0184584fdec4f93646cd7f00466f75cdd433492ebee740f3679b06c7e4665",
    },
    "small-seed5-many-meals": {
        "dataset/queries.jsonl": "d776b681c5515abe5367a5b1f413d05a596dbffa8d0ce70b4d245382f7c0c0d6",
        "dataset/visits.csv": "e12a99c37e7a7e98c12c79e3bd653caed28507245feac8939b807e6a5f7f7bee",
        "dataset/restaurants.csv": "1dd9ab4951fdacb4eadb9ee6461d137d6b8d94d6432146f210cf40197262755e",
        "dataset/inspections.csv": "3c0e03714a5622a916b46e18e2819b3ea2c47b5f6f17c41302e13764c056e9d4",
        "private/world.json": "cdae95ca1cf78aab626ad583a6ef2e887ac01c14f23efe4c17c8d69cacc21278",
        "private/ground_truth.json": "fcbf09310c063fc433e92550ac731ee441066c6b50e85bf5b9cd20810773717e",
        "validation.json": "225bfe5d1fedace3aa327d5bfab38d0dbb615e9a916060d19b426ae6f58e415b",
    },
    "small-seed5-fixed-incubation": {
        "dataset/queries.jsonl": "d1e88a67c6a7e0307edbde3660386a37f2f255f610568196fc8bca57da47e218",
        "dataset/visits.csv": "7b5d822c99ce56b60bfbabf7981e0b1826a281455139d440b8b510821e8c0ae7",
        "dataset/restaurants.csv": "1dd9ab4951fdacb4eadb9ee6461d137d6b8d94d6432146f210cf40197262755e",
        "dataset/inspections.csv": "6c6b7c657685ef1bfa4402a6b2723f967b15ffa46fd833fc3cf1ec1f55bced46",
        "private/world.json": "b57622b6093999018fecc6c77d59e29ce277d3893008e4d1393a808b6fe7c411",
        "private/ground_truth.json": "416b4bb4c43926482e0d6d25e5cae45cf20c350bf6ed3629c248115655817f9f",
        "validation.json": "e8f3fcf7c0bb59de23dba80c181e1886d59722a6ae014dec6451ef86ba354958",
    },
    # 1,000 users over 20 days: lane blocks of 8, 8 and 4 days (see
    # test_three_block_config_ends_in_a_partial_block); recorded before the
    # simulator drew blocks of days as one lane set
    "small-seed5-three-blocks": {
        "dataset/queries.jsonl": "a2bf725fbe4423e2aece21473f59db239b16c1aa38ec8fc15641800ce1a22c7e",
        "dataset/visits.csv": "e289ec79b23032a10ce68433e6d2120f57eeb60b5c023b0ef981d3fd6a165529",
        "dataset/restaurants.csv": "1dd9ab4951fdacb4eadb9ee6461d137d6b8d94d6432146f210cf40197262755e",
        "dataset/inspections.csv": "bf904b05ab4e95ce0608ea819c6737cb0a8c5d1fafe304c284adae89650b583a",
        "private/world.json": "ecfcb2ff22dd5b6cac9147fd7da1401793541104b343d871c3e6f5cdc3bb5715",
        "private/ground_truth.json": "c4e81ac1bf7a3ee7d10c84851849c1c88e9b759d58b9ca305aa072c015f38395",
        "validation.json": "20d5afde3db1dec8c78230ba1d034c40e574f815bcb6533c49f6bf5ff7a3e27b",
    },
}

SIMULATE_CONFIGS = {
    "small-seed5": small_config(5),
    "default-seed0": RunConfig(seed=0),
    "small-seed5-complaints": small_config(5, ["sim.p_complaint_given_ill=0.9", "sim.p_frivolous_complaint=0.2"]),
    "small-seed5-one-restaurant": small_config(5, ["sim.cities=A:1,B:3"]),
    "small-seed5-no-meals": small_config(5, ["sim.meals_per_day=0"]),
    "small-seed5-no-background": small_config(5, ["sim.background_queries_per_day=0"]),
    "small-seed5-many-meals": small_config(5, ["sim.meals_per_day=12"]),
    "small-seed5-fixed-incubation": small_config(5, ["sim.incubation_sigma=0"]),
    "small-seed5-three-blocks": small_config(5, ["days=20", "sim.n_users=1000"]),
}


def test_three_block_config_ends_in_a_partial_block():
    config = SIMULATE_CONFIGS["small-seed5-three-blocks"]
    days_per_block = citysim.LANE_BLOCK // config.sim.n_users
    blocks, last = divmod(config.days, days_per_block)
    assert blocks >= 2 and 0 < last


@pytest.mark.parametrize("name", sorted(SIMULATE_HASHES))
def test_simulate_stage_bytes_are_pinned(tmp_path, name):
    config = SIMULATE_CONFIGS[name]
    pipeline.stage_simulate(config, tmp_path)
    written = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}
    assert written == set(SIMULATE_HASHES[name])
    got = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in written}
    assert got == SIMULATE_HASHES[name]


def assert_same_log(got, expected):
    """Every table and column of two query or visit logs equal, dtypes included."""
    for field in fields(got):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@pytest.mark.parametrize(
    "config",
    [small_config(seed) for seed in range(5)] + list(SIMULATE_CONFIGS.values()),
    ids=[f"small-seed{seed}" for seed in range(5)] + list(SIMULATE_CONFIGS),
)
def test_lane_simulator_equals_the_scalar_oracle(config):
    sim_seed = derive_seed(config.seed, "citysim")
    world = generate_world(config.sim, sim_seed)
    user_ids = pseudonyms(world.users, config.privacy.hash_key_int())
    dataset, truth = pipeline.simulate(world, config.days, sim_seed, user_ids)
    expected, expected_truth = simulate_oracle(world, config.days, sim_seed, user_ids)
    assert_same_log(dataset.queries, expected.queries)
    assert_same_log(dataset.visits, expected.visits)
    assert dataset.restaurants == expected.restaurants
    assert dataset.inspections == expected.inspections
    assert truth == expected_truth


# sha256 of released_aggregates.csv and daily_lists.csv from the daily lists
# of small-seed5 with links from the truth labels, so no trained model (and
# no BLAS call) is involved; recorded before the release was vectorized.
DAILY_LIST_HASHES = {
    "privacy-on": (
        "bebb1464619a7c7c8d7efdae8cb11aea0460d6731ca845cf8522fea891c3dc52",
        "56c5f366cca457501df9998ca0cc5ef7960ae31f6fe68e1beb59389f3d2399ba",
    ),
    "privacy-off": (
        "d3868d937678603ea9d60c380b78edd98600ea25dcaf3c755a4afff23b0baacc",
        "64de142478a0e040bd3e2433f2c0202ef4c05ea8bc2fd9b70fe45f233a544965",
    ),
    "no-suppression": (
        "c52e0562e6c3b71da181e33e50f6ead22a971ed9154a4106b46168fdd8e57889",
        "c21cb8cbf30780cde2566d57503922671daa8ad70f77df54b362fc8b50da10e9",
    ),
}
DAILY_LIST_PRIVACY = {
    "privacy-on": [],
    "privacy-off": ["privacy.enabled=false"],
    "no-suppression": ["privacy.suppress_below=0"],
}


@pytest.fixture(scope="module")
def truth_linked_small():
    config = small_config(5)
    _, dataset, truth = pipeline.compute_simulation(config)
    queries = dataset.queries
    scored = ScoredQueries(queries.users, queries.user, queries.ts, np.asarray(truth.query_labels, dtype=float))
    links = privacy.cap_contributions(link_exposures(dataset.visits, scored, config.locmodel))
    return config, dataset, links


@pytest.mark.parametrize("name", sorted(DAILY_LIST_HASHES))
def test_daily_list_bytes_are_pinned(tmp_path, truth_linked_small, name):
    config, dataset, links = truth_linked_small
    config = apply_overrides(config, DAILY_LIST_PRIVACY[name])
    daily = pipeline.compute_daily_lists(config, dataset.visits, dataset.registry(), links)
    report_mod.write_csv(tmp_path / "released.csv", report_mod.RELEASED_HEADER, daily.released_rows)
    report_mod.write_csv(tmp_path / "daily.csv", report_mod.DAILY_LIST_HEADER, daily.daily_rows)
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("released.csv", "daily.csv"))
    assert got == DAILY_LIST_HASHES[name]


def shortlist_from_release(released_rows, registry, config):
    """daily_lists.csv's rows from released_aggregates.csv's rows alone: from
    each day after the warm-up, the unsuppressed cells with enough visitors and
    signal, strongest signal first (ties: more visitors, then id), at most
    max_daily_inspections per city, skipping restaurants listed within the
    cooldown. The released cells' fields are copied as written."""
    by_day = {}
    for row in released_rows:
        by_day.setdefault((Date.fromisoformat(row[0]) - SIM_EPOCH_DATE).days - 1, []).append(row)
    rows, last_listed = [], {}
    for day in sorted(by_day):
        if day < config.cli.warmup_days:
            continue
        cells = [
            row
            for row in by_day[day]
            if row[8] == "False" and float(row[4]) >= config.locmodel.min_visitors and float(row[7]) >= config.locmodel.cutoff
        ]
        per_city = {}
        for date, rid, _, _, visitors, affected, proportion, signal, _ in sorted(
            cells, key=lambda row: (-float(row[7]), -float(row[4]), row[1])
        ):
            city = registry[rid].city
            if day - last_listed.get(rid, -math.inf) < config.cli.cooldown_days:
                continue
            if per_city.get(city, 0) >= config.cli.max_daily_inspections:
                continue
            per_city[city] = per_city.get(city, 0) + 1
            last_listed[rid] = day
            rows.append([date, rid, city, registry[rid].risk_level.value, visitors, affected, proportion, signal])
    return rows


@pytest.mark.parametrize("name", sorted(DAILY_LIST_PRIVACY))
@pytest.mark.parametrize("lists", [[], ["cli.max_daily_inspections=3", "cli.cooldown_days=2", "locmodel.min_visitors=5"]])
def test_daily_lists_follow_from_the_release_alone(tmp_path, truth_linked_small, name, lists):
    # the structural gate: nothing but the released cells, the registry and
    # the config decides which restaurants are listed; the second list
    # setting makes the per-city cap and the cooldown bind
    config, dataset, links = truth_linked_small
    config = apply_overrides(config, DAILY_LIST_PRIVACY[name] + lists)
    daily = pipeline.compute_daily_lists(config, dataset.visits, dataset.registry(), links)
    report_mod.write_csv(tmp_path / "released.csv", report_mod.RELEASED_HEADER, daily.released_rows)
    report_mod.write_csv(tmp_path / "daily.csv", report_mod.DAILY_LIST_HEADER, daily.daily_rows)
    _, released_rows = report_mod.read_csv(tmp_path / "released.csv", report_mod.RELEASED_HEADER)
    rows = shortlist_from_release(released_rows, dataset.registry(), config)
    assert len(rows) >= 8
    report_mod.write_csv(tmp_path / "recomputed.csv", report_mod.DAILY_LIST_HEADER, rows)
    assert (tmp_path / "recomputed.csv").read_bytes() == (tmp_path / "daily.csv").read_bytes()


def test_short_high_recall_stratum_still_gives_a_full_eval_sample():
    # at seed 54 the default run's stratum holds fewer than eval_size / 2
    # texts outside the training set, so the full stream tops the sample up
    config = RunConfig(seed=54)
    _, dataset, _ = pipeline.compute_simulation(config)
    queries = dataset.queries
    train_texts = pipeline.compute_weak_labels(config, queries).texts()
    stratum = {e.text for e, hit in zip(dataset.queries, has_foodborne_click(queries)) if hit} - train_texts
    assert len(stratum) < config.wsm.eval_size // 2
    sample = build_eval_sample(queries, config.wsm.eval_size, derive_seed(54, "wsm-eval"), exclude_texts=train_texts)
    texts = {e.text for e in sample}
    assert len(texts) == len(sample) == config.wsm.eval_size
    assert stratum <= texts and not (texts & train_texts)


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


@pytest.mark.parametrize("extra", [[], ["privacy.enabled=false"]])
def test_benchmark_counters_accept_what_rank_returns(monkeypatch, tmp_path, small_run, extra):
    # The traced pass hands these results to the benchmark's counters, so
    # their types must keep what the counters read: len() and .suppressed of
    # the release, the daily rows, and len() of every table written.
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    counted = (
        (pipeline, "release", tracing._count_release),
        (pipeline, "compute_daily_lists", tracing._count_daily_lists),
        (report_mod, "write_csv", tracing._count_write_csv),
    )
    calls = []

    def recording(function, count):
        def call(*args, **kwargs):
            result = function(*args, **kwargs)
            calls.append((count, result, args, kwargs))
            return result

        return call

    for module, attr, count in counted:
        monkeypatch.setattr(module, attr, recording(getattr(module, attr), count))
    out = tmp_path / "run"
    shutil.copytree(small_run[0], out)
    pipeline.stage_rank(small_config(extra=extra), out)
    tracer = tracing.Tracer("rank")
    for count, result, args, kwargs in calls:
        count(tracer, result, args, kwargs)

    def rows(name):
        return list(report_mod.read_csv(out / name)[1])

    released, daily = rows(report_mod.RELEASED_CSV), rows(report_mod.DAILY_LISTS_CSV)
    written = [released, daily, rows(SCORED_CSV), rows(LINKS_CSV)]
    assert [count for count, *_ in calls].count(tracing._count_write_csv) == len(written)
    assert tracer.counts["report.csv_rows_written"] == sum(map(len, written))
    assert tracer.counts["privacy.release_cells"] == len(released)
    assert tracer.counts["privacy.suppressed_cells"] == sum(row[-1] == "True" for row in released)
    assert tracer.counts["pipeline.shortlisted"] == len(daily) > 0
    assert tracer.counts["pipeline.days_listed"] == len({row[0] for row in daily})
