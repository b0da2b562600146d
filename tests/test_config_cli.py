from dataclasses import fields, is_dataclass, replace

import pytest

from foodwatch import cli, pipeline
from foodwatch.config import (
    RunConfig,
    apply_overrides,
    config_hash,
    config_lines,
    parse_config_file,
    set_key,
)
from foodwatch.errors import NumericalError, UsageError


def test_defaults_document_every_key():
    lines = config_lines(RunConfig())
    keys = {l.split("=", 1)[0] for l in lines}
    assert {"seed", "days", "sim.n_users", "wsm.epochs", "locmodel.p_star",
            "privacy.epsilon", "cli.max_daily_inspections"} <= keys


def test_settings_surface_is_pinned():
    # moving a settings class must not reorder, add or drop a key
    assert len(config_lines(RunConfig())) == 49
    assert config_hash(RunConfig()) == "2072a04af11165d90b401e188bdda1fb4ed1c6351230ed7a493e4c10c1c67561"


def test_config_lines_round_trip_through_set_key():
    config = RunConfig()
    rebuilt = RunConfig()
    for line in config_lines(config):
        key, value = line.split("=", 1)
        rebuilt = set_key(rebuilt, key, value)
    assert rebuilt == config
    assert config_hash(rebuilt) == config_hash(config)


def _changed(value):
    """A different value of the same type that every settings check accepts."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 2  # keeps wsm.eval_size even
    if isinstance(value, float):
        return value / 2  # keeps probabilities in [0, 1] and positive values positive
    if isinstance(value, str):
        return value[::-1]
    if isinstance(value, dict):
        return {**value, "Z": 3}
    return tuple(reversed(value))


def test_every_field_is_listed_and_round_trips_or_is_refused():
    config = RunConfig()
    listed = dict(line.split("=", 1) for line in config_lines(config))
    refused = {}
    for top in fields(RunConfig):
        section = getattr(config, top.name)
        if not is_dataclass(section):
            members = [(top.name, None, top.name, section)]
        else:
            members = [(f"{top.name}.{f.name}", top.name, f.name, getattr(section, f.name))
                       for f in fields(section)]
        for key, section_name, name, value in members:
            if key not in listed:
                with pytest.raises(UsageError, match="unknown config key"):
                    set_key(config, key, "x")
                refused[key] = value
                continue
            if section_name is None:
                changed = replace(config, **{name: _changed(value)})
            else:
                owner = getattr(config, section_name)
                changed = replace(config, **{section_name: replace(owner, **{name: _changed(value)})})
            rendered = dict(line.split("=", 1) for line in config_lines(changed))
            assert set_key(config, key, rendered[key]) == changed, key
            del listed[key]
    assert not listed  # config_lines lists no key that is not a field
    assert {"sim.positive_templates", "sim.localities"} <= set(refused)
    # only the query template pools are out of reach of config files
    assert all(isinstance(v, tuple) and all(isinstance(s, str) for s in v) for v in refused.values())


def test_unknown_key_rejected():
    with pytest.raises(UsageError, match="unknown config key"):
        set_key(RunConfig(), "wsm.bogus", "1")
    with pytest.raises(UsageError, match="unknown config key"):
        set_key(RunConfig(), "nonsense", "1")


def test_type_coercion_and_errors():
    config = set_key(RunConfig(), "locmodel.window_s", "100000")
    assert config.locmodel.window_s == 100000
    config = set_key(config, "privacy.enabled", "false")
    assert config.privacy.enabled is False
    with pytest.raises(UsageError, match="expected int"):
        set_key(RunConfig(), "days", "ten")


def test_cities_and_triples():
    config = set_key(RunConfig(), "sim.cities", "X:5, Y:7")
    assert config.sim.cities == {"X": 5, "Y": 7}
    config = set_key(config, "sim.risk_mix", "0.5,0.3,0.2")
    assert config.sim.risk_mix == (0.5, 0.3, 0.2)
    with pytest.raises(UsageError):
        set_key(config, "sim.risk_mix", "0.5,0.5")


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "seed=11\n"
        "days=9   # trailing comment\n"
        "locmodel.p_star=0.8\n"
    )
    config = parse_config_file(path)
    assert config.seed == 11 and config.days == 9
    assert config.locmodel.p_star == 0.8
    config = apply_overrides(config, ["days=4"])
    assert config.days == 4


def test_overrides_are_checked_key_by_key():
    # each assignment builds a checked section, so the cross-field incubation
    # check sees the intermediate value, and the order of assignments matters
    zero_sigma = apply_overrides(RunConfig(), ["sim.incubation_sigma=0"])
    config = apply_overrides(zero_sigma, ["sim.incubation_sigma=0.5", "sim.incubation_median_h=100"])
    assert config.sim.incubation_median_h == 100.0
    with pytest.raises(UsageError, match="sim.incubation_median_h must lie in"):
        apply_overrides(zero_sigma, ["sim.incubation_median_h=100", "sim.incubation_sigma=0.5"])


def test_config_file_bad_line_reports_position(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed=1\nnot-a-pair\n")
    with pytest.raises(UsageError, match="run.cfg:2"):
        parse_config_file(path)


def test_cli_usage_error_exit_code(capsys):
    assert cli.main(["bogus-command"]) == cli.EXIT_USAGE
    assert cli.main([]) == cli.EXIT_USAGE


def test_cli_unknown_key_is_usage_error(tmp_path):
    code = cli.main(["simulate", "--out", str(tmp_path), "--set", "nope=1"])
    assert code == cli.EXIT_USAGE


def test_cli_zero_days_is_data_error(tmp_path, capsys):
    code = cli.main(["run", "--out", str(tmp_path), "--days", "0", "--seed", "1"])
    assert code == cli.EXIT_DATA
    assert "days" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["0", "-2"])
def test_cli_aggregation_window_below_one_day_is_usage_error(tmp_path, capsys, width):
    code = cli.main(["rank", "--out", str(tmp_path), "--set", f"locmodel.agg_window_days={width}"])
    assert code == cli.EXIT_USAGE
    assert "locmodel.agg_window_days" in capsys.readouterr().err


def test_cli_numerical_failures_exit_three(monkeypatch, tmp_path):
    def explode(config, out):
        raise NumericalError("quasi-separation")

    monkeypatch.setattr(pipeline, "stage_simulate", explode)
    code = cli.main(["simulate", "--out", str(tmp_path)])
    assert code == cli.EXIT_NUMERICAL


def test_cli_config_keys_listing(capsys):
    assert cli.main(["config-keys"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "locmodel.window_s=259200" in out
    assert "privacy.epsilon=1.0" in out


def test_cli_missing_config_file_is_usage_error(tmp_path, capsys):
    code = cli.main(["simulate", "--out", str(tmp_path), "--config", str(tmp_path / "nope.cfg")])
    assert code == cli.EXIT_USAGE
    assert "not found" in capsys.readouterr().err


def test_cli_missing_artifacts_are_data_errors(tmp_path, capsys):
    # train-wsm before simulate: the dataset files do not exist yet
    assert cli.main(["train-wsm", "--out", str(tmp_path)]) == cli.EXIT_DATA
    # report before evaluate: names the missing table
    assert cli.main(["report", "--out", str(tmp_path)]) == cli.EXIT_DATA
    assert "risk_distribution.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting, exit_code",
    [
        ("rank", "privacy.epsilon=0", cli.EXIT_USAGE),
        ("rank", "privacy.epsilon=nan", cli.EXIT_USAGE),
        ("rank", "privacy.suppress_below=-1", cli.EXIT_USAGE),
        ("rank", "privacy.hash_key=zz", cli.EXIT_USAGE),
        ("rank", "locmodel.cutoff=2", cli.EXIT_USAGE),
        ("eval-wsm", "wsm.eval_size=61", cli.EXIT_USAGE),
        ("train-wsm", "wsm.neg_ratio=0", cli.EXIT_USAGE),
        ("train-wsm", "wsm.batch_size=0", cli.EXIT_USAGE),
        ("train-wsm", "wsm.epochs=-1", cli.EXIT_USAGE),
        ("simulate", "sim.meals_per_day=-1", cli.EXIT_USAGE),
        ("simulate", "sim.background_queries_per_day=-0.5", cli.EXIT_USAGE),
    ],
)
def test_cli_out_of_range_settings_are_rejected(tmp_path, capsys, command, setting, exit_code):
    code = cli.main([command, "--out", str(tmp_path), "--set", setting])
    assert code == exit_code
    assert setting.split("=")[0] in capsys.readouterr().err
