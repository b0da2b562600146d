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


def test_config_lines_round_trip_through_set_key():
    config = RunConfig()
    rebuilt = RunConfig()
    for line in config_lines(config):
        key, value = line.split("=", 1)
        rebuilt = set_key(rebuilt, key, value)
    assert rebuilt == config
    assert config_hash(rebuilt) == config_hash(config)


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
