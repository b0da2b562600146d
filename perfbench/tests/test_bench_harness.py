"""Failed repetitions are recorded, not fatal."""

from dataclasses import replace

from perfbench.harness import WORKLOADS, run_repetition, timed_run


def test_unknown_config_key_fails_the_repetition(tmp_path):
    workload = replace(WORKLOADS["full_run"], setup_repeats=1)
    result = timed_run(workload, 0, seconds=0, work=tmp_path, extra=("bogus.key=1",))
    assert result["attempted"] == 2
    assert result["failed"] == 2
    assert "run exited 1" in result["checks"][0][0]
    assert "unknown config key" in result["checks"][0][0]


def test_data_error_exit_2_fails_the_repetition(tmp_path):
    empty = tmp_path / "prepared"
    empty.mkdir()
    rep = run_repetition(WORKLOADS["daily_rank_long"], 0, empty, tmp_path / "rep0")
    assert not rep.ok
    assert rep.problems[0].startswith("rank exited 2")


def test_classifier_floors_are_judged_on_the_default_run_and_long_tail():
    from perfbench.harness import quality_floors_judged

    assert quality_floors_judged(WORKLOADS["full_run"], 0)
    assert not quality_floors_judged(WORKLOADS["full_run"], 6)
    assert quality_floors_judged(WORKLOADS["long_tail"], 0)
    assert quality_floors_judged(WORKLOADS["long_tail"], 6)


def test_floor_misses_fail_or_warn(tmp_path):
    from foodwatch.report import METRICS_CSV

    from perfbench.harness import check_outputs

    (tmp_path / METRICS_CSV).write_text("metric,value\nroc_auc,0.9\nf1,0.6\n", encoding="utf-8")
    problems, warnings = check_outputs(WORKLOADS["long_tail"], 6, tmp_path, ("eval-wsm",))
    assert problems == ["F1 0.6 below 0.65"] and warnings == []
    problems, warnings = check_outputs(WORKLOADS["full_run"], 6, tmp_path, ("eval-wsm",))
    assert problems == [] and warnings == ["F1 0.6 below 0.65"]
