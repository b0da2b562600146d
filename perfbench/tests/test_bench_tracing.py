"""Self-time arithmetic and the determinism of traced counts."""

import math
from dataclasses import replace

import pytest

from perfbench.harness import WORKLOADS, traced_pass
from perfbench.tracing import LAYERS, LAYER_METRICS, Tracer, layer_metrics, self_times

# A small daily job that still trains: enough users for the negative pool.
SMALL_DAILY = replace(
    WORKLOADS["daily_rank_long"],
    overrides=("days=8", "sim.n_users=400", "sim.cities=A:30,B:30"),
)


def test_self_time_of_a_hand_built_tree():
    # root [0, 10] with children [1, 4] and [5, 9]; [5, 9] has a child [6, 7]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert self_times(parents, starts, ends) == [3.0, 3.0, 3.0, 1.0]
    assert sum(self_times(parents, starts, ends)) == ends[0] - starts[0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    parents = [-1, 0, 0, 0]
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]  # [1, 4] and [3, 6] overlap; [8, 12] leaves the parent
    assert self_times(parents, starts, ends)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_restores_every_entry_point():
    from foodwatch import pipeline, wsm

    before = (pipeline.aggregate_restaurants, wsm.featurize)
    with Tracer("t").instrument():
        assert pipeline.aggregate_restaurants is not before[0]
        assert wsm.featurize is not before[1]
    assert (pipeline.aggregate_restaurants, wsm.featurize) == before


@pytest.fixture(scope="module")
def two_passes(tmp_path_factory):
    passes = []
    for i in range(2):
        tracer = Tracer(f"pass{i}")
        _, timed_first = traced_pass(SMALL_DAILY, 3, tmp_path_factory.mktemp(f"pass{i}"), tracer)
        passes.append(layer_metrics(tracer, timed_first))
    return passes


def test_two_traced_passes_of_one_seed_count_the_same(two_passes):
    first, second = two_passes
    counts = [name for name, unit in LAYER_METRICS.items() if unit != "s"]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["features.featurize_calls"] > 0
    assert first["privacy.release_cells"] > 0


def test_layer_self_times_add_up_to_the_traced_run(two_passes):
    metrics = two_passes[0]
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS + ("bench",))
    assert math.isclose(total, metrics["trace.run_s"], rel_tol=1e-9)
    assert metrics["trace.total_s"] > metrics["trace.run_s"] > 0
