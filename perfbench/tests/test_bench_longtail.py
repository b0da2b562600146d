"""The long_tail rewrite removes repetition and nothing else."""

import json
from collections import Counter

from foodwatch import pipeline
from foodwatch.config import apply_overrides, RunConfig
from foodwatch.logdata import load_queries

from perfbench.longtail import rewrite_queries
from perfbench.tracing import feature_key, feature_reuse


def _simulate(out):
    config = apply_overrides(RunConfig(), ["seed=5", "days=3", "sim.n_users=150"])
    pipeline.stage_simulate(config, out)
    return out / "dataset" / "queries.jsonl"


def _reuse(path):
    return feature_reuse({0: Counter(feature_key(e) for e in load_queries(path))})


def test_rewrite_removes_key_reuse_and_keeps_everything_else(tmp_path):
    path = _simulate(tmp_path)
    truth_before = (tmp_path / "private" / "ground_truth.json").read_bytes()
    before = [json.loads(line) for line in path.read_text().splitlines()]
    assert _reuse(path)["features.key_reuse"] > 0.2

    assert rewrite_queries(path, seed=5) == len(before)

    after = [json.loads(line) for line in path.read_text().splitlines()]
    assert _reuse(path)["features.key_reuse"] == 0
    assert len(after) == len(before)
    for old, new in zip(before, after):
        token = new["text"].rsplit(" ", 1)[1]
        assert new["text"] == f"{old['text']} {token}"
        assert (new["user_id"], new["ts"]) == (old["user_id"], old["ts"])
        assert len(new["results"]) == len(old["results"])
        for old_page, new_page in zip(old["results"], new["results"]):
            assert new_page == dict(old_page, snippet=f"{old_page['snippet']} {token}")
    assert (tmp_path / "private" / "ground_truth.json").read_bytes() == truth_before


def test_rewrite_is_deterministic_under_the_seed(tmp_path):
    a, b, c = (_simulate(tmp_path / name) for name in "abc")
    rewrite_queries(a, seed=1)
    rewrite_queries(b, seed=1)
    rewrite_queries(c, seed=2)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
