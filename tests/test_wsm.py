import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodwatch.errors import DataError, NumericalError, UsageError
from foodwatch.features import DIM, FeatureRows, bucket, feature_key, featurize
from foodwatch.seeding import make_rng
from foodwatch.wsm import (
    LabeledSet,
    Provenance,
    WsmModel,
    WsmSettings,
    build_eval_sample,
    evaluate_wsm,
    has_foodborne_click,
    is_weak_positive,
    load_model,
    _sigmoid,
    _weighted_sample_without_replacement,
    loss_and_gradient,
    roc_auc,
    save_model,
    score_queries,
    score_query,
    train_wsm,
    weak_label,
)

from conftest import FOOD_TAG, page, query
from oracles import logistic_oracle


# --- weak labeling -----------------------------------------------------------


def test_dwell_rule_positive():
    event = query(results=[page(dwell=45.0)])
    assert is_weak_positive(event, 30.0)


def test_unclicked_page_never_positive():
    event = query(results=[page(clicked=False, dwell=0.0)])
    assert not is_weak_positive(event, 30.0)
    assert not has_foodborne_click(event)


def test_short_dwell_not_positive():
    assert not is_weak_positive(query(results=[page(dwell=29.9)]), 30.0)


def make_stream(n_pos=10, n_neg=300, n_lowdwell=0):
    events = []
    for i in range(n_pos):
        events.append(query(f"p{i}", i, f"sick query {i}", [page(dwell=40 + i)]))
    for i in range(n_lowdwell):
        events.append(query(f"l{i}", 500 + i, f"curious query {i}", [page(dwell=5.0)]))
    for i in range(n_neg):
        events.append(query(f"n{i}", 1000 + i, f"background query {i}"))
    return events


def test_weak_label_counts_and_disjointness_vs_bruteforce():
    stream = make_stream()
    labeled = weak_label(stream, WsmSettings(dwell_threshold_s=30, neg_ratio=10), seed=7)
    positives = {e.text for e, y in labeled.examples if y == 1}
    negatives = {e.text for e, y in labeled.examples if y == 0}
    # oracle: brute-force filter over the stream
    rule = lambda e: any(
        p.clicked and "foodborne_illness" in p.concept_tags and p.dwell_s >= 30
        for p in e.results
    )
    expected_pos = {e.text for e in stream if rule(e)}
    pool = {e.text for e in stream if not rule(e)} - expected_pos
    assert positives == expected_pos
    assert len(negatives) == 10 * len(positives)
    assert negatives <= pool and not (negatives & expected_pos)


def test_weak_label_dedups_by_first_occurrence():
    stream = [
        query("a", 0, "same text", [page(dwell=50)]),
        query("b", 1, "same text", [page(dwell=99)]),
        query("c", 2, "other"),
        query("d", 3, "another"),
    ]
    labeled = weak_label(stream, WsmSettings(neg_ratio=1), seed=0)
    pos = [e for e, y in labeled.examples if y == 1]
    assert len(pos) == 1 and pos[0].user_id == "a"
    texts = [e.text for e, _ in labeled.examples]
    assert len(texts) == len(set(texts))


def test_weak_label_no_positives_errors():
    with pytest.raises(DataError, match="no weak positives"):
        weak_label([query(text="nothing here")], seed=0)


def test_weak_label_deterministic():
    stream = make_stream()
    a = weak_label(stream, seed=42)
    b = weak_label(stream, seed=42)
    assert [(e.text, y) for e, y in a.examples] == [(e.text, y) for e, y in b.examples]


# --- training ----------------------------------------------------------------


def separable_set(n_per_class=10):
    pos = [query(f"p{i}", i, f"alpha bravo {i}") for i in range(n_per_class)]
    neg = [query(f"n{i}", i, f"zulu yankee {i}") for i in range(n_per_class)]
    examples = [(e, 1) for e in pos] + [(e, 0) for e in neg]
    return LabeledSet(tuple(examples), Provenance.WEAK_AUTO)


def test_zero_epochs_scores_half():
    # zero epochs is refused as a setting, so build the untrained model directly
    with pytest.raises(UsageError, match="wsm.epochs"):
        WsmSettings(epochs=0)
    model = zero_model()
    for e, _ in separable_set().examples:
        assert score_query(model, e) == 0.5


def test_separable_set_reaches_perfect_accuracy():
    labeled = separable_set()
    model = train_wsm(labeled, WsmSettings(l2=1e-4, epochs=40, learning_rate=0.1), seed=0)
    correct = sum(
        (score_query(model, e) >= 0.5) == bool(y) for e, y in labeled.examples
    )
    assert correct == len(labeled.examples)


def test_loss_non_increasing_across_epochs_default_schedule():
    model = train_wsm(separable_set(), WsmSettings(l2=1e-4, epochs=8, learning_rate=0.1), seed=3)
    losses = model.epoch_losses
    assert all(losses[i + 1] <= losses[i] + 1e-12 for i in range(len(losses) - 1))


def test_gradient_matches_central_finite_differences():
    labeled = separable_set(8)
    vectors = [np.array(featurize(e), dtype=np.intp) for e, _ in labeled.examples]
    rows = FeatureRows.of(vectors)
    labels = np.array([y for _, y in labeled.examples], dtype=float)
    rng = make_rng(123, "gradcheck")
    weights = rng.normal(0, 0.5, DIM)
    intercept = 0.3
    l2 = 1e-4
    _, grad_w, grad_b = loss_and_gradient(weights, intercept, rows, labels, l2)

    h = 1e-5
    active = sorted({i for v in vectors for i in v.tolist()})
    coords = [active[int(rng.integers(len(active)))] for _ in range(5)]
    for j in coords:
        wp, wm = weights.copy(), weights.copy()
        wp[j] += h
        wm[j] -= h
        lp, _, _ = loss_and_gradient(wp, intercept, rows, labels, l2)
        lm, _, _ = loss_and_gradient(wm, intercept, rows, labels, l2)
        fd = (lp - lm) / (2 * h)
        assert abs(grad_w[j] - fd) / max(abs(fd), 1e-12) < 1e-5
    lp, _, _ = loss_and_gradient(weights, intercept + h, rows, labels, l2)
    lm, _, _ = loss_and_gradient(weights, intercept - h, rows, labels, l2)
    fd_b = (lp - lm) / (2 * h)
    assert abs(grad_b - fd_b) / max(abs(fd_b), 1e-12) < 1e-5


def test_loss_and_gradient_match_per_example_oracle():
    rng = make_rng(5, "grad-oracle")
    vocab = [f"w{i}" for i in range(40)]
    events = [
        query(f"u{i}", i, " ".join(vocab[int(k)] for k in rng.integers(0, 40, size=int(rng.integers(0, 12)))))
        for i in range(300)
    ]  # 0 to 11 tokens: empty rows, and margins longer than numpy's 8-way unrolled sum
    vectors = [np.array(featurize(e), dtype=np.intp) for e in events]
    rows = FeatureRows.of(vectors)
    labels = (rng.random(len(events)) < 0.4).astype(float)
    weights = rng.normal(0, 0.5, DIM)
    intercept, l2 = -0.3, 1e-3

    batch = rng.permutation(len(events))[:128]  # a mini-batch, as training takes it
    for take, which in ((rows, np.arange(len(events))), (rows.take(batch), batch)):
        loss, grad_w, grad_b = loss_and_gradient(weights, intercept, take, labels[which], l2)
        o_loss, o_grad_w, o_grad_b = logistic_oracle(
            weights, intercept, [vectors[i] for i in which], labels[which], l2, _sigmoid
        )
        assert np.array_equal(grad_w, o_grad_w) and grad_b == o_grad_b
        assert abs(loss - o_loss) <= 1e-12 * abs(o_loss)


def test_single_class_errors():
    labeled = LabeledSet(tuple((query(text=f"t{i}"), 1) for i in range(5)), Provenance.WEAK_AUTO)
    with pytest.raises(DataError, match="both classes"):
        train_wsm(labeled, seed=0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_divergence_is_reported():
    with pytest.raises(NumericalError, match="diverged"):
        train_wsm(separable_set(), WsmSettings(l2=1e-4, epochs=3, learning_rate=1e200), seed=0)


def test_training_deterministic_under_seed():
    a = train_wsm(separable_set(), WsmSettings(l2=1e-4, epochs=5, learning_rate=0.1), seed=9)
    b = train_wsm(separable_set(), WsmSettings(l2=1e-4, epochs=5, learning_rate=0.1), seed=9)
    assert np.array_equal(a.weights, b.weights) and a.intercept == b.intercept


# --- scoring -----------------------------------------------------------------


def zero_model():
    return WsmModel(
        weights=np.zeros(DIM), intercept=0.0, hyper=WsmSettings(), train_seed=0,
        final_loss=math.log(2),
    )


def test_zero_model_scores_half_everywhere():
    model = zero_model()
    for text in ("", "anything", "food poisoning"):
        assert score_query(model, query(text=text)) == 0.5


def test_single_feature_ln3_scores_three_quarters():
    weights = np.zeros(DIM)
    weights[bucket("q:marker")] = math.log(3)
    model = WsmModel(weights=weights, intercept=0.0, hyper=WsmSettings(), train_seed=0, final_loss=0.0)
    assert abs(score_query(model, query(text="marker")) - 0.75) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40), st.integers(0, 2**32 - 1))
def test_scores_stay_in_open_unit_interval(text, seed):
    weights = make_rng(seed, "w").normal(0, 2, DIM)
    model = WsmModel(weights=weights, intercept=-0.5, hyper=WsmSettings(), train_seed=0, final_loss=0.0)
    assert 0.0 < score_query(model, query(text=text)) < 1.0


def test_scores_in_unit_interval_for_ten_thousand_events():
    rng = make_rng(99, "bulk")
    weights = rng.normal(0, 3, DIM)
    model = WsmModel(weights=weights, intercept=0.7, hyper=WsmSettings(), train_seed=0, final_loss=0.0)
    vocab = [f"tok{i}" for i in range(500)]
    for _ in range(10_000):
        words = [vocab[int(k)] for k in rng.integers(0, len(vocab), size=4)]
        score = score_query(model, query(text=" ".join(words)))
        assert 0.0 < score < 1.0


def test_batch_scores_equal_per_event_scores():
    rng = make_rng(11, "batch-score")
    weights = rng.normal(0, 1, DIM)
    intercept = -0.2
    model = WsmModel(weights=weights, intercept=intercept, hyper=WsmSettings(), train_seed=0, final_loss=0.0)
    # per text: no page, one page, and that page with one field changed, so
    # a dedupe key that missed a field would merge contents that differ
    contents = [("", ())]
    for i in range(500):
        base = dict(url=f"http://site.org/{i}", title=f"title {i}", snippet=f"snip {i}", tags=(FOOD_TAG,))
        variants = [{}, {"url": f"http://alt.org/{i}"}, {"title": f"other {i}"},
                    {"snippet": f"other snip {i}"}, {"tags": ("health",)}]
        contents.append((f"a{i} b{i} c{i}", ()))
        contents += [(f"a{i} b{i} c{i}", (page(**{**base, **v}),)) for v in variants]
    events = []
    for ts in range(8000):  # the same content by other users, clicked or not
        text, pages = contents[int(rng.integers(len(contents)))]
        clicked = bool(rng.integers(2))
        pages = tuple(page(p.url, p.title, p.snippet, tuple(p.concept_tags), clicked) for p in pages)
        events.append(query(f"u{int(rng.integers(50))}", ts, text, pages))
    assert len({feature_key(e) for e in events}) < len({(e.text, e.results) for e in events})

    scores = score_queries(model, events)
    assert scores.tolist() == [score_query(model, e) for e in events]
    for event, score in zip(events, scores.tolist()):
        z = intercept + sum(weights[j] for j in featurize(event))
        assert score == pytest.approx(1.0 / (1.0 + math.exp(-z)), rel=1e-12)
    assert score_queries(model, []).shape == (0,)


def test_model_file_round_trip(tmp_path):
    model = train_wsm(separable_set(), WsmSettings(l2=1e-4, epochs=2, learning_rate=0.1), seed=1)
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.intercept == model.intercept
    assert loaded.hyper == model.hyper and loaded.train_seed == model.train_seed


def test_model_dim_mismatch_rejected(tmp_path):
    model = train_wsm(separable_set(), WsmSettings(l2=1e-4, epochs=1, learning_rate=0.1), seed=1)
    save_model(model, tmp_path / "m.json")
    payload = (tmp_path / "m.json").read_text().replace("50000", "49999", 1)
    (tmp_path / "bad.json").write_text(payload)
    with pytest.raises(DataError, match="dimension"):
        load_model(tmp_path / "bad.json")


# --- eval sampling -----------------------------------------------------------


def test_forced_two_event_sample():
    stream = [
        query("a", 0, "clicked one", [page(dwell=10)]),
        query("b", 1, "plain one"),
    ]
    sample = build_eval_sample(stream, 2, seed=0)
    assert {e.text for e in sample} == {"clicked one", "plain one"}


def test_eval_sample_deterministic():
    stream = make_stream(n_pos=40, n_neg=600)
    a = build_eval_sample(stream, 40, seed=5)
    b = build_eval_sample(stream, 40, seed=5)
    assert [e.text for e in a] == [e.text for e in b]


def test_eval_sample_stratum_membership_brute_force():
    stream = make_stream(n_pos=40, n_neg=600)
    sample = build_eval_sample(stream, 40, seed=5)
    stratum_texts = {e.text for e in stream if has_foodborne_click(e)}
    in_stratum = sum(e.text in stratum_texts for e in sample[:20])
    assert in_stratum == 20  # first half comes from the high-recall stratum
    texts = [e.text for e in sample]
    assert len(texts) == len(set(texts))


def test_eval_sample_disjoint_from_training():
    stream = make_stream(n_pos=40, n_neg=600, n_lowdwell=30)
    labeled = weak_label(stream, WsmSettings(neg_ratio=2), seed=1)
    sample = build_eval_sample(stream, 20, seed=2, exclude_texts=labeled.texts())
    assert not ({e.text for e in sample} & labeled.texts())


def test_eval_sample_short_stratum_is_filled_from_stream():
    # 3 stratum texts where 20 are asked for: all 3, then 37 from the stream
    stream = make_stream(n_pos=3, n_neg=100)
    texts = [e.text for e in build_eval_sample(stream, 40, seed=0)]
    assert len(texts) == len(set(texts)) == 40
    assert set(texts[:3]) == {"sick query 0", "sick query 1", "sick query 2"}
    assert all(t.startswith("background query") for t in texts[3:])


def test_eval_sample_too_few_texts_reports_count():
    stream = make_stream(n_pos=3, n_neg=30) * 2  # 66 events, 33 distinct texts
    with pytest.raises(DataError, match="have 33"):
        build_eval_sample(stream, 40, seed=0)


def test_eval_sample_odd_n_rejected():
    with pytest.raises(ValueError):
        build_eval_sample(make_stream(), 3, seed=0)


# Weights of 1e300 make u ** (1 / w) round to 1.0, so keys tie and the text
# decides the order.
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(max_size=6), unique=True, max_size=30).flatmap(
        lambda items: st.tuples(
            st.just(items),
            st.lists(st.sampled_from([1, 2, 7, 1e300]), min_size=len(items), max_size=len(items)),
            st.integers(0, len(items)),
            st.integers(0, 2**32 - 1),
        )
    )
)
def test_weighted_sample_equals_the_full_sort(case):
    items, weights, k, seed = case
    u = make_rng(seed, "sample").random(len(items))
    keys = u ** (1.0 / np.asarray(weights, dtype=float))
    order = sorted(range(len(items)), key=lambda i: (-keys[i], items[i]))
    expected = [items[i] for i in order[:k]]
    assert _weighted_sample_without_replacement(items, weights, k, make_rng(seed, "sample")) == expected


# --- metrics -----------------------------------------------------------------


def test_auc_perfect_ranking():
    assert roc_auc([0.9, 0.8, 0.3], [1, 1, 0]) == 1.0


def test_auc_all_tied_is_half():
    assert roc_auc([0.5, 0.5], [1, 0]) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = make_rng(77, "auc")
    n = 1000
    scores = np.round(rng.random(n), 2)  # coarse grid forces plenty of ties
    labels = (rng.random(n) < 0.4).astype(int)
    fast = roc_auc(scores, labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for s in pos:  # O(n^2) reference count
        wins += np.sum(s > neg) + 0.5 * np.sum(s == neg)
    slow = wins / (len(pos) * len(neg))
    assert abs(fast - slow) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_auc_invariant_under_monotone_transform(seed):
    rng = make_rng(seed, "mono")
    scores = rng.random(50)
    labels = np.zeros(50, dtype=int)
    labels[: 20] = 1
    rng.shuffle(labels)
    if labels.sum() in (0, len(labels)):
        return
    base = roc_auc(scores, labels)
    transformed = roc_auc(np.exp(3 * scores) + 7, labels)
    assert abs(base - transformed) < 1e-12


def test_evaluate_single_class_errors():
    model = zero_model()
    eval_set = LabeledSet(tuple((query(text=f"t{i}"), 1) for i in range(4)), Provenance.RATER)
    with pytest.raises(DataError):
        evaluate_wsm(model, eval_set, threshold=0.5)


def test_f1_definition():
    weights = np.zeros(DIM)
    weights[bucket("q:hit")] = 5.0
    model = WsmModel(weights=weights, intercept=-1.0, hyper=WsmSettings(), train_seed=0, final_loss=0.0)
    examples = (
        (query(text="hit one"), 1),
        (query(text="hit two"), 0),
        (query(text="miss"), 1),
        (query(text="other"), 0),
    )
    metrics = evaluate_wsm(model, LabeledSet(examples, Provenance.RATER), threshold=0.5)
    assert metrics.precision == 0.5 and metrics.recall == 0.5
    assert metrics.f1 == pytest.approx(0.5)
