import base64
import hashlib
import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dexter import isolation_forest
from dexter.errors import ConfigError, IncompatibleModelError
from dexter.isolation_forest import (
    IsolationForestModel,
    average_path_length,
    fit,
    harmonic_number,
    score_batch,
)
from dexter.seeding import rng_from
from forest_columns import binary, column_text, column_values, listed


def brute_auroc(scores, labels):
    """Every (positive, negative) pair compared directly, ties counting
    half; positives are taken in chunks to bound the comparison matrix."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    pos, neg = scores[labels], scores[~labels]
    chunk = max(1, (1 << 22) // max(len(neg), 1))
    wins = 0.0
    for start in range(0, len(pos), chunk):
        p = pos[start:start + chunk, None]
        wins += np.count_nonzero(p > neg) + 0.5 * np.count_nonzero(p == neg)
    return wins / (len(pos) * len(neg))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1 << 16) | st.sampled_from([7, 8, 128, 129, (1 << 16) - 1, 1 << 16]))
def test_harmonic_number_sums_as_numpy_does(n):
    """Up to ``_RECIPROCAL_BLOCK`` the sum is NumPy's pairwise sum of one row."""
    want = float(np.sum(1.0 / np.arange(1, n + 1))) if n > 0 else 0.0
    assert harmonic_number(n).hex() == want.hex()


@pytest.mark.parametrize("n", [(1 << 16) + 1, 10**5, 3 << 16, 10**6, 2_345_679, 10**7 - 5, 10**7])
def test_harmonic_number_series_stays_within_4_ulps_of_the_sum(n):
    """Above ``_RECIPROCAL_BLOCK`` the asymptotic series stands in for the
    sum of the reciprocals, here summed with ``math.fsum`` block by block."""
    block = 1 << 20
    exact = math.fsum(math.fsum((1.0 / np.arange(lo, min(lo + block, n + 1))).tolist())
                      for lo in range(1, n + 1, block))
    assert abs(harmonic_number(n) - exact) <= 4 * math.ulp(exact)


def test_a_forest_of_huge_distinct_leaf_sizes_scores_its_first_point_within_a_second():
    """c(n) once cost time linear in n per distinct leaf size: 100 two-leaf
    trees of subsample 10^7 took 0.8-6.4 s to score their first point, so
    these 1000, a 100 kB document, took about ten times that."""
    psi, trees = 10**7, 1000
    doc = {"subsample_size": psi, "feature_count": 1, "seed": 0, "num_training_samples": psi,
           "feature": [0, -1, -1] * trees, "threshold": [0.0] * (3 * trees),
           "left": [1, -1, -1] * trees, "right": [2, -1, -1] * trees,
           "size": [s for k in range(trees) for s in (psi, k + 1, psi - k - 1)],
           "roots": list(range(0, 3 * trees, 3))}
    model = IsolationForestModel.from_json_dict(doc)
    start = time.perf_counter()
    score = score_batch(model, [[-1.0]])[0]
    assert time.perf_counter() - start < 1.0
    assert 0.0 < score < 1.0


def test_a_huge_subsample_size_loads_in_bounded_memory():
    """c(10^7) once materialised 160 MB of reciprocals on load."""
    doc = {"subsample_size": 10**7, "feature_count": 1, "seed": 0, "num_training_samples": 10**7,
           "feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "size": [10**7],
           "roots": [0]}
    tracemalloc.start()
    try:
        model = IsolationForestModel.from_json_dict(doc)
        score = score_batch(model, [[0.0]])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert score == 0.5  # the one leaf's path length is c(psi) itself


def test_the_subsample_size_is_bounded(monkeypatch):
    """A subsample above ``MAX_SUBSAMPLE_SIZE`` is refused by ``fit`` and by
    the loader, before c(n) is evaluated for it."""
    size = isolation_forest.MAX_SUBSAMPLE_SIZE + 1
    doc = {"subsample_size": size, "feature_count": 1, "seed": 0, "num_training_samples": size,
           "feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1], "size": [size],
           "roots": [0]}
    monkeypatch.setattr(isolation_forest, "average_path_length", None)  # any call fails
    with pytest.raises(IncompatibleModelError, match="above the maximum"):
        IsolationForestModel.from_json_dict(doc)
    monkeypatch.setattr(isolation_forest, "MAX_SUBSAMPLE_SIZE", 4)
    with pytest.raises(ConfigError):
        fit(np.arange(10.0)[:, None], num_trees=1, subsample=5)


def test_harmonic_and_path_length_constants():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(3) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0)
    assert average_path_length(0) == 0.0
    assert average_path_length(1) == 0.0
    # c(2) = 2 H(1) - 2 (1/2) = 1
    assert average_path_length(2) == pytest.approx(1.0)


def test_depth_bound():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(1000, 4))
    model = fit(data, num_trees=100, subsample=256, seed=1)
    limit = int(np.ceil(np.log2(256)))
    assert limit == 8
    assert model.levels <= limit


def test_identical_training_points_give_single_leaf_trees():
    data = np.ones((50, 3)) * 2.5
    model = fit(data, num_trees=20, subsample=32, seed=3)
    for tree in model.trees:
        assert len(tree.feature) == 1
        assert tree.feature[0] == -1
        assert tree.size[0] == 32
    # every query lands in the depth-0 leaf: E[h] = c(psi), score = 0.5
    assert score_batch(model, [[0.0, 0.0, 0.0]])[0] == pytest.approx(0.5)
    assert score_batch(model, [[100.0, -5.0, 2.5]])[0] == pytest.approx(0.5)


def test_two_point_training_scores_half():
    # psi = 2: both points isolated at depth 1, leaf adjustment c(1) = 0,
    # normalizer c(2) = 1, so the score is 2^(-1/1) = 0.5 exactly.
    data = np.array([[0.0], [1.0]])
    model = fit(data, num_trees=10, subsample=2, seed=5)
    assert score_batch(model, [[0.0]])[0] == pytest.approx(0.5)
    assert score_batch(model, [[1.0]])[0] == pytest.approx(0.5)


def test_hand_constructed_tree_score_formula():
    # Single tree splitting [0, 1] at 0.5; query 0.0 reaches a singleton leaf
    # at depth 1: E[h] = 1 + c(1) = 1; score = 2^(-1 / c(2)) = 0.5.
    nodes = {
        "feature": [0, -1, -1],
        "threshold": [0.5, 0.0, 0.0],
        "left": [1, -1, -1],
        "right": [2, -1, -1],
        "size": [2, 1, 1],
        "roots": [0],
    }
    model = IsolationForestModel(nodes=nodes, subsample_size=2, feature_count=1, seed=0,
                                 num_training_samples=2)
    assert score_batch(model, [[0.0]])[0] == pytest.approx(2.0 ** (-1.0 / 1.0))


def test_determinism_given_seed():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(500, 5))
    queries = rng.normal(size=(50, 5))
    s1 = score_batch(fit(data, num_trees=50, subsample=128, seed=7), queries)
    s2 = score_batch(fit(data, num_trees=50, subsample=128, seed=7), queries)
    s3 = score_batch(fit(data, num_trees=50, subsample=128, seed=8), queries)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)


def test_outlier_scores_above_median_training_score():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(400, 2))
        model = fit(data, num_trees=50, subsample=128, seed=seed)
        train_scores = score_batch(model, data)
        assert score_batch(model, [[10.0, 10.0]])[0] > np.median(train_scores)


def test_monotonicity_on_1d_uniform():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 1.0, size=(500, 1))
        model = fit(data, num_trees=30, subsample=128, seed=seed)
        if score_batch(model, [[5.0]])[0] > score_batch(model, [[0.5]])[0]:
            hits += 1
    assert hits >= 95


def test_separation_auroc_on_planted_outliers():
    aurocs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inliers = rng.normal(size=(500, 2))
        angles = rng.uniform(0, 2 * np.pi, size=25)
        radii = rng.uniform(6.0, 8.0, size=25)
        outliers = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        data = np.vstack([inliers, outliers])
        labels = np.array([False] * 500 + [True] * 25)
        model = fit(inliers, num_trees=100, subsample=256, seed=seed)
        aurocs.append(brute_auroc(score_batch(model, data), labels))
    assert np.mean(aurocs) >= 0.95


def test_score_range_open_interval():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(300, 3))
    model = fit(data, num_trees=50, subsample=64, seed=0)
    queries = np.vstack([data[:50], rng.normal(size=(50, 3)) * 10])
    scores = score_batch(model, queries)
    assert np.all(scores > 0.0) and np.all(scores < 1.0)


def test_batch_matches_single():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(200, 4))
    model = fit(data, num_trees=25, subsample=64, seed=1)
    queries = rng.normal(size=(20, 4))
    batch = score_batch(model, queries)
    singles = np.array([score_batch(model, [q])[0] for q in queries])
    assert np.allclose(batch, singles, atol=1e-15)


def test_internal_nodes_partition_their_subsample():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(300, 3))
    model = fit(data, num_trees=20, subsample=100, seed=2)
    for tree in model.trees:
        for node, feat in enumerate(tree.feature):
            if feat >= 0:
                left, right = tree.left[node], tree.right[node]
                assert tree.size[left] + tree.size[right] == tree.size[node]
                assert tree.size[left] >= 1 and tree.size[right] >= 1
                assert np.isfinite(tree.threshold[node])


def test_validation_errors():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(50, 2))
    with pytest.raises(ConfigError):
        fit(np.empty((0, 2)))
    with pytest.raises(ConfigError):
        fit(data, subsample=51)
    with pytest.raises(ConfigError):
        fit(data, num_trees=0)
    model = fit(data, num_trees=5, subsample=16, seed=0)
    with pytest.raises(IncompatibleModelError):
        score_batch(model, [[1.0, 2.0, 3.0]])


def test_json_roundtrip_preserves_scores():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(200, 3))
    model = fit(data, num_trees=30, subsample=64, seed=9)
    doc = model.to_json_dict()
    assert "normalizer_c" not in doc and "feature_manifest_hash" not in doc
    back = IsolationForestModel.from_json_dict(json.loads(json.dumps(doc)))
    queries = rng.normal(size=(30, 3))
    assert np.array_equal(score_batch(model, queries), score_batch(back, queries))
    assert back.subsample_size == model.subsample_size
    assert back.normalizer_c == model.normalizer_c == average_path_length(64)


def test_model_columns_are_the_trees_views_concatenated():
    rng = np.random.default_rng(10)
    model = fit(rng.normal(size=(100, 2)), num_trees=4, subsample=16, seed=2)
    doc = listed(model.to_json_dict())
    assert "trees" not in doc
    starts = doc["roots"] + [len(doc["feature"])]
    for i, tree in enumerate(model.trees):
        for name in isolation_forest.NODE_COLUMNS:
            assert doc[name][starts[i]:starts[i + 1]] == getattr(tree, name).tolist()


def test_model_columns_are_base64_of_little_endian_int32_and_float64():
    rng = np.random.default_rng(15)
    model = fit(rng.normal(size=(100, 2)), num_trees=4, subsample=16, seed=2)
    doc, columns = model.to_json_dict(), listed(model.to_json_dict())
    for name, dtype in [("feature", "<i4"), ("threshold", "<f8"), ("left", "<i4"),
                        ("right", "<i4"), ("size", "<i4"), ("roots", "<i4")]:
        assert isinstance(doc[name], str)
        raw = base64.b64decode(doc[name], validate=True)
        assert np.frombuffer(raw, dtype=dtype).tolist() == columns[name]
        assert raw == np.array(columns[name], dtype=dtype).tobytes()


def test_model_document_bytes_are_pinned():
    """The in-memory node dtypes never reach the file: a fixed-seed forest's
    canonical document hashes as it did while the packed ``feature`` and
    ``kids`` were int32, and as its loaded copy does."""
    model = fit(np.random.default_rng(0).normal(size=(200, 5)), num_trees=20, subsample=64, seed=3)
    back = IsolationForestModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
    for forest in (model, back):
        text = json.dumps(forest.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "617fce537b4c9935549aadc0330d5652f91e2e9ca1c8aff13e426edf4ed74601")


def test_binary_columns_round_trip_bit_for_bit():
    """Signed zeros and subnormal thresholds survive a save and a load
    unchanged."""
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    thresholds = [-0.0, tiny, -tiny, 2.5e-310, -0.0, 0.0, 1e308]
    nodes = {"feature": [0, 1, -1, 0, -1, -1, -1], "threshold": thresholds,
             "left": [1, 3, -1, 5, -1, -1, -1], "right": [2, 4, -1, 6, -1, -1, -1],
             "size": [4, 3, 1, 2, 1, 1, 1], "roots": [0]}
    model = IsolationForestModel(nodes=nodes, subsample_size=4, feature_count=2, seed=-5,
                                 num_training_samples=4)
    doc = model.to_json_dict()
    back = IsolationForestModel.from_json_dict(json.loads(json.dumps(doc)))
    assert back.threshold.view(np.int64).tolist() == np.array(thresholds).view(np.int64).tolist()
    for name in ("feature", "kids", "size", "roots"):
        a, b = getattr(model, name), getattr(back, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert back.to_json_dict() == doc
    assert listed(doc)["threshold"][0] == 0.0 and str(listed(doc)["threshold"][0]) == "-0.0"


def _set_bytes(name, edit):
    """A corruption of the binary column ``name`` that edits its bytes."""
    def corrupt(doc):
        raw = bytearray(base64.b64decode(doc[name]))
        edit(raw)
        doc[name] = column_text(raw)
    return corrupt


def _set_item(name, position, value):
    def corrupt(doc):
        values = column_values(doc[name], name)
        values[position] = value
        doc[name] = column_text(values)
    return corrupt


def _set_text(name, edit):
    return lambda doc: doc.update({name: edit(doc[name])})


@pytest.mark.parametrize("corrupt", [
    _set_text("left", lambda text: text[:-1]),                  # padding cut
    _set_text("size", lambda text: text[:8] + "*" + text[8:]),  # a non-alphabet character
    _set_text("size", lambda text: text[:8] + " " + text[8:]),  # whitespace
    _set_text("feature", lambda text: text[:4] + "\u00e9" + text[5:]),  # a non-ASCII character
    _set_text("threshold", lambda text: text + "===="),
    _set_bytes("roots", lambda raw: raw.append(0)),             # 5 bytes for int32
    _set_bytes("threshold", lambda raw: raw.extend(b"\0" * 4)),  # a float64 and a half
    _set_bytes("right", lambda raw: raw.pop()),                 # one byte short
    _set_bytes("size", lambda raw: raw.clear()),                # an empty column
    _set_item("threshold", 0, np.nan),
    _set_item("threshold", 3, np.inf),
    _set_item("threshold", 5, -np.inf),
    _set_item("left", 0, 2**31 - 1),                     # child past the tree's end
    _set_item("right", 0, -7),
    _set_item("feature", 0, 2),
    _set_item("size", 0, -2**31),
    _set_item("roots", 1, 0),
], ids=["cut_padding", "non_alphabet", "whitespace", "non_ascii", "extra_padding", "roots_odd_bytes",
        "threshold_half_item", "right_short", "size_empty", "threshold_nan", "threshold_inf",
        "threshold_minus_inf", "left_out_of_range", "right_negative", "feature_out_of_range",
        "size_negative", "roots_repeated"])
def test_malformed_binary_columns_are_rejected(corrupt):
    rng = np.random.default_rng(16)
    doc = fit(rng.normal(size=(100, 2)), num_trees=3, subsample=16, seed=4).to_json_dict()
    IsolationForestModel.from_json_dict(doc)
    corrupt(doc)
    with pytest.raises(IncompatibleModelError):
        IsolationForestModel.from_json_dict(doc)


def test_tree_slices_equal_indexing_one_by_one():
    rng = np.random.default_rng(11)
    model = fit(rng.normal(size=(100, 2)), num_trees=6, subsample=16, seed=3)
    for part in (slice(None), slice(1, 4), slice(None, None, -2), slice(5, 50), slice(3, 3)):
        indices = range(len(model.trees))[part]
        assert len(model.trees[part]) == len(indices)
        assert_same_trees(model.trees[part], [model.trees[i] for i in indices])


def test_malformed_model_trees_are_rejected():
    """Each corruption is refused in the list form of older files and, where
    the binary form can hold it, written back as binary columns."""
    rng = np.random.default_rng(7)
    doc = listed(fit(rng.normal(size=(100, 2)), num_trees=3, subsample=16, seed=4).to_json_dict())
    IsolationForestModel.from_json_dict(doc)
    IsolationForestModel.from_json_dict(binary(doc))
    start, stop = doc["roots"][1], doc["roots"][2]
    assert doc["feature"][start] >= 0 and doc["left"][start] > 0  # tree 1's root splits
    leaf = doc["feature"].index(-1)

    def drop_tree_1(doc):
        for name in isolation_forest.NODE_COLUMNS:
            del doc[name][start:stop]
        doc["roots"] = [0, start, start]

    def put(column, position, value):
        def corrupt(doc):
            doc[column][position] = value
        return corrupt

    def pop(key):
        return lambda doc: doc.pop(key)

    def shorten(name):
        return lambda doc: doc[name].pop()

    def set_roots(roots):
        return lambda doc: doc.update(roots=roots)

    corruptions = {
        # The four cases of the per-node-row layout, on tree 1's root.
        "left child is the root itself": put("left", start, 0),
        "right child past the tree's end": put("right", start, stop - start),
        "split on a third feature": put("feature", start, 2),
        "empty tree": drop_tree_1,
        # Flat-layout cases.
        "missing column": pop("threshold"),
        "missing roots": pop("roots"),
        "missing scalar": pop("subsample_size"),
        "column shorter than the others": shorten("size"),
        "roots not starting at 0": set_roots([1, stop]),
        "roots decreasing": set_roots([0, stop, start]),
        "root past the last node": set_roots([0, start, len(doc["feature"])]),
        "no roots": set_roots([]),
        "negative child": put("right", start, -3),
        "internal node turned into a leaf": put("feature", start, -1),
        "leaf child set": put("left", leaf, 1),
        "feature below -1": put("feature", start, -2),
        "two parents": put("right", start, doc["left"][start]),
        "size above the subsample": put("size", leaf, 17),
        "size zero": put("size", leaf, 0),
        "root below the subsample": put("size", start, 15),
        "leaf size off its parent's sum": put("size", leaf, doc["size"][leaf] + 1),
        "subsample size above the maximum": lambda doc: doc.update(
            subsample_size=isolation_forest.MAX_SUBSAMPLE_SIZE + 1),
        "fractional index": put("left", start, 1.5),
        "nested column": put("threshold", start, [0.5]),
        "infinite threshold": put("threshold", start, float("inf")),
        "NaN threshold on a leaf": put("threshold", leaf, float("nan")),
        "text column": put("size", start, "16"),
        "not a list": set_roots(None),
        "fractional scalar": lambda doc: doc.update(feature_count=2.5),
        "whole float for an integer": lambda doc: doc.update(subsample_size=16.0),
        "boolean for an integer": lambda doc: doc.update(seed=True),
    }
    # A binary int32 column cannot hold a fraction, a nested list or text.
    list_only = {"fractional index", "nested column", "text column"}
    for name, corrupt in corruptions.items():
        bad = json.loads(json.dumps(doc))
        corrupt(bad)
        for form in [bad] if name in list_only else [bad, binary(bad)]:
            with pytest.raises(IncompatibleModelError):
                IsolationForestModel.from_json_dict(form)
                pytest.fail(f"accepted: {name}")


def reference_scores(model, points):
    """Plain per-tree, per-point descent over ``model.trees``, summing the
    path lengths in tree order."""
    adjust = [average_path_length(n) for n in range(model.subsample_size + 1)]
    total = np.zeros(len(points))
    for tree in model.trees:
        lengths = np.empty(len(points))
        for i, point in enumerate(points):
            node, depth = 0, 0
            while tree.feature[node] >= 0:
                goes_left = point[tree.feature[node]] < tree.threshold[node]
                node = tree.left[node] if goes_left else tree.right[node]
                depth += 1
            lengths[i] = depth + adjust[tree.size[node]]
        total += lengths
    denom = model.normalizer_c if model.normalizer_c > 0 else 1.0
    return np.power(2.0, -(total / len(model.trees)) / denom)


@st.composite
def forests_and_queries(draw):
    num_features = draw(st.integers(1, 4))
    values = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    distinct = draw(st.lists(st.lists(values, min_size=num_features, max_size=num_features),
                             min_size=1, max_size=30))
    # Rows repeated by index, so training sets often hold duplicates.
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=60))
    data = np.array([distinct[i] for i in picks])
    subsample = draw(st.integers(1, len(data)))
    model = fit(data, num_trees=draw(st.integers(1, 40)), subsample=subsample,
                seed=draw(st.integers(0, 2**32 - 1)))
    # Queries may hold NaN, which routes right at every split, and +-inf.
    special = st.sampled_from([np.nan, np.inf, -np.inf])
    extra = draw(st.lists(st.lists(values | special, min_size=num_features, max_size=num_features),
                          max_size=10))
    queries = np.vstack([data[:10], np.reshape(extra, (-1, num_features))])
    return model, queries


# _PYTHON_WALK_PAIRS values that send every batch through the NumPy walk and
# through the plain-Python walk.
BOTH_WALKS = (0, 1 << 62)


def walk_scores(model, queries, python_walk_pairs, chunk_pairs=isolation_forest._CHUNK_PAIRS,
                threads=1, thread_pairs=isolation_forest._THREAD_PAIRS):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(isolation_forest, "_PYTHON_WALK_PAIRS", python_walk_pairs)
        patch.setattr(isolation_forest, "_CHUNK_PAIRS", chunk_pairs)
        patch.setattr(isolation_forest, "_threads", threads)
        patch.setattr(isolation_forest, "_THREAD_PAIRS", thread_pairs)
        return score_batch(model, queries)


@settings(max_examples=150, deadline=None)
@given(forests_and_queries())
def test_packed_walk_matches_per_tree_reference(case):
    model, queries = case
    want = reference_scores(model, queries)
    assert np.array_equal(score_batch(model, queries), want)
    for pairs in BOTH_WALKS:
        assert np.array_equal(walk_scores(model, queries, pairs), want)


def renumbered(model, rng):
    """The forest reloaded from a document whose trees number their nodes in
    a random order that keeps every child after its parent, so siblings are
    rarely adjacent and a right child often comes before its left sibling."""
    doc = listed(model.to_json_dict())
    starts = doc["roots"] + [len(doc["feature"])]
    columns = {name: [] for name in isolation_forest.NODE_COLUMNS}
    for start, stop in zip(starts, starts[1:]):
        left, right = doc["left"][start:stop], doc["right"][start:stop]
        order, ready = [], [0]
        while ready:
            node = ready.pop(rng.integers(len(ready)))
            order.append(node)
            if left[node] >= 0:
                ready += [left[node], right[node]]
        position = {node: i for i, node in enumerate(order)}
        position[-1] = -1
        for node in order:
            for name in ("feature", "threshold", "size"):
                columns[name].append(doc[name][start + node])
            for name in ("left", "right"):
                columns[name].append(position[doc[name][start + node]])
    doc.update(columns)
    return IsolationForestModel.from_json_dict(binary(doc))


@settings(max_examples=100, deadline=None)
@given(forests_and_queries(), st.integers(0, 2**32 - 1))
def test_both_walks_match_the_reference_on_renumbered_forests(case, seed):
    model, queries = case
    back = renumbered(model, np.random.default_rng(seed))
    want = reference_scores(model, queries)
    assert np.array_equal(reference_scores(back, queries), want)
    for pairs in BOTH_WALKS:
        assert np.array_equal(walk_scores(back, queries, pairs), want)


@settings(max_examples=100, deadline=None)
@given(forests_and_queries(), st.integers(1, 200), st.sampled_from([1, 2, 3]), st.integers(1, 100))
def test_numpy_walk_across_chunk_boundaries_matches_the_reference(case, chunk_pairs, threads,
                                                                  thread_pairs):
    """Any chunk size, thread count and least range size, so that ranges
    of one point and ranges ending in a one-point chunk occur, on the
    fitted forest and on its loaded form, whose columns are read-only."""
    model, queries = case
    want = reference_scores(model, queries)
    loaded = IsolationForestModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
    for forest in (model, loaded):
        assert np.array_equal(walk_scores(forest, queries, 0, chunk_pairs, threads, thread_pairs), want)


def test_scores_do_not_depend_on_the_thread_count():
    """A 300-tree forest, at batch sizes on both sides of the smallest split
    batches (at least 2^14 pairs a thread: 110 points on two threads, 165 on
    three) and of the chunk bounds (218 points a chunk on one thread, 109 on
    two, 72 on three; 219 and 220 points end ranges in one-point chunks),
    with NaN features, on the fitted forest and on its loaded form."""
    rng = np.random.default_rng(21)
    model = fit(rng.normal(size=(1000, 4)), num_trees=300, subsample=1000, seed=2)
    loaded = IsolationForestModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
    assert not loaded.threshold.flags.writeable
    for num_points in (109, 110, 164, 165, 218, 219, 220, 437):
        queries = rng.normal(size=(num_points, 4))
        queries[::7, rng.integers(4)] = np.nan
        want = walk_scores(model, queries, 1 << 62)
        for threads in (1, 2, 3):
            for forest in (model, loaded):
                got = walk_scores(forest, queries, 0, threads=threads)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), (num_points, threads)


def test_concurrent_callers_each_get_their_own_scores(monkeypatch):
    """Four threads split batches at once, with the interpreter switching
    threads every microsecond: each gets its own batch's scores, however
    their ranges' threads interleave."""
    import threading

    monkeypatch.setattr(isolation_forest, "_threads", 3)
    rng = np.random.default_rng(22)
    model = fit(rng.normal(size=(500, 3)), num_trees=300, subsample=256, seed=5)
    batches = [rng.normal(size=(170 + 7 * i, 3)) for i in range(4)]
    want = [walk_scores(model, batch, 0) for batch in batches]
    got = [[] for _ in batches]

    def score(i):
        for _ in range(5):
            got[i].append(score_batch(model, batches[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=score, args=(i,)) for i in range(len(batches))]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for scores, expected in zip(got, want):
        assert len(scores) == 5 and all(np.array_equal(s, expected) for s in scores)


@pytest.mark.parametrize("num_trees, num_points", [(300, 109), (300, 191), (300, 873), (25, 4000)])
@pytest.mark.parametrize("threads", [1, 2, 8, 32])
def test_walk_buffers_hold_at_least_thread_pairs_a_thread(monkeypatch, threads, num_trees, num_points):
    """However many CPUs, a batch gets at most one buffer set per thread,
    each of at least ``_THREAD_PAIRS`` pairs (to within a point) and together
    at most ``_CHUNK_PAIRS``; a batch that fits in one chunk gets one set
    shaped (trees, points), which its one chunk fills."""
    monkeypatch.setattr(isolation_forest, "_threads", threads)
    model = fit(np.random.default_rng(7).normal(size=(300, 2)), num_trees=num_trees, subsample=64, seed=1)
    queries = np.random.default_rng(8).normal(size=(num_points, 2))
    shapes = []
    make = isolation_forest._walk_buffers
    monkeypatch.setattr(isolation_forest, "_walk_buffers",
                        lambda *shape: shapes.append(shape) or make(*shape))
    got = score_batch(model, queries)
    assert np.array_equal(got, walk_scores(model, queries, 1 << 62))
    pairs = [trees * width for trees, width in shapes]
    assert 1 <= len(shapes) <= min(threads, isolation_forest._CHUNK_PAIRS // isolation_forest._THREAD_PAIRS)
    assert sum(pairs) <= isolation_forest._CHUNK_PAIRS
    if len(shapes) > 1:
        assert min(pairs) > isolation_forest._THREAD_PAIRS - num_trees
    elif num_points * num_trees <= isolation_forest._CHUNK_PAIRS:
        assert shapes == [(num_trees, num_points)]


def test_both_walks_score_forests_without_levels():
    rng = np.random.default_rng(12)
    queries = np.array([[0.0, 1.0], [np.nan, np.inf], [-np.inf, 3.0]])
    # Single-leaf trees, loaded from a document; each root holds the whole
    # subsample, as in a fitted forest.
    sizes = [8] * 5
    leaves = IsolationForestModel.from_json_dict({
        "subsample_size": 8, "feature_count": 2,
        "seed": 0, "num_training_samples": 8, "feature": [-1] * 5, "threshold": [0.0] * 5,
        "left": [-1] * 5, "right": [-1] * 5, "size": sizes, "roots": list(range(5))})
    for model in (fit(rng.normal(size=(20, 2)), num_trees=7, subsample=1, seed=1),
                  fit(np.ones((20, 2)), num_trees=7, subsample=8, seed=1), leaves):
        assert model.levels == 0
        for pairs in BOTH_WALKS:
            assert np.array_equal(walk_scores(model, queries, pairs), reference_scores(model, queries))
    assert leaves.nested_trees() == tuple(average_path_length(n) for n in sizes)


def chain_forest(splits: int) -> IsolationForestModel:
    """A hand-built one-tree forest far deeper than the recursion limit:
    node 2k splits feature 0 at k, its left child 2k + 1 is a leaf and its
    right child 2k + 2 the next split, down to the leaf 2 splits. Leaves
    hold 1 to 3 points and each split the sum of its children's."""
    n = 2 * splits + 1
    internal = range(0, n - 1, 2)
    feature, left, right = [-1] * n, [-1] * n, [-1] * n
    threshold = [0.0] * n
    size = [1 + (node % 3) for node in range(n)]
    for k, node in enumerate(internal):
        feature[node], threshold[node] = 0, float(k)
        left[node], right[node] = node + 1, node + 2
    for node in reversed(internal):
        size[node] = size[node + 1] + size[node + 2]
    return IsolationForestModel.from_json_dict({
        "subsample_size": size[0], "feature_count": 2,
        "seed": 0, "num_training_samples": size[0], "feature": feature, "threshold": threshold,
        "left": left, "right": right, "size": size, "roots": [0]})


def test_both_walks_score_a_chain_deeper_than_the_recursion_limit():
    splits = 2500
    assert splits > sys.getrecursionlimit()
    model = chain_forest(splits)
    assert len(model.feature) == 5001 and model.levels == splits
    queries = np.array([[-1.0, 0.0], [2.5, 0.0], [1234.5, np.nan], [1e9, 0.0],
                        [np.inf, 0.0], [np.nan, np.nan]])
    want = reference_scores(model, queries)
    for pairs in BOTH_WALKS:
        assert np.array_equal(walk_scores(model, queries, pairs), want)
    # Past every split the walk ends at the deepest leaf, as NaN does; the
    # deeper a leaf, the lower the score.
    assert want[3] == want[4] == want[5] < want[2] < want[1] < want[0]


def test_an_all_nan_row_routes_right_at_every_split():
    rng = np.random.default_rng(13)
    model = fit(rng.normal(size=(300, 3)), num_trees=20, subsample=64, seed=5)
    table = model.path_length_table()
    total = 0.0
    for root in model.roots.tolist():
        node = root
        while model.right[node] != node:
            node = int(model.right[node])
        total += table[node]
    want = np.power(2.0, -(total / len(model.roots)) / model.normalizer_c)
    for pairs in BOTH_WALKS:
        assert walk_scores(model, np.full((1, 3), np.nan), pairs)[0] == want


def test_nested_trees_are_built_once_on_first_small_walk_and_kept():
    rng = np.random.default_rng(14)
    model = fit(rng.normal(size=(200, 2)), num_trees=5, subsample=32, seed=6)
    back = IsolationForestModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
    assert back._nested is None  # not built on load
    score_batch(back, rng.normal(size=(100, 2)))  # the NumPy walk needs none
    assert back._nested is None
    first = score_batch(back, [[0.1, -0.2]])
    trees = back.nested_trees()
    assert len(trees) == 5 and back.nested_trees() is trees
    assert np.array_equal(score_batch(back, [[0.1, -0.2]]), first)
    assert back.nested_trees() is trees
    assert back.to_json_dict() == model.to_json_dict()
    # Equal leaf path lengths are one float object.
    leaves, stack = [], list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack += node[2:]
        else:
            leaves.append(node)
    assert len({id(leaf) for leaf in leaves}) == len(set(leaves)) < len(leaves)


@settings(max_examples=150, deadline=None)
@given(forests_and_queries())
def test_batch_rows_equal_batches_of_one(case):
    model, queries = case
    batch = score_batch(model, queries)
    singles = np.array([score_batch(model, q[None, :])[0] for q in queries])
    assert np.array_equal(batch, singles)


@settings(max_examples=50, deadline=None)
@given(forests_and_queries())
def test_loading_rebuilds_the_packed_arrays_bit_for_bit(case):
    model, queries = case
    back = IsolationForestModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
    for name in ("feature", "threshold", "left", "right", "size", "roots"):
        a, b = getattr(model, name), getattr(back, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert back.levels == model.levels
    assert np.array_equal(score_batch(back, queries), score_batch(model, queries))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(300, 1, 0).via("one point of a 300-tree forest")
@example(300, 191, 0).via("an ARTS episode of a 300-tree forest")
def test_tree_sums_add_in_tree_order(num_trees, num_points, seed):
    """``_sum_over_trees`` equals adding the trees' rows one after another,
    for one point as for many: NumPy's reduction over the tree axis
    replays that order only for two or more points."""
    rng = np.random.default_rng(seed)
    path_lengths = rng.integers(0, 14, size=(num_trees, num_points)) + rng.exponential(
        10.0 ** rng.uniform(-3, 1), size=(num_trees, num_points))
    want = np.zeros(num_points)
    for row in path_lengths:
        want += row
    got = np.full(num_points, np.nan)
    isolation_forest._sum_over_trees(path_lengths, got)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_batch_split_into_chunks_scores_the_same(monkeypatch):
    rng = np.random.default_rng(8)
    model = fit(rng.normal(size=(200, 3)), num_trees=10, subsample=64, seed=3)
    queries = rng.normal(size=(50, 3))
    whole = score_batch(model, queries)
    monkeypatch.setattr(isolation_forest, "_CHUNK_PAIRS", 30)  # 3 points a chunk
    assert np.array_equal(score_batch(model, queries), whole)


@st.composite
def training_sets(draw):
    """(data, num_trees, subsample, seed): few distinct values per column, so
    that nodes often hold duplicate rows and constant columns."""
    num_features = draw(st.integers(1, 4))
    values = st.sampled_from([-2.5, 0.0, 1e-9, 1.0, 3.0]) | st.floats(-1e3, 1e3, allow_nan=False)
    rows = draw(st.lists(st.lists(values, min_size=num_features, max_size=num_features),
                         min_size=1, max_size=80))
    data = np.array(rows)
    constant = draw(st.integers(-1, num_features - 1))
    if constant >= 0:
        data[:, constant] = 7.0
    return (data, draw(st.integers(1, 12)), draw(st.integers(1, len(data))),
            draw(st.integers(0, 2**32 - 1)))


def assert_same_trees(trees_a, trees_b):
    for a, b in zip(trees_a, trees_b, strict=True):
        for field in ("feature", "threshold", "left", "right", "size"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


@settings(max_examples=100, deadline=None)
@given(training_sets(), st.integers(1, 5))
def test_first_trees_do_not_depend_on_the_tree_count(case, extra):
    data, num_trees, subsample, seed = case
    few = fit(data, num_trees=num_trees, subsample=subsample, seed=seed)
    more = fit(data, num_trees=num_trees + extra, subsample=subsample, seed=seed)
    assert_same_trees(few.trees, [more.trees[i] for i in range(num_trees)])


@settings(max_examples=50, deadline=None)
@given(training_sets(), st.integers(1, 40))
def test_growing_in_chunks_gives_the_same_forest(case, chunk_points):
    data, num_trees, subsample, seed = case
    whole = fit(data, num_trees=num_trees, subsample=subsample, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(isolation_forest, "_CHUNK_POINTS", chunk_points)
        chunked = fit(data, num_trees=num_trees, subsample=subsample, seed=seed)
    assert_same_trees(whole.trees, chunked.trees)


@settings(max_examples=150, deadline=None)
@given(training_sets())
def test_every_split_is_valid_and_every_leaf_is_final(case):
    data, num_trees, subsample, seed = case
    model = fit(data, num_trees=num_trees, subsample=subsample, seed=seed)
    limit = int(np.ceil(np.log2(subsample))) if subsample > 1 else 0
    for i, tree in enumerate(model.trees):
        # The subsample is the tree's first draw; route it down the tree.
        rows = rng_from(seed, "tree", i).choice(len(data), size=subsample, replace=False)
        points, depth = {0: data[rows]}, {0: 0}
        for node, feat in enumerate(tree.feature):
            x = points.pop(node)
            assert len(x) == tree.size[node]
            constant = np.all(x.min(axis=0) == x.max(axis=0))
            if feat < 0:
                assert len(x) <= 1 or depth[node] == limit or constant
                continue
            lo, hi = x[:, feat].min(), x[:, feat].max()
            assert lo < tree.threshold[node] <= hi
            left, right = tree.left[node], tree.right[node]
            assert node < left < right  # children follow their parent
            goes_left = x[:, feat] < tree.threshold[node]
            points[left], points[right] = x[goes_left], x[~goes_left]
            depth[left] = depth[right] = depth[node] + 1
            assert len(points[left]) >= 1 and len(points[right]) >= 1
        assert not points


def test_root_feature_is_uniform_over_non_constant_features():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(200, 5))
    data[:, 2] = 4.0
    model = fit(data, num_trees=4000, subsample=16, seed=11)
    counts = np.bincount(model.feature[model.roots], minlength=5)
    assert counts[2] == 0
    # 1000 expected per non-constant feature, standard deviation ~27.
    assert np.all(np.abs(counts[[0, 1, 3, 4]] - 1000) < 120)


# Memory. A bench-size forest: 300 trees with a subsample of 1000 on 21
# features, as the ``arts_cli`` benchmark grows (about 94k nodes here).
def bench_size_forest():
    data = np.random.default_rng(0).normal(size=(1000, 21))
    return fit(data, num_trees=300, subsample=1000, seed=1)


def packed_bytes(model):
    return sum(a.nbytes for a in (model.feature, model.threshold, model.kids, model.size, model.roots))


def traced_peak(call):
    """``call()`` and the tracemalloc peak above what was allocated before."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_fit_holds_few_copies_of_the_packed_nodes():
    """Fitting keeps its node columns int32 and frees each level's and each
    chunk's working arrays as it goes: a 7.4 MB peak, 2.2x the packed bytes
    (3.2x while the packed ``feature`` and ``kids`` were int32), against
    7.1x of those int32 bytes when columns went through int64 and every
    stage held its input."""
    model, peak = traced_peak(bench_size_forest)
    assert len(model.feature) > 80_000
    assert peak < 4 * packed_bytes(model)


def test_loading_a_forest_holds_few_copies_of_its_nodes():
    """Binary columns load as int32 and float64 views of their bytes, and
    ``threshold``, ``size`` and ``roots`` are packed without copies; only
    ``feature`` and ``kids`` are new, as ``intp`` for the walk: a 5.5 MB
    peak above the parsed document, 1.6x the packed bytes (4.6 MB and 2.1x
    while they were int32), against 5.4x of those int32 bytes when every
    column was widened to int64 and copied."""
    model = bench_size_forest()
    doc = json.loads(json.dumps(model.to_json_dict()))
    back, peak = traced_peak(lambda: IsolationForestModel.from_json_dict(doc))
    assert back.kids.dtype == back.feature.dtype == np.intp
    assert back.size.dtype == np.int32
    for column in (back.threshold, back.size, back.roots):
        assert isinstance(column.base, bytes) and not column.flags.writeable
    assert peak < 2.5 * packed_bytes(model)


def test_saving_a_forest_holds_its_text_once(tmp_path):
    """``save_model`` encodes one column at a time and streams the document
    into the file, so its peak is the document's strings and little more:
    1.7x the file's bytes, against 3x when the whole text was built, copied
    with its newline and then written."""
    from dexter import persistence

    class Trained:
        def __init__(self, model):
            self.model = model

        def to_json_dict(self):
            return {"forest": self.model.to_json_dict()}

    trained, path = Trained(bench_size_forest()), tmp_path / "model.json"
    _, peak = traced_peak(lambda: persistence.save_model(str(path), trained, "hash"))
    assert peak < 2 * path.stat().st_size


def test_a_split_batch_holds_the_buffers_of_one_serial_walk(monkeypatch):
    """The caller allocates every thread's walk buffers, which together hold
    at most ``_CHUNK_PAIRS`` pairs, so splitting a batch of 300 trees across
    two threads adds at most 10% to the serial walk's peak: an ARTS episode
    of 191 points, and 873 points, which the serial walk takes in chunks."""
    model = bench_size_forest()
    for num_points in (191, 873):
        queries = np.random.default_rng(5).normal(size=(num_points, 21))
        peaks = {}
        for threads in (1, 2):
            monkeypatch.setattr(isolation_forest, "_threads", threads)
            want = score_batch(model, queries)  # derives the path lengths
            got, peaks[threads] = traced_peak(lambda: score_batch(model, queries))
            assert np.array_equal(got, want)
        assert peaks[2] <= 1.1 * peaks[1], num_points
