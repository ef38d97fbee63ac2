import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexter import isolation_forest
from dexter.errors import ConfigError, IncompatibleModelError
from dexter.isolation_forest import (
    IsolationForestModel,
    average_path_length,
    fit,
    harmonic_number,
    score,
    score_batch,
)
from dexter.seeding import rng_from


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
    assert score(model, [0.0, 0.0, 0.0]) == pytest.approx(0.5)
    assert score(model, [100.0, -5.0, 2.5]) == pytest.approx(0.5)


def test_two_point_training_scores_half():
    # psi = 2: both points isolated at depth 1, leaf adjustment c(1) = 0,
    # normalizer c(2) = 1, so the score is 2^(-1/1) = 0.5 exactly.
    data = np.array([[0.0], [1.0]])
    model = fit(data, num_trees=10, subsample=2, seed=5)
    assert score(model, [0.0]) == pytest.approx(0.5)
    assert score(model, [1.0]) == pytest.approx(0.5)


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
    model = IsolationForestModel(
        nodes=nodes, subsample_size=2, feature_count=1,
        normalizer_c=average_path_length(2), seed=0, num_training_samples=2,
    )
    assert score(model, [0.0]) == pytest.approx(2.0 ** (-1.0 / 1.0))


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
        assert score(model, [10.0, 10.0]) > np.median(train_scores)


def test_monotonicity_on_1d_uniform():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = rng.uniform(0.0, 1.0, size=(500, 1))
        model = fit(data, num_trees=30, subsample=128, seed=seed)
        if score(model, [5.0]) > score(model, [0.5]):
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
    singles = np.array([score(model, q) for q in queries])
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
        score(model, [1.0, 2.0, 3.0])


def test_json_roundtrip_preserves_scores():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(200, 3))
    model = fit(data, num_trees=30, subsample=64, seed=9)
    model.feature_manifest_hash = "abc123"
    back = IsolationForestModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
    queries = rng.normal(size=(30, 3))
    assert np.array_equal(score_batch(model, queries), score_batch(back, queries))
    assert back.feature_manifest_hash == "abc123"
    assert back.subsample_size == model.subsample_size


def test_model_columns_are_the_trees_views_concatenated():
    rng = np.random.default_rng(10)
    model = fit(rng.normal(size=(100, 2)), num_trees=4, subsample=16, seed=2)
    doc = model.to_json_dict()
    assert "trees" not in doc
    starts = doc["roots"] + [len(doc["feature"])]
    for i, tree in enumerate(model.trees):
        for name in isolation_forest.NODE_COLUMNS:
            assert doc[name][starts[i]:starts[i + 1]] == getattr(tree, name).tolist()


def test_tree_slices_equal_indexing_one_by_one():
    rng = np.random.default_rng(11)
    model = fit(rng.normal(size=(100, 2)), num_trees=6, subsample=16, seed=3)
    for part in (slice(None), slice(1, 4), slice(None, None, -2), slice(5, 50), slice(3, 3)):
        indices = range(len(model.trees))[part]
        assert len(model.trees[part]) == len(indices)
        assert_same_trees(model.trees[part], [model.trees[i] for i in indices])


def test_malformed_model_trees_are_rejected():
    rng = np.random.default_rng(7)
    doc = fit(rng.normal(size=(100, 2)), num_trees=3, subsample=16, seed=4).to_json_dict()
    IsolationForestModel.from_json_dict(doc)
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
        "fractional index": put("left", start, 1.5),
        "nested column": put("threshold", start, [0.5]),
        "text column": put("size", start, "16"),
        "not a list": set_roots(None),
    }
    for name, corrupt in corruptions.items():
        bad = json.loads(json.dumps(doc))
        corrupt(bad)
        with pytest.raises(IncompatibleModelError):
            IsolationForestModel.from_json_dict(bad)
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
    extra = draw(st.lists(st.lists(values, min_size=num_features, max_size=num_features),
                          max_size=10))
    queries = np.vstack([data[:10], np.reshape(extra, (-1, num_features))])
    return model, queries


@settings(max_examples=150, deadline=None)
@given(forests_and_queries())
def test_packed_walk_matches_per_tree_reference(case):
    model, queries = case
    assert np.array_equal(score_batch(model, queries), reference_scores(model, queries))


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
