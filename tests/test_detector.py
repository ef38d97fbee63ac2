import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexter import isolation_forest as iforest
from dexter.ar_noise import ARProcessSpec
from dexter.cusum import CusumDetector, first_alert_step
from dexter.detector import (
    DexterModel, DexterStream, calibrate, detect_online, score_stream, train, training_windows,
)
from dexter.environments import BaseEnv, PolicyKind, Scenario, ScenarioConfig, builtin_policy, run_episode
from dexter.errors import ConfigError, DataError, IncompatibleModelError
from dexter.evaluation import TrainedDetector
from dexter.persistence import save_model
from dexter.seeding import child_seed
from dexter.ts_features import catalogue_hash, extract_features_batch, sliding_windows
from forest_columns import listed


def arts_config():
    return ScenarioConfig(
        scenario=Scenario.ARTS,
        base_env=BaseEnv.CONSTANT,
        noise=ARProcessSpec.one_step(0.95),
    )


@pytest.fixture(scope="module")
def arts_model():
    cfg = arts_config()
    policy = builtin_policy(cfg.base_env, "random")
    episodes = [run_episode(cfg, policy, child_seed(0, "train", i), inject=False) for i in range(30)]
    model = train(episodes, window_size=10, num_trees=60, subsample=600, seed=1)
    return cfg, policy, episodes, model


@pytest.fixture(scope="module")
def cartpole_model():
    """A 4-D ARNO Cartpole model trained on clean episodes cut to unequal
    lengths, so that each leaves a different remainder of its windows."""
    cfg = ScenarioConfig(
        scenario=Scenario.ARNO,
        base_env=BaseEnv.CARTPOLE,
        noise=ARProcessSpec.one_step(0.95, scale=0.5),
        per_dimension_scale=(0.23, 0.17, 0.008, 0.2),
    )
    policy = builtin_policy(BaseEnv.CARTPOLE, PolicyKind.HEURISTIC)
    matrices = [run_episode(cfg, policy, child_seed(0, "cartpole", i), inject=False).observations[:length]
                for i, length in enumerate([200, 157, 10, 99, 200, 41])]
    model = train(matrices, window_size=10, num_trees=20, subsample=64, seed=5)
    return cfg, policy, matrices, model


def test_default_window_size_is_ten():
    import inspect

    assert inspect.signature(train).parameters["window_size"].default == 10


def test_training_partition_arithmetic():
    rng = np.random.default_rng(0)
    episode = rng.normal(size=(200, 4))  # raw observation matrices are accepted
    model = train([episode], window_size=10, num_trees=10, subsample=20, seed=0)
    assert model.num_dimensions == 4
    assert all(f.num_training_samples == 20 for f in model.forests)
    assert model.window_size == 10


def test_identical_dimensions_get_identical_forests():
    rng = np.random.default_rng(1)
    column = rng.normal(size=(200, 1))
    duplicated = np.hstack([column, column])
    model2 = train([duplicated], window_size=10, num_trees=20, subsample=20, seed=3)
    model1 = train([column], window_size=10, num_trees=20, subsample=20, seed=3)

    queries = rng.normal(size=(15, model1.forests[0].feature_count))
    s0 = iforest.score_batch(model2.forests[0], queries)
    s1 = iforest.score_batch(model2.forests[1], queries)
    s_single = iforest.score_batch(model1.forests[0], queries)
    assert np.array_equal(s0, s1)
    assert np.array_equal(s0, s_single)


def test_score_stream_counts_and_range(arts_model):
    cfg, policy, episodes, model = arts_model
    ep = run_episode(cfg, policy, seed=999, inject=False)
    series = score_stream(model, ep)
    assert len(series.scores) == 200
    assert np.isnan(series.scores[:9]).all()
    defined = series.scores[~np.isnan(series.scores)]
    assert len(defined) == 191
    assert np.all(defined > 0.0) and np.all(defined < 1.0)


def test_score_stream_is_the_mean_of_per_dimension_extractions_bit_for_bit(cartpole_model):
    """One extraction call over every dimension's sliding windows scores as
    one call per dimension did, down to episodes of a few windows, which a
    call per dimension would extract on the plain-Python path."""
    cfg, policy, _, model = cartpole_model
    episodes = [run_episode(cfg, policy, seed=71).observations,
                run_episode(cfg, policy, seed=72, inject=False).observations]
    episodes += [episodes[0][:12], episodes[0][:10], episodes[0][:9]]
    for obs in episodes:
        want = np.full(len(obs), np.nan)
        if len(obs) >= 10:
            total = np.zeros(len(obs) - 9)
            for d, forest in enumerate(model.forests):
                total += iforest.score_batch(forest, extract_features_batch(sliding_windows(obs[:, d], 10)))
            want[9:] = total / 4
        assert np.array_equal(score_stream(model, obs).scores.view(np.int64), want.view(np.int64))


def test_training_equals_forests_fitted_on_per_episode_extractions(cartpole_model):
    """One extraction call over the whole training set gives the model that
    extracting each episode and dimension alone, joined in order, gave."""
    _, _, matrices, model = cartpole_model
    forests = []
    for d in range(4):
        features = np.concatenate([extract_features_batch(training_windows(m, 10)[:, :, d]) for m in matrices])
        forests.append(iforest.fit(features, num_trees=20, subsample=64, seed=child_seed(5, "forest")))
    want = DexterModel(forests=forests, window_size=10)
    assert json.dumps(model.to_json_dict(), sort_keys=True) == json.dumps(want.to_json_dict(), sort_keys=True)


def test_training_rejects_short_and_empty_datasets(tmp_path):
    rng = np.random.default_rng(2)
    with pytest.raises(DataError):
        train([], window_size=10)
    short = rng.normal(size=(8, 2))
    good = rng.normal(size=(40, 2))
    # An episode shorter than the window yields no window and is skipped.
    with_short = train([good, short], window_size=10, num_trees=5, subsample=4)
    alone = train([good], window_size=10, num_trees=5, subsample=4)
    saved = []
    for name, model in (("with_short", with_short), ("alone", alone)):
        save_model(str(tmp_path / name), TrainedDetector("dexter", {}, model), "hash")
        saved.append((tmp_path / name).read_bytes())
    assert saved[0] == saved[1]
    with pytest.raises(DataError, match="all 2 episodes are shorter than window 10"):
        train([short, short[:3]], window_size=10, num_trees=5, subsample=4)
    with pytest.raises(DataError, match="disagree on state dimension"):
        train([good, short[:, :1]], window_size=10, num_trees=5, subsample=4)
    huge = good.copy()
    huge[:10, 1] = [1e300, -1e300] * 5  # finite, but the squared values overflow
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DataError, match="dimension 1"):
        train([good, huge], window_size=10, num_trees=5, subsample=4)


def test_training_refuses_episodes_of_no_column():
    """Once a ZeroDivisionError where the features are split by dimension."""
    with pytest.raises(DataError, match="0 columns"):
        train([np.zeros((50, 0))] * 3, num_trees=3)


def test_dimension_and_catalogue_compatibility(arts_model):
    """A model is refused for another catalogue when it is read, and for
    observations of another width when it scores them."""
    _, _, _, model = arts_model
    with pytest.raises(IncompatibleModelError):
        score_stream(model, np.zeros((50, 3)))
    doc = model.to_json_dict()
    assert doc["feature_manifest_hash"] == catalogue_hash()
    with pytest.raises(IncompatibleModelError, match="catalogue"):
        DexterModel.from_json_dict({**doc, "feature_manifest_hash": "bogus"})


def test_scores_rise_after_injection(arts_model):
    cfg, policy, _, model = arts_model
    before, after = [], []
    for i in range(50):
        ep = run_episode(cfg, policy, child_seed(5, "inj", i))
        t_a = ep.injection_time
        if t_a + model.window_size + 5 >= ep.length:
            continue
        scores = score_stream(model, ep).scores
        before.append(np.nanmean(scores[model.window_size - 1 : t_a]))
        after.append(np.nanmean(scores[t_a + model.window_size :]))
    assert np.mean(after) > np.mean(before)


def test_calibrate_validation(arts_model):
    cfg, policy, episodes, model = arts_model
    with pytest.raises(ConfigError):
        calibrate(model, episodes[:1], target_fpr=0.01)
    with pytest.raises(ConfigError):
        calibrate(model, episodes[:4], target_fpr=1.5)


def test_calibrate_and_detect_online_consistency(arts_model):
    cfg, policy, episodes, model = arts_model
    detector = calibrate(model, episodes, target_fpr=0.05)
    assert detector.threshold_tau >= 0.0

    ep = run_episode(cfg, policy, seed=777)
    verdict = detect_online(detector, model, ep)
    expected = first_alert_step(detector, score_stream(model, ep).scores)
    assert verdict.alert_step == expected


def test_detect_online_requires_calibrated_detector(arts_model):
    cfg, policy, _, model = arts_model
    ep = run_episode(cfg, policy, seed=5)
    with pytest.raises(ConfigError):
        detect_online(None, model, ep)


def test_pipeline_determinism(arts_model):
    cfg, policy, episodes, _ = arts_model
    m1 = train(episodes[:10], window_size=10, num_trees=20, subsample=100, seed=42)
    m2 = train(episodes[:10], window_size=10, num_trees=20, subsample=100, seed=42)
    ep = run_episode(cfg, policy, seed=31337)
    s1 = score_stream(m1, ep).scores
    s2 = score_stream(m2, ep).scores
    assert np.array_equal(s1[9:], s2[9:])


def test_model_json_roundtrip(arts_model):
    cfg, policy, _, model = arts_model
    back = DexterModel.from_json_dict(model.to_json_dict())
    ep = run_episode(cfg, policy, seed=2024, inject=False)
    s1 = score_stream(model, ep).scores
    s2 = score_stream(back, ep).scores
    assert np.array_equal(s1[9:], s2[9:])
    assert back.window_size == model.window_size
    assert back.to_json_dict() == model.to_json_dict()


def test_older_model_documents_load_and_score_bit_for_bit(arts_model):
    """Forests used to store their node columns as JSON lists, and before
    that also ``normalizer_c``, which is c(subsample_size), and their own
    copy of the catalogue hash. Documents in those layouts score bit for bit
    like the current one, and a wrong ``normalizer_c`` is ignored."""
    cfg, policy, _, model = arts_model
    doc = model.to_json_dict()
    lists = {**doc, "forests": [listed(forest) for forest in doc["forests"]]}
    old = json.loads(json.dumps(lists))
    for forest in old["forests"]:
        assert "normalizer_c" not in forest and "feature_manifest_hash" not in forest
        forest.update(normalizer_c=iforest.average_path_length(forest["subsample_size"]),
                      feature_manifest_hash=doc["feature_manifest_hash"])
    wrong = json.loads(json.dumps(old))
    for forest in wrong["forests"]:
        forest["normalizer_c"] = 99.0
    ep = run_episode(cfg, policy, seed=2024)
    want = score_stream(DexterModel.from_json_dict(doc), ep).scores
    assert np.array_equal(want, score_stream(model, ep).scores, equal_nan=True)
    assert DexterModel.from_json_dict(json.loads(json.dumps(lists))).to_json_dict() == doc
    for loaded in (lists, old, wrong):
        back = DexterModel.from_json_dict(loaded)
        assert back.forests[0].normalizer_c == iforest.average_path_length(600)
        assert np.array_equal(score_stream(back, ep).scores, want, equal_nan=True)


def test_malformed_model_documents_are_rejected(arts_model):
    good = arts_model[3].to_json_dict()
    cases = [{k: v for k, v in good.items() if k != key}
             for key in ("forests", "window_size", "feature_manifest_hash")]
    cases += [{**good, "forests": []}, {**good, "forests": None},
              {**good, "window_size": 3}, {**good, "window_size": "ten"}, None, [],
              {**good, "forests": [{**good["forests"][0], "feature_count": 30}]}]
    for doc in cases:
        with pytest.raises(IncompatibleModelError):
            DexterModel.from_json_dict(doc)


def test_window_size_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(ConfigError):
        train([rng.normal(size=(40, 1))], window_size=3)


def test_cusum_detector_fields_after_calibration(arts_model):
    _, _, episodes, model = arts_model
    detector = calibrate(model, episodes, target_fpr=0.1, seed=7)
    assert isinstance(detector, CusumDetector)
    assert 0.0 < detector.mean_score_abar < 1.0
    assert detector.target_fpr == 0.1


@st.composite
def stream_cases(draw):
    """A small model of 1, 4 or 6 dimensions and window 4..16, a CUSUM rule,
    and an episode of random-walk observations (of 1, W - 1, W, 30 or 60
    steps, possibly with a level shift, an exact zero or ties from rounding)
    at a magnitude between 1e-3 and 1e3."""
    dims, window = draw(st.sampled_from([1, 4, 6])), draw(st.integers(4, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    train_eps = [np.cumsum(rng.normal(size=(4 * window, dims)), axis=0) * scale for _ in range(2)]
    model = train(train_eps, window_size=window, num_trees=draw(st.integers(1, 12)),
                  seed=draw(st.integers(0, 1000)))
    length = draw(st.sampled_from([1, window - 1, window, 30, 60]))
    episode = np.cumsum(rng.normal(size=(length, dims)), axis=0)
    episode[len(episode) // 2:] += draw(st.sampled_from([0.0, 5.0]))
    if draw(st.booleans()):
        episode = np.round(episode)
        episode[0, 0] = -0.0
    decision = CusumDetector(mean_score_abar=draw(st.floats(0.3, 0.6)),
                             threshold_tau=draw(st.floats(0.0, 1.0)), target_fpr=0.05)
    return model, decision, episode * scale


@settings(max_examples=60, deadline=None)
@given(stream_cases())
def test_stream_equals_score_stream_and_first_alert_bit_for_bit(case):
    model, decision, episode = case
    stream = DexterStream(model, decision)
    pushed = [stream.push(observation) for observation in episode]
    scores = np.array([score for score, _ in pushed])
    expected = score_stream(model, episode).scores
    assert np.array_equal(scores.view(np.int64), expected.view(np.int64))
    alerts = [alerted for _, alerted in pushed]
    first = next((t for t, alerted in enumerate(alerts) if alerted), None)
    assert first == first_alert_step(decision, expected)
    assert all(alerts[first:]) if first is not None else not any(alerts)


def test_stream_refuses_bad_observations_and_keeps_its_state(arts_model):
    cfg, policy, episodes, model = arts_model
    decision = CusumDetector(mean_score_abar=0.4, threshold_tau=0.5, target_fpr=0.05)
    ep = run_episode(cfg, policy, seed=4242)
    stream = DexterStream(model, decision)
    pushed = []
    for t, observation in enumerate(ep.observations):
        if t == 15:
            for bad in ([np.nan], [np.inf], ["x"], None):
                with pytest.raises(DataError):
                    stream.push(bad)
            for wrong in ([1.0, 2.0], [], [[1.0]]):
                with pytest.raises(IncompatibleModelError):
                    stream.push(wrong)
        pushed.append(stream.push(observation))
    scores = np.array([score for score, _ in pushed])
    assert np.array_equal(scores.view(np.int64), score_stream(model, ep).scores.view(np.int64))
    with pytest.raises(ConfigError):
        DexterStream(model, None)
