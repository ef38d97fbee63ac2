import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexter.cusum import (
    CusumDetector,
    CusumMonitor,
    _clamped_walk,
    calibrate_from_streams,
    calibrate_split_half,
    first_alert_step,
    percentile_threshold,
    split_halves,
)
from dexter.errors import ConfigError, IncompatibleModelError


def brute_clamped_max(values, mean):
    s = 0.0
    best = 0.0
    for v in values:
        if not np.isnan(v):
            s = max(0.0, s + v - mean)
            best = max(best, s)
    return best


def max_excursion(stream, mean):
    """The running maximum calibration records for one stream."""
    return max(_clamped_walk(mean, stream), default=0.0)


def test_clamped_excursion_matches_direct_recursion():
    rng = np.random.default_rng(0)
    for _ in range(200):
        stream = rng.normal(size=rng.integers(1, 60))
        mean = rng.normal()
        assert max_excursion(stream, mean) == pytest.approx(
            brute_clamped_max(stream, mean), abs=1e-12
        )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0) | st.just(float("nan")), max_size=200),
       st.floats(0.0, 1.0))
def test_calibration_maximum_is_the_monitor_statistic_bit_for_bit(stream, mean):
    monitor = CusumMonitor(CusumDetector(mean_score_abar=mean, threshold_tau=np.inf, target_fpr=0.01))
    largest = 0.0
    walk = list(_clamped_walk(mean, np.array(stream)))
    assert len(walk) == len(stream)
    for value, walked in zip(stream, walk):
        monitor.update(value)
        assert walked == monitor.statistic
        largest = max(largest, monitor.statistic)
    assert max_excursion(np.array(stream), mean) == largest


def test_split_half_calibration_fits_on_first_half_and_walks_the_second():
    items = list(range(9))
    first, second = split_halves(len(items), seed=5)
    seen = []

    def reference(half):
        seen.append(half)
        return 100

    def walk(ref, item):
        return iter([] if item == second[0] else [ref + item, float(item)])

    ref, threshold = calibrate_split_half(items, 0.25, 5, reference, walk)
    assert seen == [[items[i] for i in first]] and ref == 100
    maxima = [0.0] + [100 + items[i] for i in second[1:]]
    assert threshold == percentile_threshold(maxima, 0.25)


def test_degenerate_calibration_gives_zero_threshold():
    streams = [np.full(40, 0.37) for _ in range(10)]
    det = calibrate_from_streams(streams, target_fpr=0.01)
    assert det.mean_score_abar == pytest.approx(0.37)
    assert det.threshold_tau == 0.0


def test_constant_scores_at_mean_never_alert():
    det = CusumDetector(mean_score_abar=0.5, threshold_tau=0.0, target_fpr=0.01)
    monitor = CusumMonitor(det)
    for _ in range(100):
        assert not monitor.update(0.5)
        assert monitor.statistic == 0.0


def test_zero_threshold_alerts_on_first_excess():
    det = CusumDetector(mean_score_abar=0.5, threshold_tau=0.0, target_fpr=0.01)
    stream = [0.5, 0.5, 0.51, 0.5]
    assert first_alert_step(det, stream) == 2


@pytest.mark.parametrize("window", [5, 10])
@pytest.mark.parametrize("tau,delta", [(1.0, 0.1), (1.0, 0.25), (2.0, 0.5)])
def test_closed_form_alert_step_for_constant_excess(window, tau, delta):
    # With warm-up NaNs for t < W-1 and a constant excess delta afterwards,
    # the alert lands exactly at W - 1 + ceil(tau / delta) when tau/delta is
    # an integer (strict crossing needs one extra step beyond tau).
    det = CusumDetector(mean_score_abar=0.4, threshold_tau=tau, target_fpr=0.01)
    stream = np.concatenate([np.full(window - 1, np.nan), np.full(400, 0.4 + delta)])
    expected = window - 1 + int(np.ceil(tau / delta))
    assert first_alert_step(det, stream) == expected


def test_nan_scores_freeze_the_statistic():
    det = CusumDetector(mean_score_abar=0.0, threshold_tau=10.0, target_fpr=0.01)
    monitor = CusumMonitor(det)
    monitor.update(3.0)
    assert monitor.statistic == 3.0
    monitor.update(float("nan"))
    assert monitor.statistic == 3.0


def test_statistic_nonnegative_always():
    rng = np.random.default_rng(1)
    det = CusumDetector(mean_score_abar=0.0, threshold_tau=np.inf, target_fpr=0.01)
    monitor = CusumMonitor(det)
    for v in rng.normal(size=500):
        monitor.update(v)
        assert monitor.statistic >= 0.0


def test_pointwise_larger_stream_never_alerts_later():
    rng = np.random.default_rng(2)
    det = CusumDetector(mean_score_abar=0.0, threshold_tau=2.0, target_fpr=0.01)
    for _ in range(200):
        base = rng.normal(scale=0.5, size=80)
        larger = base + np.abs(rng.normal(scale=0.3, size=80))
        a = first_alert_step(det, base)
        b = first_alert_step(det, larger)
        assert (b if b is not None else np.inf) <= (a if a is not None else np.inf)


def test_percentile_exceedance_count_contract():
    # With 200 second-half episodes and a 1% target, at most ceil(2) of the
    # calibration maxima themselves exceed the threshold.
    rng = np.random.default_rng(3)
    streams = [rng.normal(loc=0.5, scale=0.1, size=100) for _ in range(400)]
    det = calibrate_from_streams(streams, target_fpr=0.01, seed=0)
    _, second = split_halves(len(streams), 0)
    assert len(second) == 200
    exceed = sum(max_excursion(streams[i], det.mean_score_abar) > det.threshold_tau for i in second)
    assert exceed <= 2


def test_split_halves_is_a_seeded_partition():
    a1, b1 = split_halves(11, seed=4)
    a2, b2 = split_halves(11, seed=4)
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
    assert len(a1) == 5 and len(b1) == 6
    assert sorted(np.concatenate([a1, b1])) == list(range(11))


def test_calibration_validation():
    streams = [np.full(10, 0.5), np.full(10, 0.5)]
    for bad_fpr in (0.0, 1.0, -0.1):
        with pytest.raises(ConfigError):
            calibrate_from_streams(streams, target_fpr=bad_fpr)
    with pytest.raises(ConfigError):
        calibrate_from_streams([np.full(10, 0.5)], target_fpr=0.01)
    with pytest.raises(ConfigError, match="no defined scores"):
        calibrate_from_streams([np.full(10, np.nan)] * 4, target_fpr=0.01)


def test_percentile_threshold_uses_linear_interpolation():
    maxima = np.arange(101, dtype=float)
    assert percentile_threshold(maxima, 0.01) == pytest.approx(99.0)
    assert percentile_threshold(maxima, 0.5) == pytest.approx(50.0)


def test_detector_json_roundtrip():
    det = CusumDetector(mean_score_abar=0.451, threshold_tau=2.75, target_fpr=0.01)
    assert CusumDetector.from_json_dict(det.to_json_dict()) == det


@pytest.mark.parametrize("value", [None, "0.4", float("nan"), float("inf"), [0.4], False])
def test_detector_json_rejects_missing_and_non_numeric_fields(value):
    doc = CusumDetector(mean_score_abar=0.451, threshold_tau=2.75, target_fpr=0.01).to_json_dict()
    for field in doc:
        with pytest.raises(IncompatibleModelError, match=field):
            CusumDetector.from_json_dict({**doc, field: value})
        with pytest.raises(IncompatibleModelError, match=field):
            CusumDetector.from_json_dict({k: v for k, v in doc.items() if k != field})
    with pytest.raises(IncompatibleModelError):
        CusumDetector.from_json_dict(None)


@pytest.mark.parametrize("field, value", [
    ("threshold_tau", -1.0), ("threshold_tau", -1e-300),
    ("target_fpr", 0.0), ("target_fpr", 1.0), ("target_fpr", -0.01), ("target_fpr", 1.5),
])
def test_detector_json_rejects_thresholds_calibration_cannot_produce(field, value):
    doc = CusumDetector(mean_score_abar=0.451, threshold_tau=2.75, target_fpr=0.01).to_json_dict()
    with pytest.raises(IncompatibleModelError, match=field):
        CusumDetector.from_json_dict({**doc, field: value})
    edge = {**doc, "threshold_tau": 0.0}  # all running maxima 0 calibrates to tau 0
    assert CusumDetector.from_json_dict(edge).threshold_tau == 0.0
