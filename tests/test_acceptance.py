"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

Run with ``pytest tests/test_acceptance.py -v -s``. The experiment bundles
are built once per session from a fixed master seed, and every detector is
measured on the same episode banks so cross-detector comparisons share
seeds.
"""

import math
import time

import numpy as np
import pytest

from dexter import isolation_forest as iforest
from dexter.ar_noise import ARProcessSpec, spliced_series
from dexter.cli import main as cli_main
from dexter.cusum import CusumDetector, CusumMonitor, first_alert_step
from dexter.environments import (
    BaseEnv,
    CartpoleEnv,
    PolicyKind,
    Scenario,
    ScenarioConfig,
    builtin_policy,
    run_episode,
)
from dexter.errors import ConfigError
from dexter.evaluation import (
    EpisodeCounts,
    auroc_raw,
    fit_detector,
    generate_banks,
    generate_episodes,
    measure_detector,
    resolve_policy,
    resolve_scales,
)
from dexter.ts_features import FEATURE_NAMES, extract_features_batch
from recorded_states import recorded_episode

MASTER_SEED = 0
MODES = ("one_step", "two_step")

ARTS_COUNTS = EpisodeCounts(num_train=400, num_validation=200, num_test=50, num_clean_test=200)
ARTS_DEXTER_PARAMS = {"window_size": 10, "num_trees": 300, "subsample_cap": 8000}

ARNO_COUNTS = EpisodeCounts(num_train=150, num_validation=150, num_test=50, num_clean_test=50)
ARNO_DEXTER_PARAMS = {"window_size": 10, "num_trees": 150, "subsample_cap": 3000}


def check(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def _noise_spec(mode: str, scale: float = 1.0) -> ARProcessSpec:
    if mode == "one_step":
        return ARProcessSpec.one_step(0.95, scale=scale)
    return ARProcessSpec.two_step(0.95, scale=scale)


def _build_bundle(scenario: Scenario, base_env: BaseEnv, scale: float, counts: EpisodeCounts,
                  dexter_params: dict, detectors=("dexter", "pedm", "meanshift")):
    """Per correlation mode: shared episode banks plus one trained, measured
    detector of each kind."""
    bundle = {}
    for mode in MODES:
        config = ScenarioConfig(
            scenario=scenario,
            base_env=base_env,
            noise=_noise_spec(mode, scale),
        )
        _, policy = resolve_policy(config)
        config = resolve_scales(config, policy, MASTER_SEED)
        banks = generate_banks(config, policy, counts, MASTER_SEED)
        entry = {"config": config, "policy": policy, "banks": banks,
                 "trained": {}, "results": {}, "elapsed": {}}
        for kind in detectors:
            t0 = time.time()
            params = dexter_params if kind == "dexter" else None
            trained = fit_detector(kind, params, banks, MASTER_SEED, 0.01)
            result, _ = measure_detector(trained, banks["test"], banks["clean_test"], config,
                                         MASTER_SEED, 0.01, counts)
            entry["trained"][kind] = trained
            entry["results"][kind] = result
            entry["elapsed"][kind] = time.time() - t0
        bundle[mode] = entry
    return bundle


@pytest.fixture(scope="module")
def arts_bundle():
    return _build_bundle(Scenario.ARTS, BaseEnv.CONSTANT, 1.0, ARTS_COUNTS, ARTS_DEXTER_PARAMS)


@pytest.fixture(scope="module")
def arno_bundle():
    return _build_bundle(
        Scenario.ARNO, BaseEnv.CARTPOLE, 0.5, ARNO_COUNTS, ARNO_DEXTER_PARAMS,
        detectors=("dexter", "pedm"),
    )


def test_criterion_1_arts_auroc_and_runtime(arts_bundle):
    a1 = arts_bundle["one_step"]["results"]["dexter"].auroc
    a2 = arts_bundle["two_step"]["results"]["dexter"].auroc
    runtime = (arts_bundle["one_step"]["elapsed"]["dexter"]
               + arts_bundle["two_step"]["elapsed"]["dexter"])
    ok = a1 >= 0.80 and a2 >= 0.75 and runtime < 300.0
    check(
        "criterion 1 (ARTS AUROC reproduction)",
        ok,
        f"1-step AUROC={a1:.3f} (>=0.80), 2-step AUROC={a2:.3f} (>=0.75), "
        f"detector runtime={runtime:.0f}s (<300s)",
    )


def test_criterion_2_arts_detection_time(arts_bundle):
    r1 = arts_bundle["one_step"]["results"]["dexter"]
    r2 = arts_bundle["two_step"]["results"]["dexter"]
    ok = (
        r1.mean_detection_time <= 45.0
        and r2.mean_detection_time <= 60.0
        and r1.detected_fraction >= 0.90
        and r2.detected_fraction >= 0.90
    )
    check(
        "criterion 2 (ARTS detection time)",
        ok,
        f"1-step mean={r1.mean_detection_time:.1f} (<=45) detected={r1.detected_fraction:.1%}, "
        f"2-step mean={r2.mean_detection_time:.1f} (<=60) detected={r2.detected_fraction:.1%} "
        f"(both >=90%)",
    )


def test_criterion_3_arno_cartpole_strong(arno_bundle):
    details = []
    ok = True
    for mode in MODES:
        dex = arno_bundle[mode]["results"]["dexter"].auroc
        ped = arno_bundle[mode]["results"]["pedm"].auroc
        ok = ok and dex >= 0.80 and dex > ped
        details.append(f"{mode}: dexter={dex:.3f} (>=0.80) vs pedm={ped:.3f} (strictly below)")
    check("criterion 3 (ARNO cartpole strong noise)", ok, "; ".join(details))


def test_criterion_4_baseline_blindness_on_arts(arts_bundle):
    details = []
    ok = True
    for mode in MODES:
        dex = arts_bundle[mode]["results"]["dexter"].auroc
        ped = arts_bundle[mode]["results"]["pedm"].auroc
        ms = arts_bundle[mode]["results"]["meanshift"].auroc
        ok = ok and ped <= 0.65 and ms <= dex - 0.05
        details.append(f"{mode}: pedm={ped:.3f} (<=0.65), meanshift={ms:.3f} (<=dexter-0.05={dex - 0.05:.3f})")
    check("criterion 4 (baseline blindness on ARTS)", ok, "; ".join(details))


def test_criterion_5_cusum_false_positive_rates(arts_bundle):
    entry = arts_bundle["one_step"]
    clean = generate_episodes(entry["config"], entry["policy"], "fpr_clean", 500,
                              MASTER_SEED, inject=False)
    rates = {}
    for kind in ("dexter", "pedm"):
        trained = entry["trained"][kind]
        alerts = sum(trained.alert_step(ep) is not None for ep in clean)
        rates[kind] = alerts / len(clean)
    ok = all(0.0 <= rate <= 0.03 for rate in rates.values())
    check(
        "criterion 5 (CUSUM calibration contract)",
        ok,
        f"500 fresh clean episodes at target FPR 0.01: dexter+C={rates['dexter']:.4f}, "
        f"pedm-C={rates['pedm']:.4f} (both within [0, 0.03])",
    )


def test_criterion_6_oracle_equivalences():
    # AUROC vs O(n^2) brute force
    rng = np.random.default_rng(0)
    max_err = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        labels = rng.random(n) < 0.5
        if labels.all():
            labels[0] = False
        if not labels.any():
            labels[0] = True
        scores = np.round(rng.normal(size=n), 1)
        pos = scores[labels]
        neg = scores[~labels]
        brute = sum((p > v) + 0.5 * (p == v) for p in pos for v in neg) / (len(pos) * len(neg))
        max_err = max(max_err, abs(auroc_raw(scores, labels) - brute))
    auroc_ok = max_err <= 1e-12

    # autocorrelation and FFT features vs direct formulas
    idx = {name: i for i, name in enumerate(FEATURE_NAMES)}
    windows = rng.normal(size=(200, 10))
    feats = extract_features_batch(windows)
    feat_err = 0.0
    for i in range(200):
        x = windows[i]
        xc = x - x.mean()
        for lag in range(1, 5):
            direct = float(np.sum(xc[lag:] * xc[:-lag]) / np.sum(xc * xc))
            feat_err = max(feat_err, abs(feats[i, idx[f"autocorr_lag{lag}"]] - direct))
        for k in range(1, 5):
            re = sum(x[t] * math.cos(-2 * math.pi * k * t / 10) for t in range(10))
            im = sum(x[t] * math.sin(-2 * math.pi * k * t / 10) for t in range(10))
            feat_err = max(feat_err, abs(feats[i, idx[f"fft_abs_coeff{k}"]] - math.hypot(re, im)))
    features_ok = feat_err <= 1e-9

    # isolation-forest score formula on the psi = 2 hand case: c(2) = 1,
    # isolation at depth 1 gives score 2^(-1) = 0.5
    model = iforest.fit(np.array([[0.0], [1.0]]), num_trees=10, subsample=2, seed=1)
    score_ok = (
        abs(iforest.score_batch(model, [[0.0]])[0] - 0.5) < 1e-12
        and abs(iforest.average_path_length(2) - 1.0) < 1e-12
    )

    ok = auroc_ok and features_ok and score_ok
    check(
        "criterion 6 (oracle equivalences)",
        ok,
        f"AUROC max|err|={max_err:.2e} (<=1e-12), feature max|err|={feat_err:.2e} (<=1e-9), "
        f"hand-built forest score 0.5 exact={score_ok}",
    )


def test_criterion_7_ar_generator_statistics():
    def acf(x, lag):
        xc = x - x.mean()
        return float(np.sum(xc[lag:] * xc[:-lag]) / np.sum(xc * xc))

    # Correlated from an injection at step 1 on, at the white noise's
    # variance sigma^2 = 1.
    one = spliced_series(ARProcessSpec.one_step(0.95), 1, 100_000, seed=42)
    two = spliced_series(ARProcessSpec.two_step(0.95), 1, 100_000, seed=43)
    lag1_one = acf(one, 1)
    lag2_two = acf(two, 2)
    lag1_two = acf(two, 1)
    var_theory = 1.0
    var_rel = abs(one.var() - var_theory) / var_theory
    ok = (
        abs(lag1_one - 0.95) < 0.02
        and abs(lag2_two - 0.95) < 0.02
        and abs(lag1_two) < 0.05
        and var_rel < 0.05
    )
    check(
        "criterion 7 (AR generator statistics)",
        ok,
        f"1-step lag1={lag1_one:.4f} (0.95 +/- 0.02), 2-step lag2={lag2_two:.4f} "
        f"(0.95 +/- 0.02) lag1={lag1_two:.4f} (~0), variance error={var_rel:.2%} (<5%)",
    )


def test_criterion_8_invariant_suites(tmp_path):
    # ARNO hidden dynamics equal the clean run with the same actions
    cfg = ScenarioConfig(
        scenario=Scenario.ARNO,
        base_env=BaseEnv.CARTPOLE,
        noise=ARProcessSpec.one_step(0.95, scale=0.5),
        per_dimension_scale=(0.23, 0.17, 0.008, 0.2),
    )
    policy = builtin_policy(BaseEnv.CARTPOLE, PolicyKind.HEURISTIC)
    env = CartpoleEnv()

    def replay(episode, hidden):
        states = [hidden[0].tolist()]
        for action in episode.actions:
            states.append(env.step(states[-1], int(action))[0])
        return np.array(states)

    ep, hidden = recorded_episode(cfg, policy, seed=11)
    arno_ok = np.array_equal(replay(ep, hidden), hidden)

    # ARNS with zero noise is bit-equal to the clean environment
    from dataclasses import replace

    blank = replace(cfg, scenario=Scenario.ARNS, per_dimension_scale=(0.0, 0.0, 0.0, 0.0))
    arns_ep, arns_hidden = recorded_episode(blank, policy, seed=11)
    arns_ok = arns_ep.length > 30 and np.array_equal(replay(arns_ep, arns_hidden), arns_hidden)

    # CUSUM non-negativity and the closed-form alert step
    det = CusumDetector(mean_score_abar=0.4, threshold_tau=1.0, target_fpr=0.01)
    monitor = CusumMonitor(det)
    nonneg = True
    for v in np.random.default_rng(1).normal(0.4, 0.2, size=300):
        monitor.update(float(v))
        nonneg = nonneg and monitor.statistic >= 0.0
    window, delta = 10, 0.1
    stream = np.concatenate([np.full(window - 1, np.nan), np.full(200, 0.4 + delta)])
    closed_form_ok = first_alert_step(det, stream) == window - 1 + math.ceil(1.0 / delta)

    # end-to-end double run byte determinism via the CLI
    import json as _json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_json.dumps({
        "scenario": {"scenario": "arts", "base_env": "constant"},
        "detector": {"kind": "dexter", "num_trees": 10, "subsample_cap": 100},
        "evaluation": {"num_train": 8, "num_validation": 6, "num_test": 3,
                       "num_clean_test": 3, "master_seed": 5},
    }))
    for out in ("d1", "d2"):
        assert cli_main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
        assert cli_main(["train", "--config", str(cfg_path), "--dataset", str(tmp_path / out),
                         "--out", str(tmp_path / f"{out}.model.json")]) == 0
    det_ok = (
        (tmp_path / "d1" / "train.jsonl").read_bytes() == (tmp_path / "d2" / "train.jsonl").read_bytes()
        and (tmp_path / "d1.model.json").read_bytes() == (tmp_path / "d2.model.json").read_bytes()
    )

    ok = arno_ok and arns_ok and nonneg and closed_form_ok and det_ok
    check(
        "criterion 8 (invariant suites)",
        ok,
        f"ARNO hidden-state bit-equality={arno_ok}, ARNS zero-noise bit-equality={arns_ok}, "
        f"CUSUM nonneg={nonneg}, closed-form alert step={closed_form_ok}, "
        f"double-run byte determinism={det_ok}",
    )


def test_criterion_9_substitutions_are_explicit():
    # The benchmark surface deliberately omits the physics-engine environment
    # and reward-calibrated noise levels: base environments are exactly
    # {cartpole, acrobot, constant}, noise levels are plain magnitude scales,
    # and the state-noise scenario refuses acrobot.
    envs = {e.value for e in BaseEnv}
    envs_ok = envs == {"cartpole", "acrobot", "constant"}
    with pytest.raises(ConfigError):
        ScenarioConfig(
            scenario=Scenario.ARNS,
            base_env=BaseEnv.ACROBOT,
            noise=ARProcessSpec.one_step(0.95),
        )
    magnitude_is_plain_scale = ARProcessSpec.no_correlation(scale=0.3).magnitude_scale == 0.3
    ok = envs_ok and magnitude_is_plain_scale
    check(
        "criterion 9 (explicit substitutions)",
        ok,
        f"base envs={sorted(envs)} (no physics-engine env), noise levels are fixed "
        f"magnitude scales (0.1/0.3/0.5 documented) rather than reward-calibrated",
    )
