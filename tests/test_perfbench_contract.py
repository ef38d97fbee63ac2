"""The benchmark in ``perfbench/`` wraps library functions by name
(``vars(owner)[attr]``): the untraced runs time ``TrainedDetector.alert_step``
for the ``step_p*`` samples, and ``--trace 1`` wraps every layer probe. A
refactor that renames or moves one of those attributes breaks the benchmark
without failing any library test, so each probe is checked here. The probes'
record functions read attributes of the arguments and results they see
(``model.trees``, ``trained.kind``), so a tiny experiment of each kind is
also run under every probe, and every stage probe must see its calls: a
stage that bypassed the probed attributes would read about 0 seconds."""

import json
import os
import sys

import pytest

from dexter import evaluation, persistence
from dexter.cli import main as cli_main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_every_probe_names_an_attribute_of_its_owner():
    probes = layers.stage_probes() + layers.layer_probes()
    missing = [f"{p.owner.__name__}.{p.attr}" for p in probes if p.attr not in vars(p.owner)]
    assert not missing


@pytest.mark.parametrize("kind", ["dexter", "pedm", "meanshift"])
def test_probe_records_run_on_a_tiny_experiment(kind):
    config = persistence.parse_config({
        "scenario": {"scenario": "arno", "base_env": "cartpole", "magnitude_scale": 0.5,
                     "per_dimension_scale": [1.0] * 4},
        "evaluation": {"master_seed": 3},
    })
    counts = evaluation.EpisodeCounts(num_train=4, num_validation=4, num_test=2, num_clean_test=4)
    params = {"num_trees": 5} if kind == "dexter" else None
    with Tracer(layers.stage_probes() + layers.layer_probes()) as tracer:
        evaluation.run_experiment(config.scenario_config(), kind, master_seed=3, counts=counts,
                                  detector_params=params)
    traced = tracer.layers
    metrics = layers.per_layer_metrics(traced)
    # resolve_scales and one generate_episodes per bank; one fit; one measure.
    assert traced["generate"].calls == 5
    assert traced["evaluation.generate_episodes"].calls == 4
    assert traced["train"].calls == 2
    assert traced["evaluation.train_detector"].calls == 1
    assert traced["evaluation.calibrate_detector"].calls == 1
    assert traced["evaluate"].calls == 1
    assert traced["evaluation.measure_detector"].calls == 1
    # A CUSUM kind decides its injected episodes on the scores the AUROCs
    # used, so only the 4 clean ones pass through alert_step; mean-shift's
    # 2 injected episodes do too.
    assert traced["decision"].calls == (6 if kind == "meanshift" else 4)
    if kind == "dexter":
        assert traced["isolation_forest.fit"].counts == {"trees": 20}
        assert metrics["isolation_forest.score_batch.point_trees"][0] > 0
        assert traced["ts_features.extract_features_batch"].counts["windows"] > 0
        # 4 validation, 2 injected and 4 clean episodes, each scored once.
        assert traced["detector.score_stream"].calls == 10
        assert len(traced["detector.score_stream"].keys) == 10
        assert len(traced["decision"].samples) == 4
    else:
        assert traced["decision"].samples == []
        fit = {"pedm": "fit_dynamics_from_episodes", "meanshift": "fit_meanshift"}[kind]
        assert traced[f"baselines.{fit}"].calls == 1


@pytest.mark.parametrize("kind", ["dexter", "pedm", "meanshift"])
def test_stage_probes_see_every_cli_stage(tmp_path, kind):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "scenario": {"scenario": "arts", "base_env": "constant"},
        "detector": {"kind": kind, **({"num_trees": 5} if kind == "dexter" else {})},
        "evaluation": {"num_train": 4, "num_validation": 4, "num_test": 2, "num_clean_test": 3,
                       "master_seed": 3},
    }))
    ds, model = str(tmp_path / "ds"), str(tmp_path / "model.json")
    stages = [["generate", "--out", ds],
              ["train", "--dataset", ds, "--out", model],
              ["evaluate", "--dataset", ds, "--model", model, "--out", str(tmp_path / "out")]]
    expected = [{"generate": 5}, {"train": 2}, {"evaluate": 1}]
    for argv, calls in zip(stages, expected):
        with Tracer(layers.stage_probes()) as tracer:
            assert cli_main(argv + ["--config", str(cfg)]) == 0
        seen = {name: stats.calls for name, stats in tracer.layers.items() if stats.calls}
        seen.pop("decision", None)
        assert seen == calls


def test_stage_probes_see_one_generation_per_bench_mode(tmp_path):
    """``arno_bench`` times ``bench``: the detectors of one mode share one
    set of banks, so three detectors give 5 generate calls (one
    ``resolve_scales`` and four banks), 6 train calls and 3 evaluate calls."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "scenario": {"scenario": "arno", "base_env": "cartpole", "magnitude_scale": 0.5},
        "detector": {"kind": "dexter", "num_trees": 5},
        "evaluation": {"num_train": 4, "num_validation": 4, "num_test": 2, "num_clean_test": 3,
                       "master_seed": 3},
        "bench": {"detectors": ["dexter", "pedm", "meanshift"], "correlation_modes": ["one_step"]},
    }))
    with Tracer(layers.stage_probes()) as tracer:
        assert cli_main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b"), "--jobs", "1"]) == 0
    seen = {name: stats.calls for name, stats in tracer.layers.items() if stats.calls}
    assert seen.pop("decision") > 0
    assert seen == {"generate": 5, "train": 6, "evaluate": 3}
    assert persistence.read_json(tmp_path / "b" / "report.json")["num_failed"] == 0
