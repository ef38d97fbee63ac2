import base64
import contextlib
import csv
import io
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dexter import cli, isolation_forest, persistence
from dexter.ar_noise import ARProcessSpec
from dexter.cli import DATASET_FILES, main
from dexter.environments import ScenarioConfig
from dexter.errors import ConfigError
from dexter.evaluation import EpisodeCounts, detector_params_with_defaults
from dexter.isolation_forest import COLUMN_KINDS
from dexter.persistence import RESULT_CSV_COLUMNS, config_hash, read_json
from forest_columns import column_text, column_values, listed


def write_config(path, **overrides):
    doc = {
        "scenario": {"scenario": "arts", "base_env": "constant",
                     "correlation_mode": "one_step", "phi": 0.95},
        "detector": {"kind": "dexter", "num_trees": 25, "subsample_cap": 300},
        "evaluation": {"num_train": 15, "num_validation": 10, "num_test": 5,
                       "num_clean_test": 5, "master_seed": 7},
    }
    for section, vals in overrides.items():
        doc.setdefault(section, {}).update(vals)
    path.write_text(json.dumps(doc))
    return doc


@pytest.fixture()
def workspace(tmp_path):
    cfg = tmp_path / "config.json"
    write_config(cfg)
    return tmp_path, cfg


def read_file(path):
    with open(path, "rb") as handle:
        return handle.read()


def read_records(path):
    """The JSON documents of a JSON Lines file, one per line."""
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def write_records(path, records):
    Path(path).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_generate_train_evaluate_pipeline(workspace):
    tmp, cfg = workspace
    ds = tmp / "ds"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    for name in ("train.jsonl", "validation.jsonl", "test_injected.jsonl",
                 "test_clean.jsonl", "manifest.json"):
        assert (ds / name).exists()

    manifest = read_json(ds / "manifest.json")
    assert manifest["config_hash"] == config_hash(manifest["config"])
    assert manifest["schema_version"] == persistence.SCHEMA_VERSION
    assert sorted(manifest) == ["config", "config_hash", "schema_version", "tool_version"]
    assert len(read_records(ds / "train.jsonl")) == 15

    model = tmp / "model.json"
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--out", str(model)]) == 0
    doc = read_json(model)
    assert sorted(doc) == ["config_hash", "detector", "schema_version", "tool_version"]
    assert doc["detector"]["kind"] == "dexter"
    assert len(doc["detector"]["model"]["forests"]) == 1
    assert doc["detector"]["model"]["window_size"] == 10
    assert doc["detector"]["cusum"]["mean_score_abar"] > 0
    assert doc["detector"]["cusum"]["threshold_tau"] >= 0
    assert doc["config_hash"] == manifest["config_hash"]

    out = tmp / "results"
    assert main(["evaluate", "--config", str(cfg), "--model", str(model),
                 "--dataset", str(ds), "--out", str(out), "--emit-scores"]) == 0
    rows = list(csv.DictReader(open(out / "results.csv")))
    assert len(rows) == 1
    assert tuple(rows[0].keys()) == RESULT_CSV_COLUMNS
    assert 0.5 <= float(rows[0]["auroc"]) <= 1.0
    per_episode = read_json(out / "report.json")["results"][0]["per_episode"]
    assert len(per_episode) == 5
    assert all(sorted(row) == ["alert_step", "injection_time", "length", "seed"] for row in per_episode)

    score_files = sorted(os.listdir(out / "scores"))
    assert len(score_files) == 5
    lines = [json.loads(l) for l in open(out / "scores" / score_files[0])]
    assert lines[0]["t"] >= 9
    assert all("score" in l for l in lines)


def test_generate_is_byte_deterministic(workspace):
    tmp, cfg = workspace
    ds1, ds2 = tmp / "a", tmp / "b"
    assert main(["generate", "--config", str(cfg), "--out", str(ds1)]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(ds2)]) == 0
    for name in ("train.jsonl", "validation.jsonl", "test_injected.jsonl",
                 "test_clean.jsonl", "manifest.json"):
        assert read_file(ds1 / name) == read_file(ds2 / name)


def test_seed_override_changes_dataset(workspace):
    tmp, cfg = workspace
    ds1, ds2 = tmp / "a", tmp / "b"
    main(["generate", "--config", str(cfg), "--out", str(ds1)])
    main(["generate", "--config", str(cfg), "--out", str(ds2), "--seed-override", "99"])
    assert read_file(ds1 / "train.jsonl") != read_file(ds2 / "train.jsonl")
    assert read_json(ds2 / "manifest.json")["config"]["evaluation"]["master_seed"] == 99


def test_the_config_seed_changes_no_train_or_evaluate_output(workspace):
    # train and evaluate take the seed from the dataset manifest, so a config
    # with another seed or with none gives the same bytes.
    tmp, cfg = workspace
    ds = tmp / "ds"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    reseeded, unseeded = tmp / "reseeded.json", tmp / "unseeded.json"
    doc = read_json(cfg)
    reseeded.write_text(json.dumps({**doc, "evaluation": {**doc["evaluation"], "master_seed": 99}}))
    del doc["evaluation"]["master_seed"]
    unseeded.write_text(json.dumps(doc))

    outputs = []
    for i, config in enumerate((cfg, reseeded, unseeded)):
        model, out = tmp / f"model{i}.json", tmp / f"eval{i}"
        common = ["--config", str(config), "--dataset", str(ds)]
        assert main(["train", *common, "--out", str(model)]) == 0
        assert main(["evaluate", *common, "--model", str(model), "--out", str(out)]) == 0
        outputs.append([read_file(p) for p in (model, out / "report.json", out / "results.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_train_and_evaluate_take_no_seed_override(workspace, capsys):
    tmp, cfg = workspace
    for command in (["train"], ["evaluate", "--model", str(tmp / "model.json")]):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--config", str(cfg), "--dataset", str(tmp), "--out", str(tmp / "out"),
                  "--seed-override", "99"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed-override 99" in capsys.readouterr().err


def test_invalid_config_fails_with_exit_code_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    write_config(cfg, scenario={"injection_window": [2, 400]})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 1
    assert "injection_window" in capsys.readouterr().err

    cfg2 = tmp_path / "bad2.json"
    write_config(cfg2, scenario={"unknown_field": 1})
    assert main(["generate", "--config", str(cfg2), "--out", str(tmp_path / "ds2")]) == 1

    cfg3 = tmp_path / "bad3.json"
    doc = write_config(cfg3)
    doc["evaluation"].pop("master_seed")
    cfg3.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(cfg3), "--out", str(tmp_path / "ds3")]) == 1

    cfg4 = tmp_path / "bad4.json"
    write_config(cfg4, scenario={"per_dimension_scale": [1.0, 1.0]})
    assert main(["generate", "--config", str(cfg4), "--out", str(tmp_path / "ds4")]) == 1
    assert "per_dimension_scale" in capsys.readouterr().err
    assert not (tmp_path / "ds4").exists()


def test_the_readme_example_config_shows_every_key_with_its_default():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("Example config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    example = json.loads("\n".join(line.split("//", 1)[0] for line in block.splitlines()))
    assert set(example) == persistence._TOP_LEVEL_KEYS
    for section, defaults in (("scenario", persistence._SCENARIO_DEFAULTS),
                              ("evaluation", persistence._EVALUATION_DEFAULTS),
                              ("bench", persistence._BENCH_DEFAULTS)):
        assert set(example[section]) == set(defaults), section
    assert set(example["detector"]) == {"kind", *detector_params_with_defaults("dexter")}
    # master_seed has no default: a config of it alone resolves every other key.
    seed = {"evaluation": {"master_seed": example["evaluation"]["master_seed"]}}
    assert persistence.parse_config(seed).resolved_dict() == example


MISTYPED_SECTIONS = [
    ("detector", 5), ("scenario", 5), ("evaluation", [1]), ("bench", "all"),
    ("bench", {"detectors": 5}), ("bench", {"correlation_modes": "one_step"}),
    ("bench", {"correlation_modes": ["bogus"]}), ("evaluation", {"master_seed": "x"}),
    ("evaluation", {"master_seed": True}), ("evaluation", {"num_train": "many"}),
    ("evaluation", {"num_test": 2.5}), ("evaluation", {"target_fpr": "x"}),
    ("scenario", {"scenario": "bogus"}), ("scenario", {"base_env": 3}),
    ("scenario", {"policy": "bogus"}), ("scenario", {"correlation_mode": "bogus"}),
    ("scenario", {"horizon": "x"}), ("scenario", {"horizon": 200.0}),
    ("scenario", {"phi": "x"}), ("scenario", {"phi": 1.5}), ("scenario", {"phi": -1.0}),
    ("scenario", {"innovation_sigma": 0.0}), ("scenario", {"magnitude_scale": -1}),
    ("scenario", {"magnitude_scale": True}), ("scenario", {"injection_window": 5}),
    ("scenario", {"injection_window": [10]}), ("scenario", {"injection_window": [10, "x"]}),
    ("scenario", {"per_dimension_scale": 1.0}), ("scenario", {"per_dimension_scale": [-1.0]}),
]


@pytest.mark.parametrize("section, value", MISTYPED_SECTIONS)
def test_mistyped_config_sections_fail_with_exit_code_1(tmp_path, capsys, section, value):
    cfg = tmp_path / "bad.json"
    doc = write_config(cfg)
    doc[section] = {**doc.get(section, {}), **value} if isinstance(value, dict) else value
    cfg.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and section in err
    assert "Traceback" not in err
    assert not (tmp_path / "ds").exists()


def scenario_from(values: dict) -> ScenarioConfig:
    """The scenario of a config's ``scenario`` section, built without the
    config layer; ``policy`` is no part of it."""
    sc = {**persistence._SCENARIO_DEFAULTS, **values}
    noise = ARProcessSpec(sc["correlation_mode"], sc["phi"], sc["innovation_sigma"], sc["magnitude_scale"])
    return ScenarioConfig(sc["scenario"], sc["base_env"], noise, sc["injection_window"], sc["horizon"],
                          sc["per_dimension_scale"])


@pytest.mark.parametrize("key, value", [
    (key, value) for section, values in MISTYPED_SECTIONS
    if section == "scenario" and isinstance(values, dict) for key, value in values.items()
    if key != "policy"])
def test_mistyped_scenario_values_are_refused_by_the_scenario_types(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        scenario_from({key: value})


# One value per key of the scenario and evaluation sections that a config can
# hold without error.
VALID_VALUES = {
    "scenario": {"scenario": "arts", "base_env": "constant", "policy": None, "horizon": 200,
                 "injection_window": [20, 150], "correlation_mode": "two_step", "phi": 0.5,
                 "innovation_sigma": 2, "magnitude_scale": 0.1, "per_dimension_scale": [0]},
    "evaluation": {"num_train": 3, "num_validation": 2, "num_test": 0, "num_clean_test": 1,
                   "target_fpr": 0.05, "master_seed": 11},
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(section=st.sampled_from(sorted(VALID_VALUES)), data=st.data())
def test_a_config_builds_what_its_values_build_or_names_its_section(section, data):
    key = data.draw(st.sampled_from(sorted(VALID_VALUES[section])))
    value = data.draw(st.sampled_from(MUTANTS))
    doc = {name: dict(values) for name, values in VALID_VALUES.items()}
    doc[section][key] = value
    try:
        config = persistence.parse_config(doc)
    except ConfigError as exc:
        assert str(exc).startswith(f"{section}.{key} "), exc
        if section == "scenario" and key != "policy":
            with pytest.raises(ConfigError, match=f"^{key} "):
                scenario_from(doc["scenario"])
        if key.startswith("num_"):
            with pytest.raises(ConfigError, match=f"^{key} "):
                EpisodeCounts(**{key: value})
        return
    assert config.scenario_config() == scenario_from(doc["scenario"])
    assert config.counts() == EpisodeCounts(**{k: v for k, v in doc["evaluation"].items()
                                                if k.startswith("num_")})


def test_evaluate_exits_1_without_clean_test_episodes(tmp_path, capsys):
    # No clean episode was measured, so there is no false-positive rate.
    cfg = tmp_path / "config.json"
    write_config(cfg, evaluation={"num_clean_test": 0})
    ds, model, out = tmp_path / "ds", tmp_path / "model.json", tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--model", str(model), "--dataset", str(ds),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "false-positive rate" in err
    assert not out.exists()


def test_train_rejects_mistyped_detector_params(workspace, capsys):
    tmp, cfg = workspace
    ds = tmp / "ds"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    doc = json.loads(cfg.read_text())
    capsys.readouterr()
    for detector in ({"kind": "dexter", "num_trees": "abc"}, {"kind": "dexter", "window_size": 10.5},
                     {"kind": "dexter", "num_trees": True}, {"kind": "meanshift", "kappa": "x"},
                     {"kind": ["dexter"]}):
        bad = tmp / "bad.json"
        bad.write_text(json.dumps({**doc, "detector": detector}))
        assert main(["train", "--config", str(bad), "--dataset", str(ds),
                     "--out", str(tmp / "m.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("parameter" in err or "kind" in err)
        assert "Traceback" not in err
    assert not (tmp / "m.json").exists()


def test_train_rejects_episodes_shorter_than_window(tmp_path, capsys):
    cfg = tmp_path / "short.json"
    write_config(
        cfg,
        scenario={"horizon": 40, "injection_window": [6, 33]},
        detector={"kind": "dexter", "window_size": 50, "num_trees": 5, "subsample_cap": 50},
    )
    ds = tmp_path / "ds"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "shorter than window 50" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["dexter", "pedm", "meanshift"])
def test_model_file_roundtrip_is_stable(workspace, kind):
    tmp, cfg = workspace
    if kind != "dexter":
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "detector": {"kind": kind}}))
    ds, model, again = tmp / "ds", tmp / "model.json", tmp / "again.json"
    main(["generate", "--config", str(cfg), "--out", str(ds)])
    for path in (model, again):
        assert main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(path)]) == 0
    assert read_file(model) == read_file(again)
    assert read_file(model).count(b"\n") == 1  # one line of compact JSON

    from dexter.evaluation import TrainedDetector

    doc = read_json(model)
    trained = TrainedDetector.from_json_dict(doc["detector"])
    resaved = tmp / "model2.json"
    persistence.save_model(str(resaved), trained, doc["config_hash"])
    assert read_file(model) == read_file(resaved)


def test_evaluate_refuses_old_schema_and_truncated_model(workspace, capsys):
    tmp, cfg = workspace
    ds, model = tmp / "ds", tmp / "model.json"
    main(["generate", "--config", str(cfg), "--out", str(ds)])
    main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)])
    text = model.read_text(encoding="utf-8")
    capsys.readouterr()

    old = tmp / "old.json"
    old.write_text(json.dumps({**json.loads(text), "schema_version": 1}))
    truncated = tmp / "truncated.json"
    truncated.write_text(text[: len(text) // 2])
    for path, message in ((old, "schema_version 1"), (truncated, "")):
        assert main(["evaluate", "--config", str(cfg), "--model", str(path),
                     "--dataset", str(ds), "--out", str(tmp / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


def test_evaluate_refuses_malformed_detector_documents(workspace, capsys):
    tmp, cfg = workspace
    ds, model = tmp / "ds", tmp / "model.json"
    main(["generate", "--config", str(cfg), "--out", str(ds)])
    main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)])
    doc = json.loads(model.read_text(encoding="utf-8"))
    capsys.readouterr()

    detector = doc["detector"]
    no_kind = {k: v for k, v in detector.items() if k != "kind"}
    no_forests = {**detector, "model": {"window_size": 10}}
    empty = {**detector, "model": {**detector["model"], "forests": []}}
    short = {**detector, "model": {**detector["model"], "window_size": 3}}
    params = {**detector, "params": 5}
    for name, bad in (("no_kind", no_kind), ("no_forests", no_forests),
                      ("empty", empty), ("short", short), ("params", params)):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({**doc, "detector": bad}))
        assert main(["evaluate", "--config", str(cfg), "--model", str(path),
                     "--dataset", str(ds), "--out", str(tmp / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_evaluate_refuses_malformed_baseline_and_cusum_documents(workspace, capsys):
    tmp, cfg = workspace
    ds, model = tmp / "ds", tmp / "model.json"
    main(["generate", "--config", str(cfg), "--out", str(ds)])
    main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)])
    doc = json.loads(model.read_text(encoding="utf-8"))
    capsys.readouterr()

    cases = (
        ("pedm", {"kind": "pedm", "model": {}}, "coefficients"),
        ("meanshift", {"kind": "meanshift", "model": {}}, "reference_mean"),
        ("cusum", {"kind": "dexter", "model": None, "cusum": {}}, "mean_score_abar"),
        ("negative_tau", {**doc["detector"], "cusum": {**doc["detector"]["cusum"], "threshold_tau": -1.0}},
         "threshold_tau"),
    )
    for name, bad, field in cases:
        path = tmp / f"{name}.json"
        path.write_text(json.dumps({**doc, "detector": bad}))
        assert main(["evaluate", "--config", str(cfg), "--model", str(path),
                     "--dataset", str(ds), "--out", str(tmp / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err


def test_train_refuses_malformed_episode_records(workspace, capsys):
    tmp, cfg = workspace
    ds = tmp / "ds"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    train = ds / "train.jsonl"
    records = read_records(train)
    del records[3]["actions"]
    write_records(train, records)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--out", str(tmp / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {train} line 4: ") and "actions" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line, message", [(b"\xff\xfe", "can't decode"), (b'{"seed": 1', "Expecting")],
                         ids=["not_utf8", "cut_json"])
def test_train_refuses_a_bank_line_that_is_not_utf8_json(small_models, tmp_path, line, message):
    """A bank line that is not UTF-8 once ended ``train`` in a
    UnicodeDecodeError traceback."""
    cfg, ds, _ = small_models
    shutil.copytree(ds, tmp_path / "ds")
    path = tmp_path / "ds" / "validation.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:2] + [line + b"\n"] + lines[2:]))
    code, err = run_train(cfg, "meanshift", tmp_path / "ds", tmp_path / "model.json")
    assert_clean_exit(code, err, tmp_path)
    assert code == 1 and err.startswith(f"error: {path} line 3: ") and message in err


def test_malformed_dataset_manifests_fail_with_exit_code_1(workspace, capsys):
    tmp, cfg = workspace
    ds, model = tmp / "ds", tmp / "model.json"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)]) == 0
    manifest_path = ds / "manifest.json"
    good = json.loads(manifest_path.read_text(encoding="utf-8"))
    capsys.readouterr()

    cases = [
        ("{", "not JSON"),
        (b"\xff\xfe", "not JSON"),
        ("[]", "not a JSON object"),
        (json.dumps({k: v for k, v in good.items() if k != "config"}), "'config'"),
        (json.dumps({k: v for k, v in good.items() if k != "config_hash"}), "'config_hash'"),
    ]
    for text, message in cases:
        manifest_path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        for command in (["train", "--out", str(tmp / "m.json")],
                        ["evaluate", "--model", str(model), "--out", str(tmp / "r")]):
            assert main(command + ["--config", str(cfg), "--dataset", str(ds)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(manifest_path) in err and message in err
            assert "Traceback" not in err


def test_json_files_are_streamed_atomically(tmp_path):
    from dexter.persistence import atomic_write_json
    obj = {"b": [1, 2.5, None], "a": {"z": "text", "y": [[0, -1.25e-9]]}}
    path = tmp_path / "doc.json"
    atomic_write_json(str(path), obj)
    assert path.read_text(encoding="utf-8") == json.dumps(obj, sort_keys=True, indent=1) + "\n"
    bad = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        atomic_write_json(str(bad), {"rows": [list(range(5000)), object()]})
    assert not bad.exists() and not (tmp_path / "bad.json.tmp").exists()


def test_a_model_save_failing_mid_stream_keeps_the_old_file(tmp_path):
    """``save_model`` streams the document into ``<path>.tmp``: a document
    that fails to encode after part of it was written leaves the previous
    model file as it was and no temp file."""
    class Trained:
        def __init__(self, doc):
            self.doc = doc

        def to_json_dict(self):
            return self.doc

    path = tmp_path / "model.json"
    good = {"a": "x" * 100_000, "b": [1, 2.5, None]}
    persistence.save_model(str(path), Trained(good), "hash")
    old = read_file(path)
    doc = read_json(path)
    assert old == (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    with pytest.raises(TypeError):
        persistence.save_model(str(path), Trained({"a": "y" * 100_000, "z": object()}), "hash")
    assert read_file(path) == old
    assert list(tmp_path.glob("*.tmp")) == []


def test_failed_text_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("old")
    with pytest.raises(UnicodeEncodeError):
        persistence.atomic_write_text(str(path), "ok\ud800")
    assert path.read_text() == "old"
    assert list(tmp_path.glob("*.tmp")) == []


def test_evaluate_refuses_catalogue_mismatch(workspace):
    """A DEXTER model records the catalogue it was built under; one built
    under another is refused before any output is written."""
    tmp, cfg = workspace
    ds, model = tmp / "ds", tmp / "model.json"
    main(["generate", "--config", str(cfg), "--out", str(ds)])
    main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)])

    doc = read_json(model)
    doc["detector"]["model"]["feature_manifest_hash"] = "0" * 64
    model.write_text(json.dumps(doc))
    code, err = run_evaluate(cfg, model, ds, tmp / "r")
    assert_clean_exit(code, err, tmp)
    assert code == 1 and "catalogue" in err
    assert not (tmp / "r").exists()


def test_evaluate_takes_warmup_from_model_not_config(tmp_path):
    train_cfg, eval_cfg = tmp_path / "train.json", tmp_path / "eval.json"
    write_config(train_cfg, detector={"window_size": 12})
    write_config(eval_cfg, detector={"window_size": 20})
    ds, model = tmp_path / "ds", tmp_path / "model.json"
    assert main(["generate", "--config", str(train_cfg), "--out", str(ds)]) == 0
    assert main(["train", "--config", str(train_cfg), "--dataset", str(ds),
                 "--out", str(model)]) == 0

    outs = {}
    for name, cfg in (("same", train_cfg), ("other", eval_cfg)):
        outs[name] = tmp_path / name
        assert main(["evaluate", "--config", str(cfg), "--model", str(model),
                     "--dataset", str(ds), "--out", str(outs[name])]) == 0
    report = read_json(outs["other"] / "report.json")
    assert report["results"][0]["warmup_excluded_transitions"] == 11
    assert read_file(outs["other"] / "results.csv") == read_file(outs["same"] / "results.csv")


def test_bench_matrix_cache_and_determinism(workspace):
    tmp, cfg = workspace
    out1 = tmp / "bench1"
    assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0

    rows = list(csv.DictReader(open(out1 / "results.csv")))
    assert len(rows) == 10  # {dexter, dexter_c, pedm, pedm_c, meanshift} x 2 modes
    ids = {(r["detector_id"], r["scenario_id"]) for r in rows}
    assert ("dexter_c", "arts/one_step") in ids
    assert ("meanshift", "arts/two_step") in ids
    auroc_by_id = {(r["detector_id"], r["scenario_id"]): r["auroc"] for r in rows}
    assert auroc_by_id[("dexter_c", "arts/one_step")] == ""  # detection-time row
    assert auroc_by_id[("dexter", "arts/one_step")] != ""

    cells = os.listdir(out1 / "cells")
    assert len(cells) == 6

    # resume: identical output without recomputation
    before = read_file(out1 / "results.csv")
    mtimes = {c: os.path.getmtime(out1 / "cells" / c) for c in cells}
    assert main(["bench", "--config", str(cfg), "--out", str(out1), "--resume"]) == 0
    assert read_file(out1 / "results.csv") == before
    assert all(os.path.getmtime(out1 / "cells" / c) == mtimes[c] for c in cells)

    # fresh run reproduces the table byte for byte
    out2 = tmp / "bench2"
    assert main(["bench", "--config", str(cfg), "--out", str(out2)]) == 0
    assert read_file(out2 / "results.csv") == before

    # resume recomputes every cell whose cache holds no result
    failed, empty, garbled = (out1 / "cells" / c for c in sorted(cells)[:3])
    failed.write_text(json.dumps({**read_json(failed), "result": None, "error": "boom"}))
    empty.write_text("{}")
    garbled.write_text('{"result": ')
    assert main(["bench", "--config", str(cfg), "--out", str(out1), "--resume"]) == 0
    assert read_json(out1 / "report.json")["num_failed"] == 0
    assert read_file(out1 / "results.csv") == before
    for path in (failed, empty, garbled):
        assert read_file(path) == read_file(out2 / "cells" / path.name)


def test_bench_parallel_jobs_match_serial(workspace, monkeypatch):
    """Also when this process has split a scoring batch across threads
    before ``bench`` forks its workers, which then score on their share of
    the CPUs. With 300 trees every 191-window episode is a batch that the
    serial run splits across two threads and each worker of two CPUs walks
    on one."""
    monkeypatch.setattr(isolation_forest, "_threads", 2)
    rng = np.random.default_rng(0)
    model = isolation_forest.fit(rng.normal(size=(200, 2)), num_trees=300, subsample=64, seed=0)
    isolation_forest.score_batch(model, rng.normal(size=(120, 2)))
    tmp, cfg = workspace
    write_config(cfg, detector={"num_trees": 300})
    out1, out2 = tmp / "serial", tmp / "parallel"
    assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    assert read_file(out1 / "results.csv") == read_file(out2 / "results.csv")


@pytest.mark.parametrize("cpus, workers, threads", [(2, 2, 1), (8, 2, 4), (3, 2, 1), (1, 4, 1), (4, 1, 4)])
def test_bench_workers_split_scoring_batches_on_their_share_of_the_cpus(monkeypatch, cpus, workers, threads):
    """``--jobs N`` starts each worker with CPUs // N scoring threads, at
    least one, so that N workers run no more walking threads than CPUs."""
    monkeypatch.setattr(isolation_forest, "_cpus", lambda: cpus)
    monkeypatch.setattr(isolation_forest, "_threads", None)  # restored after the test
    cli._share_cpus(workers)
    assert isolation_forest._threads == threads


def test_every_bench_row_is_run_experiment_at_its_mode_seed(workspace):
    """Each mode's detectors share one seed and one set of banks, so every
    row equals ``run_experiment`` of its kind at the mode's seed."""
    from dexter.evaluation import run_experiment
    from dexter.seeding import child_seed

    tmp, cfg = workspace
    assert main(["bench", "--config", str(cfg), "--out", str(tmp / "bench")]) == 0
    rows = read_json(tmp / "bench" / "report.json")["results"]
    config = persistence.load_config(str(cfg))
    assert sorted(r["detector_id"] for r in rows) == sorted(["dexter", "pedm", "meanshift"] * 2)
    for row in rows:
        mode = row["scenario_id"].split("/")[1]
        kind = row["detector_id"]
        result = run_experiment(config.scenario_config(correlation_mode=mode), kind,
                                child_seed(config.master_seed, "bench", mode), counts=config.counts(),
                                target_fpr=config.target_fpr, policy_kind=config.policy_kind(),
                                detector_params=config.detector_params() if kind == "dexter" else None)
        assert row == json.loads(json.dumps(result.to_json_dict()))


def counting(monkeypatch, owner, name, calls: list, fail=None):
    """Wrap ``owner.name`` to append each call's arguments to ``calls``, and
    to raise ``fail(*args)`` instead of running when that gives an error."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        error = fail(*args) if fail is not None else None
        if error is not None:
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_bench_resume_generates_a_mode_only_for_its_missing_cells(workspace, monkeypatch):
    from dexter import evaluation

    tmp, cfg = workspace
    out = tmp / "bench"
    write_config(cfg, bench={"correlation_modes": ["one_step"]})
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    want = read_file(out / "results.csv")
    banks, fits = [], []
    counting(monkeypatch, evaluation, "generate_banks", banks)
    counting(monkeypatch, evaluation, "train_detector", fits)

    assert main(["bench", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert (len(banks), len(fits)) == (0, 0)

    cells = {read_json(c)["cell"]["detector"]: c for c in (out / "cells").iterdir()}
    cells["pedm"].unlink()
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert len(banks) == 1
    assert [args[0] for args in fits] == ["pedm"]
    cells["dexter"].unlink()
    cells["meanshift"].unlink()
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert len(banks) == 2
    assert [args[0] for args in fits] == ["pedm", "dexter", "meanshift"]
    assert read_file(out / "results.csv") == want


def test_bench_failures_fail_only_their_own_cells(workspace, monkeypatch, capsys):
    """Failed banks fail every cell of their mode, a failed fit only its
    detector's cell; ``--resume`` then computes just those cells again."""
    from dexter import evaluation
    from dexter.errors import DataError

    tmp, cfg = workspace
    assert main(["bench", "--config", str(cfg), "--out", str(tmp / "fresh")]) == 0
    out, banks, fits = tmp / "bench", [], []
    two_step = lambda config, *rest: (DataError("no banks") if config.noise.correlation_mode.value
                                      == "two_step" else None)
    counting(monkeypatch, evaluation, "generate_banks", banks, fail=two_step)
    counting(monkeypatch, evaluation, "train_detector", fits,
             fail=lambda kind, *rest: DataError("no pedm") if kind == "pedm" else None)
    capsys.readouterr()
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert read_json(out / "report.json")["num_failed"] == 4
    failed = {(doc["cell"]["detector"], doc["cell"]["correlation_mode"]): doc["error"]
              for doc in map(read_json, (out / "cells").iterdir()) if doc["result"] is None}
    assert failed == {("dexter", "two_step"): "no banks", ("pedm", "two_step"): "no banks",
                      ("meanshift", "two_step"): "no banks", ("pedm", "one_step"): "no pedm"}
    assert "cell meanshift/two_step failed: no banks" in err
    assert len(banks) == 2

    monkeypatch.undo()
    counting(monkeypatch, evaluation, "train_detector", fits)
    del fits[:]
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert sorted(args[0] for args in fits) == ["dexter", "meanshift", "pedm", "pedm"]
    assert read_json(out / "report.json")["num_failed"] == 0
    assert read_file(out / "results.csv") == read_file(tmp / "fresh" / "results.csv")


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_refuses_jobs_below_one(workspace, capsys, jobs):
    tmp, cfg = workspace
    assert main(["bench", "--config", str(cfg), "--out", str(tmp / "b"), "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--jobs" in err
    assert not (tmp / "b").exists()


@pytest.mark.parametrize("key, entries", [
    ("detectors", ["meanshift", "pedm", "meanshift"]),
    ("correlation_modes", ["one_step", "two_step", "one_step"]),
])
def test_bench_refuses_a_repeated_entry(workspace, capsys, key, entries):
    """A repeated entry names one cell twice; the config is refused before
    any cell runs, with one error line naming the entry."""
    tmp, cfg = workspace
    write_config(cfg, bench={key: entries})
    assert main(["bench", "--config", str(cfg), "--out", str(tmp / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bench.{key} entry" in err and repr(entries[0]) in err
    assert not (tmp / "b").exists()


def test_bench_starts_no_pool_for_one_pending_mode(tmp_path, monkeypatch):
    """The pool holds one process per mode with pending cells at most, so
    one mode runs in this process whatever ``--jobs`` asks."""
    import concurrent.futures

    cfg = tmp_path / "config.json"
    write_config(cfg, evaluation={"num_train": 4, "num_validation": 4, "num_test": 2, "num_clean_test": 3},
                 bench={"detectors": ["meanshift", "pedm"], "correlation_modes": ["two_step"]})
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # any use fails
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b"), "--jobs", "4"]) == 0
    assert read_json(tmp_path / "b" / "report.json")["num_failed"] == 0


@pytest.mark.parametrize("corrupt", [
    lambda doc: {**doc, "result": {}},
    lambda doc: {**doc, "result": {k: v for k, v in doc["result"].items()
                                   if k != "mean_detection_time"}},
    lambda doc: {**doc, "schema_version": doc["schema_version"] + 1},
    lambda doc: {**doc, "result": {**doc["result"], "detector_id": "dexter"}},
    lambda doc: {**doc, "cell_hash": "0" * 64},
], ids=["empty_result", "missing_field", "other_schema", "other_detector", "other_cell"])
def test_bench_resume_recomputes_a_malformed_cell(tmp_path, corrupt):
    cfg, out = tmp_path / "config.json", tmp_path / "bench"
    write_config(cfg, evaluation={"num_train": 4, "num_validation": 4, "num_test": 2,
                                  "num_clean_test": 3},
                 bench={"detectors": ["meanshift"], "correlation_modes": ["one_step"]})
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    (cell,) = (out / "cells").iterdir()
    want_cell, want_table = read_file(cell), read_file(out / "results.csv")
    cell.write_text(json.dumps(corrupt(read_json(cell))))
    assert main(["bench", "--config", str(cfg), "--out", str(out), "--resume"]) == 0
    assert read_file(cell) == want_cell
    assert read_file(out / "results.csv") == want_table


def test_missing_config_file_is_validation_error(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "ds")]) == 1


def test_cartpole_model_file_has_one_forest_per_dimension(tmp_path):
    cfg = tmp_path / "cartpole.json"
    cfg.write_text(json.dumps({
        "scenario": {"scenario": "arno", "base_env": "cartpole",
                     "correlation_mode": "one_step", "magnitude_scale": 0.5},
        "detector": {"kind": "dexter", "num_trees": 10, "subsample_cap": 100},
        "evaluation": {"num_train": 12, "num_validation": 8, "num_test": 3,
                       "num_clean_test": 3, "master_seed": 3},
    }))
    ds = tmp_path / "ds"
    model = tmp_path / "model.json"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    manifest = read_json(ds / "manifest.json")
    assert len(manifest["config"]["scenario"]["per_dimension_scale"]) == 4

    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--out", str(model)]) == 0
    doc = read_json(model)
    assert len(doc["detector"]["model"]["forests"]) == 4
    assert doc["detector"]["model"]["window_size"] == 10
    assert "mean_score_abar" in doc["detector"]["cusum"]
    assert "threshold_tau" in doc["detector"]["cusum"]


def test_evaluate_refuses_meanshift_model_of_another_width(workspace, capsys):
    tmp, cfg = workspace
    meanshift_cfg, arno_cfg = tmp / "meanshift.json", tmp / "arno.json"
    meanshift_cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "detector": {"kind": "meanshift"}}))
    write_config(arno_cfg, scenario={"scenario": "arno", "base_env": "cartpole",
                                     "magnitude_scale": 0.5, "per_dimension_scale": [1.0] * 4})
    arts, arno, model = tmp / "arts", tmp / "arno", tmp / "model.json"
    assert main(["generate", "--config", str(meanshift_cfg), "--out", str(arts)]) == 0
    assert main(["generate", "--config", str(arno_cfg), "--out", str(arno)]) == 0
    assert main(["train", "--config", str(meanshift_cfg), "--dataset", str(arts),
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", str(meanshift_cfg), "--model", str(model),
                 "--dataset", str(arno), "--out", str(tmp / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dimensions" in err
    assert "Traceback" not in err
    assert not (tmp / "r").exists()


SCENARIOS = {
    "arts": {"scenario": "arts", "base_env": "constant"},
    "arno_cartpole": {"scenario": "arno", "base_env": "cartpole", "magnitude_scale": 0.5},
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("kind", ["dexter", "pedm", "meanshift"])
def test_cli_pipeline_reports_what_run_experiment_returns(tmp_path, scenario, kind):
    """``generate``/``train``/``evaluate`` and ``run_experiment`` (the bench
    cell) run the same protocol: same banks, fit seeds and metrics."""
    from dexter.evaluation import run_experiment

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "scenario": SCENARIOS[scenario],
        "detector": {"kind": kind, **({"num_trees": 10, "subsample_cap": 150} if kind == "dexter" else {})},
        "evaluation": {"num_train": 10, "num_validation": 8, "num_test": 4, "num_clean_test": 5,
                       "master_seed": 13},
    }))
    ds, model, out = tmp_path / "ds", tmp_path / "model.json", tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)]) == 0
    assert main(["evaluate", "--config", str(cfg), "--model", str(model), "--dataset", str(ds),
                 "--out", str(out)]) == 0

    config = persistence.load_config(str(cfg))
    result = run_experiment(config.scenario_config(), kind, config.master_seed, counts=config.counts(),
                            target_fpr=config.target_fpr, policy_kind=config.policy_kind(),
                            detector_params=config.detector_params())
    assert read_json(out / "report.json")["results"] == [json.loads(json.dumps(result.to_json_dict()))]


def test_emit_scores_reuses_the_scores_of_the_evaluation(workspace, monkeypatch):
    """``--emit-scores`` scores only the injected episodes the evaluation
    skipped (unusable ones) and writes the others from its scores."""
    from dexter import detector
    from dexter.evaluation import TrainedDetector

    tmp, cfg = workspace
    ds, model = tmp / "ds", tmp / "model.json"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)]) == 0
    injected = ds / "test_injected.jsonl"
    records = read_records(injected)
    # Cut at the injection time, the episode holds no anomalous transition.
    t_a = records[2]["injection_time"]
    records[2]["observations"] = records[2]["observations"][:t_a]
    records[2]["actions"] = records[2]["actions"][:t_a - 1]
    write_records(injected, records)

    calls = []
    score_stream = detector.score_stream

    def counted(*args, **kwargs):
        calls.append(1)
        return score_stream(*args, **kwargs)

    monkeypatch.setattr(detector, "score_stream", counted)
    counts = {}
    for flag in ([], ["--emit-scores"]):
        calls.clear()
        assert main(["evaluate", "--config", str(cfg), "--model", str(model), "--dataset", str(ds),
                     "--out", str(tmp / f"out{len(flag)}")] + flag) == 0
        counts[bool(flag)] = len(calls)
    assert counts[True] == counts[False] + 1

    trained = TrainedDetector.from_json_dict(persistence.load_model(str(model))["detector"])
    episodes = persistence.load_episodes(str(injected), 1)
    assert [ep.usable for ep in episodes] == [True, True, False, True, True]
    assert sorted(os.listdir(tmp / "out1" / "scores")) == [f"episode_{i:04d}.jsonl" for i in range(5)]
    for idx in (1, 2):
        scores = trained.transition_scores(episodes[idx])
        expected = [{"t": i + 1, "score": float(s)} for i, s in enumerate(scores) if not np.isnan(s)]
        assert read_records(tmp / "out1" / "scores" / f"episode_{idx:04d}.jsonl") == expected


def test_train_and_evaluate_read_only_the_banks_they_use(workspace, monkeypatch):
    tmp, cfg = workspace
    ds, model = tmp / "ds", tmp / "model.json"
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    read = []
    load_episodes = persistence.load_episodes

    def counted(path, num_dimensions):
        read.append(os.path.basename(path))
        return load_episodes(path, num_dimensions)

    monkeypatch.setattr(persistence, "load_episodes", counted)
    assert main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)]) == 0
    assert read == ["train.jsonl", "validation.jsonl"]
    read.clear()
    assert main(["evaluate", "--config", str(cfg), "--model", str(model), "--dataset", str(ds),
                 "--out", str(tmp / "r")]) == 0
    assert read == ["test_injected.jsonl", "test_clean.jsonl"]


# Model files written by ``dexter train`` on a tiny ARTS dataset, shared by
# the regression cases and the fuzz property below (hypothesis refuses
# function-scoped fixtures).
SMALL_COUNTS = {"num_train": 4, "num_validation": 4, "num_test": 2, "num_clean_test": 3}
SMALL_DETECTORS = {"dexter": {"kind": "dexter", "num_trees": 3},
                   "pedm": {"kind": "pedm"}, "meanshift": {"kind": "meanshift"}}


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    """``(config, dataset, {kind: model file text})`` for a dexter (3 trees),
    a pedm and a meanshift model."""
    root = tmp_path_factory.mktemp("small_models")
    cfg, ds = root / "config.json", root / "ds"
    doc = write_config(cfg, evaluation=SMALL_COUNTS)
    assert main(["generate", "--config", str(cfg), "--out", str(ds)]) == 0
    models = {}
    for kind, detector in SMALL_DETECTORS.items():
        kind_cfg, model = root / f"{kind}.json", root / f"{kind}_model.json"
        kind_cfg.write_text(json.dumps({**doc, "detector": detector}))
        assert main(["train", "--config", str(kind_cfg), "--dataset", str(ds),
                     "--out", str(model)]) == 0
        models[kind] = model.read_text(encoding="utf-8")
    return cfg, ds, models


def run_quiet(argv) -> tuple:
    """``dexter`` in-process on ``argv``, its arguments as strings or paths:
    (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def run_evaluate(cfg, model, ds, out, *flags) -> tuple:
    """``dexter evaluate`` in-process: (exit code, stderr)."""
    return run_quiet(["evaluate", "--config", cfg, "--model", model, "--dataset", ds, "--out", out, *flags])


def run_train(cfg, kind, ds, out) -> tuple:
    """``dexter train`` in-process with the config of ``kind`` that
    ``small_models`` wrote beside ``cfg``: (exit code, stderr)."""
    return run_quiet(["train", "--config", cfg.parent / f"{kind}.json", "--dataset", ds, "--out", out])


def assert_clean_exit(code, err, *dirs):
    """Exit 0 with nothing on stderr, or exit 1 with exactly one line, an
    ``error:`` line; no traceback and no temp file left in ``dirs``."""
    assert code in (0, 1), err
    lines = err.splitlines()
    assert (lines == []) if code == 0 else (len(lines) == 1 and lines[0].startswith("error: ")), err
    for directory in dirs:
        assert not list(directory.rglob("*.tmp"))


def _set(*path_and_value):
    """An edit of a JSON document setting the value at a path of keys and
    indices (the root itself when the path is empty)."""
    *path, value = path_and_value

    def edit(doc):
        if not path:
            return value
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return edit


@pytest.mark.parametrize("where, edit, message", [
    ("model", _set("detector", "model", "window_size", 10.5), "window_size"),
    ("model", _set("detector", "model", "window_size", "10"), "window_size"),
    ("model", _set("detector", "model", "forests", 0, "feature_count", 21.9), "feature_count"),
    ("model", _set(5), "not a JSON object"),
    ("model", _set("schema_version", "2"), "'2' unsupported"),
    ("model", _set("detector", "model", "feature_manifest_hash", 5), "feature_manifest_hash"),
    ("record", _set("injection_time", "abc"), "injection_time"),
    ("record", _set("injection_time", 50.5), "injection_time"),
    ("record", _set("injection_time", -5), "injection_time"),
    ("meanshift", _set("detector", "model", "threshold", -1.0), "meanshift model threshold -1.0 < 0"),
    ("meanshift", _set("detector", "model", "target_fpr", 7.0), "meanshift model target_fpr 7.0 outside (0, 1)"),
    ("record", _set("seed", 3.7), "seed"),
    ("record", _set("injection_time", None), "no injection time"),
    ("clean_record", None, "no injection time"),
], ids=["window_size_fraction", "window_size_text", "feature_count_fraction", "model_root_5",
        "schema_version_text", "feature_manifest_hash_5",
        "injection_time_text", "injection_time_fraction", "injection_time_negative",
        "meanshift_threshold_negative", "meanshift_target_fpr_7", "seed_fraction",
        "injection_time_null", "clean_test_episode"])
def test_evaluate_refuses_mistyped_model_and_dataset_fields(small_models, tmp_path, where, edit, message):
    cfg, ds, models = small_models
    ds_copy, model = tmp_path / "ds", tmp_path / "model.json"
    shutil.copytree(ds, ds_copy)
    model_doc = json.loads(models["meanshift" if where == "meanshift" else "dexter"])
    if where in ("model", "meanshift"):
        model_doc = edit(model_doc)
    else:
        injected = ds_copy / "test_injected.jsonl"
        records = read_records(injected)
        # "clean_record" puts a whole clean episode in the injected bank.
        first = read_records(ds_copy / "test_clean.jsonl")[0] if where == "clean_record" else edit(records[0])
        write_records(injected, [first] + records[1:])
    model.write_text(json.dumps(model_doc))
    code, err = run_evaluate(cfg, model, ds_copy, tmp_path / "out")
    assert_clean_exit(code, err, tmp_path)
    assert code == 1 and message in err
    assert not (tmp_path / "out").exists()


def test_evaluate_ignores_the_stored_normalizer_of_older_model_files(small_models, tmp_path):
    """A forest no longer stores ``normalizer_c`` = c(subsample_size) nor its
    own copy of the catalogue hash; a file that still holds them, even with
    a wrong normalizer, evaluates to the same bytes."""
    cfg, ds, models = small_models
    doc = json.loads(models["dexter"])
    for forest in doc["detector"]["model"]["forests"]:
        assert "normalizer_c" not in forest and "feature_manifest_hash" not in forest
        forest.update(normalizer_c=99.0, feature_manifest_hash=doc["detector"]["model"]["feature_manifest_hash"])
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    new.write_text(models["dexter"])
    old.write_text(json.dumps(doc))
    for model in (new, old):
        assert run_evaluate(cfg, model, ds, tmp_path / model.stem) == (0, "")
    for name in ("results.csv", "report.json"):
        assert read_file(tmp_path / "old" / name) == read_file(tmp_path / "new" / name)


def test_evaluate_exits_1_when_the_window_exceeds_every_test_episode(small_models, tmp_path):
    """No test episode holds a whole window, so no AUROC is defined."""
    cfg, ds, models = small_models
    model = tmp_path / "model.json"
    model.write_text(json.dumps(_set("detector", "model", "window_size", 100000)(json.loads(models["dexter"]))))
    code, err = run_evaluate(cfg, model, ds, tmp_path / "out")
    assert_clean_exit(code, err, tmp_path, ds)
    assert code == 1 and "AUROC" in err


def test_evaluate_reads_list_columns_of_older_model_files(small_models, tmp_path):
    """A model file whose forests hold their node columns as JSON lists, as
    schema-2 files written before the binary columns do, evaluates to the
    same bytes."""
    cfg, ds, models = small_models
    doc = json.loads(models["dexter"])
    forests = doc["detector"]["model"]["forests"]
    forests[:] = [listed(forest) for forest in forests]
    assert all(isinstance(forest["threshold"], list) for forest in forests)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    new.write_text(models["dexter"])
    old.write_text(json.dumps(doc))
    for model in (new, old):
        assert run_evaluate(cfg, model, ds, tmp_path / model.stem) == (0, "")
    for name in ("results.csv", "report.json"):
        assert read_file(tmp_path / "old" / name) == read_file(tmp_path / "new" / name)


def _set_column_item(name, position, value):
    def edit(text):
        values = column_values(text, name)
        values[position] = value
        return column_text(values)
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("size", lambda text: text[:4] + "*" + text[4:], "'size' is not base64"),
    ("feature", lambda text: text[:-2], "'feature' is not base64"),
    ("roots", lambda text: column_text(base64.b64decode(text) + b"\0"),
     "'roots' is not base64 of little-endian int32"),
    ("threshold", lambda text: column_text(base64.b64decode(text)[:-4]),
     "'threshold' is not base64 of little-endian float64"),
    ("threshold", _set_column_item("threshold", 0, np.nan), "'threshold' must be"),
    ("threshold", _set_column_item("threshold", -1, -np.inf), "'threshold' must be"),
    ("left", _set_column_item("left", 0, 2**31 - 1), "child index"),
    ("right", _set_column_item("right", 0, -2), "child index"),
], ids=["non_alphabet", "padding_cut", "odd_byte_length", "half_a_float", "nan_threshold",
        "minus_inf_threshold", "left_out_of_range", "right_negative"])
def test_evaluate_refuses_malformed_binary_columns(small_models, tmp_path, name, edit, message):
    cfg, ds, models = small_models
    doc = json.loads(models["dexter"])
    forest = doc["detector"]["model"]["forests"][0]
    forest[name] = edit(forest[name])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    code, err = run_evaluate(cfg, model, ds, tmp_path / "out")
    assert_clean_exit(code, err, tmp_path, ds)
    assert code == 1 and message in err
    assert not (tmp_path / "out").exists()


def test_evaluate_refuses_a_forged_huge_subsample_within_a_second(small_models, tmp_path):
    """A 416-byte forest of eight one-leaf trees of distinct sizes near
    10^9 once took 11 s to load and 80 s to score one point, c(n) costing
    time linear in n: its subsample is above the maximum and its roots do
    not hold it, so it is refused before any c(n)."""
    cfg, ds, models = small_models
    doc = json.loads(models["dexter"])
    forest = doc["detector"]["model"]["forests"][0]
    forest.update({"subsample_size": 10**9, "num_training_samples": 10**9,
                   "feature": [-1] * 8, "threshold": [0.0] * 8, "left": [-1] * 8, "right": [-1] * 8,
                   "size": [10**9 - k for k in range(8)], "roots": list(range(8))})
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, err = run_evaluate(cfg, model, ds, tmp_path / "out")
    assert time.perf_counter() - start < 1.0
    assert_clean_exit(code, err, tmp_path, ds)
    assert code == 1 and "subsample size 1000000000 above the maximum" in err


def json_paths(doc, path=()):
    """Every path into a JSON document, the root's included: the keys of
    its objects and the indices of its lists."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


MUTANTS = [None, True, "x", {}, 0.5, -1, float("nan"), float("inf"), float("-inf"), [], [[1.0], [1.0, 2.0]]]


def mutated_column(draw, forest):
    """One binary node column of a forest edited in its bytes or its text:
    the bytes cut short or made an odd number, a character outside the
    base64 alphabet put in, a threshold made NaN or infinite, or a child
    index put out of range."""
    how = draw(st.sampled_from(["cut", "odd", "character", "non-finite", "child"]))
    name = {"non-finite": "threshold", "child": draw(st.sampled_from(["left", "right"]))}.get(
        how, draw(st.sampled_from(sorted(COLUMN_KINDS))))
    text, values = forest[name], column_values(forest[name], name)
    raw = values.tobytes()
    if how == "cut":
        text = column_text(raw[:draw(st.integers(0, len(raw) - 1))])
    elif how == "odd":
        text = column_text(raw[:-1] if draw(st.booleans()) else raw + b"\0")
    elif how == "character":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["*", "-", "_", " ", "\n", "\u00e9", "="])) + text[at:]
    else:
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(
            [np.nan, np.inf, -np.inf] if how == "non-finite" else [-2**31, -2, len(values), 2**31 - 1]))
        text = column_text(values)
    forest[name] = text


def mutated_text(draw, text, how):
    """The JSON document ``text`` with one mutation: cut at a character
    (``how`` "truncate"), a value replaced by one of ``MUTANTS``
    ("replace"), or a key or list element dropped ("drop")."""
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    paths = list(json_paths(doc))
    if how == "replace":
        return json.dumps(_set(*draw(st.sampled_from(paths)), draw(st.sampled_from(MUTANTS)))(doc))
    *path, last = draw(st.sampled_from(paths[1:]))
    parent = doc
    for key in path:
        parent = parent[key]
    del parent[last]
    return json.dumps(doc)


@st.composite
def mutated_model_files(draw, models):
    """A model file written by ``dexter train`` with one mutation: a key or
    list element dropped, a value replaced by another JSON type, a fraction,
    a non-finite number, -1 or an empty or ragged list, the text cut at a
    byte, or a forest's node column edited by :func:`mutated_column`."""
    kind = draw(st.sampled_from(sorted(models)))
    text = models[kind]
    how = draw(st.sampled_from(["drop", "replace", "truncate"] + ["column"] * (kind == "dexter")))
    if how != "column":
        return mutated_text(draw, text, how)
    doc = json.loads(text)
    forests = doc["detector"]["model"]["forests"]
    mutated_column(draw, forests[draw(st.integers(0, len(forests) - 1))])
    return json.dumps(doc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_evaluate_ends_every_mutated_model_file_with_exit_0_or_1(small_models, data):
    cfg, ds, models = small_models
    text = data.draw(mutated_model_files(models))
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        model = scratch / "model.json"
        model.write_text(text, encoding="utf-8")
        code, err = run_evaluate(cfg, model, ds, scratch / "out")
        assert_clean_exit(code, err, scratch, ds)


@st.composite
def mutated_datasets(draw, ds, names):
    """One of the files ``names`` of the dataset ``ds`` and its text with
    one mutation by :func:`mutated_text`: of the whole manifest, or of one
    line of a bank."""
    name = draw(st.sampled_from(names))
    how = draw(st.sampled_from(["drop", "replace", "truncate"]))
    text = (ds / name).read_text(encoding="utf-8")
    if name == "manifest.json":
        return name, mutated_text(draw, text, how)
    lines = text.splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = mutated_text(draw, lines[at], how)
    return name, "".join(line + "\n" for line in lines)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_train_ends_every_mutated_dataset_with_exit_0_or_1(small_models, data):
    cfg, ds, _ = small_models
    kind = data.draw(st.sampled_from(sorted(SMALL_DETECTORS)))
    name, text = data.draw(mutated_datasets(ds, ["manifest.json", "train.jsonl", "validation.jsonl"]))
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        shutil.copytree(ds, scratch / "ds")
        (scratch / "ds" / name).write_text(text, encoding="utf-8")
        code, err = run_train(cfg, kind, scratch / "ds", scratch / "model.json")
        assert_clean_exit(code, err, scratch, ds)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_evaluate_ends_every_mutated_dataset_with_exit_0_or_1(small_models, data):
    cfg, ds, models = small_models
    kind = data.draw(st.sampled_from(sorted(SMALL_DETECTORS)))
    name, text = data.draw(mutated_datasets(ds, ["manifest.json", "test_injected.jsonl", "test_clean.jsonl"]))
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        shutil.copytree(ds, scratch / "ds")
        (scratch / "ds" / name).write_text(text, encoding="utf-8")
        (scratch / "model.json").write_text(models[kind], encoding="utf-8")
        code, err = run_evaluate(cfg, scratch / "model.json", scratch / "ds", scratch / "out")
        assert_clean_exit(code, err, scratch, ds)


@pytest.mark.parametrize("width, edited", [(0, slice(None)), (2, slice(1, 2))],
                         ids=["zero_columns", "two_columns"])
@pytest.mark.parametrize("bank", ["train", "validation"])
@pytest.mark.parametrize("kind", sorted(SMALL_DETECTORS))
def test_train_refuses_a_record_of_another_state_width(small_models, tmp_path, kind, bank, width, edited):
    """A 1-D ARTS bank whose rows hold no value (``[[], [], ...]``) once
    ended ``train`` in a ZeroDivisionError traceback, and one record whose
    rows hold two values in NumPy's concatenate traceback."""
    cfg, ds, _ = small_models
    shutil.copytree(ds, tmp_path / "ds")
    path = tmp_path / "ds" / f"{bank}.jsonl"
    records = read_records(path)
    for record in records[edited]:
        record["observations"] = [[0.5] * width for _ in record["observations"]]
    write_records(path, records)
    code, err = run_train(cfg, kind, tmp_path / "ds", tmp_path / "model.json")
    assert_clean_exit(code, err, tmp_path)
    assert code == 1 and err.startswith(f"error: {path} line {(edited.start or 0) + 1}: ")
    assert f"have {width} columns, the scenario's state has 1" in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command, bank", [("train", "validation"), ("evaluate", "test_clean")])
def test_a_missing_bank_file_exits_1_naming_its_path(small_models, tmp_path, command, bank):
    cfg, ds, models = small_models
    shutil.copytree(ds, tmp_path / "ds")
    path = tmp_path / "ds" / f"{bank}.jsonl"
    path.unlink()
    if command == "train":
        code, err = run_train(cfg, "dexter", tmp_path / "ds", tmp_path / "model.json")
    else:
        (tmp_path / "model.json").write_text(models["dexter"])
        code, err = run_evaluate(cfg, tmp_path / "model.json", tmp_path / "ds", tmp_path / "out")
    assert_clean_exit(code, err, tmp_path)
    assert code == 1 and str(path) in err


def test_datasets_in_the_older_format_train_and_evaluate_to_the_same_bytes(small_models, tmp_path):
    """Datasets written before labels and usability were derived also hold
    ``labels`` and ``usable`` in every record and a ``files`` map in the
    manifest; those written before the catalogue hash was left to the DEXTER
    model also hold ``scenario`` in every record and a
    ``feature_catalogue_hash`` in the manifest and in every model file's
    header. Loading ignores them, even a hash of another catalogue, so such
    files train and evaluate to the bytes of the same files without them."""
    cfg, ds, models = small_models
    old = tmp_path / "old"
    shutil.copytree(ds, old)
    counts = {}
    for key in DATASET_FILES.values():
        path = old / f"{key}.jsonl"
        records = read_records(path)
        for record in records:
            length, t_a = len(record["observations"]), record["injection_time"]
            record["labels"] = [t_a is not None and i >= t_a for i in range(1, length)]
            record["usable"] = t_a is None or length > t_a
            record["scenario"] = "arts"
        persistence.write_jsonl(str(path), records)
        counts[key] = len(records)
    manifest = read_json(old / "manifest.json")
    manifest["files"] = {"paths": {key: f"{key}.jsonl" for key in counts}, "episode_counts": counts}
    manifest["feature_catalogue_hash"] = "0" * 64
    persistence.atomic_write_json(str(old / "manifest.json"), manifest)
    assert any(any(r["labels"]) for r in read_records(old / "test_injected.jsonl"))

    for kind in sorted(models):
        outputs = []
        for dataset in (ds, old):
            model, out = tmp_path / f"{dataset.name}_{kind}.json", tmp_path / f"{dataset.name}_{kind}"
            assert run_train(cfg, kind, dataset, model) == (0, "")
            trained = read_file(model)
            if dataset == old:
                model.write_text(json.dumps({**read_json(model), "feature_catalogue_hash": "0" * 64}))
            assert run_evaluate(cfg, model, dataset, out, "--emit-scores") == (0, "")
            files = sorted(path for path in out.rglob("*") if path.is_file())
            assert len(files) == 2 + SMALL_COUNTS["num_test"]
            outputs.append([trained] + [(path.relative_to(out), read_file(path)) for path in files])
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == models[kind].encode("utf-8")
