import csv
import json
import os

import pytest

from dexter import persistence
from dexter.cli import main
from dexter.persistence import RESULT_CSV_COLUMNS, config_hash, read_json


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
    assert manifest["files"]["episode_counts"]["train"] == 15

    model = tmp / "model.json"
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--out", str(model)]) == 0
    doc = read_json(model)
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
    assert "indices" in capsys.readouterr().err


def test_model_file_roundtrip_is_stable(workspace):
    tmp, cfg = workspace
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


def test_evaluate_refuses_catalogue_mismatch(workspace, capsys):
    tmp, cfg = workspace
    ds, model = tmp / "ds", tmp / "model.json"
    main(["generate", "--config", str(cfg), "--out", str(ds)])
    main(["train", "--config", str(cfg), "--dataset", str(ds), "--out", str(model)])

    doc = read_json(model)
    doc["feature_catalogue_hash"] = "0" * 64
    model.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(cfg), "--model", str(model),
                 "--dataset", str(ds), "--out", str(tmp / "r")]) == 1
    assert "catalogue" in capsys.readouterr().err


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


def test_bench_parallel_jobs_match_serial(workspace):
    tmp, cfg = workspace
    out1, out2 = tmp / "serial", tmp / "parallel"
    assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
    assert read_file(out1 / "results.csv") == read_file(out2 / "results.csv")


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
