"""Command-line interface: generate | train | evaluate | bench.

One experiment = one JSON config = one master seed. ``generate`` writes the
four episode datasets and a manifest carrying the fully resolved config (per
dimension scales included); ``train`` fits and calibrates the configured
detector on those files; ``evaluate`` measures a saved model against a
dataset; ``bench`` runs the detector x correlation-mode matrix from scratch
with per-cell caching. Each mode has one seed and one set of banks, on which
every detector of the matrix is fitted and measured; ``--jobs`` runs modes
in parallel.

Exit codes: 0 success, 1 validation/configuration error, 2 runtime error.
"""

import argparse
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import fields

from . import evaluation, isolation_forest, persistence
from .errors import ConfigError, DataError, DexterError, IncompatibleModelError, UndefinedMetricError
from .seeding import child_seed

# Bank name -> dataset key; a bank is stored in ``<key>.jsonl``.
DATASET_FILES = {"train": "train", "validation": "validation", "test": "test_injected",
                 "clean_test": "test_clean"}
MANIFEST_NAME = "manifest.json"


def _resolved_config_with_scales(config: persistence.RunConfig):
    """Resolve the scenario (estimate per-dimension scales when absent) and
    return (scenario_config, policy, resolved config dict)."""
    scenario_cfg = config.scenario_config()
    _, policy = evaluation.resolve_policy(scenario_cfg, config.policy_kind())
    scenario_cfg = evaluation.resolve_scales(scenario_cfg, policy, config.master_seed)
    resolved = config.resolved_dict()
    if scenario_cfg.per_dimension_scale is not None:
        resolved["scenario"] = dict(resolved["scenario"])
        resolved["scenario"]["per_dimension_scale"] = list(scenario_cfg.per_dimension_scale)
    return scenario_cfg, policy, resolved


def cmd_generate(args) -> int:
    config = persistence.load_config(args.config, seed_override=args.seed_override)
    scenario_cfg, policy, resolved = _resolved_config_with_scales(config)
    banks = evaluation.generate_banks(scenario_cfg, policy, config.counts(), config.master_seed)

    os.makedirs(args.out, exist_ok=True)
    for bank, key in DATASET_FILES.items():
        persistence.save_episodes(os.path.join(args.out, f"{key}.jsonl"), banks[bank])
    persistence.save_dataset_manifest(os.path.join(args.out, MANIFEST_NAME), resolved)
    print(f"wrote dataset ({sum(map(len, banks.values()))} episodes) to {args.out}")
    return 0


def _load_dataset(dataset_dir: str, names: tuple):
    """The dataset's manifest, its parsed config and the banks ``names``
    keyed by bank name, each read from ``<DATASET_FILES[bank]>.jsonl`` and
    held to the width of the scenario's state."""
    manifest_path = os.path.join(dataset_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise ConfigError(f"dataset manifest not found: {manifest_path}")
    manifest = persistence.read_json_object(manifest_path, "dataset manifest")
    for key in ("config", "config_hash"):
        if key not in manifest:
            raise ConfigError(f"dataset manifest {manifest_path} is missing {key!r}")
    config = persistence.parse_config(manifest["config"])
    width = config.scenario_config().num_dimensions
    banks = {bank: persistence.load_episodes(os.path.join(dataset_dir, f"{DATASET_FILES[bank]}.jsonl"), width)
             for bank in names}
    return manifest, config, banks


def cmd_train(args) -> int:
    manifest, data_config, banks = _load_dataset(args.dataset, ("train", "validation"))
    # The run's seed comes from the manifest, so --config is validated with it.
    config = persistence.load_config(args.config, seed_override=data_config.master_seed)
    trained = evaluation.fit_detector(config.detector_kind, config.detector_params(), banks,
                                      data_config.master_seed, data_config.target_fpr)
    persistence.save_model(args.out, trained, manifest["config_hash"])
    print(f"wrote {config.detector_kind} model to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    # The run's settings come from the manifest, whose seed --config is
    # validated with, and the detector's from the model file.
    manifest, data_config, banks = _load_dataset(args.dataset, ("test", "clean_test"))
    persistence.load_config(args.config, seed_override=data_config.master_seed)
    model_doc = persistence.load_model(args.model)
    trained = evaluation.TrainedDetector.from_json_dict(model_doc["detector"])
    del model_doc  # its column strings would stay alive through the whole evaluation
    if not trained.calibrated():
        raise ConfigError("model file holds an uncalibrated detector")

    result, streams = evaluation.measure_detector(
        trained, banks["test"], banks["clean_test"], data_config.scenario_config(),
        data_config.master_seed, data_config.target_fpr, data_config.counts(),
    )

    os.makedirs(args.out, exist_ok=True)
    row = result.to_json_dict()
    persistence.atomic_write_text(
        os.path.join(args.out, "results.csv"), persistence.results_to_csv([row])
    )
    persistence.atomic_write_json(os.path.join(args.out, "report.json"), {
        **persistence.file_header(manifest["config_hash"]),
        "results": [row],
    })

    if args.emit_scores:
        scores_dir = os.path.join(args.out, "scores")
        os.makedirs(scores_dir, exist_ok=True)
        # measure_detector scored the usable episodes; it skips the others.
        streams = iter(streams)
        for idx, ep in enumerate(banks["test"]):
            scores = next(streams) if ep.usable else trained.transition_scores(ep)
            lines = [
                {"t": int(i + 1), "score": float(s)}
                for i, s in enumerate(scores)
                if not math.isnan(s)
            ]
            persistence.write_jsonl(os.path.join(scores_dir, f"episode_{idx:04d}.jsonl"), lines)

    print(f"evaluated {trained.kind} on {result.num_test_episodes} episodes: "
          f"auroc={result.auroc:.3f} mean_detection_time={result.mean_detection_time} "
          f"fpr={result.fpr_measured:.4f}")
    return 0


def _bench_mode(payload: dict) -> list:
    """The pending cells of one correlation mode, in the order of
    ``payload["detectors"]``: each ``(result, None)``, or ``(None, message)``
    when it fails with a :class:`DexterError`. Every detector is fitted and
    measured on one set of banks, so a failure to resolve the scales or to
    generate the banks fails them all. Module-level for use with process
    pools."""
    kinds = payload["detectors"]
    try:
        config = persistence.parse_config(payload["config"])
        outcomes = evaluation.run_experiments(
            config.scenario_config(correlation_mode=payload["correlation_mode"]),
            {kind: config.detector_params() if kind == config.detector_kind else None for kind in kinds},
            master_seed=payload["mode_seed"],
            counts=config.counts(),
            target_fpr=config.target_fpr,
            policy_kind=config.policy_kind(),
        )
    except DexterError as exc:
        return [(None, str(exc))] * len(kinds)
    return [(None, str(outcome)) if isinstance(outcome, DexterError) else (outcome.to_json_dict(), None)
            for outcome in (outcomes[kind] for kind in kinds)]


def _share_cpus(workers: int) -> None:
    """Pool initializer: each of ``workers`` bench processes splits its
    scoring batches across its share of the CPUs, at least one, so that the
    pool runs no more walking threads than there are CPUs."""
    isolation_forest._threads = max(1, isolation_forest._cpus() // workers)


_RESULT_FIELDS = {f.name for f in fields(evaluation.ExperimentResult)}


def _cached_result(cache_path: str, cell_hash: str, detector: str) -> dict | None:
    """The result a bench cell cache holds for the cell ``cell_hash`` of
    ``detector``; None when the file is missing, unreadable, not a JSON
    object, of another schema version or cell, or holds no result (a failed
    cell), a result of another detector or one that lacks a field of
    :class:`ExperimentResult`."""
    try:
        doc = persistence.read_json(cache_path)
    except (OSError, ValueError):
        return None
    result = doc.get("result") if isinstance(doc, dict) else None
    hit = (isinstance(result, dict) and doc.get("schema_version") == persistence.SCHEMA_VERSION
           and doc.get("cell_hash") == cell_hash and result.get("detector_id") == detector
           and _RESULT_FIELDS <= result.keys())
    return result if hit else None


def cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    config = persistence.load_config(args.config, seed_override=args.seed_override)
    resolved = config.resolved_dict()
    # One seed per mode: every detector of a mode sees the same episodes.
    mode_seeds = {mode: child_seed(config.master_seed, "bench", mode)
                  for mode in config.bench_section["correlation_modes"]}

    cells = []
    for detector_kind in config.bench_section["detectors"]:
        for mode in config.bench_section["correlation_modes"]:
            payload = {
                "config": resolved,
                "detector": detector_kind,
                "correlation_mode": mode,
                "cell_seed": mode_seeds[mode],
            }
            cells.append((persistence.config_hash(payload), payload))

    os.makedirs(os.path.join(args.out, "cells"), exist_ok=True)
    # pending: mode -> detector -> (cell hash, payload, cache path) of the cells to compute.
    results, pending = {}, {}
    for cell_hash, payload in cells:
        cache_path = os.path.join(args.out, "cells", f"{cell_hash}.json")
        cached = _cached_result(cache_path, cell_hash, payload["detector"]) if args.resume else None
        if cached is not None:
            results[cell_hash] = cached
            print(f"cell {payload['detector']}/{payload['correlation_mode']}: cached")
        else:
            pending.setdefault(payload["correlation_mode"], {})[payload["detector"]] = (
                cell_hash, payload, cache_path)

    modes = [{"config": resolved, "correlation_mode": mode, "mode_seed": mode_seeds[mode],
              "detectors": list(by_detector)} for mode, by_detector in pending.items()]
    workers = min(args.jobs, len(modes))
    parallel = workers > 1
    if parallel:
        # Imported here: the pool machinery adds about 1.6 MB of resident
        # memory to every start of the CLI, and one worker never uses it.
        from concurrent.futures import ProcessPoolExecutor
    pool = (ProcessPoolExecutor(max_workers=workers, initializer=_share_cpus, initargs=(workers,))
            if parallel else nullcontext())
    with pool:
        outcomes = (pool.map if parallel else map)(_bench_mode, modes)
        for job, job_outcomes in zip(modes, outcomes):
            for detector_kind, (result, error) in zip(job["detectors"], job_outcomes):
                cell_hash, payload, cache_path = pending[job["correlation_mode"]][detector_kind]
                persistence.atomic_write_json(cache_path, {
                    "schema_version": persistence.SCHEMA_VERSION,
                    "tool_version": persistence.TOOL_VERSION,
                    "cell_hash": cell_hash,
                    "cell": {k: payload[k] for k in ("detector", "correlation_mode", "cell_seed")},
                    "result": result,
                    "error": error,
                })
                results[cell_hash] = result
                if error is not None:
                    print(f"cell {payload['detector']}/{payload['correlation_mode']} failed: {error}",
                          file=sys.stderr)

    rows = [results[c] for c, _ in cells if results.get(c) is not None]
    table = _bench_table(rows)
    persistence.atomic_write_text(os.path.join(args.out, "results.csv"),
                                  persistence.results_to_csv(table))
    persistence.atomic_write_json(os.path.join(args.out, "report.json"), {
        **persistence.file_header(persistence.config_hash(resolved)),
        "num_cells": len(cells),
        "num_failed": sum(1 for c, _ in cells if results.get(c) is None),
        "results": rows,
        "table": table,
    })
    print(f"bench complete: {len(rows)}/{len(cells)} runs, {len(table)} table cells -> {args.out}")
    return 0


def _bench_table(rows: list) -> list:
    """Expand underlying runs into the published table layout: one AUROC row
    per detector plus one detection-time row (``<kind>_c``) per kind decided
    by the shared CUSUM; the mean-shift detector is itself the sequential
    test, so it appears once."""
    table = []
    for row in rows:
        cusum = evaluation.DETECTORS[row["detector_id"]].cusum
        auroc_view = dict(row)
        auroc_view.pop("per_episode", None)
        for key in ("mean_detection_time", "detected_fraction", "num_pre_injection_alerts",
                    "fpr_measured"):
            auroc_view[key] = None if cusum else row[key]
        table.append(auroc_view)
        if cusum:
            cusum_view = dict(row)
            cusum_view.pop("per_episode", None)
            cusum_view["detector_id"] = f"{row['detector_id']}_c"
            cusum_view["auroc"] = None
            cusum_view["auroc_raw"] = None
            cusum_view["per_episode_auroc"] = None
            table.append(cusum_view)
    return table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dexter",
        description="Sequential out-of-distribution detection on trajectory streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate episode datasets from a config")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed-override", type=int, default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train and calibrate a detector on a dataset")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model against a dataset")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--emit-scores", action="store_true")
    p_eval.set_defaults(func=cmd_evaluate)

    p_bench = sub.add_parser("bench", help="run the detector x correlation-mode matrix")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--seed-override", type=int, default=None)
    p_bench.add_argument("--resume", action="store_true")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, IncompatibleModelError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DexterError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
