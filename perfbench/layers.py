"""Which library functions are traced, and the per-layer metrics derived
from the traced totals.

Two probe sets exist. ``stage_probes`` is the handful of coarse harness
entry points the untraced runs time (a few dozen calls per run, so their
cost is far below the run-to-run noise). ``layer_probes`` is the full
per-layer set used only by ``--trace 1`` runs.
"""

import os

from dexter import (
    baselines,
    cusum,
    detector,
    environments,
    evaluation,
    isolation_forest,
    persistence,
    ts_features,
)

from tracer import Probe


def _point_trees(stats, seconds, args, result):
    stats.add("point_trees", result.shape[0] * len(args[0].trees))


def _trees(stats, seconds, args, result):
    stats.add("trees", len(result.trees))


def _windows(stats, seconds, args, result):
    stats.add("windows", result.shape[0])


def _episode_key(stats, seconds, args, result):
    episode = args[1]
    stats.keys.add((getattr(episode, "seed", id(episode)), getattr(episode, "injection_time", None)))


def _file_bytes(stats, seconds, args, result):
    stats.add("bytes", os.path.getsize(args[0]))


def _dexter_decision(stats, seconds, args, result):
    trained, episode = args[0], args[1]
    if trained.kind == "dexter":
        stats.samples.append((seconds, len(episode.observations)))


def stage_probes():
    """Stage boundaries of ``run_experiment`` plus the per-episode decision
    call, whose duration is the batch decision latency."""
    return [
        Probe(evaluation, "resolve_scales", "generate"),
        Probe(evaluation, "generate_episodes", "generate"),
        Probe(evaluation, "train_detector", "train"),
        Probe(evaluation, "calibrate_detector", "train"),
        Probe(evaluation, "measure_detector", "evaluate"),
        Probe(evaluation.TrainedDetector, "alert_step", "decision", _dexter_decision),
    ]


def layer_probes():
    """Every public function a workload reaches, at each attribute through
    which it is called."""
    return [
        Probe(isolation_forest, "score_batch", "isolation_forest.score_batch", _point_trees),
        Probe(isolation_forest, "fit", "isolation_forest.fit", _trees),
        Probe(ts_features, "extract_features_batch", "ts_features.extract_features_batch", _windows),
        Probe(environments, "run_episode", "environments.run_episode"),
        Probe(evaluation, "run_episode", "environments.run_episode"),
        Probe(environments, "estimate_dimension_scales", "environments.estimate_dimension_scales"),
        Probe(evaluation, "estimate_dimension_scales", "environments.estimate_dimension_scales"),
        Probe(detector, "score_stream", "detector.score_stream", _episode_key),
        Probe(cusum, "calibrate_from_streams", "cusum.calibrate_from_streams"),
        Probe(detector, "calibrate_from_streams", "cusum.calibrate_from_streams"),
        Probe(baselines, "calibrate_from_streams", "cusum.calibrate_from_streams"),
        Probe(cusum, "first_alert_step", "cusum.first_alert_step"),
        Probe(detector, "first_alert_step", "cusum.first_alert_step"),
        Probe(baselines, "first_alert_step", "cusum.first_alert_step"),
        Probe(cusum.CusumMonitor, "update", "cusum.CusumMonitor.update"),
        Probe(baselines, "fit_dynamics_from_episodes", "baselines.fit_dynamics_from_episodes"),
        Probe(baselines, "pedm_episode_scores", "baselines.pedm_episode_scores"),
        Probe(baselines, "fit_meanshift", "baselines.fit_meanshift"),
        Probe(baselines, "meanshift_episode_scores", "baselines.meanshift_episode_scores"),
        Probe(baselines, "meanshift_detect_online", "baselines.meanshift_detect_online"),
        Probe(evaluation, "generate_episodes", "evaluation.generate_episodes"),
        Probe(evaluation, "train_detector", "evaluation.train_detector"),
        Probe(evaluation, "calibrate_detector", "evaluation.calibrate_detector"),
        Probe(evaluation, "measure_detector", "evaluation.measure_detector"),
        Probe(evaluation, "auroc_raw", "evaluation.auroc_raw"),
        Probe(persistence, "save_model", "persistence.save_model", _file_bytes),
        Probe(persistence, "load_model", "persistence.load_model"),
        Probe(evaluation.TrainedDetector, "from_json_dict", "persistence.from_json_dict"),
        Probe(persistence, "save_episodes", "persistence.save_episodes", _file_bytes),
        Probe(persistence, "load_episodes", "persistence.load_episodes"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(layers: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit)."""
    sb = layers["isolation_forest.score_batch"]
    fit = layers["isolation_forest.fit"]
    feats = layers["ts_features.extract_features_batch"]
    stream = layers["detector.score_stream"]
    alert = layers["cusum.first_alert_step"]
    update = layers["cusum.CusumMonitor.update"]
    auc = layers["evaluation.auroc_raw"]
    save = layers["persistence.save_model"]
    save_eps = layers["persistence.save_episodes"]
    point_trees = sb.counts.get("point_trees", 0)
    trees = fit.counts.get("trees", 0)
    out = {
        "isolation_forest.score_batch.calls": (sb.calls, "count"),
        "isolation_forest.score_batch.point_trees": (point_trees, "count"),
        "isolation_forest.score_batch.s": (sb.inclusive, "s"),
        "isolation_forest.score_batch.ns_per_point_tree": (_ratio(sb.inclusive * 1e9, point_trees), "ns"),
        "isolation_forest.fit.trees": (trees, "count"),
        "isolation_forest.fit.s": (fit.inclusive, "s"),
        "isolation_forest.fit.s_per_tree": (_ratio(fit.inclusive, trees), "s"),
        "ts_features.extract_features_batch.calls": (feats.calls, "count"),
        "ts_features.extract_features_batch.windows": (feats.counts.get("windows", 0), "count"),
        "ts_features.extract_features_batch.s": (feats.inclusive, "s"),
        "environments.run_episode.calls": (layers["environments.run_episode"].calls, "count"),
        "environments.run_episode.s": (layers["environments.run_episode"].inclusive, "s"),
        "environments.estimate_dimension_scales.s":
            (layers["environments.estimate_dimension_scales"].inclusive, "s"),
        "detector.score_stream.calls": (stream.calls, "count"),
        "detector.score_stream.self_s": (stream.self_time, "s"),
        "detector.score_stream.calls_per_episode": (_ratio(stream.calls, stream.distinct), "calls/episode"),
        "cusum.calibrate_from_streams.s": (layers["cusum.calibrate_from_streams"].inclusive, "s"),
        "cusum.first_alert_step.calls": (alert.calls, "count"),
        "cusum.first_alert_step.s": (alert.inclusive, "s"),
        "cusum.monitor_update_us": (_ratio(update.self_time * 1e6, update.calls), "us"),
    }
    for name in ("fit_dynamics_from_episodes", "pedm_episode_scores", "fit_meanshift",
                 "meanshift_detect_online"):
        out[f"baselines.{name}.s"] = (layers[f"baselines.{name}"].inclusive, "s")
    out.update({
        "evaluation.measure_detector.s": (layers["evaluation.measure_detector"].inclusive, "s"),
        "evaluation.auroc_raw.calls": (auc.calls, "count"),
        "evaluation.auroc_raw.s": (auc.inclusive, "s"),
        "persistence.save_model.s": (save.inclusive, "s"),
        "persistence.save_model.bytes": (save.counts.get("bytes", 0), "bytes"),
        "persistence.load_model.s": (layers["persistence.load_model"].inclusive, "s"),
        "persistence.from_json_dict.s": (layers["persistence.from_json_dict"].inclusive, "s"),
        "persistence.save_episodes.s": (save_eps.inclusive, "s"),
        "persistence.save_episodes.bytes": (save_eps.counts.get("bytes", 0), "bytes"),
        "persistence.load_episodes.s": (layers["persistence.load_episodes"].inclusive, "s"),
    })
    return out
