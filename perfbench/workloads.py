"""The three benchmark workloads.

Each workload is a closed loop in one process: the next request starts when
the previous one has finished. ``setup()`` prepares what the measured work
needs and may be called several times; ``iteration()`` runs one unit of
measured work with the same seed every time, so two iterations must give
byte-identical results (the determinism gate).

Sizes are the ones this benchmark was sized with on a 2-CPU machine,
scaled from the full acceptance configs so that a run stays within its time
budget; the detector parameters are the harness defaults (``arts_cli``) or
the ARNO bench settings (the other two).
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from dexter import cli, detector, evaluation, isolation_forest, persistence, ts_features
from dexter.cusum import CusumMonitor
from dexter.seeding import child_seed

import layers
from tracer import Tracer

# 0.25 x 200/100/25/50, the ARTS sizing counts: psi = 50 * 20 = 1000 windows.
ARTS_COUNTS = {"num_train": 50, "num_validation": 25, "num_test": 6, "num_clean_test": 12}
# 0.4 x the 100/100/25/50 ARNO counts.
ARNO_COUNTS = {"num_train": 40, "num_validation": 40, "num_test": 10, "num_clean_test": 20}
ARNO_DETECTOR = {"kind": "dexter", "num_trees": 25, "subsample_cap": 1000}
# Injected episodes streamed per pass of ``cartpole_online`` (~600 steps),
# taken from a test bank large enough to give a steady AUROC.
STREAM_EPISODES = 3
CARTPOLE_TEST_BANK = 25
# ``dexter generate`` runs per ``arts_cli`` iteration. It takes a fraction of
# a second, so one sample per pipeline would be mostly noise.
ARTS_GENERATES = 3


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def sha256_dir(path: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode() + b"\0" + sha256_file(os.path.join(path, name)).encode())
    return digest.hexdigest()


class Iteration:
    """What one unit of measured work produced."""

    def __init__(self):
        self.stages = {}          # metric name -> list of seconds
        self.decisions = []       # (seconds, observations decided) samples
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.auroc = None
        self.detection_time = None  # (dexter_c mean steps, injected episodes)
        self.calibration = []     # (detector, false alerts, clean episodes, target)
        self.problems = []        # failed correctness checks, as messages


def _run_cli(argv, it: Iteration) -> float:
    """Run one ``dexter`` command in-process; returns its wall time. A
    non-zero exit counts as a failed operation."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    it.attempted += 1
    if code != 0:
        it.failed += 1
        it.problems.append(f"dexter {argv[0]} exited {code}: {err.getvalue().strip()}")
    return elapsed


class _CliWorkload:
    """Shared set-up of the two CLI workloads: the time a user waits before
    the first command can run, i.e. a fresh interpreter importing the CLI
    and validating the config."""

    def __init__(self, root: str, work: str, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(self.config(), handle, indent=1)
        self.count = 0

    def setup(self) -> dict:
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import dexter.cli; "
                "from dexter import persistence; persistence.load_config(sys.argv[2])")
        start = time.perf_counter()
        # No timeout: with one, ``wait`` polls in sleeps of up to 50 ms, which
        # would quantise a 0.3 s measurement.
        subprocess.run([sys.executable, "-c", code, os.path.join(self.root, "src"), self.config_path],
                       check=True, cwd=self.root)
        return {"setup_s": [time.perf_counter() - start]}

    def _fresh_dir(self) -> str:
        self.count += 1
        old = os.path.join(self.work, f"it{self.count - 1}")
        shutil.rmtree(old, ignore_errors=True)
        path = os.path.join(self.work, f"it{self.count}")
        os.makedirs(path)
        return path


class ArtsCli(_CliWorkload):
    """ARTS, constant env, 1-D, one-step phi 0.95: ``dexter generate``, then
    ``train``, then ``evaluate`` with the harness-default detector (300
    trees, subsample cap 8000)."""

    def config(self) -> dict:
        return {
            "scenario": {"scenario": "arts", "base_env": "constant",
                         "correlation_mode": "one_step", "phi": 0.95},
            "detector": {"kind": "dexter"},
            "evaluation": {**ARTS_COUNTS, "master_seed": self.seed},
        }

    def iteration(self) -> Iteration:
        it = Iteration()
        out = self._fresh_dir()
        dataset, model, results = (os.path.join(out, n) for n in ("dataset", "model.json", "results"))
        stopwatch = Tracer(layers.stage_probes())
        start = time.perf_counter()
        with stopwatch:
            generate = [_run_cli(["generate", "--config", self.config_path, "--out", dataset], it)]
            train = _run_cli(
                ["train", "--config", self.config_path, "--dataset", dataset, "--out", model], it)
            evaluate = _run_cli(
                ["evaluate", "--config", self.config_path, "--model", model,
                 "--dataset", dataset, "--out", results], it)
        pipeline = time.perf_counter() - start
        it.decisions = stopwatch.layers["decision"].samples
        for k in range(1, ARTS_GENERATES):
            again = os.path.join(out, f"dataset{k}")
            generate.append(_run_cli(["generate", "--config", self.config_path, "--out", again], it))
            if not it.failed and sha256_dir(again) != sha256_dir(dataset):
                it.problems.append("dexter generate wrote different datasets for the same seed")
            shutil.rmtree(again, ignore_errors=True)
        it.stages = {"generate_s": generate, "train_s": [train], "evaluate_s": [evaluate],
                     "pipeline_s": [pipeline]}
        if it.failed:
            return it
        it.digest = sha256_file(os.path.join(results, "results.csv"))
        row = persistence.read_json(os.path.join(results, "report.json"))["results"][0]
        it.auroc = row["auroc"]
        it.detection_time = (row["mean_detection_time"],
                             row["num_test_episodes"] - row["num_pre_injection_alerts"])
        clean = ARTS_COUNTS["num_clean_test"]
        it.calibration.append(("dexter_c", round(row["fpr_measured"] * clean), clean, row["target_fpr"]))
        if not 0.5 <= it.auroc <= 1.0 or row["num_test_episodes"] < 1:
            it.problems.append(f"implausible evaluate result: {row}")
        return it


class ArnoBench(_CliWorkload):
    """ARNO on Cartpole, 4-D, magnitude 0.5: ``dexter bench --jobs 1`` over
    dexter (25 trees, cap 1000), PEDM-lite and mean-shift on one-step noise."""

    def config(self) -> dict:
        return {
            "scenario": {"scenario": "arno", "base_env": "cartpole", "correlation_mode": "one_step",
                         "phi": 0.95, "magnitude_scale": 0.5},
            "detector": dict(ARNO_DETECTOR),
            "evaluation": {**ARNO_COUNTS, "master_seed": self.seed},
            "bench": {"detectors": ["dexter", "pedm", "meanshift"], "correlation_modes": ["one_step"]},
        }

    def iteration(self) -> Iteration:
        it = Iteration()
        out = self._fresh_dir()
        stopwatch = Tracer(layers.stage_probes())
        with stopwatch:
            it.stages["pipeline_s"] = [_run_cli(
                ["bench", "--config", self.config_path, "--out", out, "--jobs", "1"], it)]
        for stage in ("generate", "train", "evaluate"):
            it.stages[f"{stage}_s"] = [stopwatch.layers[stage].inclusive]
        it.decisions = stopwatch.layers["decision"].samples
        if it.failed:
            return it
        report = persistence.read_json(os.path.join(out, "report.json"))
        it.attempted += report["num_cells"]
        it.failed += report["num_failed"]
        if report["num_failed"]:
            it.problems.append(f"{report['num_failed']} bench cell(s) failed")
            return it
        it.digest = sha256_file(os.path.join(out, "results.csv"))
        clean = ARNO_COUNTS["num_clean_test"]
        for row in report["results"]:
            if row["detector_id"] == "dexter":
                it.auroc = row["auroc"]
                it.detection_time = (row["mean_detection_time"],
                                     row["num_test_episodes"] - row["num_pre_injection_alerts"])
            name = row["detector_id"] + ("" if row["detector_id"] == "meanshift" else "_c")
            it.calibration.append((name, round(row["fpr_measured"] * clean), clean, row["target_fpr"]))
        if it.auroc is None or not 0.5 <= it.auroc <= 1.0:
            it.problems.append(f"implausible dexter AUROC {it.auroc}")
        return it


class CartpoleOnline:
    """Real-time monitoring of ARNO Cartpole streams.

    Set-up generates the banks, trains and calibrates dexter with the ARNO
    bench settings, saves the model and loads it back. A pass then streams
    ``STREAM_EPISODES`` injected episodes one observation at a time: each
    arriving observation is appended, the window ending at it is
    featurised per dimension, scored by that dimension's forest as a batch of
    one, averaged over dimensions and fed to the CUSUM monitor. The decision
    latency of an observation is the time from its arrival to the monitor's
    answer; the loop hands over the next observation as soon as it has one.
    ``pipeline_s`` is the median set-up time plus the pass.

    Every streamed score must equal ``detector.score_stream`` bit for bit and
    the stream's decision at every step must match ``detect_online``; each
    step that does not is a failed operation.
    """

    def __init__(self, root: str, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.config = persistence.parse_config({
            "scenario": {"scenario": "arno", "base_env": "cartpole", "correlation_mode": "one_step",
                         "phi": 0.95, "magnitude_scale": 0.5},
            "detector": dict(ARNO_DETECTOR),
            "evaluation": {**ARNO_COUNTS, "num_test": CARTPOLE_TEST_BANK, "master_seed": seed},
        })
        self.model_path = os.path.join(work, "model.json")
        self.setup_times = []
        self.model_digests = set()
        self.reference = None
        self.trained = None
        self.test = None
        self.stream = None
        self.count = 0

    def setup(self) -> dict:
        cfg, seed, counts = self.config, self.seed, self.config.counts()
        start = time.perf_counter()
        scenario = cfg.scenario_config()
        _, policy = evaluation.resolve_policy(scenario, cfg.policy_kind())
        scenario = evaluation.resolve_scales(scenario, policy, seed)
        train = evaluation.generate_episodes(scenario, policy, "train", counts.num_train, seed, False)
        validation = evaluation.generate_episodes(
            scenario, policy, "validation", counts.num_validation, seed, False)
        test = evaluation.generate_episodes(scenario, policy, "test", counts.num_test, seed, True)
        generated = time.perf_counter()
        trained = evaluation.train_detector(
            "dexter", train, cfg.detector_params(), seed=child_seed(seed, "detector"))
        evaluation.calibrate_detector(
            trained, validation, cfg.target_fpr, seed=child_seed(seed, "calibration"))
        persistence.save_model(self.model_path, trained, cfg.hash())
        saved = time.perf_counter()
        self.trained = evaluation.TrainedDetector.from_json_dict(
            persistence.load_model(self.model_path)["detector"])
        done = time.perf_counter()
        self.model_digests.add(sha256_file(self.model_path))
        self.test = [ep for ep in test if ep.usable]
        self.stream = self.test[:STREAM_EPISODES]
        self.setup_times.append(done - start)
        if self.reference is None:
            self.reference = self._reference()
        return {"setup_s": [done - start], "generate_s": [generated - start],
                "train_s": [saved - generated]}

    def _reference(self):
        """Batch scores and alerts of the streamed episodes, and the pooled
        AUROC of the test bank. Computed once, outside the timed set-up:
        every set-up of a run builds the same model (checked through the
        model digest)."""
        model, decision = self.trained.model, self.trained.decision
        scores = [detector.score_stream(model, ep).scores for ep in self.stream]
        alerts = [detector.detect_online(decision, model, ep).alert_step for ep in self.stream]
        pooled = evaluation.pooled_scores(self.trained, self.test, model.window_size - 1)
        return scores, alerts, evaluation.auroc(pooled)

    def _stream_episode(self, episode, latencies):
        model, decision = self.trained.model, self.trained.decision
        forests, window = model.forests, model.window_size
        obs = np.asarray(episode.observations, dtype=float)
        length, dims = obs.shape
        buffer = np.empty_like(obs)
        scores = np.full(length, np.nan)
        flags = np.zeros(length, dtype=bool)
        monitor = CusumMonitor(decision)
        for t in range(length):
            arrived = time.perf_counter()
            buffer[t] = obs[t]
            score = np.nan
            if t >= window - 1:
                total = 0.0
                for d in range(dims):
                    features = ts_features.extract_features_batch(buffer[t - window + 1:t + 1, d][None, :])
                    total += isolation_forest.score_batch(forests[d], features)[0]
                score = total / dims
            flags[t] = monitor.update(float(score))
            if t >= window - 1:
                latencies.append((time.perf_counter() - arrived, 1))
            scores[t] = score
        return scores, flags

    def iteration(self) -> Iteration:
        it = Iteration()
        ref_scores, ref_alerts, it.auroc = self.reference
        start = time.perf_counter()
        streamed = [self._stream_episode(ep, it.decisions) for ep in self.stream]
        alerts = [int(np.argmax(flags)) if flags.any() else None for _, flags in streamed]
        self.count += 1
        path = os.path.join(self.work, f"alerts{self.count}.json")
        persistence.atomic_write_json(path, {
            "alert_steps": alerts,
            "scores_sha256": [hashlib.sha256(s.tobytes()).hexdigest() for s, _ in streamed],
        })
        elapsed = time.perf_counter() - start
        it.stages = {"evaluate_s": [elapsed], "pipeline_s": [float(np.median(self.setup_times)) + elapsed]}
        it.digest = sha256_file(path)
        os.remove(path)
        for (scores, flags), ref, ref_alert in zip(streamed, ref_scores, ref_alerts):
            expected = np.arange(len(flags)) >= (len(flags) if ref_alert is None else ref_alert)
            bad = ~((scores == ref) | (np.isnan(scores) & np.isnan(ref))) | (flags != expected)
            it.attempted += len(flags)
            it.failed += int(bad.sum())
        if it.failed:
            it.problems.append(f"{it.failed} streamed step(s) disagree with score_stream/detect_online")
        if len(self.model_digests) > 1:
            it.problems.append("set-ups with the same seed wrote different model files")
        return it


WORKLOADS = {"arts_cli": ArtsCli, "arno_bench": ArnoBench, "cartpole_online": CartpoleOnline}
