"""Configuration loading, dataset/model/result files, and hashing.

All artifacts are JSON (single documents) or JSON Lines (episode datasets),
written atomically (temp file + rename) with canonical key ordering so a
fixed master seed reproduces every output byte. Every file embeds the
schema version, the producing tool version, and the hash of the resolved
run configuration.
"""

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass

from . import __version__ as TOOL_VERSION
from .ar_noise import ARProcessSpec, CorrelationMode
from .environments import BaseEnv, PolicyKind, Scenario, ScenarioConfig, Episode
from .errors import ConfigError
from .evaluation import DETECTOR_KINDS, EpisodeCounts, detector_params_with_defaults
from .ts_features import catalogue_hash

SCHEMA_VERSION = 2

_SCENARIO_DEFAULTS = {
    "scenario": "arts",
    "base_env": "constant",
    "policy": None,               # null = heuristic for cartpole, random otherwise
    "horizon": 200,
    "injection_window": None,     # null = (6, horizon - 7)
    "correlation_mode": "one_step",
    "phi": 0.95,
    "innovation_sigma": 1.0,
    "magnitude_scale": 1.0,
    "per_dimension_scale": None,  # null = estimated from clean rollouts
}

_EVALUATION_DEFAULTS = {
    "num_train": 400,
    "num_validation": 200,
    "num_test": 50,
    "num_clean_test": 200,
    "target_fpr": 0.01,
    "master_seed": None,          # mandatory
}

_BENCH_DEFAULTS = {
    "detectors": ["dexter", "pedm", "meanshift"],
    "correlation_modes": ["one_step", "two_step"],
}

_TOP_LEVEL_KEYS = {"scenario", "detector", "evaluation", "bench", "output_dir"}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def atomic_write_text(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def atomic_write_json(path: str, obj):
    """Encode ``obj`` straight into the temp file, so a large model is never
    held as one string; the bytes equal ``json.dumps(obj, sort_keys=True,
    indent=1)`` plus a newline. A failed encoding leaves no file behind."""
    tmp = f"{path}.tmp"
    handle = open(tmp, "w", encoding="utf-8")
    try:
        with handle:
            json.dump(obj, handle, sort_keys=True, indent=1)
            handle.write("\n")
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_jsonl(path: str, dicts):
    buf = io.StringIO()
    for d in dicts:
        buf.write(canonical_json(d))
        buf.write("\n")
    atomic_write_text(path, buf.getvalue())


def read_jsonl(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _merge_section(name: str, defaults: dict, given: dict) -> dict:
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}' section: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(given)
    return merged


@dataclass
class RunConfig:
    """Validated, fully defaulted run configuration."""

    scenario_section: dict
    detector_section: dict
    evaluation_section: dict
    bench_section: dict
    output_dir: str | None

    @property
    def master_seed(self) -> int:
        return int(self.evaluation_section["master_seed"])

    @property
    def detector_kind(self) -> str:
        return self.detector_section["kind"]

    @property
    def target_fpr(self) -> float:
        return float(self.evaluation_section["target_fpr"])

    def counts(self) -> EpisodeCounts:
        ev = self.evaluation_section
        return EpisodeCounts(
            num_train=int(ev["num_train"]),
            num_validation=int(ev["num_validation"]),
            num_test=int(ev["num_test"]),
            num_clean_test=int(ev["num_clean_test"]),
        )

    def policy_kind(self):
        policy = self.scenario_section["policy"]
        return None if policy is None else PolicyKind(policy)

    def detector_params(self) -> dict:
        return {k: v for k, v in self.detector_section.items() if k != "kind"}

    def noise_specs(self, correlation_mode: str | None = None):
        sc = self.scenario_section
        mode = CorrelationMode(correlation_mode or sc["correlation_mode"])
        sigma = float(sc["innovation_sigma"])
        scale = float(sc["magnitude_scale"])
        pre = ARProcessSpec.no_correlation(sigma=sigma, scale=scale)
        if mode is CorrelationMode.NO_CORRELATION:
            post = pre
        elif mode is CorrelationMode.ONE_STEP:
            post = ARProcessSpec.one_step(float(sc["phi"]), sigma=sigma, scale=scale)
        else:
            post = ARProcessSpec.two_step(float(sc["phi"]), sigma=sigma, scale=scale)
        return pre, post

    def scenario_config(self, correlation_mode: str | None = None) -> ScenarioConfig:
        sc = self.scenario_section
        horizon = int(sc["horizon"])
        window = sc["injection_window"] or (6, horizon - 7)
        pre, post = self.noise_specs(correlation_mode)
        return ScenarioConfig(
            scenario=Scenario(sc["scenario"]),
            base_env=BaseEnv(sc["base_env"]),
            noise_pre=pre,
            noise_post=post,
            injection_window=tuple(window),
            horizon=horizon,
            per_dimension_scale=(
                None if sc["per_dimension_scale"] is None else tuple(sc["per_dimension_scale"])
            ),
        )

    def resolved_dict(self) -> dict:
        return {
            "scenario": self.scenario_section,
            "detector": self.detector_section,
            "evaluation": self.evaluation_section,
            "bench": self.bench_section,
            "output_dir": self.output_dir,
        }

    def hash(self) -> str:
        return config_hash(self.resolved_dict())


def parse_config(doc: dict, seed_override: int | None = None, require_seed: bool = True) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")

    scenario = _merge_section("scenario", _SCENARIO_DEFAULTS, doc.get("scenario", {}))
    evaluation = _merge_section("evaluation", _EVALUATION_DEFAULTS, doc.get("evaluation", {}))
    bench = _merge_section("bench", _BENCH_DEFAULTS, doc.get("bench", {}))

    detector_given = dict(doc.get("detector", {}))
    kind = detector_given.pop("kind", "dexter")
    params = detector_params_with_defaults(kind, detector_given)
    detector = {"kind": kind, **params}

    if seed_override is not None:
        evaluation["master_seed"] = int(seed_override)
    if require_seed and evaluation["master_seed"] is None:
        raise ConfigError("evaluation.master_seed is mandatory (or pass --seed-override)")

    for name in bench["detectors"]:
        if name not in DETECTOR_KINDS:
            raise ConfigError(f"bench.detectors contains unknown kind {name!r}")
    for mode in bench["correlation_modes"]:
        CorrelationMode(mode)

    config = RunConfig(
        scenario_section=scenario,
        detector_section=detector,
        evaluation_section=evaluation,
        bench_section=bench,
        output_dir=doc.get("output_dir"),
    )
    config.scenario_config()  # validates scenario invariants eagerly
    if not 0.0 < config.target_fpr < 1.0:
        raise ConfigError("evaluation.target_fpr must be in (0, 1)")
    return config


def load_config(path: str, seed_override: int | None = None) -> RunConfig:
    try:
        doc = read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc, seed_override=seed_override)


def _file_header(cfg_hash: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "config_hash": cfg_hash,
    }


def save_dataset_manifest(path: str, resolved_config: dict, files: dict):
    cfg_hash = config_hash(resolved_config)
    atomic_write_json(path, {
        **_file_header(cfg_hash),
        "feature_catalogue_hash": catalogue_hash(),
        "config": resolved_config,
        "files": files,
    })


def save_episodes(path: str, episodes):
    write_jsonl(path, (ep.to_json_dict() for ep in episodes))


def load_episodes(path: str):
    return [Episode.from_json_dict(d) for d in read_jsonl(path)]


def save_model(path: str, trained, cfg_hash: str):
    """The model as one line of compact JSON with sorted keys. It is encoded
    in one ``json.dumps`` call, which runs the C encoder; ``indent`` would
    run the pure-Python one, several times slower on a large forest."""
    atomic_write_text(path, json.dumps({
        **_file_header(cfg_hash),
        "feature_catalogue_hash": catalogue_hash(),
        "detector": trained.to_json_dict(),
    }, sort_keys=True, separators=(",", ":")) + "\n")


def load_model(path: str) -> dict:
    doc = read_json(path)
    for key in ("schema_version", "detector"):
        if key not in doc:
            raise ConfigError(f"model file {path} is missing '{key}'")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"model schema_version {doc['schema_version']} unsupported (expected {SCHEMA_VERSION})"
        )
    return doc


RESULT_CSV_COLUMNS = (
    "scenario_id", "detector_id", "auroc", "auroc_raw", "per_episode_auroc",
    "mean_detection_time", "detected_fraction", "num_pre_injection_alerts",
    "fpr_measured", "num_test_episodes", "num_unusable_episodes", "master_seed",
)


def results_to_csv(result_dicts) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RESULT_CSV_COLUMNS, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in result_dicts:
        writer.writerow({k: row.get(k) for k in RESULT_CSV_COLUMNS})
    return buf.getvalue()
