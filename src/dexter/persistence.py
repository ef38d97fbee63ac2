"""Configuration loading, dataset/model/result files, and hashing.

All artifacts are JSON (single documents) or JSON Lines (episode datasets),
written atomically (temp file + rename) with canonical key ordering so a
fixed master seed reproduces every output byte. Every file embeds the
schema version, the producing tool version, and the hash of the resolved
run configuration.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, fields

from . import __version__ as TOOL_VERSION
from .ar_noise import ARProcessSpec, CorrelationMode
from .environments import PolicyKind, ScenarioConfig, Episode
from .errors import ConfigError, DataError, member, require
from .evaluation import DETECTORS, EpisodeCounts, detector_params_with_defaults

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

_COUNT_DEFAULTS = {f.name: f.default for f in fields(EpisodeCounts)}

_EVALUATION_DEFAULTS = {
    **_COUNT_DEFAULTS,
    "target_fpr": 0.01,
    "master_seed": None,          # mandatory
}

_BENCH_DEFAULTS = {
    "detectors": list(DETECTORS),
    "correlation_modes": ["one_step", "two_step"],
}

_TOP_LEVEL_KEYS = {"scenario", "detector", "evaluation", "bench", "output_dir"}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text handle on ``<path>.tmp`` that replaces ``path`` when the block
    ends. A block that raises removes the temp file and leaves ``path`` as
    it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def atomic_write_text(path: str, text: str):
    """Write ``text`` to ``path`` through ``<path>.tmp`` and a rename."""
    with _atomic_open(path) as handle:
        handle.write(text)


def atomic_write_json(path: str, obj):
    """``json.dumps(obj, sort_keys=True, indent=1)`` plus a newline, written atomically."""
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _parse_json(text: str):
    """The document in ``text``, the one parse of every file this package
    reads. A document nested deeper than the parser recurses raises
    :class:`json.JSONDecodeError`, as other text that is not JSON does,
    not :class:`RecursionError`."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("document is nested too deep", text, 0) from None


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return _parse_json(handle.read())


def write_jsonl(path: str, dicts):
    buf = io.StringIO()
    for d in dicts:
        buf.write(canonical_json(d))
        buf.write("\n")
    atomic_write_text(path, buf.getvalue())


def _section(doc: dict, name: str) -> dict:
    given = doc.get(name, {})
    if not isinstance(given, dict):
        raise ConfigError(f"'{name}' section must be a JSON object, got {given!r}")
    return given


def _merge_section(doc: dict, name: str, defaults: dict) -> dict:
    given = _section(doc, name)
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
        return EpisodeCounts(**{key: self.evaluation_section[key] for key in _COUNT_DEFAULTS})

    def policy_kind(self):
        policy = self.scenario_section["policy"]
        return None if policy is None else member(PolicyKind, policy, "policy")

    def detector_params(self) -> dict:
        return {k: v for k, v in self.detector_section.items() if k != "kind"}

    def scenario_config(self, correlation_mode: str | None = None) -> ScenarioConfig:
        sc = self.scenario_section
        return ScenarioConfig(
            scenario=sc["scenario"],
            base_env=sc["base_env"],
            noise=ARProcessSpec(correlation_mode or sc["correlation_mode"], sc["phi"],
                                sc["innovation_sigma"], sc["magnitude_scale"]),
            injection_window=sc["injection_window"],
            horizon=sc["horizon"],
            per_dimension_scale=sc["per_dimension_scale"],
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


def parse_config(doc: dict, seed_override: int | None = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")

    scenario = _merge_section(doc, "scenario", _SCENARIO_DEFAULTS)
    evaluation = _merge_section(doc, "evaluation", _EVALUATION_DEFAULTS)
    bench = _merge_section(doc, "bench", _BENCH_DEFAULTS)

    detector_given = dict(_section(doc, "detector"))
    kind = detector_given.pop("kind", "dexter")
    params = detector_params_with_defaults(kind, detector_given)
    detector = {"kind": kind, **params}

    if seed_override is not None:
        evaluation["master_seed"] = int(seed_override)
    seed, fpr = evaluation["master_seed"], evaluation["target_fpr"]
    require(type(seed) is int, "evaluation.master_seed", "an integer (or pass --seed-override)", seed)
    require(type(fpr) in (int, float) and 0 < fpr < 1, "evaluation.target_fpr", "a number in (0, 1)", fpr)

    for key in ("detectors", "correlation_modes"):
        require(isinstance(bench[key], list), f"bench.{key}", "a list", bench[key])
    for name in bench["detectors"]:
        require(isinstance(name, str) and name in DETECTORS, "bench.detectors entry",
                f"one of {list(DETECTORS)}", name)
    for mode in bench["correlation_modes"]:
        member(CorrelationMode, mode, "bench.correlation_modes entry")
    # A repeated entry would name one cell twice: one result, several rows.
    for key in ("detectors", "correlation_modes"):
        entries = bench[key]
        for i, entry in enumerate(entries):
            require(entry not in entries[:i], f"bench.{key} entry", "listed once", entry)

    config = RunConfig(
        scenario_section=scenario,
        detector_section=detector,
        evaluation_section=evaluation,
        bench_section=bench,
        output_dir=doc.get("output_dir"),
    )
    # Each value is checked by the type that holds it; its message gains the section.
    for section, build in (("scenario", config.scenario_config), ("scenario", config.policy_kind),
                           ("evaluation", config.counts)):
        try:
            build()
        except ConfigError as exc:
            raise ConfigError(f"{section}.{exc}") from None
    return config


def load_config(path: str, seed_override: int | None = None) -> RunConfig:
    try:
        doc = read_json(path)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc, seed_override=seed_override)


def file_header(cfg_hash: str) -> dict:
    """The keys that head every dataset manifest, model file and report."""
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "config_hash": cfg_hash,
    }


def save_dataset_manifest(path: str, resolved_config: dict):
    """The bank files and their counts follow from the config: not listed."""
    atomic_write_json(path, {
        **file_header(config_hash(resolved_config)),
        "config": resolved_config,
    })


def save_episodes(path: str, episodes):
    write_jsonl(path, (ep.to_json_dict() for ep in episodes))


def load_episodes(path: str, num_dimensions: int) -> list:
    """The episodes of a JSON Lines file. A line that is not UTF-8 JSON, or
    not a record of ``num_dimensions`` columns that :class:`Episode` reads,
    raises :class:`DataError` naming the file and the line."""
    episodes = []
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                episode = Episode.from_json_dict(_parse_json(line.decode("utf-8")))
                if episode.num_dimensions != num_dimensions:
                    raise DataError(f"episode observations have {episode.num_dimensions} columns, "
                                    f"the scenario's state has {num_dimensions}")
            except ValueError as exc:  # not UTF-8, not JSON, or a refused record
                raise DataError(f"{path} line {number}: {exc}") from None
            episodes.append(episode)
    return episodes


def save_model(path: str, trained, cfg_hash: str):
    """The model as one line of compact JSON with sorted keys, the bytes
    ``json.dumps`` gives plus a newline: the file header and the detector
    document. Only a DEXTER detector depends on the feature catalogue, so
    its ``feature_manifest_hash`` is the file's one record of it, checked
    when the model is read.
    ``json.dump`` streams the document into the temp file piece by piece, so
    the multi-MB text is never held whole; a forest's node columns are a few
    base64 strings, so the document holds few values and its pure-Python
    encoder costs little."""
    doc = {
        **file_header(cfg_hash),
        "detector": trained.to_json_dict(),
    }
    with _atomic_open(path) as handle:
        json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in ``path``. A file that is not UTF-8 JSON, or whose
    root is not an object, raises :class:`ConfigError` naming ``what`` and
    the path."""
    try:
        doc = read_json(path)
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ConfigError(f"{what} {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    return doc


def load_model(path: str) -> dict:
    doc = read_json_object(path, "model file")
    for key in ("schema_version", "detector"):
        if key not in doc:
            raise ConfigError(f"model file {path} is missing '{key}'")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"model schema_version {doc['schema_version']!r} unsupported (expected {SCHEMA_VERSION})"
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
