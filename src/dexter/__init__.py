"""Sequential out-of-distribution detection for trajectory streams.

The package provides:

* AR(p) correlated-noise generation with splice-at-injection semantics
  (:mod:`dexter.ar_noise`)
* natively implemented Cartpole/Acrobot dynamics and the ARTS/ARNO/ARNS
  noise-injection scenarios (:mod:`dexter.environments`)
* the windowed time-series feature catalogue (:mod:`dexter.ts_features`)
* a from-scratch isolation forest (:mod:`dexter.isolation_forest`)
* the detector itself plus its CUSUM decision rule (:mod:`dexter.detector`,
  :mod:`dexter.cusum`)
* simplified baseline detectors (:mod:`dexter.baselines`)
* metrics and the experiment harness (:mod:`dexter.evaluation`)
* a reproducible CLI (``dexter generate | train | evaluate | bench``)
"""

__version__ = "0.1.0"

from .ar_noise import (
    ARProcessSpec,
    CorrelationMode,
    NoiseMatrix,
    generate_matrix,
    generate_series,
    spliced_matrix,
    spliced_series,
)
from .cusum import CusumDetector, CusumMonitor
from .detector import DexterModel, ScoreSeries, calibrate, detect_online, score_stream, train
from .environments import (
    BaseEnv,
    Episode,
    PolicyKind,
    Scenario,
    ScenarioConfig,
    builtin_policy,
    run_episode,
)
from .evaluation import (
    EpisodeCounts,
    ExperimentResult,
    LabeledScoreSet,
    TrainedDetector,
    auroc,
    auroc_raw,
    detection_time,
    run_experiment,
)
from .ts_features import FEATURE_COUNT, FEATURE_NAMES

__all__ = [
    "ARProcessSpec",
    "BaseEnv",
    "CorrelationMode",
    "CusumDetector",
    "CusumMonitor",
    "DexterModel",
    "Episode",
    "EpisodeCounts",
    "ExperimentResult",
    "FEATURE_COUNT",
    "FEATURE_NAMES",
    "LabeledScoreSet",
    "NoiseMatrix",
    "PolicyKind",
    "Scenario",
    "ScenarioConfig",
    "ScoreSeries",
    "TrainedDetector",
    "auroc",
    "auroc_raw",
    "builtin_policy",
    "calibrate",
    "detect_online",
    "detection_time",
    "generate_matrix",
    "generate_series",
    "run_episode",
    "run_experiment",
    "score_stream",
    "spliced_matrix",
    "spliced_series",
    "train",
    "__version__",
]
