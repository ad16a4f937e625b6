"""Evaluation toolkit for anomalous sound detection without machine identity.

Scores each test recording against every machine's scorer, aggregates by
minimum, and quantifies what identity-free operation costs: normalized
detection degradation alongside implicit machine identification accuracy.
Includes exact AUC/pAUC metrics, reference-based scorers, a synthetic
cluster simulator, and a CLI with reproducible file formats.
"""

from .io import TOOL_VERSION as __version__
from .metrics import (
    AVERAGING_MODES,
    MetricError,
    aggregate,
    auc,
    delta_norm,
    normalize_id_accuracy,
    pauc,
)
from .protocol import (
    EvalConfig,
    EvalReport,
    IdentificationStats,
    MachineMetrics,
    MergedTestSet,
    ModeResult,
    ProtocolError,
    Recording,
    ScoreMatrix,
    evaluate_known,
    evaluate_unknown,
    full_report,
    merge_test_sets,
)
from .scorers import (
    NormalizerSpec,
    ReferenceSet,
    ScorerError,
    ScorerSpec,
    build_score_matrix,
    scoring_function,
)
from .simulate import (
    DEFAULT_REPEATS,
    DEFAULT_SCORER,
    DEFAULT_SEPARATIONS,
    SimConfig,
    SimError,
    SweepPoint,
    generate,
    run_point,
    simplex_centers,
    sweep,
)

__all__ = [
    "__version__",
    "AVERAGING_MODES",
    "MetricError",
    "aggregate",
    "auc",
    "delta_norm",
    "normalize_id_accuracy",
    "pauc",
    "EvalConfig",
    "EvalReport",
    "IdentificationStats",
    "MachineMetrics",
    "MergedTestSet",
    "ModeResult",
    "ProtocolError",
    "Recording",
    "ScoreMatrix",
    "evaluate_known",
    "evaluate_unknown",
    "full_report",
    "merge_test_sets",
    "NormalizerSpec",
    "ReferenceSet",
    "ScorerError",
    "ScorerSpec",
    "build_score_matrix",
    "scoring_function",
    "DEFAULT_REPEATS",
    "DEFAULT_SCORER",
    "DEFAULT_SEPARATIONS",
    "SimConfig",
    "SimError",
    "SweepPoint",
    "generate",
    "run_point",
    "simplex_centers",
    "sweep",
]
