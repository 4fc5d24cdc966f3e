"""Anomalous-sound detection with hierarchical metadata constraints.

Self-supervised dual-head classification (section IDs constrain a low-level
feature, attribute groups a high-level one) with anomaly scores from the
minimum Mahalanobis distance to attribute-group centres.
"""

from .config import RunConfig
from .dsp import log_mel
from .evaluation import EvalReport, ScoredClip, auc, build_report, harmonic_total
from .metadata import ClipMeta, LabelSpace, assign_labels, build_label_space
from .model import LossBreakdown, ModelConfig, ModelParams, forward_features
from .scoring import CentreModel, fit_agc, fit_dc, mahalanobis, score_agc, score_dc
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "CentreModel",
    "ClipMeta",
    "EvalReport",
    "LabelSpace",
    "LossBreakdown",
    "ModelConfig",
    "ModelParams",
    "RunConfig",
    "ScoredClip",
    "TrainConfig",
    "assign_labels",
    "auc",
    "build_label_space",
    "build_report",
    "fit_agc",
    "fit_dc",
    "forward_features",
    "harmonic_total",
    "log_mel",
    "mahalanobis",
    "score_agc",
    "score_dc",
    "train",
]
