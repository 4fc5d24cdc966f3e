"""Run configuration: one dataclass tying the pipeline stages together.

The semantic digest covers exactly the fields that determine checkpoint
content (front end, model, training, centre fitting, ablation, seed); scoring
mode and the pAUC fraction are score/eval-time knobs and excluded, so one
checkpoint serves both scoring variants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .checkpoint import config_digest, from_dict, to_dict
from .dsp import DspConfig
from .model import ABLATIONS, ModelConfig
from .scoring import COVARIANCE_MODES
from .training import TrainConfig

SCORING_MODES = ("agc", "dc")
_SCORE_TIME_FIELDS = ("scoring_mode", "pauc_p", "jobs")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    dsp: DspConfig = field(default_factory=DspConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    ablation: str = "hmic"
    covariance_mode: str = "per_group"
    shrinkage: float | None = None  # absolute diagonal shrinkage override
    shrinkage_rel: float = 1e-3  # trace-scaled shrinkage factor when no override
    scoring_mode: str = "agc"
    pauc_p: float = 0.1
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if self.covariance_mode not in COVARIANCE_MODES:
            raise ConfigError(f"unknown covariance mode {self.covariance_mode!r}")
        if self.scoring_mode not in SCORING_MODES:
            raise ConfigError(f"unknown scoring mode {self.scoring_mode!r}")
        if not 0.0 < self.pauc_p <= 1.0:
            raise ConfigError(f"pauc_p must be in (0, 1], got {self.pauc_p}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")

    def semantic_dict(self) -> dict:
        """The sub-config that determines what a trained checkpoint contains."""
        return {k: v for k, v in to_dict(self).items() if k not in _SCORE_TIME_FIELDS}

    def semantic_digest(self) -> str:
        return config_digest(self.semantic_dict())

    def with_overrides(
        self,
        seed: int | None = None,
        jobs: int | None = None,
        scoring_mode: str | None = None,
        ablation: str | None = None,
        pauc_p: float | None = None,
    ) -> "RunConfig":
        config = self
        if seed is not None:
            config = replace(config, train=replace(config.train, seed=seed))
        if jobs is not None:
            config = replace(config, jobs=jobs)
        if scoring_mode is not None:
            config = replace(config, scoring_mode=scoring_mode)
        if ablation is not None:
            config = replace(config, ablation=ablation)
        if pauc_p is not None:
            config = replace(config, pauc_p=pauc_p)
        return config


def load_run_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return from_dict(RunConfig, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc


def save_run_config(config: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(to_dict(config), indent=2, sort_keys=True), encoding="utf-8")
