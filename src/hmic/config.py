"""Run configuration: one dataclass tying the pipeline stages together.

The semantic digest covers exactly the fields that determine checkpoint
content (model, training, seed); the scoring mode, the pAUC fraction and the
worker count are score/eval-time knobs and excluded, so one checkpoint serves
both scoring variants. The single-head ablations are the endpoints 1.0
(domain_only) and 0.0 (attribute_only) of ``model.id_loss_weight``. The front
end, the centre shrinkage and ``training``'s ``BATCH_SIZE``, Adam constants and
cosine schedule (``LR_MAX`` to ``LR_MIN``) are fixed conventions, not settings;
so is the source-domain noise floor, ``datagen.NOISE_AMP_SOURCE``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .checkpoint import config_digest, from_dict, to_dict
from .errors import HmicError
from .model import ModelConfig
from .training import TrainConfig

SCORING_MODES = ("agc", "dc")
_SCORE_TIME_FIELDS = ("scoring_mode", "pauc_p", "jobs")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    scoring_mode: str = "agc"
    pauc_p: float = 0.1
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.scoring_mode not in SCORING_MODES:
            raise HmicError(f"unknown scoring mode {self.scoring_mode!r}")
        if not 0.0 < self.pauc_p <= 1.0:
            raise HmicError(f"pauc_p must be in (0, 1], got {self.pauc_p}")
        if self.jobs < 1:
            raise HmicError(f"jobs must be >= 1, got {self.jobs}")

    def semantic_digest(self) -> str:
        """Digest of the sub-config that determines what a trained checkpoint contains."""
        return config_digest({k: v for k, v in to_dict(self).items()
                              if k not in _SCORE_TIME_FIELDS})

    def with_overrides(
        self,
        seed: int | None = None,
        jobs: int | None = None,
        scoring_mode: str | None = None,
        pauc_p: float | None = None,
    ) -> "RunConfig":
        config = self
        if seed is not None:
            config = replace(config, train=replace(config.train, seed=seed))
        if jobs is not None:
            config = replace(config, jobs=jobs)
        if scoring_mode is not None:
            config = replace(config, scoring_mode=scoring_mode)
        if pauc_p is not None:
            config = replace(config, pauc_p=pauc_p)
        return config


def load_run_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError
        raise HmicError(f"cannot read config {path}: {exc}") from exc
    try:
        return from_dict(RunConfig, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise HmicError(f"bad config {path}: {exc}") from exc
