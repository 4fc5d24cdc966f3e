"""Seeded training loop: Adam with cosine learning-rate annealing.

Training runs in ``NET_DTYPE`` (float32): the weights, Adam's moments and
every array of a step. Only scalars (the learning rate, the losses and their
epoch sums) are float64.
Everything runs single-threaded over the optimizer state, so two runs with the
same seed and config produce bitwise-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HmicError
from .metadata import write_csv_rows
from .model import NET_DTYPE, ModelConfig, ModelParams, init_params, loss_and_grads


class TrainingError(HmicError, ValueError):
    pass


BATCH_SIZE = 32
LR_MAX = 1e-4  # the cosine schedule's first-epoch learning rate
LR_MIN = 1e-6  # and its last-epoch one
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    seed: int = 7

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise TrainingError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss_id: float
    loss_ag: float
    loss_total: float
    lr: float


def cosine_lr(epoch: int, total_epochs: int) -> float:
    """Anneal from LR_MAX (first epoch) to LR_MIN (last epoch).

    A Python float: an ``np.float64`` would promote every float32 Adam update
    to a float64 temporary under NumPy 2's promotion rules."""
    if total_epochs <= 1:
        return LR_MAX
    t = epoch / (total_epochs - 1)
    return float(LR_MIN + 0.5 * (LR_MAX - LR_MIN) * (1.0 + np.cos(np.pi * t)))


class AdamState:
    def __init__(self, tensors: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.step_count = 0

    def step(self, tensors, grads, lr):
        self.step_count += 1
        t = self.step_count
        for name, grad in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            tensors[name] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(
    features: np.ndarray,
    labels_id: np.ndarray,
    labels_ag: np.ndarray,
    n_sections: int,
    n_groups: int,
    model_config: ModelConfig,
    train_config: TrainConfig,
) -> tuple[ModelParams, list[EpochStats]]:
    """Train on normal clips only; returns final params and the per-epoch log.

    features: (N, 1, H, W) array of standardized log-Mel matrices; each batch
    is cast to ``NET_DTYPE``, and any other shape is refused. Mini-batches
    are a fresh uniform permutation each epoch. The loss weighs the two heads
    by ``model_config.id_loss_weight``.
    """
    if features.ndim != 4 or features.shape[1] != 1:
        raise TrainingError(f"expected (N, 1, H, W) features, got shape {features.shape}")
    n_clips = features.shape[0]
    if n_clips == 0:
        raise TrainingError("cannot train on an empty corpus")
    labels_id = np.asarray(labels_id)
    labels_ag = np.asarray(labels_ag)
    if labels_id.shape != (n_clips,) or labels_ag.shape != (n_clips,):
        raise TrainingError("label arrays must match the number of clips")
    if min(labels_id.min(), labels_ag.min()) < 0:
        raise TrainingError("labels must be >= 0")
    if labels_id.max() >= n_sections or labels_ag.max() >= n_groups:
        raise TrainingError("labels exceed the declared label-space sizes")

    init_rng = np.random.default_rng(np.random.SeedSequence([train_config.seed, 0]))
    batch_rng = np.random.default_rng(np.random.SeedSequence([train_config.seed, 1]))
    params = init_params(model_config, n_sections, n_groups, init_rng).astype(NET_DTYPE)
    adam = AdamState(params.tensors)

    log: list[EpochStats] = []
    for epoch in range(train_config.epochs):
        lr = cosine_lr(epoch, train_config.epochs)
        order = batch_rng.permutation(n_clips)
        sums = np.zeros(3)
        for batch, start in enumerate(range(0, n_clips, BATCH_SIZE)):
            idx = order[start : start + BATCH_SIZE]
            breakdown, grads = loss_and_grads(params, features[idx], labels_id[idx],
                                              labels_ag[idx])
            if not np.isfinite(breakdown.loss_total):
                raise TrainingError(
                    f"non-finite loss {breakdown.loss_total} at epoch {epoch}, batch {batch}"
                )
            adam.step(params.tensors, grads, lr)
            sums += len(idx) * np.array(
                [breakdown.loss_id, breakdown.loss_ag, breakdown.loss_total]
            )
        mean_id, mean_ag, mean_total = sums / n_clips
        log.append(
            EpochStats(
                epoch=epoch, loss_id=mean_id, loss_ag=mean_ag, loss_total=mean_total, lr=lr
            )
        )
    return params, log


def write_training_log(path, log: list[EpochStats]) -> None:
    write_csv_rows(path, ("epoch", "loss_id", "loss_ag", "loss_total", "lr"), (
        [row.epoch, *(f"{v:.12g}" for v in (row.loss_id, row.loss_ag, row.loss_total, row.lr))]
        for row in log))

