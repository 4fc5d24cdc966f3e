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
from .model import NET_DTYPE, ModelConfig, ModelParams, init_params, loss_and_grads


class TrainingError(HmicError, ValueError):
    pass


LR_MIN = 1e-6  # the cosine schedule's last-epoch learning rate
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-4
    seed: int = 7

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise TrainingError(f"epochs {self.epochs} and batch_size {self.batch_size} "
                                "must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss_id: float
    loss_ag: float
    loss_total: float
    lr: float


def cosine_lr(epoch: int, total_epochs: int, lr_max: float, lr_min: float) -> float:
    """Anneal from lr_max (first epoch) to lr_min (last epoch).

    A Python float: an ``np.float64`` would promote every float32 Adam update
    to a float64 temporary under NumPy 2's promotion rules."""
    if total_epochs <= 1:
        return lr_max
    t = epoch / (total_epochs - 1)
    return float(lr_min + 0.5 * (lr_max - lr_min) * (1.0 + np.cos(np.pi * t)))


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
    model_config: ModelConfig = ModelConfig(),
    train_config: TrainConfig = TrainConfig(),
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
        lr = cosine_lr(epoch, train_config.epochs, train_config.learning_rate, LR_MIN)
        order = batch_rng.permutation(n_clips)
        sums = np.zeros(3)
        for batch, start in enumerate(range(0, n_clips, train_config.batch_size)):
            idx = order[start : start + train_config.batch_size]
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
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("epoch,loss_id,loss_ag,loss_total,lr\n")
        for row in log:
            handle.write(
                f"{row.epoch},{row.loss_id:.12g},{row.loss_ag:.12g},"
                f"{row.loss_total:.12g},{row.lr:.12g}\n"
            )

