"""Seeded training loop (Adam + cosine learning-rate annealing) and gradient checking.

Everything runs in float64 single-threaded over the optimizer state, so two
runs with the same seed and config produce bitwise-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelConfig, ModelParams, effective_id_weight, init_params, loss_and_grads


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-4
    lr_min: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 7


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss_id: float
    loss_ag: float
    loss_total: float
    lr: float


def cosine_lr(epoch: int, total_epochs: int, lr_max: float, lr_min: float) -> float:
    """Anneal from lr_max (first epoch) to lr_min (last epoch)."""
    if total_epochs <= 1:
        return lr_max
    t = epoch / (total_epochs - 1)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + np.cos(np.pi * t))


class AdamState:
    def __init__(self, tensors: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.step_count = 0

    def step(self, tensors, grads, lr, beta1, beta2, eps):
        self.step_count += 1
        t = self.step_count
        for name, grad in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            tensors[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)


def train(
    features: np.ndarray,
    labels_id: np.ndarray,
    labels_ag: np.ndarray,
    n_sections: int,
    n_groups: int,
    model_config: ModelConfig = ModelConfig(),
    train_config: TrainConfig = TrainConfig(),
    ablation: str = "hmic",
    id_loss_weight: float | None = None,
) -> tuple[ModelParams, list[EpochStats]]:
    """Train on normal clips only; returns final params and the per-epoch log.

    features: (N, 1, H, W) or (N, H, W) float array of standardized log-Mel
    matrices. Mini-batches are a fresh uniform permutation each epoch.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 3:
        features = features[:, None]
    n_clips = features.shape[0]
    if n_clips == 0:
        raise TrainingError("cannot train on an empty corpus")
    labels_id = np.asarray(labels_id)
    labels_ag = np.asarray(labels_ag)
    if labels_id.shape != (n_clips,) or labels_ag.shape != (n_clips,):
        raise TrainingError("label arrays must match the number of clips")
    if labels_id.max() >= n_sections or labels_ag.max() >= n_groups:
        raise TrainingError("labels exceed the declared label-space sizes")

    weight = model_config.id_loss_weight if id_loss_weight is None else id_loss_weight
    weight = effective_id_weight(weight, ablation)

    init_rng = np.random.default_rng(np.random.SeedSequence([train_config.seed, 0]))
    batch_rng = np.random.default_rng(np.random.SeedSequence([train_config.seed, 1]))
    params = init_params(model_config, n_sections, n_groups, init_rng)
    adam = AdamState(params.tensors)

    log: list[EpochStats] = []
    for epoch in range(train_config.epochs):
        lr = cosine_lr(epoch, train_config.epochs, train_config.learning_rate, train_config.lr_min)
        order = batch_rng.permutation(n_clips)
        sums = np.zeros(3)
        for start in range(0, n_clips, train_config.batch_size):
            idx = order[start : start + train_config.batch_size]
            breakdown, grads = loss_and_grads(
                params, features[idx], labels_id[idx], labels_ag[idx], weight
            )
            adam.step(
                params.tensors,
                grads,
                lr,
                train_config.beta1,
                train_config.beta2,
                train_config.adam_eps,
            )
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


def gradient_check(
    params: ModelParams,
    x: np.ndarray,
    labels_id: np.ndarray,
    labels_ag: np.ndarray,
    id_loss_weight: float,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central finite-difference gradients.

    Perturbs every element of every parameter tensor, so keep this to
    micro-configurations.
    """

    def total_loss() -> float:
        breakdown, _ = loss_and_grads(params, x, labels_id, labels_ag, id_loss_weight)
        return breakdown.loss_total

    _, analytic = loss_and_grads(params, x, labels_id, labels_ag, id_loss_weight)
    worst = 0.0
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            up = total_loss()
            flat[i] = original - eps
            down = total_loss()
            flat[i] = original
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(grad_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(grad_flat[i] - numeric) / denom)
    return worst
