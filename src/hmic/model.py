"""Dual-head self-supervised classifier over log-Mel input.

A small conv backbone pools to a low-level feature vector that feeds the
section-ID classifier; one extra conv block on the backbone's last feature map
pools to the high-level feature vector that feeds the attribute-group
classifier (and is the embedding used for anomaly scoring). The two
cross-entropy losses combine as ``w * id_loss + (1 - w) * group_loss``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn

ABLATIONS = ("hmic", "domain_only", "attribute_only")


class ModelError(ValueError):
    """Invalid model configuration or input shape."""


@dataclass(frozen=True)
class ModelConfig:
    channels: tuple[int, int, int] = (8, 16, 64)
    head_channels: int = 64
    id_loss_weight: float = 0.5  # weight on the section-ID loss, in [0, 1]
    id_loss_weight_by_machine: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.id_loss_weight <= 1.0:
            raise ModelError(f"id_loss_weight must be in [0, 1], got {self.id_loss_weight}")

    @property
    def feat_low_dim(self) -> int:
        return self.channels[-1]

    @property
    def feat_high_dim(self) -> int:
        return self.head_channels

    def weight_for(self, machine_type: str) -> float:
        return float(self.id_loss_weight_by_machine.get(machine_type, self.id_loss_weight))


@dataclass
class ModelParams:
    """Named float64 parameter tensors plus the label-space sizes they serve."""

    tensors: dict[str, np.ndarray]
    config: ModelConfig
    n_sections: int
    n_groups: int

    def copy(self) -> "ModelParams":
        return ModelParams(
            tensors={k: v.copy() for k, v in self.tensors.items()},
            config=self.config,
            n_sections=self.n_sections,
            n_groups=self.n_groups,
        )


@dataclass(frozen=True)
class FeaturePair:
    feat_low: np.ndarray  # (B, d_l)
    feat_high: np.ndarray  # (B, d_h)


@dataclass(frozen=True)
class LossBreakdown:
    loss_id: float
    loss_ag: float
    loss_total: float


def effective_id_weight(id_loss_weight: float, ablation: str) -> float:
    """Single-head ablations are endpoint settings of the mixing weight."""
    if ablation == "hmic":
        return id_loss_weight
    if ablation == "domain_only":
        return 1.0
    if ablation == "attribute_only":
        return 0.0
    raise ModelError(f"unknown ablation {ablation!r}; expected one of {ABLATIONS}")


def init_params(
    config: ModelConfig, n_sections: int, n_groups: int, rng: np.random.Generator
) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights and biases; unit gains."""
    if n_sections < 1 or n_groups < 1:
        raise ModelError(f"need >= 1 section and group, got {n_sections}, {n_groups}")

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    tensors: dict[str, np.ndarray] = {}
    in_ch = 1
    for i, out_ch in enumerate(config.channels, start=1):
        fan_in = in_ch * 9
        tensors[f"conv{i}.w"] = uniform((out_ch, in_ch, 3, 3), fan_in)
        tensors[f"conv{i}.b"] = uniform((out_ch,), fan_in)
        tensors[f"conv{i}.g"] = np.ones(out_ch)
        in_ch = out_ch
    fan_in = in_ch * 9
    tensors["head.w"] = uniform((config.head_channels, in_ch, 3, 3), fan_in)
    tensors["head.b"] = uniform((config.head_channels,), fan_in)
    tensors["head.g"] = np.ones(config.head_channels)
    tensors["cls_id.w"] = uniform((n_sections, config.feat_low_dim), config.feat_low_dim)
    tensors["cls_id.b"] = uniform((n_sections,), config.feat_low_dim)
    tensors["cls_ag.w"] = uniform((n_groups, config.feat_high_dim), config.feat_high_dim)
    tensors["cls_ag.b"] = uniform((n_groups,), config.feat_high_dim)
    return ModelParams(tensors=tensors, config=config, n_sections=n_sections, n_groups=n_groups)


def _as_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[None, None]
    elif x.ndim == 3:
        x = x[:, None]
    if x.ndim != 4 or x.shape[1] != 1:
        raise ModelError(f"expected (B, 1, H, W) input, got shape {x.shape}")
    n_pools = 3
    if x.shape[2] < 2**n_pools or x.shape[3] < 2**n_pools:
        raise ModelError(f"input {x.shape[2]}x{x.shape[3]} too small for {n_pools} pool stages")
    return x


def _forward(params: ModelParams, x: np.ndarray):
    t = params.tensors
    caches = []
    h = x
    for i in range(1, len(params.config.channels) + 1):
        h, c_conv = nn.conv2d(h, t[f"conv{i}.w"], t[f"conv{i}.b"])
        h, c_scale = nn.channel_scale(h, t[f"conv{i}.g"])
        h, c_relu = nn.relu(h)
        h, c_pool = nn.avg_pool2(h)
        caches.append((c_conv, c_scale, c_relu, c_pool))
    backbone_map = h
    feat_low, c_gap_low = nn.global_avg_pool(backbone_map)
    hh, c_hconv = nn.conv2d(backbone_map, t["head.w"], t["head.b"])
    hh, c_hscale = nn.channel_scale(hh, t["head.g"])
    hh, c_hrelu = nn.relu(hh)
    feat_high, c_gap_high = nn.global_avg_pool(hh)
    cache = {
        "blocks": caches,
        "gap_low": c_gap_low,
        "head": (c_hconv, c_hscale, c_hrelu),
        "gap_high": c_gap_high,
    }
    return FeaturePair(feat_low=feat_low, feat_high=feat_high), cache


def forward_features(params: ModelParams, x: np.ndarray) -> FeaturePair:
    """Deterministic inference-mode feature extraction.

    Accepts a single (H, W) matrix or a (B, 1, H, W) / (B, H, W) batch.
    """
    pair, _ = _forward(params, _as_batch(x))
    return pair


def classify(params: ModelParams, features: FeaturePair) -> tuple[np.ndarray, np.ndarray]:
    """Linear logits for both heads; no softmax applied."""
    t = params.tensors
    logits_id, _ = nn.linear(features.feat_low, t["cls_id.w"], t["cls_id.b"])
    logits_ag, _ = nn.linear(features.feat_high, t["cls_ag.w"], t["cls_ag.b"])
    return logits_id, logits_ag


def loss(
    logits_id: np.ndarray,
    logits_ag: np.ndarray,
    labels_id: np.ndarray,
    labels_ag: np.ndarray,
    id_loss_weight: float,
) -> LossBreakdown:
    """Weighted sum of the two cross-entropy losses."""
    if not 0.0 <= id_loss_weight <= 1.0:
        raise ModelError(f"id_loss_weight must be in [0, 1], got {id_loss_weight}")
    loss_id, _ = nn.softmax_cross_entropy(logits_id, labels_id)
    loss_ag, _ = nn.softmax_cross_entropy(logits_ag, labels_ag)
    total = id_loss_weight * loss_id + (1.0 - id_loss_weight) * loss_ag
    return LossBreakdown(loss_id=loss_id, loss_ag=loss_ag, loss_total=total)


def loss_and_grads(
    params: ModelParams,
    x: np.ndarray,
    labels_id: np.ndarray,
    labels_ag: np.ndarray,
    id_loss_weight: float,
):
    """Forward + backward over the whole network.

    Returns (LossBreakdown, grads) where grads has one entry per parameter
    tensor. Both losses backpropagate through the shared backbone; an endpoint
    weight of 0 or 1 zeroes the other path's gradient exactly.
    """
    if not 0.0 <= id_loss_weight <= 1.0:
        raise ModelError(f"id_loss_weight must be in [0, 1], got {id_loss_weight}")
    x = _as_batch(x)
    t = params.tensors
    features, cache = _forward(params, x)

    logits_id, c_lin_id = nn.linear(features.feat_low, t["cls_id.w"], t["cls_id.b"])
    logits_ag, c_lin_ag = nn.linear(features.feat_high, t["cls_ag.w"], t["cls_ag.b"])
    loss_id, dlogits_id = nn.softmax_cross_entropy(logits_id, labels_id)
    loss_ag, dlogits_ag = nn.softmax_cross_entropy(logits_ag, labels_ag)
    breakdown = LossBreakdown(
        loss_id=loss_id,
        loss_ag=loss_ag,
        loss_total=id_loss_weight * loss_id + (1.0 - id_loss_weight) * loss_ag,
    )

    grads: dict[str, np.ndarray] = {}
    dfeat_low, grads["cls_id.w"], grads["cls_id.b"] = nn.linear_backward(
        id_loss_weight * dlogits_id, c_lin_id
    )
    dfeat_high, grads["cls_ag.w"], grads["cls_ag.b"] = nn.linear_backward(
        (1.0 - id_loss_weight) * dlogits_ag, c_lin_ag
    )

    c_hconv, c_hscale, c_hrelu = cache["head"]
    dh = nn.global_avg_pool_backward(dfeat_high, cache["gap_high"])
    dh = nn.relu_backward(dh, c_hrelu)
    dh, grads["head.g"] = nn.channel_scale_backward(dh, c_hscale)
    dmap_head, grads["head.w"], grads["head.b"] = nn.conv2d_backward(dh, c_hconv)

    dmap = dmap_head + nn.global_avg_pool_backward(dfeat_low, cache["gap_low"])
    for i in range(len(params.config.channels), 0, -1):
        c_conv, c_scale, c_relu, c_pool = cache["blocks"][i - 1]
        dmap = nn.avg_pool2_backward(dmap, c_pool)
        dmap = nn.relu_backward(dmap, c_relu)
        dmap, grads[f"conv{i}.g"] = nn.channel_scale_backward(dmap, c_scale)
        dmap, grads[f"conv{i}.w"], grads[f"conv{i}.b"] = nn.conv2d_backward(dmap, c_conv)

    return breakdown, grads
