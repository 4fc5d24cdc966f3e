"""Dual-head self-supervised classifier over log-Mel input.

A small conv backbone pools to a low-level feature vector that feeds the
section-ID classifier; one extra conv block on the backbone's last feature map
pools to the high-level feature vector that feeds the attribute-group
classifier (and is the embedding used for anomaly scoring). The two
cross-entropy losses combine as ``w * id_loss + (1 - w) * group_loss``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import HmicError

# Input pixels (clips x n_mels x frames) per chunk of inference and of each
# training step: 12 clips at 128x63, 2 at 128x313. Per-clip forward cost (one
# BLAS thread, medians of 3) by clips per call was 4.9/3.5/2.3/2.4/2.5/3.3 ms
# for 1/2/4/8/12/32 clips at 128x63, and 13.8/10.5/11.9/17.3/24.0 ms for
# 1/2/4/8/32 clips at 128x313: past about 100k pixels each layer's temporaries
# outgrow the cache and the kernel spends its time zeroing fresh pages for
# them. A 32-clip training step in these chunks peaks at 20 MB (128x63) and
# 17 MB (128x313) under tracemalloc in float32 (39 and 33 MB in float64),
# against 101 and 506 MB as one float64 batch. Scoring
# (``pipeline._embeddings``) reads a machine's test clips one chunk at a time
# and gathers the float32 input of the clips it must embed into one chunk,
# so it holds about two chunks of log-Mels, not the test set.
_CHUNK_PIXELS = 100_000

# The network's compute dtype in training and scoring: float32 halves a step's
# time and its heap against float64. It is a fixed convention, not a setting.
# ``init_params`` still draws float64, so the finite-difference and other
# float64 oracles run the same code on float64 tensors; the forward runs in
# whatever dtype the parameters hold. Centre statistics, the checkpoint and
# the embedding cache stay float64, which holds every float32 value exactly.
NET_DTYPE = np.float32


class ModelError(HmicError, ValueError):
    """Invalid model configuration or input shape."""


@dataclass(frozen=True)
class ModelConfig:
    channels: tuple[int, int, int] = (8, 16, 64)
    head_channels: int = 64
    # Weight on the section-ID loss, in [0, 1]. The single-head ablations are
    # its endpoints: 1.0 trains domain_only, 0.0 attribute_only.
    id_loss_weight: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.id_loss_weight <= 1.0:
            raise ModelError(f"id_loss_weight must be in [0, 1], got {self.id_loss_weight}")
        if min(self.channels) < 1 or self.head_channels < 1:
            raise ModelError(f"channels {self.channels} and head_channels {self.head_channels} "
                             "must be >= 1")

    @property
    def feat_low_dim(self) -> int:
        return self.channels[-1]

    @property
    def feat_high_dim(self) -> int:
        return self.head_channels


@dataclass
class ModelParams:
    """Named parameter tensors and the config that lays them out. They are
    ``NET_DTYPE`` in training and scoring, float64 as ``init_params`` draws
    them; the forward and backward compute in the tensors' dtype."""

    tensors: dict[str, np.ndarray]
    config: ModelConfig

    def astype(self, dtype) -> ModelParams:
        """A copy with every tensor in ``dtype``."""
        return ModelParams({name: value.astype(dtype) for name, value in self.tensors.items()},
                           self.config)


@dataclass(frozen=True)
class LossBreakdown:
    loss_id: float
    loss_ag: float
    loss_total: float


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
    return ModelParams(tensors=tensors, config=config)


def _as_batch(x: np.ndarray, dtype) -> np.ndarray:
    x = np.asarray(x, dtype=dtype)
    if x.ndim != 4 or x.shape[1] != 1:
        raise ModelError(f"expected (B, 1, H, W) input, got shape {x.shape}")
    n_pools = 3
    if x.shape[2] < 2**n_pools or x.shape[3] < 2**n_pools:
        raise ModelError(f"input {x.shape[2]}x{x.shape[3]} too small for {n_pools} pool stages")
    return x


def _block(h: np.ndarray, t: dict, name: str, caches: dict | None, pool: bool = True):
    """Block ``name``: conv -> gain -> ReLU, then a 2x2 pool unless ``pool`` is
    false. Its backward caches go to ``caches[name]`` when ``caches`` is given;
    otherwise they die when the block returns, before the next block runs."""
    h, c_conv = nn.conv2d(h, t[f"{name}.w"], t[f"{name}.b"])
    h, c_scale = nn.channel_scale(h, t[f"{name}.g"])
    h, c_relu = nn.relu(h)
    h, c_pool = nn.avg_pool2(h) if pool else (h, None)
    if caches is not None:
        caches[name] = (c_conv, c_scale, c_relu, c_pool)
    return h


def _forward(params: ModelParams, x: np.ndarray, caches: dict | None = None):
    """The backbone's last feature map, which pools to the low-level feature,
    and the (B, d_h) high-level feature; fills ``caches`` for the backward
    pass when given."""
    t = params.tensors
    h = x
    for i in range(1, len(params.config.channels) + 1):
        h = _block(h, t, f"conv{i}", caches)
    feat_high, c_gap_high = nn.global_avg_pool(_block(h, t, "head", caches, pool=False))
    if caches is not None:
        caches["gap_high"] = c_gap_high
    return h, feat_high


def _chunk_clips(height: int, width: int) -> int:
    """Clips of ``(height, width)`` per chunk: about ``_CHUNK_PIXELS`` input
    pixels, and at least one clip."""
    return max(1, _CHUNK_PIXELS // (height * width))


def _chunks(n_clips: int, height: int, width: int) -> list[slice]:
    """Consecutive ``_chunk_clips`` slices of a batch of ``n_clips`` (height,
    width) clips. An empty batch still gives one slice, so inference on it
    yields (0, d) feature matrices."""
    step = _chunk_clips(height, width)
    return [slice(i, i + step) for i in range(0, n_clips or 1, step)]


def forward_features(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """The (B, d_h) high-level features of a (B, 1, H, W) batch: the
    embedding that scoring uses.

    The batch is cast to the parameters' dtype, and the features come out in
    that dtype; the low-level feature, which only training's section-ID head
    reads, is not pooled. The batch runs in chunks of about ``_CHUNK_PIXELS``
    input pixels and keeps no backward caches, so a chunk's heap peaks well
    under twice its largest temporary (conv2's column matrix); past that,
    glibc hands the heap back to the kernel after each chunk and the next one
    faults it in again. A clip's features do not depend on its chunk; only
    under 16 frames, where the head conv's per-clip GEMM has 16 pixel columns
    and OpenBLAS sums a GEMM of fewer than 32 in another order, may they move
    in the last bit.
    """
    x = _as_batch(x, params.tensors["conv1.w"].dtype)
    return np.concatenate([_forward(params, x[part])[1]
                           for part in _chunks(x.shape[0], *x.shape[2:])])


def loss_and_grads(
    params: ModelParams,
    x: np.ndarray,
    labels_id: np.ndarray,
    labels_ag: np.ndarray,
):
    """Forward + backward over the whole network for a (B, 1, H, W) batch.

    Returns (LossBreakdown, grads) where grads has one entry per parameter
    tensor. The loss is ``w * id + (1 - w) * ag`` with ``w`` the config's
    ``id_loss_weight``. Both losses backpropagate through the shared
    backbone; an endpoint weight of 0 or 1 zeroes the other path's gradient
    exactly.

    The batch runs in the chunks of ``forward_features``. The batch-mean
    cross-entropy is a sum over clips, so each chunk's loss and its gradients,
    scaled by the chunk's share b / B of the batch, add up to the batch's; a
    chunk's caches die before the next chunk runs. A batch of one chunk (any
    batch of at most ``_CHUNK_PIXELS`` pixels) computes bit for bit what one
    whole-batch pass would; more chunks move the gradients in the last bits.
    """
    x = _as_batch(x, params.tensors["conv1.w"].dtype)
    n_clips = x.shape[0]
    labels_id, labels_ag = np.asarray(labels_id), np.asarray(labels_ag)
    if n_clips == 0:
        raise ModelError("cannot take the loss of an empty batch")
    if labels_id.shape != (n_clips,) or labels_ag.shape != (n_clips,):
        raise ModelError(f"label shapes {labels_id.shape} and {labels_ag.shape} "
                         f"do not match a batch of {n_clips}")
    weight = params.config.id_loss_weight

    loss_id = loss_ag = 0.0
    grads: dict[str, np.ndarray] = {}
    for part in _chunks(n_clips, *x.shape[2:]):
        chunk = x[part]
        share = chunk.shape[0] / n_clips
        chunk_id, chunk_ag, chunk_grads = _chunk_loss_and_grads(
            params, chunk, labels_id[part], labels_ag[part],
            weight * share, (1.0 - weight) * share,
        )
        loss_id += share * chunk_id
        loss_ag += share * chunk_ag
        if not grads:
            grads = chunk_grads
        else:
            for name, grad in grads.items():
                grad += chunk_grads[name]
    total = weight * loss_id + (1.0 - weight) * loss_ag
    return LossBreakdown(loss_id=loss_id, loss_ag=loss_ag, loss_total=total), grads


def _chunk_loss_and_grads(params, x, labels_id, labels_ag, scale_id, scale_ag):
    """Both cross-entropies of one chunk, and the gradients of
    ``scale_id * id + scale_ag * ag``; every cache dies at return."""
    t = params.tensors
    cache: dict = {}
    h, feat_high = _forward(params, x, cache)
    feat_low, c_gap_low = nn.global_avg_pool(h)

    logits_id, c_lin_id = nn.linear(feat_low, t["cls_id.w"], t["cls_id.b"])
    logits_ag, c_lin_ag = nn.linear(feat_high, t["cls_ag.w"], t["cls_ag.b"])
    loss_id, dlogits_id = nn.softmax_cross_entropy(logits_id, labels_id)
    loss_ag, dlogits_ag = nn.softmax_cross_entropy(logits_ag, labels_ag)

    grads: dict[str, np.ndarray] = {}
    dfeat_low, grads["cls_id.w"], grads["cls_id.b"] = nn.linear_backward(
        scale_id * dlogits_id, c_lin_id
    )
    dfeat_high, grads["cls_ag.w"], grads["cls_ag.b"] = nn.linear_backward(
        scale_ag * dlogits_ag, c_lin_ag
    )

    c_hconv, c_hscale, c_hrelu, _ = cache["head"]
    dh = nn.global_avg_pool_backward(dfeat_high, cache["gap_high"])
    dh = nn.relu_backward(dh, c_hrelu)
    dh, grads["head.g"] = nn.channel_scale_backward(dh, c_hscale)
    dmap_head, grads["head.w"], grads["head.b"] = nn.conv2d_backward(dh, c_hconv)

    dmap = dmap_head + nn.global_avg_pool_backward(dfeat_low, c_gap_low)
    for i in range(len(params.config.channels), 0, -1):
        c_conv, c_scale, c_relu, c_pool = cache[f"conv{i}"]
        dmap = nn.avg_pool2_backward(dmap, c_pool)
        dmap = nn.relu_backward(dmap, c_relu)
        dmap, grads[f"conv{i}.g"] = nn.channel_scale_backward(dmap, c_scale)
        dmap, grads[f"conv{i}.w"], grads[f"conv{i}.b"] = nn.conv2d_backward(
            dmap, c_conv, need_dx=i > 1
        )

    return loss_id, loss_ag, grads
