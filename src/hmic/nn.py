"""Float64 conv-net primitives with explicit backward passes.

Every forward function returns (output, cache); the matching backward takes
the upstream gradient and the cache and returns input/parameter gradients.
A backward may return None for an input gradient its caller does not need
(``conv2d_backward(..., need_dx=False)``, used for the first conv, whose input
is the log-Mel batch). Kept deliberately small so every gradient can be
finite-difference checked.

The 3x3 convolution has one formulation. ``_cols`` lays a channel-major batch
out as a (9C, B*H*W) column matrix, and the output, the weight gradient and the
input gradient are each one GEMM against such a matrix.
"""

from __future__ import annotations

import numpy as np


def _cols(x_cm: np.ndarray) -> np.ndarray:
    """Column matrix of a 3x3 same-padded conv: (C, B, H, W) -> (9C, B*H*W).

    Rows run in the (C, 3, 3) order of a weight's trailing axes: row
    9c + 3i + j is channel c shifted by tap (i, j), zero past the border.
    """
    C, B, H, W = x_cm.shape
    padded = np.pad(x_cm, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.empty((C, 3, 3, B, H, W), dtype=x_cm.dtype)
    for i, j in np.ndindex(3, 3):
        cols[:, i, j] = padded[:, :, i : i + H, j : j + W]
    return cols.reshape(9 * C, B * H * W)


def _conv_cm(x_cm: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The one conv GEMM: channel-major (C, B, H, W) in, (O, B, H, W) out."""
    O = w.shape[0]
    _, B, H, W = x_cm.shape
    return (w.reshape(O, -1) @ _cols(x_cm)).reshape(O, B, H, W)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """3x3 stride-1 convolution with same padding.

    x: (B, C, H, W), w: (O, C, 3, 3), b: (O,) -> out (B, O, H, W), a view of
    channel-major memory.
    """
    out = _conv_cm(x.transpose(1, 0, 2, 3), w)
    out += b[:, None, None, None]
    return out.transpose(1, 0, 2, 3), (x, w)


def conv2d_backward(dout: np.ndarray, cache, need_dx: bool = True):
    """Returns (dx, dw, db); dx is None when ``need_dx`` is false.

    dw = dout (O, B*H*W) @ cols(x).T. dx is the forward GEMM run on dout with
    the kernel flipped and its channel axes swapped.
    """
    x, w = cache
    B, O, H, W = dout.shape
    dout_cm = dout.transpose(1, 0, 2, 3)
    dw = (dout_cm.reshape(O, B * H * W) @ _cols(x.transpose(1, 0, 2, 3)).T).reshape(w.shape)
    db = dout.sum(axis=(0, 2, 3))
    if not need_dx:
        return None, dw, db
    dx = _conv_cm(dout_cm, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return dx.transpose(1, 0, 2, 3), dw, db


def channel_scale(x: np.ndarray, gain: np.ndarray):
    """Per-channel learnable gain (normalization-free stand-in for batch norm)."""
    return x * gain[None, :, None, None], (x, gain)


def channel_scale_backward(dout: np.ndarray, cache):
    x, gain = cache
    dx = dout * gain[None, :, None, None]
    dgain = (dout * x).sum(axis=(0, 2, 3))
    return dx, dgain


def relu(x: np.ndarray):
    return np.maximum(x, 0.0), (x > 0.0)


def relu_backward(dout: np.ndarray, mask):
    return dout * mask


def avg_pool2(x: np.ndarray):
    """2x2 average pooling, stride 2. Trailing odd rows/columns are dropped."""
    H, W = x.shape[2:]
    H2, W2 = H // 2, W // 2
    if H2 < 1 or W2 < 1:
        raise ValueError(f"input too small to pool: {x.shape}")
    c = x[:, :, : 2 * H2, : 2 * W2]
    out = c[:, :, 0::2, 0::2] + c[:, :, 0::2, 1::2]
    out += c[:, :, 1::2, 0::2] + c[:, :, 1::2, 1::2]
    out /= 4.0
    return out, (H, W)


def avg_pool2_backward(dout: np.ndarray, cache):
    H, W = cache
    B, C, H2, W2 = dout.shape
    dx = np.zeros((B, C, H, W), dtype=dout.dtype)
    quarter = dout / 4.0
    for i in range(2):
        for j in range(2):
            dx[:, :, i : 2 * H2 : 2, j : 2 * W2 : 2] = quarter
    return dx


def global_avg_pool(x: np.ndarray):
    """(B, C, H, W) -> (B, C)."""
    B, C, H, W = x.shape
    return x.mean(axis=(2, 3)), (H, W)


def global_avg_pool_backward(dout: np.ndarray, cache):
    H, W = cache
    return dout[:, :, None, None] * np.ones((1, 1, H, W), dtype=dout.dtype) / (H * W)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (B, D), w: (K, D), b: (K,) -> (B, K)."""
    return x @ w.T + b, (x, w)


def linear_backward(dout: np.ndarray, cache):
    x, w = cache
    dx = dout @ w
    dw = dout.T @ x
    db = dout.sum(axis=0)
    return dx, dw, db


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch, with the gradient wrt logits.

    Returns (loss, dlogits); dlogits already includes the 1/B factor.
    """
    labels = np.asarray(labels)
    B, K = logits.shape
    if labels.shape != (B,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {B}")
    if labels.min() < 0 or labels.max() >= K:
        raise ValueError(f"label out of range [0, {K}): {labels.min()}..{labels.max()}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    loss = float(-log_probs[np.arange(B), labels].mean())
    dlogits = np.exp(log_probs)
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    return loss, dlogits
