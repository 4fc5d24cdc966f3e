"""Float64 conv-net primitives with explicit backward passes.

Every forward function returns (output, cache); the matching backward takes
the upstream gradient and the cache and returns input/parameter gradients.
A backward may return None for an input gradient its caller does not need
(``conv2d_backward(..., need_dx=False)``, used for the first conv, whose input
is the log-Mel batch). Kept deliberately small so every gradient can be
finite-difference checked.
"""

from __future__ import annotations

import numpy as np

_WIN = np.lib.stride_tricks.sliding_window_view


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """3x3 stride-1 convolution with same padding.

    x: (B, C, H, W), w: (O, C, 3, 3), b: (O,) -> out (B, O, H, W).
    """
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    windows = _WIN(padded, (3, 3), axis=(2, 3))
    out = np.einsum("bchwij,ocij->bohw", windows, w, optimize=True)
    out += b[None, :, None, None]
    return out, (x, w)


def conv2d_backward(dout: np.ndarray, cache, need_dx: bool = True):
    """Returns (dx, dw, db); dx is None when ``need_dx`` is false.

    dw is one GEMM per tap, dout (O, B*H*W) @ shifted input (C, B*H*W).T,
    which never materialises the 9x window copy of the input.
    """
    x, w = cache
    B, O, H, W = dout.shape
    C = x.shape[1]
    # Channel-major operands: each tap is then a (C, B*H*W) reshape of a slice.
    dout_cm = dout.transpose(1, 0, 2, 3).reshape(O, B * H * W)
    padded_cm = np.pad(x.transpose(1, 0, 2, 3), ((0, 0), (0, 0), (1, 1), (1, 1)))
    dw = np.empty_like(w)
    for i in range(3):
        for j in range(3):
            tap = padded_cm[:, :, i : i + H, j : j + W].reshape(C, B * H * W)
            dw[:, :, i, j] = dout_cm @ tap.T
    db = dout.sum(axis=(0, 2, 3))
    if not need_dx:
        return None, dw, db
    dout_padded = np.pad(dout, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dout_windows = _WIN(dout_padded, (3, 3), axis=(2, 3))
    flipped = w[:, :, ::-1, ::-1]
    dx = np.einsum("bohwij,ocij->bchw", dout_windows, flipped, optimize=True)
    return dx, dw, db


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


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


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
