"""Conv-net primitives with explicit backward passes, generic in dtype.

Every forward function returns (output, cache); the matching backward takes
the upstream gradient and the cache and returns input/parameter gradients.
Each allocates in its input's dtype and scales only by Python floats, so a
float32 network stays float32 and a float64 one, as the gradient checks use,
stays float64.
A backward may return None for an input gradient its caller does not need
(``conv2d_backward(..., need_dx=False)``, used for the first conv, whose input
is the log-Mel batch). Kept deliberately small so every gradient can be
finite-difference checked.

The 3x3 convolution has one formulation. ``_cols`` lays a channel-major batch
out as a (9C, B*H*W) column matrix; the output and the weight gradient are each
one GEMM against ``_cols(x)``. The input gradient is the transpose of the
forward: one GEMM gives a (9C, B*H*W) column gradient, and col2im adds its nine
taps back onto a padded channel-major image.

Every array keeps the NCHW shape (B, C, H, W) at the interfaces, but the conv
output, both pools' input gradients and everything elementwise computed from
them hold channel-major (C, B, H, W) memory behind that shape. So the
channel-major view that a GEMM needs costs no copy, forward or backward.
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


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """3x3 stride-1 convolution with same padding.

    x: (B, C, H, W), w: (O, C, 3, 3), b: (O,) -> out (B, O, H, W), a view of
    channel-major memory.
    """
    O = w.shape[0]
    B, _, H, W = x.shape
    out = (w.reshape(O, -1) @ _cols(x.transpose(1, 0, 2, 3))).reshape(O, B, H, W)
    out += b[:, None, None, None]
    return out.transpose(1, 0, 2, 3), (x, w)


def conv2d_backward(dout: np.ndarray, cache, need_dx: bool = True):
    """Returns (dx, dw, db); dx is None when ``need_dx`` is false.

    dw = dout (O, B*H*W) @ cols(x).T. dx is col2im of w(O, 9C).T @ dout: a
    (9C, B*H*W) column gradient whose nine taps add into a zero-padded
    channel-major image, returned as an NCHW view of its interior.
    """
    x, w = cache
    B, O, H, W = dout.shape
    C = w.shape[1]
    dout_cm = dout.transpose(1, 0, 2, 3).reshape(O, B * H * W)  # a view when channel-major
    dw = (dout_cm @ _cols(x.transpose(1, 0, 2, 3)).T).reshape(w.shape)
    db = dout.sum(axis=(0, 2, 3))
    if not need_dx:
        return None, dw, db
    dcols = (w.reshape(O, 9 * C).T @ dout_cm).reshape(C, 3, 3, B, H, W)
    padded = np.zeros((C, B, H + 2, W + 2), dtype=dcols.dtype)
    for i, j in np.ndindex(3, 3):
        padded[:, :, i : i + H, j : j + W] += dcols[:, i, j]
    return padded[:, :, 1 : H + 1, 1 : W + 1].transpose(1, 0, 2, 3), dw, db


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
    dx = np.zeros((C, B, H, W), dtype=dout.dtype)
    quarter = dout.transpose(1, 0, 2, 3) / 4.0
    for i in range(2):
        for j in range(2):
            dx[:, :, i : 2 * H2 : 2, j : 2 * W2 : 2] = quarter
    return dx.transpose(1, 0, 2, 3)


def global_avg_pool(x: np.ndarray):
    """(B, C, H, W) -> (B, C)."""
    B, C, H, W = x.shape
    return x.mean(axis=(2, 3)), (H, W)


def global_avg_pool_backward(dout: np.ndarray, cache):
    H, W = cache
    B, C = dout.shape
    dx = np.empty((C, B, H, W), dtype=dout.dtype)
    dx[...] = (dout.T / (H * W))[:, :, None, None]
    return dx.transpose(1, 0, 2, 3)


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
