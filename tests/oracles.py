"""Reference implementations the tests check the package against.

None of these is on the pipeline's path: the finite-difference gradient
oracle, the mel-grid centres written straight from the HTK formula, the
dense front end the blocked ``dsp.stft_power`` and banded ``dsp.log_mel``
must reproduce, and a parser for DCASE-style clip filenames (the package
reads clip identity from ``manifest.csv``, never from a name).
"""

import math
from pathlib import Path

import numpy as np

from hmic.dsp import FLOOR_EPSILON, FRAME_SIZE, mel_filterbank
from hmic.errors import HmicError
from hmic.metadata import CONDITIONS, DOMAINS, SPLITS, ClipMeta
from hmic.model import ModelParams, loss_and_grads
from hmic.training import TrainingError


def gradient_check(
    params: ModelParams,
    x: np.ndarray,
    labels_id: np.ndarray,
    labels_ag: np.ndarray,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central finite-difference
    gradients of the loss ``loss_and_grads`` takes of the (B, 1, H, W) batch
    ``x``, weighted by ``params.config.id_loss_weight``.

    Perturbs every element of every parameter tensor, so keep this to
    micro-configurations. The tensors must be float64: a step of ``eps`` is
    below float32's resolution near 1.
    """
    for name, tensor in params.tensors.items():
        if tensor.dtype != np.float64:
            raise TrainingError(f"gradient_check needs float64 parameters, "
                                f"{name} is {tensor.dtype}")

    def total_loss() -> float:
        breakdown, _ = loss_and_grads(params, x, labels_id, labels_ag)
        return breakdown.loss_total

    _, analytic = loss_and_grads(params, x, labels_id, labels_ag)
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


def analytic_centres(n_mels, f_min, f_max):
    """Oracle mel-grid centres computed straight from the formula."""
    lo = 2595.0 * math.log10(1.0 + f_min / 700.0)
    hi = 2595.0 * math.log10(1.0 + f_max / 700.0)
    grid = np.linspace(lo, hi, n_mels + 2)[1:-1]
    return 700.0 * (10.0 ** (grid / 2595.0) - 1.0)


def dense_stft_power(samples):
    """Power spectrogram, (FRAME_SIZE/2 + 1, n_frames): the whole signal
    zero-padded to ceil(len/hop) full frames, windowed, one rfft of every
    frame, then re^2 + im^2."""
    hop = FRAME_SIZE // 2
    n_frames = -(-samples.size // hop)
    padded = np.zeros((n_frames - 1) * hop + FRAME_SIZE)
    padded[: samples.size] = samples
    frames = np.lib.stride_tricks.sliding_window_view(padded, FRAME_SIZE)[::hop]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_SIZE) / FRAME_SIZE)
    spectrum = np.fft.rfft(frames * window, axis=1)
    return np.ascontiguousarray((spectrum.real**2 + spectrum.imag**2).T)


def dense_log_mel(samples):
    """log(max(bank @ power, floor)) with the whole (N_MELS, 513) filterbank."""
    return np.log(np.maximum(mel_filterbank() @ dense_stft_power(samples), FLOOR_EPSILON))


class FilenameParseError(HmicError, ValueError):
    """A clip filename does not follow the DCASE-style naming convention."""


def parse_dcase_filename(filename: str, machine_type: str = "unknown") -> ClipMeta:
    """Parse ``section_<SS>_<domain>_<split>_<condition>_<idx>_<name>_<value>_... .wav``.

    Attribute tokens must come in name/value pairs; the parsed attribute pairs are
    canonically sorted, so token order in the filename is irrelevant.
    """
    name = Path(filename).name
    if not name.endswith(".wav"):
        raise FilenameParseError(f"expected a .wav filename, got {name!r}")
    stem = name[: -len(".wav")]
    tokens = stem.split("_")
    if len(tokens) < 6:
        raise FilenameParseError(f"too few tokens in {name!r}")
    if tokens[0] != "section":
        raise FilenameParseError(f"expected leading 'section', got {tokens[0]!r}")
    if not tokens[1].isdigit():
        raise FilenameParseError(f"bad section token {tokens[1]!r} in {name!r}")
    section_id = int(tokens[1])
    domain, split, condition, idx = tokens[2], tokens[3], tokens[4], tokens[5]
    if domain not in DOMAINS:
        raise FilenameParseError(f"bad domain token {domain!r} in {name!r}")
    if split not in SPLITS:
        raise FilenameParseError(f"bad split token {split!r} in {name!r}")
    condition = {"anomaly": "anomalous"}.get(condition, condition)
    if condition not in CONDITIONS:
        raise FilenameParseError(f"bad condition token {tokens[4]!r} in {name!r}")
    if not idx.isdigit():
        raise FilenameParseError(f"bad index token {idx!r} in {name!r}")
    attr_tokens = tokens[6:]
    if len(attr_tokens) % 2 != 0:
        raise FilenameParseError(
            f"odd attribute token count in {name!r}: trailing {attr_tokens[-1]!r}"
        )
    for tok in attr_tokens:
        if not tok:
            raise FilenameParseError(f"empty attribute token in {name!r}")
    pairs = tuple(zip(attr_tokens[0::2], attr_tokens[1::2]))
    try:
        return ClipMeta(
            clip_id=stem,
            machine_type=machine_type,
            section_id=section_id,
            domain=domain,
            split=split,
            condition=condition,
            attributes=pairs,
        )
    except ValueError as exc:
        raise FilenameParseError(f"{name!r}: {exc}") from exc
