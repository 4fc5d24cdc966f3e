"""Audio-to-log-Mel front end, WAV I/O at the fixed rate, and the on-disk feature cache.

The front end is the DCASE 2022 Task 2 one, fixed as the constants below:
16 kHz mono 16-bit PCM input, 1024-sample frames with 50% overlap (periodic
Hann window, zero end-padding so a 10 s clip gives exactly 313 frames), 128
triangular mel filters on the HTK mel scale over 0..8 kHz, natural log with a
1e-10 floor. The model sees each log-Mel standardized per clip. Audio is a
1-D float64 array at SAMPLE_RATE_HZ; ``read_wav_mono`` refuses any other rate.
"""

from __future__ import annotations

import io
import os
import struct
import threading
import wave as wave_module
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import HmicError

FEATURE_MAGIC = b"HMICFEA1"

SAMPLE_RATE_HZ = 16000
FRAME_SIZE = 1024
N_MELS = 128
F_MIN_HZ = 0.0
F_MAX_HZ = 8000.0
FLOOR_EPSILON = 1e-10


class DspError(HmicError, ValueError):
    """Invalid audio input."""


def hz_to_mel(f_hz):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def stft_power(samples: np.ndarray) -> np.ndarray:
    """Power spectrogram of 1-D audio, shape (FRAME_SIZE/2 + 1, n_frames), hop
    FRAME_SIZE/2.

    n_frames = ceil(len/hop); the signal is zero-padded at the end so every
    hop position yields a full frame.
    """
    hop = FRAME_SIZE // 2
    if samples.size < 1:
        raise DspError("cannot transform empty audio")
    n_frames = -(-samples.size // hop)
    padded_len = (n_frames - 1) * hop + FRAME_SIZE
    padded = np.zeros(padded_len, dtype=np.float64)
    padded[: samples.size] = samples
    frames = np.lib.stride_tricks.sliding_window_view(padded, FRAME_SIZE)[::hop]
    frames = frames[:n_frames]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_SIZE) / FRAME_SIZE)
    spectrum = np.fft.rfft(frames * window, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2).T
    return np.ascontiguousarray(power)


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """Triangular filterbank, linear on the mel scale; shape (N_MELS, FRAME_SIZE/2 + 1).

    Filters are unnormalized triangles with unit peak on a uniform mel grid.
    """
    n_fft_bins = FRAME_SIZE // 2 + 1
    grid = np.linspace(hz_to_mel(F_MIN_HZ), hz_to_mel(F_MAX_HZ), N_MELS + 2)
    spacing = (grid[-1] - grid[0]) / (N_MELS + 1)
    bin_mels = hz_to_mel(np.arange(n_fft_bins) * (SAMPLE_RATE_HZ / 2.0) / (n_fft_bins - 1))
    weights = 1.0 - np.abs(bin_mels[None, :] - grid[1:-1, None]) / spacing
    bank = np.maximum(weights, 0.0)
    bank.flags.writeable = False  # the cache hands this one array to every caller
    return bank


def log_mel(samples: np.ndarray) -> np.ndarray:
    """log(max(filterbank @ power, floor)) of audio at SAMPLE_RATE_HZ;
    (N_MELS, n_frames), natural log."""
    return np.log(np.maximum(mel_filterbank() @ stft_power(samples), FLOOR_EPSILON))


def standardize(values: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance over the whole matrix. Constant input maps to zeros."""
    values = np.asarray(values, dtype=np.float64)
    centred = values - values.mean()
    std = values.std()
    if std < 1e-12:
        return np.zeros_like(values)
    return centred / std


# --- WAV I/O (16-bit PCM mono) ---------------------------------------------


def read_wav_mono(data: bytes, name: str | Path) -> np.ndarray:
    """The float64 samples of a WAV file's bytes; ``name`` labels every error.
    A truncated or non-WAV input, or one not 16-bit mono at SAMPLE_RATE_HZ,
    raises DspError."""
    try:
        with wave_module.open(io.BytesIO(data), "rb") as handle:
            channels, width = handle.getnchannels(), handle.getsampwidth()
            if channels != 1:
                raise DspError(f"{name}: expected mono audio, got {channels} channels")
            if width != 2:
                raise DspError(f"{name}: expected 16-bit PCM, got {8 * width}-bit")
            rate, n_samples = handle.getframerate(), handle.getnframes()
            if rate != SAMPLE_RATE_HZ:
                raise DspError(f"{name}: sampled at {rate} Hz, the front end takes "
                               f"{SAMPLE_RATE_HZ} Hz (resampling unsupported)")
            raw = handle.readframes(n_samples)
    except (EOFError, wave_module.Error) as exc:
        raise DspError(f"{name}: cannot read WAV ({exc})") from None
    if len(raw) != 2 * n_samples:
        raise DspError(f"{name}: truncated WAV (have {len(raw)} of {2 * n_samples} data bytes)")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def write_wav_mono(path: str | Path, samples: np.ndarray) -> None:
    """Write 1-D audio in [-1, 1] as a 16-bit mono WAV at SAMPLE_RATE_HZ."""
    samples = np.asarray(samples, dtype=np.float64)
    peak = np.max(np.abs(samples)) if samples.size else 0.0
    if peak > 1.0:
        raise DspError(f"{path}: samples exceed full scale (peak {peak:.3f})")
    pcm = np.round(samples * 32767.0).astype("<i2")
    with wave_module.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(SAMPLE_RATE_HZ)
        handle.writeframes(pcm.tobytes())


# --- feature cache -----------------------------------------------------------
# Little-endian raw f32 matrix behind a 16-byte header (magic, n_mels, n_frames).


def save_features(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values)
    if values.ndim != 2:
        raise DspError(f"feature matrix must be 2-D, got shape {values.shape}")
    data = values.astype("<f4")
    header = FEATURE_MAGIC + struct.pack("<II", data.shape[0], data.shape[1])
    _write_entry(Path(path), header, data.tobytes())


def _write_entry(path: Path, *parts: bytes) -> None:
    """Write a cache entry: a sibling temp file, named per process and thread,
    renamed over the entry, so no reader sees, and no crash leaves, a
    half-written one."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with tmp.open("wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_features(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != FEATURE_MAGIC:
        raise DspError(f"{path}: not a feature cache file")
    n_mels, n_frames = struct.unpack("<II", raw[8:16])
    expected = 16 + 4 * n_mels * n_frames
    if len(raw) != expected:
        raise DspError(f"{path}: truncated feature cache (have {len(raw)}, want {expected})")
    flat = np.frombuffer(raw, dtype="<f4", offset=16)
    return flat.reshape(n_mels, n_frames).copy()
