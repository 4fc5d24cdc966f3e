"""Waveform-to-log-Mel front end, WAV I/O, and the on-disk feature cache.

Fixed conventions: 16 kHz mono 16-bit PCM input, 1024-sample frames with 50%
overlap (periodic Hann window, zero end-padding so a 10 s clip gives exactly
313 frames), 128 triangular mel filters on the HTK mel scale over 0..8 kHz,
natural log with a 1e-10 floor.
"""

from __future__ import annotations

import struct
import wave as wave_module
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"HMICFEA1"


class DspError(ValueError):
    """Invalid audio input or front-end configuration."""


@dataclass(frozen=True)
class DspConfig:
    sample_rate_hz: int = 16000
    frame_size: int = 1024
    hop: int = 512
    n_mels: int = 128
    f_min_hz: float = 0.0
    f_max_hz: float = 8000.0
    floor_epsilon: float = 1e-10
    standardize: bool = True  # per-clip zero-mean/unit-variance before the model


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise DspError(f"waveform must be 1-D, got shape {samples.shape}")
        if self.sample_rate_hz <= 0:
            raise DspError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise DspError("waveform contains non-finite samples")
        object.__setattr__(self, "samples", samples)


@dataclass(frozen=True)
class LogMelSpectrogram:
    values: np.ndarray  # (n_mels, n_frames)


def hz_to_mel(f_hz):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def stft_power(wave: Waveform, frame_size: int = 1024, hop: int | None = None) -> np.ndarray:
    """Power spectrogram, shape (frame_size/2 + 1, n_frames).

    n_frames = ceil(len/hop); the signal is zero-padded at the end so every
    hop position yields a full frame.
    """
    if hop is None:
        hop = frame_size // 2
    if frame_size % 2 != 0:
        raise DspError(f"frame_size must be even, got {frame_size}")
    if hop != frame_size // 2:
        raise DspError(f"hop must be frame_size/2 (50% overlap), got {hop}")
    samples = wave.samples
    if samples.size < 1:
        raise DspError("cannot transform an empty waveform")
    n_frames = -(-samples.size // hop)
    padded_len = (n_frames - 1) * hop + frame_size
    padded = np.zeros(padded_len, dtype=np.float64)
    padded[: samples.size] = samples
    frames = np.lib.stride_tricks.sliding_window_view(padded, frame_size)[::hop]
    frames = frames[:n_frames]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_size) / frame_size)
    spectrum = np.fft.rfft(frames * window, axis=1)
    power = (spectrum.real**2 + spectrum.imag**2).T
    return np.ascontiguousarray(power)


@lru_cache(maxsize=8)
def _build_filterbank(n_fft_bins, n_mels, sample_rate_hz, f_min_hz, f_max_hz):
    mel_lo = hz_to_mel(f_min_hz)
    mel_hi = hz_to_mel(f_max_hz)
    grid = np.linspace(mel_lo, mel_hi, n_mels + 2)
    spacing = (mel_hi - mel_lo) / (n_mels + 1)
    bin_freqs = np.arange(n_fft_bins) * (sample_rate_hz / 2.0) / (n_fft_bins - 1)
    bin_mels = hz_to_mel(bin_freqs)
    centres = grid[1:-1]
    weights = 1.0 - np.abs(bin_mels[None, :] - centres[:, None]) / spacing
    bank = np.maximum(weights, 0.0)
    empty = np.where(~bank.any(axis=1))[0]
    if empty.size:
        raise DspError(
            f"mel filters {empty.tolist()} have empty support; "
            f"reduce n_mels or widen the frequency range"
        )
    return bank


def mel_filterbank(
    n_fft_bins: int,
    n_mels: int,
    sample_rate_hz: int,
    f_min_hz: float = 0.0,
    f_max_hz: float | None = None,
) -> np.ndarray:
    """Triangular filterbank, linear on the mel scale; shape (n_mels, n_fft_bins).

    Filters are unnormalized triangles with unit peak on a uniform mel grid.
    """
    if f_max_hz is None:
        f_max_hz = sample_rate_hz / 2.0
    if n_mels < 1:
        raise DspError(f"n_mels must be >= 1, got {n_mels}")
    if n_fft_bins < 2:
        raise DspError(f"n_fft_bins must be >= 2, got {n_fft_bins}")
    if not (0.0 <= f_min_hz < f_max_hz <= sample_rate_hz / 2.0):
        raise DspError(
            f"need 0 <= f_min < f_max <= nyquist, got "
            f"f_min={f_min_hz}, f_max={f_max_hz}, sr={sample_rate_hz}"
        )
    return _build_filterbank(n_fft_bins, n_mels, sample_rate_hz, float(f_min_hz), float(f_max_hz))


def mel_centres_hz(n_mels: int, f_min_hz: float, f_max_hz: float) -> np.ndarray:
    """Centre frequency of each mel filter, in Hz."""
    grid = np.linspace(hz_to_mel(f_min_hz), hz_to_mel(f_max_hz), n_mels + 2)
    return mel_to_hz(grid[1:-1])


def log_mel(wave: Waveform, config: DspConfig = DspConfig()) -> LogMelSpectrogram:
    """log(max(filterbank @ power, floor)); (n_mels, n_frames), natural log."""
    if wave.sample_rate_hz != config.sample_rate_hz:
        raise DspError(
            f"sample rate mismatch: waveform has {wave.sample_rate_hz} Hz, "
            f"config expects {config.sample_rate_hz} Hz (resampling unsupported)"
        )
    power = stft_power(wave, config.frame_size, config.hop)
    bank = mel_filterbank(
        power.shape[0], config.n_mels, config.sample_rate_hz, config.f_min_hz, config.f_max_hz
    )
    values = np.log(np.maximum(bank @ power, config.floor_epsilon))
    return LogMelSpectrogram(values=values)


def standardize(values: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance over the whole matrix. Constant input maps to zeros."""
    values = np.asarray(values, dtype=np.float64)
    centred = values - values.mean()
    std = values.std()
    if std < 1e-12:
        return np.zeros_like(values)
    return centred / std


# --- WAV I/O (16-bit PCM mono) ---------------------------------------------


def read_wav_mono(path: str | Path) -> Waveform:
    path = Path(path)
    with wave_module.open(str(path), "rb") as handle:
        if handle.getnchannels() != 1:
            raise DspError(f"{path}: expected mono audio, got {handle.getnchannels()} channels")
        if handle.getsampwidth() != 2:
            raise DspError(f"{path}: expected 16-bit PCM, got {8 * handle.getsampwidth()}-bit")
        rate = handle.getframerate()
        raw = handle.readframes(handle.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return Waveform(samples=samples, sample_rate_hz=rate)


def write_wav_mono(path: str | Path, samples: np.ndarray, sample_rate_hz: int) -> None:
    samples = np.asarray(samples, dtype=np.float64)
    peak = np.max(np.abs(samples)) if samples.size else 0.0
    if peak > 1.0:
        raise DspError(f"{path}: samples exceed full scale (peak {peak:.3f})")
    pcm = np.round(samples * 32767.0).astype("<i2")
    with wave_module.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(sample_rate_hz)
        handle.writeframes(pcm.tobytes())


# --- feature cache -----------------------------------------------------------
# Little-endian raw f32 matrix behind a 16-byte header (magic, n_mels, n_frames).


def save_features(path: str | Path, values: np.ndarray) -> None:
    values = np.asarray(values)
    if values.ndim != 2:
        raise DspError(f"feature matrix must be 2-D, got shape {values.shape}")
    data = values.astype("<f4")
    header = FEATURE_MAGIC + struct.pack("<II", data.shape[0], data.shape[1])
    with Path(path).open("wb") as handle:
        handle.write(header)
        handle.write(data.tobytes())


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
