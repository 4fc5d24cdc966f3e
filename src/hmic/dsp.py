"""Audio-to-log-Mel front end, WAV I/O at the fixed rate, and the on-disk feature cache.

The front end is the DCASE 2022 Task 2 one, fixed as the constants below:
16 kHz mono 16-bit PCM input, 1024-sample frames with 50% overlap (periodic
Hann window, zero end-padding so a 10 s clip gives exactly 313 frames), 128
triangular mel filters on the HTK mel scale over 0..8 kHz, natural log with a
1e-10 floor. The model sees each log-Mel standardized per clip. Audio is a
1-D float64 array at SAMPLE_RATE_HZ; ``read_wav_mono`` refuses any other rate.

``stft_power`` windows frames straight from the signal, zero-padding only a
block that runs past its end, and transforms them in blocks; ``log_mel``
applies the filterbank, 1.5 % non-zero, in row bands cut to the bins their
filters touch. The power, and the float32 log-Mel the cache stores, equal the
dense formula's in tests/oracles.py bit for bit (the float64 band sums may
move in the last bit).
"""

from __future__ import annotations

import io
import struct
import wave as wave_module
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from .atomic import replacing
from .errors import HmicError

FEATURE_MAGIC = b"HMICFEA1"

SAMPLE_RATE_HZ = 16000
FRAME_SIZE = 1024
N_MELS = 128
F_MIN_HZ = 0.0
F_MAX_HZ = 8000.0
FLOOR_EPSILON = 1e-10

# One BLAS thread: in blocks of 16, 32, 64 and 128 frames stft_power took 1.74,
# 1.58, 2.03 and 2.62 ms per 10 s clip (0.36, 0.34, 0.35 and 0.57 ms per 2 s
# clip), and log_mel on a 10 s clip peaked at 1.7, 2.1, 3.0 and 4.4 MB.
_STFT_BLOCK_FRAMES = 32
# The mel product took 0.27 ms per 10 s clip in 16 row bands (8: 0.30, 32: 0.33,
# dense: 0.92 ms).
_MEL_BANDS = 16

_HANN_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_SIZE) / FRAME_SIZE)  # periodic
_HANN_WINDOW.flags.writeable = False


class DspError(HmicError, ValueError):
    """Invalid audio input."""


def hz_to_mel(f_hz):
    """HTK mel scale: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f_hz, dtype=np.float64) / 700.0)


def _n_frames(n_samples: int) -> int:
    """STFT frames of ``n_samples`` samples: ceil(n_samples / hop), hop
    FRAME_SIZE/2; the signal is zero-padded at the end so every hop position
    yields a full frame."""
    return -(-n_samples // (FRAME_SIZE // 2))


def stft_power(samples: np.ndarray) -> np.ndarray:
    """Power spectrogram of 1-D audio, shape (FRAME_SIZE/2 + 1, n_frames), hop
    FRAME_SIZE/2: the transpose of a frame-major array, a view.
    """
    hop = FRAME_SIZE // 2
    if samples.size < 1:
        raise DspError("cannot transform empty audio")
    n_frames = _n_frames(samples.size)
    power = np.empty((n_frames, FRAME_SIZE // 2 + 1))
    windowed = np.empty((_STFT_BLOCK_FRAMES, FRAME_SIZE))
    for first in range(0, n_frames, _STFT_BLOCK_FRAMES):
        out = power[first : first + _STFT_BLOCK_FRAMES]
        span = (len(out) - 1) * hop + FRAME_SIZE
        signal = samples[first * hop : first * hop + span]
        if signal.size < span:  # the block runs past the end: window a zero-padded copy
            signal = np.concatenate([signal, np.zeros(span - signal.size)])
        frames = np.lib.stride_tricks.sliding_window_view(signal, FRAME_SIZE)[::hop]
        spectrum = np.fft.rfft(np.multiply(frames, _HANN_WINDOW, out=windowed[: len(out)]), axis=1)
        np.square(spectrum.real, out=out)
        out += np.square(spectrum.imag, out=spectrum.imag)
    return power.T


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


@lru_cache(maxsize=1)
def _mel_bands() -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """``mel_filterbank()`` in _MEL_BANDS row bands, each cut to the FFT bins
    its filters touch: (rows, bins, the bank's read-only view)."""
    bank, step = mel_filterbank(), -(-N_MELS // _MEL_BANDS)
    bands = []
    for rows in (slice(lo, lo + step) for lo in range(0, N_MELS, step)):
        touched = np.flatnonzero(bank[rows].any(axis=0))
        bins = slice(touched[0], touched[-1] + 1)
        bands.append((rows, bins, bank[rows, bins]))
    return tuple(bands)


def log_mel(samples: np.ndarray) -> np.ndarray:
    """log(max(filterbank @ power, floor)) of audio at SAMPLE_RATE_HZ;
    (N_MELS, n_frames), natural log."""
    power = stft_power(samples)
    mel = np.empty((N_MELS, power.shape[1]))
    for rows, bins, block in _mel_bands():
        np.matmul(block, power[bins], out=mel[rows])
    return np.log(np.maximum(mel, FLOOR_EPSILON, out=mel), out=mel)


def standardize(values: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance over the whole matrix. Constant input maps to zeros."""
    values = np.asarray(values, dtype=np.float64)
    centred = values - values.mean()
    std = values.std()
    if std < 1e-12:
        return np.zeros_like(values)
    return centred / std


# --- WAV I/O (16-bit PCM mono) ---------------------------------------------


def read_clip(path: Path) -> bytes:
    """The bytes of the clip file at ``path``; a file that cannot be read
    raises DspError."""
    with _reading(path):
        return path.read_bytes()


def log_mel_shape(path: Path) -> tuple[int, int]:
    """(N_MELS, n_frames) of the log-Mel of the WAV file at ``path``, from its
    header alone: no sample is read. Raises DspError as ``read_wav_mono`` does
    on a header it refuses, or when the file cannot be read."""
    with _reading(path), wave_module.open(str(path), "rb") as handle:
        return N_MELS, _n_frames(_header_samples(handle, path))


def read_wav_mono(data: bytes, name: str | Path) -> np.ndarray:
    """The float64 samples of a WAV file's bytes; ``name`` labels every error.
    A truncated, empty or non-WAV input, or one not 16-bit mono at
    SAMPLE_RATE_HZ, raises DspError."""
    with _reading(name), wave_module.open(io.BytesIO(data), "rb") as handle:
        n_samples = _header_samples(handle, name)
        raw = handle.readframes(n_samples)
    if len(raw) != 2 * n_samples:
        raise DspError(f"{name}: truncated WAV (have {len(raw)} of {2 * n_samples} data bytes)")
    return np.multiply(np.frombuffer(raw, dtype="<i2"), 1.0 / 32768.0)  # exact: 2**-15


@contextmanager
def _reading(name: str | Path):
    """Raises a failure to read the clip ``name`` as one DspError naming it."""
    try:
        yield
    except (EOFError, wave_module.Error) as exc:
        raise DspError(f"{name}: cannot read WAV ({exc})") from None
    except OSError as exc:
        raise DspError(f"{name}: cannot read clip ({exc.strerror or exc})") from None


def _header_samples(handle: wave_module.Wave_read, name: str | Path) -> int:
    """The sample count an open WAV's header declares, once the header is
    checked to be 16-bit mono at SAMPLE_RATE_HZ with at least one sample."""
    channels, width = handle.getnchannels(), handle.getsampwidth()
    if channels != 1:
        raise DspError(f"{name}: expected mono audio, got {channels} channels")
    if width != 2:
        raise DspError(f"{name}: expected 16-bit PCM, got {8 * width}-bit")
    rate, n_samples = handle.getframerate(), handle.getnframes()
    if rate != SAMPLE_RATE_HZ:
        raise DspError(f"{name}: sampled at {rate} Hz, the front end takes "
                       f"{SAMPLE_RATE_HZ} Hz (resampling unsupported)")
    if n_samples == 0:
        raise DspError(f"{name}: WAV holds no samples")
    return n_samples


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
    data = np.ascontiguousarray(values, dtype="<f4")
    if data.ndim != 2:
        raise DspError(f"feature matrix must be 2-D, got shape {data.shape}")
    with replacing(path) as handle:
        handle.write(FEATURE_MAGIC + struct.pack("<II", data.shape[0], data.shape[1]))
        handle.write(data)


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
