import io
import math
import re
import tracemalloc
import wave as wave_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmic import dsp
from hmic.dsp import (
    SAMPLE_RATE_HZ,
    DspError,
    hz_to_mel,
    load_features,
    log_mel,
    mel_filterbank,
    read_wav_mono,
    save_features,
    standardize,
    stft_power,
    write_wav_mono,
)
from hmic.metadata import read_manifest

from oracles import analytic_centres, dense_log_mel, dense_stft_power

SR = SAMPLE_RATE_HZ


def tone(freq, seconds=1.0, amp=0.5, sr=SR):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


class TestStftPower:
    def test_ten_second_clip_gives_313_frames(self):
        power = stft_power(np.zeros(160000))
        assert power.shape == (513, 313)

    def test_zero_waveform_gives_zero_power(self):
        power = stft_power(np.zeros(4096))
        assert np.all(power == 0.0)

    @pytest.mark.parametrize("position", [100, 511, 700])
    def test_windowed_impulse_is_flat_across_bins(self, position):
        # Direct DFT of a windowed impulse: |w[k] e^{-i w k}|^2 = w[k]^2 in every bin.
        samples = np.zeros(1024)
        samples[position] = 1.0
        power = stft_power(samples)
        expected = (0.5 - 0.5 * math.cos(2 * math.pi * position / 1024)) ** 2
        assert np.allclose(power[:, 0], expected, rtol=1e-9, atol=1e-12)

    def test_empty_waveform_is_error(self):
        with pytest.raises(DspError):
            stft_power(np.zeros(0))

    def test_hop_shift_moves_frames_one_column(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=5000)
        shifted = np.concatenate([np.zeros(512), samples])
        original = stft_power(samples)
        moved = stft_power(shifted)
        assert moved.shape[1] == original.shape[1] + 1
        np.testing.assert_array_equal(moved[:, 1:], original)


class TestMelFilterbank:
    def test_shape_and_nonnegativity(self):
        bank = mel_filterbank()
        assert bank.shape == (128, 513)
        assert np.all(bank >= 0.0)
        assert np.all(bank.any(axis=1))

    def test_rows_have_contiguous_support(self):
        bank = mel_filterbank()
        for row in bank:
            nz = np.nonzero(row)[0]
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))

    def test_mel_formula_anchor_points(self):
        # chosen scale: mel = 2595 log10(1 + f/700)
        assert hz_to_mel(0.0) == 0.0
        assert math.isclose(hz_to_mel(1000.0), 2595.0 * math.log10(1.0 + 1000.0 / 700.0))

    def test_centres_sit_on_uniform_mel_grid(self):
        # Each filter peaks on the FFT bin nearest, in mel, to its centre on
        # the uniform grid the formula gives.
        bin_mels = hz_to_mel(np.arange(513) * (SR / 2.0) / 512)
        centre_mels = hz_to_mel(analytic_centres(128, 0.0, 8000.0))
        nearest = np.abs(bin_mels[None, :] - centre_mels[:, None]).argmin(axis=1)
        assert np.array_equal(mel_filterbank().argmax(axis=1), nearest)


class TestLogMel:
    def test_ten_second_clip_is_128_by_313(self):
        rng = np.random.default_rng(1)
        spectrogram = log_mel(rng.normal(scale=0.05, size=160000))
        assert spectrogram.shape == (128, 313)
        assert np.all(np.isfinite(spectrogram))

    def test_silence_is_constant_floor(self):
        spectrogram = log_mel(np.zeros(SR))
        assert np.all(spectrogram == math.log(1e-10))

    # Bins below ~30 are narrower than one FFT bin at 16 kHz / 1024, so a tone
    # there can legitimately peak in a neighbouring filter; test bins that span
    # multiple FFT bins.
    @pytest.mark.parametrize("bin_index", [34, 48, 64, 90, 120])
    def test_pure_tone_localizes_to_nearest_mel_bin(self, bin_index):
        freq = analytic_centres(128, 0.0, 8000.0)[bin_index]
        spectrogram = log_mel(tone(freq))
        assert np.all(spectrogram.argmax(axis=0) == bin_index)

    def test_scaling_shifts_log_by_two_log_a(self):
        samples = tone(1000.0) + 0.01 * np.random.default_rng(2).normal(size=SR)
        base = log_mel(samples)
        scaled = log_mel(0.25 * samples)
        assert base.min() > math.log(1e-10) + 1.0  # everything well above the floor
        np.testing.assert_allclose(scaled, base + 2.0 * math.log(0.25), rtol=0, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=3000))
    def test_any_length_yields_finite_output(self, length):
        spectrogram = log_mel(np.ones(length) * 0.1)
        assert np.all(np.isfinite(spectrogram))
        assert spectrogram.shape[1] == -(-length // 512)


# Around one and two frames and one hop, a few hops, and 2 s and 10 s clips.
EDGE_LENGTHS = [1, 100, 511, 512, 513, 1023, 1024, 1025, 1536, 2047, 2048, 2049, 5000,
                32000, 160000]


def noise(length, seed=0):
    return np.random.default_rng(seed).normal(scale=0.05, size=length)


def assert_cached_log_mel_matches_dense(samples):
    np.testing.assert_array_equal(log_mel(samples).astype(np.float32),
                                  dense_log_mel(samples).astype(np.float32))


class TestDenseOracle:
    """The blocked STFT and the banded mel product against the dense formula:
    the power bit for bit, and the float32 log-Mel the cache stores bit for bit."""

    @pytest.mark.parametrize("length", EDGE_LENGTHS)
    def test_edge_lengths_match_bit_for_bit(self, length):
        samples = noise(length)
        np.testing.assert_array_equal(stft_power(samples), dense_stft_power(samples))
        assert_cached_log_mel_matches_dense(samples)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=2**32))
    def test_any_length_matches_bit_for_bit(self, length, seed):
        samples = noise(length, seed)
        np.testing.assert_array_equal(stft_power(samples), dense_stft_power(samples))
        assert_cached_log_mel_matches_dense(samples)

    def test_every_tiny_corpus_clip_matches_bit_for_bit(self, tiny_corpus):
        root, manifest = tiny_corpus
        for entry in read_manifest(manifest):
            path = root / entry.path
            assert_cached_log_mel_matches_dense(read_wav_mono(path.read_bytes(), path))

    def test_bands_hold_every_filterbank_weight_once(self):
        bank = mel_filterbank()
        rebuilt = np.zeros_like(bank)
        for rows, bins, block in dsp._mel_bands():
            assert not block.flags.writeable
            assert not rebuilt[rows, bins].any()
            rebuilt[rows, bins] = block
        np.testing.assert_array_equal(rebuilt, bank)

    def test_log_mel_of_a_ten_second_clip_peaks_under_5_mb(self):
        # The dense formula's temporaries (padded signal, windowed frames,
        # spectrum, squares, a transposed copy) peaked at 6.4 MB; 32-frame
        # blocks into one power array peak near 2.1 MB.
        samples = noise(160000)
        log_mel(samples)  # builds the cached filterbank and bands
        tracemalloc.start()
        try:
            log_mel(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5e6, f"peak {peak / 1e6:.2f} MB"


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(3)
        x = standardize(rng.normal(size=(16, 20)) * 5 + 3)
        assert abs(x.mean()) < 1e-12
        assert abs(x.std() - 1.0) < 1e-12

    def test_constant_input_maps_to_zeros(self):
        assert np.all(standardize(np.full((4, 4), 7.0)) == 0.0)


def pcm_wav(channels=1, rate=SR, frames=64, pcm=None):
    """Bytes of a 16-bit WAV of ``pcm`` frames, or of ``frames`` silent ones."""
    buffer = io.BytesIO()
    with wave_module.open(buffer, "wb") as handle:
        handle.setnchannels(channels)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(b"\x00\x00" * channels * frames if pcm is None else pcm.tobytes())
    return buffer.getvalue()


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        samples = np.clip(rng.normal(scale=0.2, size=2048), -0.9, 0.9)
        path = tmp_path / "clip.wav"
        write_wav_mono(path, samples)
        with wave_module.open(str(path), "rb") as handle:
            assert handle.getframerate() == SR
        decoded = read_wav_mono(path.read_bytes(), path)
        assert decoded.dtype == np.float64 and decoded.shape == samples.shape
        # quantization plus the 32767/32768 scale asymmetry
        np.testing.assert_allclose(decoded, samples, atol=6.0 / 65536)

    def test_every_pcm_value_decodes_to_itself_over_32768(self):
        pcm = np.arange(-32768, 32768, dtype="<i2")
        decoded = read_wav_mono(pcm_wav(pcm=pcm), "all.wav")
        np.testing.assert_array_equal(decoded, pcm.astype(np.float64) / 32768.0)

    def test_a_wav_with_no_samples_is_refused_naming_it(self):
        with pytest.raises(DspError, match="^corpus/a.wav: WAV holds no samples$"):
            read_wav_mono(pcm_wav(frames=0), "corpus/a.wav")

    def test_stereo_rejected(self):
        with pytest.raises(DspError, match="mono"):
            read_wav_mono(pcm_wav(channels=2), "stereo.wav")

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_other_sample_rate_is_refused_naming_the_clip(self, rate):
        with pytest.raises(DspError, match=f"corpus/a.wav: sampled at {rate} Hz"):
            read_wav_mono(pcm_wav(rate=rate), "corpus/a.wav")

    @pytest.mark.parametrize(
        "fault", ["not_riff", "truncated_header", "truncated_data", "empty"]
    )
    def test_unreadable_file_is_dsp_error_naming_it(self, fault):
        data = pcm_wav()
        faulty = {"not_riff": b"JUNK" + data[4:], "truncated_header": data[:20],
                  "truncated_data": data[:-3], "empty": b""}
        with pytest.raises(DspError, match="clip.wav"):
            read_wav_mono(faulty[fault], "clip.wav")

    def test_bad_bytes_error_carries_the_given_name(self):
        with pytest.raises(DspError, match="corpus/a.wav"):
            read_wav_mono(b"not a wav file", "corpus/a.wav")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5000))
    def test_the_header_gives_the_log_mel_shape(self, tmp_path_factory, length):
        path = tmp_path_factory.mktemp("header") / "clip.wav"
        write_wav_mono(path, np.full(length, 0.25))
        samples = read_wav_mono(path.read_bytes(), path)
        assert dsp.log_mel_shape(path) == log_mel(samples).shape

    @pytest.mark.parametrize("fault", ["stereo", "rate", "no_samples", "not_riff",
                                       "truncated_header"])
    def test_the_header_is_refused_with_the_message_of_read_wav_mono(self, tmp_path, fault):
        data = {"stereo": pcm_wav(channels=2), "rate": pcm_wav(rate=8000),
                "no_samples": pcm_wav(frames=0), "not_riff": b"JUNK" + pcm_wav()[4:],
                "truncated_header": pcm_wav()[:20]}[fault]
        path = tmp_path / "clip.wav"
        path.write_bytes(data)
        with pytest.raises(DspError) as from_samples:
            read_wav_mono(data, path)
        with pytest.raises(DspError) as from_header:
            dsp.log_mel_shape(path)
        assert str(from_header.value) == str(from_samples.value)
        assert str(from_header.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("read", [dsp.read_clip, dsp.log_mel_shape])
    def test_a_missing_clip_is_one_message_naming_it(self, tmp_path, read):
        path = tmp_path / "gone.wav"
        with pytest.raises(DspError, match=f"^{re.escape(str(path))}: cannot read clip \\("):
            read(path)

    def test_overrange_samples_rejected(self, tmp_path):
        with pytest.raises(DspError, match="full scale"):
            write_wav_mono(tmp_path / "x.wav", np.array([1.5]))


class TestFeatureCache:
    def test_roundtrip_preserves_f32_exactly(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(128, 63)).astype(np.float32)
        path = tmp_path / "clip.feat"
        save_features(path, values)
        np.testing.assert_array_equal(load_features(path), values)

    @pytest.mark.parametrize("layout", ["float64", "fortran"])
    def test_the_entry_holds_the_f32_bytes_of_any_layout(self, tmp_path, layout):
        values = np.random.default_rng(6).normal(size=(5, 7))
        given = values if layout == "float64" else np.asfortranarray(values.astype(np.float32))
        path = tmp_path / "clip.feat"
        save_features(path, given)
        assert path.read_bytes()[16:] == values.astype("<f4").tobytes()

    def test_save_replaces_the_entry_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "clip.feat"
        save_features(path, np.zeros((4, 4), dtype=np.float32))
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        save_features(path, values)
        np.testing.assert_array_equal(load_features(path), values)
        assert [p.name for p in tmp_path.iterdir()] == ["clip.feat"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOTAFEAT" + b"\x00" * 32)
        with pytest.raises(DspError, match="not a feature cache"):
            load_features(path)

    def test_truncated_rejected(self, tmp_path):
        values = np.zeros((4, 4), dtype=np.float32)
        path = tmp_path / "trunc.feat"
        save_features(path, values)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DspError, match="truncated"):
            load_features(path)
