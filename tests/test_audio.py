import functools
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import singersep
from singersep import synth
from singersep.audio import (
    Waveform,
    _polyphase_kernels,
    quantize_pcm16,
    read_wav,
    resample,
    segment,
    write_wav,
)
from singersep.errors import (
    InvalidWaveformError,
    MalformedWavError,
    UnsupportedEncodingError,
)

from conftest import write_float32_wav


def _pcm16_file(path, ints, rate=8000, channels=1):
    payload = np.asarray(ints, dtype="<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, channels, rate,
        rate * 2 * channels, 2 * channels, 16,
        b"data", len(payload))
    path.write_bytes(header + payload)
    return path


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        path = _pcm16_file(tmp_path / "s.wav", [0, 16384])
        w = read_wav(path)
        assert w.sample_rate == 8000
        assert abs(w.samples[0] - 0.0) <= 1 / 32767
        assert abs(w.samples[1] - 0.5) <= 1 / 32767

    def test_stereo_averaged_to_mono(self, tmp_path):
        # one frame: left full scale, right zero
        path = _pcm16_file(tmp_path / "st.wav", [32767, 0], channels=2)
        w = read_wav(path)
        assert len(w) == 1
        assert abs(w.samples[0] - 0.5) <= 1 / 32767

    def test_float32_payload(self, tmp_path):
        path = write_float32_wav(tmp_path / "f.wav", [0.25, -0.75], rate=44100)
        w = read_wav(path)
        assert w.sample_rate == 44100
        np.testing.assert_allclose(w.samples, [0.25, -0.75], atol=1e-7)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(MalformedWavError):
            read_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad2.wav"
        path.write_bytes(b"OggS" + b"\x00" * 64)
        with pytest.raises(MalformedWavError):
            read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        header = struct.pack(
            "<4sI4s4sIHHIIHH",
            b"RIFF", 24, b"WAVE",
            b"fmt ", 16, 1, 1, 8000, 16000, 2, 16)
        path = tmp_path / "nodata.wav"
        path.write_bytes(header)
        with pytest.raises(MalformedWavError):
            read_wav(path)

    def test_compressed_format_rejected(self, tmp_path):
        payload = b"\x00\x00"
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 6, 1, 8000, 8000, 1, 8,  # a-law
            b"data", len(payload))
        path = tmp_path / "alaw.wav"
        path.write_bytes(header + payload)
        with pytest.raises(UnsupportedEncodingError):
            read_wav(path)

    def test_pcm24_rejected(self, tmp_path):
        payload = b"\x00" * 6
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, 1, 1, 8000, 24000, 3, 24,
            b"data", len(payload))
        path = tmp_path / "p24.wav"
        path.write_bytes(header + payload)
        with pytest.raises(UnsupportedEncodingError):
            read_wav(path)

    @pytest.mark.parametrize("chunks, message", [
        # a fmt chunk of 8 bytes holds no format fields
        ([(b"fmt ", b"\x01\x00" * 4)], "fmt chunk truncated"),
        # a data chunk that claims 8 bytes where the file ends after 4
        ([(b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)),
          (b"data", b"\x00" * 4, 8)], "data chunk truncated"),
        ([(b"fmt ", struct.pack("<HHIIHH", 1, 0, 8000, 0, 0, 16)),
          (b"data", b"\x00" * 4)], "invalid fmt fields"),
    ], ids=["short-fmt", "short-data", "zero-channels"])
    def test_malformed_chunk_rejected(self, tmp_path, chunks, message):
        body = b"WAVE"
        for chunk_id, payload, *size in chunks:
            body += struct.pack("<4sI", chunk_id, size[0] if size else len(payload))
            body += payload
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(MalformedWavError, match=re.escape(f"{path}: {message}")):
            read_wav(path)


class TestWaveform:
    @pytest.mark.parametrize("samples, rate, message", [
        (np.zeros((2, 4)), 8000, "must be 1-D"),
        (np.zeros(4), 0, "sample_rate must be positive, got 0"),
        (np.zeros(4), -8000, "sample_rate must be positive, got -8000"),
        ([0.0, math.nan], 8000, "non-finite samples"),
    ])
    def test_invalid_rejected(self, samples, rate, message):
        with pytest.raises(InvalidWaveformError, match=message):
            Waveform(samples, rate)


class TestWriteWav:
    def test_roundtrip_sine(self, tmp_path):
        w = synth.sine(440.0, 1.0)
        path = tmp_path / "sine.wav"
        write_wav(w, path)
        back = read_wav(path)
        assert back.sample_rate == 8000
        assert np.max(np.abs(back.samples - w.samples)) <= 2 ** -15

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(InvalidWaveformError):
            write_wav(Waveform(np.zeros(0), 8000), tmp_path / "e.wav")

    def test_out_of_range_rejected(self, tmp_path):
        w = Waveform(np.array([0.0, 1.5]), 8000)
        with pytest.raises(InvalidWaveformError):
            write_wav(w, tmp_path / "clip.wav")

    def test_rate_preserved_in_header(self, tmp_path):
        w = Waveform(np.array([0.1, -0.1]), 8000)
        path = tmp_path / "r.wav"
        write_wav(w, path)
        assert read_wav(path).sample_rate == 8000

    @settings(max_examples=50, deadline=None)
    @given(samples=arrays(np.float64, st.integers(1, 300),
                          elements=st.floats(-1.0, 1.0, allow_nan=False)))
    def test_roundtrip_error_bounded(self, samples, tmp_path_factory):
        w = Waveform(samples, 8000)
        path = tmp_path_factory.mktemp("rt") / "x.wav"
        write_wav(w, path)
        back = read_wav(path)
        assert len(back) == len(w)
        assert np.max(np.abs(back.samples - w.samples)) <= 2 ** -15


def _fft_peak_hz(w):
    spectrum = np.abs(np.fft.rfft(w.samples))
    return np.argmax(spectrum) * w.sample_rate / len(w)


class TestResample:
    def test_identity(self):
        w = synth.sine(300.0, 0.5)
        out = resample(w, 8000)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_440_down_to_8k(self):
        w = synth.sine(440.0, 2.0, rate=44100)
        out = resample(w, 8000)
        assert out.sample_rate == 8000
        assert abs(out.duration_seconds - 2.0) <= 1 / 8000
        peak = _fft_peak_hz(out)
        assert abs(peak - 440.0) / 440.0 < 0.01

    def test_3900_below_nyquist_survives(self):
        w = synth.sine(3900.0, 2.0, rate=44100)
        out = resample(w, 8000)
        peak = _fft_peak_hz(out)
        assert abs(peak - 3900.0) / 3900.0 < 0.01

    def test_upsample_tone(self):
        w = synth.sine(440.0, 1.0, rate=8000)
        out = resample(w, 44100)
        assert abs(out.duration_seconds - 1.0) <= 1 / 44100
        assert abs(_fft_peak_hz(out) - 440.0) / 440.0 < 0.01

    def test_bad_rate(self):
        with pytest.raises(InvalidWaveformError):
            resample(synth.sine(100.0, 0.1), 0)

    def test_empty_gives_empty_at_target_rate(self):
        out = resample(Waveform(np.zeros(0), 44100), 8000)
        assert len(out) == 0 and out.sample_rate == 8000

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.01, 1.0))
    def test_scale_equivariance(self, alpha):
        w = synth.vibrato_sine(250.0, 0.5, rate=44100, amplitude=0.9)
        scaled = Waveform(alpha * w.samples, w.sample_rate)
        a = resample(scaled, 8000).samples
        b = alpha * resample(w, 8000).samples
        denom = np.max(np.abs(b)) or 1.0
        assert np.max(np.abs(a - b)) / denom <= 1e-6


@functools.lru_cache(maxsize=None)
def _scipy_filter(up, down):
    signal = pytest.importorskip("scipy.signal")
    max_ud = max(up, down)
    return signal.firwin(64 * max_ud + 1, 1.0 / max_ud, window=("kaiser", 8.6))


def _scipy_resample(x, rate, target_rate):
    """The reference: scipy's polyphase resampler with the same filter, clipped."""
    signal = pytest.importorskip("scipy.signal")
    g = math.gcd(rate, target_rate)
    up, down = target_rate // g, rate // g
    out = signal.resample_poly(x, up, down, window=_scipy_filter(up, down))
    return np.clip(out, -1.0, 1.0)


class TestResampleMatchesScipy:
    @pytest.mark.parametrize("rate, target_rate", [
        (44100, 8000), (48000, 8000), (22050, 8000), (16000, 8000), (11025, 8000),
        (8000, 16000), (8000, 44100), (44101, 8000), (8000, 44101), (7, 3), (3, 7),
    ])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_equivalence(self, rate, target_rate, data):
        down = rate // math.gcd(rate, target_rate)
        n = data.draw(st.integers(1, 4 * min(down, 1000)), label="length")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        ours = resample(Waveform(x, rate), target_rate).samples
        theirs = _scipy_resample(x, rate, target_rate)
        assert ours.shape == theirs.shape
        assert np.max(np.abs(ours - theirs)) <= 1e-12

    def test_20s_song_same_pcm16_codes(self):
        w = synth.vibrato_sine(220.0, 20.0, rate=44100, amplitude=0.6)
        x = w.samples + np.random.default_rng(3).uniform(-0.3, 0.3, len(w))
        ours = resample(Waveform(x, 44100), 8000).samples
        np.testing.assert_array_equal(quantize_pcm16(ours),
                                      quantize_pcm16(_scipy_resample(x, 44100, 8000)))

    def test_odd_rate_kernels_stay_near_filter_size(self):
        _, groups = _polyphase_kernels(8000, 44101)
        filter_bytes = (64 * 44101 + 1) * 8
        assert sum(kernel.nbytes for _, kernel in groups) <= 3 * filter_bytes

    def test_import_leaves_scipy_out(self):
        src = str(Path(singersep.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, singersep, singersep.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSegment:
    def test_35s_gives_three(self):
        w = synth.sine(200.0, 35.0)
        segs = segment(w, 10.0, song_id="s", singer_id="v")
        assert [s.index for s in segs] == [0, 1, 2]
        assert all(len(s.audio) == 80000 for s in segs)

    def test_exact_length_single(self):
        segs = segment(synth.sine(200.0, 10.0), 10.0)
        assert len(segs) == 1

    def test_remainder_dropped(self):
        segs = segment(synth.sine(200.0, 9.9), 10.0)
        assert segs == []

    @pytest.mark.parametrize("seconds", [0.0, -1.0, math.inf, math.nan])
    def test_length_not_positive_and_finite_rejected(self, seconds):
        with pytest.raises(InvalidWaveformError, match="positive and finite"):
            segment(synth.sine(200.0, 1.0), seconds)

    def test_chunks_are_prefix(self):
        w = synth.white_noise(3.7, seed=5)
        segs = segment(w, 1.0)
        joined = np.concatenate([s.audio.samples for s in segs])
        np.testing.assert_array_equal(joined, w.samples[:len(joined)])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40000), st.floats(0.05, 2.0))
    def test_prefix_property(self, n, seconds):
        rng = np.random.default_rng(n)
        w = Waveform(rng.uniform(-1, 1, n), 8000)
        segs = segment(w, seconds)
        chunk = int(round(seconds * 8000))
        assert len(segs) == (n // chunk if chunk else 0)
        if segs:
            joined = np.concatenate([s.audio.samples for s in segs])
            np.testing.assert_array_equal(joined, w.samples[:len(joined)])
