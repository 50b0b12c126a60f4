import contextlib
import errno
import functools
import json
import math
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import singersep
from singersep import audio, synth
from singersep.audio import (
    MAX_SAMPLE_RATE,
    Waveform,
    _polyphase_kernels,
    abs_peak,
    quantize_pcm16,
    read_wav,
    resample,
    segment,
    segment_length,
    write_wav,
)
from singersep.backends import (
    KIND_ORACLE,
    STAGE2,
    OracleSpec,
    SeparationBackend,
    registry_load,
    run_backend,
)
from singersep.errors import (
    InvalidWaveformError,
    MalformedWavError,
    SingerSepError,
    UnsupportedEncodingError,
)

from conftest import (
    GUID_TAIL,
    duration_seconds,
    extensible_wav_bytes,
    fail_payload_reads,
    reference_wav_bytes,
    run_capped,
    white_noise,
    write_float32_wav,
)


def _pcm16_file(path, ints, rate=8000, channels=1):
    return _raw_wav(path, 1, 16, channels, np.asarray(ints, dtype="<i2").tobytes(), rate)


def _raw_wav(path, tag, bits, channels, payload, rate=8000):
    """A WAV whose data chunk holds payload as given, partial frames included."""
    block = bits // 8 * channels
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload) + len(payload) % 2, b"WAVE",
        b"fmt ", 16, tag, channels, rate, rate * block % 2 ** 32, block % 2 ** 16, bits,
        b"data", len(payload))
    path.write_bytes(header + payload + b"\0" * (len(payload) % 2))
    return path


def _reference_decode(payload, dtype, scale, channels):
    """read_wav's decoding as first written, one full-length array per step."""
    raw = np.frombuffer(payload, dtype=dtype,
                        count=len(payload) // np.dtype(dtype).itemsize)
    samples = raw.astype(np.float64) / scale
    frames = samples.size // channels
    samples = samples[:frames * channels].reshape(frames, channels).mean(axis=1)
    return np.clip(samples, -1.0, 1.0)


# samples a write must encode: anything in range, the ends, a hair past
# them (write_wav clips up to 1e-9 over), and values half an LSB between codes
_WRITABLE = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([-1.0, 1.0, -1.0 - 1e-10, 1.0 + 1e-10, 0.0, -0.0]),
    st.integers(-32767, 32766).map(lambda k: (k + 0.5) / 32767.0),
)


class TestReadWav:
    def test_maximum_rate_reads(self, tmp_path):
        w = read_wav(_pcm16_file(tmp_path / "max.wav", np.zeros(100),
                                 rate=MAX_SAMPLE_RATE))
        assert (w.sample_rate, len(w)) == (MAX_SAMPLE_RATE, 100)

    @pytest.mark.parametrize("rate", [MAX_SAMPLE_RATE + 1, 2 ** 32 - 5])
    def test_rate_above_maximum_rejected(self, tmp_path, rate):
        path = _pcm16_file(tmp_path / "fast.wav", np.zeros(100), rate=rate)
        with pytest.raises(UnsupportedEncodingError,
                           match=re.escape(f"{path}: sample rate {rate} Hz")):
            read_wav(path)

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

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), channels=st.integers(1, 3), block=st.integers(1, 64),
           encoding=st.sampled_from([(1, 16, "<i2", 32767.0), (3, 32, "<f4", 1.0)]))
    def test_decoding_bit_identical_to_reference(self, data, channels, block, encoding,
                                                 tmp_path_factory):
        tag, bits, dtype, scale = encoding
        if tag == 1:
            elements = st.integers(-32768, 32767)
        else:  # any finite float32, and more often a near full-scale one
            elements = (st.floats(width=32, allow_nan=False, allow_infinity=False)
                        | st.floats(-2.0, 2.0, width=32))
        values = data.draw(arrays(dtype, st.integers(0, 40), elements=elements),
                           label="values")
        # a trailing partial frame, possibly a partial sample
        tail = bytes(data.draw(st.integers(0, bits // 8 * channels - 1), label="tail"))
        payload = values.tobytes() + tail
        path = _raw_wav(tmp_path_factory.mktemp("dec") / "x.wav", tag, bits,
                        channels, payload)
        # decoded through a buffer of ``block`` frames
        with mock.patch.object(audio, "_READ_BLOCK", block * bits // 8 * channels):
            got = read_wav(path).samples
        want = _reference_decode(payload, dtype, scale, channels)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, tmp_path, bad):
        path = write_float32_wav(tmp_path / "nf.wav", [0.5, bad, 0.25, 0.0],
                                 channels=2)
        with pytest.raises(MalformedWavError, match="non-finite sample values"):
            read_wav(path)

    def test_mono_pcm16_read_peaks_under_12_bytes_per_sample(self, tmp_path):
        n = 1_000_000
        codes = np.random.default_rng(0).integers(-32768, 32768, n)
        path = _pcm16_file(tmp_path / "long.wav", codes)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            w = read_wav(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(w) == n
        # the float64 samples (8) and one read buffer, under the whole-file
        # read's bound: the file's bytes (2), the samples, a finiteness mask (1)
        assert peak <= 12 * n

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


    def test_a_failed_payload_read_names_the_file(self, tmp_path, monkeypatch):
        path = _pcm16_file(tmp_path / "x.wav", np.zeros(100))
        fail_payload_reads(monkeypatch, path)
        with pytest.raises(OSError) as info:
            read_wav(path)
        assert str(info.value) == f"{path}: [Errno {errno.EIO}] {os.strerror(errno.EIO)}"

    def test_a_missing_file_is_named_once(self, tmp_path):
        path = tmp_path / "missing.wav"
        with pytest.raises(FileNotFoundError) as info:
            read_wav(path)
        assert str(info.value) == (f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
                                   f"'{path}'")

class TestExtensibleWav:
    """WAVE_FORMAT_EXTENSIBLE headers, as DAWs and ffmpeg write them."""

    @staticmethod
    def _extensible(plain, **kwargs):
        path = plain.with_name("ext-" + plain.name)
        path.write_bytes(extensible_wav_bytes(plain.read_bytes(), **kwargs))
        return path

    @pytest.mark.parametrize("channels", [1, 2])
    def test_pcm16_reads_as_the_plain_file(self, tmp_path, channels):
        codes = np.random.default_rng(channels).integers(-32768, 32768, 60 * channels)
        plain = _pcm16_file(tmp_path / "p.wav", codes, rate=44100, channels=channels)
        ext = self._extensible(plain)
        assert struct.unpack_from("<HH", ext.read_bytes(), 20) == (0xFFFE, channels)
        want, got = read_wav(plain), read_wav(ext)
        assert (got.sample_rate, len(got)) == (44100, 60)
        assert got.samples.tobytes() == want.samples.tobytes()

    def test_float32_reads_as_the_plain_file(self, tmp_path):
        plain = write_float32_wav(tmp_path / "f.wav", [0.25, -0.75, 1.5, -0.0], rate=48000)
        got, want = read_wav(self._extensible(plain)), read_wav(plain)
        assert got.sample_rate == 48000
        assert got.samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("extension_bytes", [0, 20])
    def test_short_extension_rejected(self, tmp_path, extension_bytes):
        path = self._extensible(_pcm16_file(tmp_path / "p.wav", [1, 2, 3]),
                                extension_bytes=extension_bytes)
        with pytest.raises(MalformedWavError,
                           match=re.escape(f"{path}: extensible fmt chunk truncated")):
            read_wav(path)

    def test_short_cb_size_rejected(self, tmp_path):
        # a full 40-byte fmt body whose cbSize says the extension is shorter
        path = self._extensible(_pcm16_file(tmp_path / "p.wav", [1, 2, 3]))
        data = bytearray(path.read_bytes())
        data[36:38] = struct.pack("<H", 21)
        path.write_bytes(bytes(data))
        with pytest.raises(MalformedWavError, match="extensible fmt chunk truncated"):
            read_wav(path)

    @pytest.mark.parametrize("guid, message", [
        # KSDATAFORMAT_SUBTYPE_AMBISONIC_B_FORMAT_PCM: PCM's code, another family
        (bytes.fromhex("01000000 2107 d311 8644 c8c1ca000000"), "extensible subformat"),
        # the standard GUID for a-law, a code with no decoder
        (struct.pack("<I", 6) + GUID_TAIL, "format tag 6 / 16-bit"),
    ], ids=["foreign-guid", "a-law"])
    def test_unknown_subformat_rejected(self, tmp_path, guid, message):
        path = self._extensible(_pcm16_file(tmp_path / "p.wav", [1, 2, 3]), guid=guid)
        with pytest.raises(UnsupportedEncodingError, match=re.escape(f"{path}: {message}")):
            read_wav(path)


_U16 = st.integers(0, 2 ** 16 - 1)
_U32 = st.integers(0, 2 ** 32 - 1)


@st.composite
def _mutated_wavs(draw):
    """A WAV file's bytes with a mutated header: its tags, fmt fields, chunk
    ids and sizes, fmt length (odd ones too) and extensible form, and the
    order of its chunks."""
    tag = draw(st.sampled_from([1, 3, 0xFFFE]) | _U16)
    channels = draw(st.sampled_from([0, 1, 2, 65535]) | _U16)
    rate = draw(st.sampled_from([0, 8000, MAX_SAMPLE_RATE, MAX_SAMPLE_RATE + 1,
                                 2 ** 32 - 1]) | _U32)
    bits = draw(st.sampled_from([0, 16, 24, 32]) | _U16)
    subformat = draw(st.sampled_from([1, 3]) | _U32)
    guid_tail = draw(st.just(GUID_TAIL) | st.binary(min_size=12, max_size=12))
    cb_size = draw(st.sampled_from([0, 21, 22]) | _U16)
    fmt = (struct.pack("<HHIIHHH", tag, channels, rate, draw(_U32), draw(_U16), bits,
                       cb_size)
           + struct.pack("<HII", bits, draw(_U32), subformat) + guid_tail)
    fmt = fmt[:draw(st.integers(0, len(fmt)))]
    payload = draw(st.binary(max_size=64))
    chunks = [(b"fmt ", fmt), (b"data", payload), (b"LIST", draw(st.binary(max_size=5)))]
    body = b""
    for chunk_id, chunk in draw(st.permutations(chunks)):
        chunk_id = draw(st.just(chunk_id) | st.binary(min_size=4, max_size=4))
        size = draw(st.just(len(chunk)) | st.integers(0, 80) | _U32)
        body += struct.pack("<4sI", chunk_id, size) + chunk + b"\0" * (len(chunk) % 2)
    riff = draw(st.just(b"RIFF") | st.binary(min_size=4, max_size=4))
    wave = draw(st.just(b"WAVE") | st.binary(min_size=4, max_size=4))
    return riff + struct.pack("<I", draw(st.just(len(body) + 4) | _U32)) + wave + body


def _chunked_wav(path, tag, bits, channels, payload, rate=8000):
    """A WAV whose fmt chunk comes after a LIST chunk and whose data chunk,
    padded to an even size, is followed by another chunk."""
    fmt = struct.pack("<HHIIHH", tag, channels, rate, 0, bits // 8 * channels, bits)
    body = b"WAVE"
    for chunk_id, chunk in ((b"LIST", b"abc"), (b"fmt ", fmt), (b"data", payload),
                            (b"cue ", b"\1" * 4)):
        body += struct.pack("<4sI", chunk_id, len(chunk)) + chunk + b"\0" * (len(chunk) % 2)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


def _traced_peak(fn, *args, **kwargs):
    """fn's result and the most memory it had allocated at once, in bytes,
    as tracemalloc sees it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


class TestBoundedReader:
    """read_wav reads only a regular file, refuses a data chunk it cannot or
    should not hold before reading it, and decodes through one buffer."""

    @settings(max_examples=400, deadline=None)
    @given(data=_mutated_wavs(), max_frames=st.none() | st.integers(0, 40))
    @example(data=reference_wav_bytes(np.array([0.5, -0.25, 1.0]), 8000), max_frames=None)
    def test_mutated_headers_raise_only_singersep_errors(self, data, max_frames,
                                                         tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "x.wav"
        path.write_bytes(data)
        try:
            w = read_wav(path, max_frames=max_frames)
        except SingerSepError:
            return
        assert max_frames is None or len(w) <= max_frames
        assert abs_peak(w.samples) <= 1.0

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("encoding", [(1, 16, "<i2", 32767.0), (3, 32, "<f4", 1.0)],
                             ids=["int16", "float32"])
    @pytest.mark.parametrize("size", ["below", "at", "above"])
    def test_blocks_decode_as_the_whole_buffer(self, tmp_path, channels, encoding, size):
        tag, bits, dtype, scale = encoding
        frame = bits // 8 * channels
        frames = {"below": 1000, "at": audio._READ_BLOCK // frame,
                  "above": 5 * audio._READ_BLOCK // (2 * frame) + 7}[size]
        rng = np.random.default_rng(frames * channels)
        if tag == 1:
            values = rng.integers(-32768, 32768, frames * channels).astype(dtype)
        else:
            values = rng.uniform(-1.2, 1.2, frames * channels).astype(dtype)
            values[::97] = -0.0
        # an odd byte past the last frame: a partial sample, then the pad byte
        payload = values.tobytes() + b"\x07"
        got = read_wav(_chunked_wav(tmp_path / "x.wav", tag, bits, channels, payload))
        want = _reference_decode(payload, dtype, scale, channels)
        assert len(got) == frames
        assert np.array_equal(got.samples, want)
        assert got.samples.tobytes() == want.tobytes()

    def test_20s_44k_read_peaks_one_block_above_its_result(self, tmp_path):
        codes = np.random.default_rng(1).integers(-32768, 32768, 20 * 44100)
        path = _pcm16_file(tmp_path / "stem.wav", codes, rate=44100)
        w, peak = _traced_peak(read_wav, path)
        assert len(w) == codes.size
        # the samples, the 192 KiB read buffer, numpy's 64 KiB cast buffer
        # and a few small Python objects; a whole-file read peaked 2.6 MB
        # above the samples
        assert peak <= w.samples.nbytes + 256 * 1024 + 16 * 1024

    def test_frame_larger_than_the_block_decodes(self, tmp_path):
        channels = audio._READ_BLOCK // 4 + 3  # one float32 frame over a block
        values = np.random.default_rng(4).uniform(-1.5, 1.5, 3 * channels)
        payload = values.astype("<f4").tobytes()
        path = _raw_wav(tmp_path / "wide.wav", 3, 32, channels, payload)
        want = _reference_decode(payload, "<f4", 1.0, channels)
        assert read_wav(path).samples.tobytes() == want.tobytes()

    def test_max_frames_refused_before_the_payload_is_read(self, tmp_path):
        path = _pcm16_file(tmp_path / "long.wav", np.zeros(100_001))
        assert len(read_wav(path, max_frames=100_001)) == 100_001
        with pytest.raises(InvalidWaveformError,
                           match=re.escape(f"{path}: 100001 frames, more than the "
                                           "100000 allowed")):
            read_wav(path, max_frames=100_000)
        # nothing the size of the payload (200 KB) or its samples (800 KB)
        _, peak = _traced_peak(_refused, read_wav, path, max_frames=10)
        assert peak < 64 * 1024

    def test_fifo_refused_at_once(self, tmp_path):
        path = tmp_path / "pipe.wav"
        os.mkfifo(path)
        done = threading.Event()
        errors = []

        def read():
            try:
                read_wav(path)
            except MalformedWavError as exc:
                errors.append(str(exc))
            done.set()

        threading.Thread(target=read, daemon=True).start()
        try:
            assert done.wait(5), "read_wav waited for a writer"
        finally:
            if not done.is_set():  # let the blocked open return
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        assert errors == [f"{path}: not a regular file"]

    @pytest.mark.parametrize("device", ["/dev/zero", "/dev/null"])
    def test_device_refused(self, tmp_path, device):
        if not os.path.exists(device):
            pytest.skip(f"no {device}")
        link = tmp_path / "dev.wav"
        link.symlink_to(device)
        errors = run_capped(_READ_ERRORS, device, link)
        assert errors == [f"MalformedWavError: {path}: not a regular file"
                          for path in (device, link)]


# Reads each path given, in a capped process (run_capped); prints the errors.
_READ_ERRORS = """
import json, sys
from singersep import read_wav
errors = []
for path in sys.argv[1:]:
    try:
        read_wav(path)
        errors.append(None)
    except Exception as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
print(json.dumps(errors))
"""


def _refused(read, *args, **kwargs):
    """Call read, which must raise a SingerSepError."""
    with pytest.raises(SingerSepError):
        read(*args, **kwargs)


def _understating_fstat(size):
    """os.fstat, but reporting every file as ``size`` bytes long."""
    real = os.fstat

    def fstat(fd):
        fields = list(real(fd))
        fields[stat.ST_SIZE] = size
        return os.stat_result(fields)
    return fstat


class TestReadDocument:
    def test_1kb_registry_peaks_under_1mb(self, tmp_path):
        entries = [{"model_id": f"oracle-{i}", "stage": "stage2_two_vocals",
                    "kind": "oracle", "oracle": {"ref_a": f"refs/a{i}.wav",
                                                 "ref_b": f"refs/b{i}.wav"}}
                   for i in range(8)]
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(entries))
        assert 900 <= path.stat().st_size <= 1100
        models, peak = _traced_peak(registry_load, path)
        assert [m.model_id for m in models] == [e["model_id"] for e in entries]
        # the document and its parse, not a buffer the size of the bound
        assert peak < 2 ** 20

    def test_longer_than_its_size_is_read_whole(self, tmp_path):
        path = tmp_path / "stems.json"
        path.write_text(json.dumps({"stems": list(range(300))}))
        with mock.patch.object(audio.os, "fstat", _understating_fstat(10)):
            assert audio.read_document(path, ValueError) == {"stems": list(range(300))}

    @pytest.mark.parametrize("past", [0, 1])
    def test_longer_than_its_size_refused_past_the_bound(self, tmp_path, past):
        path = tmp_path / "grown.json"
        with open(path, "wb") as fh:
            fh.truncate(audio.MAX_DOCUMENT_BYTES + past)
        with mock.patch.object(audio.os, "fstat", _understating_fstat(10)):
            if past:
                with pytest.raises(ValueError, match="larger than 16 MiB"):
                    audio.read_document(path, ValueError, parse=len)
            else:
                assert audio.read_document(path, ValueError, parse=len) == \
                    audio.MAX_DOCUMENT_BYTES


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


class TestAbsPeak:
    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, st.integers(0, 50),
                  elements=st.floats(-1e300, 1e300, allow_nan=False)))
    def test_matches_max_of_abs(self, x):
        want = float(np.max(np.abs(x))) if x.size else 0.0
        assert abs_peak(x) == want
        assert Waveform(x, 8000).peak() == want


class TestWriteWav:
    @settings(max_examples=80, deadline=None)
    @given(samples=arrays(np.float64, st.integers(1, 200), elements=_WRITABLE),
           rate=st.sampled_from([8000, 44100]))
    def test_bytes_identical_to_reference(self, samples, rate, tmp_path_factory):
        path = tmp_path_factory.mktemp("enc") / "x.wav"
        write_wav(Waveform(samples, rate), path)
        assert path.read_bytes() == reference_wav_bytes(samples, rate)
        want = np.rint(np.clip(samples, -1.0, 1.0) * 32767.0) / 32767.0
        assert quantize_pcm16(samples).tobytes() == want.tobytes()

    def test_blockwise_bytes_identical_to_reference(self, tmp_path):
        samples = np.random.default_rng(6).uniform(-1.0, 1.0, 2 * audio.BLOCK_SAMPLES + 3)
        samples[[0, audio.BLOCK_SAMPLES - 1, audio.BLOCK_SAMPLES, -1]] = [
            1.0 + 1e-10, -1.0, 0.5 / 32767, -1.0 - 1e-10]
        path = tmp_path / "long.wav"
        write_wav(Waveform(samples, 8000), path)
        assert path.read_bytes() == reference_wav_bytes(samples, 8000)

    def test_180s_write_peaks_under_1mb(self, tmp_path):
        w = synth.vibrato_sine(220.0, 180.0)
        _, peak = _traced_peak(write_wav, w, tmp_path / "song.wav")
        # the float codes and their 16-bit copy of one block; whole-length
        # ones took about 14 MB
        assert peak < 2 ** 20

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


def _at_block_size(size, fn, *args):
    """fn(*args) with BLOCK_SAMPLES set to ``size`` in every module that binds it."""
    with contextlib.ExitStack() as stack:
        for name, module in list(sys.modules.items()):
            if name.startswith("singersep.") and hasattr(module, "BLOCK_SAMPLES"):
                stack.enter_context(mock.patch.object(module, "BLOCK_SAMPLES", size))
        return fn(*args)


class TestBlockSize:
    """No blockwise pass over samples depends on BLOCK_SAMPLES: at 7 samples
    a block, so with block edges inside every input, each gives what it does
    at the default size."""

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 23])
    def test_write_wav_writes_the_same_bytes(self, tmp_path, n):
        samples = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        samples[[0, -1]] = [1.0 + 1e-10, -1.0 - 1e-10]
        w = Waveform(samples, 8000)
        write_wav(w, tmp_path / "default.wav")
        with mock.patch.object(audio, "_pcm16_codes", wraps=audio._pcm16_codes) as codes:
            _at_block_size(7, write_wav, w, tmp_path / "small.wav")
        assert codes.call_count == -(-n // 7)
        assert ((tmp_path / "small.wav").read_bytes()
                == (tmp_path / "default.wav").read_bytes())

    @pytest.mark.parametrize("index", [6, 7, -1])
    @pytest.mark.parametrize("size", [audio.BLOCK_SAMPLES, 7])
    def test_a_nan_at_a_block_edge_is_refused(self, tmp_path, index, size):
        samples = np.zeros(20)  # two blocks of 7 and part of a third
        samples[index] = np.nan
        path = write_float32_wav(tmp_path / "nan.wav", samples)
        with pytest.raises(InvalidWaveformError, match="non-finite"):
            _at_block_size(size, Waveform, samples, 8000)
        with pytest.raises(MalformedWavError, match="non-finite"):
            _at_block_size(size, read_wav, path)

    def test_oracle_outputs_are_bit_equal(self, tmp_wav):
        pa = tmp_wav(white_noise(23 / 8000, amplitude=0.6, seed=1))
        pb = tmp_wav(white_noise(23 / 8000, amplitude=0.6, seed=2))
        backend = SeparationBackend(kind=KIND_ORACLE, stage=STAGE2, oracle=OracleSpec(
            str(pa), str(pb), leak=0.3, noise_snr_db=20.0, noise_seed=4))
        song = read_wav(pa)
        want = run_backend(backend, song)
        got = _at_block_size(7, run_backend, backend, song)
        for out, expected in zip(got, want):
            assert out.samples.tobytes() == expected.samples.tobytes()


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
        assert abs(duration_seconds(out) - 2.0) <= 1 / 8000
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
        assert abs(duration_seconds(out) - 1.0) <= 1 / 44100
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
        groups = list(_polyphase_kernels(8000, 44101))
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


def _direct_resample(x, rate, target_rate):
    """The textbook form: zero-stuff by ``up``, convolve with the resampler's
    own filter, keep every ``down``-th sample of the centred result, clip.
    Only the kept samples of the convolution are computed."""
    g = math.gcd(rate, target_rate)
    up, down = target_rate // g, rate // g
    max_ud = max(up, down)
    ntaps = audio._ZERO_CROSSINGS * max_ud + 1
    half = ntaps // 2
    h = np.sinc((np.arange(ntaps) - half) / max_ud) * np.kaiser(ntaps, audio._KAISER_BETA)
    h *= up / h.sum()
    n_out = -(-len(x) * up // down)
    # stuffed[q * up] = x[q], so conv[t * down + half] = sum_q x[q] h[t * down + half - q * up]
    tap = np.arange(n_out)[:, None] * down + half - np.arange(len(x))[None, :] * up
    inside = (tap >= 0) & (tap < ntaps)
    out = (np.where(inside, h[np.where(inside, tap, 0)], 0.0) * x).sum(axis=1)
    return np.clip(out, -1.0, 1.0)


class TestResampleViews:
    @pytest.mark.parametrize("kernels", [0, 4])
    @settings(max_examples=30, deadline=None)
    @example(rates=(44101, 8000), fraction=1.0, seed=0)
    @given(rates=st.sampled_from([(44100, 8000), (8000, 44100), (8000, 16000), (3, 7),
                                  (48000, 8000), (16000, 8000), (44100, 8001)]),
           fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_direct_form(self, kernels, rates, fraction, seed):
        # up > down, up = 1, and pairs whose kernels are not cached (44100 ->
        # 8001 Hz is 127/700). Every kernel has at least ntaps // up rows, one
        # phase's taps, and about twice that at most. With kernels=0 the input
        # is shorter than one phase's taps, so every run reads past an end;
        # with kernels=4 runs also read wholly inside it.
        rate, target_rate = rates
        g = math.gcd(rate, target_rate)
        up, down = target_rate // g, rate // g
        phase_taps = (audio._ZERO_CROSSINGS * max(up, down) + 1) // up
        n = 1 + int(fraction * (max(kernels * phase_taps, phase_taps - 1) - 1))
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        ours = resample(Waveform(x, rate), target_rate).samples
        theirs = _direct_resample(x, rate, target_rate)
        assert ours.shape == theirs.shape
        assert np.max(np.abs(ours - theirs)) <= 1e-12

    def test_20s_down_to_8k_peaks_at_its_output_plus_1_mb(self):
        w = Waveform(np.random.default_rng(4).uniform(-0.9, 0.9, 20 * 44100), 44100)
        resample(w, 8000)  # the kernels are cached, not working memory
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = resample(w, 8000)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(out) == 20 * 8000
        assert peak <= out.samples.nbytes + 1_000_000


class TestKernelCache:
    def test_odd_rate_kernels_are_built_used_and_dropped(self):
        audio._cached_kernels.cache_clear()
        x = np.random.default_rng(5).uniform(-0.9, 0.9, 44101)
        w = Waveform(x, 44101)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = resample(w, 8000)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(out) == 8000
        assert held <= 1_000_000  # no kernel outlives the call
        assert audio._cached_kernels.cache_info().currsize == 0

    def test_second_call_reuses_cached_kernels(self, monkeypatch):
        audio._cached_kernels.cache_clear()
        built = []

        def design(up, down):
            built.append((up, down))
            return _polyphase_kernels(up, down)

        monkeypatch.setattr(audio, "_polyphase_kernels", design)
        w = synth.sine(440.0, 0.1, rate=44100)
        first, second = resample(w, 8000), resample(w, 8000)
        assert built == [(80, 441)]
        assert first.samples.tobytes() == second.samples.tobytes()

    def test_cache_keeps_the_four_most_recently_used_pairs(self, monkeypatch):
        audio._cached_kernels.cache_clear()
        built = []

        def design(up, down):
            built.append((up, down))
            return _polyphase_kernels(up, down)

        monkeypatch.setattr(audio, "_polyphase_kernels", design)
        # 48 kHz is used least recently when 11.025 kHz arrives as the fifth pair
        for rate in (44100, 48000, 22050, 44100, 16000, 11025):
            resample(Waveform(np.zeros(10), rate), 8000)
        assert built == [(80, 441), (1, 6), (160, 441), (1, 2), (320, 441)]
        del built[:]
        for rate in (22050, 44100, 16000, 11025, 48000):
            resample(Waveform(np.zeros(10), rate), 8000)
        assert built == [(1, 6)]

    @settings(max_examples=20, deadline=None)
    @example(up=65, down=512)
    @given(st.integers(1, audio._CACHED_MAX_UD), st.integers(1, audio._CACHED_MAX_UD))
    def test_four_cacheable_kernel_sets_fit_in_4_mb(self, up, down):
        g = math.gcd(up, down)
        groups = list(_polyphase_kernels(up // g, down // g))
        assert 4 * sum(kernel.nbytes for _, kernel in groups) <= 4_000_000

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(44100, 8000), (8000, 44100), (48000, 8000), (11025, 8000),
                            (11992, 8000), (8000, 11992), (47952, 8000)]),
           st.integers(1, 2000), st.integers(0, 2 ** 32 - 1))
    def test_cached_and_uncached_kernels_give_identical_output(self, rates, n, seed):
        rate, target_rate = rates
        w = Waveform(np.random.default_rng(seed).uniform(-1.0, 1.0, n), rate)
        first, second = resample(w, target_rate), resample(w, target_rate)
        with mock.patch.object(audio, "_CACHED_MAX_UD", 0):
            fresh = resample(w, target_rate)
        assert first.samples.tobytes() == fresh.samples.tobytes()
        assert second.samples.tobytes() == fresh.samples.tobytes()

    def test_threads_get_bit_identical_outputs(self):
        # five cacheable pairs, so threads evict one another, and one that is not
        rates = (44100, 48000, 22050, 16000, 11025, 11992)
        x = np.random.default_rng(9).uniform(-0.9, 0.9, 600)
        want = {rate: resample(Waveform(x, rate), 8000).samples for rate in rates}
        audio._cached_kernels.cache_clear()
        failures = []

        def work(k):
            for i in range(20):
                rate = rates[(k + i) % len(rates)]
                if not np.array_equal(resample(Waveform(x, rate), 8000).samples, want[rate]):
                    failures.append(rate)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert audio._cached_kernels.cache_info().currsize <= 4


# rate pairs, reduced: into 8 kHz from 44.1, 48 and 22.05 kHz, out to
# 44.1 kHz, both ways between 8 kHz and an odd rate, and 7 -> 3 Hz
_PRODUCT_PAIRS = [(44100, 8000), (48000, 8000), (22050, 8000), (8000, 44100),
                  (44101, 8000), (8000, 44101), (7, 3)]


def _other_threads_cpu_s():
    """CPU seconds used so far by this process's threads other than the calling one."""
    me, ticks = threading.get_native_id(), 0
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread exited
            continue
        if int(tid) != me:
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


class TestResampleOnCallingThread:
    @pytest.mark.parametrize("runs", [3, 30000])
    @pytest.mark.parametrize("rates", _PRODUCT_PAIRS)
    def test_every_product_is_at_most_product_macs(self, monkeypatch, rates, runs):
        # a few runs, and tens of thousands (at most 2 M input samples), so
        # that every strided view of runs fills its blocks
        rate, target_rate = rates
        down = rate // math.gcd(rate, target_rate)
        x = np.random.default_rng(runs).uniform(-0.9, 0.9, min(runs * down, 2_000_000))
        products = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            products.append(a.shape[0] * a.shape[1] * b.shape[1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        resample(Waveform(x, rate), target_rate)
        monkeypatch.undo()
        assert products and max(products) <= audio._PRODUCT_MACS
        if runs > 3:
            assert max(products) > audio._PRODUCT_MACS // 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="reads per-thread CPU times from /proc")
    def test_20s_down_to_8k_leaves_other_threads_idle(self):
        # A product BLAS splits across its threads leaves the idle worker
        # spinning for about 0.13 CPU-s after the call.
        w = Waveform(np.random.default_rng(6).uniform(-0.9, 0.9, 20 * 44100), 44100)
        resample(w, 8000)
        for _ in range(40):  # until threads woken before this call are idle
            before = _other_threads_cpu_s()
            time.sleep(0.05)
            if _other_threads_cpu_s() == before:
                break
        before = _other_threads_cpu_s()
        resample(w, 8000)
        time.sleep(0.3)
        assert _other_threads_cpu_s() - before < 0.02

    @pytest.mark.parametrize("rates", _PRODUCT_PAIRS)
    def test_kernels_hold_at_most_1_3_times_the_filter(self, rates):
        rate, target_rate = rates
        g = math.gcd(rate, target_rate)
        up, down = target_rate // g, rate // g
        groups = list(_polyphase_kernels(up, down))
        filter_bytes = (audio._ZERO_CROSSINGS * max(up, down) + 1) * 8
        assert sum(kernel.nbytes for _, kernel in groups) <= 1.3 * filter_bytes

    def test_odd_rate_design_peaks_at_a_few_kernels(self):
        # each group's design peaks at the kernel the loop still holds, the
        # new one and numpy's elementwise temporaries over the group's taps
        # (np.i0 keeps about ten): 12x the largest kernel, which is 1/400 of
        # the 22.6 MB filter
        largest, peak = 0, 0
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _, kernel in _polyphase_kernels(8000, 44101):
                largest = max(largest, kernel.nbytes)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - start)
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * largest

    def test_10ms_at_96001_hz_peaks_under_5_mb(self):
        # 64 * 96001 + 1 taps, 49 MB as one filter; a call holds one group's kernel
        w = Waveform(np.random.default_rng(7).uniform(-0.9, 0.9, 960), 96001)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = resample(w, 8000)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(out) == 80
        assert peak < 5_000_000

    @pytest.mark.parametrize("up, down", [(80, 441), (441, 80), (1, 6), (3, 7),
                                          (8000, 44101), (44101, 8000)])
    def test_each_tap_is_designed_in_exactly_one_kernel(self, up, down):
        max_ud = max(up, down)
        ntaps = audio._ZERO_CROSSINGS * max_ud + 1
        half = ntaps // 2
        m = np.arange(ntaps) - half
        whole = np.sinc(m / max_ud) * np.kaiser(ntaps, audio._KAISER_BETA)
        taps = np.zeros(ntaps)
        seen = np.zeros(ntaps, dtype=int)
        col = 0
        for start, kernel in _polyphase_kernels(up, down):
            phases = np.arange(col, col + kernel.shape[1])
            col += kernel.shape[1]
            # row i of a phase j's column holds h[j*down + half - (start + i)*up]
            n = phases[None, :] * down + half - (start + np.arange(len(kernel)))[:, None] * up
            inside = (n >= 0) & (n < ntaps)
            assert not kernel[~inside].any()
            np.add.at(seen, n[inside], 1)
            taps[n[inside]] = kernel[inside]
        assert col == up
        assert (seen == 1).all()
        assert np.array_equal(taps, whole)


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

    def test_length_in_samples(self):
        assert segment_length(10.0, 8000) == 80000
        assert segment_length(1e-4, 8000) == 1
        with pytest.raises(InvalidWaveformError, match="rounds to zero samples"):
            segment_length(1e-5, 8000)

    def test_chunks_are_prefix(self):
        w = white_noise(3.7, seed=5)
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
