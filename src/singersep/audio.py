"""Mono waveforms, file opening (``open_regular`` to read, ``create_regular``
to write: regular files only), a run's outputs (``Outputs``: removed if it
fails), WAV I/O, band-limited resampling, and fixed-length segmentation.

Everything downstream works on ``Waveform`` values at a canonical rate of
8000 Hz; files at other rates are resampled on the way in.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import itertools
import json
import math
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidWaveformError, MalformedWavError, UnsupportedEncodingError

CANONICAL_RATE = 8000

# Highest sample rate read_wav accepts, the highest common hi-res rate. The
# resampler's filter grows with the rate, and a rate whose kernels are not
# cached designs all of its taps on every call (6 to 9 s at 767999 Hz on a
# 2-vCPU x86-64 VM), so a header's rate must be bounded.
MAX_SAMPLE_RATE = 768000

# Resampler design: windowed-sinc lowpass, Kaiser beta 8.6, cutoff at the
# Nyquist of the slower rate. The filter spans this many sinc zero crossings,
# so it has 64*max(up, down) + 1 taps (353 per output phase at 44.1k -> 8k).
_KAISER_BETA = 8.6
_ZERO_CROSSINGS = 64
# Most multiply-adds in one matrix product. OpenBLAS runs a product of at
# most 2^18 (M*N*K) on the calling thread and splits a larger one across its
# worker pool, whose idle worker then spins for about 0.13 CPU-s after each
# call (measured after one 20 s 44.1 kHz -> 8 kHz resample in products of
# 512 runs). 2^17 keeps a 2x margin, so no resample wakes the pool.
_PRODUCT_MACS = 1 << 17
# Largest max(up, down) whose kernels are cached. Kernels take about 0.64 KB
# per unit of max(up, down) (0.28 MB at 44.1k -> 8k, where it is 441), at
# most 0.33 MB under the gate, so the four cached pairs stay under 4 MB.
# Every common rate into 8 kHz is under it; a rarer pair (47952 or 44101 ->
# 8000 Hz) designs its kernels again on every call, one phase group at a
# time, which costs CPU time that grows with max(up, down) but no memory.
_CACHED_MAX_UD = 512

# Largest read of a WAV payload, in bytes, unless one frame is larger (up
# to 65535 channels of 32-bit float, 262140 bytes): read_wav decodes through
# one buffer of this size. A 10 s 8 kHz mono file (160 KB) takes one read.
# With numpy's 64 KiB cast buffer, decoding holds 256 KiB beside the samples.
_READ_BLOCK = 192 * 1024
# Samples per block of every blockwise pass over samples: the finiteness
# check, write_wav's encoder and an oracle's mix. Each of their temporaries
# holds at most one block of float64 (256 KiB), whatever the waveform's
# length.
BLOCK_SAMPLES = 1 << 15
# Largest document (registry, manifest, config file) read_document reads; a
# larger one is refused by its size before any of it is read.
MAX_DOCUMENT_BYTES = 16 * 2 ** 20
# The fmt chunk bytes read_wav reads: the 16 bytes of plain fields and the
# 24 of the WAVE_FORMAT_EXTENSIBLE extension after them.
_FMT_BYTES = 40

_PCM16_SCALE = 32767.0
# One step of the 16-bit grid, in sample units.
PCM16_LSB = 1.0 / _PCM16_SCALE
# Largest |SNR| in dB a mix or a noised oracle may ask for: the 16-bit grid's
# range (20*log10(32767), about 90.3 dB), past which the quieter signal
# rounds away.
MAX_SNR_DB = 90.0

_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3
# WAVE_FORMAT_EXTENSIBLE: the format code is the first 4 bytes (little-endian)
# of the SubFormat GUID at fmt offset 24, whose other 12 bytes are these.
_FMT_EXTENSIBLE = 0xFFFE
_SUBFORMAT_TAIL = bytes.fromhex("00 00 10 00 80 00 00 aa 00 38 9b 71")

# Decodable encodings, by (format tag, bits per sample): the stored dtype
# and the divisor that maps it into [-1, 1].
_DECODERS = {
    (_FMT_PCM, 16): ("<i2", _PCM16_SCALE),
    (_FMT_IEEE_FLOAT, 32): ("<f4", 1.0),
}


@dataclass(eq=False)
class Waveform:
    """Mono audio: float64 samples plus their sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise InvalidWaveformError("waveform samples must be 1-D")
        if int(self.sample_rate) <= 0:
            raise InvalidWaveformError(f"sample_rate must be positive, got {self.sample_rate}")
        self.sample_rate = int(self.sample_rate)
        if not _all_finite(self.samples):
            raise InvalidWaveformError("waveform contains non-finite samples")

    def __len__(self):
        return self.samples.size

    def peak(self) -> float:
        return abs_peak(self.samples)


def abs_peak(samples: np.ndarray) -> float:
    """The largest absolute sample value (0.0 for no samples), without an
    ``abs`` temporary."""
    if not samples.size:
        return 0.0
    return max(float(samples.max()), -float(samples.min()))


def _all_finite(samples: np.ndarray) -> bool:
    """Whether no sample is NaN or infinite, checked BLOCK_SAMPLES at a
    time, so that the mask is never as long as the samples."""
    return all(np.isfinite(samples[i:i + BLOCK_SAMPLES]).all()
               for i in range(0, samples.size, BLOCK_SAMPLES))


@dataclass(eq=False)
class Segment:
    """A fixed-length chunk of a song, indexed by position in time order."""

    audio: Waveform
    song_id: str = ""
    singer_id: str = ""
    index: int = 0


def open_regular(path, error):
    """``path`` open for buffered binary reading. It is opened without
    blocking, so anything but a regular file (a FIFO, a device, a directory)
    raises ``error("<path>: not a regular file")`` at once, never waited on."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise error(f"{path}: not a regular file")
    return os.fdopen(fd, "rb")


@contextlib.contextmanager
def _naming_errors(path):
    """A context manager that raises an OSError from its block that names no
    file (``filename`` is None: a failed read or write of a file already
    open) again as ``OSError("<path>: <error>")``. One that names its file,
    such as a missing one, is raised as it is, so none is named twice."""
    try:
        yield
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def create_regular(path, mode="wb", **kwargs):
    """A context manager that yields ``path`` created or truncated and open
    for writing, as by ``open(path, mode, **kwargs)``, and closes it on
    leaving. It is opened without blocking, so anything but a regular file
    (a FIFO, a device) raises ``OSError("<path>: not a regular file")`` at
    once, never waited on, and a directory raises ``IsADirectoryError``. An
    OSError raised in the block, or by the closing flush, on a full disk
    say, is raised again as ``OSError("<path>: <error>")`` by
    ``_naming_errors``: a failed write names its file."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NONBLOCK, 0o666)
    except OSError as exc:
        if exc.errno != errno.ENXIO:  # ENXIO: a FIFO without a reader
            raise
        raise OSError(f"{path}: not a regular file") from None
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise OSError(f"{path}: not a regular file")
    with _naming_errors(path), os.fdopen(fd, mode, **kwargs) as fh:
        yield fh


def write_json(path, doc, **kwargs) -> None:
    """Write ``doc`` to ``path``, opened by ``create_regular``, as indented
    JSON with sorted keys and a final newline; ``kwargs`` go to
    ``json.dump``."""
    with create_regular(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, **kwargs)
        fh.write("\n")


class Outputs:
    """The files one run writes under ``root``, and the directories it
    makes there, used as a context manager that removes them if the run
    fails.

    ``file(name)`` records ``root / name`` as an output before anything is
    written there, and ``makedirs(name)`` makes the directory ``root /
    name``; each makes the missing directories on the way, found by walking
    up only as far as the first path that exists, and records them. Leaving
    the block by any exception, an interrupt included, removes every
    recorded path that holds a regular file, a part-written one included (a
    FIFO, device or directory found there is not the run's). Leaving it
    either way removes every directory made here that is left empty, so a
    directory the run did not make is left as it was. Calls come one at a
    time: selection hands each candidate's pair over under one lock.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._files: list[Path] = []
        self._dirs: list[Path] = []

    def __enter__(self) -> "Outputs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for path in self._files:
                if path.is_file():
                    path.unlink()
        for directory in reversed(self._dirs):
            with contextlib.suppress(OSError):  # rmdir takes only an empty one
                directory.rmdir()

    def makedirs(self, name) -> Path:
        """``root / name``, made as a directory with its missing parents."""
        return self._make(self.root / name)

    def file(self, name) -> Path:
        """``root / name``, recorded as an output, with its missing parents made."""
        path = self.root / name
        self._make(path.parent)
        self._files.append(path)
        return path

    def _make(self, directory: Path) -> Path:
        missing = itertools.takewhile(lambda d: not d.exists(),
                                      (directory, *directory.parents))
        for d in reversed(list(missing)):
            self._dirs.append(d)  # first, so an interrupt after mkdir finds it recorded
            d.mkdir()
        return directory


def read_document(path, error, parse=json.loads):
    """``parse`` (JSON by default) of the regular file ``path`` read whole as
    UTF-8; any failure to open, decode or parse it, or a file of more than
    MAX_DOCUMENT_BYTES, raises ``error`` naming it. The size is checked
    before the read, which asks for one byte past that size, so a small
    document costs its own size, not the bound. A file found longer than its
    size (it grew in between) is read on to one byte past the bound, and
    refused if it passes it."""
    too_big = error(f"{path}: larger than {MAX_DOCUMENT_BYTES >> 20} MiB, "
                    "the most a document may hold")
    try:
        with open_regular(path, error) as fh:
            size = os.fstat(fh.fileno()).st_size
            if size > MAX_DOCUMENT_BYTES:
                raise too_big
            data = fh.read(size + 1)
            if len(data) > size:
                data += fh.read(MAX_DOCUMENT_BYTES + 1 - len(data))
            if len(data) > MAX_DOCUMENT_BYTES:
                raise too_big
            return parse(data.decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: {exc}") from None


def read_wav(path, max_frames: int | None = None) -> Waveform:
    """Read a RIFF/WAVE file as a mono Waveform.

    Accepts 16-bit PCM and 32-bit IEEE float data, with a plain or a
    WAVE_FORMAT_EXTENSIBLE header, at rates up to MAX_SAMPLE_RATE and any
    channel count; multi-channel input is averaged down to mono. Samples
    are mapped into [-1, 1] (int16 via 1/32767, out-of-range float data is
    clamped).

    Only a regular file is read (``open_regular``). The chunk headers are
    read in turn, seeking past each body, and a ``data`` chunk that runs
    past the end of the file, or that holds more than ``max_frames``
    frames, is refused before any of it is read. The payload is then
    decoded through one reused buffer of _READ_BLOCK bytes (or of one
    frame, if a frame is larger) straight into the returned samples. An
    OSError in the read, such as an EIO partway through the payload, names
    the file (``_naming_errors``).
    """
    with _naming_errors(path), open_regular(path, MalformedWavError) as fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

        fmt = None
        payload = None  # the data chunk's (offset, size)
        pos = 12
        while pos + 8 <= file_size:  # no seek past the end to drop the buffer
            fh.seek(pos)
            if len(header := fh.read(8)) < 8:
                break
            chunk_id, chunk_size = struct.unpack("<4sI", header)
            if chunk_id == b"fmt ":
                body = fh.read(min(chunk_size, _FMT_BYTES))
                if len(body) < 16:
                    raise MalformedWavError(f"{path}: fmt chunk truncated")
                fmt = struct.unpack_from("<HHIIHH", body, 0)
                if fmt[0] == _FMT_EXTENSIBLE:
                    fmt = (_subformat(path, body),) + fmt[1:]
            elif chunk_id == b"data":
                if pos + 8 + chunk_size > file_size:
                    raise MalformedWavError(f"{path}: data chunk truncated")
                payload = pos + 8, chunk_size
            pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

        if fmt is None or payload is None:
            raise MalformedWavError(f"{path}: missing fmt or data chunk")
        audio_format, channels, sample_rate, _, _, bits = fmt
        if channels < 1 or sample_rate <= 0:
            raise MalformedWavError(f"{path}: invalid fmt fields")
        if sample_rate > MAX_SAMPLE_RATE:
            raise UnsupportedEncodingError(
                f"{path}: sample rate {sample_rate} Hz is above the "
                f"{MAX_SAMPLE_RATE} Hz maximum")
        if (audio_format, bits) not in _DECODERS:
            raise UnsupportedEncodingError(
                f"{path}: format tag {audio_format} / {bits}-bit not supported "
                "(need 16-bit PCM or 32-bit float)")
        offset, size = payload
        frames = size // (bits // 8 * channels)
        if max_frames is not None and frames > max_frames:
            raise InvalidWaveformError(
                f"{path}: {frames} frames, more than the {max_frames} allowed")
        fh.seek(offset)
        samples = _decode(path, fh, frames, audio_format, bits, channels)
    return Waveform(samples, sample_rate)


def _decode(path, fh, frames: int, audio_format: int, bits: int,
            channels: int) -> np.ndarray:
    """The next ``frames`` frames of the file ``fh``, as mono float64
    samples in [-1, 1], read block by block into one buffer."""
    dtype, scale = _DECODERS[audio_format, bits]
    frame_bytes = bits // 8 * channels
    block = max(1, _READ_BLOCK // frame_bytes)
    buffer = np.empty(min(frames, block) * frame_bytes, dtype=np.uint8)
    samples = np.empty(frames)
    for first in range(0, frames, block):
        out = samples[first:first + block]
        raw = buffer[:len(out) * frame_bytes]
        if fh.readinto(raw) != len(raw):
            raise MalformedWavError(f"{path}: data chunk truncated")
        codes = raw.view(dtype)
        if channels == 1:
            np.divide(codes, scale, out=out, dtype=np.float64)
        else:
            np.divide(codes, scale, dtype=np.float64).reshape(
                len(out), channels).mean(axis=1, out=out)
        if audio_format == _FMT_IEEE_FLOAT:
            if not _all_finite(out):
                raise MalformedWavError(f"{path}: non-finite sample values")
            out += 0.0  # -0.0 reads as 0.0, as from a channel mean
            np.clip(out, -1.0, 1.0, out=out)
        else:  # int16 codes are finite, never -0.0, and scale to at most 1
            np.maximum(out, -1.0, out=out)
    return samples


def _subformat(path, body) -> int:
    """The format code a WAVE_FORMAT_EXTENSIBLE fmt chunk's SubFormat GUID names."""
    if len(body) < 40 or struct.unpack_from("<H", body, 16)[0] < 22:
        raise MalformedWavError(f"{path}: extensible fmt chunk truncated")
    if body[28:40] != _SUBFORMAT_TAIL:
        raise UnsupportedEncodingError(
            f"{path}: extensible subformat {body[24:40].hex()} not supported "
            "(need 16-bit PCM or 32-bit float)")
    return struct.unpack_from("<I", body, 24)[0]


def write_wav(w: Waveform, path) -> None:
    """Write a Waveform as mono 16-bit PCM, little-endian.

    Raises InvalidWaveformError on empty input or samples outside [-1, 1];
    clipping must be done explicitly by the caller. The samples are encoded
    and written BLOCK_SAMPLES at a time, through two reused buffers.
    """
    if len(w) == 0:
        raise InvalidWaveformError("refusing to write an empty waveform")
    peak = w.peak()
    if peak > 1.0 + 1e-9:
        raise InvalidWaveformError(
            f"samples exceed [-1, 1] (peak {peak:.6f}); clip or normalize before writing")

    data_bytes = 2 * len(w)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + data_bytes, b"WAVE",
        b"fmt ", 16, _FMT_PCM, 1, w.sample_rate,
        w.sample_rate * 2, 2, 16,
        b"data", data_bytes)
    codes = np.empty(min(len(w), BLOCK_SAMPLES))
    pcm = np.empty(codes.size, dtype="<i2")
    with create_regular(path) as fh:
        fh.write(header)
        for first in range(0, len(w), BLOCK_SAMPLES):
            block = w.samples[first:first + BLOCK_SAMPLES]
            pcm[:block.size] = _pcm16_codes(block, out=codes[:block.size])
            fh.write(pcm[:block.size])


def _pcm16_codes(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The 16-bit codes of samples clipped to [-1, 1], as floats in ``out``
    (a new array if None)."""
    codes = np.clip(samples, -1.0, 1.0, out=out)
    codes *= _PCM16_SCALE
    return np.rint(codes, out=codes)


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Snap samples to the 16-bit write grid (what a WAV round trip returns)."""
    grid = _pcm16_codes(samples)
    grid /= _PCM16_SCALE
    return grid


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Resample with a windowed-sinc polyphase filter.

    Output duration matches the input within one output sample; tones below
    0.45x the slower of the two rates pass with negligible frequency error.
    The rates reduce to ``up/down``; each run of ``up`` consecutive outputs
    reads ``down`` new input samples, so a block of runs is one matrix
    product of input rows with a kernel whose columns are the output
    phases' sub-filters. Length and alignment are those of
    ``scipy.signal.resample_poly`` with the same filter.

    The only full-length array made is the output: the rows are strided
    views of the input (``_run_products``), except at its two ends, where a
    run's taps reach past it and read a short zero-padded copy of that end
    (``_zero_extended``). Beside the output, a call holds one phase group's
    kernel at a time, or the cached kernels (``_cached_kernels``) of a pair
    whose ``max(up, down)`` is at most _CACHED_MAX_UD, whatever the rates.
    The kernels are unscaled, so the output is scaled once at the end by
    ``up`` over the sum of all their taps.
    """
    if target_rate <= 0:
        raise InvalidWaveformError(f"target_rate must be positive, got {target_rate}")
    if target_rate == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    if len(w) == 0:
        return Waveform(np.zeros(0), target_rate)

    g = math.gcd(w.sample_rate, int(target_rate))
    up, down = int(target_rate) // g, w.sample_rate // g
    x = w.samples
    n_in = len(w)
    n_out = -(-n_in * up // down)
    runs = -(-n_out // up)
    out = np.empty((runs, up))
    col, total = 0, 0.0
    kernels = (_cached_kernels if max(up, down) <= _CACHED_MAX_UD
               else _polyphase_kernels)
    for start, kernel in kernels(up, down):
        taps = kernel.shape[0]
        total += kernel.sum()
        # runs [inside, beyond) read rows that lie wholly inside the input
        inside = min(runs, max(0, -(start // down)))
        beyond = min(runs, max(inside, (n_in - taps - start) // down + 1))
        stop = col + kernel.shape[1]
        for first, end in ((0, inside), (inside, beyond), (beyond, runs)):
            if first < end:
                lo = start + first * down
                _run_products(_zero_extended(x, lo, lo + (end - first - 1) * down + taps),
                              kernel, down, out[first:end, col:stop])
        col = stop
    samples = out.ravel()[:n_out]
    samples *= up / total  # the filter's DC gain, up
    # The filter can overshoot full scale by a hair on near-clipped input.
    return Waveform(np.clip(samples, -1.0, 1.0, out=samples), int(target_rate))


def _zero_extended(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``x[lo:hi]`` with zeros for the indices outside ``x``: a view when the
    span lies inside ``x``, else a copy of the span."""
    if 0 <= lo and hi <= len(x):
        return x[lo:hi]
    span = np.zeros(hi - lo)
    a, b = max(lo, 0), min(hi, len(x))
    if a < b:
        span[a - lo:b - lo] = x[a:b]
    return span


def _run_products(src: np.ndarray, kernel: np.ndarray, down: int,
                  out: np.ndarray) -> None:
    """``out[r] = src[r*down:r*down + taps] @ kernel`` for every row r of out.

    Rows ``down`` apart overlap, and BLAS takes no operand whose rows
    overlap, so numpy would copy them first. Rows ``k = ceil(taps/down)``
    runs apart do not overlap: runs ``i, i+k, i+2k, ...`` are one strided
    view of ``src``, and their products go straight into ``out[i::k]``.
    Each product takes at most _PRODUCT_MACS multiply-adds (one run at
    least), so BLAS runs it on the calling thread.
    """
    taps = kernel.shape[0]
    k = -(-taps // down)
    block = max(1, _PRODUCT_MACS // kernel.size)
    rows = sliding_window_view(src, taps)
    for i in range(min(k, len(out))):
        view, dst = rows[i * down::k * down], out[i::k]
        for s in range(0, len(dst), block):
            np.matmul(view[s:s + block], kernel, out=dst[s:s + block])


@functools.lru_cache(maxsize=4)
def _cached_kernels(up: int, down: int):
    return tuple(_polyphase_kernels(up, down))


def _polyphase_kernels(up: int, down: int):
    """Yield ``(start, kernel)`` for each group of output phases.

    The filter is ``h[n] = np.sinc(m/max_ud) * np.kaiser(ntaps, beta)[n]``
    for ``m = n - half``, ``2*half + 1`` taps, left unscaled: the caller
    gives it a DC gain of ``up`` by scaling with ``up`` over the sum of
    every kernel, which is the filter's sum. Output ``t = r*up + j`` is
    ``sum_p x[r*down + p] * h[j*down + half - p*up]``. A group's kernel
    holds its phases' sub-filters as columns, reversed, at rows
    ``p - start``, where ``start`` is the input index its run 0 reads first
    (negative when that run starts before the input). Each tap is computed,
    with numpy's own elementwise formulas, only in the one kernel that holds
    it; every other entry is zero. Phases go in groups of about
    ``ntaps/(4*down)`` (at least 16, as ``ntaps > 64*down``), so a group's
    kernel has about 1.25 times one phase's taps, and a fifth of its
    multiply-adds are by zeros.
    """
    max_ud = max(up, down)
    ntaps = _ZERO_CROSSINGS * max_ud + 1
    half = ntaps // 2
    i0_beta = np.i0(_KAISER_BETA)
    size = min(up, ntaps // (4 * down))
    for first in range(0, up, size):
        phases = np.arange(first, min(first + size, up))
        centre = phases * down + half
        start = -((ntaps - 1 - centre[0]) // up)  # first p with a tap of the group's first phase
        stop = centre[-1] // up  # last p with a tap of the group's last phase
        n = centre[None, :] - np.arange(start, stop + 1)[:, None] * up
        inside = (n >= 0) & (n < ntaps)
        m = n[inside] - half
        kernel = np.zeros(n.shape)
        kernel[inside] = np.sinc(m / max_ud) * (
            np.i0(_KAISER_BETA * np.sqrt(1 - (m / half) ** 2.0)) / i0_beta)
        yield start, kernel


def segment_length(seconds: float, rate: int) -> int:
    """Samples in a segment of ``seconds`` at ``rate``, at least one."""
    if not 0 < seconds * rate < math.inf:
        raise InvalidWaveformError(
            f"segment length must be positive and finite, got {seconds}")
    chunk = int(round(seconds * rate))
    if chunk <= 0:
        raise InvalidWaveformError("segment length rounds to zero samples")
    return chunk


def segment(w: Waveform, seconds: float, song_id: str = "",
            singer_id: str = "") -> list[Segment]:
    """Cut into consecutive non-overlapping chunks of exactly seconds*rate samples.

    A trailing remainder shorter than one chunk is dropped.
    """
    chunk = segment_length(seconds, w.sample_rate)
    n = len(w) // chunk
    return [
        Segment(
            audio=Waveform(w.samples[i * chunk:(i + 1) * chunk].copy(), w.sample_rate),
            song_id=song_id,
            singer_id=singer_id,
            index=i,
        )
        for i in range(n)
    ]
