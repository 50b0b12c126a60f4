"""Mono waveforms, WAV I/O, band-limited resampling, and fixed-length segmentation.

Everything downstream works on ``Waveform`` values at a canonical rate of
8000 Hz; files at other rates are resampled on the way in.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidWaveformError, MalformedWavError, UnsupportedEncodingError

CANONICAL_RATE = 8000

# Resampler design: windowed-sinc lowpass, Kaiser beta 8.6, cutoff at the
# Nyquist of the slower rate. The filter spans this many sinc zero crossings,
# so it has 64*max(up, down) + 1 taps (353 per output phase at 44.1k -> 8k).
_KAISER_BETA = 8.6
_ZERO_CROSSINGS = 64
# runs of `up` outputs per matrix product: bounds the resampler's working memory
_BLOCK_RUNS = 512

_PCM16_SCALE = 32767.0
# One step of the 16-bit grid, in sample units.
PCM16_LSB = 1.0 / _PCM16_SCALE

_FMT_PCM = 1
_FMT_IEEE_FLOAT = 3

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
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise InvalidWaveformError("waveform contains non-finite samples")

    def __len__(self):
        return self.samples.size

    @property
    def duration_seconds(self) -> float:
        return self.samples.size / self.sample_rate

    def peak(self) -> float:
        return float(np.max(np.abs(self.samples))) if self.samples.size else 0.0


@dataclass(eq=False)
class Segment:
    """A fixed-length chunk of a song, indexed by position in time order."""

    audio: Waveform
    song_id: str = ""
    singer_id: str = ""
    index: int = 0


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file as a mono Waveform.

    Accepts 16-bit PCM and 32-bit IEEE float data at any rate and channel
    count; multi-channel input is averaged down to mono. Samples are mapped
    into [-1, 1] (int16 via 1/32767, out-of-range float data is clamped).
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedWavError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise MalformedWavError(f"{path}: data chunk truncated")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise MalformedWavError(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels < 1 or sample_rate <= 0:
        raise MalformedWavError(f"{path}: invalid fmt fields")

    if (audio_format, bits) not in _DECODERS:
        raise UnsupportedEncodingError(
            f"{path}: format tag {audio_format} / {bits}-bit not supported "
            "(need 16-bit PCM or 32-bit float)")
    dtype, scale = _DECODERS[audio_format, bits]
    raw = np.frombuffer(payload, dtype=dtype, count=len(payload) // (bits // 8))
    samples = raw.astype(np.float64) / scale

    frames = samples.size // channels
    samples = samples[:frames * channels].reshape(frames, channels).mean(axis=1)
    if not np.all(np.isfinite(samples)):
        raise MalformedWavError(f"{path}: non-finite sample values")
    return Waveform(np.clip(samples, -1.0, 1.0), sample_rate)


def write_wav(w: Waveform, path) -> None:
    """Write a Waveform as mono 16-bit PCM, little-endian.

    Raises InvalidWaveformError on empty input or samples outside [-1, 1];
    clipping must be done explicitly by the caller.
    """
    if len(w) == 0:
        raise InvalidWaveformError("refusing to write an empty waveform")
    peak = w.peak()
    if peak > 1.0 + 1e-9:
        raise InvalidWaveformError(
            f"samples exceed [-1, 1] (peak {peak:.6f}); clip or normalize before writing")

    payload = _pcm16_codes(w.samples).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, _FMT_PCM, 1, w.sample_rate,
        w.sample_rate * 2, 2, 16,
        b"data", len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def _pcm16_codes(samples: np.ndarray) -> np.ndarray:
    """The 16-bit codes of samples clipped to [-1, 1], as floats."""
    return np.rint(np.clip(samples, -1.0, 1.0) * _PCM16_SCALE)


def quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    """Snap samples to the 16-bit write grid (what a WAV round trip returns)."""
    return _pcm16_codes(samples) / _PCM16_SCALE


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Resample with a windowed-sinc polyphase filter.

    Output duration matches the input within one output sample; tones below
    0.45x the slower of the two rates pass with negligible frequency error.
    The rates reduce to ``up/down``; each run of ``up`` consecutive outputs
    reads ``down`` new input samples, so a block of runs is one matrix
    product of overlapping input rows with a kernel whose columns are the
    output phases' sub-filters. Length and alignment are those of
    ``scipy.signal.resample_poly`` with the same filter.
    """
    if target_rate <= 0:
        raise InvalidWaveformError(f"target_rate must be positive, got {target_rate}")
    if target_rate == w.sample_rate:
        return Waveform(w.samples.copy(), w.sample_rate)
    if len(w) == 0:
        return Waveform(np.zeros(0), target_rate)

    g = math.gcd(w.sample_rate, int(target_rate))
    up, down = int(target_rate) // g, w.sample_rate // g
    lead, groups = _polyphase_kernels(up, down)
    n_in = len(w)
    n_out = -(-n_in * up // down)
    runs = -(-n_out // up)
    # padded-input samples one run reads, up to its last phase's last tap
    reach = groups[-1][0] + groups[-1][1].shape[0]
    # zeros before the input for the first outputs' taps, after it for the last run's
    xpad = np.pad(w.samples, (lead, (runs - 1) * down + reach - n_in - lead))
    out = np.empty((runs, up))
    col = 0
    for offset, kernel in groups:
        rows = sliding_window_view(xpad[offset:], kernel.shape[0])[::down]
        stop = col + kernel.shape[1]
        for s in range(0, runs, _BLOCK_RUNS):
            out[s:s + _BLOCK_RUNS, col:stop] = rows[s:s + _BLOCK_RUNS] @ kernel
        col = stop
    # The filter can overshoot full scale by a hair on near-clipped input.
    return Waveform(np.clip(out.ravel()[:n_out], -1.0, 1.0), int(target_rate))


@functools.lru_cache(maxsize=4)
def _polyphase_kernels(up: int, down: int):
    """The zero lead of the padded input and one kernel per group of phases.

    Output ``t = r*up + j`` is ``sum_p x[r*down + p] * h[j*down + half - p*up]``
    for the centred filter ``h`` of ``2*half + 1`` taps at DC gain ``up``.
    Each group of phases is ``(offset, kernel)``: the kernel's columns hold
    the group's phases' sub-filters, reversed, at their rows ``p`` counted
    from the group's offset into the padded input. Phases go in groups of
    ``ceil(ntaps/down)``, which keeps all kernels together within about
    twice the filter's size at any rate pair.
    """
    max_ud = max(up, down)
    ntaps = _ZERO_CROSSINGS * max_ud + 1
    half = (ntaps - 1) // 2
    m = np.arange(ntaps) - half
    h = np.sinc(m / max_ud) * np.kaiser(ntaps, _KAISER_BETA)
    h *= up / h.sum()

    lead = half // up
    size = min(up, -(-ntaps // down))
    groups = []
    for first in range(0, up, size):
        phases = np.arange(first, min(first + size, up))
        centre = phases * down + half
        lo = -((ntaps - 1 - centre[0]) // up)  # first p with a tap of the group's first phase
        hi = centre[-1] // up  # last p with a tap of the group's last phase
        taps = centre[None, :] - np.arange(lo, hi + 1)[:, None] * up
        inside = (taps >= 0) & (taps < ntaps)
        kernel = np.where(inside, h[np.where(inside, taps, 0)], 0.0)
        groups.append((lo + lead, kernel))
    return lead, tuple(groups)


def segment(w: Waveform, seconds: float, song_id: str = "",
            singer_id: str = "") -> list[Segment]:
    """Cut into consecutive non-overlapping chunks of exactly seconds*rate samples.

    A trailing remainder shorter than one chunk is dropped.
    """
    if not 0 < seconds < math.inf:
        raise InvalidWaveformError(
            f"segment length must be positive and finite, got {seconds}")
    chunk = int(round(seconds * w.sample_rate))
    if chunk <= 0:
        raise InvalidWaveformError("segment length rounds to zero samples")
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
