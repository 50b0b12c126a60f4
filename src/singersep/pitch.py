"""Per-frame pitch tracking for separated vocal channels.

The built-in tracker is a YIN-style difference-function detector: per frame
it computes the cumulative mean-normalized difference d'(tau), takes the
first lag under the threshold, walks down to the local minimum, and refines
it by parabolic interpolation. Frames with no qualifying lag, or with RMS
below the silence floor, are emitted as 0 (unvoiced).

The difference function is computed in the algebraic form of de Cheveigne
& Kawahara, "YIN, a fundamental frequency estimator for speech and music"
(JASA 2002, section II): d(tau) = e_0 + e_tau - 2 r(tau), with e_0 + e_tau
from one running sum over the lags and the correlation r(tau) from one
forward FFT of each frame and its reversed head, stacked into one call,
and one inverse FFT. The pick runs on whole arrays, with no loop over lags
or frames. Frames go through in blocks of ``BLOCK_FRAMES``, in one set of
buffers per call that every block reuses, so the working memory stays flat
with input length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import CANONICAL_RATE, Waveform
from .errors import ConfigInvalidError

DEFAULT_FMIN_HZ = 55.0
DEFAULT_FMAX_HZ = 1000.0
# frames per FFT batch: bounds the tracker's working memory at any input
# length, about 10.5 KB a frame at the default settings
BLOCK_FRAMES = 256
# pitch frames one trend term spans (i-1, i, i+1), and the units trends are scored in
TREND_FRAMES = 3
UNITS = ("hz", "semitones")
# frames with RMS below this are unvoiced
SILENCE_RMS = 1e-4


@dataclass(frozen=True)
class PitchConfig:
    """Tracker parameters at CANONICAL_RATE, plus the units and block length
    (None: the whole input) of selection's trends. Defaults: 40 ms frames,
    10 ms hop, range 55-1000 Hz, Hz, one block.

    Checked when made, so any config that exists is valid: units must be
    one of UNITS, every other set field finite, the frame and hop finite in
    samples, the threshold and segment length positive; the frame must
    cover two periods of fmin_hz, and a whole-sample period must lie
    between fmin_hz and fmax_hz.
    """

    frame_seconds: float = 0.040
    hop_seconds: float = 0.010
    threshold: float = 0.15
    fmin_hz: float = DEFAULT_FMIN_HZ
    fmax_hz: float = DEFAULT_FMAX_HZ
    units: str = "hz"
    segment_seconds: float | None = None

    @property
    def frame_length(self) -> int:
        return int(round(self.frame_seconds * CANONICAL_RATE))

    @property
    def hop_length(self) -> int:
        return int(round(self.hop_seconds * CANONICAL_RATE))

    @property
    def lag_range(self) -> tuple[int, int]:
        """Shortest and longest candidate period in samples, (tau_min, tau_max)."""
        return (max(2, math.ceil(CANONICAL_RATE / self.fmax_hz)),
                int(CANONICAL_RATE / self.fmin_hz))

    @property
    def trend_span(self) -> int:
        """Samples in TREND_FRAMES frames: the shortest input selection can score."""
        return self.frame_length + (TREND_FRAMES - 1) * self.hop_length

    @property
    def block_frames(self) -> int | None:
        """Frames per trend-scoring block, at least TREND_FRAMES; None: one block."""
        if self.segment_seconds is None:
            return None
        return max(TREND_FRAMES, int(round(self.segment_seconds / self.hop_seconds)))

    def __post_init__(self):
        rate = CANONICAL_RATE
        non_finite = [f"{k}={v}" for k, v in vars(self).items()
                      if k not in ("units", "segment_seconds") and not math.isfinite(v)]
        if non_finite:
            raise ConfigInvalidError(
                f"pitch settings must be finite, got {', '.join(non_finite)}")
        for name in ("frame_seconds", "hop_seconds"):
            if not math.isfinite(getattr(self, name) * rate):
                raise ConfigInvalidError(
                    f"{name}={getattr(self, name)} is not a finite number of samples "
                    f"at {rate} Hz")
        if not (0 < self.fmin_hz < self.fmax_hz):
            raise ConfigInvalidError(
                f"need 0 < fmin < fmax, got {self.fmin_hz}..{self.fmax_hz}")
        if self.fmax_hz >= rate / 2:
            raise ConfigInvalidError(
                f"fmax {self.fmax_hz} Hz at or above Nyquist of {rate} Hz")
        if self.threshold <= 0:
            raise ConfigInvalidError("threshold must be positive")
        if self.hop_length < 1:
            raise ConfigInvalidError("hop shorter than one sample")
        if self.frame_length < 2 * rate / self.fmin_hz:
            raise ConfigInvalidError(
                f"frame of {self.frame_length} samples covers under two periods of "
                f"fmin {self.fmin_hz} Hz at {rate} Hz")
        tau_min, tau_max = self.lag_range
        if tau_min > tau_max:
            raise ConfigInvalidError(
                f"no whole-sample period lies in {self.fmin_hz}..{self.fmax_hz} Hz "
                f"at {rate} Hz (lags {tau_min}..{tau_max})")
        if self.units not in UNITS:
            raise ConfigInvalidError(f"unknown pitch units {self.units!r}")
        if self.segment_seconds is not None and not (
                0 < self.segment_seconds / self.hop_seconds < math.inf):
            raise ConfigInvalidError(
                f"segment length must be positive and finite, got {self.segment_seconds} s")


@dataclass
class PitchTrack:
    """Per-frame pitch values in Hz at a fixed hop; 0 encodes unvoiced.

    ``fmin_hz``/``fmax_hz`` are never read; they remain only so that
    ``PitchTrack(pitches, hop, fmin, fmax)`` still constructs.
    """

    pitches_hz: np.ndarray
    hop_seconds: float
    fmin_hz: float = DEFAULT_FMIN_HZ
    fmax_hz: float = DEFAULT_FMAX_HZ

    def __post_init__(self):
        self.pitches_hz = np.asarray(self.pitches_hz, dtype=np.float64)
        if self.pitches_hz.ndim != 1:
            raise ConfigInvalidError("pitch track must be 1-D")
        if self.pitches_hz.size and (
                not np.all(np.isfinite(self.pitches_hz))
                or np.any(self.pitches_hz < 0)):
            raise ConfigInvalidError("pitches must be finite and non-negative")

    def __len__(self):
        return self.pitches_hz.size

    def voiced_fraction(self) -> float:
        if not len(self):
            return 0.0
        return float(np.count_nonzero(self.pitches_hz)) / len(self)


def track_pitch(w: Waveform, config: PitchConfig | None = None) -> PitchTrack:
    """Run the difference-function tracker over a waveform at 8 kHz."""
    cfg = config or PitchConfig()
    if w.sample_rate != CANONICAL_RATE:
        raise ConfigInvalidError(
            f"tracker expects {CANONICAL_RATE} Hz input, got {w.sample_rate} Hz; "
            "resample first")
    frame_len = cfg.frame_length
    if len(w) < frame_len:
        raise ConfigInvalidError(
            f"input of {len(w)} samples is shorter than one {frame_len}-sample frame")

    frames = sliding_window_view(w.samples, frame_len)[::cfg.hop_length]
    pitches = np.empty(frames.shape[0])
    _track_blocks(frames, cfg, out=pitches)
    return PitchTrack(pitches, cfg.hop_seconds)


def _track_blocks(frames: np.ndarray, cfg: PitchConfig, out: np.ndarray) -> None:
    """Write the pitch in Hz (0 = unvoiced) of each row of a (frames,
    frame_len) array to ``out``, BLOCK_FRAMES rows at a time. The buffers
    are made once per call and reused by every block, so concurrent calls
    each have their own."""
    frame_len = frames.shape[1]
    tau_min, tau_max = cfg.lag_range
    window = frame_len - tau_max
    rows = min(BLOCK_FRAMES, frames.shape[0])
    # [0]: twice the rebased frame's first `window` samples, reversed, then
    # zeros; [1]: the rebased frame. Once the FFT has read them, each row is
    # reused as the later stages need
    signal = np.empty((2, rows, frame_len))
    spectrum = np.empty((2, rows, frame_len // 2 + 1), dtype=complex)
    # [0]: lags under the threshold; [1]: lags whose successor is not lower
    masks = np.empty((2, rows, tau_max + 1), dtype=bool)
    lags = np.arange(tau_max + 1, dtype=float)

    for start in range(0, frames.shape[0], BLOCK_FRAMES):
        block = frames[start:start + BLOCK_FRAMES]
        n = block.shape[0]
        stacked, fft = signal[:, :n], spectrum[:, :n]
        head, frame = stacked
        below, rising = masks[:, :n]
        # (n, lags) arrays in the rows' memory once it is spent
        cmndf = frame.reshape(-1)[:below.size].reshape(below.shape)
        running = head.reshape(-1)[:below.size].reshape(below.shape)

        # d(tau) = e_0 + e_tau - 2 r(tau). d(tau) does not change when a
        # constant is added to a frame, so each frame's first sample is
        # subtracted first: a DC offset then costs no precision, and a frame
        # that opens with a run of equal samples (digital silence) keeps the
        # exact zeros that the direct sum of squares gives its leading lags.
        # r(tau) is a convolution of the frame with its head reversed, read
        # at window - 1 + tau: one FFT, whose length frame_len = window +
        # tau_max keeps every lag from wrapping around. The head is doubled,
        # so the product gives 2 r(tau) exactly.
        np.subtract(block, block[:, :1], out=frame)
        np.multiply(frame[:, window - 1::-1], 2.0, out=head[:, :window])
        head[:, window:] = 0.0
        np.fft.rfft(stacked, axis=-1, out=fft)
        fft[0] *= fft[1]

        # e_0 + e_tau for every tau is the cumulative sum of the head row's
        # first lags: [2 e_0, sq[window] - sq[0], sq[window + 1] - sq[1],
        # ...]. The flat difference crosses rows past them, where nothing
        # is read.
        np.square(frame, out=frame)
        sq = frame.reshape(-1)
        np.subtract(sq[window:], sq[:-window], out=head.reshape(-1)[1:1 - window or None])
        np.einsum("ij->i", frame[:, :window], out=head[:, 0])
        head[:, 0] *= 2.0
        np.cumsum(head[:, :tau_max + 1], axis=1, out=cmndf)
        np.fft.irfft(fft[0], frame_len, axis=-1, out=head)
        cmndf -= head[:, window - 1:]
        np.maximum(cmndf, 0.0, out=cmndf)
        cmndf[:, 0] = 0.0

        # cumulative mean-normalized difference d'(tau) = d(tau) tau /
        # running(tau), and 1 where the running sum is 0, where d(tau) is 0
        # too: both are raised by 1 there
        np.cumsum(cmndf, axis=1, out=running)
        np.equal(running, 0.0, out=below)
        running += below
        cmndf *= lags
        cmndf += below
        cmndf /= running

        # the first lag in range under the threshold, then on down to the
        # local minimum: as d'(tau) only falls on the way down, that is the
        # first lag in range under the threshold whose successor is not lower.
        # The flat comparison crosses rows at the last lag, where every
        # descent ends.
        np.less(cmndf, cfg.threshold, out=below)
        flat = cmndf.reshape(-1)
        np.greater_equal(flat[1:], flat[:-1], out=rising.reshape(-1)[:-1])
        rising[:, -1] = True
        below &= rising
        tau = np.argmax(below[:, tau_min:], axis=1)
        tau += tau_min
        index = np.arange(n)
        voiced = below[index, tau]
        loud = np.einsum("ij,ij->i", block, block)
        voiced &= np.sqrt(loud / frame_len) >= SILENCE_RMS

        # parabolic refinement through the neighbours of the minimum
        prev = cmndf[index, tau - 1]
        here = cmndf[index, tau]
        after = cmndf[index, np.minimum(tau + 1, tau_max)]
        denom = prev - 2 * here + after
        step = np.zeros(n)
        np.divide(0.5 * (prev - after), denom, out=step,
                  where=(tau < tau_max) & (denom > 0))
        refined = tau + np.clip(step, -1.0, 1.0)
        np.multiply(np.clip(CANONICAL_RATE / refined, cfg.fmin_hz, cfg.fmax_hz),
                    voiced, out=out[start:start + n])


def to_semitones(track: PitchTrack) -> PitchTrack:
    """Map nonzero pitches to MIDI-style semitones (A4 = 440 Hz = 69); 0 stays 0.

    Pitches so low that their semitone value would be non-positive
    (under ~8.2 Hz, far below any tracker range) fold into unvoiced.
    """
    p = track.pitches_hz
    out = np.zeros_like(p)
    voiced = p > 0
    out[voiced] = np.maximum(69.0 + 12.0 * np.log2(p[voiced] / 440.0), 0.0)
    return PitchTrack(out, track.hop_seconds)
