"""Per-frame pitch tracking for separated vocal channels.

The built-in tracker is a YIN-style difference-function detector: per frame
it computes the cumulative mean-normalized difference d'(tau), takes the
first lag under the threshold, walks down to the local minimum, and refines
it by parabolic interpolation. Frames with no qualifying lag, or with RMS
below the silence floor, are emitted as 0 (unvoiced).

The difference function is computed in the algebraic form of de Cheveigne
& Kawahara, "YIN, a fundamental frequency estimator for speech and music"
(JASA 2002, section II): d(tau) = e_0 + e_tau - 2 r(tau), with the window
energies from a cumulative sum of squares and the correlation r(tau) from
one FFT per frame. The pick runs on whole arrays, with no loop over lags
or frames. Frames go through in fixed blocks of ``BLOCK_FRAMES``, so the
working memory stays flat with input length.

Externally computed tracks (e.g. from a neural pitch model) can be imported
from CSV with ``load_pitch_track`` and used interchangeably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import CANONICAL_RATE, Waveform
from .errors import ConfigInvalidError, FrameCountMismatchError, MalformedCsvError

DEFAULT_FMIN_HZ = 55.0
DEFAULT_FMAX_HZ = 1000.0
# frames per FFT batch: bounds the tracker's working memory at any input length
BLOCK_FRAMES = 256


@dataclass
class PitchConfig:
    """Tracker parameters. Defaults: 40 ms frames, 10 ms hop, range 55-1000 Hz.

    Every field must be finite, the threshold positive and the silence
    floor non-negative; the frame must cover at least two periods of fmin_hz,
    and at least one whole-sample period must lie between fmin_hz and fmax_hz.
    """

    frame_seconds: float = 0.040
    hop_seconds: float = 0.010
    threshold: float = 0.15
    fmin_hz: float = DEFAULT_FMIN_HZ
    fmax_hz: float = DEFAULT_FMAX_HZ
    silence_rms: float = 1e-4

    def frame_length(self, rate: int) -> int:
        return int(round(self.frame_seconds * rate))

    def hop_length(self, rate: int) -> int:
        return int(round(self.hop_seconds * rate))

    def lag_range(self, rate: int) -> tuple[int, int]:
        """Shortest and longest candidate period in samples, (tau_min, tau_max)."""
        return max(2, math.ceil(rate / self.fmax_hz)), int(rate / self.fmin_hz)

    def validate(self, rate: int) -> None:
        non_finite = [f"{k}={v}" for k, v in vars(self).items()
                      if not math.isfinite(v)]
        if non_finite:
            raise ConfigInvalidError(
                f"pitch settings must be finite, got {', '.join(non_finite)}")
        if not (0 < self.fmin_hz < self.fmax_hz):
            raise ConfigInvalidError(
                f"need 0 < fmin < fmax, got {self.fmin_hz}..{self.fmax_hz}")
        if self.fmax_hz >= rate / 2:
            raise ConfigInvalidError(
                f"fmax {self.fmax_hz} Hz at or above Nyquist of {rate} Hz")
        if self.threshold <= 0:
            raise ConfigInvalidError("threshold must be positive")
        if self.silence_rms < 0:
            raise ConfigInvalidError("silence_rms must not be negative")
        if self.hop_length(rate) < 1:
            raise ConfigInvalidError("hop shorter than one sample")
        frame = self.frame_length(rate)
        if frame < 2 * rate / self.fmin_hz:
            raise ConfigInvalidError(
                f"frame of {frame} samples covers under two periods of "
                f"fmin {self.fmin_hz} Hz at {rate} Hz")
        tau_min, tau_max = self.lag_range(rate)
        if tau_min > tau_max:
            raise ConfigInvalidError(
                f"no whole-sample period lies in {self.fmin_hz}..{self.fmax_hz} Hz "
                f"at {rate} Hz (lags {tau_min}..{tau_max})")


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


def num_frames(num_samples: int, frame_length: int, hop_length: int) -> int:
    if num_samples < frame_length:
        return 0
    return (num_samples - frame_length) // hop_length + 1


def track_pitch(w: Waveform, config: PitchConfig | None = None) -> PitchTrack:
    """Run the difference-function tracker over a waveform at 8 kHz."""
    cfg = config or PitchConfig()
    rate = w.sample_rate
    if rate != CANONICAL_RATE:
        raise ConfigInvalidError(
            f"tracker expects {CANONICAL_RATE} Hz input, got {rate} Hz; resample first")
    cfg.validate(rate)
    frame_len = cfg.frame_length(rate)
    hop = cfg.hop_length(rate)
    if len(w) < frame_len:
        raise ConfigInvalidError(
            f"input of {len(w)} samples is shorter than one {frame_len}-sample frame")

    frames = sliding_window_view(w.samples, frame_len)[::hop]
    pitches = np.empty(frames.shape[0])
    for start in range(0, frames.shape[0], BLOCK_FRAMES):
        block = frames[start:start + BLOCK_FRAMES]
        pitches[start:start + block.shape[0]] = _block_pitches(block, rate, cfg)
    return PitchTrack(pitches, cfg.hop_seconds)


def _block_pitches(frames: np.ndarray, rate: int, cfg: PitchConfig) -> np.ndarray:
    """Pitch in Hz (0 = unvoiced) of each row of a (frames, frame_len) block."""
    n_frames, frame_len = frames.shape
    tau_min, tau_max = cfg.lag_range(rate)
    window = frame_len - tau_max
    lags = np.arange(tau_max + 1)

    # d(tau) = e_0 + e_tau - 2 r(tau). The energies e_tau of the window
    # shifted by tau come from one cumulative sum of squares; r(tau) comes
    # from one FFT, whose length frame_len = (window - 1 + tau_max) + 1 keeps
    # every lag from wrapping around. d(tau) does not change when a constant
    # is added to a frame, so each frame's first sample is subtracted first:
    # a DC offset then costs no precision, and a frame that opens with a run
    # of equal samples (digital silence) keeps the exact zeros that the
    # direct sum of squares gives its leading lags.
    rms = np.sqrt(np.mean(frames ** 2, axis=1))
    rebased = frames - frames[:, :1]
    energy = np.zeros((n_frames, frame_len + 1))
    np.cumsum(rebased ** 2, axis=1, out=energy[:, 1:])
    shifted = energy[:, window:] - energy[:, :tau_max + 1]
    spectrum = np.conj(np.fft.rfft(rebased[:, :window], frame_len))
    spectrum *= np.fft.rfft(rebased, frame_len)
    corr = np.fft.irfft(spectrum, frame_len)[:, :tau_max + 1]
    diff = shifted[:, :1] + shifted - 2.0 * corr
    np.maximum(diff, 0.0, out=diff)
    diff[:, 0] = 0.0

    # cumulative mean-normalized difference d'(tau)
    running = np.cumsum(diff[:, 1:], axis=1)
    cmndf = np.ones_like(diff)
    np.divide(diff[:, 1:] * lags[1:], running,
              out=cmndf[:, 1:], where=running > 0)

    # first lag in range under the threshold, then on down to the local
    # minimum: the first lag from there on whose successor is not lower
    below = (cmndf < cfg.threshold) & (lags >= tau_min)
    voiced = below.any(axis=1) & (rms >= cfg.silence_rms)
    first = np.argmax(below, axis=1)
    descending = np.zeros_like(below)
    descending[:, :-1] = cmndf[:, 1:] < cmndf[:, :-1]
    tau = np.argmax(~descending & (lags >= first[:, None]), axis=1)

    # parabolic refinement through the neighbours of the minimum
    rows = np.arange(n_frames)
    prev = cmndf[rows, tau - 1]
    here = cmndf[rows, tau]
    after = cmndf[rows, np.minimum(tau + 1, tau_max)]
    denom = prev - 2 * here + after
    shift = np.zeros(n_frames)
    np.divide(0.5 * (prev - after), denom, out=shift,
              where=(tau >= 1) & (tau < tau_max) & (denom > 0))
    refined = tau + np.clip(shift, -1.0, 1.0)

    pitches = np.zeros(n_frames)
    pitches[voiced] = np.clip(rate / refined[voiced], cfg.fmin_hz, cfg.fmax_hz)
    return pitches


def load_pitch_track(path, expected_frames: int | None = None,
                     hop_seconds: float = 0.010,
                     confidence_floor: float = 0.5) -> PitchTrack:
    """Load a "time_sec,frequency_hz[,confidence]" CSV as a PitchTrack.

    Rows with confidence under the floor (when the column exists) are
    zeroed; the track is resampled onto the pipeline hop by nearest-time
    lookup. With ``expected_frames`` given, a discrepancy of more than two
    frames raises FrameCountMismatchError.
    """
    times, freqs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) not in (2, 3):
                raise MalformedCsvError(f"{path}:{lineno}: expected 2 or 3 columns")
            try:
                row = [float(f) for f in fields]
            except ValueError:
                if lineno == 1:
                    continue  # optional header
                raise MalformedCsvError(f"{path}:{lineno}: non-numeric row {fields!r}")
            t, f = row[0], row[1]
            if len(row) == 3 and row[2] < confidence_floor:
                f = 0.0
            times.append(t)
            freqs.append(max(f, 0.0))

    if not times:
        raise MalformedCsvError(f"{path}: no data rows")

    order = np.argsort(times)
    times_arr = np.asarray(times)[order]
    freqs_arr = np.asarray(freqs)[order]

    implied = int(round(times_arr[-1] / hop_seconds)) + 1
    if expected_frames is not None:
        if abs(implied - expected_frames) > 2:
            raise FrameCountMismatchError(
                f"{path}: csv implies {implied} frames, expected {expected_frames}")
        n_out = expected_frames
    else:
        n_out = implied

    grid = np.arange(n_out) * hop_seconds
    idx = np.searchsorted(times_arr, grid)
    idx = np.clip(idx, 0, len(times_arr) - 1)
    left = np.clip(idx - 1, 0, len(times_arr) - 1)
    pick_left = np.abs(times_arr[left] - grid) <= np.abs(times_arr[idx] - grid)
    nearest = np.where(pick_left, left, idx)
    return PitchTrack(freqs_arr[nearest], hop_seconds)


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
