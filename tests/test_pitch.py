import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from singersep import synth
from singersep.audio import CANONICAL_RATE, Waveform
from singersep.errors import ConfigInvalidError
from singersep.pitch import (
    BLOCK_FRAMES,
    SILENCE_RMS,
    PitchConfig,
    PitchTrack,
    to_semitones,
    track_pitch,
)

from conftest import white_noise


def loop_track_pitch(w: Waveform, config: PitchConfig | None = None) -> PitchTrack:
    """Reference tracker: d(tau) by a loop over lags, the pick by a loop over frames."""
    cfg = config or PitchConfig()
    rate = w.sample_rate
    if rate != CANONICAL_RATE:
        raise ConfigInvalidError(
            f"tracker expects {CANONICAL_RATE} Hz input, got {rate} Hz; resample first")
    frame_len = cfg.frame_length
    hop = cfg.hop_length
    if len(w) < frame_len:
        raise ConfigInvalidError(
            f"input of {len(w)} samples is shorter than one {frame_len}-sample frame")

    frames = sliding_window_view(w.samples, frame_len)[::hop]
    n_frames = frames.shape[0]
    rms = np.sqrt(np.mean(frames ** 2, axis=1))

    tau_max = int(rate / cfg.fmin_hz)
    tau_min = max(2, int(math.ceil(rate / cfg.fmax_hz)))
    window = frame_len - tau_max

    # difference function d(tau), vectorized over frames per lag
    diff = np.empty((n_frames, tau_max + 1))
    diff[:, 0] = 0.0
    head = frames[:, :window]
    for tau in range(1, tau_max + 1):
        delta = head - frames[:, tau:tau + window]
        diff[:, tau] = np.einsum("ij,ij->i", delta, delta)

    # cumulative mean-normalized difference d'(tau)
    running = np.cumsum(diff[:, 1:], axis=1)
    cmndf = np.ones_like(diff)
    np.divide(diff[:, 1:] * np.arange(1, tau_max + 1), running,
              out=cmndf[:, 1:], where=running > 0)

    pitches = np.zeros(n_frames)
    for i in range(n_frames):
        if rms[i] < SILENCE_RMS:
            continue
        row = cmndf[i]
        qualifying = np.nonzero(row[tau_min:tau_max + 1] < cfg.threshold)[0]
        if qualifying.size == 0:
            continue
        tau = tau_min + int(qualifying[0])
        while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
            tau += 1
        refined = float(tau)
        if 1 <= tau < tau_max:
            denom = row[tau - 1] - 2 * row[tau] + row[tau + 1]
            if denom > 0:
                shift = 0.5 * (row[tau - 1] - row[tau + 1]) / denom
                refined = tau + float(np.clip(shift, -1.0, 1.0))
        pitches[i] = float(np.clip(rate / refined, cfg.fmin_hz, cfg.fmax_hz))

    return PitchTrack(pitches, cfg.hop_seconds)


def assert_matches_loop_tracker(w: Waveform, cfg: PitchConfig) -> None:
    """The same voicing as the loop tracker, and each pitch within 1e-9."""
    fast = track_pitch(w, cfg).pitches_hz
    slow = loop_track_pitch(w, cfg).pitches_hz
    np.testing.assert_array_equal(fast > 0, slow > 0)
    voiced = slow > 0
    np.testing.assert_allclose(fast[voiced], slow[voiced], rtol=1e-9, atol=0)


def default_case(n_frames: int) -> tuple[Waveform, PitchConfig]:
    """A noisy vibrato tone of exactly ``n_frames`` frames at the default config."""
    cfg = PitchConfig()
    seconds = ((n_frames - 1) * cfg.hop_length + cfg.frame_length) / CANONICAL_RATE
    w = Waveform(synth.vibrato_sine(220.0, seconds).samples
                 + white_noise(seconds, amplitude=0.05, seed=3).samples, CANONICAL_RATE)
    return w, cfg


@st.composite
def tracker_cases(draw):
    """A valid config and a signal of 1, B - 1, B, B + 1 or 2B + 1 frames,
    B = BLOCK_FRAMES: one frame, one block short or whole, and a last block
    of one frame.

    The signal is a vibrato tone with up to four harmonics, white noise
    and a DC offset; it may start after a stretch of silence (the offset
    alone), so that a tone onset falls at a random frame.
    """
    rate = CANONICAL_RATE
    fmin = draw(st.floats(40.0, 200.0))
    fmax = draw(st.floats(1.5 * fmin, 3500.0))
    frame_len = math.ceil(2 * rate / fmin) + draw(st.integers(0, 160))
    hop = draw(st.integers(1, 160))
    cfg = PitchConfig(frame_seconds=frame_len / rate, hop_seconds=hop / rate,
                      threshold=draw(st.floats(0.02, 0.5)),
                      fmin_hz=fmin, fmax_hz=fmax)
    n_frames = draw(st.sampled_from(
        [1, BLOCK_FRAMES - 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 2 * BLOCK_FRAMES + 1]))
    n = (n_frames - 1) * hop + frame_len + draw(st.integers(0, hop - 1))

    t = np.arange(n) / rate
    f0 = draw(st.floats(60.0, 990.0))
    depth = draw(st.floats(0.0, 0.05)) * f0
    freq = f0 + depth * np.sin(2 * np.pi * draw(st.floats(3.0, 7.0)) * t)
    phase = 2 * np.pi * np.cumsum(freq) / rate
    tone = sum(draw(st.floats(0.0, 1.0)) * np.sin(k * phase)
               for k in range(1, 5) if k * (f0 + depth) < rate / 2)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tone = tone + draw(st.floats(0.0, 0.5)) * rng.standard_normal(n)
    tone *= draw(st.floats(1e-3, 1.0)) / max(float(np.max(np.abs(tone))), 1e-12)
    tone[:draw(st.integers(0, n // 2))] = 0.0
    offset = draw(st.floats(-0.5, 0.5))
    return Waveform(offset + tone, rate), cfg


class TestTracker:
    @pytest.mark.parametrize("freq", [110.0, 220.0, 440.0])
    def test_pure_sine_within_one_percent(self, freq):
        track = track_pitch(synth.sine(freq, 2.0))
        voiced = track.pitches_hz[track.pitches_hz > 0]
        assert track.voiced_fraction() >= 0.95
        median = float(np.median(voiced))
        assert 0.99 * freq <= median <= 1.01 * freq

    def test_empty_track_is_unvoiced(self):
        assert PitchTrack(np.zeros(0), 0.01).voiced_fraction() == 0.0

    def test_digital_silence_all_unvoiced(self):
        track = track_pitch(synth.silence(2.0))
        assert np.all(track.pitches_hz == 0)

    def test_white_noise_mostly_unvoiced(self):
        track = track_pitch(white_noise(2.0, amplitude=1.0, seed=42))
        unvoiced = 1.0 - track.voiced_fraction()
        assert unvoiced >= 0.80

    def test_frame_count_formula(self):
        w = synth.sine(200.0, 1.3)
        cfg = PitchConfig()
        track = track_pitch(w, cfg)
        assert (cfg.frame_length, cfg.hop_length) == (320, 80)
        assert len(track) == (len(w) - 320) // 80 + 1

    def test_shift_by_one_hop_shifts_track(self):
        w = synth.vibrato_sine(220.0, 1.5, depth_hz=5.0)
        delayed = Waveform(np.concatenate([np.zeros(80), w.samples]), 8000)
        base = track_pitch(w).pitches_hz
        shifted = track_pitch(delayed).pitches_hz
        # interior frames: shifted[i+1] covers the same samples as base[i]
        n = min(len(base), len(shifted) - 1)
        a = base[2:n - 2]
        b = shifted[3:n - 1]
        voiced = (a > 0) & (b > 0)
        assert voiced.mean() > 0.9
        assert np.max(np.abs(a[voiced] - b[voiced]) / a[voiced]) <= 0.005

    def test_fmin_too_low_for_frame(self):
        with pytest.raises(ConfigInvalidError, match="under two periods"):
            PitchConfig(fmin_hz=30.0)  # 40 ms frame < 2 periods of 30 Hz

    def test_wrong_rate_rejected(self):
        with pytest.raises(ConfigInvalidError):
            track_pitch(synth.sine(220.0, 1.0, rate=44100))

    def test_input_shorter_than_frame(self):
        with pytest.raises(ConfigInvalidError):
            track_pitch(synth.sine(220.0, 0.02))

    def test_no_negative_or_nan_pitches(self):
        track = track_pitch(white_noise(1.0, seed=9))
        assert np.all(np.isfinite(track.pitches_hz))
        assert np.all(track.pitches_hz >= 0)

    def test_voiced_pitches_stay_in_range(self):
        cfg = PitchConfig()
        track = track_pitch(synth.vibrato_sine(880.0, 1.0, depth_hz=20.0), cfg)
        voiced = track.pitches_hz[track.pitches_hz > 0]
        assert np.all(voiced >= cfg.fmin_hz)
        assert np.all(voiced <= cfg.fmax_hz)


    # hypothesis' default 100 examples; CI runs it again under the
    # `equivalence` profile (tests/conftest.py), at 1000. The explicit examples
    # pin one frame and a last block of one at the default settings
    @settings(deadline=None)
    @given(tracker_cases())
    @example(default_case(1))
    @example(default_case(BLOCK_FRAMES + 1))
    @example(default_case(2 * BLOCK_FRAMES + 1))
    def test_matches_loop_tracker(self, case):
        assert_matches_loop_tracker(*case)

    def test_constant_opening_at_a_dc_offset(self):
        # the first two frames hold one value, 0.3: their difference
        # function is exactly 0 at every lag, so they are unvoiced although
        # loud; the frames after them take in the tone one hop at a time
        cfg = PitchConfig()
        flat = cfg.frame_length + cfg.hop_length
        tone = 0.5 * synth.vibrato_sine(330.0, 1.0).samples
        w = Waveform(0.3 + np.concatenate([np.zeros(flat), tone]), CANONICAL_RATE)
        pitches = track_pitch(w, cfg).pitches_hz
        assert np.all(pitches[:2] == 0)
        assert np.count_nonzero(pitches) > 0.9 * len(pitches)
        assert_matches_loop_tracker(w, cfg)

    def test_concurrent_calls_match_serial_ones(self):
        # each call tracks in its own buffers: threads that track different
        # channels at once, switching often, get the serial calls' arrays
        channels = [synth.vibrato_sine(f0, 9.0) for f0 in (180.0, 260.0, 410.0, 620.0)]
        serial = [track_pitch(w).pitches_hz for w in channels]
        start = threading.Barrier(len(channels), timeout=60)

        def track(w):
            start.wait()
            return track_pitch(w).pitches_hz

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(channels)) as pool:
                for _ in range(3):
                    for got, want in zip(pool.map(track, channels, timeout=60), serial):
                        np.testing.assert_array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

    def test_working_memory_flat_in_input_length(self):
        w = synth.vibrato_sine(220.0, 180.0)
        tracemalloc.start()
        try:
            track_pitch(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the buffers for one block of BLOCK_FRAMES = 256 frames take about
        # 2.9 MiB at the default settings, 20 s or 180 s alike (before they
        # were reused, 256 frames took 4.3 MB)
        assert peak < 3 * 2 ** 20


class TestPitchConfig:
    @pytest.mark.parametrize("field", [
        "frame_seconds", "hop_seconds", "threshold", "fmin_hz", "fmax_hz"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigInvalidError, match="finite"):
            PitchConfig(**{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"fmin_hz": 500.0, "fmax_hz": 500.0}, "need 0 < fmin < fmax, got 500.0..500.0"),
        ({"fmin_hz": 600.0, "fmax_hz": 300.0}, "need 0 < fmin < fmax, got 600.0..300.0"),
        ({"fmax_hz": 4000.0}, "fmax 4000.0 Hz at or above Nyquist of 8000 Hz"),
        ({"threshold": 0.0}, "threshold must be positive"),
        ({"hop_seconds": 0.00005}, "hop shorter than one sample"),
        ({"frame_seconds": 1e305}, "frame_seconds=1e\\+305 is not a finite number of samples"),
        ({"hop_seconds": 1e305}, "hop_seconds=1e\\+305 is not a finite number of samples"),
        ({"frame_seconds": -1e305}, "frame_seconds=-1e\\+305 is not a finite number"),
    ])
    def test_out_of_range_rejected(self, fields, message):
        with pytest.raises(ConfigInvalidError, match=message):
            PitchConfig(**fields)

    @pytest.mark.parametrize("pitches, message", [
        (np.full((2, 3), 220.0), "must be 1-D"),
        ([220.0, -1.0, 0.0], "finite and non-negative"),
    ])
    def test_bad_track_rejected(self, pitches, message):
        with pytest.raises(ConfigInvalidError, match=message):
            PitchTrack(pitches, 0.01)

    def test_range_without_a_whole_sample_period_rejected(self):
        # 8000/101 = 79.2 and 8000/100.5 = 79.6: no integer lag in between
        with pytest.raises(ConfigInvalidError, match="whole-sample period"):
            PitchConfig(fmin_hz=100.5, fmax_hz=101.0)
        PitchConfig(fmin_hz=100.0, fmax_hz=101.0)  # lag 80


class TestSemitones:
    def test_a440_maps_to_69(self):
        track = PitchTrack(np.array([440.0, 880.0, 0.0]), 0.01, 55.0, 1000.0)
        semis = to_semitones(track)
        np.testing.assert_allclose(semis.pitches_hz[:2], [69.0, 81.0])
        assert semis.pitches_hz[2] == 0.0

    def test_constant_hz_offset_is_not_constant_semitones(self):
        track_a = PitchTrack(np.array([200.0, 210.0]), 0.01, 55.0, 1000.0)
        track_b = PitchTrack(np.array([300.0, 310.0]), 0.01, 55.0, 1000.0)
        va = np.diff(to_semitones(track_a).pitches_hz)
        vb = np.diff(to_semitones(track_b).pitches_hz)
        assert va[0] != vb[0]  # same Hz step, different semitone step
