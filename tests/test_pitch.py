import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from singersep import synth
from singersep.audio import CANONICAL_RATE, Waveform
from singersep.errors import (
    ConfigInvalidError,
    FrameCountMismatchError,
    MalformedCsvError,
)
from singersep.pitch import (
    PitchConfig,
    PitchTrack,
    load_pitch_track,
    num_frames,
    to_semitones,
    track_pitch,
)


def loop_track_pitch(w: Waveform, config: PitchConfig | None = None) -> PitchTrack:
    """Reference tracker: d(tau) by a loop over lags, the pick by a loop over frames."""
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
        if rms[i] < cfg.silence_rms:
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


@st.composite
def tracker_cases(draw):
    """A valid config and a signal of 1, 255, 256, 257 or 513 frames.

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
    n_frames = draw(st.sampled_from([1, 255, 256, 257, 513]))
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

    def test_digital_silence_all_unvoiced(self):
        track = track_pitch(synth.silence(2.0))
        assert np.all(track.pitches_hz == 0)

    def test_white_noise_mostly_unvoiced(self):
        track = track_pitch(synth.white_noise(2.0, amplitude=1.0, seed=42))
        unvoiced = 1.0 - track.voiced_fraction()
        assert unvoiced >= 0.80

    def test_frame_count_formula(self):
        w = synth.sine(200.0, 1.3)
        cfg = PitchConfig()
        track = track_pitch(w, cfg)
        expected = num_frames(len(w), cfg.frame_length(8000), cfg.hop_length(8000))
        assert len(track) == expected == (len(w) - 320) // 80 + 1

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
        cfg = PitchConfig(fmin_hz=30.0)  # 40 ms frame < 2 periods of 30 Hz
        with pytest.raises(ConfigInvalidError):
            track_pitch(synth.sine(220.0, 1.0), cfg)

    def test_wrong_rate_rejected(self):
        with pytest.raises(ConfigInvalidError):
            track_pitch(synth.sine(220.0, 1.0, rate=44100))

    def test_input_shorter_than_frame(self):
        with pytest.raises(ConfigInvalidError):
            track_pitch(synth.sine(220.0, 0.02))

    def test_no_negative_or_nan_pitches(self):
        track = track_pitch(synth.white_noise(1.0, seed=9))
        assert np.all(np.isfinite(track.pitches_hz))
        assert np.all(track.pitches_hz >= 0)

    def test_voiced_pitches_stay_in_range(self):
        cfg = PitchConfig()
        track = track_pitch(synth.vibrato_sine(880.0, 1.0, depth_hz=20.0), cfg)
        voiced = track.pitches_hz[track.pitches_hz > 0]
        assert np.all(voiced >= cfg.fmin_hz)
        assert np.all(voiced <= cfg.fmax_hz)


    @settings(max_examples=60, deadline=None)
    @given(tracker_cases())
    def test_matches_loop_tracker(self, case):
        w, cfg = case
        fast = track_pitch(w, cfg).pitches_hz
        slow = loop_track_pitch(w, cfg).pitches_hz
        np.testing.assert_array_equal(fast > 0, slow > 0)
        voiced = slow > 0
        np.testing.assert_allclose(fast[voiced], slow[voiced], rtol=1e-9, atol=0)

    def test_working_memory_flat_in_input_length(self):
        w = synth.vibrato_sine(220.0, 180.0)
        tracemalloc.start()
        try:
            track_pitch(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestPitchConfig:
    @pytest.mark.parametrize("field", [
        "frame_seconds", "hop_seconds", "threshold", "fmin_hz", "fmax_hz",
        "silence_rms"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigInvalidError, match="finite"):
            PitchConfig(**{field: value}).validate(CANONICAL_RATE)

    def test_negative_silence_floor_rejected(self):
        with pytest.raises(ConfigInvalidError, match="silence_rms"):
            PitchConfig(silence_rms=-1e-4).validate(CANONICAL_RATE)

    def test_range_without_a_whole_sample_period_rejected(self):
        # 8000/101 = 79.2 and 8000/100.5 = 79.6: no integer lag in between
        with pytest.raises(ConfigInvalidError, match="whole-sample period"):
            PitchConfig(fmin_hz=100.5, fmax_hz=101.0).validate(CANONICAL_RATE)
        PitchConfig(fmin_hz=100.0, fmax_hz=101.0).validate(CANONICAL_RATE)  # lag 80


class TestLoadPitchTrack:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.00,440,0.9\n0.01,441,0.9\n")
        track = load_pitch_track(path)
        np.testing.assert_array_equal(track.pitches_hz, [440.0, 441.0])
        assert track.hop_seconds == 0.010

    def test_low_confidence_zeroed(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.00,440,0.9\n0.01,441,0.2\n")
        track = load_pitch_track(path)
        np.testing.assert_array_equal(track.pitches_hz, [440.0, 0.0])

    def test_two_column_csv_keeps_all(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.00,440\n0.01,441\n0.02,442\n")
        track = load_pitch_track(path)
        np.testing.assert_array_equal(track.pitches_hz, [440.0, 441.0, 442.0])

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("time,frequency,confidence\n0.00,300,0.8\n0.01,301,0.8\n")
        track = load_pitch_track(path)
        np.testing.assert_array_equal(track.pitches_hz, [300.0, 301.0])

    def test_non_numeric_interior_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.00,440,0.9\nnot,a,number\n")
        with pytest.raises(MalformedCsvError):
            load_pitch_track(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.0,1,2,3\n")
        with pytest.raises(MalformedCsvError):
            load_pitch_track(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(MalformedCsvError):
            load_pitch_track(path)

    def test_frame_count_mismatch(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0.00,440\n0.01,441\n")
        with pytest.raises(FrameCountMismatchError):
            load_pitch_track(path, expected_frames=10)

    def test_frame_count_within_slack(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("\n".join(f"{0.01 * i:.2f},{200 + i}" for i in range(10)))
        track = load_pitch_track(path, expected_frames=12)
        assert len(track) == 12
        # trailing frames fall back to the nearest (last) row
        assert track.pitches_hz[-1] == 209.0

    def test_nearest_time_resampling(self, tmp_path):
        # 5 ms source hop onto the 10 ms pipeline grid
        path = tmp_path / "p.csv"
        rows = [f"{0.005 * i:.3f},{100 + i}" for i in range(8)]
        path.write_text("\n".join(rows))
        track = load_pitch_track(path)
        np.testing.assert_array_equal(track.pitches_hz[:4], [100, 102, 104, 106])


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
