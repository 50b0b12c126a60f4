import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singersep import synth
from singersep.backends import (
    KIND_EXTERNAL,
    KIND_ORACLE,
    STAGE2,
    CandidateModel,
    OracleSpec,
    SeparationBackend,
)
from singersep.errors import (
    BackendFailureError,
    ConfigInvalidError,
    FrameMismatchError,
    TooShortError,
)
from singersep.pitch import PitchConfig, PitchTrack
from singersep.selection import (
    PENALTY_SCORE,
    check_scoring,
    select_model,
    trend,
    trend_distance,
)

from conftest import make_duet_refs, oracle_candidate


def brute_force_trend_distance(pa, pb):
    """Independent plain-loop evaluation of the trend-distance rule.

    Trends are adjacent pitch differences; term i counts only when pitch
    frames i-1, i, i+1 are all voiced on both channels (windows that leave
    the track are dropped); an entirely unvoiced channel is the penalty.
    """
    pa, pb = list(pa), list(pb)
    n = len(pa)
    if all(p == 0 for p in pa) or all(p == 0 for p in pb):
        return PENALTY_SCORE
    va = [pa[i + 1] - pa[i] for i in range(n - 1)]
    vb = [pb[i + 1] - pb[i] for i in range(n - 1)]
    total = 0.0
    for i in range(len(va)):
        if i - 1 < 0 or i + 1 > n - 1:
            continue
        if all(pa[j] > 0 and pb[j] > 0 for j in (i - 1, i, i + 1)):
            total += abs(va[i] - vb[i])
    return total


def brute_force_blocked_trend_distance(pa, pb, block):
    """Plain per-block loop of the blocked trend-distance rule.

    The tracks are cut into blocks of ``block`` frames; a trailing block
    under 3 frames is dropped; every kept block is scored on its own by
    the whole-track rule and the scores are summed, so no window bridges
    two blocks; an entirely unvoiced channel in any kept block is the
    penalty.
    """
    total = 0.0
    for start in range(0, len(pa), block):
        part_a = list(pa[start:start + block])
        part_b = list(pb[start:start + block])
        if len(part_a) < 3:
            break
        part = brute_force_trend_distance(part_a, part_b)
        if part == PENALTY_SCORE:
            return PENALTY_SCORE
        total += part
    return total


def _track(values, hop=0.010):
    return PitchTrack(np.asarray(values, dtype=float), hop, 1.0, 2000.0)


class TestTrend:
    def test_literal_differences(self):
        np.testing.assert_array_equal(trend(_track([100, 110, 120])), [10.0, 10.0])

    def test_constant_is_zero(self):
        np.testing.assert_array_equal(trend(_track([180] * 5)), np.zeros(4))

    def test_single_frame_too_short(self):
        with pytest.raises(TooShortError):
            trend(_track([200]))

    def test_zeros_kept_raw(self):
        np.testing.assert_array_equal(trend(_track([100, 0, 100])), [-100.0, 100.0])


class TestTrendDistance:
    def test_identical_tracks_zero(self):
        t = _track([100, 110, 120, 130, 125])
        score = trend_distance(t, t)
        assert score.score == 0.0
        assert not score.penalized
        assert score.contributing_frames == 3

    def test_silent_channel_penalized(self):
        t = _track([100, 110, 120, 130])
        z = _track([0, 0, 0, 0])
        for a, b in ((t, z), (z, t)):
            score = trend_distance(a, b)
            assert score.penalized
            assert score.score == PENALTY_SCORE

    def test_frozen_masked_example(self):
        # interior windows only: terms at i=1 and i=2 survive, 5 + 5
        pa = _track([100, 110, 120, 130])
        pb = _track([100, 105, 120, 135])
        expected = brute_force_trend_distance(pa.pitches_hz, pb.pitches_hz)
        assert expected == 10.0
        score = trend_distance(pa, pb)
        assert score.score == expected
        assert score.contributing_frames == 2

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pa = _track(rng.choice([0, 100, 150, 220, 300], size=10))
            pb = _track(rng.choice([0, 100, 150, 220, 300], size=10))
            assert trend_distance(pa, pb).score == trend_distance(pb, pa).score

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            trend_distance(_track([1, 2, 3]), _track([1, 2, 3, 4]))

    def test_hop_mismatch(self):
        with pytest.raises(FrameMismatchError):
            trend_distance(_track([1, 2, 3]), _track([1, 2, 3], hop=0.02))

    def test_too_few_frames(self):
        with pytest.raises(FrameMismatchError):
            trend_distance(_track([1, 2]), _track([1, 2]))

    def test_score_zero_iff_unmasked_terms_zero(self):
        # voiced everywhere, parallel trends offset by a constant
        pa = _track([200, 210, 205, 215])
        pb = _track([303, 313, 308, 318])
        assert trend_distance(pa, pb).score == 0.0

    def test_matches_brute_force_on_random_integer_tracks(self):
        rng = np.random.default_rng(99)
        values = np.concatenate([[0], np.arange(50, 401)])
        for _ in range(1000):
            n = rng.integers(3, 13)
            pa = values[rng.integers(0, len(values), n)]
            pb = values[rng.integers(0, len(values), n)]
            got = trend_distance(_track(pa), _track(pb)).score
            assert got == brute_force_trend_distance(pa, pb)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_zeroing_a_frame_never_raises_score(self, data):
        n = data.draw(st.integers(4, 12))
        values = st.sampled_from([0.0, 80.0, 120.0, 200.0, 350.0])
        pa = data.draw(st.lists(values, min_size=n, max_size=n))
        pb = data.draw(st.lists(values, min_size=n, max_size=n))
        assume(any(p > 0 for p in pa) and any(p > 0 for p in pb))
        k = data.draw(st.integers(0, n - 1))
        pa_zeroed = list(pa)
        pa_zeroed[k] = 0.0
        # stays out of penalty territory
        assume(any(p > 0 for p in pa_zeroed))
        before = trend_distance(_track(pa), _track(pb)).score
        after = trend_distance(_track(pa_zeroed), _track(pb)).score
        assert after <= before


class TestBlockedTrendDistance:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_per_block_loop(self, data):
        n = data.draw(st.integers(3, 80))
        block = data.draw(st.integers(3, 30))
        values = st.one_of(st.just(0.0), st.floats(50.0, 400.0))
        pa = data.draw(st.lists(values, min_size=n, max_size=n))
        pb = data.draw(st.lists(values, min_size=n, max_size=n))
        expected = brute_force_blocked_trend_distance(pa, pb, block)
        got = trend_distance(_track(pa), _track(pb), block_frames=block)
        assert got.penalized == (expected == PENALTY_SCORE)
        assert got.score == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_block_spanning_track_is_whole_input(self):
        pa = _track([100, 110, 120, 130, 125])
        pb = _track([100, 105, 120, 135, 125])
        whole = trend_distance(pa, pb)
        assert trend_distance(pa, pb, block_frames=5) == whole
        assert trend_distance(pa, pb, block_frames=50) == whole

    def test_window_never_bridges_blocks(self):
        # blocks [0, 3) and [3, 6): only indices 1 and 4 are inside a block
        pa = _track([100, 110, 120, 130, 140, 150])
        pb = _track([100, 100, 100, 100, 100, 100])
        score = trend_distance(pa, pb, block_frames=3)
        assert score.contributing_frames == 2
        assert score.score == 20.0

    def test_unvoiced_kept_block_penalized_trailing_block_not(self):
        voiced = [100, 110, 120, 130, 140, 150]
        # frames 6-7 form a trailing block under 3 frames: dropped
        pa = _track(voiced + [0, 0])
        pb = _track(voiced + [100, 110])
        assert not trend_distance(pa, pb, block_frames=3).penalized
        # a silent channel in a kept block penalizes the candidate
        pa = _track([0, 0, 0] + voiced[3:] + [100, 110])
        score = trend_distance(pa, pb, block_frames=3)
        assert score.penalized and score.score == PENALTY_SCORE

    def test_short_track_rejected_as_in_whole_input(self):
        with pytest.raises(FrameMismatchError):
            trend_distance(_track([100, 110]), _track([100, 110]), block_frames=3)

    def test_block_under_three_frames_rejected(self):
        t = _track([100, 110, 120, 130])
        with pytest.raises(ConfigInvalidError):
            trend_distance(t, t, block_frames=2)


class TestSelectModel:
    def test_argmin_by_leak(self, tmp_path):
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=1, seconds=4.0)
        mix = synth.silence(4.0)
        mix.samples[:] = ref_a.samples + ref_b.samples
        cands = [
            oracle_candidate("leaky", pa, pb, leak=0.4),
            oracle_candidate("clean", pa, pb, leak=0.0),
        ]
        result = select_model(mix, cands, workdir=tmp_path)
        assert result.chosen == "clean"
        assert {s.model_id for s in result.scores} == {"clean", "leaky"}
        assert not result.all_penalized

    def test_tie_breaks_to_smaller_model_id(self, tmp_path):
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=2, seconds=3.0)
        mix = ref_a
        cands = [
            oracle_candidate("model-b", pa, pb),
            oracle_candidate("model-a", pa, pb),
        ]
        result = select_model(mix, cands, workdir=tmp_path)
        assert result.chosen == "model-a"

    def test_silent_channel_never_beats_finite(self, tmp_path):
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=3, seconds=3.0)
        silent = tmp_path / "silent.wav"
        from singersep.audio import write_wav
        write_wav(synth.silence(3.0), silent)
        cands = [
            oracle_candidate("degenerate", pa, silent),  # channel B all silence
            oracle_candidate("honest", pa, pb, leak=0.3),
        ]
        result = select_model(ref_a, cands, workdir=tmp_path)
        assert result.chosen == "honest"
        by_id = {s.model_id: s for s in result.scores}
        assert by_id["degenerate"].penalized
        assert not by_id["honest"].penalized

    def test_parallel_trends_beat_diverging(self, tmp_path):
        from singersep.audio import write_wav
        seconds = 4.0
        base = synth.vibrato_sine(200.0, seconds, depth_hz=3.0)
        offset = synth.vibrato_sine(203.0, seconds, depth_hz=3.0)  # parallel contour
        diverging = synth.vibrato_sine(310.0, seconds, depth_hz=3.0,
                                       vibrato_phase=np.pi)  # opposite wobble
        paths = {}
        for name, w in (("base", base), ("offset", offset), ("div", diverging)):
            paths[name] = tmp_path / f"{name}.wav"
            write_wav(w, paths[name])
        cands = [
            oracle_candidate("X-parallel", paths["base"], paths["offset"]),
            oracle_candidate("Y-diverging", paths["base"], paths["div"]),
        ]
        result = select_model(base, cands, workdir=tmp_path)
        assert result.chosen == "X-parallel"

    def test_failed_backend_excluded_not_fatal(self, tmp_path):
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=4, seconds=3.0)
        broken = CandidateModel("broken", SeparationBackend(
            kind=KIND_ORACLE, stage=STAGE2,
            oracle=OracleSpec(str(tmp_path / "missing.wav"), str(pb))))
        cands = [broken, oracle_candidate("ok", pa, pb)]
        result = select_model(ref_a, cands, workdir=tmp_path)
        assert result.chosen == "ok"
        by_id = {s.model_id: s for s in result.scores}
        assert by_id["broken"].error is not None

    def test_all_backends_failed_raises(self, tmp_path):
        broken = CandidateModel("broken", SeparationBackend(
            kind=KIND_ORACLE, stage=STAGE2,
            oracle=OracleSpec(str(tmp_path / "nope.wav"), str(tmp_path / "nah.wav"))))
        with pytest.raises(BackendFailureError):
            select_model(synth.sine(220.0, 1.0), [broken], workdir=tmp_path)

    def test_no_candidates_raises(self):
        with pytest.raises(BackendFailureError):
            select_model(synth.sine(220.0, 1.0), [])

    @pytest.mark.parametrize("bad", [
        {"units": "cents"},
        {"pitch_config": PitchConfig(fmin_hz=100.5, fmax_hz=101.0)},
        {"segment_seconds": math.inf},
    ])
    def test_bad_settings_rejected_before_any_backend(self, tmp_path, bad):
        marker = tmp_path / "backend-ran"
        touch = CandidateModel("marker", SeparationBackend(
            kind=KIND_EXTERNAL, stage=STAGE2,
            command=(f'{sys.executable} -c "import pathlib, sys; '
                     f'pathlib.Path(sys.argv[1]).touch()" {marker} '
                     "{input} {out_a} {out_b}")))
        with pytest.raises((ValueError, ConfigInvalidError)):
            select_model(synth.sine(220.0, 1.0), [touch], workdir=tmp_path,
                         **bad)
        assert not marker.exists()


class TestCheckScoring:
    def test_block_length_in_frames(self):
        cfg = PitchConfig()
        assert check_scoring(cfg, "hz", None) is None
        assert check_scoring(cfg, "semitones", 1.0) == round(1.0 / cfg.hop_seconds)
        assert check_scoring(cfg, "hz", 1e-6) == 3
