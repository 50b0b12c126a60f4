import math
import os
import shlex
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from singersep import selection, synth
from singersep.audio import Waveform, write_wav
from singersep.backends import (
    KIND_EXTERNAL,
    KIND_ORACLE,
    STAGE2,
    CandidateModel,
    OracleSpec,
    SeparationBackend,
)
from singersep.dataset import mix_at_snr
from singersep.errors import (
    BackendFailureError,
    ConfigInvalidError,
    FrameMismatchError,
)
from singersep.pitch import PitchConfig, PitchTrack, track_pitch
from singersep.selection import (
    DUPLICATE_MAX_LAG,
    DUPLICATE_SIMILARITY,
    PENALTY_SCORE,
    channel_similarity,
    run_jobs,
    score_candidate,
    select_model,
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
        assert trend_distance(pa, pb, block_frames=10 ** 300) == whole

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


def _delayed(x, lag):
    """``x`` delayed by ``lag`` samples (advanced when negative), zero-filled."""
    out = np.zeros_like(x)
    if lag >= 0:
        out[lag:] = x[:x.size - lag]
    else:
        out[:lag] = x[-lag:]
    return out


class TestDuplicateChannels:
    @pytest.mark.parametrize("copy", [
        lambda x: x,
        lambda x: 0.3 * x,
        lambda x: -x,
        lambda x: _delayed(x, 40),
        lambda x: _delayed(-0.5 * x, -DUPLICATE_MAX_LAG),
    ], ids=["plain", "scaled", "negated", "delayed-40", "advanced-80-scaled-negated"])
    def test_copies_penalized_without_tracking(self, tmp_path, copy):
        (ref_a, _), (ref_b, _) = make_duet_refs(tmp_path, seed=21, seconds=3.0)
        mix = ref_a.samples + ref_b.samples
        pair = (Waveform(mix, ref_a.sample_rate), Waveform(copy(mix), ref_a.sample_rate))
        score = score_candidate(pair, PitchConfig())
        assert score.penalized and score.score == PENALTY_SCORE
        assert score.contributing_frames == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 3000),
           scale=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
           lag=st.integers(-DUPLICATE_MAX_LAG, DUPLICATE_MAX_LAG))
    def test_any_scaled_shifted_copy_scores_one(self, seed, size, scale, lag):
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, size)
        limit = (size - 1) // 2  # shorter inputs try fewer lags
        lag = max(-limit, min(limit, lag))
        assert channel_similarity(x, scale * _delayed(x, lag)) == pytest.approx(1.0)

    def test_oracle_leak_matches_closed_form(self):
        # uncorrelated equal-power voices: 2a(1-a) / (a^2 + (1-a)^2)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 48000))
        for leak, expected in ((0.2, 0.4706), (0.4, 0.9231), (0.45, 0.9802)):
            got = channel_similarity((1 - leak) * a + leak * b,
                                     (1 - leak) * b + leak * a)
            assert got == pytest.approx(expected, abs=0.01)
            assert got < DUPLICATE_SIMILARITY

    def test_empty_channels_score_zero(self):
        assert channel_similarity(np.zeros(0), np.zeros(0)) == 0.0

    def test_silent_channel_scores_zero(self):
        x = synth.vibrato_sine(220.0, 1.0).samples
        assert channel_similarity(x, np.zeros_like(x)) == 0.0
        assert channel_similarity(np.zeros_like(x), x) == 0.0

    @pytest.mark.parametrize("seconds", [20, 180])
    def test_call_peaks_under_2mb(self, seconds):
        rng = np.random.default_rng(9)
        a, b = rng.uniform(-1.0, 1.0, (2, seconds * 8000))
        tracemalloc.start()
        try:
            channel_similarity(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a batch of SIMILARITY_BATCH = 16 FFTs, at any length; batches of
        # 64 took 3.2 MB, and squaring the windows whole 11.7 MB at 180 s
        assert peak < 2 * 10 ** 6

    def test_copy_of_the_mix_loses_to_the_clean_oracle(self, tmp_path):
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=6, seconds=4.0)
        mix = mix_at_snr(ref_a, ref_b, 0.0).mixture
        mix_path = tmp_path / "mix.wav"
        write_wav(mix, mix_path)
        cands = [oracle_candidate("clean", pa, pb),
                 oracle_candidate("copy", mix_path, mix_path)]
        result = select_model(mix, cands, workdir=tmp_path)
        assert result.chosen == "clean"
        by_id = {s.model_id: s for s in result.scores}
        assert by_id["copy"].penalized and by_id["copy"].error is None
        assert not by_id["clean"].penalized


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

    def test_all_penalized_returns_argmin_by_model_id(self, tmp_path):
        (ref_a, pa), _ = make_duet_refs(tmp_path, seed=3, seconds=3.0)
        silent = tmp_path / "silent.wav"
        write_wav(synth.silence(3.0), silent)
        cands = [oracle_candidate("model-b", pa, silent),
                 oracle_candidate("model-a", silent, pa)]
        result = select_model(ref_a, cands, workdir=tmp_path)
        assert result.chosen == "model-a"
        assert result.all_penalized
        assert all(s.score == PENALTY_SCORE for s in result.scores)

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

    def test_failed_backend_penalized_with_its_class_reason(self, tmp_path, monkeypatch):
        class StalledError(BackendFailureError):
            reason = "stalled"

        def run_backend(backend, mixed, workdir=None):
            if backend.oracle.ref_a == "stalled.wav":
                raise StalledError("no output in time")
            return real(backend, mixed, workdir)

        real = selection.run_backend
        monkeypatch.setattr(selection, "run_backend", run_backend)
        (ref_a, pa), (_, pb) = make_duet_refs(tmp_path, seed=4, seconds=3.0)
        cands = [oracle_candidate("stalled", "stalled.wav", pb),
                 oracle_candidate("ok", pa, pb)]
        result = select_model(ref_a, cands, workdir=tmp_path)
        assert result.chosen == "ok"
        stalled = result.scores[0]
        assert (stalled.reason, stalled.error) == ("stalled", "no output in time")
        assert stalled.penalized

    def test_all_backends_failed_raises(self, tmp_path):
        broken = CandidateModel("broken", SeparationBackend(
            kind=KIND_ORACLE, stage=STAGE2,
            oracle=OracleSpec(str(tmp_path / "nope.wav"), str(tmp_path / "nah.wav"))))
        with pytest.raises(BackendFailureError):
            select_model(synth.sine(220.0, 1.0), [broken], workdir=tmp_path)

    def test_background_child_does_not_hold_the_run(self, tmp_path):
        # the command exits at once, leaving a sleeper that would hold any
        # pipe the runner gave it for 20 s
        pid_file = tmp_path / "sleeper.pid"
        sleeper = CandidateModel("sleeper", SeparationBackend(
            kind=KIND_EXTERNAL, stage=STAGE2,
            command=("sh -c 'sleep 20 & echo $! > \"$1\"; exit 1' sh "
                     f"{shlex.quote(str(pid_file))} {{input}} {{out_a}} {{out_b}}")))
        (ref_a, pa), (_, pb) = make_duet_refs(tmp_path, seed=4, seconds=3.0)
        start = time.monotonic()
        try:
            result = select_model(ref_a, [sleeper, oracle_candidate("ok", pa, pb)],
                                  workdir=tmp_path)
            elapsed = time.monotonic() - start
        finally:
            if pid_file.exists():
                try:
                    os.kill(int(pid_file.read_text()), signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert elapsed < 5.0
        assert result.chosen == "ok"
        excluded = next(s for s in result.scores if s.model_id == "sleeper")
        assert excluded.reason == "backend_failed" and "exited 1" in excluded.error

    def test_no_candidates_raises(self):
        with pytest.raises(BackendFailureError):
            select_model(synth.sine(220.0, 1.0), [])

    @pytest.mark.parametrize("bad", [
        {"units": "cents"},
        {"segment_seconds": math.inf},
    ])
    def test_bad_settings_rejected_before_any_backend(self, tmp_path, bad):
        # the settings are checked when the config is made, so no selection
        # (and no backend) can start with them
        marker = tmp_path / "backend-ran"
        touch = CandidateModel("marker", SeparationBackend(
            kind=KIND_EXTERNAL, stage=STAGE2,
            command=(f'{sys.executable} -c "import pathlib, sys; '
                     f'pathlib.Path(sys.argv[1]).touch()" {marker} '
                     "{input} {out_a} {out_b}")))
        with pytest.raises(ConfigInvalidError):
            select_model(synth.sine(220.0, 1.0), [touch], workdir=tmp_path,
                         pitch_config=PitchConfig(**bad))
        assert not marker.exists()


class TestScoringConfig:
    def test_block_length_in_frames(self):
        cfg = PitchConfig()
        assert cfg.block_frames is None
        blocked = PitchConfig(units="semitones", segment_seconds=1.0)
        assert blocked.block_frames == round(1.0 / cfg.hop_seconds)
        assert PitchConfig(segment_seconds=1e-6).block_frames == 3

    @settings(max_examples=200, deadline=None)
    @given(seconds=st.floats(1e-300, 1e6, allow_nan=False, allow_infinity=False),
           hop=st.sampled_from([0.005, 0.01, 0.0125, 0.02]))
    def test_block_frames_rounds_segment_to_hops(self, seconds, hop):
        cfg = PitchConfig(hop_seconds=hop, segment_seconds=seconds)
        assert cfg.block_frames == max(3, round(seconds / hop))

    @pytest.mark.parametrize("bad", [
        {"units": "cents"},
        {"units": "HZ"},
        {"units": None},
        {"segment_seconds": 0.0},
        {"segment_seconds": -1.0},
        {"segment_seconds": math.nan},
        {"segment_seconds": math.inf},
        {"segment_seconds": -math.inf},
        {"segment_seconds": 1e308},  # finite, but not in frames
    ])
    def test_bad_scoring_settings_rejected_when_made(self, bad):
        with pytest.raises(ConfigInvalidError,
                           match="units" if "units" in bad else "segment length"):
            PitchConfig(**bad)

    @pytest.mark.parametrize("segment_seconds", [None, 0.5, 1.0])
    def test_blocked_selection_scores_equal_trend_distance(
            self, tmp_path, segment_seconds):
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=6, seconds=3.0)
        mix = mix_at_snr(ref_a, ref_b, 0.0).mixture
        cfg = PitchConfig(segment_seconds=segment_seconds)
        handed = []
        result = select_model(mix, [oracle_candidate("clean", pa, pb)],
                              pitch_config=cfg, workdir=tmp_path, jobs=1,
                              on_outputs=lambda model_id, pair, leads: handed.append(pair))
        ((out_a, out_b),) = handed
        expected = trend_distance(track_pitch(out_a, cfg), track_pitch(out_b, cfg),
                                  block_frames=cfg.block_frames)
        (score,) = result.scores
        assert (score.score, score.contributing_frames) == (
            expected.score, expected.contributing_frames)


def copy_command(model_id, ref_a_path, ref_b_path):
    """An external stage-2 candidate that copies two oracle references."""
    copy = (f'{sys.executable} -c "import shutil, sys; '
            "shutil.copy(sys.argv[1], sys.argv[3]); "
            'shutil.copy(sys.argv[2], sys.argv[4])" '
            f"{shlex.quote(str(ref_a_path))} {shlex.quote(str(ref_b_path))} "
            "{out_a} {out_b} {input}")
    return CandidateModel(model_id, SeparationBackend(
        kind=KIND_EXTERNAL, stage=STAGE2, command=copy))


class _Yielding(float):
    """A score that lets other threads run while it is compared."""

    def __eq__(self, other):
        time.sleep(0)
        return float.__eq__(self, other)

    def __lt__(self, other):
        time.sleep(0)
        return float.__lt__(self, other)

    __hash__ = float.__hash__


@pytest.fixture(scope="module")
def mixed_registry(tmp_path_factory):
    """A 2 s duet, three oracles and one external candidate (registry order),
    the registry-order selection with one worker, and the pairs it handed over."""
    tmp = tmp_path_factory.mktemp("order")
    (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp, seed=9, seconds=2.0)
    mix = mix_at_snr(ref_a, ref_b, 0.0).mixture
    cands = [oracle_candidate("leak", pa, pb, leak=0.3),
             oracle_candidate("swap", pa, pb, swap=True),
             oracle_candidate("noise", pa, pb, noise_snr_db=10.0, noise_seed=1),
             copy_command("ext", pa, pb)]
    pairs = {}

    def take(model_id, pair, leads):
        pairs[model_id] = pair

    baseline = select_model(mix, cands, workdir=tmp, jobs=1, on_outputs=take)
    return mix, cands, baseline, pairs, tmp


class TestStartOrder:
    def test_external_candidate_runs_first_scores_in_registry_order(
            self, tmp_path, monkeypatch):
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=8, seconds=2.0)
        mix = mix_at_snr(ref_a, ref_b, 0.0).mixture
        cands = [oracle_candidate("clean", pa, pb),
                 oracle_candidate("leaky", pa, pb, leak=0.3),
                 copy_command("ext", pa, pb)]
        ran = []
        run_backend = selection.run_backend

        def recording(backend, *args, **kwargs):
            ran.append(next(c.model_id for c in cands if c.backend is backend))
            return run_backend(backend, *args, **kwargs)

        monkeypatch.setattr(selection, "run_backend", recording)
        handed = []
        result = select_model(mix, cands, workdir=tmp_path, jobs=1,
                              on_outputs=lambda model_id, pair, leads: handed.append(model_id))
        assert ran == ["ext", "clean", "leaky"]
        assert [s.model_id for s in result.scores] == ["clean", "leaky", "ext"]
        # one worker hands each pair over as it finishes, in start order
        assert handed == ["ext", "clean", "leaky"]

    @settings(max_examples=8, deadline=None)
    @given(order=st.permutations(range(4)), jobs=st.sampled_from([1, 2, 4]))
    def test_outcome_independent_of_registry_order_and_jobs(
            self, mixed_registry, order, jobs):
        mix, cands, baseline, baseline_pairs, tmp = mixed_registry
        given_order = [cands[i] for i in order]
        handed, leading, under_way = {}, [], []
        calls = 0  # hand-offs entered and not yet left

        def take(model_id, pair, leads):
            nonlocal calls
            calls += 1
            under_way.append(calls)
            time.sleep(0.001)  # room for another hand-off to overlap this one
            handed[model_id] = pair
            if leads:
                leading.append(model_id)
            calls -= 1

        result = select_model(mix, given_order, workdir=tmp, jobs=jobs, on_outputs=take)
        assert [s.model_id for s in result.scores] == [c.model_id for c in given_order]
        assert handed.keys() == {c.model_id for c in given_order}
        # the workers hand their pairs over one at a time
        assert under_way == [1] * len(given_order)
        # the last pair handed over as leading is the chosen one's
        assert leading[-1] == result.chosen
        for got, want in zip(handed[result.chosen], baseline_pairs[baseline.chosen]):
            assert got.samples.tobytes() == want.samples.tobytes()
        by_id = {s.model_id: s for s in baseline.scores}
        assert all(s == by_id[s.model_id] for s in result.scores)
        assert result.chosen == baseline.chosen
        assert result.all_penalized == baseline.all_penalized

    def test_pairs_handed_over_as_they_finish(self, tmp_path, monkeypatch):
        # each backend waits for the hand-off of the candidate after it in
        # the registry, so they finish in reverse registry order; a reader
        # in registry order would wait on the first until the gates time out
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=7, seconds=2.0)
        mix = mix_at_snr(ref_a, ref_b, 0.0).mixture
        cands = [oracle_candidate("clean", pa, pb),
                 oracle_candidate("leaky", pa, pb, leak=0.3),
                 oracle_candidate("swap", pa, pb, swap=True)]
        ids = [c.model_id for c in cands]
        following = dict(zip(ids, ids[1:]))
        handed_over = {model_id: threading.Event() for model_id in ids}
        made = {}
        alive_at_start, alive_at_hand_off = [], []
        run_backend = selection.run_backend

        def alive():
            return sum(any(ref() is not None for ref in refs) for refs in made.values())

        def gated(backend, *args, **kwargs):
            model_id = next(c.model_id for c in cands if c.backend is backend)
            gate = following.get(model_id)
            if gate and not handed_over[gate].wait(timeout=10.0):
                raise AssertionError(f"{gate} was not handed over")
            # a worker lets go of the pair it handed over when its task
            # returns; give it the moment that takes
            deadline = time.monotonic() + 5.0
            while alive() and time.monotonic() < deadline:
                time.sleep(0.001)
            alive_at_start.append(alive())
            pair = run_backend(backend, *args, **kwargs)
            made[model_id] = [weakref.ref(w) for w in pair]
            return pair

        def take(model_id, pair, leads):
            alive_at_hand_off.append(alive())
            handed_over[model_id].set()

        monkeypatch.setattr(selection, "run_backend", gated)
        result = select_model(mix, cands, workdir=tmp_path, jobs=len(cands),
                              on_outputs=take)
        assert [s.model_id for s in result.scores] == ids
        # selection keeps no pair: none while a candidate runs, and at a
        # hand-off only the pair handed over
        assert alive_at_start == [0, 0, 0]
        assert alive_at_hand_off == [1, 1, 1]

    def test_at_most_jobs_pairs_alive(self, tmp_path, monkeypatch):
        # the first hand-off is slow, so the other candidates all finish
        # while it runs; none may make a pair beyond one per worker
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=7, seconds=2.0)
        mix = mix_at_snr(ref_a, ref_b, 0.0).mixture
        cands = [oracle_candidate("clean", pa, pb),
                 oracle_candidate("leaky", pa, pb, leak=0.3),
                 oracle_candidate("swap", pa, pb, swap=True),
                 oracle_candidate("noisy", pa, pb, noise_snr_db=10.0, noise_seed=1)]
        made = []
        alive_at_hand_off = []
        run_backend = selection.run_backend

        def tracked(*args, **kwargs):
            pair = run_backend(*args, **kwargs)
            made.append([weakref.ref(w) for w in pair])
            return pair

        def take(model_id, pair, leads):
            alive_at_hand_off.append(
                sum(any(ref() is not None for ref in refs) for refs in made))
            if len(alive_at_hand_off) == 1:
                time.sleep(0.3)

        monkeypatch.setattr(selection, "run_backend", tracked)
        select_model(mix, cands, workdir=tmp_path, jobs=2, on_outputs=take)
        assert len(alive_at_hand_off) == len(cands)
        assert max(alive_at_hand_off) <= 2, alive_at_hand_off

    def test_concurrent_hand_offs_keep_the_best(self, monkeypatch):
        # more workers than cores, a short switch interval and scores that
        # yield mid-comparison: a lost update of the best so far would set
        # ``leads`` wrongly or choose another candidate than the argmin
        rng = np.random.default_rng(3)
        cands = [CandidateModel(f"m{i:02d}", SeparationBackend(
                     kind=KIND_EXTERNAL, stage=STAGE2, command=f"run{i} {{input}}"))
                 for i in range(24)]
        values = {c.backend.command: float(v) for c, v in zip(cands, rng.integers(0, 5, size=24))}
        monkeypatch.setattr(selection, "run_backend", lambda backend, *args, **kwargs: (
            Waveform(np.full(4, values[backend.command]), 8000),) * 2)
        monkeypatch.setattr(selection, "score_candidate", lambda pair, cfg: selection.TrendScore(
            model_id="", score=_Yielding(pair[0].samples[0])))
        keys = {c.model_id: (values[c.backend.command], c.model_id) for c in cands}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 10.0
            for _ in range(20):
                handed = []
                result = select_model(Waveform(np.zeros(4), 8000), cands, jobs=8,
                                      on_outputs=lambda model_id, pair, leads:
                                      handed.append((keys[model_id], leads)))
                assert result.chosen == min(keys, key=keys.get)
                assert [leads for _, leads in handed] == [
                    all(key < earlier for earlier, _ in handed[:i])
                    for i, (key, _) in enumerate(handed)]
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)


class TestRunJobs:
    @pytest.mark.parametrize("cpus, threads, helpers", [(3, 2, 2), (None, 1, 0)])
    def test_jobs_none_sizes_the_pool_from_the_cpu_count(self, monkeypatch, cpus,
                                                          threads, helpers):
        # one worker per CPU counting the calling thread, so a pool of one
        # thread fewer (at least 1), shut down on return
        pools = []

        class Recording:
            def __init__(self, max_workers):
                self.max_workers, self.submits, self.open = max_workers, 0, True
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.open = False

            def submit(self, fn):
                self.submits += 1
                done = Future()
                done.set_result(None)  # the calling thread takes every item
                return done

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run_jobs(Recording, lambda i: -i, list(range(6)), None) == [-i for i in range(6)]
        assert [(p.max_workers, p.submits, p.open) for p in pools] == [(threads, helpers, False)]

    @pytest.mark.parametrize("jobs", [1, 2, 5])
    def test_results_in_item_order(self, jobs):
        # later items finish first, and each thread takes the next item
        def fn(i):
            time.sleep(0.002 * (12 - i))
            return (i, threading.get_ident())

        results = run_jobs(ThreadPoolExecutor, fn, list(range(12)), jobs)
        assert [i for i, _ in results] == list(range(12))
        assert len({ident for _, ident in results}) <= jobs

    def test_lone_worker_is_the_calling_thread(self):
        before = threading.active_count()
        seen = run_jobs(ThreadPoolExecutor,
                        lambda i: (threading.get_ident(), threading.active_count()),
                        list(range(4)), 1)
        assert seen == [(threading.get_ident(), before)] * 4

    def test_first_failure_in_item_order_is_raised(self):
        # item 3 fails last, after item 6 has failed; 3 is raised
        def fn(i):
            if i == 3:
                time.sleep(0.2)
                raise ValueError(i)
            if i == 6:
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as info:
            run_jobs(ThreadPoolExecutor, fn, list(range(10)), 5)
        assert info.value.args == (3,)

    def test_no_item_starts_after_a_failure(self):
        # one worker sleeps in item 0 while the other fails item 1; without
        # the stop, the second would take items 2..9 meanwhile
        started = []

        def fn(i):
            started.append(i)
            if i == 0:
                time.sleep(0.2)
            elif i == 1:
                raise ValueError(i)
            return i

        with pytest.raises(ValueError):
            run_jobs(ThreadPoolExecutor, fn, list(range(10)), 2)
        assert sorted(started) == [0, 1]

    def test_interrupt_of_the_calling_thread_raised_after_the_helpers(self):
        # the helpers' items fail later with another error, and still the
        # interrupt is what the caller sees, once they have finished
        caller = threading.get_ident()
        finished = []

        def fn(i):
            if threading.get_ident() == caller:
                time.sleep(0.05)
                raise KeyboardInterrupt
            try:
                time.sleep(0.2)
                raise ValueError(i)
            finally:
                finished.append(i)

        with pytest.raises(KeyboardInterrupt):
            run_jobs(ThreadPoolExecutor, fn, list(range(10)), 3)
        assert len(finished) == 2

    def test_every_item_runs_once_under_contention(self):
        # more workers than cores and a short switch interval: a lost update
        # of the next item would run an item twice or skip one
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 10.0
            for _ in range(5):
                ran.clear()
                items = list(range(2000))
                assert (run_jobs(ThreadPoolExecutor, lambda i: ran.append(i) or -i, items, 8)
                        == [-i for i in items])
                assert sorted(ran) == items
                assert time.monotonic() < deadline
        finally:
            sys.setswitchinterval(interval)
