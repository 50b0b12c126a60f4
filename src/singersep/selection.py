"""Model auto-selection by pitch-trend distance.

Each stage-2 candidate separates the mixed vocal into two channels; the
channels are pitch-tracked and scored by how closely their frame-to-frame
pitch trends move together. Per trend index i, the term |vA_i - vB_i|
counts only when the three pitch frames i-1, i, i+1 are voiced on BOTH
channels (a sliding window of three, so passages where only one singer is
audible are skipped). A channel that is unvoiced everywhere earns the
penalty sentinel, which disqualifies degenerate separations that dump one
singer into silence. The candidate with the smallest score wins.

Beyond the paper, a candidate whose two channels are one signal (a copy of
the input, scaled, negated or delayed by up to one hop) earns the same
penalty before any pitch tracking: identical channels have identical
trends, so the rule alone would give such a copy the best possible score.
"""

from __future__ import annotations

import logging
import os
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import BLOCK_SAMPLES, Waveform
from .backends import KIND_EXTERNAL, CandidateModel, run_backend
from .errors import BackendFailureError, ConfigInvalidError, FrameMismatchError
from .pitch import TREND_FRAMES, PitchConfig, PitchTrack, to_semitones, track_pitch

log = logging.getLogger(__name__)

# Strictly above any achievable finite score (frames x fmax is orders less).
PENALTY_SCORE = 1e12

# Channels at least this similar are penalized as duplicates. An oracle that
# leaks a fraction a of each uncorrelated, equal-power voice into the other
# reaches 2a(1-a) / (a^2 + (1-a)^2): 0.92 at a = 0.4, 0.98 at 0.45, 0.99 at 0.465.
DUPLICATE_SIMILARITY = 0.99
# Longest delay between duplicated channels that is caught: one 10 ms hop at 8 kHz.
DUPLICATE_MAX_LAG = 80
# channel_similarity's FFT length, and FFTs per batch: the batch, one block
# of samples, bounds the FFTs' working memory at any input length.
SIMILARITY_FFT = 2048
SIMILARITY_BATCH = BLOCK_SAMPLES // SIMILARITY_FFT


@dataclass
class TrendScore:
    model_id: str
    score: float | None  # None when selection was bypassed
    contributing_frames: int = 0
    penalized: bool = False
    error: str | None = None
    # why penalized: silent_channel, duplicate_channels or backend_failed
    reason: str | None = None

    @classmethod
    def penalty(cls, reason: str, model_id: str = "",
                error: str | None = None) -> TrendScore:
        """The penalty sentinel's record: why, and the backend error if one caused it."""
        return cls(model_id=model_id, score=PENALTY_SCORE, penalized=True,
                   error=error, reason=reason)


def trend_distance(pa: PitchTrack, pb: PitchTrack,
                   block_frames: int | None = None) -> TrendScore:
    """Sum of |vA_i - vB_i| over trend indices whose voicing window holds.

    The window for v_i is pitch frames i-1, i, i+1 (indexed at v's left
    endpoint); indices whose window leaves its block are masked out. The
    track is cut into blocks of ``block_frames`` frames (None: one block
    spanning the whole track), and a trailing block under TREND_FRAMES
    frames is dropped. If every frame of either channel is unvoiced in some
    kept block, the penalty sentinel is returned instead of a sum.
    """
    if len(pa) != len(pb):
        raise FrameMismatchError(f"frame counts differ: {len(pa)} vs {len(pb)}")
    if abs(pa.hop_seconds - pb.hop_seconds) > 1e-12:
        raise FrameMismatchError(
            f"hops differ: {pa.hop_seconds} vs {pb.hop_seconds}")
    if len(pa) < TREND_FRAMES:
        raise FrameMismatchError(f"need at least {TREND_FRAMES} frames, got {len(pa)}")
    if block_frames is not None and block_frames < TREND_FRAMES:
        raise ConfigInvalidError(
            f"blocks need at least {TREND_FRAMES} frames, got {block_frames}")

    a = pa.pitches_hz
    b = pb.pitches_hz
    n = len(a)
    block = n if block_frames is None else min(block_frames, n)
    starts = np.arange(0, n, block)
    voiced_ab = np.vstack((a, b)) > 0
    voiced_per_block = np.logical_or.reduceat(voiced_ab, starts, axis=1)
    if not voiced_per_block[:, n - starts >= TREND_FRAMES].all():
        return TrendScore.penalty("silent_channel")

    va = np.diff(a)
    vb = np.diff(b)
    voiced = voiced_ab.all(axis=0)
    # window over v index i: pitch frames i-1, i, i+1; it leaves the block
    # when i is a block's first frame or i+1 is the next block's first
    idx = np.arange(1, len(va))
    mask = (voiced[idx - 1] & voiced[idx] & voiced[idx + 1]
            & (idx % block != 0) & ((idx + 1) % block != 0))
    terms = np.abs(va[idx] - vb[idx])[mask]
    return TrendScore(
        model_id="",
        score=float(terms.sum()),
        contributing_frames=int(mask.sum()),
    )


def channel_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |normalized cross-correlation| of two equal-length channels
    over lags |l| <= DUPLICATE_MAX_LAG (fewer when the channels are too short).

    Each lag pairs one fixed middle window of ``b`` with the window of ``a``
    shifted by l, and is divided by the root of the two windows' energies,
    so a copy delayed by up to that many samples scores 1 at any length.
    A lag where either window is silent scores 0, and so do empty channels.

    The middle window is cut into blocks, and each block meets its stretch
    of ``a`` at every lag through one FFT, long enough that no lag wraps
    around. The same sums taken directly (``np.correlate``) cost as much
    alone, but ran several times slower beside the pitch tracker's threads.
    """
    if not len(a):
        return 0.0
    lag = min(DUPLICATE_MAX_LAG, (len(a) - 1) // 2)
    size = min(SIMILARITY_FFT, len(a))
    step = size - 2 * lag
    blocks = (len(a) - 2 * lag) // step
    width = blocks * step  # the middle window; a remainder under one block is left out
    stretches = sliding_window_view(a, size)[::step][:blocks]
    middle = b[lag:lag + width].reshape(blocks, step)
    corr = np.zeros(2 * lag + 1)
    for start in range(0, blocks, SIMILARITY_BATCH):
        batch = slice(start, start + SIMILARITY_BATCH)
        spectrum = np.fft.rfft(stretches[batch])
        spectrum *= np.conj(np.fft.rfft(middle[batch], size))
        corr += np.fft.irfft(spectrum, size)[:, :2 * lag + 1].sum(axis=0)
    # energy of a[k:k + width] for k = 0..2 lag: the first window's, less
    # what has slid off its front, plus what has slid onto its back
    front = np.concatenate(([0.0], np.cumsum(a[:2 * lag] ** 2)))
    back = np.concatenate(([0.0], np.cumsum(a[width:width + 2 * lag] ** 2)))
    # einsum sums the squares without a full-length temporary
    window_energy = np.maximum(np.einsum("i,i->", a[:width], a[:width]) - front + back, 0.0)
    denom = np.sqrt(window_energy * np.einsum("ij,ij->", middle, middle))
    rho = np.zeros_like(corr)
    np.divide(np.abs(corr), denom, out=rho, where=denom > 0)
    return float(rho.max())


@dataclass
class SelectionResult:
    chosen: str
    scores: list[TrendScore]
    all_penalized: bool = False


def score_candidate(outputs: tuple[Waveform, Waveform], cfg: PitchConfig) -> TrendScore:
    """Pitch-track a candidate's two output channels and score the trends
    in ``cfg.units``.

    With ``cfg.block_frames`` set, the trends are scored in fixed-length
    frame blocks (see ``trend_distance``): the mask never bridges a block
    boundary, and a block where either channel is fully unvoiced penalizes
    the whole candidate. Channels whose ``channel_similarity`` reaches
    DUPLICATE_SIMILARITY are penalized without being tracked.
    """
    if channel_similarity(outputs[0].samples,
                          outputs[1].samples) >= DUPLICATE_SIMILARITY:
        return TrendScore.penalty("duplicate_channels")
    ta = track_pitch(outputs[0], cfg)
    tb = track_pitch(outputs[1], cfg)
    if cfg.units == "semitones":
        ta, tb = to_semitones(ta), to_semitones(tb)
    return trend_distance(ta, tb, block_frames=cfg.block_frames)


def check_jobs(jobs: int | None) -> None:
    """Refuse a worker count under 1; None means one worker per CPU."""
    if jobs is not None and jobs < 1:
        raise ConfigInvalidError(f"jobs must be at least 1, got {jobs}")


def run_jobs(executor: Callable[..., Executor], fn: Callable, items: Sequence,
             jobs: int | None) -> list:
    """``[fn(item) for item in items]`` on ``jobs`` workers counting the
    calling thread (None means one per CPU): the calling thread, and
    ``jobs - 1`` tasks submitted to the pool that
    ``executor(max_workers=max(1, jobs - 1))`` opens here and shuts down on
    return, each worker taking the next item when it finishes one. One
    worker, or one item, submits nothing, so a pool that starts its threads
    on submit starts none.

    After an item fails no item starts; those under way finish, and the
    failure of the first item in order is raised. An interrupt of the
    calling thread is raised as itself once the pool's tasks have returned.
    """
    workers = jobs or os.cpu_count() or 1
    results = [None] * len(items)
    failures: dict[int, Exception] = {}
    lock = threading.Lock()
    taken = 0
    stop = False

    def work() -> None:
        nonlocal taken, stop
        while True:
            with lock:
                if stop or taken == len(items):
                    return
                i, taken = taken, taken + 1
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                with lock:
                    stop = True
                    failures[i] = exc
                return

    with executor(max_workers=max(1, workers - 1)) as pool:
        helpers = [pool.submit(work) for _ in range(min(workers, len(items)) - 1)]
        try:
            work()
        finally:
            with lock:
                stop = True  # an interrupt of the calling thread stops the helpers too
            for helper in helpers:
                helper.result()
    if failures:
        raise failures[min(failures)]
    return results


def select_model(mixed_vocal: Waveform,
                 candidates: list[CandidateModel],
                 pitch_config: PitchConfig | None = None,
                 workdir=None,
                 jobs: int | None = None,
                 on_outputs: Callable[[str, tuple[Waveform, Waveform], bool], None]
                 | None = None) -> SelectionResult:
    """Run every stage-2 candidate and keep the one with the closest trends.

    ``pitch_config`` (default ``PitchConfig()``) is the whole scoring rule.
    Candidates run concurrently on ``jobs`` workers (at least 1; None means
    one per CPU) counting the calling thread, so ``jobs - 1`` threads start
    (``run_jobs``, which sizes and opens the pool). The workers run the
    backends and the scoring alike; backend temp files are namespaced per
    invocation. External-command candidates start first, each group in
    candidate order, so their processes run beside the in-process scoring;
    warnings may print in that order. The worker that ran a candidate stores its score at the
    candidate's place in ``scores`` and hands its two channels to
    ``on_outputs(model_id, pair, leads)`` itself (a failed candidate has
    none), one call at a time. ``leads`` is true when the candidate is the
    best so far by the rule below, so the last pair handed over with it set
    is the chosen candidate's. Selection keeps no pair: a worker lets go of
    its pair once handed over, so at most ``jobs`` pairs are alive, each
    beside its worker's scratch. The result is the verdict alone, with no
    audio. The outcome depends on the scores alone, not on start or
    completion order.
    Failed backends are excluded (recorded with an error message) rather
    than fatal; BackendFailureError is raised only when no candidate
    succeeds. Ties break toward the lexicographically smaller model_id. If
    every surviving candidate is penalized, the argmin is still returned
    with ``all_penalized`` set.
    """
    cfg = pitch_config or PitchConfig()
    check_jobs(jobs)
    if not candidates:
        raise BackendFailureError("no stage-2 candidates to select from")

    scores: list[TrendScore | None] = [None] * len(candidates)
    best = None
    handing_over = threading.Lock()

    def run_one(i: int) -> None:
        nonlocal best
        cand = candidates[i]
        try:
            pair = run_backend(cand.backend, mixed_vocal, workdir=workdir)
        except BackendFailureError as exc:
            log.warning("candidate %s failed: %s", cand.model_id, exc)
            scores[i] = TrendScore.penalty(exc.reason, cand.model_id, error=str(exc))
            return
        score = scores[i] = replace(score_candidate(pair, cfg), model_id=cand.model_id)
        with handing_over:
            if best is None or (score.score, score.model_id) < (best.score, best.model_id):
                best = score
            if on_outputs is not None:
                on_outputs(cand.model_id, pair, best is score)

    # external processes first, so they run beside the in-process scoring
    order = sorted(range(len(candidates)),
                   key=lambda i: candidates[i].backend.kind != KIND_EXTERNAL)
    run_jobs(ThreadPoolExecutor, run_one, order, jobs)

    if best is None:
        raise BackendFailureError(
            "every candidate backend failed: "
            + "; ".join(f"{s.model_id}: {s.error}" for s in scores))

    all_penalized = all(s.penalized for s in scores if s.reason != BackendFailureError.reason)
    if all_penalized:
        log.warning("all candidates penalized; returning argmin %s", best.model_id)
    return SelectionResult(
        chosen=best.model_id,
        scores=scores,
        all_penalized=all_penalized,
    )
