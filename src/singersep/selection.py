"""Model auto-selection by pitch-trend distance.

Each stage-2 candidate separates the mixed vocal into two channels; the
channels are pitch-tracked and scored by how closely their frame-to-frame
pitch trends move together. Per trend index i, the term |vA_i - vB_i|
counts only when the three pitch frames i-1, i, i+1 are voiced on BOTH
channels (a sliding window of three, so passages where only one singer is
audible are skipped). A channel that is unvoiced everywhere earns the
penalty sentinel, which disqualifies degenerate separations that dump one
singer into silence. The candidate with the smallest score wins.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .audio import CANONICAL_RATE, Waveform
from .backends import CandidateModel, run_backend
from .errors import (
    BackendFailureError,
    ConfigInvalidError,
    ContractViolationError,
    FrameMismatchError,
    TooShortError,
)
from .pitch import PitchConfig, PitchTrack, to_semitones, track_pitch

log = logging.getLogger(__name__)

# Strictly above any achievable finite score (frames x fmax is orders less).
PENALTY_SCORE = 1e12

# Pitch units trends can be scored in.
UNITS = ("hz", "semitones")


@dataclass
class TrendScore:
    model_id: str
    score: float | None  # None when selection was bypassed
    contributing_frames: int = 0
    penalized: bool = False
    error: str | None = None


def trend(p: PitchTrack) -> np.ndarray:
    """Frame-to-frame pitch difference v_i = p_{i+1} - p_i, zeros included."""
    if len(p) < 2:
        raise TooShortError(f"need at least 2 frames, got {len(p)}")
    return np.diff(p.pitches_hz)


def trend_distance(pa: PitchTrack, pb: PitchTrack,
                   block_frames: int | None = None) -> TrendScore:
    """Sum of |vA_i - vB_i| over trend indices whose voicing window holds.

    The window for v_i is pitch frames i-1, i, i+1 (indexed at v's left
    endpoint); indices whose window leaves its block are masked out. The
    track is cut into blocks of ``block_frames`` frames (None: one block
    spanning the whole track), and a trailing block under 3 frames is
    dropped. If every frame of either channel is unvoiced in some kept
    block, the penalty sentinel is returned instead of a sum.
    """
    if len(pa) != len(pb):
        raise FrameMismatchError(f"frame counts differ: {len(pa)} vs {len(pb)}")
    if abs(pa.hop_seconds - pb.hop_seconds) > 1e-12:
        raise FrameMismatchError(
            f"hops differ: {pa.hop_seconds} vs {pb.hop_seconds}")
    if len(pa) < 3:
        raise FrameMismatchError(f"need at least 3 frames, got {len(pa)}")
    if block_frames is not None and block_frames < 3:
        raise ConfigInvalidError(f"blocks need at least 3 frames, got {block_frames}")

    a = pa.pitches_hz
    b = pb.pitches_hz
    n = len(a)
    block = n if block_frames is None else block_frames
    starts = np.arange(0, n, block)
    voiced_ab = np.vstack((a, b)) > 0
    voiced_per_block = np.logical_or.reduceat(voiced_ab, starts, axis=1)
    if not voiced_per_block[:, n - starts >= 3].all():
        return TrendScore(model_id="", score=PENALTY_SCORE, penalized=True)

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


@dataclass
class SelectionResult:
    chosen: str
    scores: list[TrendScore]
    outputs_by_model: dict[str, tuple[Waveform, Waveform]] = field(default_factory=dict)
    all_penalized: bool = False


def check_scoring(cfg: PitchConfig, units: str,
                  segment_seconds: float | None) -> int | None:
    """Check the scoring settings; return the block length in frames.

    Units must be one of UNITS and the pitch config valid at the canonical
    rate. With ``segment_seconds`` set, it must be positive and finite, and
    the block is round(segment_seconds / hop) frames, at least 3; None
    (whole-input scoring) passes through.
    """
    if units not in UNITS:
        raise ValueError(f"unknown pitch units {units!r}")
    cfg.validate(CANONICAL_RATE)
    if segment_seconds is None:
        return None
    frames = segment_seconds / cfg.hop_seconds
    if not 0 < frames < math.inf:
        raise ConfigInvalidError(
            f"segment length must be positive and finite, got {segment_seconds} s")
    return max(3, int(round(frames)))


def score_candidate(outputs: tuple[Waveform, Waveform], cfg: PitchConfig,
                    units: str, block_frames: int | None) -> TrendScore:
    """Pitch-track a candidate's two output channels and score the trends.

    The settings are those ``check_scoring`` accepted. With ``block_frames``
    set, the trends are scored in fixed-length frame blocks (see
    ``trend_distance``): the mask never bridges a block boundary, and a
    block where either channel is fully unvoiced penalizes the whole
    candidate.
    """
    ta = track_pitch(outputs[0], cfg)
    tb = track_pitch(outputs[1], cfg)
    if units == "semitones":
        ta, tb = to_semitones(ta), to_semitones(tb)
    return trend_distance(ta, tb, block_frames=block_frames)


def select_model(mixed_vocal: Waveform,
                 candidates: list[CandidateModel],
                 pitch_config: PitchConfig | None = None,
                 workdir=None,
                 units: str = "hz",
                 segment_seconds: float | None = None,
                 jobs: int | None = None) -> SelectionResult:
    """Run every stage-2 candidate and keep the one with the closest trends.

    Candidates run concurrently (up to ``jobs`` workers; backend temp files
    are namespaced per invocation) and results are assembled in candidate
    order, so completion order never changes the outcome. Failed backends
    are excluded (recorded with an error message) rather than fatal;
    BackendFailureError is raised only when no candidate succeeds. Ties
    break toward the lexicographically smaller model_id. If every
    surviving candidate is penalized, the argmin is still returned with
    ``all_penalized`` set.
    """
    cfg = pitch_config or PitchConfig()
    block_frames = check_scoring(cfg, units, segment_seconds)
    if not candidates:
        raise BackendFailureError("no stage-2 candidates to select from")

    def run_one(cand: CandidateModel):
        try:
            pair = run_backend(cand.backend, mixed_vocal, workdir=workdir)
        except (BackendFailureError, ContractViolationError) as exc:
            log.warning("candidate %s failed: %s", cand.model_id, exc)
            return TrendScore(model_id=cand.model_id, score=PENALTY_SCORE,
                              penalized=True, error=str(exc)), None
        result = score_candidate(pair, cfg, units, block_frames)
        return replace(result, model_id=cand.model_id), pair

    max_workers = jobs or min(len(candidates), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        outcomes = list(pool.map(run_one, candidates))

    scores = [score for score, _ in outcomes]
    outputs = {score.model_id: pair for score, pair in outcomes
               if pair is not None}

    if not outputs:
        raise BackendFailureError(
            "every candidate backend failed: "
            + "; ".join(f"{s.model_id}: {s.error}" for s in scores))

    runnable = [s for s in scores if s.model_id in outputs]
    best = min(runnable, key=lambda s: (s.score, s.model_id))
    all_penalized = all(s.penalized for s in runnable)
    if all_penalized:
        log.warning("all candidates penalized; returning argmin %s", best.model_id)
    return SelectionResult(
        chosen=best.model_id,
        scores=scores,
        outputs_by_model=outputs,
        all_penalized=all_penalized,
    )
