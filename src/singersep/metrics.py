"""Separation fidelity metrics: SI-SNR, SDR, their improvements, and
permutation-invariant evaluation for two-source estimates.

SI-SNR (SI-SDR in Le Roux et al., ICASSP 2019) mean-centers both signals,
projects the estimate onto the reference, and reports the energy ratio of
projection to residual in dB. SDR is the plain energy ratio
10*log10(||ref||^2 / ||ref - est||^2) with no distortion filter. Every score is
finite, in [-SENTINEL_DB, SENTINEL_DB]: an exact match scores the sentinel and
an estimate with nothing of the reference its negative. Means leave out scores
at the sentinel, and constant signals are rejected, not scored.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .audio import Waveform
from .errors import DegenerateInputError

SENTINEL_DB = 1e9

_RESIDUAL_FLOOR = 1e-12


def _as_array(x) -> np.ndarray:
    if isinstance(x, Waveform):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def _as_pair(reference, estimate) -> tuple[np.ndarray, np.ndarray]:
    ref, est = _as_array(reference), _as_array(estimate)
    if ref.size != est.size:
        raise DegenerateInputError(f"length mismatch: {ref.size} vs {est.size}")
    return ref, est


def _ratio_db(signal_energy: float, noise_energy: float) -> float:
    """The energy ratio in dB, or +-the sentinel when one is below the floor."""
    if noise_energy < _RESIDUAL_FLOOR * signal_energy:
        return SENTINEL_DB
    if signal_energy < _RESIDUAL_FLOOR * noise_energy:
        return -SENTINEL_DB
    return 10.0 * np.log10(signal_energy / noise_energy)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product in numpy's own loop, which starts no BLAS threads."""
    return float(np.einsum("i,i->", x, y))


def zero_variance(signal) -> bool:
    """True when all samples are equal, or there are none: nothing to score."""
    x = _as_array(signal)
    return not x.size or x.min() == x.max()


def si_snr(reference, estimate) -> float:
    """Scale-invariant SNR of estimate against reference, in dB.

    Holds two full-length buffers beside its inputs: the centred reference,
    scaled in place to the projection, and the centred estimate, in place
    the residual.
    """
    ref, est = _as_pair(reference, estimate)
    if ref.size < 2:
        raise DegenerateInputError("si_snr needs at least 2 samples")
    if zero_variance(ref):
        raise DegenerateInputError("zero-variance reference")
    if zero_variance(est):
        raise DegenerateInputError("zero-variance estimate")
    # both are centred before any product: products with an uncentred est
    # lose alpha's precision when its mean dwarfs its variation
    ref_c = ref - ref.mean()
    ref_energy = _dot(ref_c, ref_c)
    if ref_energy == 0.0:  # samples so small that their squares underflow
        raise DegenerateInputError("zero-variance reference")
    est_c = est - est.mean()
    alpha = _dot(ref_c, est_c) / ref_energy
    ref_c *= alpha
    est_c -= ref_c
    target_energy, resid_energy = alpha * alpha * ref_energy, _dot(est_c, est_c)
    if target_energy + resid_energy == 0.0:  # the estimate's energy underflows
        raise DegenerateInputError("zero-variance estimate")
    return _ratio_db(target_energy, resid_energy)


def sdr(reference, estimate) -> float:
    """Signal-to-distortion ratio as a plain energy ratio, in dB."""
    ref, est = _as_pair(reference, estimate)
    ref_energy = _dot(ref, ref)
    if ref_energy == 0.0:
        raise DegenerateInputError("zero-energy reference")
    resid = ref - est
    return _ratio_db(ref_energy, _dot(resid, resid))


def improvement(metric, reference, estimate, mixture) -> float:
    """metric(ref, estimate) minus metric(ref, mixture), within +-the sentinel.

    An estimate scoring at +-the sentinel keeps that score: an exact
    reconstruction is reported as such, not as sentinel-minus-baseline.
    """
    value = metric(reference, estimate)
    if abs(value) >= SENTINEL_DB:
        return value
    return min(max(value - metric(reference, mixture), -SENTINEL_DB), SENTINEL_DB)


@dataclass
class EvalReport:
    """Metrics for one estimated source under the chosen channel assignment."""

    si_snr_db: float
    si_snri_db: float
    sdr_db: float
    sdri_db: float
    permutation: dict[int, int]


# EvalReport's metric fields, in report and CSV column order
METRICS = tuple(f.name for f in fields(EvalReport) if f.name != "permutation")


@dataclass
class PitResult:
    per_source: tuple[EvalReport, EvalReport]
    mean: EvalReport


def mean_below_sentinel(values) -> float:
    """Mean of the values below the sentinel, or the sentinel if none is:
    an exact reconstruction cannot swamp the finite values of the rest."""
    kept = [v for v in values if v < SENTINEL_DB]
    return float(np.mean(kept)) if kept else SENTINEL_DB


def pit_evaluate(references, estimates, mixture) -> PitResult:
    """Evaluate both estimate-to-reference assignments, keep the better one.

    The permutation maximizing summed SI-SNR wins; all four metrics are then
    reported under that assignment, per source and by mean_below_sentinel.
    """
    refs = [_as_array(r) for r in references]
    ests = [_as_array(e) for e in estimates]
    mix = _as_array(mixture)

    best = max(({0: 0, 1: 1}, {0: 1, 1: 0}),
               key=lambda perm: sum(si_snr(refs[perm[i]], ests[i]) for i in (0, 1)))

    reports = []
    for i in (0, 1):
        ref = refs[best[i]]
        est = ests[i]
        reports.append(EvalReport(
            si_snr_db=si_snr(ref, est),
            si_snri_db=improvement(si_snr, ref, est, mix),
            sdr_db=sdr(ref, est),
            sdri_db=improvement(sdr, ref, est, mix),
            permutation=dict(best),
        ))
    mean_report = EvalReport(
        **{k: mean_below_sentinel(getattr(r, k) for r in reports) for k in METRICS},
        permutation=dict(best),
    )
    return PitResult(per_source=(reports[0], reports[1]), mean=mean_report)
