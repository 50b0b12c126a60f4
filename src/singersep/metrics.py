"""Separation fidelity metrics: SI-SNR, SDR, their improvements, and
permutation-invariant evaluation for two-source estimates.

SI-SNR mean-centers both signals, projects the estimate onto the reference,
and reports the energy ratio of projection to residual in dB. SDR is the
plain energy ratio 10*log10(||ref||^2 / ||ref - est||^2) with no distortion
filter. A perfect match is reported as the finite sentinel ``SENTINEL_DB``
so reports stay serializable.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .audio import Waveform
from .errors import DegenerateInputError

SENTINEL_DB = 1e9

_RESIDUAL_FLOOR = 1e-12

# samples per block where si_snr centres the estimate; the block temporary
# stays small beside the one full-length buffer
_BLOCK = 1 << 15


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
    """The energy ratio in dB, or the sentinel when the noise is below the floor."""
    if noise_energy < _RESIDUAL_FLOOR * signal_energy:
        return SENTINEL_DB
    return 10.0 * np.log10(signal_energy / noise_energy)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product in numpy's own loop, which starts no BLAS threads."""
    return float(np.einsum("i,i->", x, y))


def si_snr(reference, estimate) -> float:
    """Scale-invariant SNR of estimate against reference, in dB."""
    ref, est = _as_pair(reference, estimate)
    if ref.size < 2:
        raise DegenerateInputError("si_snr needs at least 2 samples")
    if ref.min() == ref.max():
        raise DegenerateInputError("zero-variance reference")
    if est.min() == est.max():
        raise DegenerateInputError("zero-variance estimate")
    # one full-length buffer: the centred reference, then in place the residual
    # est - mean(est) - alpha * centred reference
    est_mean = est.mean()
    buf = ref - ref.mean()
    ref_energy = _dot(buf, buf)
    if ref_energy == 0.0:  # samples so small that their squares underflow
        raise DegenerateInputError("zero-variance reference")
    # est is centred a block at a time: products with an uncentred est lose
    # alpha's precision when its mean dwarfs its variation
    alpha = sum(_dot(buf[i:i + _BLOCK], est[i:i + _BLOCK] - est_mean)
                for i in range(0, est.size, _BLOCK)) / ref_energy
    buf *= -alpha
    buf += est
    buf -= est_mean
    target_energy, resid_energy = alpha * alpha * ref_energy, _dot(buf, buf)
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
    """metric(ref, estimate) minus the metric(ref, mixture) baseline.

    If the estimate itself scores at the sentinel, the improvement is the
    sentinel too (an exact reconstruction is reported as such, not as
    sentinel-minus-baseline).
    """
    value = metric(reference, estimate)
    if value >= SENTINEL_DB:
        return SENTINEL_DB
    return value - metric(reference, mixture)


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


def capped_mean(*values: float) -> float:
    """Mean of the values, capped at the sentinel."""
    return min(float(np.mean(values)), SENTINEL_DB)


def mean_below_sentinel(values) -> float:
    """Mean of the values below the sentinel, or the sentinel if none is.

    Exact reconstructions are left out, so one of them cannot swamp the
    finite values of the rest.
    """
    kept = [v for v in values if v < SENTINEL_DB]
    return float(np.mean(kept)) if kept else SENTINEL_DB


def pit_evaluate(references, estimates, mixture) -> PitResult:
    """Evaluate both estimate-to-reference assignments, keep the better one.

    The permutation maximizing mean SI-SNR wins; all four metrics are then
    reported under that assignment, per source and averaged.
    """
    refs = [_as_array(r) for r in references]
    ests = [_as_array(e) for e in estimates]
    mix = _as_array(mixture)

    best = max(({0: 0, 1: 1}, {0: 1, 1: 0}),
               key=lambda perm: capped_mean(*(si_snr(refs[perm[i]], ests[i])
                                              for i in (0, 1))))

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
        **{k: capped_mean(*(getattr(r, k) for r in reports)) for k in METRICS},
        permutation=dict(best),
    )
    return PitResult(per_source=(reports[0], reports[1]), mean=mean_report)
