"""Singer separation toolkit.

Builds duet and self-harmonic training mixtures from vocal stems, runs
two-stage separation through pluggable model backends, auto-selects the
best stage-2 model by pitch-trend distance, and evaluates separations with
SI-SNRi / SDRi.
"""

from .audio import CANONICAL_RATE, Segment, Waveform, read_wav, resample, segment, write_wav
from .backends import CandidateModel, OracleSpec, SeparationBackend, registry_load, run_backend
from .dataset import MixPair, PairingScheme, StemEntry, build_dataset, mix_at_snr, pair_segments, split_by_singer
from .metrics import SENTINEL_DB, EvalReport, improvement, pit_evaluate, sdr, si_snr
from .pitch import PitchConfig, PitchTrack, track_pitch
from .selection import PENALTY_SCORE, TrendScore, select_model, trend_distance

__version__ = "0.1.0"

__all__ = [
    "CANONICAL_RATE",
    "CandidateModel",
    "EvalReport",
    "MixPair",
    "OracleSpec",
    "PENALTY_SCORE",
    "PairingScheme",
    "PitchConfig",
    "PitchTrack",
    "SENTINEL_DB",
    "Segment",
    "SeparationBackend",
    "StemEntry",
    "TrendScore",
    "Waveform",
    "build_dataset",
    "improvement",
    "mix_at_snr",
    "pair_segments",
    "pit_evaluate",
    "read_wav",
    "registry_load",
    "resample",
    "run_backend",
    "sdr",
    "segment",
    "select_model",
    "si_snr",
    "split_by_singer",
    "track_pitch",
    "trend_distance",
    "write_wav",
]
