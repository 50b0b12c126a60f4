"""Exception types raised across the toolkit, each with its failure policy.

A class states how the CLI reports it: ``exit_code`` is the status a verb
exits with and ``label`` starts its stderr line (``f"{label}: {message}"``).
A class that excludes a stage-2 candidate also states the penalty
``reason`` that selection records for it.
"""


class SingerSepError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 2
    label = "error"


# --- audio I/O ---

class MalformedWavError(SingerSepError):
    """File is not a parseable RIFF/WAVE container."""


class UnsupportedEncodingError(SingerSepError):
    """WAV encoding other than 16-bit PCM or 32-bit float."""


class InvalidWaveformError(SingerSepError):
    """Waveform violates a precondition (empty, out of range, bad rate)."""


# --- dataset construction ---

class InsufficientSingersError(SingerSepError):
    """Fewer singer groups than non-empty splits."""


class PairingImpossibleError(SingerSepError):
    """Pairing scheme preconditions violated for some singer."""


class SilentSourceError(SingerSepError):
    """Zero-energy input where a mixable signal is required."""


# --- metrics ---

class DegenerateInputError(SingerSepError):
    """Zero-variance or zero-energy signal passed to a metric."""


# --- pitch ---

class ConfigInvalidError(SingerSepError):
    """A run setting or the pitch tracker configuration is unusable."""


# --- trend scoring ---

class FrameMismatchError(SingerSepError):
    """Pitch tracks disagree in frame count or hop."""


# --- backends ---

class BackendFailureError(SingerSepError):
    """Backend process failed or produced unreadable outputs."""

    exit_code = 3
    label = "backend failure"
    reason = "backend_failed"


class ContractViolationError(BackendFailureError):
    """Backend output violates the length/rate contract."""


class MalformedRegistryError(SingerSepError):
    """Model registry file is not valid."""


class DuplicateModelIdError(MalformedRegistryError):
    """Two registry entries share a model_id."""


# --- the run itself ---

class InterruptedRunError(SingerSepError):
    """The run was interrupted (Ctrl-C, SIGINT): the policy the CLI reports
    a KeyboardInterrupt with, 130 as a shell reports a SIGINT."""

    exit_code = 130
    label = "interrupted"
