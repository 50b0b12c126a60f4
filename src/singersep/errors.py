"""Exception types raised across the toolkit."""


class SingerSepError(Exception):
    """Base class for all toolkit errors."""


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


class MalformedCsvError(SingerSepError):
    """Pitch CSV has non-numeric or malformed rows."""


class FrameCountMismatchError(SingerSepError):
    """Loaded pitch track length disagrees with the expected frame count."""


# --- trend scoring ---

class TooShortError(SingerSepError):
    """Pitch track too short to difference."""


class FrameMismatchError(SingerSepError):
    """Pitch tracks disagree in frame count or hop."""


# --- backends ---

class BackendFailureError(SingerSepError):
    """Backend process failed or produced unreadable outputs."""


class ContractViolationError(SingerSepError):
    """Backend output violates the length/rate contract."""


class MalformedRegistryError(SingerSepError):
    """Model registry file is not valid."""


class DuplicateModelIdError(MalformedRegistryError):
    """Two registry entries share a model_id."""
