"""Synthetic test signals: sines, vibrato voices, silence.

Used by the self-test command, the example scripts, and the test suite.
"""

from __future__ import annotations

import numpy as np

from .audio import CANONICAL_RATE, Waveform


def sine(freq_hz: float, seconds: float, rate: int = CANONICAL_RATE,
         amplitude: float = 0.8, phase: float = 0.0) -> Waveform:
    t = np.arange(int(round(seconds * rate))) / rate
    return Waveform(amplitude * np.sin(2 * np.pi * freq_hz * t + phase), rate)


def vibrato_sine(carrier_hz: float, seconds: float, rate: int = CANONICAL_RATE,
                 vibrato_hz: float = 5.0, depth_hz: float = 3.0,
                 vibrato_phase: float = 0.0, amplitude: float = 0.8) -> Waveform:
    """Sine whose instantaneous frequency wobbles around the carrier.

    Instantaneous frequency: carrier + depth*sin(2*pi*vibrato_hz*t + phase).
    """
    t = np.arange(int(round(seconds * rate))) / rate
    # integral of the instantaneous frequency gives the phase
    phase = 2 * np.pi * (
        carrier_hz * t
        - depth_hz / (2 * np.pi * vibrato_hz)
        * (np.cos(2 * np.pi * vibrato_hz * t + vibrato_phase) - np.cos(vibrato_phase))
    )
    return Waveform(amplitude * np.sin(phase), rate)


def silence(seconds: float, rate: int = CANONICAL_RATE) -> Waveform:
    return Waveform(np.zeros(int(round(seconds * rate))), rate)
