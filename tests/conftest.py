import errno
import io
import json
import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import singersep
from singersep import audio, backends, synth


# CI runs the tracker- and metric-equivalence tests once more under this
# profile, with `--hypothesis-profile equivalence`
settings.register_profile("equivalence", max_examples=1000)


@pytest.fixture
def tmp_wav(tmp_path):
    """Write a waveform to a temp file and return its path."""

    counter = {"n": 0}

    def _write(w, name=None):
        counter["n"] += 1
        path = tmp_path / (name or f"wav{counter['n']:03d}.wav")
        audio.write_wav(w, path)
        return path

    return _write


def white_noise(seconds, rate=audio.CANONICAL_RATE, amplitude=0.8, seed=0):
    """Uniform noise in [-amplitude, amplitude], from a seeded generator."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, int(round(seconds * rate)))
    return audio.Waveform(amplitude * x, rate)


def duration_seconds(w):
    return len(w) / w.sample_rate


def write_float32_wav(path, floats, rate=8000, channels=1):
    """Write a 32-bit float WAV, which the toolkit reads but never writes."""
    payload = np.asarray(floats, dtype="<f4").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 3, channels, rate,
        rate * 4 * channels, 4 * channels, 32,
        b"data", len(payload))
    path.write_bytes(header + payload)
    return path


# The last 12 bytes of every standard WAVE SubFormat GUID.
GUID_TAIL = bytes.fromhex("00 00 10 00 80 00 00 aa 00 38 9b 71")


def extensible_wav_bytes(data, guid=None, extension_bytes=22):
    """A WAV with a 16-byte fmt chunk (``data``) rewritten with a
    WAVE_FORMAT_EXTENSIBLE one, which the standard library's ``wave`` does
    not write: the same fields under tag 0xFFFE, then the first
    ``extension_bytes`` of the 22-byte extension (valid bits, channel mask,
    SubFormat GUID). The GUID defaults to the standard one for the original
    format tag."""
    assert data[12:20] == b"fmt " + struct.pack("<I", 16)
    tag, channels, rate, byte_rate, block, bits = struct.unpack_from("<HHIIHH", data, 20)
    if guid is None:
        guid = struct.pack("<I", tag) + GUID_TAIL
    extension = (struct.pack("<HI", bits, 0) + guid)[:extension_bytes]
    fmt = struct.pack("<HHIIHHH", 0xFFFE, channels, rate, byte_rate, block, bits,
                      len(extension)) + extension
    body = b"WAVE" + struct.pack("<4sI", b"fmt ", len(fmt)) + fmt + data[36:]
    return b"RIFF" + struct.pack("<I", len(body)) + body


def two_channel_wav_bytes(data):
    """A mono 16-bit PCM WAV (``data``) rewritten as two channels that each
    hold its samples."""
    with wave.open(io.BytesIO(data)) as src:
        rate, frames = src.getframerate(), src.readframes(src.getnframes())
    out = io.BytesIO()
    with wave.open(out, "wb") as dst:
        dst.setnchannels(2)
        dst.setsampwidth(2)
        dst.setframerate(rate)
        dst.writeframes(np.repeat(np.frombuffer(frames, "<i2"), 2).tobytes())
    return out.getvalue()


def reference_wav_bytes(samples, rate):
    """write_wav's file as first written: header plus clipped, rounded codes."""
    payload = np.rint(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 1, rate, rate * 2, 2, 16,
        b"data", len(payload))
    return header + payload


def make_duet_refs(tmp_path, seed, seconds=10.0, carrier_a=200.0, carrier_b=310.0):
    """Two vibrato 'singers' sharing one vibrato contour (parallel trends)."""
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0, 2 * np.pi)
    depth = rng.uniform(2.0, 4.0)
    ref_a = synth.vibrato_sine(carrier_a, seconds, depth_hz=depth, vibrato_phase=phase)
    ref_b = synth.vibrato_sine(carrier_b, seconds, depth_hz=depth, vibrato_phase=phase)
    pa = tmp_path / f"ref_a_{seed}.wav"
    pb = tmp_path / f"ref_b_{seed}.wav"
    audio.write_wav(ref_a, pa)
    audio.write_wav(ref_b, pb)
    return (ref_a, pa), (ref_b, pb)


def oracle_candidate(model_id, ref_a_path, ref_b_path, **kwargs):
    return backends.CandidateModel(model_id, backends.SeparationBackend(
        kind=backends.KIND_ORACLE, stage=backends.STAGE2,
        oracle=backends.OracleSpec(str(ref_a_path), str(ref_b_path), **kwargs)))


def write_registry(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2)
    return path


def write_toy_stems(tmp_path, n_singers=4, songs_per_singer=1, seconds=30.0,
                    split=None):
    """Synthesize a toy stem corpus and its manifest; returns manifest path."""
    stems_dir = tmp_path / "stems"
    stems_dir.mkdir(exist_ok=True)
    rows = []
    for s in range(n_singers):
        for k in range(songs_per_singer):
            carrier = 180.0 + 35.0 * s + 7.0 * k
            w = synth.vibrato_sine(carrier, seconds, depth_hz=3.0,
                                   vibrato_phase=0.7 * s)
            path = stems_dir / f"singer{s}_song{k}.wav"
            audio.write_wav(w, path)
            row = {"song_id": f"song-{s}-{k}", "singer_id": f"singer-{s}",
                   "vocal_path": str(path)}
            if split is not None:
                row["split"] = split
            rows.append(row)
    manifest = tmp_path / "stems.json"
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
    return manifest


class _EioReader(io.BufferedReader):
    """A file whose ``readinto``, the call read_wav decodes a payload with,
    fails with EIO and no filename, as a failing disk's read does; its
    other reads succeed."""

    def readinto(self, buffer):
        raise OSError(errno.EIO, os.strerror(errno.EIO))


def fail_payload_reads(monkeypatch, path):
    """Open ``path`` as an _EioReader wherever ``audio.open_regular`` opens
    it; every other file opens as before."""
    open_regular = audio.open_regular

    def opening(target, error):
        fh = open_regular(target, error)
        return _EioReader(fh.detach()) if Path(target) == Path(path) else fh

    monkeypatch.setattr(audio, "open_regular", opening)


def run_capped(code, *args, rlimit="RLIMIT_AS", limit=512 * 2 ** 20):
    """Run Python ``code`` with ``args`` as ``sys.argv[1:]`` in a child
    process under a cap, the ``resource`` module's ``rlimit`` set to
    ``limit``, and return what the child prints, parsed as JSON. The default
    caps the address space, so that a read that never ends (of /dev/zero,
    say) fails there with a MemoryError instead of taking the machine's
    memory. ``RLIMIT_FSIZE`` caps the size of a file the child writes, so
    the kernel itself refuses a write past it with EFBIG: SIGXFSZ, which
    would kill the child, is ignored, and the child writes no bytecode,
    which the cap would cut short. Its stdout and stderr are pipes, which
    no file-size cap cuts."""
    src = str(Path(singersep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cap = ("import resource, signal\n"
           "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
           f"resource.setrlimit(resource.{rlimit}, ({limit}, {limit}))\n")
    proc = subprocess.run([sys.executable, "-c", cap + code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
