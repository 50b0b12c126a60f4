"""Separation model backends for both pipeline stages.

A backend is either an external command (the normal case: a trained model
wrapped in any runtime, invoked as a process), an oracle (a test double
that returns ground-truth stems, optionally leaked/swapped/noised), or a
passthrough (input on channel one, silence on channel two).

External command templates substitute ``{input}``/``{out_a}``/``{out_b}``
for stage 2, or ``{input}``/``{out_vocal}``/``{out_accomp}`` for stage 1.
A template is split into arguments before substitution, so paths may
contain spaces. All exchanged audio is mono 8 kHz WAV.
"""

from __future__ import annotations

import json
import math
import numbers
import shlex
import shutil
import string
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import Waveform, read_wav, write_wav
from .errors import (
    BackendFailureError,
    ContractViolationError,
    DuplicateModelIdError,
    MalformedRegistryError,
    SingerSepError,
)

REGISTRY_SCHEMA = "mir-ss-registry/1"

STAGE1 = "stage1_vocal_accomp"
STAGE2 = "stage2_two_vocals"
_STAGES = (STAGE1, STAGE2)

KIND_EXTERNAL = "external_command"
KIND_ORACLE = "oracle"
KIND_PASSTHROUGH = "passthrough"
_KINDS = (KIND_EXTERNAL, KIND_ORACLE, KIND_PASSTHROUGH)

# Each stage's output placeholders, in channel order.
_OUTPUTS = {STAGE1: ("out_vocal", "out_accomp"), STAGE2: ("out_a", "out_b")}

# A failing command's stderr is cut to its last this many characters.
STDERR_TAIL = 2000


def _check_template(command: str, stage: str) -> None:
    """Reject a command template that would fail to split or substitute."""
    try:
        fields = [(name, spec, conv)
                  for token in shlex.split(command)
                  for _, name, spec, conv in string.Formatter().parse(token)
                  if name is not None]
    except ValueError as exc:
        raise MalformedRegistryError(f"bad command template {command!r}: {exc}")
    allowed = {"input", *_OUTPUTS[stage]}
    for name, spec, conv in fields:
        if name not in allowed or spec or conv:
            raise MalformedRegistryError(
                f"bad placeholder {{{name}}} in {command!r}: {stage} takes only "
                + ", ".join(f"{{{p}}}" for p in sorted(allowed)))


@dataclass
class OracleSpec:
    """Ground-truth test double: channels are the references with leak
    ``alpha`` of each other, optionally swapped and noise-corrupted."""

    ref_a: str
    ref_b: str
    swap: bool = False
    leak: float = 0.0
    noise_snr_db: float | None = None
    noise_seed: int = 0

    def __post_init__(self):
        checks = {
            "ref_a": (isinstance(self.ref_a, str), "a path string"),
            "ref_b": (isinstance(self.ref_b, str), "a path string"),
            "swap": (isinstance(self.swap, bool), "true or false"),
            "leak": (_number(self.leak) and 0.0 <= self.leak < 0.5,
                     "a number in [0, 0.5)"),
            "noise_snr_db": (self.noise_snr_db is None or _number(self.noise_snr_db),
                             "null or a finite number"),
            "noise_seed": (_number(self.noise_seed, numbers.Integral)
                           and self.noise_seed >= 0, "a non-negative integer"),
        }
        for name, (ok, wanted) in checks.items():
            if not ok:
                raise MalformedRegistryError(
                    f"oracle {name} must be {wanted}, got {getattr(self, name)!r}")


def _number(value, kind=numbers.Real) -> bool:
    """A finite number of the given kind; bools are not numbers here."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class SeparationBackend:
    kind: str
    stage: str
    command: str | None = None
    oracle: OracleSpec | None = None

    def __post_init__(self):
        if self.command is not None and not isinstance(self.command, str):
            raise MalformedRegistryError(
                f"command must be a string, got {self.command!r}")
        if self.kind not in _KINDS:
            raise MalformedRegistryError(f"unknown backend kind {self.kind!r}")
        if self.stage not in _STAGES:
            raise MalformedRegistryError(f"unknown backend stage {self.stage!r}")
        if self.kind == KIND_EXTERNAL:
            if not self.command:
                raise MalformedRegistryError("external_command backend needs a command")
            _check_template(self.command, self.stage)
        if self.kind == KIND_ORACLE and not isinstance(self.oracle, OracleSpec):
            raise MalformedRegistryError("oracle kind needs an oracle object")


@dataclass
class CandidateModel:
    model_id: str
    backend: SeparationBackend


def _reconcile(out: Waveform, input_w: Waveform, what: str) -> Waveform:
    """Enforce the output contract: same rate, length within one sample."""
    if out.sample_rate != input_w.sample_rate:
        raise ContractViolationError(
            f"{what}: rate {out.sample_rate} != input rate {input_w.sample_rate}")
    delta = len(out) - len(input_w)
    if abs(delta) > 1:
        raise ContractViolationError(
            f"{what}: length {len(out)} vs input {len(input_w)} (off by {delta})")
    kept = out.samples[:len(input_w)]
    return Waveform(np.pad(kept, (0, len(input_w) - len(kept))), out.sample_rate)


def _run_external(backend: SeparationBackend, input_w: Waveform,
                  workdir) -> tuple[Waveform, Waveform]:
    if workdir is not None:
        Path(workdir).mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="backend-", dir=workdir))
    in_path = scratch / "input.wav"
    slots = {name: scratch / f"{name}.wav" for name in _OUTPUTS[backend.stage]}
    write_wav(input_w, in_path)

    argv = [token.format(input=in_path, **slots)
            for token in shlex.split(backend.command)]
    cmd = shlex.join(argv)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, errors="replace")
    except OSError as exc:
        raise BackendFailureError(f"command could not start: {cmd}: {exc}")
    if proc.returncode != 0:
        raise BackendFailureError(
            f"command exited {proc.returncode}: {cmd}\n"
            f"stderr: {proc.stderr.strip()[-STDERR_TAIL:]}")
    outs = []
    for name, path in slots.items():
        if not path.exists():
            raise BackendFailureError(f"command produced no {name} file: {cmd}")
        try:
            outs.append(read_wav(path))
        except Exception as exc:
            raise BackendFailureError(f"unreadable {name} output: {exc}")
    shutil.rmtree(scratch, ignore_errors=True)  # kept on failure for debugging
    return outs[0], outs[1]


def _run_oracle(spec: OracleSpec, input_w: Waveform) -> tuple[Waveform, Waveform]:
    try:
        ref_a = read_wav(spec.ref_a)
        ref_b = read_wav(spec.ref_b)
    except (OSError, SingerSepError) as exc:
        raise BackendFailureError(f"unreadable oracle reference: {exc}")
    a, b = ref_a.samples, ref_b.samples
    if a.size != b.size or ref_a.sample_rate != ref_b.sample_rate:
        raise BackendFailureError("oracle references disagree in length or rate")
    out_a = (1.0 - spec.leak) * a + spec.leak * b
    out_b = (1.0 - spec.leak) * b + spec.leak * a
    if spec.noise_snr_db is not None:
        rng = np.random.default_rng(spec.noise_seed)
        for out in (out_a, out_b):
            power = float(np.mean(out ** 2))
            if power > 0:
                noise = rng.standard_normal(out.size)
                noise *= np.sqrt(power / 10 ** (spec.noise_snr_db / 10)
                                 / float(np.mean(noise ** 2)))
                out += noise
    if spec.swap:
        out_a, out_b = out_b, out_a
    rate = ref_a.sample_rate
    return (Waveform(np.clip(out_a, -1.0, 1.0), rate),
            Waveform(np.clip(out_b, -1.0, 1.0), rate))


def run_backend(backend: SeparationBackend, input_w: Waveform,
                workdir=None) -> tuple[Waveform, Waveform]:
    """Run a backend on a waveform; returns the two output channels.

    Stage 2 returns (vocal_a, vocal_b); stage 1 returns (vocal,
    accompaniment). Outputs must match the input rate and length (one
    sample of slack is trimmed or zero-padded).
    """
    if backend.kind == KIND_EXTERNAL:
        out_a, out_b = _run_external(backend, input_w, workdir)
    elif backend.kind == KIND_ORACLE:
        out_a, out_b = _run_oracle(backend.oracle, input_w)
    else:
        out_a = Waveform(input_w.samples.copy(), input_w.sample_rate)
        out_b = Waveform(np.zeros(len(input_w)), input_w.sample_rate)
    return (_reconcile(out_a, input_w, "channel A"),
            _reconcile(out_b, input_w, "channel B"))


def _parse_entry(entry: dict, index: int) -> CandidateModel:
    if not isinstance(entry, dict):
        raise MalformedRegistryError(f"entry {index} is not an object")
    try:
        model_id = entry["model_id"]
        stage = entry["stage"]
    except KeyError as exc:
        raise MalformedRegistryError(f"entry {index} missing {exc}")
    # the id names the candidate's output directory
    if (not isinstance(model_id, str) or model_id in ("", ".", "..")
            or "/" in model_id or "\0" in model_id):
        raise MalformedRegistryError(
            f"entry {index}: model_id must be a non-empty string, one path "
            f"component, got {model_id!r}")
    kind = entry.get("kind", KIND_EXTERNAL)
    oracle = entry.get("oracle") if kind == KIND_ORACLE else None
    try:
        # anything but an object is left to SeparationBackend to reject
        if isinstance(oracle, dict):
            try:
                oracle = OracleSpec(**oracle)
            except TypeError as exc:
                raise MalformedRegistryError(f"bad oracle spec: {exc}")
        backend = SeparationBackend(kind=kind, stage=stage,
                                    command=entry.get("command"), oracle=oracle)
    except MalformedRegistryError as exc:
        raise MalformedRegistryError(f"entry {index} ({model_id!r}): {exc}") from None
    return CandidateModel(model_id=model_id, backend=backend)


def registry_load(path) -> list[CandidateModel]:
    """Load a model registry JSON file (schema mir-ss-registry/1).

    Accepts either a bare array of entries or an object with a "models"
    array; model_ids must be unique.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedRegistryError(f"{path}: {exc}")

    if isinstance(doc, dict):
        schema = doc.get("schema", REGISTRY_SCHEMA)
        if schema != REGISTRY_SCHEMA:
            raise MalformedRegistryError(f"{path}: unknown schema {schema!r}")
        entries = doc.get("models", [])
    else:
        entries = doc
    if not isinstance(entries, list):
        raise MalformedRegistryError(f"{path}: registry must be a list of entries")

    models = [_parse_entry(e, i) for i, e in enumerate(entries)]
    seen = set()
    for m in models:
        if m.model_id in seen:
            raise DuplicateModelIdError(f"{path}: duplicate model_id {m.model_id!r}")
        seen.add(m.model_id)
    return models
