"""End-to-end song separation: stage 1, stage 2 over all candidates,
trend-based selection, output stems, and a run report."""

from __future__ import annotations

import json
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .audio import CANONICAL_RATE, Waveform, read_wav, resample, write_wav
from .backends import STAGE1, STAGE2, CandidateModel, run_backend
from .errors import MalformedRegistryError
from .metrics import pit_evaluate
from .pitch import PitchConfig
from .selection import SelectionResult, TrendScore, check_scoring, select_model


@dataclass
class RunResult:
    """In-memory outcome of a separation run, pre-quantization."""

    report: dict
    accompaniment: Waveform
    mixed_vocal: Waveform


def split_registry(models: list[CandidateModel], stage1_id: str):
    stage1 = [m for m in models if m.model_id == stage1_id]
    if not stage1:
        raise MalformedRegistryError(f"no registry entry named {stage1_id!r}")
    if stage1[0].backend.stage != STAGE1:
        raise MalformedRegistryError(
            f"{stage1_id!r} is not a stage-1 backend (stage={stage1[0].backend.stage})")
    candidates = [m for m in models if m.backend.stage == STAGE2]
    if not candidates:
        raise MalformedRegistryError("registry has no stage-2 candidates")
    return stage1[0], candidates


def separate_song(song_path,
                  models: list[CandidateModel],
                  stage1_id: str,
                  out_dir,
                  model: str | None = None,
                  seed: int | None = None,
                  pitch_config: PitchConfig | None = None,
                  units: str = "hz",
                  segment_seconds: float | None = None,
                  refs: tuple[str, str] | None = None,
                  jobs: int | None = None) -> RunResult:
    """Separate one song and write stems plus ``report.json`` to out_dir.

    With ``model`` set, selection is bypassed and only that candidate runs
    (the others still appear in the report with null scores). ``refs``
    optionally names the two ground-truth vocal files for evaluation.
    Partial outputs are removed if the run fails.
    """
    stage1, candidates = split_registry(models, stage1_id)
    if model is not None and model not in {c.model_id for c in candidates}:
        raise MalformedRegistryError(f"--model {model!r} is not a stage-2 candidate")
    # reject bad units, pitch config or block length before any backend runs
    check_scoring(pitch_config or PitchConfig(), units, segment_seconds)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(w: Waveform, path: Path) -> str:
        """Write a WAV, remember it for rollback; return its report path."""
        path.parent.mkdir(parents=True, exist_ok=True)
        write_wav(w, path)
        written.append(path)
        return str(path.relative_to(out))

    try:
        t_start = time.monotonic()
        song = resample(read_wav(song_path), CANONICAL_RATE)

        t_stage1 = time.monotonic()
        mixed_vocal, accompaniment = run_backend(stage1.backend, song,
                                                 workdir=out / "tmp")
        stage1_seconds = time.monotonic() - t_stage1

        t_select = time.monotonic()
        if model is not None:
            chosen_cand = next(c for c in candidates if c.model_id == model)
            pair = run_backend(chosen_cand.backend, mixed_vocal, workdir=out / "tmp")
            selection = SelectionResult(
                chosen=model,
                scores=[TrendScore(model_id=c.model_id, score=None)
                        for c in candidates],
                outputs_by_model={model: pair})
        else:
            selection = select_model(mixed_vocal, candidates,
                                     pitch_config=pitch_config,
                                     workdir=out / "tmp",
                                     units=units,
                                     segment_seconds=segment_seconds,
                                     jobs=jobs)
        candidate_outputs = selection.outputs_by_model
        selection_seconds = time.monotonic() - t_select

        vocal_a, vocal_b = candidate_outputs[selection.chosen]
        outputs = {
            "vocal_a": write(vocal_a, out / "vocal_a.wav"),
            "vocal_b": write(vocal_b, out / "vocal_b.wav"),
            "accompaniment": write(accompaniment, out / "accompaniment.wav"),
        }

        candidate_entries = []
        for score in selection.scores:
            entry = asdict(score)
            entry["outputs"] = None
            model_id = entry["model_id"]
            if model_id in candidate_outputs:
                cdir = out / "candidates" / model_id
                ca, cb = candidate_outputs[model_id]
                entry["outputs"] = {"a": write(ca, cdir / "a.wav"),
                                    "b": write(cb, cdir / "b.wav")}
            candidate_entries.append(entry)

        evaluation = None
        if refs is not None:
            ref_a, ref_b = read_wav(refs[0]), read_wav(refs[1])
            result = pit_evaluate((ref_a, ref_b), (vocal_a, vocal_b), mixed_vocal)
            evaluation = {
                "mean": result.mean.to_dict(),
                "per_source": [r.to_dict() for r in result.per_source],
            }

        report = {
            "input": str(song_path),
            "stage1_model_id": stage1_id,
            "candidates": candidate_entries,
            "chosen": selection.chosen,
            "all_penalized": selection.all_penalized,
            "selection_bypassed": model is not None,
            "outputs": outputs,
            "evaluation": evaluation,
            "seed": seed,
            "timings": {
                "stage1_seconds": stage1_seconds,
                "selection_seconds": selection_seconds,
                "total_seconds": time.monotonic() - t_start,
            },
        }
        report_path = out / "report.json"
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        shutil.rmtree(out / "tmp", ignore_errors=True)
        return RunResult(report=report, accompaniment=accompaniment,
                         mixed_vocal=mixed_vocal)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
