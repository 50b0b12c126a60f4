"""End-to-end song separation: stage 1, stage 2 over all candidates,
trend-based selection, output stems, and a run report."""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import asdict

from .audio import (CANONICAL_RATE, Outputs, Waveform, create_regular, open_regular,
                    read_wav, resample, write_json, write_wav)
from .backends import STAGE1, STAGE2, CandidateModel, run_backend
from .errors import DegenerateInputError, MalformedRegistryError, SingerSepError
from .metrics import pit_evaluate, zero_variance
from .pitch import PitchConfig
from .selection import SelectionResult, TrendScore, check_jobs, select_model


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


def _read_reference(path, song: Waveform) -> Waveform:
    """Read a ground-truth vocal the way the song is read, rejecting one that
    cannot be scored against it: another length at the canonical rate, or
    zero variance."""
    ref = resample(read_wav(path), CANONICAL_RATE)
    if len(ref) != len(song):
        raise DegenerateInputError(
            f"{path}: length mismatch: {len(ref)} vs the song's {len(song)} "
            f"samples at {CANONICAL_RATE} Hz")
    if zero_variance(ref):
        raise DegenerateInputError(f"{path}: zero-variance reference")
    return ref


def _non_finite_key(value, key: str = "") -> str | None:
    """Key path (``candidates[1].score``) of the first non-finite float in a
    JSON document, in ``sort_keys`` order; None when every float is finite."""
    if isinstance(value, float):
        return None if math.isfinite(value) else key
    if isinstance(value, dict):
        items = ((f"{key}.{k}" if key else k, v) for k, v in sorted(value.items()))
    elif isinstance(value, (list, tuple)):
        items = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_key(v, k) for k, v in items)), None)


def _copy(source, path) -> None:
    """Copy the regular file ``source`` to ``path``, opened by
    ``create_regular``. A read error partway through the copy is raised in
    the opener's block, so it is reported under ``path``'s name."""
    with open_regular(source, OSError) as src, create_regular(path) as dst:
        shutil.copyfileobj(src, dst)


def separate_song(song_path,
                  models: list[CandidateModel],
                  stage1_id: str,
                  out_dir,
                  model: str | None = None,
                  seed: int | None = None,
                  pitch_config: PitchConfig | None = None,
                  refs: tuple[str, str] | None = None,
                  jobs: int | None = None) -> dict:
    """Separate one song, write stems plus ``report.json`` to out_dir, and
    return the report as written.

    ``pitch_config`` (default ``PitchConfig()``) is the whole selection
    rule. With ``model`` set, selection is bypassed and only that candidate
    runs (the others still appear in the report with null scores); otherwise a
    song shorter than the three pitch frames that one trend term spans is
    rejected before any backend runs. ``refs`` optionally names the two
    ground-truth vocal files for evaluation; they are read like the song
    and rejected unless they match its length and are not constant, all
    before any backend runs, and the chosen pair is scored before the stems
    are written; a chosen pair that cannot be scored fails the run, naming
    the model. Stage 1's accompaniment is written as soon as stage 1
    returns, and the song is let go then, so neither is held through
    selection. Each candidate's pair is written to ``candidates/<id>/`` as
    soon as the candidate finishes and is let go then, unless ``refs`` are
    given and it leads selection: evaluation needs the float samples, which
    the 16-bit files do not keep. ``vocal_a.wav`` and ``vocal_b.wav`` are
    byte copies of the chosen candidate's two files, with or without
    ``model``. ``jobs`` under 1 is refused before any backend runs. Every
    output is recorded in one ``Outputs``: if the run fails or is
    interrupted, the files it wrote, a part-written one included, are
    removed, and on any exit so are the directories it made that are left
    empty. External backends' scratch directories go under ``out_dir/tmp``;
    a failed one's is kept, since its error names it, so ``tmp`` is removed
    only if it ends up empty, and only if this run made it.
    """
    check_jobs(jobs)
    stage1, candidates = split_registry(models, stage1_id)
    if model is not None and model not in {c.model_id for c in candidates}:
        raise MalformedRegistryError(f"--model {model!r} is not a stage-2 candidate")
    cfg = pitch_config or PitchConfig()

    t_start = time.monotonic()
    song = resample(read_wav(song_path), CANONICAL_RATE)
    if model is None and len(song) < cfg.trend_span:
        raise DegenerateInputError(
            f"{song_path}: {len(song)} samples at {CANONICAL_RATE} Hz; selection "
            f"needs at least {cfg.trend_span} (three pitch frames)")
    ref_waves = None if refs is None else tuple(_read_reference(p, song) for p in refs)

    with Outputs(out_dir) as outputs:
        workdir = outputs.makedirs("tmp")
        t_stage1 = time.monotonic()
        mixed_vocal, accompaniment = run_backend(stage1.backend, song, workdir=workdir)
        stage1_seconds = time.monotonic() - t_stage1
        del song  # stage 2 reads only the mixed vocal
        write_wav(accompaniment, outputs.file("accompaniment.wav"))
        del accompaniment

        candidate_files: dict[str, dict[str, str]] = {}
        kept_pair = None  # the leading pair's samples, kept only to be evaluated

        def write_candidate(model_id: str, pair: tuple[Waveform, Waveform],
                            leads: bool) -> None:
            nonlocal kept_pair
            candidate_files[model_id] = {ch: f"candidates/{model_id}/{ch}.wav" for ch in "ab"}
            for w, name in zip(pair, candidate_files[model_id].values()):
                write_wav(w, outputs.file(name))
            if leads and ref_waves is not None:
                kept_pair = pair

        t_select = time.monotonic()
        if model is not None:
            chosen_cand = next(c for c in candidates if c.model_id == model)
            write_candidate(model, run_backend(chosen_cand.backend, mixed_vocal,
                                               workdir=workdir), True)
            selection = SelectionResult(
                chosen=model,
                scores=[TrendScore(model_id=c.model_id, score=None)
                        for c in candidates])
        else:
            selection = select_model(mixed_vocal, candidates, pitch_config=cfg,
                                     workdir=workdir, jobs=jobs,
                                     on_outputs=write_candidate)
        selection_seconds = time.monotonic() - t_select

        evaluation = None
        if ref_waves is not None:
            try:
                evaluation = asdict(pit_evaluate(ref_waves, kept_pair, mixed_vocal))
            except SingerSepError as exc:
                raise type(exc)(
                    f"chosen model {selection.chosen!r} cannot be evaluated: {exc}") from exc

        for ch, name in candidate_files[selection.chosen].items():
            _copy(outputs.root / name, outputs.file(f"vocal_{ch}.wav"))

        candidate_entries = [{**asdict(score),
                              "outputs": candidate_files.get(score.model_id)}
                             for score in selection.scores]

        report = {
            "input": str(song_path),
            "stage1_model_id": stage1_id,
            "candidates": candidate_entries,
            "chosen": selection.chosen,
            "all_penalized": selection.all_penalized,
            "selection_bypassed": model is not None,
            "outputs": {"vocal_a": "vocal_a.wav", "vocal_b": "vocal_b.wav",
                        "accompaniment": "accompaniment.wav"},
            "evaluation": evaluation,
            "seed": seed,
            "timings": {
                "stage1_seconds": stage1_seconds,
                "selection_seconds": selection_seconds,
                "total_seconds": time.monotonic() - t_start,
            },
        }
        report_path = outputs.file("report.json")
        try:
            write_json(report_path, report, allow_nan=False)
        except ValueError as exc:
            raise ValueError(
                f"{report_path}: {exc} at {_non_finite_key(report)}") from exc
    return report
