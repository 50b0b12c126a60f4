"""End-to-end song separation: stage 1, stage 2 over all candidates,
trend-based selection, output stems, and a run report."""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import time
from dataclasses import asdict
from pathlib import Path

from .audio import CANONICAL_RATE, Waveform, create_regular, read_wav, resample, write_wav
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
    ``model``. ``jobs`` under 1 is refused before any backend runs. If the
    run fails, the files it wrote, a part-written one included, and the
    directories it made are removed. A failed
    external backend's scratch directory under ``out_dir/tmp`` is kept,
    since its error names it; ``tmp`` itself is removed only if it ends up
    empty.
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

    out = Path(out_dir)
    made: list[Path] = []
    written: list[Path] = []

    def makedirs(directory: Path) -> None:
        """Make a directory and its missing parents, remembering them for rollback."""
        made.extend(reversed([d for d in (directory, *directory.parents)
                              if not d.exists()]))
        directory.mkdir(parents=True, exist_ok=True)

    def write(source, path: Path, writer) -> str:
        """Write path by ``writer(source, path)``, remembering it for rollback
        first, so that a file left part-written goes too; return its report path."""
        makedirs(path.parent)
        written.append(path)
        writer(source, path)
        return str(path.relative_to(out))

    try:
        makedirs(out)
        t_stage1 = time.monotonic()
        mixed_vocal, accompaniment = run_backend(stage1.backend, song,
                                                 workdir=out / "tmp")
        stage1_seconds = time.monotonic() - t_stage1
        del song  # stage 2 reads only the mixed vocal
        accompaniment_file = write(accompaniment, out / "accompaniment.wav", write_wav)
        del accompaniment

        candidate_files: dict[str, dict[str, str]] = {}
        kept_pair = None  # the leading pair's samples, kept only to be evaluated

        def write_candidate(model_id: str, pair: tuple[Waveform, Waveform],
                            leads: bool) -> None:
            nonlocal kept_pair
            cdir = out / "candidates" / model_id
            candidate_files[model_id] = {"a": write(pair[0], cdir / "a.wav", write_wav),
                                         "b": write(pair[1], cdir / "b.wav", write_wav)}
            if leads and ref_waves is not None:
                kept_pair = pair

        t_select = time.monotonic()
        if model is not None:
            chosen_cand = next(c for c in candidates if c.model_id == model)
            write_candidate(model, run_backend(chosen_cand.backend, mixed_vocal,
                                               workdir=out / "tmp"), True)
            selection = SelectionResult(
                chosen=model,
                scores=[TrendScore(model_id=c.model_id, score=None)
                        for c in candidates])
        else:
            selection = select_model(mixed_vocal, candidates, pitch_config=cfg,
                                     workdir=out / "tmp", jobs=jobs,
                                     on_outputs=write_candidate)
        selection_seconds = time.monotonic() - t_select

        evaluation = None
        if ref_waves is not None:
            try:
                evaluation = asdict(pit_evaluate(ref_waves, kept_pair, mixed_vocal))
            except SingerSepError as exc:
                raise type(exc)(
                    f"chosen model {selection.chosen!r} cannot be evaluated: {exc}") from exc

        chosen_files = candidate_files[selection.chosen]
        outputs = {
            "vocal_a": write(out / chosen_files["a"], out / "vocal_a.wav", shutil.copyfile),
            "vocal_b": write(out / chosen_files["b"], out / "vocal_b.wav", shutil.copyfile),
            "accompaniment": accompaniment_file,
        }

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
        with create_regular(report_path, "w", encoding="utf-8") as fh:
            written.append(report_path)
            try:
                json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
            except ValueError as exc:
                raise ValueError(
                    f"{report_path}: {exc} at {_non_finite_key(report)}") from exc
            fh.write("\n")
        return report
    except Exception:
        for path in written:
            if path.is_file():  # a FIFO or directory found there is not ours
                path.unlink()
        raise
    finally:
        # rmdir takes only empty directories: tmp unless it keeps a failed
        # backend's scratch, and those made here only after a failure, since
        # a success leaves an output in each
        for directory in (out / "tmp", *reversed(made)):
            with contextlib.suppress(OSError):
                directory.rmdir()
