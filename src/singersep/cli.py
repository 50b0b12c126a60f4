"""Command-line entry points: separate, build-dataset, evaluate, selftest.

Run settings resolve as flags > MIRSS_<KEY> environment variables > config
file (key=value lines). Exit codes: 0 success, 2 configuration error,
3 backend failure, 4 evaluation incomplete.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import audio, backends, dataset, metrics, pipeline, pitch, selection, synth
from .errors import (
    BackendFailureError,
    ConfigInvalidError,
    ContractViolationError,
    SingerSepError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_INCOMPLETE = 4

# evaluate's metric columns, in CSV order after pair_id
_METRIC_COLUMNS = ("si_snr_db", "si_snri_db", "sdr_db", "sdri_db")

# Run settings. A verb takes only those it declares (build_parser), also from
# MIRSS_<KEY> and config lines, so one environment and config serve all verbs.
_SETTINGS = {
    "seed": {"type": int},
    "jobs": {"type": int, "help": "worker pool size, at least 1 (default: CPUs)"},
    "pitch_threshold": {"type": float, "default": pitch.PitchConfig.threshold},
    "pitch_fmin": {"type": float, "default": pitch.PitchConfig.fmin_hz},
    "pitch_fmax": {"type": float, "default": pitch.PitchConfig.fmax_hz},
    "pitch_frame": {"type": float, "default": pitch.PitchConfig.frame_seconds},
    "pitch_hop": {"type": float, "default": pitch.PitchConfig.hop_seconds},
    "units": {"choices": selection.UNITS, "default": "hz",
              "help": "pitch units for trend scoring (default hz)"},
}


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


def _config_settings(path) -> list[tuple[str, str]]:
    """The ``key = value`` lines of a config file; '#' starts a comment."""
    settings = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ConfigInvalidError(f"{path}:{lineno}: expected key=value")
            if key not in _SETTINGS:
                raise ConfigInvalidError(
                    f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(_SETTINGS)})")
            settings.append((key, value))
    return settings


class _SettingsParser(argparse.ArgumentParser):
    """Raises, not exits: the user's flags parsed alone first, so an error
    here comes from the environment or the config file."""

    def error(self, message):
        raise ConfigInvalidError(f"{message} (set by a MIRSS_* variable or the config file)")


def _merge_settings(args, argv: list[str]):
    """Parse again with the config file's, then the environment's settings
    as flags in front of the user's: argparse keeps the last value it sees."""
    path = args.config or os.environ.get("MIRSS_CONFIG")
    settings = _config_settings(path) if path else []
    settings += [(key, os.environ.get(f"MIRSS_{key.upper()}")) for key in _SETTINGS]
    leading = [f"{_flag(key)}={value}" for key, value in settings
               if key in vars(args) and value is not None]
    if leading:
        verb = argv.index(args.command) + 1
        args = build_parser(_SettingsParser).parse_args(
            argv[:verb] + leading + argv[verb:])
    if args.jobs is not None and args.jobs < 1:
        raise ConfigInvalidError(f"jobs must be at least 1, got {args.jobs}")
    return args


def _ensure_seed(value: int | None) -> int:
    if value is not None:
        return value
    drawn = int(np.random.SeedSequence().entropy % (2 ** 31))
    print(f"no --seed given; drew seed {drawn}")
    return drawn


def _add_settings(p: argparse.ArgumentParser, *keys: str) -> None:
    p.add_argument("--config", help="key=value config file (or MIRSS_CONFIG)")
    for key in keys:
        p.add_argument(_flag(key), **_SETTINGS[key])


def cmd_separate(args) -> int:
    refs = [ref for ref in (args.ref_a, args.ref_b) if ref is not None]
    if len(refs) == 1:
        raise ConfigInvalidError("--ref-a and --ref-b must be given together")
    models = backends.registry_load(args.registry)
    result = pipeline.separate_song(
        args.song,
        models,
        stage1_id=args.stage1,
        out_dir=args.out,
        model=args.model,
        seed=args.seed,
        pitch_config=pitch.PitchConfig(
            frame_seconds=args.pitch_frame, hop_seconds=args.pitch_hop,
            threshold=args.pitch_threshold, fmin_hz=args.pitch_fmin,
            fmax_hz=args.pitch_fmax),
        units=args.units,
        segment_seconds=args.segment_seconds,
        refs=tuple(refs) or None,
        jobs=args.jobs,
    )
    report = result.report
    print(f"chosen model: {report['chosen']}"
          + (" (selection bypassed)" if report["selection_bypassed"] else ""))
    for entry in report["candidates"]:
        score = entry["score"]
        shown = "null" if score is None else f"{score:.4f}"
        flags = " [penalized]" if entry["penalized"] else ""
        flags += f" [failed: {entry['error']}]" if entry["error"] else ""
        print(f"  {entry['model_id']}: score={shown} "
              f"frames={entry['contributing_frames']}{flags}")
    if report["evaluation"] is not None:
        mean = report["evaluation"]["mean"]
        print(f"evaluation: SI-SNRi {mean['si_snri_db']:.4f} dB, "
              f"SDRi {mean['sdri_db']:.4f} dB")
    print(f"outputs in {args.out} (report.json alongside)")
    return EXIT_OK


def cmd_build_dataset(args) -> int:
    seed = _ensure_seed(args.seed)
    entries = dataset.load_stem_manifest(args.manifest)
    scheme = dataset.PairingScheme(
        kind=dataset.SELF_HARMONIC if args.scheme == "self" else dataset.DUET,
        repeats=args.repeats)
    doc = dataset.build_dataset(entries, scheme, snr_range=args.snr, seed=seed,
                                out_dir=args.out,
                                segment_seconds=args.segment_seconds,
                                ratios=args.ratios)
    print(f"{'Split':<8}{'Pairs':>8}   Duration")
    total_pairs, total_secs = 0, 0.0
    for split in dataset.SPLITS:
        if split not in doc["summary"]:
            continue
        row = doc["summary"][split]
        total_pairs += row["pairs"]
        total_secs += row["duration_seconds"]
        print(f"{split:<8}{row['pairs']:>8}   {_fmt_duration(row['duration_seconds'])}")
    print(f"{'total':<8}{total_pairs:>8}   {_fmt_duration(total_secs)}")
    print(f"manifest: {Path(args.out) / 'dataset.json'}")
    return EXIT_OK


def _fmt_duration(seconds: float) -> str:
    hours = int(seconds // 3600)
    minutes = (seconds - 3600 * hours) / 60
    return f"{hours}hr {minutes:.1f}min"


def _evaluate_pair(root: Path, estimates: Path, record: dict):
    pair_id = record["pair_id"]
    est_a = estimates / f"{pair_id}_a.wav"
    est_b = estimates / f"{pair_id}_b.wav"
    if not est_a.exists() or not est_b.exists():
        return pair_id, None
    try:
        refs = (audio.read_wav(root / record["paths"]["src_a"]),
                audio.read_wav(root / record["paths"]["src_b"]))
        ests = (audio.read_wav(est_a), audio.read_wav(est_b))
        mix = audio.read_wav(root / record["paths"]["mix"])
        return pair_id, metrics.pit_evaluate(refs, ests, mix)
    except SingerSepError as exc:
        raise type(exc)(f"pair {pair_id}: {exc}") from exc


def cmd_evaluate(args) -> int:
    doc = dataset.load_manifest(args.dataset)
    root = Path(args.dataset)
    if not root.is_dir():
        root = root.parent
    estimates = Path(args.estimates)

    records = [r for r in doc["pairs"]
               if args.split == "all" or r["split"] == args.split]
    if not records:
        raise ConfigInvalidError(f"no pairs in split {args.split!r}")

    jobs = args.jobs or os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(
            lambda r: _evaluate_pair(root, estimates, r), records))

    rows = []
    missing = []
    for pair_id, result in results:  # already in input order
        if result is None:
            missing.append(pair_id)
            continue
        mean = result.mean
        rows.append({"pair_id": pair_id,
                     **{k: getattr(mean, k) for k in _METRIC_COLUMNS}})
        print(f"{pair_id}: SI-SNRi {mean.si_snri_db:.4f} dB, "
              f"SDRi {mean.sdri_db:.4f} dB")

    if rows:
        means = {k: min(float(np.mean([r[k] for r in rows])), metrics.SENTINEL_DB)
                 for k in _METRIC_COLUMNS}
        print(f"mean over {len(rows)} pairs: "
              f"SI-SNRi {means['si_snri_db']:.4f} dB, SDRi {means['sdri_db']:.4f} dB")
        csv_path = Path(args.csv) if args.csv else estimates / "evaluation.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["pair_id", *_METRIC_COLUMNS])
            writer.writeheader()
            writer.writerows(rows)
            writer.writerow({"pair_id": "mean", **means})
        print(f"csv: {csv_path}")

    if missing:
        print(f"missing estimates for {len(missing)} pair(s): "
              + ", ".join(missing[:10]) + ("..." if len(missing) > 10 else ""),
              file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


# --- selftest ------------------------------------------------------------

def _selftest_checks(tmp: Path):
    rate = audio.CANONICAL_RATE

    def wav_roundtrip():
        w = synth.sine(440.0, 1.0)
        path = tmp / "rt.wav"
        audio.write_wav(w, path)
        back = audio.read_wav(path)
        err = float(np.max(np.abs(back.samples - w.samples)))
        return err <= 2 ** -15, f"max roundtrip error {err:.2e}"

    def resample_tone():
        w = synth.sine(440.0, 2.0, rate=44100)
        down = audio.resample(w, rate)
        spectrum = np.abs(np.fft.rfft(down.samples))
        peak = np.argmax(spectrum) * rate / len(down)
        return abs(peak - 440.0) <= 4.4, f"peak at {peak:.2f} Hz"

    def segment_count():
        w = synth.sine(200.0, 35.0)
        segs = audio.segment(w, 10.0)
        return len(segs) == 3 and all(len(s.audio) == 10 * rate for s in segs), \
            f"{len(segs)} segments"

    def mix_snr_exact():
        a = synth.vibrato_sine(220.0, 2.0)
        b = synth.vibrato_sine(330.0, 2.0, vibrato_phase=1.0)
        pair = dataset.mix_at_snr(a, b, 3.7)
        got = dataset.measured_snr_db(pair.source_a, pair.source_b)
        return abs(got - 3.7) <= 1e-6, f"measured {got:.8f} dB"

    def sisnr_scale_invariant():
        rng = np.random.default_rng(7)
        ref = rng.standard_normal(4000)
        est = ref + 0.1 * rng.standard_normal(4000)
        d = abs(metrics.si_snr(ref, est) - metrics.si_snr(ref, 0.37 * est))
        return d <= 1e-6, f"|delta| {d:.2e} dB"

    def pitch_sine():
        track = pitch.track_pitch(synth.sine(220.0, 2.0))
        voiced = track.pitches_hz[track.pitches_hz > 0]
        if not voiced.size:
            return False, "no voiced frames"
        err = abs(float(np.median(voiced)) - 220.0) / 220.0
        return err <= 0.01 and track.voiced_fraction() >= 0.95, \
            f"median err {100 * err:.2f}%, voiced {100 * track.voiced_fraction():.0f}%"

    def pitch_silence():
        track = pitch.track_pitch(synth.silence(1.0))
        return track.voiced_fraction() == 0.0, \
            f"voiced {track.voiced_fraction():.2f}"

    def trend_zero_identical():
        t = pitch.track_pitch(synth.vibrato_sine(220.0, 1.0))
        score = selection.trend_distance(t, t)
        return score.score == 0.0 and not score.penalized, f"score {score.score}"

    def trend_penalty_silent():
        t = pitch.track_pitch(synth.vibrato_sine(220.0, 1.0))
        z = pitch.PitchTrack(np.zeros(len(t)), t.hop_seconds)
        score = selection.trend_distance(t, z)
        return score.penalized and score.score == selection.PENALTY_SCORE, \
            f"score {score.score}"

    def pit_swap():
        a = synth.sine(220.0, 1.0).samples
        b = synth.sine(330.0, 1.0).samples
        result = metrics.pit_evaluate((a, b), (b, a), a + b)
        return result.mean.si_snr_db == metrics.SENTINEL_DB \
            and result.mean.permutation == {0: 1, 1: 0}, \
            f"perm {result.mean.permutation}"

    def passthrough_conservation():
        w = synth.vibrato_sine(247.0, 1.0)
        backend = backends.SeparationBackend(kind=backends.KIND_PASSTHROUGH,
                                             stage=backends.STAGE1)
        vocal, accomp = backends.run_backend(backend, w)
        exact = np.array_equal(vocal.samples + accomp.samples, w.samples)
        return exact, "vocal + accompaniment == input" if exact else "mismatch"

    def oracle_selection():
        ref_a = synth.vibrato_sine(200.0, 3.0, depth_hz=3.0)
        ref_b = synth.vibrato_sine(310.0, 3.0, depth_hz=3.0)
        pa, pb = tmp / "oa.wav", tmp / "ob.wav"
        audio.write_wav(ref_a, pa)
        audio.write_wav(ref_b, pb)
        mix = dataset.mix_at_snr(ref_a, ref_b, 0.0).mixture
        cands = [
            backends.CandidateModel("clean", backends.SeparationBackend(
                kind=backends.KIND_ORACLE, stage=backends.STAGE2,
                oracle=backends.OracleSpec(str(pa), str(pb), leak=0.0))),
            backends.CandidateModel("leaky", backends.SeparationBackend(
                kind=backends.KIND_ORACLE, stage=backends.STAGE2,
                oracle=backends.OracleSpec(str(pa), str(pb), leak=0.4))),
        ]
        result = selection.select_model(mix, cands, workdir=tmp)
        return result.chosen == "clean", f"chose {result.chosen}"

    return [
        ("wav_roundtrip", wav_roundtrip),
        ("resample_tone", resample_tone),
        ("segment_count", segment_count),
        ("mix_snr_exact", mix_snr_exact),
        ("sisnr_scale_invariant", sisnr_scale_invariant),
        ("pitch_sine", pitch_sine),
        ("pitch_silence", pitch_silence),
        ("trend_zero_identical", trend_zero_identical),
        ("trend_penalty_silent", trend_penalty_silent),
        ("pit_swap", pit_swap),
        ("passthrough_conservation", passthrough_conservation),
        ("oracle_selection", oracle_selection),
    ]


def cmd_selftest(args) -> int:
    results = []
    with tempfile.TemporaryDirectory(prefix="singersep-selftest-") as tmp:
        for name, check in _selftest_checks(Path(tmp)):
            try:
                passed, detail = check()
            except Exception as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append({"name": name, "passed": bool(passed), "detail": detail})

    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}: {r['detail']}")
    failed = [r for r in results if not r["passed"]]
    if failed and not args.json:
        print(f"{len(failed)} of {len(results)} checks failed")
    return EXIT_OK if not failed else 1


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="singersep",
        description="Two-stage singer separation with pitch-trend model selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate", help="separate one song into stems")
    p.add_argument("song", help="input WAV")
    p.add_argument("--registry", required=True, help="model registry JSON")
    p.add_argument("--stage1", required=True, help="model_id of the stage-1 backend")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--model", default=None,
                   help="bypass selection and run only this stage-2 model")
    p.add_argument("--segment-seconds", type=float, default=None,
                   help="score trends in blocks of this length instead of whole-input")
    p.add_argument("--ref-a", default=None, help="ground-truth vocal A for evaluation")
    p.add_argument("--ref-b", default=None, help="ground-truth vocal B for evaluation")
    _add_settings(p, *_SETTINGS)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("build-dataset", help="build training mixtures from stems",
                       description="Build mixtures from stems, serially: --jobs is unused.")
    p.add_argument("--manifest", required=True,
                   help="JSON array of {song_id, singer_id, vocal_path}")
    p.add_argument("--scheme", choices=("duet", "self"), required=True)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--snr", type=_parse_range, default=(-5.0, 5.0),
                   metavar="LO:HI", help="SNR range in dB (default -5:5)")
    p.add_argument("--out", required=True)
    p.add_argument("--segment-seconds", type=float, default=10.0)
    p.add_argument("--ratios", type=_parse_ratios, default=(0.8, 0.1, 0.1),
                   metavar="TRAIN,VALID,TEST")
    _add_settings(p, "seed", "jobs")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("evaluate", help="score estimates against a built dataset")
    p.add_argument("--dataset", required=True,
                   help="dataset directory or dataset.json path")
    p.add_argument("--estimates", required=True,
                   help="directory of <pair_id>_a.wav / <pair_id>_b.wav files")
    p.add_argument("--split", choices=("train", "valid", "test", "all"),
                   default="test")
    p.add_argument("--csv", default=None, help="output CSV path")
    _add_settings(p, "jobs")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("selftest", help="run the bundled synthetic fixture suite")
    p.add_argument("--json", action="store_true", help="machine-readable results")
    p.set_defaults(func=cmd_selftest)

    return parser


def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated ratios")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric ratio in {text!r}")
    if abs(sum(vals) - 1.0) > 1e-9:
        raise argparse.ArgumentTypeError(f"ratios must sum to 1, got {sum(vals)}")
    return vals


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if "config" in vars(args):  # every verb but selftest
            args = _merge_settings(args, argv)
        return args.func(args)
    except (BackendFailureError, ContractViolationError) as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (SingerSepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
