"""Fixtures, CLI operations and output checks for the singersep benchmark.

Fixtures are synthesized here with numpy and the standard ``wave`` module,
not with the program's own ``synth``/``audio`` code, so a change to the
program cannot change the inputs it is measured on. The program receives
only the generated files.

Run as a script, this module is one benchmark set-up: it imports the
program (so import-time work counts as set-up), synthesizes the timed
fixture for ``--seed`` plus the small default-seed check fixture, and
writes ``fixtures.json`` describing both::

    python3 perfbench/workloads.py --workload separate-select --seed 3 --out work/
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import shlex
import sys
import wave
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXT_BACKEND = Path(__file__).resolve().parent / "extbackend.py"

SONG_RATE = 44100
RATE = 8000
DEFAULT_SEED = 0
JOBS = "2"

WORKLOADS = ("separate-select", "dataset-roundtrip")

# Timed fixture sizes, and the smaller default-seed fixture whose outputs
# are compared with the committed reference on every run.
SONG_SECONDS = {"timed": 20, "check": 10}
CORPUS = {
    # Ratios 0.5/0.25/0.25 put at least two singers in every split
    # (duet pairing needs two); each singer has one stem, so the greedy
    # singer split is the same for every seed.
    "timed": {"singers": 12, "stem_seconds": 20, "repeats": 2},
    "check": {"singers": 8, "stem_seconds": 10, "repeats": 2},
}
RATIOS = "0.5,0.25,0.25"
SEGMENT_SECONDS = 10

CANDIDATES = ("clean", "leak2", "leak4", "swapnoise", "ext")


def add_src_path() -> bool:
    """Put this checkout's ``src`` first on sys.path; False if it is missing."""
    if not (SRC / "singersep" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


# --- WAV files (16-bit PCM mono) -------------------------------------------

def write_pcm16(path, samples: np.ndarray, rate: int) -> None:
    ints = np.rint(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(ints.tobytes())


def read_pcm16(path) -> tuple[np.ndarray, int]:
    with wave.open(str(path), "rb") as fh:
        if fh.getsampwidth() != 2 or fh.getnchannels() != 1:
            raise ValueError(f"{path}: expected mono 16-bit PCM")
        raw = fh.readframes(fh.getnframes())
        rate = fh.getframerate()
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0, rate


# --- synthesis --------------------------------------------------------------

def vibrato(carrier_hz, seconds, rate, vibrato_hz, depth_hz, phase):
    """Unit sine whose frequency is carrier + depth*sin(2 pi f_v t + phase)."""
    t = np.arange(int(round(seconds * rate))) / rate
    arg = 2 * np.pi * (carrier_hz * t - depth_hz / (2 * np.pi * vibrato_hz)
                       * (np.cos(2 * np.pi * vibrato_hz * t + phase) - np.cos(phase)))
    return np.sin(arg)


def make_song(out: Path, seed: int, seconds: int) -> dict:
    """A duet whose voices share vibrato rate, depth and phase, plus registry.

    Equal depth and phase keep the two voices' pitch trends parallel (the
    paper's harmony assumption); with unequal ones a leaky oracle can beat
    the clean one. The voices also trade prominence (loudness envelopes in
    antiphase): without that, a leak-0.4 oracle's tracking error is smooth
    and on some seeds sums to less than the clean oracle's tracker noise.
    The song is 44.1 kHz; the oracle references are the same voices
    synthesized at 8 kHz.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    carrier_a = rng.uniform(170.0, 240.0)
    carrier_b = carrier_a * rng.uniform(1.3, 1.55)
    shared = dict(vibrato_hz=rng.uniform(4.5, 6.0), depth_hz=rng.uniform(2.0, 4.0),
                  phase=rng.uniform(0.0, 2 * np.pi))
    swell_hz, swell_phase = rng.uniform(0.3, 0.6), rng.uniform(0.0, 2 * np.pi)

    def voices(rate):
        t = np.arange(seconds * rate) / rate
        swell = 0.6 * np.sin(2 * np.pi * swell_hz * t + swell_phase)
        return (0.45 * (1 + swell) * vibrato(carrier_a, seconds, rate, **shared),
                0.45 * (1 - swell) * vibrato(carrier_b, seconds, rate, **shared))

    paths = {k: out / f"{k}.wav" for k in ("song", "ref_a", "ref_b")}
    write_pcm16(paths["song"], sum(voices(SONG_RATE)), SONG_RATE)
    voice_a, voice_b = voices(RATE)
    write_pcm16(paths["ref_a"], voice_a, RATE)
    write_pcm16(paths["ref_b"], voice_b, RATE)

    ref_a, ref_b = str(paths["ref_a"]), str(paths["ref_b"])
    ext = f"{shlex.quote(sys.executable)} {shlex.quote(str(EXT_BACKEND))}"

    def oracle(model_id, **spec):
        return {"model_id": model_id, "stage": "stage2_two_vocals", "kind": "oracle",
                "oracle": {"ref_a": ref_a, "ref_b": ref_b, **spec}}

    registry = [
        {"model_id": "pass", "stage": "stage1_vocal_accomp", "kind": "passthrough"},
        oracle("clean"),
        oracle("leak2", leak=0.2),
        oracle("leak4", leak=0.4),
        oracle("swapnoise", swap=True, noise_snr_db=10.0, noise_seed=seed),
        {"model_id": "ext", "stage": "stage2_two_vocals",
         "command": (f"{ext} {{input}} {{out_a}} {{out_b}} "
                     f"{shlex.quote(ref_a)} {shlex.quote(ref_b)} 30")},
    ]
    paths["registry"] = out / "registry.json"
    with open(paths["registry"], "w", encoding="utf-8") as fh:
        json.dump({"schema": "mir-ss-registry/1", "models": registry}, fh, indent=2)
    return {"seed": seed, "seconds": seconds, **{k: str(v) for k, v in paths.items()}}


def make_corpus(out: Path, seed: int, singers: int, stem_seconds: int,
                repeats: int) -> dict:
    """One 44.1 kHz vibrato stem per singer, plus the stem manifest."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(singers):
        path = out / f"stem{i:02d}.wav"
        voice = vibrato(rng.uniform(150.0, 420.0), stem_seconds, SONG_RATE,
                        vibrato_hz=rng.uniform(4.5, 6.0),
                        depth_hz=rng.uniform(2.0, 4.0),
                        phase=rng.uniform(0.0, 2 * np.pi))
        write_pcm16(path, 0.7 * voice, SONG_RATE)
        rows.append({"song_id": f"song{i:02d}", "singer_id": f"singer{i:02d}",
                     "vocal_path": str(path)})
    manifest = out / "stems.json"
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
    pairs = singers * (stem_seconds // SEGMENT_SECONDS) * repeats
    return {"seed": seed, "manifest": str(manifest), "stems": singers,
            "repeats": repeats, "pairs": pairs, "dir": str(out)}


def make_fixtures(workload: str, seed: int, out: Path) -> dict:
    """Write the timed and check fixtures for a workload; return their description."""
    doc = {"workload": workload}
    for role, fx_seed in (("timed", seed), ("check", DEFAULT_SEED)):
        if workload == "dataset-roundtrip":
            doc[role] = make_corpus(out / role, fx_seed, **CORPUS[role])
        else:
            doc[role] = make_song(out / role, fx_seed, SONG_SECONDS[role])
    with open(out / "fixtures.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc


def make_estimates(dataset_dir: Path, est_dir: Path, seed: int) -> None:
    """Perturbed estimates for every pair: leak, noise, and random channel order."""
    est_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    with open(dataset_dir / "dataset.json", encoding="utf-8") as fh:
        pairs = json.load(fh)["pairs"]
    for rec in pairs:
        a, rate = read_pcm16(dataset_dir / rec["paths"]["src_a"])
        b, _ = read_pcm16(dataset_dir / rec["paths"]["src_b"])
        leak = rng.uniform(0.05, 0.3)
        est = [(1 - leak) * a + leak * b, (1 - leak) * b + leak * a]
        est = [e + 0.01 * rng.standard_normal(e.size) for e in est]
        if rng.random() < 0.5:
            est.reverse()
        write_pcm16(est_dir / f"{rec['pair_id']}_a.wav", est[0], rate)
        write_pcm16(est_dir / f"{rec['pair_id']}_b.wav", est[1], rate)


# --- operations -------------------------------------------------------------

def cli_main():
    from singersep import cli
    return cli.main


def run_cli(argv: list[str], main=None) -> int:
    """Run one CLI verb in-process, its stdout discarded; return its exit code."""
    main = main or cli_main()
    with redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            return exc.code


def separate_argv(fx: dict, out: Path) -> list[str]:
    return ["separate", fx["song"], "--registry", fx["registry"], "--out", str(out),
            "--seed", "0", "--jobs", JOBS, "--stage1", "pass"]


def build_argv(fx: dict, out: Path) -> list[str]:
    return ["build-dataset", "--manifest", fx["manifest"], "--scheme", "duet",
            "--repeats", str(fx["repeats"]), "--snr=-5:5", "--seed", str(fx["seed"]),
            "--ratios", RATIOS, "--out", str(out), "--jobs", JOBS]


def evaluate_argv(dataset_dir: Path, est_dir: Path, csv_path: Path) -> list[str]:
    return ["evaluate", "--dataset", str(dataset_dir), "--estimates", str(est_dir),
            "--split", "all", "--csv", str(csv_path), "--jobs", JOBS]


# --- output summaries and checks ---------------------------------------------

def separate_summary(out: Path) -> dict:
    """The parts of report.json the checks compare."""
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "chosen": report["chosen"],
        "scores": {c["model_id"]: c["score"] for c in report["candidates"]},
        "penalized": sorted(c["model_id"] for c in report["candidates"]
                            if c["penalized"] or c["error"]),
    }


def dataset_digest(dataset_dir: Path) -> str:
    """SHA-256 over dataset.json and every WAV, in sorted relative-path order."""
    h = hashlib.sha256()
    files = [dataset_dir / "dataset.json"] + sorted(dataset_dir.rglob("*.wav"))
    for path in files:
        h.update(str(path.relative_to(dataset_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def csv_means(csv_path: Path) -> dict:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    mean = next(r for r in rows if r["pair_id"] == "mean")
    return {k: float(v) for k, v in mean.items() if k != "pair_id"}


def _finite(values) -> bool:
    return all(v is not None and math.isfinite(v) and abs(v) < 1e9 for v in values)


def check_summary(workload: str, summary: dict) -> list[str]:
    """Problems with one operation's outputs, independent of any reference."""
    problems = []
    if workload == "separate-select":
        if summary["chosen"] != "clean":
            problems.append(f"chose {summary['chosen']!r}, expected 'clean'")
        if sorted(summary["scores"]) != sorted(CANDIDATES):
            problems.append(f"candidates {sorted(summary['scores'])}")
        if summary["penalized"] or not _finite(summary["scores"].values()):
            problems.append(f"scores {summary['scores']}, penalized {summary['penalized']}")
    else:
        if summary["pairs"] != summary["expected_pairs"]:
            problems.append(f"{summary['pairs']} pairs, expected {summary['expected_pairs']}")
        if not _finite(summary["means"].values()):
            problems.append(f"evaluation means {summary['means']}")
    return problems


def _close(a, b, rel=1e-9) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], rel) for k in a)
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
    return a == b


def reference_view(workload: str, summary: dict) -> dict:
    """The part of a summary that the committed reference pins."""
    if workload == "separate-select":
        return {"chosen": summary["chosen"], "scores": summary["scores"]}
    return {"digest": summary["digest"], "means": summary["means"]}


def compare(expected: dict, got: dict) -> list[str]:
    """Differences beyond 1e-9 relative (exact for strings and digests)."""
    return [f"{k}: expected {expected[k]!r}, got {got.get(k)!r}"
            for k in expected if not _close(expected[k], got.get(k))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's fixtures.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if not add_src_path():
        print(f"error: no singersep sources under {SRC}", file=sys.stderr)
        return 2
    import singersep.cli  # noqa: F401  program import is part of set-up
    make_fixtures(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
