"""Training-mixture construction from vocal stems.

Reproduces the corpus recipe end to end: singer-disjoint splits, 10-second
segmentation at 8 kHz, duet or self-harmonic pairing, and SNR-controlled
mixing, all driven by a single integer seed. The output is a directory of
mixture/source WAV triples plus a ``dataset.json`` manifest (schema
``mir-ss/1``) that records every id, the seed, and each pair's SNR.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio import (
    CANONICAL_RATE,
    Segment,
    Waveform,
    quantize_pcm16,
    read_wav,
    resample,
    segment,
    write_wav,
)
from .errors import (
    InsufficientSingersError,
    PairingImpossibleError,
    SilentSourceError,
)

MANIFEST_SCHEMA = "mir-ss/1"

SPLITS = ("train", "valid", "test")

DUET = "duet"
SELF_HARMONIC = "self_harmonic"


@dataclass
class StemEntry:
    song_id: str
    singer_id: str
    vocal_path: str
    split: str | None = None


@dataclass
class PairingScheme:
    kind: str = DUET
    repeats: int = 1

    def __post_init__(self):
        if self.kind not in (DUET, SELF_HARMONIC):
            raise ValueError(f"unknown pairing scheme {self.kind!r}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


@dataclass
class MixPair:
    mixture: Waveform
    source_a: Waveform
    source_b: Waveform
    snr_db: float


def split_by_singer(entries: list[StemEntry],
                    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                    seed: int = 0) -> list[StemEntry]:
    """Assign whole singer groups to train/valid/test toward the ratios.

    Groups are shuffled by the seed and greedily fed to the split with the
    lowest current fill relative to its target (ties go in split order), so
    every non-empty split receives at least one singer. Singer-disjointness
    is exact by construction.
    """
    if not all(0 <= r < math.inf for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(
            f"ratios must be finite, non-negative and sum to 1, got {ratios}")

    groups: dict[str, list[StemEntry]] = {}
    for e in entries:
        groups.setdefault(e.singer_id, []).append(e)

    active = [i for i, r in enumerate(ratios) if r > 0]
    if len(groups) < len(active):
        raise InsufficientSingersError(
            f"{len(groups)} singer group(s) cannot fill {len(active)} non-empty splits")

    singer_ids = sorted(groups)
    rng = np.random.default_rng(seed)
    rng.shuffle(singer_ids)

    total_songs = len(entries)
    targets = [r * total_songs for r in ratios]
    filled = [0.0, 0.0, 0.0]
    out: list[StemEntry] = []
    for sid in singer_ids:
        fills = [filled[i] / targets[i] if i in active else float("inf")
                 for i in range(3)]
        dest = min(active, key=lambda i: (fills[i], i))
        for e in groups[sid]:
            out.append(replace(e, split=SPLITS[dest]))
        filled[dest] += len(groups[sid])
    return out


def pair_segments(segments_by_singer: dict[str, list[Segment]],
                  scheme: PairingScheme,
                  seed: int = 0) -> list[tuple[Segment, Segment]]:
    """Pair every segment with a partner, once per repeat pass.

    Duet partners come from a uniformly chosen different singer;
    self-harmonic partners are a different segment of the same singer.
    Draws are independent across passes.
    """
    singers = sorted(segments_by_singer)
    if scheme.kind == DUET and len(singers) < 2:
        raise PairingImpossibleError(
            f"duet pairing needs at least 2 singers, got {len(singers)}")
    if scheme.kind == SELF_HARMONIC:
        for sid in singers:
            if len(segments_by_singer[sid]) < 2:
                raise PairingImpossibleError(
                    f"self-harmonic pairing needs >= 2 segments per singer; "
                    f"singer {sid!r} has {len(segments_by_singer[sid])}")

    def seg_key(s: Segment):
        return (s.singer_id, s.song_id, s.index)

    ordered = sorted((s for segs in segments_by_singer.values() for s in segs),
                     key=seg_key)
    by_singer = {sid: sorted(segs, key=seg_key)
                 for sid, segs in segments_by_singer.items()}
    rng = np.random.default_rng(seed)
    pairs: list[tuple[Segment, Segment]] = []
    for _ in range(scheme.repeats):
        for seg_a in ordered:
            if scheme.kind == DUET:
                others = [sid for sid in singers if sid != seg_a.singer_id]
                pool = by_singer[others[int(rng.integers(len(others)))]]
            else:
                pool = [s for s in by_singer[seg_a.singer_id]
                        if seg_key(s) != seg_key(seg_a)]
            seg_b = pool[int(rng.integers(len(pool)))]
            pairs.append((seg_a, seg_b))
    return pairs


def mix_at_snr(a: Waveform, b: Waveform, snr_db: float) -> MixPair:
    """Mix b under a at the requested SNR (mean-squared-amplitude ratio).

    b is scaled by g = sqrt(Pa / (Pb * 10^(snr/10))) and the returned
    source_b is the scaled signal, so the references decompose the mixture
    exactly. If the triple peaks above 1, all three are divided by the
    common peak, which leaves the SNR untouched.
    """
    if len(a) != len(b) or a.sample_rate != b.sample_rate:
        raise SilentSourceError(
            f"inputs disagree: {len(a)}@{a.sample_rate} vs {len(b)}@{b.sample_rate}")
    pa = float(np.mean(a.samples ** 2))
    pb = float(np.mean(b.samples ** 2))
    if pa == 0.0 or pb == 0.0:
        raise SilentSourceError("cannot mix a zero-energy source")

    gain = float(np.sqrt(pa / (pb * 10 ** (snr_db / 10))))
    src_a = a.samples.copy()
    src_b = gain * b.samples
    mixture = src_a + src_b
    peak = max(float(np.max(np.abs(mixture))),
               float(np.max(np.abs(src_a))),
               float(np.max(np.abs(src_b))))
    if peak > 1.0:
        src_a /= peak
        src_b /= peak
        mixture = src_a + src_b
    rate = a.sample_rate
    return MixPair(Waveform(mixture, rate), Waveform(src_a, rate),
                   Waveform(src_b, rate), float(snr_db))


def measured_snr_db(source_a: Waveform, source_b: Waveform) -> float:
    pa = float(np.mean(source_a.samples ** 2))
    pb = float(np.mean(source_b.samples ** 2))
    return 10.0 * np.log10(pa / pb)


def _write_pair(pair: MixPair, pair_dir: Path) -> None:
    """Write the triple so that mix == srcA + srcB survives quantization.

    The sources are snapped to the 16-bit grid first and the mixture is
    written as their float sum; its int16 encoding is then exactly the sum
    of the source encodings, so a round trip decomposes with zero error.
    """
    rate = pair.mixture.sample_rate
    a = quantize_pcm16(pair.source_a.samples)
    b = quantize_pcm16(pair.source_b.samples)
    mix = a + b
    if np.any(np.abs(mix) > 1.0):
        # grid rounding can push the sum one LSB past full scale
        scale = (1.0 - 4.0 / 32767.0) / float(np.max(np.abs(mix)))
        a = quantize_pcm16(pair.source_a.samples * scale)
        b = quantize_pcm16(pair.source_b.samples * scale)
        mix = a + b
    pair_dir.mkdir(parents=True, exist_ok=True)
    write_wav(Waveform(mix, rate), pair_dir / "mix.wav")
    write_wav(Waveform(a, rate), pair_dir / "srcA.wav")
    write_wav(Waveform(b, rate), pair_dir / "srcB.wav")


def build_dataset(manifest: list[StemEntry],
                  scheme: PairingScheme,
                  snr_range: tuple[float, float] = (-5.0, 5.0),
                  seed: int = 0,
                  out_dir=".",
                  segment_seconds: float = 10.0,
                  ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)) -> dict:
    """Build mixture pairs for every split and write WAVs plus the manifest.

    Entries pin their split all together or not at all; unpinned ones are
    split by singer first. Returns the manifest dict (also written to
    ``out_dir/dataset.json``).
    """
    lo, hi = snr_range
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"snr range must be finite with lo <= hi, got {lo}:{hi}")

    # one seed drives everything: independent child streams per purpose
    children = np.random.SeedSequence(seed).spawn(3)
    split_seed, pairing_base, snr_child = (
        int(children[0].generate_state(1)[0]),
        int(children[1].generate_state(1)[0]),
        children[2])

    pinned = [e for e in manifest if e.split is not None]
    for e in pinned:
        if e.split not in SPLITS:
            raise ValueError(
                f"stem entry {e.song_id!r} of singer {e.singer_id!r}: unknown split "
                f"{e.split!r} (expected one of {', '.join(SPLITS)})")
    if 0 < len(pinned) < len(manifest):
        e = next(e for e in manifest if e.split is None)
        raise ValueError(
            f"{len(pinned)} of {len(manifest)} stem entries pin a split but "
            f"{e.song_id!r} of singer {e.singer_id!r} does not; pin every entry or none")
    if len(pinned) < len(manifest):
        entries = split_by_singer(manifest, ratios=ratios, seed=split_seed)
    else:
        entries = manifest
        by_split_singers = {}
        for e in entries:
            by_split_singers.setdefault(e.singer_id, set()).add(e.split)
        offenders = {s for s, splits in by_split_singers.items() if len(splits) > 1}
        if offenders:
            raise PairingImpossibleError(
                f"singers appear in multiple splits: {sorted(offenders)}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(snr_child)
    pair_records = []
    summary = {}
    for split_index, split in enumerate(SPLITS):
        split_entries = sorted((e for e in entries if e.split == split),
                               key=lambda e: (e.singer_id, e.song_id))
        if not split_entries:
            continue
        segs_by_singer: dict[str, list[Segment]] = {}
        for e in split_entries:
            w = resample(read_wav(e.vocal_path), CANONICAL_RATE)
            for s in segment(w, segment_seconds, song_id=e.song_id,
                             singer_id=e.singer_id):
                segs_by_singer.setdefault(e.singer_id, []).append(s)
        if not segs_by_singer:
            continue

        pairs = pair_segments(segs_by_singer, scheme,
                              seed=(pairing_base + split_index) % (2 ** 31))
        snrs = rng.uniform(lo, hi, size=len(pairs))

        for i, ((seg_a, seg_b), snr) in enumerate(zip(pairs, snrs)):
            pair_id = f"{split}-{i:06d}"
            _write_pair(mix_at_snr(seg_a.audio, seg_b.audio, float(snr)),
                        out / split / pair_id)
            pair_records.append({
                "pair_id": pair_id,
                "split": split,
                "snr_db": float(snr),
                "paths": {
                    "mix": f"{split}/{pair_id}/mix.wav",
                    "src_a": f"{split}/{pair_id}/srcA.wav",
                    "src_b": f"{split}/{pair_id}/srcB.wav",
                },
                "song_a": seg_a.song_id, "singer_a": seg_a.singer_id,
                "segment_a": seg_a.index,
                "song_b": seg_b.song_id, "singer_b": seg_b.singer_id,
                "segment_b": seg_b.index,
                "pairing_scheme": scheme.kind,
            })
        summary[split] = {
            "pairs": len(pairs),
            "duration_seconds": len(pairs) * segment_seconds,
        }

    doc = {
        "schema": MANIFEST_SCHEMA,
        "seed": seed,
        "scheme": {"kind": scheme.kind, "repeats": scheme.repeats},
        "snr_range_db": [lo, hi],
        "sample_rate": CANONICAL_RATE,
        "segment_seconds": segment_seconds,
        "pairs": pair_records,
        "summary": summary,
    }
    with open(out / "dataset.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_manifest(path) -> dict:
    path = Path(path)
    if path.is_dir():
        path = path / "dataset.json"
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(f"{path}: unknown manifest schema {doc.get('schema')!r}")
    return doc


def load_stem_manifest(path) -> list[StemEntry]:
    """Read the input stem list: a JSON array of {song_id, singer_id, vocal_path}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: stem manifest must be a JSON array")
    entries = []
    for i, row in enumerate(doc):
        try:
            entries.append(StemEntry(
                song_id=str(row["song_id"]),
                singer_id=str(row["singer_id"]),
                vocal_path=str(row["vocal_path"]),
                split=row.get("split"),
            ))
        except (TypeError, KeyError) as exc:
            raise ValueError(f"{path}: bad stem entry {i}: {exc}")
    return entries
