"""Training-mixture construction from vocal stems.

Reproduces the corpus recipe end to end: singer-disjoint splits, 10-second
segmentation at 8 kHz, duet or self-harmonic pairing, and SNR-controlled
mixing, all driven by a single integer seed. The output is a directory of
mixture/source WAV triples plus a ``dataset.json`` manifest (schema
``mir-ss/1``) that records every id, the seed, and each pair's SNR.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio import (
    CANONICAL_RATE,
    MAX_SNR_DB,
    PCM16_LSB,
    Outputs,
    Segment,
    Waveform,
    abs_peak,
    create_regular,
    quantize_pcm16,
    read_document,
    read_wav,
    resample,
    segment,
    segment_length,
    write_json,
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

# Each pair's files, by their key in a manifest record's "paths".
_PAIR_FILES = {"mix": "mix.wav", "src_a": "srcA.wav", "src_b": "srcB.wav"}


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


def _check_ratios(ratios: tuple[float, float, float]) -> None:
    if not all(0 <= r < math.inf for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(
            f"ratios must be finite, non-negative and sum to 1, got {ratios}")


def split_by_singer(entries: list[StemEntry],
                    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                    seed: int = 0) -> list[StemEntry]:
    """Assign whole singer groups to train/valid/test toward the ratios.

    Groups are shuffled by the seed and greedily fed to the split with the
    lowest current fill relative to its target (ties go in split order), so
    every non-empty split receives at least one singer. Singer-disjointness
    is exact by construction.
    """
    _check_ratios(ratios)
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
    return list(_draw_pairs(segments_by_singer, scheme, seed))


def _draw_pairs(segments_by_singer: dict[str, list[Segment]],
                scheme: PairingScheme,
                seed: int = 0) -> Iterator[tuple[Segment, Segment]]:
    """``pair_segments``' pairs, each drawn when it is taken. A grouping
    that cannot be paired raises at the first draw, before any pair is
    drawn."""
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
    for _ in range(scheme.repeats):
        for seg_a in ordered:
            if scheme.kind == DUET:
                others = [sid for sid in singers if sid != seg_a.singer_id]
                pool = by_singer[others[int(rng.integers(len(others)))]]
            else:
                pool = [s for s in by_singer[seg_a.singer_id]
                        if seg_key(s) != seg_key(seg_a)]
            yield seg_a, pool[int(rng.integers(len(pool)))]


def mix_at_snr(a: Waveform, b: Waveform, snr_db: float) -> MixPair:
    """Mix b under a at the requested SNR (mean-squared-amplitude ratio).

    b is scaled by g = sqrt(Pa / (Pb * 10^(snr/10))) and the returned
    source_b is the scaled signal, so the references decompose the mixture
    exactly. If the triple peaks above 1, all three are divided by the
    common peak, which leaves the SNR untouched. ``|snr_db|`` above
    MAX_SNR_DB raises ValueError.
    """
    if not abs(snr_db) <= MAX_SNR_DB:
        raise ValueError(f"snr must lie within -{MAX_SNR_DB:g}:{MAX_SNR_DB:g} dB, "
                         f"got {snr_db}")
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
    peak = max(abs_peak(mixture), abs_peak(src_a), abs_peak(src_b))
    if peak > 1.0:
        src_a /= peak
        src_b /= peak
        np.add(src_a, src_b, out=mixture)
    rate = a.sample_rate
    return MixPair(Waveform(mixture, rate), Waveform(src_a, rate), Waveform(src_b, rate))


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
    peak = abs_peak(mix)
    if peak > 1.0:
        # grid rounding can push the sum one LSB past full scale
        scale = (1.0 - 4 * PCM16_LSB) / peak
        a = quantize_pcm16(pair.source_a.samples * scale)
        b = quantize_pcm16(pair.source_b.samples * scale)
        mix = a + b
    pair_dir.mkdir(parents=True, exist_ok=True)
    for key, samples in (("mix", mix), ("src_a", a), ("src_b", b)):
        write_wav(Waveform(samples, rate), pair_dir / _PAIR_FILES[key])


def _stem_segments(entry: StemEntry, segment_seconds: float) -> list[Segment]:
    """A stem's segments at the canonical rate. Its full-length samples, as
    read and as resampled, are dropped on return, so no stem's are alive
    while the next is read."""
    return segment(resample(read_wav(entry.vocal_path), CANONICAL_RATE),
                   segment_seconds, song_id=entry.song_id, singer_id=entry.singer_id)


def _write_split(split: str, entries: list[StemEntry], scheme: PairingScheme,
                 segment_seconds: float, snr_range: tuple[float, float],
                 pairing_seed: int, rng: np.random.Generator,
                 outputs: Outputs) -> list[dict]:
    """Read the stems of ``entries`` in ``split``, by singer and song, pair
    their segments, mix each pair at an SNR drawn from ``snr_range`` and
    write it under ``outputs.root``; return the split's manifest records,
    none if no stem lasts one segment.

    Each pair and its SNR are drawn as it is written, so no pair plan is
    held, and the split's segments die on return, before the next split's
    stems are read. Each pair's three files are recorded in ``outputs``
    before any of them is written."""
    segs_by_singer: dict[str, list[Segment]] = {}
    for e in sorted((e for e in entries if e.split == split),
                    key=lambda e: (e.singer_id, e.song_id)):
        for s in _stem_segments(e, segment_seconds):
            segs_by_singer.setdefault(e.singer_id, []).append(s)
    if not segs_by_singer:
        return []

    lo, hi = snr_range
    records = []
    for seg_a, seg_b in _draw_pairs(segs_by_singer, scheme, seed=pairing_seed):
        # one scalar draw per pair: the same stream as one vector draw
        snr = float(rng.uniform(lo, hi))
        pair_id = f"{split}-{len(records):06d}"
        paths = {key: f"{split}/{pair_id}/{name}" for key, name in _PAIR_FILES.items()}
        for path in paths.values():
            outputs.file(path)
        _write_pair(mix_at_snr(seg_a.audio, seg_b.audio, snr),
                    outputs.root / split / pair_id)
        records.append({
            "pair_id": pair_id,
            "split": split,
            "snr_db": snr,
            "paths": paths,
            "song_a": seg_a.song_id, "singer_a": seg_a.singer_id,
            "segment_a": seg_a.index,
            "song_b": seg_b.song_id, "singer_b": seg_b.singer_id,
            "segment_b": seg_b.index,
            "pairing_scheme": scheme.kind,
        })
    return records


def build_dataset(manifest: list[StemEntry],
                  scheme: PairingScheme,
                  snr_range: tuple[float, float] = (-5.0, 5.0),
                  seed: int = 0,
                  out_dir=".",
                  segment_seconds: float = 10.0,
                  ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)) -> dict:
    """Build mixture pairs for every split and write WAVs plus the manifest.

    Entries pin their split all together or not at all; unpinned ones are
    split by singer first. Every setting is checked before any stem is read.
    Returns the manifest dict (also written to ``out_dir/dataset.json``).
    A build that writes no pair, all stems shorter than one segment, raises
    PairingImpossibleError. The splits are written in turn, one loop over
    SPLITS (``_write_split``), so one split's segments are alive at a time;
    each split that has pairs gets a summary row from its records. Every
    output is recorded in one ``Outputs``: a build that fails or is
    interrupted removes the files it wrote, the manifest and every pair,
    and the directories it made.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    lo, hi = snr_range
    if not -MAX_SNR_DB <= lo <= hi <= MAX_SNR_DB:
        raise ValueError(f"snr range must lie within -{MAX_SNR_DB:g}:{MAX_SNR_DB:g} dB "
                         f"with lo <= hi, got {lo}:{hi}")
    _check_ratios(ratios)
    segment_length(segment_seconds, CANONICAL_RATE)

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

    with Outputs(out_dir) as outputs:
        # dataset.json is made before any pair is written, so an output that
        # cannot take the manifest stops the build before it writes anything
        manifest_path = outputs.file("dataset.json")
        with create_regular(manifest_path):
            pass
        snr_rng = np.random.default_rng(snr_child)
        pair_records: list[dict] = []
        summary = {}
        for split_index, split in enumerate(SPLITS):
            records = _write_split(split, entries, scheme, segment_seconds, (lo, hi),
                                   (pairing_base + split_index) % (2 ** 31), snr_rng,
                                   outputs)
            if records:
                pair_records += records
                summary[split] = {"pairs": len(records),
                                  "duration_seconds": len(records) * segment_seconds}
        if not pair_records:
            raise PairingImpossibleError(
                f"no pairs to write: no stem lasts one {segment_seconds:g} s segment")
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
        write_json(manifest_path, doc)
    return doc


def _record_problem(record) -> str | None:
    """What is wrong with a manifest's pair record, or None."""
    if not isinstance(record, dict):
        return f"must be an object, got {type(record).__name__}"
    if not isinstance(record.get("pair_id"), str):
        return f"pair_id must be a string, got {record.get('pair_id')!r}"
    if record.get("split") not in SPLITS:
        return (f"split must be one of {', '.join(SPLITS)}, "
                f"got {record.get('split')!r}")
    paths = record.get("paths")
    if not (isinstance(paths, dict)
            and all(isinstance(paths.get(key), str) for key in _PAIR_FILES)):
        return f"paths must hold string {', '.join(_PAIR_FILES)}"
    return None


def load_manifest(path) -> tuple[dict, Path]:
    """Read a built dataset's manifest, given it or its directory; return
    the manifest and the directory its paths are relative to.

    ``pairs`` must be a list of records, each with a string ``pair_id``, a
    ``split`` in SPLITS and string ``paths`` for the mix and both sources.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "dataset.json"
    doc = read_document(path, ValueError)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != MANIFEST_SCHEMA:
        raise ValueError(f"{path}: unknown manifest schema {schema!r}")
    if not isinstance(doc.get("pairs"), list):
        raise ValueError(f"{path}: pairs must be a list of pair records")
    for i, record in enumerate(doc["pairs"]):
        problem = _record_problem(record)
        if problem:
            raise ValueError(f"{path}: pair record {i}: {problem}")
    return doc, path.parent


def load_stem_manifest(path) -> list[StemEntry]:
    """Read the input stem list: a JSON array of {song_id, singer_id, vocal_path}
    objects whose values are strings, each with an optional split."""
    doc = read_document(path, ValueError)
    if not isinstance(doc, list):
        raise ValueError(f"{path}: stem manifest must be a JSON array")
    entries = []
    for i, row in enumerate(doc):
        try:
            fields = {key: row[key] for key in ("song_id", "singer_id", "vocal_path")}
        except (TypeError, KeyError) as exc:
            raise ValueError(f"{path}: bad stem entry {i}: {exc}")
        for key, value in fields.items():
            if not isinstance(value, str):
                raise ValueError(
                    f"{path}: bad stem entry {i}: {key} must be a string, got {value!r}")
        entries.append(StemEntry(**fields, split=row.get("split")))
    return entries
