#!/usr/bin/env python3
"""Synthesize a toy vocal-stem corpus for exercising the pipeline.

Each "singer" is a vibrato sine with a singer-specific carrier; each song
varies the vibrato contour. Writes WAV stems plus the stems.json manifest
that ``singersep build-dataset`` consumes.

Example:
    python scripts/make_toy_corpus.py --out /tmp/toy --singers 8 --songs 2
    singersep build-dataset --manifest /tmp/toy/stems.json --scheme duet \
        --ratios 0.5,0.25,0.25 --out /tmp/toy-ds --seed 7

Duet pairing needs two singers in every split, so eight singers take the
0.5/0.25/0.25 split (24/12/12 pairs) rather than the default 0.8/0.1/0.1.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from singersep import synth
from singersep.audio import write_wav


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--singers", type=int, default=8)
    parser.add_argument("--songs", type=int, default=2, help="songs per singer")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    out = Path(args.out)
    stems = out / "stems"
    stems.mkdir(parents=True, exist_ok=True)

    rows = []
    for s in range(args.singers):
        carrier = float(rng.uniform(140.0, 420.0))
        for k in range(args.songs):
            w = synth.vibrato_sine(
                carrier * float(rng.uniform(0.97, 1.03)),
                args.seconds,
                depth_hz=float(rng.uniform(2.0, 5.0)),
                vibrato_phase=float(rng.uniform(0, 2 * np.pi)))
            path = stems / f"singer{s:02d}_song{k:02d}.wav"
            write_wav(w, path)
            rows.append({"song_id": f"song-{s:02d}-{k:02d}",
                         "singer_id": f"singer-{s:02d}",
                         "vocal_path": str(path)})

    manifest = out / "stems.json"
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2)
    print(f"wrote {len(rows)} stems under {stems}")
    print(f"manifest: {manifest}")


if __name__ == "__main__":
    main()
