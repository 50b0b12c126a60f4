import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singersep import synth
from singersep.audio import read_wav, segment
from singersep.dataset import (
    DUET,
    SELF_HARMONIC,
    PairingScheme,
    StemEntry,
    build_dataset,
    load_stem_manifest,
    measured_snr_db,
    mix_at_snr,
    pair_segments,
    split_by_singer,
)
from singersep.errors import (
    InsufficientSingersError,
    PairingImpossibleError,
    SilentSourceError,
)

from conftest import write_toy_stems


def _entries(n_singers, songs_per_singer=1):
    return [
        StemEntry(song_id=f"song-{s}-{k}", singer_id=f"singer-{s}",
                  vocal_path=f"/dev/null/{s}-{k}.wav")
        for s in range(n_singers) for k in range(songs_per_singer)
    ]


class TestSplitBySinger:
    def test_exact_fill_ten_singers(self):
        out = split_by_singer(_entries(10), (0.8, 0.1, 0.1), seed=123)
        counts = {s: sum(1 for e in out if e.split == s)
                  for s in ("train", "valid", "test")}
        assert counts == {"train": 8, "valid": 1, "test": 1}

    def test_insufficient_singers(self):
        with pytest.raises(InsufficientSingersError):
            split_by_singer(_entries(2), (0.8, 0.1, 0.1), seed=0)

    def test_two_way_split_with_two_singers(self):
        out = split_by_singer(_entries(2), (0.8, 0.0, 0.2), seed=0)
        assert {e.split for e in out} == {"train", "test"}

    def test_same_seed_reproduces(self):
        a = split_by_singer(_entries(9, 3), seed=7)
        b = split_by_singer(_entries(9, 3), seed=7)
        assert [(e.song_id, e.split) for e in a] == [(e.song_id, e.split) for e in b]

    def test_disjoint_and_ratio_weighted_by_songs(self):
        entries = _entries(6, 4)  # 24 songs
        out = split_by_singer(entries, (0.5, 0.25, 0.25), seed=3)
        by_split = {}
        for e in out:
            by_split.setdefault(e.split, set()).add(e.singer_id)
        splits = list(by_split.values())
        for i in range(len(splits)):
            for j in range(i + 1, len(splits)):
                assert not splits[i] & splits[j]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 20), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
    def test_disjointness_property(self, n_singers, songs, seed):
        out = split_by_singer(_entries(n_singers, songs), (0.8, 0.1, 0.1), seed=seed)
        singer_splits = {}
        for e in out:
            singer_splits.setdefault(e.singer_id, set()).add(e.split)
        assert all(len(s) == 1 for s in singer_splits.values())
        assert {e.split for e in out} == {"train", "valid", "test"}

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_by_singer(_entries(5), (0.5, 0.1, 0.1), seed=0)

    @pytest.mark.parametrize("ratios", [(math.nan, 0.5, 0.5), (0.5, 0.5, math.nan)])
    def test_non_finite_ratios_rejected(self, ratios):
        with pytest.raises(ValueError, match="finite"):
            split_by_singer(_entries(5), ratios, seed=0)


def _toy_segments(n_singers, per_singer, seconds=10.0):
    groups = {}
    for s in range(n_singers):
        sid = f"singer-{s}"
        w = synth.vibrato_sine(180.0 + 30 * s, seconds * per_singer)
        groups[sid] = segment(w, seconds, song_id=f"song-{s}", singer_id=sid)
    return groups


class TestPairSegments:
    def test_duet_one_pair_per_segment(self):
        groups = _toy_segments(2, 3)
        pairs = pair_segments(groups, PairingScheme(DUET, repeats=1), seed=0)
        assert len(pairs) == 6
        assert all(a.singer_id != b.singer_id for a, b in pairs)

    def test_duet_repeats_double(self):
        groups = _toy_segments(2, 3)
        pairs = pair_segments(groups, PairingScheme(DUET, repeats=2), seed=0)
        assert len(pairs) == 12

    def test_self_harmonic_same_singer_distinct_segment(self):
        groups = _toy_segments(1, 4)
        pairs = pair_segments(groups, PairingScheme(SELF_HARMONIC), seed=5)
        assert len(pairs) == 4
        for a, b in pairs:
            assert a.singer_id == b.singer_id
            assert a.index != b.index

    def test_duet_needs_two_singers(self):
        with pytest.raises(PairingImpossibleError):
            pair_segments(_toy_segments(1, 4), PairingScheme(DUET), seed=0)

    def test_self_needs_two_segments_each(self):
        groups = _toy_segments(2, 3)
        groups["lonely"] = _toy_segments(1, 1)["singer-0"]
        for s in groups["lonely"]:
            s.singer_id = "lonely"
        with pytest.raises(PairingImpossibleError, match="lonely"):
            pair_segments(groups, PairingScheme(SELF_HARMONIC), seed=0)

    def test_deterministic_under_seed(self):
        groups = _toy_segments(3, 3)
        key = lambda pairs: [(a.singer_id, a.index, b.singer_id, b.index)
                             for a, b in pairs]
        p1 = pair_segments(groups, PairingScheme(DUET), seed=42)
        p2 = pair_segments(groups, PairingScheme(DUET), seed=42)
        assert key(p1) == key(p2)

    def test_never_pairs_segment_with_itself(self):
        groups = _toy_segments(1, 2)
        for seed in range(20):
            pairs = pair_segments(groups, PairingScheme(SELF_HARMONIC), seed=seed)
            for a, b in pairs:
                assert (a.song_id, a.index) != (b.song_id, b.index)


class TestMixAtSnr:
    def test_equal_power_zero_db(self):
        a = synth.sine(220.0, 1.0, amplitude=0.4)
        b = synth.sine(330.0, 1.0, amplitude=0.4)
        pair = mix_at_snr(a, b, 0.0)
        # g == 1: source_b is b unchanged
        np.testing.assert_allclose(pair.source_b.samples, b.samples, atol=1e-12)
        assert measured_snr_db(pair.source_a, pair.source_b) == pytest.approx(0.0, abs=1e-9)

    def test_five_db_recomputed_from_outputs(self):
        rng = np.random.default_rng(17)
        a = synth.vibrato_sine(200.0, 1.0, depth_hz=4.0)
        b = synth.white_noise(1.0, amplitude=0.3, seed=2)
        pair = mix_at_snr(a, b, 5.0)
        got = measured_snr_db(pair.source_a, pair.source_b)
        assert got == pytest.approx(5.0, abs=1e-6)

    def test_silent_source_rejected(self):
        a = synth.sine(220.0, 1.0)
        with pytest.raises(SilentSourceError):
            mix_at_snr(a, synth.silence(1.0), 0.0)

    def test_mixture_decomposes_exactly(self):
        a = synth.sine(220.0, 1.0, amplitude=0.9)
        b = synth.sine(330.0, 1.0, amplitude=0.9)
        pair = mix_at_snr(a, b, -2.0)
        np.testing.assert_array_equal(
            pair.mixture.samples, pair.source_a.samples + pair.source_b.samples)

    def test_peak_normalization_preserves_snr(self):
        a = synth.sine(220.0, 1.0, amplitude=1.0)
        b = synth.sine(220.0, 1.0, amplitude=1.0)  # in phase: mixture peaks at 2
        pair = mix_at_snr(a, b, 0.0)
        assert pair.mixture.peak() <= 1.0
        assert measured_snr_db(pair.source_a, pair.source_b) == pytest.approx(0.0, abs=1e-9)

    def test_sources_never_exceed_full_scale(self):
        a = synth.sine(220.0, 1.0, amplitude=0.05)
        b = synth.sine(303.0, 1.0, amplitude=0.9)
        pair = mix_at_snr(a, b, -20.0)  # b scaled up well past 1.0
        assert pair.source_b.peak() <= 1.0
        assert measured_snr_db(pair.source_a, pair.source_b) == pytest.approx(-20.0, abs=1e-6)


class TestBuildDataset:
    def test_toy_corpus_counts(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=4, seconds=30.0, split="train")
        entries = load_stem_manifest(manifest)
        doc = build_dataset(entries, PairingScheme(DUET, repeats=1),
                            snr_range=(0.0, 0.0), seed=9, out_dir=tmp_path / "ds")
        assert doc["summary"]["train"]["pairs"] == 12  # 3 segments x 4 songs
        assert doc["summary"]["train"]["duration_seconds"] == 120.0

    def test_repeats_double_counts(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=30.0, split="train")
        entries = load_stem_manifest(manifest)
        doc = build_dataset(entries, PairingScheme(DUET, repeats=2),
                            snr_range=(0.0, 0.0), seed=9, out_dir=tmp_path / "ds")
        assert doc["summary"]["train"]["pairs"] == 12  # 2 x (3 segments x 2 songs)

    def test_degenerate_snr_range(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0, split="train")
        entries = load_stem_manifest(manifest)
        doc = build_dataset(entries, PairingScheme(DUET), snr_range=(0.0, 0.0),
                            seed=1, out_dir=tmp_path / "ds")
        assert all(rec["snr_db"] == 0.0 for rec in doc["pairs"])

    @pytest.mark.parametrize("snr_range", [
        (-math.inf, math.inf), (math.inf, math.inf), (math.nan, 0.0), (5.0, -5.0)])
    def test_bad_snr_range_rejected(self, tmp_path, snr_range):
        with pytest.raises(ValueError, match="snr range"):
            build_dataset(_entries(4), PairingScheme(DUET), snr_range=snr_range,
                          out_dir=tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_rebuild_is_byte_identical(self, tmp_path):
        # 8 singers so every split draws at least two (duet needs them)
        manifest = write_toy_stems(tmp_path, n_singers=8, seconds=20.0)
        entries = load_stem_manifest(manifest)
        build_dataset(entries, PairingScheme(DUET), snr_range=(-5, 5), seed=4,
                      out_dir=tmp_path / "ds1", ratios=(0.5, 0.25, 0.25))
        entries = load_stem_manifest(manifest)
        build_dataset(entries, PairingScheme(DUET), snr_range=(-5, 5), seed=4,
                      out_dir=tmp_path / "ds2", ratios=(0.5, 0.25, 0.25))
        d1 = (tmp_path / "ds1" / "dataset.json").read_bytes()
        d2 = (tmp_path / "ds2" / "dataset.json").read_bytes()
        assert d1 == d2

    def test_emitted_wavs_decompose_within_one_lsb(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0, split="train")
        entries = load_stem_manifest(manifest)
        doc = build_dataset(entries, PairingScheme(DUET), snr_range=(-5, 5),
                            seed=11, out_dir=tmp_path / "ds")
        root = tmp_path / "ds"
        for rec in doc["pairs"]:
            mix = read_wav(root / rec["paths"]["mix"]).samples
            a = read_wav(root / rec["paths"]["src_a"]).samples
            b = read_wav(root / rec["paths"]["src_b"]).samples
            assert np.max(np.abs(mix - a - b)) <= 2 ** -15

    def test_recorded_snr_matches_sources(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0, split="train")
        entries = load_stem_manifest(manifest)
        doc = build_dataset(entries, PairingScheme(DUET), snr_range=(-5, 5),
                            seed=12, out_dir=tmp_path / "ds")
        root = tmp_path / "ds"
        for rec in doc["pairs"]:
            a = read_wav(root / rec["paths"]["src_a"])
            b = read_wav(root / rec["paths"]["src_b"])
            # quantized sources: small tolerance on top of the exact construction
            assert measured_snr_db(a, b) == pytest.approx(rec["snr_db"], abs=1e-3)

    def test_given_splits_validated_for_disjointness(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0)
        entries = load_stem_manifest(manifest)
        for e in entries:
            e.split = "train"
        entries[0].split = "test"
        entries[0].singer_id = entries[1].singer_id  # same singer in two splits
        with pytest.raises(PairingImpossibleError):
            build_dataset(entries, PairingScheme(DUET), seed=0,
                          out_dir=tmp_path / "ds")

    @pytest.mark.parametrize("bad", ["Train", "dev", 1])
    def test_unknown_split_name_rejected(self, tmp_path, bad):
        entries = _entries(3)
        for e in entries:
            e.split = "train"
        entries[1].split = bad
        with pytest.raises(ValueError, match=f"'singer-1'.*unknown split {bad!r}"):
            build_dataset(entries, PairingScheme(DUET), out_dir=tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_partly_pinned_manifest_rejected(self, tmp_path):
        entries = _entries(4)
        entries[0].split = "test"
        entries[1].split = "train"
        with pytest.raises(ValueError, match="2 of 4 .*'singer-2' does not; "
                                             "pin every entry or none"):
            build_dataset(entries, PairingScheme(DUET), out_dir=tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_duet_pairs_cross_singer_in_manifest(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=3, seconds=20.0, split="train")
        entries = load_stem_manifest(manifest)
        doc = build_dataset(entries, PairingScheme(DUET), seed=2,
                            out_dir=tmp_path / "ds")
        for rec in doc["pairs"]:
            assert rec["singer_a"] != rec["singer_b"]
            assert rec["pairing_scheme"] == DUET
