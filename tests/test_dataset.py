import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from singersep import dataset, synth
from singersep.audio import Outputs, Segment, Waveform, quantize_pcm16, read_wav, resample, segment
from singersep.dataset import (
    DUET,
    MAX_SNR_DB,
    SELF_HARMONIC,
    MixPair,
    PairingScheme,
    StemEntry,
    build_dataset,
    load_stem_manifest,
    measured_snr_db,
    mix_at_snr,
    pair_segments,
    split_by_singer,
    _write_pair,
)
from singersep.errors import (
    InsufficientSingersError,
    InvalidWaveformError,
    PairingImpossibleError,
    SilentSourceError,
)

from conftest import reference_wav_bytes, white_noise, write_toy_stems


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

    @pytest.mark.parametrize("kind, repeats, message", [
        ("trio", 1, "unknown pairing scheme 'trio'"),
        (DUET, 0, "repeats must be >= 1, got 0"),
    ])
    def test_bad_scheme_rejected(self, kind, repeats, message):
        with pytest.raises(ValueError, match=message):
            PairingScheme(kind, repeats=repeats)

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
        b = white_noise(1.0, amplitude=0.3, seed=2)
        pair = mix_at_snr(a, b, 5.0)
        got = measured_snr_db(pair.source_a, pair.source_b)
        assert got == pytest.approx(5.0, abs=1e-6)

    def test_silent_source_rejected(self):
        a = synth.sine(220.0, 1.0)
        with pytest.raises(SilentSourceError):
            mix_at_snr(a, synth.silence(1.0), 0.0)

    def test_inputs_of_different_lengths_rejected(self):
        with pytest.raises(SilentSourceError, match="8000@8000 vs 4000@8000"):
            mix_at_snr(synth.sine(220.0, 1.0), synth.sine(330.0, 0.5), 0.0)

    @pytest.mark.parametrize("snr_db", [5000.0, -5000.0, 90.5, math.nan])
    def test_snr_past_the_bound_rejected_naming_it(self, snr_db):
        with pytest.raises(ValueError, match="-90:90 dB"):
            mix_at_snr(synth.sine(220.0, 1.0), synth.sine(330.0, 1.0), snr_db)

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


def _reference_pair_files(pair):
    """_write_pair's files as first written, by name: sources snapped to the
    grid, rescaled when their sum passes full scale, and the sum as the mix."""
    def snap(x):
        return np.rint(np.clip(x, -1.0, 1.0) * 32767.0) / 32767.0

    a, b = snap(pair.source_a.samples), snap(pair.source_b.samples)
    mix = a + b
    if np.any(np.abs(mix) > 1.0):
        scale = (1.0 - 4 / 32767.0) / float(np.max(np.abs(mix)))
        a, b = snap(pair.source_a.samples * scale), snap(pair.source_b.samples * scale)
        mix = a + b
    rate = pair.mixture.sample_rate
    return {name: reference_wav_bytes(x, rate)
            for name, x in (("mix.wav", mix), ("srcA.wav", a), ("srcB.wav", b))}


def _assert_pair_files_match_reference(pair, pair_dir):
    _write_pair(pair, pair_dir)
    for name, want in _reference_pair_files(pair).items():
        assert (pair_dir / name).read_bytes() == want, name


class TestWritePair:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60))
    def test_files_identical_to_reference(self, data, n, tmp_path_factory):
        a, b = (data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)), label=k)
                for k in ("a", "b"))
        pair = MixPair(Waveform(a + b, 8000), Waveform(a, 8000), Waveform(b, 8000))
        _assert_pair_files_match_reference(pair, tmp_path_factory.mktemp("pair"))

    def test_rescaled_files_identical_to_reference(self, tmp_path):
        # 0.5 snaps up to 16384 / 32767, so each sum passes full scale
        x = np.random.default_rng(2).uniform(-0.5, 0.5, 1000)
        x[::7] = 0.5
        pair = MixPair(Waveform(2 * x, 8000), Waveform(x, 8000), Waveform(x.copy(), 8000))
        assert np.max(np.abs(quantize_pcm16(x) * 2)) > 1.0
        _assert_pair_files_match_reference(pair, tmp_path)

    def test_rescales_when_grid_rounding_passes_full_scale(self, tmp_path):
        # each 0.5 rounds up to 16384 / 32767, so the sources' sum lands past 1
        half = Waveform(np.full(100, 0.5), 8000)
        _write_pair(MixPair(Waveform(np.ones(100), 8000), half, half), tmp_path)
        mix, a, b = (np.rint(read_wav(tmp_path / name).samples * 32767)
                     for name in ("mix.wav", "srcA.wav", "srcB.wav"))
        assert mix.max() <= 32767 and a.max() < 16384
        np.testing.assert_array_equal(mix, a + b)


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

    @pytest.mark.parametrize("snr_db", [-MAX_SNR_DB, MAX_SNR_DB])
    def test_snr_at_the_range_ends_keeps_both_sources(self, tmp_path, snr_db):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=10.0, split="train")
        doc = build_dataset(load_stem_manifest(manifest), PairingScheme(DUET),
                            snr_range=(snr_db, snr_db), seed=1, out_dir=tmp_path / "ds")
        for rec in doc["pairs"]:
            for key in ("src_a", "src_b"):
                samples = read_wav(tmp_path / "ds" / rec["paths"][key]).samples
                assert samples.min() < samples.max()

    def test_degenerate_snr_range(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0, split="train")
        entries = load_stem_manifest(manifest)
        doc = build_dataset(entries, PairingScheme(DUET), snr_range=(0.0, 0.0),
                            seed=1, out_dir=tmp_path / "ds")
        assert all(rec["snr_db"] == 0.0 for rec in doc["pairs"])

    @pytest.mark.parametrize("snr_range", [
        (-math.inf, math.inf), (math.inf, math.inf), (math.nan, 0.0), (5.0, -5.0),
        (5000.0, 5000.0), (-5000.0, -5000.0), (300.0, 300.0), (0.0, 90.1)])
    def test_bad_snr_range_rejected(self, tmp_path, snr_range):
        with pytest.raises(ValueError, match="snr range"):
            build_dataset(_entries(4), PairingScheme(DUET), snr_range=snr_range,
                          out_dir=tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("seconds, message", [
        (math.inf, "positive and finite"), (math.nan, "positive and finite"),
        (0.0, "positive and finite"), (1e-5, "rounds to zero samples"),
        (1e305, "positive and finite")])
    def test_bad_segment_length_rejected_before_any_io(self, tmp_path, monkeypatch,
                                                        seconds, message):
        reads = []
        monkeypatch.setattr(dataset, "read_wav", lambda path: reads.append(path))
        with pytest.raises(InvalidWaveformError, match=message):
            build_dataset(_entries(4), PairingScheme(DUET),
                          out_dir=tmp_path / "out" / "ds", segment_seconds=seconds)
        assert reads == []
        assert not (tmp_path / "out").exists()

    def test_no_earlier_stem_is_alive_when_the_next_is_read(self, tmp_path,
                                                             monkeypatch):
        manifest = write_toy_stems(tmp_path, n_singers=4, seconds=20.0, split="train")
        resampled, alive_at_read = [], []

        def read(path, *args, **kwargs):
            alive_at_read.append(sum(ref() is not None for ref in resampled))
            return read_wav(path, *args, **kwargs)

        def tracked_resample(w, rate):
            out = resample(w, rate)
            resampled.append(weakref.ref(out.samples))
            return out

        monkeypatch.setattr(dataset, "read_wav", read)
        monkeypatch.setattr(dataset, "resample", tracked_resample)
        build_dataset(load_stem_manifest(manifest), PairingScheme(DUET),
                      seed=3, out_dir=tmp_path / "ds")
        assert alive_at_read == [0, 0, 0, 0]
        assert len(resampled) == 4

    def test_interrupt_rolls_back_every_output(self, tmp_path, monkeypatch):
        # two pairs are written, and the manifest opened, when the interrupt comes
        calls = []

        def interrupted_third(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return mix_at_snr(*args)

        monkeypatch.setattr(dataset, "mix_at_snr", interrupted_third)
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0, split="train")
        with pytest.raises(KeyboardInterrupt):
            build_dataset(load_stem_manifest(manifest), PairingScheme(DUET), seed=3,
                          out_dir=tmp_path / "ds")
        assert len(calls) == 3
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


class _Stop(Exception):
    pass


class TestOneSplitAtATime:
    """Each pair is drawn as it is written, and a split's segments die before
    the next split's stems are read."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from([DUET, SELF_HARMONIC]), singers=st.integers(2, 4),
           per_singer=st.integers(2, 4), repeats=st.integers(1, 3),
           seeds=st.tuples(st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 31 - 1)),
           snr_seed=st.integers(0, 2 ** 32 - 1), lo=st.floats(-20.0, 20.0),
           width=st.floats(0.0, 20.0))
    def test_written_pairs_are_the_plan_and_one_vector_draw(
            self, tmp_path_factory, kind, singers, per_singer, repeats, seeds, snr_seed,
            lo, width):
        # two splits in turn from one SNR stream, each against pair_segments'
        # list and one vector draw of its length, taken in the same order
        rng = np.random.default_rng(0)
        snr_range = (lo, lo + width)
        scheme = PairingScheme(kind, repeats=repeats)
        splits = {}
        for split, seed in zip(("train", "test"), seeds):
            groups = {f"{split}-singer-{s}": [
                Segment(Waveform(rng.standard_normal(8), 8000), f"{split}-song-{s}",
                        f"{split}-singer-{s}", index=k) for k in range(per_singer)]
                for s in range(singers)}
            entries = [StemEntry(segs[0].song_id, sid, "-", split)
                       for sid, segs in groups.items()]
            splits[split] = groups, entries, seed
        segments_of = {e.song_id: groups[e.singer_id]
                       for groups, entries, _ in splits.values() for e in entries}

        snr_rng = np.random.default_rng(snr_seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "_stem_segments",
                          lambda entry, seconds: segments_of[entry.song_id])
            patch.setattr(dataset, "_write_pair", lambda pair, pair_dir: None)
            with Outputs(tmp_path_factory.mktemp("ds")) as outputs:
                per_split = [dataset._write_split(split, entries, scheme, 1.0, snr_range,
                                                  seed, snr_rng, outputs)
                             for split, (_, entries, seed) in splits.items()]
        records = [r for split_records in per_split for r in split_records]

        want = []
        vector = np.random.default_rng(snr_seed)
        for split, (groups, _, seed) in splits.items():
            plan = pair_segments(groups, scheme, seed=seed)
            snrs = vector.uniform(*snr_range, size=len(plan))
            want += [(f"{split}-{i:06d}", a.singer_id, a.song_id, a.index,
                      b.singer_id, b.song_id, b.index, float(snr))
                     for i, ((a, b), snr) in enumerate(zip(plan, snrs))]
        got = [(r["pair_id"], r["singer_a"], r["song_a"], r["segment_a"], r["singer_b"],
                r["song_b"], r["segment_b"], r["snr_db"]) for r in records]
        assert got == want
        assert [len(r) for r in per_split] == [singers * per_singer * repeats] * 2

    def test_no_pair_plan_is_built_before_the_first_write(self, tmp_path, monkeypatch):
        # 10**5 passes over four segments: drawn all at once, the 400,000
        # pairs and their SNRs take about 30 MB before the first write
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=2.0, split="train")
        peaks = []

        def first_write(pair, pair_dir):
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            raise _Stop

        monkeypatch.setattr(dataset, "_write_pair", first_write)
        entries = load_stem_manifest(manifest)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with pytest.raises(_Stop):
                build_dataset(entries, PairingScheme(DUET, repeats=10 ** 5), seed=3,
                              out_dir=tmp_path / "ds", segment_seconds=1.0)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] < 2 * 2 ** 20, peaks
        assert not (tmp_path / "ds").exists()

    def test_a_finished_split_is_not_held(self, tmp_path, monkeypatch):
        # two train singers, then two test singers, each with one 20 s stem:
        # the peak while each test stem is read is the peak of the train
        # stem read at the same place in its split, without train's segments
        manifest = write_toy_stems(tmp_path, n_singers=4, seconds=20.0)
        entries = load_stem_manifest(manifest)
        for e in entries:
            e.split = "train" if e.singer_id in ("singer-0", "singer-1") else "test"
        peaks = {"train": [], "test": []}
        train_bytes = 0
        stem_segments = dataset._stem_segments

        def traced(entry, seconds):
            nonlocal train_bytes
            tracemalloc.reset_peak()
            segs = stem_segments(entry, seconds)
            peaks[entry.split].append(tracemalloc.get_traced_memory()[1] - start)
            if entry.split == "train":
                train_bytes += sum(s.audio.samples.nbytes for s in segs)
            return segs

        monkeypatch.setattr(dataset, "_stem_segments", traced)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            doc = build_dataset(entries, PairingScheme(DUET), seed=3,
                                out_dir=tmp_path / "ds")
        finally:
            tracemalloc.stop()
        assert {split: row["pairs"] for split, row in doc["summary"].items()} == \
            {"train": 4, "test": 4}
        assert train_bytes == 2 * 20 * 8000 * 8
        assert len(peaks["test"]) == 2
        for train_peak, test_peak in zip(peaks["train"], peaks["test"]):
            assert test_peak - train_peak < train_bytes / 4, peaks
