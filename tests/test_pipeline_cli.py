import argparse
import contextlib
import csv
import errno
import json
import math
import re
import os
import shlex
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singersep
from singersep import (audio, backends, cli, dataset, errors, metrics, pipeline,
                       selection, synth)
from singersep.audio import Waveform, read_wav, resample, write_wav
from singersep.backends import (
    KIND_EXTERNAL,
    REGISTRY_SCHEMA,
    STAGE1,
    STAGE2,
    SeparationBackend,
    registry_load,
)
from singersep.dataset import mix_at_snr
from singersep.errors import ConfigInvalidError, MalformedRegistryError, SingerSepError
from singersep.metrics import SENTINEL_DB
from singersep.pipeline import separate_song
from singersep.pitch import PitchConfig
from singersep.selection import select_model

from conftest import (
    GUID_TAIL,
    extensible_wav_bytes,
    fail_payload_reads,
    make_duet_refs,
    run_capped,
    two_channel_wav_bytes,
    write_float32_wav,
    write_registry,
    write_toy_stems,
)


@pytest.fixture
def duet_setup(tmp_path):
    """A synthetic duet song plus a registry of oracle candidates."""
    (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=11, seconds=6.0)
    mix = mix_at_snr(ref_a, ref_b, 0.0).mixture
    song = tmp_path / "song.wav"
    write_wav(mix, song)
    registry = write_registry(tmp_path / "registry.json", [
        {"model_id": "stage1-pass", "stage": STAGE1, "kind": "passthrough"},
        {"model_id": "clean", "stage": STAGE2, "kind": "oracle",
         "oracle": {"ref_a": str(pa), "ref_b": str(pb), "leak": 0.0}},
        {"model_id": "leaky", "stage": STAGE2, "kind": "oracle",
         "oracle": {"ref_a": str(pa), "ref_b": str(pb), "leak": 0.4}},
    ])
    return {"song": song, "registry": registry, "refs": (pa, pb),
            "ref_waves": (ref_a, ref_b), "mix": mix}


@pytest.fixture
def marker_setup(duet_setup, tmp_path):
    """duet_setup's registry plus a stage-2 command that only touches a marker file."""
    marker = tmp_path / "backend-ran"
    touch = (f'{sys.executable} -c "import pathlib, sys; '
             f'pathlib.Path(sys.argv[1]).touch()" {marker} '
             "{input} {out_a} {out_b}")
    entries = json.loads(duet_setup["registry"].read_text())
    entries.insert(1, {"model_id": "marker", "stage": STAGE2,
                       "command": touch})
    registry = write_registry(tmp_path / "marker-registry.json", entries)
    return registry, marker


def assert_clean_exit(rc, err, code):
    """Exit ``code`` with a one-line diagnosis on stderr and no traceback."""
    assert rc == code
    assert err.startswith(("error: ", "backend failure: "))
    assert "Traceback" not in err


def json_dump_on_a_full_disk(doc, fh, **kwargs):
    """``json.dump`` on a disk that fills after its first write."""
    fh.write("{")
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def fill_disk_on_write(monkeypatch, path, writes):
    """Fill the disk on the file ``path``: every opener site still opens it
    through the real ``create_regular``, whose file's write after its first
    ``writes`` flushes those to disk and raises ENOSPC with no filename, as
    the kernel's error has none. Returns the file's size on disk at each
    such fault."""
    create_regular = audio.create_regular
    sizes = []

    @contextlib.contextmanager
    def filling(target, *args, **kwargs):
        with create_regular(target, *args, **kwargs) as fh:
            if Path(target) == path:
                write, done = fh.write, []

                def full(data):
                    if len(done) == writes:
                        fh.flush()
                        sizes.append(os.path.getsize(path))
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                    done.append(len(data))
                    return write(data)

                fh.write = full
            yield fh

    for module in (audio, pipeline):
        monkeypatch.setattr(module, "create_regular", filling)
    return sizes


class TestSeparateSong:
    def test_end_to_end_selects_clean(self, duet_setup, tmp_path):
        out = tmp_path / "out"
        report = separate_song(duet_setup["song"],
                               registry_load(duet_setup["registry"]),
                               stage1_id="stage1-pass", out_dir=out)
        assert report["chosen"] == "clean"
        for rel in report["outputs"].values():
            assert (out / rel).exists()
        ids = [c["model_id"] for c in report["candidates"]]
        assert sorted(ids) == ["clean", "leaky"]
        for c in report["candidates"]:
            assert c["score"] is not None

    def test_accompaniment_written_before_any_stage2_backend(self, duet_setup, tmp_path,
                                                             monkeypatch):
        copy = (f"{sys.executable} -c 'import shutil, sys; "
                "[shutil.copy(sys.argv[1], p) for p in sys.argv[2:]]' "
                "{input} {out_vocal} {out_accomp}")
        registry = swap_stage1(duet_setup, tmp_path, copy)
        out = tmp_path / "out"
        written = []

        def run_backend(backend, input_w, workdir=None):
            written.append((out / "accompaniment.wav").is_file())
            return backends.run_backend(backend, input_w, workdir)

        monkeypatch.setattr(selection, "run_backend", run_backend)
        report = separate_song(duet_setup["song"], registry_load(registry),
                               stage1_id="stage1-pass", out_dir=out)
        assert written == [True, True]
        assert report["outputs"]["accompaniment"] == "accompaniment.wav"
        # the stage-1 command's accompaniment is its input, the 8 kHz song
        assert (out / "accompaniment.wav").read_bytes() == duet_setup["song"].read_bytes()

    def test_model_bypass_runs_single_backend(self, duet_setup, tmp_path):
        report = separate_song(duet_setup["song"],
                               registry_load(duet_setup["registry"]),
                               stage1_id="stage1-pass", out_dir=tmp_path / "out",
                               model="leaky")
        assert report["chosen"] == "leaky"
        assert report["selection_bypassed"]
        assert all(c["score"] is None for c in report["candidates"])
        # only the bypassed model has written outputs
        outs = {c["model_id"]: c["outputs"] for c in report["candidates"]}
        assert outs["leaky"] is not None and outs["clean"] is None

    def test_evaluation_block_with_refs(self, duet_setup, tmp_path):
        pa, pb = duet_setup["refs"]
        report = separate_song(duet_setup["song"],
                               registry_load(duet_setup["registry"]),
                               stage1_id="stage1-pass", out_dir=tmp_path / "out",
                               refs=(pa, pb))
        mean = report["evaluation"]["mean"]
        # clean oracle returns the references themselves
        assert mean["si_snr_db"] == mean["si_snri_db"] == SENTINEL_DB

    def test_interrupt_rolls_back_every_output(self, duet_setup, tmp_path, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "pit_evaluate", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            separate_song(duet_setup["song"], registry_load(duet_setup["registry"]),
                          stage1_id="stage1-pass", out_dir=out, refs=duet_setup["refs"])
        assert not out.exists()

    def test_reports_deterministic_modulo_timings(self, duet_setup, tmp_path):
        reports = []
        for name in ("r1", "r2"):
            separate_song(duet_setup["song"],
                          registry_load(duet_setup["registry"]),
                          stage1_id="stage1-pass", out_dir=tmp_path / name,
                          seed=5)
            with open(tmp_path / name / "report.json") as fh:
                doc = json.load(fh)
            doc.pop("timings")
            reports.append(json.dumps(doc, sort_keys=True))
        assert reports[0] == reports[1]

    def test_missing_stage1_is_config_error(self, duet_setup, tmp_path):
        from singersep.errors import MalformedRegistryError
        with pytest.raises(MalformedRegistryError):
            separate_song(duet_setup["song"],
                          registry_load(duet_setup["registry"]),
                          stage1_id="nope", out_dir=tmp_path / "out")

    @pytest.mark.parametrize("model", [None, "marker"])
    def test_unknown_units_rejected_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, model):
        # the units are checked when the config is made, so neither call starts
        registry, marker = marker_setup
        models = registry_load(registry)
        with pytest.raises(ConfigInvalidError, match="cents"):
            separate_song(duet_setup["song"], models, stage1_id="stage1-pass",
                          out_dir=tmp_path / "out", model=model,
                          pitch_config=PitchConfig(units="cents"))
        candidates = [m for m in models if m.backend.stage == STAGE2]
        with pytest.raises(ConfigInvalidError, match="cents"):
            select_model(duet_setup["mix"], candidates, workdir=tmp_path,
                         pitch_config=PitchConfig(units="cents"))
        assert not marker.exists()
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_under_one_rejected_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, jobs):
        # the library calls keep the CLI's rule: None is one worker per CPU,
        # and a count under 1 is refused before stage 1 or any candidate runs
        registry, marker = marker_setup
        models = registry_load(registry)
        with pytest.raises(ConfigInvalidError, match=f"jobs must be at least 1, got {jobs}"):
            separate_song(duet_setup["song"], models, stage1_id="stage1-pass",
                          out_dir=tmp_path / "out", jobs=jobs)
        candidates = [m for m in models if m.backend.stage == STAGE2]
        with pytest.raises(ConfigInvalidError, match=f"jobs must be at least 1, got {jobs}"):
            select_model(duet_setup["mix"], candidates, workdir=tmp_path, jobs=jobs)
        assert not marker.exists()
        assert not (tmp_path / "out").exists()


class TestCliSeparate:
    def test_exit_zero_and_outputs(self, duet_setup, tmp_path, capsys):
        out = tmp_path / "cli-out"
        rc = cli.main([
            "separate", str(duet_setup["song"]),
            "--registry", str(duet_setup["registry"]),
            "--stage1", "stage1-pass", "--out", str(out), "--seed", "3"])
        assert rc == 0
        assert (out / "vocal_a.wav").exists()
        assert (out / "report.json").exists()
        assert "chosen model: clean" in capsys.readouterr().out

    def test_bypass_flag(self, duet_setup, tmp_path, capsys):
        rc = cli.main([
            "separate", str(duet_setup["song"]),
            "--registry", str(duet_setup["registry"]),
            "--stage1", "stage1-pass", "--out", str(tmp_path / "o2"),
            "--model", "leaky", "--seed", "3"])
        assert rc == 0
        assert "selection bypassed" in capsys.readouterr().out

    def test_seed_recorded_as_given(self, duet_setup, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("MIRSS_SEED", raising=False)
        out = tmp_path / "no-seed"
        rc = cli.main([
            "separate", str(duet_setup["song"]),
            "--registry", str(duet_setup["registry"]),
            "--stage1", "stage1-pass", "--out", str(out)])
        assert rc == 0
        assert "drew seed" not in capsys.readouterr().out
        assert json.loads((out / "report.json").read_text())["seed"] is None

    def test_missing_stage1_exits_2(self, duet_setup, tmp_path):
        rc = cli.main([
            "separate", str(duet_setup["song"]),
            "--registry", str(duet_setup["registry"]),
            "--stage1", "missing-model", "--out", str(tmp_path / "o3"),
            "--seed", "3"])
        assert rc == 2

    def test_segment_seconds_scores_in_blocks(self, duet_setup, tmp_path):
        out = tmp_path / "blocked"
        rc = cli.main([
            "separate", str(duet_setup["song"]),
            "--registry", str(duet_setup["registry"]),
            "--stage1", "stage1-pass", "--out", str(out), "--seed", "3",
            "--segment-seconds", "0.5"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["chosen"] == "clean"
        frames = {c["model_id"]: c["contributing_frames"]
                  for c in report["candidates"]}
        # 597 voiced frames in 50-frame blocks: 11 full blocks hold 48
        # windows each and the 47-frame tail holds 45 (595 unblocked)
        assert frames["clean"] == 11 * 48 + 45

    def test_segment_longer_than_the_song_scores_as_one_block(self, duet_setup, tmp_path):
        reports = []
        for name, extra in (("whole", []), ("long", ["--segment-seconds", "1e305"])):
            rc = cli.main([
                "separate", str(duet_setup["song"]),
                "--registry", str(duet_setup["registry"]),
                "--stage1", "stage1-pass", "--out", str(tmp_path / name), "--seed", "3",
                *extra])
            assert rc == 0
            reports.append(json.loads((tmp_path / name / "report.json").read_text()))
        whole, long = ([(c["model_id"], c["score"], c["contributing_frames"])
                        for c in r["candidates"]] for r in reports)
        assert long == whole

    @pytest.mark.parametrize("source, blocks", [
        ("flag", []), ("env", ["--segment-seconds", "1"])], ids=["flag", "env-1s-blocks"])
    def test_semitone_units(self, tmp_path, capsys, monkeypatch, source, blocks):
        # vibrato depth proportional to the carrier: the clean voices move
        # in parallel in semitones, not in Hz, so the units decide the pick
        ref_a = synth.vibrato_sine(200.0, 6.0, depth_hz=2.0, vibrato_phase=1.0)
        ref_b = synth.vibrato_sine(310.0, 6.0, depth_hz=3.1, vibrato_phase=1.0)
        pa, pb, song = tmp_path / "a.wav", tmp_path / "b.wav", tmp_path / "song.wav"
        write_wav(ref_a, pa)
        write_wav(ref_b, pb)
        write_wav(mix_at_snr(ref_a, ref_b, 0.0).mixture, song)
        registry = write_registry(tmp_path / "registry.json", [
            {"model_id": "stage1-pass", "stage": STAGE1, "kind": "passthrough"},
            {"model_id": "clean", "stage": STAGE2, "kind": "oracle",
             "oracle": {"ref_a": str(pa), "ref_b": str(pb), "leak": 0.0}},
            {"model_id": "leaky", "stage": STAGE2, "kind": "oracle",
             "oracle": {"ref_a": str(pa), "ref_b": str(pb), "leak": 0.4}},
        ])
        for units, chosen in (("semitones", "clean"), ("hz", "leaky")):
            argv = ["separate", str(song), "--registry", str(registry),
                    "--stage1", "stage1-pass", "--out", str(tmp_path / units),
                    "--seed", "3", *blocks]
            if source == "flag":
                argv += ["--units", units]
            else:
                monkeypatch.setenv("MIRSS_UNITS", units)
            rc = cli.main(argv)
            assert rc == 0
            assert f"chosen model: {chosen}" in capsys.readouterr().out

    def test_full_disk_names_the_report_and_leaves_nothing(
            self, duet_setup, tmp_path, capsys, monkeypatch):
        out = tmp_path / "full"
        out.mkdir()
        monkeypatch.setattr(json, "dump", json_dump_on_a_full_disk)
        rc = cli.main(separate_argv(duet_setup, out))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err == (f"error: {out / 'report.json'}: [Errno 28] "
                       f"{os.strerror(errno.ENOSPC)}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["-5", "0", "inf", "nan"])
    def test_bad_segment_seconds_exits_2_before_any_backend(
            self, duet_setup, tmp_path, capsys, value):
        out = tmp_path / "bad-seg"
        rc = cli.main([
            "separate", str(duet_setup["song"]),
            "--registry", str(duet_setup["registry"]),
            "--stage1", "stage1-pass", "--out", str(out), "--seed", "3",
            "--segment-seconds", value])
        assert rc == 2
        assert "segment length" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--pitch-fmin", "30"),
        ("--pitch-threshold", "inf"),
        ("--pitch-threshold", "nan"),
        ("--pitch-hop", "inf"),
        ("--pitch-hop", "nan"),
        ("--pitch-frame", "nan"),
        ("--pitch-frame", "1e305"),  # finite, but not in samples
        ("--pitch-hop", "1e305"),
        ("--pitch-fmax", "inf"),
        ("--pitch-fmax", "55.1"),  # no whole-sample period in 55..55.1 Hz
    ])
    def test_bad_pitch_config_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, flag, value):
        registry, marker = marker_setup
        rc = cli.main([
            "separate", str(duet_setup["song"]), "--registry", str(registry),
            "--stage1", "stage1-pass", "--out", str(tmp_path / "bad-pitch"),
            "--seed", "3", flag, value])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not marker.exists()
        assert not (tmp_path / "bad-pitch").exists()

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2(self, duet_setup, tmp_path, capsys,
                                    monkeypatch, source, jobs):
        out = tmp_path / "bad-jobs"
        argv = ["separate", str(duet_setup["song"]),
                "--registry", str(duet_setup["registry"]),
                "--stage1", "stage1-pass", "--out", str(out), "--seed", "3"]
        monkeypatch.delenv("MIRSS_JOBS", raising=False)
        if source == "flag":
            argv += ["--jobs", jobs]
        elif source == "env":
            monkeypatch.setenv("MIRSS_JOBS", jobs)
        else:
            cfg = tmp_path / "mirss.cfg"
            cfg.write_text(f"jobs = {jobs}\n")
            argv += ["--config", str(cfg)]
        rc = cli.main(argv)
        assert rc == 2
        assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_worker_and_three_write_the_same_tree(self, duet_setup, tmp_path):
        # candidates finish in another order on three workers; the outcome,
        # every WAV and the report (timings aside) must not depend on it
        registry = add_candidate(duet_setup, tmp_path, "copy", COPY_COMMAND)
        refs = ["--ref-a", str(duet_setup["refs"][0]), "--ref-b", str(duet_setup["refs"][1])]
        trees = []
        for jobs in (1, 3):
            out = tmp_path / f"j{jobs}"
            assert cli.main(separate_argv(duet_setup, out, "--jobs", str(jobs), *refs,
                                          registry=registry)) == 0
            trees.append(_tree_bytes(out))
        assert {"vocal_a.wav", "candidates/copy/b.wav"} <= set(map(str, trees[0]))
        assert trees[0] == trees[1]

    def test_unknown_bypass_model_exits_2(self, duet_setup, tmp_path):
        rc = cli.main([
            "separate", str(duet_setup["song"]),
            "--registry", str(duet_setup["registry"]),
            "--stage1", "stage1-pass", "--out", str(tmp_path / "o4"),
            "--model", "missing", "--seed", "3"])
        assert rc == 2


# stage-1 command whose outputs are half as long as its input
HALF_LENGTH_STAGE1 = textwrap.dedent("""\
    import sys, wave

    inp, out_vocal, out_accomp = sys.argv[1:4]
    with wave.open(inp, "rb") as fh:
        params = fh.getparams()
        raw = fh.readframes(fh.getnframes() // 2)
    for path in (out_vocal, out_accomp):
        with wave.open(path, "wb") as out:
            out.setparams(params)
            out.writeframes(raw)
""")


def separate_argv(setup, out, *extra, song=None, registry=None):
    return ["separate", str(song or setup["song"]),
            "--registry", str(registry or setup["registry"]),
            "--stage1", "stage1-pass", "--out", str(out), "--seed", "3", *extra]


def cli_process_env():
    """The environment a CLI process runs in: this one, with the singersep
    under test first on PYTHONPATH."""
    src = str(Path(singersep.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_cli_process(argv):
    """Run the CLI in a process of its own, at most 120 s; its result."""
    return subprocess.run([sys.executable, "-m", "singersep", *argv],
                          capture_output=True, text=True, env=cli_process_env(), timeout=120)


def swap_stage1(setup, tmp_path, command):
    """setup's registry with its stage-1 entry replaced by an external command."""
    entries = json.loads(setup["registry"].read_text())
    entries[0] = {"model_id": "stage1-pass", "stage": STAGE1, "command": command}
    return write_registry(tmp_path / "stage1-registry.json", entries)


def oracle_entry(model_id, refs, **spec):
    """A registry entry for a stage-2 oracle over the two reference files."""
    return {"model_id": model_id, "stage": STAGE2, "kind": "oracle",
            "oracle": {"ref_a": str(refs[0]), "ref_b": str(refs[1]), **spec}}


class TestChosenStems:
    """``vocal_a.wav`` and ``vocal_b.wav`` are byte copies of the chosen
    candidate's files, and the evaluation scores the float pair that the
    candidate's backend returned."""

    @pytest.mark.parametrize("with_refs", [False, True], ids=["no-refs", "refs"])
    @pytest.mark.parametrize("model", [None, "leak-1"], ids=["selected", "bypassed"])
    def test_stems_copy_the_chosen_candidate(self, duet_setup, tmp_path, monkeypatch,
                                             model, with_refs):
        # leaky oracles, so that every metric is a finite value below the cap
        models = registry_load(write_registry(tmp_path / "leaky-registry.json", [
            {"model_id": "stage1-pass", "stage": STAGE1, "kind": "passthrough"},
            oracle_entry("leak-1", duet_setup["refs"], leak=0.1),
            oracle_entry("leak-3", duet_setup["refs"], leak=0.3),
        ]))
        returned, writes = {}, []

        def recording(backend, *args, **kwargs):
            result = backends.run_backend(backend, *args, **kwargs)
            returned[next(m.model_id for m in models if m.backend is backend)] = result
            return result

        def counting(w, path):
            writes.append(Path(path).relative_to(out))
            write_wav(w, path)

        monkeypatch.setattr(pipeline, "run_backend", recording)
        monkeypatch.setattr(selection, "run_backend", recording)
        monkeypatch.setattr(pipeline, "write_wav", counting)
        out = tmp_path / "out"
        report = separate_song(duet_setup["song"], models, stage1_id="stage1-pass",
                               out_dir=out, model=model,
                               refs=duet_setup["refs"] if with_refs else None)
        chosen = report["chosen"]
        assert chosen == (model or "leak-3")
        for ch in "ab":
            assert ((out / f"vocal_{ch}.wav").read_bytes()
                    == (out / "candidates" / chosen / f"{ch}.wav").read_bytes())
        # the accompaniment and each candidate's pair, each encoded once
        ran = returned.keys() - {"stage1-pass"}
        assert len(ran) == (1 if model else 2)
        assert len(writes) == 1 + 2 * len(ran)
        assert sorted(map(str, writes)) == sorted(
            ["accompaniment.wav"]
            + [f"candidates/{m}/{ch}.wav" for m in ran for ch in "ab"])
        if not with_refs:
            assert report["evaluation"] is None
            return
        ref_waves = tuple(resample(read_wav(p), 8000) for p in duet_setup["refs"])
        mixed_vocal = returned["stage1-pass"][0]
        expected = asdict(metrics.pit_evaluate(ref_waves, returned[chosen], mixed_vocal))
        assert report["evaluation"] == expected
        assert all(math.isfinite(v) and v < SENTINEL_DB
                   for k, v in expected["mean"].items() if k != "permutation")

    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("reverse", [False, True], ids=["registry", "reversed"])
    def test_a_tie_keeps_the_pair_selection_chose(self, duet_setup, tmp_path, capsys,
                                                 reverse, jobs):
        # a-swap is b-clean with its channels exchanged: the two score the
        # same, model_id breaks the tie toward a-swap, and the evaluation
        # scores a-swap's pair whichever of the two is handed over first
        entries = [oracle_entry("b-clean", duet_setup["refs"], leak=0.2),
                   oracle_entry("a-swap", duet_setup["refs"], leak=0.2, swap=True)]
        if reverse:
            entries.reverse()
        registry = write_registry(tmp_path / "tie-registry.json", [
            {"model_id": "stage1-pass", "stage": STAGE1, "kind": "passthrough"},
            *entries])
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, "--jobs", str(jobs),
                                    "--ref-a", str(duet_setup["refs"][0]),
                                    "--ref-b", str(duet_setup["refs"][1]),
                                    registry=registry))
        assert rc == 0, capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        scores = {c["model_id"]: c["score"] for c in report["candidates"]}
        assert scores["a-swap"] == scores["b-clean"]
        assert report["chosen"] == "a-swap"
        evaluation = report["evaluation"]
        assert evaluation["mean"]["permutation"] == {"0": 1, "1": 0}
        assert evaluation["per_source"][0]["permutation"] == {"0": 1, "1": 0}
        assert round(evaluation["per_source"][0]["si_snr_db"], 4) == 12.0412
        for ch in "ab":
            assert ((out / f"vocal_{ch}.wav").read_bytes()
                    == (out / "candidates" / "a-swap" / f"{ch}.wav").read_bytes())

    @pytest.mark.parametrize("target", ["candidates/clean/b.wav", "vocal_b.wav"])
    def test_part_written_file_is_rolled_back(self, duet_setup, tmp_path, capsys,
                                              monkeypatch, target):
        # the disk fills after the file's first write: the run exits 2
        # naming the file, and the part-written file goes with every other
        # output
        out = tmp_path / "out"
        sizes = fill_disk_on_write(monkeypatch, out / target, writes=1)
        rc = cli.main(separate_argv(duet_setup, out))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err == f"error: {out / target}: [Errno 28] {os.strerror(errno.ENOSPC)}\n"
        assert len(sizes) == 1 and sizes[0] > 0
        assert not out.exists()


class TestCliExitCodes:
    def test_song_path_is_directory_exits_2(self, duet_setup, tmp_path, capsys):
        rc = cli.main(separate_argv(duet_setup, tmp_path / "out", song=tmp_path))
        assert_clean_exit(rc, capsys.readouterr().err, 2)

    def test_out_is_existing_file_exits_2(self, duet_setup, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        rc = cli.main(separate_argv(duet_setup, out))
        assert_clean_exit(rc, capsys.readouterr().err, 2)

    def test_stage1_contract_violation_exits_3(self, duet_setup, tmp_path, capsys):
        script = tmp_path / "half.py"
        script.write_text(HALF_LENGTH_STAGE1)
        registry = swap_stage1(duet_setup, tmp_path,
                               f"{sys.executable} {script} "
                               "{input} {out_vocal} {out_accomp}")
        rc = cli.main(separate_argv(duet_setup, tmp_path / "out", registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 3)
        assert "length" in err

    @pytest.mark.parametrize("program, message", [
        ("{tmp}/no-such-separator", "could not start"),
        (f"{sys.executable} -c 'import sys; sys.exit(1)'", "command exited 1"),
    ], ids=["cannot-start", "exits-1"])
    def test_stage1_that_fails_exits_3(self, duet_setup, tmp_path, capsys, program, message):
        registry = swap_stage1(duet_setup, tmp_path, program.format(tmp=tmp_path)
                               + " {input} {out_vocal} {out_accomp}")
        rc = cli.main(separate_argv(duet_setup, tmp_path / "out", registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 3)
        assert err.startswith("backend failure: ") and message in err

    def test_relative_oracle_refs_resolve_against_the_working_directory(
            self, duet_setup, tmp_path, monkeypatch, capsys):
        # the registry sits in a subdirectory; its refs are relative to tmp_path
        pa, pb = duet_setup["refs"]
        (tmp_path / "reg").mkdir()
        registry = write_registry(tmp_path / "reg" / "registry.json", [
            {"model_id": "stage1-pass", "stage": STAGE1, "kind": "passthrough"},
            {"model_id": "clean", "stage": STAGE2, "kind": "oracle",
             "oracle": {"ref_a": pa.name, "ref_b": pb.name}},
        ])
        monkeypatch.chdir(tmp_path)
        rc = cli.main(separate_argv(duet_setup, tmp_path / "out", registry=registry))
        assert rc == 0
        assert json.loads((tmp_path / "out" / "report.json").read_text())["chosen"] == "clean"
        capsys.readouterr()
        monkeypatch.chdir(registry.parent)
        rc = cli.main(separate_argv(duet_setup, tmp_path / "out2", registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 3)
        assert "unreadable oracle reference" in err

    def test_candidate_that_cannot_start_is_excluded(self, duet_setup, tmp_path):
        entries = json.loads(duet_setup["registry"].read_text())
        entries.append({"model_id": "missing", "stage": STAGE2,
                        "command": f"{tmp_path / 'no-such-separator'} "
                                   "{input} {out_a} {out_b}"})
        registry = write_registry(tmp_path / "missing-registry.json", entries)
        out = tmp_path / "out"
        assert cli.main(separate_argv(duet_setup, out, registry=registry)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["chosen"] == "clean"
        errors = {c["model_id"]: c["error"] for c in report["candidates"]}
        assert errors["missing"] is not None and errors["clean"] is None

    def test_candidate_with_non_utf8_stderr_is_excluded(self, duet_setup, tmp_path):
        entries = json.loads(duet_setup["registry"].read_text())
        entries.append({"model_id": "garbled", "stage": STAGE2,
                        "command": f'{sys.executable} -c "import sys; '
                                   "sys.stderr.buffer.write(bytes([255, 254])); "
                                   'sys.exit(1)" {input} {out_a} {out_b}'})
        registry = write_registry(tmp_path / "garbled-registry.json", entries)
        out = tmp_path / "out"
        assert cli.main(separate_argv(duet_setup, out, registry=registry)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["chosen"] == "clean"
        errors = {c["model_id"]: c["error"] for c in report["candidates"]}
        assert errors["garbled"] is not None and errors["clean"] is None

    @pytest.mark.parametrize("rate", [768001, 2 ** 32 - 5])
    def test_song_rate_above_maximum_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, rate):
        registry, marker = marker_setup
        song = tmp_path / "fast.wav"
        write_wav(synth.sine(220.0, 0.0125), song)  # 100 samples
        header = bytearray(song.read_bytes())
        header[24:28] = struct.pack("<I", rate)  # the fmt chunk's sample rate
        song.write_bytes(bytes(header))
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, song=song, registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{song}: sample rate {rate} Hz is above the 768000 Hz maximum" in err
        assert not marker.exists() and not out.exists()

    @pytest.mark.parametrize("rewrite", [extensible_wav_bytes, two_channel_wav_bytes],
                             ids=["extensible", "two-channel"])
    def test_rewritten_song_separates_as_the_plain_one(self, duet_setup, tmp_path,
                                                       rewrite):
        # the same samples under an extensible header, or as two channels
        # that each hold them (their mean): the same choice and scores
        song = tmp_path / "rewritten.wav"
        song.write_bytes(rewrite(duet_setup["song"].read_bytes()))
        refs = ["--ref-a", str(duet_setup["refs"][0]), "--ref-b", str(duet_setup["refs"][1])]
        reports = []
        for path, out in ((duet_setup["song"], tmp_path / "plain"), (song, tmp_path / "new")):
            assert cli.main(separate_argv(duet_setup, out, *refs, song=path)) == 0
            report = json.loads((out / "report.json").read_text())
            reports.append((report["chosen"], report["evaluation"],
                            [{k: v for k, v in c.items() if k != "outputs"}
                             for c in report["candidates"]]))
        assert reports[0] == reports[1] and reports[0][0] == "clean"

    @pytest.mark.parametrize("kwargs, message", [
        ({"extension_bytes": 0}, "extensible fmt chunk truncated"),
        ({"guid": bytes(4) + GUID_TAIL[:-1] + b"\0"}, "extensible subformat"),
    ], ids=["short-extension", "foreign-guid"])
    def test_bad_extensible_song_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, kwargs, message):
        registry, marker = marker_setup
        song = tmp_path / "extensible.wav"
        song.write_bytes(extensible_wav_bytes(duet_setup["song"].read_bytes(), **kwargs))
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, song=song, registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{song}: {message}" in err
        assert not marker.exists() and not out.exists()

    @pytest.mark.parametrize("command", [" ", "run\0 {input} {out_a} {out_b}"],
                             ids=["blank", "nul"])
    def test_template_that_cannot_run_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, command):
        registry, marker = marker_setup
        entries = json.loads(registry.read_text())
        entries.append({"model_id": "broken", "stage": STAGE2, "command": command})
        registry = write_registry(tmp_path / "broken-registry.json", entries)
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"entry {len(entries) - 1} ('broken'): bad command template" in err
        assert not marker.exists() and not out.exists()

    def test_fifo_song_exits_2_before_any_backend(self, duet_setup, marker_setup,
                                                  tmp_path):
        registry, marker = marker_setup
        song = tmp_path / "song-pipe.wav"
        os.mkfifo(song)
        out = tmp_path / "out"
        # a process of its own: a read that waits for a writer would hang the tests
        proc = run_cli_process(separate_argv(duet_setup, out, song=song,
                                             registry=registry))
        assert_clean_exit(proc.returncode, proc.stderr, 2)
        assert f"{song}: not a regular file" in proc.stderr
        assert not marker.exists() and not out.exists()

    @pytest.mark.parametrize("samples", [0, 100])
    def test_song_too_short_to_select_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, samples):
        registry, marker = marker_setup
        song = write_float32_wav(tmp_path / "short song.wav", np.zeros(samples))
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, song=song, registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{song}: {samples} samples at 8000 Hz; selection needs at least" in err
        assert not marker.exists() and not out.exists()

    @pytest.mark.parametrize("bypass", [[], ["--model", "marker"]])
    def test_bad_env_units_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, monkeypatch, bypass):
        registry, marker = marker_setup
        monkeypatch.setenv("MIRSS_UNITS", "cents")
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, *bypass, registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "cents" in err
        assert not marker.exists() and not out.exists()

    @pytest.mark.parametrize("given", ["--ref-a", "--ref-b"])
    def test_one_reference_alone_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, given):
        registry, marker = marker_setup
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, given, str(duet_setup["refs"][0]),
                                    registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "--ref-a and --ref-b must be given together" in err
        assert not marker.exists() and not out.exists()

    def test_unknown_config_key_exits_2(self, duet_setup, tmp_path, capsys):
        cfg = tmp_path / "mirss.cfg"
        cfg.write_text("pitch_fmn = 400\n")
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, "--config", str(cfg)))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "pitch_fmn" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, field, config, env, flag", [
        ("seed", "seed", 1, 2, 3),
        ("jobs", "jobs", 1, 2, 3),
        ("pitch_threshold", "threshold", 0.1, 0.2, 0.3),
        ("pitch_fmin", "fmin_hz", 60.0, 70.0, 80.0),
        ("pitch_fmax", "fmax_hz", 900.0, 800.0, 700.0),
        ("pitch_frame", "frame_seconds", 0.05, 0.06, 0.07),
        ("pitch_hop", "hop_seconds", 0.01, 0.02, 0.03),
        ("units", "units", "hz", "semitones", "hz"),
    ])
    def test_env_beats_config_and_flag_beats_env(
            self, duet_setup, tmp_path, monkeypatch, key, field, config, env, flag):
        seen = []

        def record(*args, **kwargs):
            kwargs.update(vars(kwargs.pop("pitch_config")))
            seen.append(kwargs[field])
            return {"chosen": "clean", "selection_bypassed": False,
                    "candidates": [], "evaluation": None}

        monkeypatch.setattr(cli.pipeline, "separate_song", record)
        monkeypatch.delenv("MIRSS_CONFIG", raising=False)
        monkeypatch.delenv(f"MIRSS_{key.upper()}", raising=False)
        cfg = tmp_path / "mirss.cfg"
        cfg.write_text(f"{key} = {config}\n")
        argv = ["separate", str(duet_setup["song"]),
                "--registry", str(duet_setup["registry"]), "--stage1", "stage1-pass",
                "--out", str(tmp_path / "out"), "--config", str(cfg)]
        assert cli.main(argv) == 0
        monkeypatch.setenv(f"MIRSS_{key.upper()}", str(env))
        assert cli.main(argv) == 0
        assert cli.main(argv + [f"--{key.replace('_', '-')}", str(flag)]) == 0
        assert seen == [config, env, flag]

    @pytest.mark.parametrize("field, value", [
        ("command", 5),
        ("command", ["run", "{input}", "{out_a}", "{out_b}"]),
        ("ref_a", 99),
        ("ref_b", None),
        ("swap", "yes"),
        ("leak", True),
        ("leak", "0.1"),
        ("noise_snr_db", "loud"),
        ("noise_snr_db", math.nan),
        ("noise_snr_db", 5000),
        ("noise_snr_db", -5000),
        ("noise_snr_db", 90.5),
        ("noise_seed", "x"),
        ("noise_seed", -1),
        ("noise_seed", 1.5),
    ])
    def test_malformed_registry_field_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, field, value):
        registry, marker = marker_setup
        entries = json.loads(registry.read_text())
        by_id = {entry["model_id"]: entry for entry in entries}
        if field == "command":
            by_id["marker"]["command"] = value
        else:
            by_id["clean"]["oracle"][field] = value
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out,
                                    registry=write_registry(registry, entries)))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "entry" in err and field in err
        assert not marker.exists() and not out.exists()

    @pytest.mark.parametrize("model_id", [
        None, 5, "", ".", "..", "../escape", "{tmp}/abs_escape", "a/b"])
    def test_model_id_not_one_path_component_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, model_id):
        registry, marker = marker_setup
        if isinstance(model_id, str):
            model_id = model_id.format(tmp=tmp_path)
        entries = json.loads(registry.read_text())
        entries[3]["model_id"] = model_id  # the leaky oracle
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out,
                                    registry=write_registry(registry, entries)))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "entry 3: model_id must be" in err
        assert not marker.exists() and not out.exists()
        assert not (tmp_path / "abs_escape").exists()

    def test_missing_reference_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys):
        registry, marker = marker_setup
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out,
                                    "--ref-a", str(tmp_path / "no-such-ref.wav"),
                                    "--ref-b", str(duet_setup["refs"][1]),
                                    registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "no-such-ref.wav" in err
        assert not marker.exists() and not out.exists()

    def test_wrong_length_reference_exits_2_and_leaves_nothing(
            self, duet_setup, tmp_path, capsys):
        short = tmp_path / "short.wav"
        write_wav(synth.sine(220.0, 1.0), short)
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, "--ref-a", str(short),
                                    "--ref-b", str(duet_setup["refs"][1])))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "length mismatch" in err
        assert not out.exists()

    # 44101 Hz: a rate pair whose resampler kernels are not cached
    @pytest.mark.parametrize("rate", [44100, 44101])
    def test_references_resampled_like_the_song(self, duet_setup, tmp_path, capsys, rate):
        paths = []
        for name, w in (("song", duet_setup["mix"]), ("ref_a", duet_setup["ref_waves"][0]),
                        ("ref_b", duet_setup["ref_waves"][1])):
            paths.append(tmp_path / f"{name}-{rate}.wav")
            write_wav(resample(w, rate), paths[-1])
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, "--ref-a", str(paths[1]),
                                    "--ref-b", str(paths[2]), song=paths[0]))
        assert rc == 0
        assert re.search(r"^evaluation: SI-SNRi -?\d+\.\d{4} dB, SDRi -?\d+\.\d{4} dB$",
                         capsys.readouterr().out, re.M)
        report = json.loads((out / "report.json").read_text())
        assert report["chosen"] == "clean"
        assert math.isfinite(report["evaluation"]["mean"]["si_snri_db"])

    @pytest.mark.parametrize("reference, message", [
        (synth.sine(220.0, 1.0), "length mismatch: 8000 vs the song's 48000"),
        (synth.silence(6.0), "zero-variance reference"),
        # a PCM16 constant whose computed variance is not 0
        (Waveform([3 / 32767] * 48000, 8000), "zero-variance reference"),
    ], ids=["short", "silent", "constant"])
    def test_unscorable_reference_exits_2_naming_it_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, reference, message):
        registry, marker = marker_setup
        path = tmp_path / "bad ref.wav"
        write_wav(reference, path)
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, "--ref-a", str(duet_setup["refs"][0]),
                                    "--ref-b", str(path), registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{path}: {message}" in err
        assert not marker.exists() and not out.exists()

    @pytest.mark.parametrize("stage1, keep, message", [
        ("clean", None, "'clean' is not a stage-1 backend (stage=stage2_two_vocals)"),
        ("stage1-pass", STAGE1, "registry has no stage-2 candidates"),
    ])
    def test_registry_without_the_stages_it_needs_exits_2_before_any_backend(
            self, duet_setup, marker_setup, tmp_path, capsys, stage1, keep, message):
        registry, marker = marker_setup
        entries = [e for e in json.loads(registry.read_text())
                   if keep is None or e["stage"] == keep]
        out = tmp_path / "out"
        argv = separate_argv(duet_setup, out, registry=write_registry(registry, entries))
        argv[argv.index("--stage1") + 1] = stage1
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert message in err
        assert not marker.exists() and not out.exists()

    def test_failed_write_rolls_back_every_output(self, duet_setup, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "candidates").write_text("in the way\n")  # fails after vocal_a.wav
        rc = cli.main(separate_argv(duet_setup, out))
        assert_clean_exit(rc, capsys.readouterr().err, 2)
        assert [p.name for p in out.iterdir()] == ["candidates"]

    def test_float_wav_holding_nan_exits_2_naming_it(self, duet_setup, tmp_path, capsys):
        song = write_float32_wav(tmp_path / "nan song.wav", [0.1, math.nan, -0.1])
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, song=song))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{song}: non-finite sample values" in err
        assert not out.exists()

    def test_non_finite_report_value_exits_2_and_rolls_back(
            self, duet_setup, tmp_path, capsys, monkeypatch):
        def infinite_mean(*args):
            result = metrics.pit_evaluate(*args)
            result.mean.sdri_db = math.inf
            return result

        monkeypatch.setattr(pipeline, "pit_evaluate", infinite_mean)
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, "--ref-a", str(duet_setup["refs"][0]),
                                    "--ref-b", str(duet_setup["refs"][1])))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "not JSON compliant" in err
        assert f"{out / 'report.json'}: " in err
        assert err.rstrip().endswith(" at evaluation.mean.sdri_db")
        assert not out.exists()

    def test_unscorable_chosen_pair_exits_2_naming_the_model(
            self, duet_setup, tmp_path, capsys):
        # a passthrough's channel B is silent: the only candidate wins
        # (penalized), and its pair cannot be scored against the references
        registry = write_registry(tmp_path / "pt-registry.json", [
            {"model_id": "stage1-pass", "stage": STAGE1, "kind": "passthrough"},
            {"model_id": "pt", "stage": STAGE2, "kind": "passthrough"},
        ])
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out, "--ref-a", str(duet_setup["refs"][0]),
                                    "--ref-b", str(duet_setup["refs"][1]),
                                    registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err == ("error: chosen model 'pt' cannot be evaluated: "
                       "zero-variance estimate\n")
        assert not out.exists()

    def test_non_finite_candidate_score_names_its_key(
            self, duet_setup, tmp_path, capsys, monkeypatch):
        def infinite_second_score(*args, **kwargs):
            result = select_model(*args, **kwargs)
            result.scores[1].score = math.inf
            return result

        monkeypatch.setattr(pipeline, "select_model", infinite_second_score)
        out = tmp_path / "out"
        rc = cli.main(separate_argv(duet_setup, out))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{out / 'report.json'}: " in err
        assert err.rstrip().endswith(" at candidates[1].score")
        assert not out.exists()


def add_candidate(setup, tmp_path, model_id, command):
    """setup's registry plus one external stage-2 candidate."""
    entries = json.loads(setup["registry"].read_text())
    entries.append({"model_id": model_id, "stage": STAGE2, "command": command})
    return write_registry(tmp_path / f"{model_id}-registry.json", entries)


# copies its input to both outputs: the mix, returned as two "voices"
COPY_COMMAND = (f'{sys.executable} -c "import shutil, sys; '
                "shutil.copy(sys.argv[1], sys.argv[2]); "
                'shutil.copy(sys.argv[1], sys.argv[3])" {input} {out_a} {out_b}')


class TestCliScratch:
    def test_copy_of_the_mix_loses_and_no_scratch_is_left(self, duet_setup, tmp_path):
        registry = add_candidate(duet_setup, tmp_path, "copy", COPY_COMMAND)
        out = tmp_path / "out"
        assert cli.main(separate_argv(duet_setup, out, registry=registry)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["chosen"] == "clean"
        copy = next(c for c in report["candidates"] if c["model_id"] == "copy")
        assert copy["penalized"] and copy["error"] is None
        assert copy["outputs"] is not None
        assert not (out / "tmp").exists()

    def test_failed_candidate_keeps_the_scratch_its_error_cites(
            self, duet_setup, tmp_path):
        registry = add_candidate(duet_setup, tmp_path, "bad",
                                 "false {input} {out_a} {out_b}")
        out = tmp_path / "out"
        assert cli.main(separate_argv(duet_setup, out, registry=registry)) == 0
        report = json.loads((out / "report.json").read_text())
        error = next(c["error"] for c in report["candidates"]
                     if c["model_id"] == "bad")
        command = error.splitlines()[0].split(": ", 1)[1]
        scratch = Path(shlex.split(command)[1]).parent
        assert scratch.parent == out / "tmp"
        assert (scratch / "input.wav").is_file()

    def test_failed_candidate_warning_names_level_and_logger(self, duet_setup, tmp_path):
        registry = add_candidate(duet_setup, tmp_path, "bad",
                                 "false {input} {out_a} {out_b}")
        proc = run_cli_process(separate_argv(duet_setup, tmp_path / "out",
                                             registry=registry))
        assert proc.returncode == 0, proc.stderr
        assert any(line.startswith("WARNING singersep.selection: candidate bad failed:")
                   for line in proc.stderr.splitlines()), proc.stderr


class TestCliPenaltyReasons:
    def test_each_penalty_names_its_reason(self, duet_setup, tmp_path, capsys):
        entries = json.loads(duet_setup["registry"].read_text())
        entries += [
            # channel A is the input, channel B silence
            {"model_id": "silent", "stage": STAGE2, "kind": "passthrough"},
            {"model_id": "copy", "stage": STAGE2, "command": COPY_COMMAND},
            {"model_id": "failing", "stage": STAGE2,
             "command": "false {input} {out_a} {out_b}"},
        ]
        registry = write_registry(tmp_path / "reasons-registry.json", entries)
        out = tmp_path / "out"
        assert cli.main(separate_argv(duet_setup, out, registry=registry)) == 0
        console = capsys.readouterr().out.splitlines()
        report = json.loads((out / "report.json").read_text())
        reasons = {c["model_id"]: c["reason"] for c in report["candidates"]}
        assert reasons == {"clean": None, "leaky": None, "silent": "silent_channel",
                           "copy": "duplicate_channels", "failing": "backend_failed"}
        for model_id, reason in reasons.items():
            line = next(line for line in console
                        if line.startswith(f"  {model_id}: "))
            assert ("[penalized: " in line) == (reason is not None)
            if reason is not None:
                assert f"[penalized: {reason}]" in line
        failing = next(line for line in console if line.startswith("  failing: "))
        assert "[penalized: backend_failed] [failed: command exited 1" in failing


def _sparse_2gib(path):
    with open(path, "wb") as fh:
        fh.truncate(2 ** 31)


# Documents that are not regular files: each is refused at once by name,
# never waited on (a FIFO) or drained (/dev/zero). A sparse 2 GiB document
# is refused by its size, before any of it is read.
_NON_REGULAR = {"fifo": os.mkfifo, "dev-zero": lambda path: path.symlink_to("/dev/zero"),
                "directory": os.mkdir}
_HOSTILE = {**_NON_REGULAR, "huge": _sparse_2gib}
_DOCUMENT_NAMES = {"registry": "registry.json", "stems": "stems.json",
                   "dataset": "dataset.json", "config": "mirss.cfg"}


def _bad_document(tmp_path, case):
    """The argv of a run that reads one malformed document, and its path."""
    document, _, kind = case.partition("-")
    if kind in _HOSTILE:
        path = tmp_path / _DOCUMENT_NAMES[document]
        _HOSTILE[kind](path)
        return {
            "registry": ["separate", str(tmp_path / "song.wav"), "--registry", str(path),
                         "--stage1", "pass", "--out", str(tmp_path / "out")],
            "stems": ["build-dataset", "--manifest", str(path), "--scheme", "duet",
                      "--seed", "1", "--out", str(tmp_path / "ds")],
            "dataset": ["evaluate", "--dataset", str(tmp_path), "--estimates", str(tmp_path)],
            "config": ["evaluate", "--dataset", str(tmp_path), "--estimates", str(tmp_path),
                       "--config", str(path)],
        }[document], path
    record = {"pair_id": "test-000000", "split": "test",
              "paths": {"mix": "m.wav", "src_a": "a.wav", "src_b": "b.wav"}}
    manifest = {"schema": "mir-ss/1", "pairs": [record]}
    bad_record = {
        "manifest-without-pairs": None,
        "record-a-string": "test-000000",
        "record-without-paths": {k: v for k, v in record.items() if k != "paths"},
        "record-path-not-a-string": {**record, "paths": {**record["paths"], "mix": 3}},
        "record-unknown-split": {**record, "split": "dev"},
        "record-pair-id-not-a-string": {**record, "pair_id": 7},
    }
    evaluate = ["evaluate", "--dataset", str(tmp_path / "dataset.json"),
                "--estimates", str(tmp_path)]
    if case in bad_record:
        if bad_record[case] is None:
            del manifest["pairs"]
        else:
            manifest["pairs"] = [record, bad_record[case]]
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(manifest))
        return evaluate, path
    if case == "truncated-manifest":
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(manifest)[:-7])
        return evaluate, path
    if case == "invalid-stems":
        path = tmp_path / "stems.json"
        path.write_text('[{"song_id": ')
        return ["build-dataset", "--manifest", str(path), "--scheme", "duet",
                "--out", str(tmp_path / "ds")], path
    if case == "non-utf8-registry":
        path = tmp_path / "registry.json"
        path.write_bytes(b'[{"model_id": "\xff"}]')
        return ["separate", str(tmp_path / "song.wav"), "--registry", str(path),
                "--stage1", "pass", "--out", str(tmp_path / "out")], path
    assert case == "non-utf8-config"
    path = tmp_path / "mirss.cfg"
    path.write_bytes(b"seed = 3 # \xe9\n")
    return [*evaluate, "--config", str(path)], path


class TestCliDocuments:
    @pytest.mark.parametrize("case, message", [
        ("manifest-without-pairs", "pairs must be a list of pair records"),
        ("record-a-string", "pair record 1: must be an object, got str"),
        ("record-without-paths", "pair record 1: paths must hold string mix, src_a, src_b"),
        ("record-path-not-a-string", "pair record 1: paths must hold string"),
        ("record-unknown-split", "pair record 1: split must be one of train, valid, test"),
        ("record-pair-id-not-a-string", "pair record 1: pair_id must be a string, got 7"),
        ("truncated-manifest", "line 1 column"),
        ("invalid-stems", "line 1 column"),
        ("non-utf8-registry", "can't decode byte 0xff"),
        ("non-utf8-config", "can't decode byte 0xe9"),
        *((f"{document}-{kind}", "not a regular file")
          for document in _DOCUMENT_NAMES for kind in _NON_REGULAR),
        *((f"{document}-huge", "larger than 16 MiB, the most a document may hold")
          for document in _DOCUMENT_NAMES),
    ])
    def test_malformed_document_exits_2_naming_it(self, tmp_path, capsys, monkeypatch,
                                                  case, message):
        monkeypatch.delenv("MIRSS_CONFIG", raising=False)
        if case.endswith("-dev-zero") and not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero")
        argv, path = _bad_document(tmp_path, case)
        if case.endswith(("-dev-zero", "-huge")):
            # a process of its own, capped: a read of /dev/zero never ends,
            # and one of the 2 GiB file would not fit
            result = run_capped(_CLI_MAIN, *argv)
            rc, err = result["rc"], result["err"]
            assert result["seconds"] < 1.0
        elif case.endswith("-fifo"):
            rc = _main_on_a_watchdog_thread(argv, path)
            err = capsys.readouterr().err
        else:
            rc = cli.main(argv)
            err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err.startswith(f"error: {path}: ")
        assert message in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "ds").exists()


# Runs cli.main on sys.argv[1:] (in a capped process, run_capped); prints
# its exit code, what it wrote to stderr and the seconds it took.
_CLI_MAIN = """
import contextlib, io, json, sys, time
from singersep import cli
err = io.StringIO()
start = time.monotonic()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "err": err.getvalue(), "seconds": time.monotonic() - start}))
"""


def _main_on_a_watchdog_thread(argv, fifo):
    """cli.main(argv)'s exit code, run on a daemon thread for at most 5 s. A
    run still waiting on ``fifo`` then is let go (opening it to write lets a
    blocked reader's open return, and opening it to read a blocked writer's)
    and the test fails."""
    result = {}
    thread = threading.Thread(target=lambda: result.update(rc=cli.main(argv)),
                              daemon=True)
    thread.start()
    thread.join(5)
    if thread.is_alive():
        for flags in (os.O_WRONLY, os.O_RDONLY):
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, flags | os.O_NONBLOCK))
        thread.join(5)
        pytest.fail(f"the run waited on {fifo}")
    return result["rc"]


def _files(root):
    """Every path under root that is not a directory."""
    return {p for p in root.rglob("*") if not p.is_dir()}


class TestFifoOutputs:
    """A FIFO, or a link to a device, at an output path is refused at once,
    naming it, and left in place; the run leaves no other file behind."""

    @pytest.mark.parametrize("name", ["accompaniment.wav", "candidates/clean/a.wav",
                                      "vocal_a.wav", "report.json"])
    def test_separate(self, duet_setup, tmp_path, capsys, name):
        fifo = tmp_path / "out" / name
        fifo.parent.mkdir(parents=True)
        os.mkfifo(fifo)
        rc = _main_on_a_watchdog_thread(separate_argv(duet_setup, tmp_path / "out"), fifo)
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert str(fifo) in err
        assert fifo.is_fifo()
        assert _files(tmp_path / "out") == {fifo}

    def test_separate_link_to_a_device(self, duet_setup, tmp_path, capsys):
        # the chosen stems are opened like every other output: a link to
        # /dev/null is refused, not written through with the stem lost
        link = tmp_path / "out" / "vocal_a.wav"
        link.parent.mkdir()
        link.symlink_to(os.devnull)
        rc = cli.main(separate_argv(duet_setup, tmp_path / "out"))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{link}: not a regular file" in err
        assert link.readlink() == Path(os.devnull)
        assert _files(tmp_path / "out") == {link}

    def test_build_dataset(self, tmp_path, capsys):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0, split="test")
        fifo = tmp_path / "ds" / "dataset.json"
        fifo.parent.mkdir()
        os.mkfifo(fifo)
        rc = _main_on_a_watchdog_thread(
            ["build-dataset", "--manifest", str(manifest), "--scheme", "duet",
             "--out", str(fifo.parent), "--seed", "2"], fifo)
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err.startswith(f"error: {fifo}: not a regular file")
        assert fifo.is_fifo()
        assert _files(fifo.parent) == {fifo}

    def test_evaluate(self, built_dataset, tmp_path, capsys):
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        estimates = _files(est)
        fifo = est / "evaluation.csv"
        os.mkfifo(fifo)
        rc = _main_on_a_watchdog_thread(
            ["evaluate", "--dataset", str(root), "--estimates", str(est)], fifo)
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err.startswith(f"error: {fifo}: not a regular file")
        assert fifo.is_fifo()
        assert _files(est) == estimates | {fifo}


# Keys of the registry and of the two manifests, and values they take.
_DOC_KEYS = ["schema", "models", "model_id", "stage", "kind", "command", "oracle",
             "ref_a", "ref_b", "swap", "leak", "noise_snr_db", "noise_seed",
             "pairs", "pair_id", "split", "paths", "mix", "src_a", "src_b",
             "song_id", "singer_id", "vocal_path"]
_DOC_VALUES = [REGISTRY_SCHEMA, dataset.MANIFEST_SCHEMA, STAGE1, STAGE2,
               "external_command", "oracle", "passthrough", "train", "test", "a.wav",
               "", ".", " ", "\0", "run {input} {out_a} {out_b}", "seed = 3"]
_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=8) | st.sampled_from(_DOC_VALUES))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_DOC_KEYS) | st.text(max_size=4), inner, max_size=6),
    max_leaves=16)
# Command templates: placeholders, quotes, escapes, blanks and NULs.
_commands = st.text(max_size=12) | st.lists(st.sampled_from(
    ["run", "{input}", "{out_a}", "{out_b}", "{out_vocal}", "{out_accomp}",
     " ", "\t", "\0", "'", '"', "\\", "{", "}"]), max_size=6).map("".join)
_entries = st.fixed_dictionaries(
    {"model_id": st.sampled_from(["m", "n"]) | _json_scalars,
     "stage": st.sampled_from([STAGE1, STAGE2]) | _json_scalars},
    optional={"kind": st.sampled_from(["external_command", "oracle", "passthrough"]),
              "command": _commands | _json_values, "oracle": _json_values})
_documents = (
    _json_values
    | st.lists(_entries, max_size=3)
    | st.fixed_dictionaries({"models": st.lists(_entries, max_size=3)},
                            optional={"schema": st.just(REGISTRY_SCHEMA) | _json_scalars})
    | st.lists(st.fixed_dictionaries(
        {k: st.text(max_size=4) | _json_scalars for k in ("song_id", "singer_id", "vocal_path")},
        optional={"split": _json_scalars}), max_size=3)
    | st.fixed_dictionaries({"schema": st.just(dataset.MANIFEST_SCHEMA) | _json_scalars,
                             "pairs": st.lists(_json_values, max_size=3)}))


class TestDocumentProperties:
    @settings(max_examples=300, deadline=None)
    @given(content=_documents.map(lambda doc: json.dumps(doc, ensure_ascii=False).encode())
           | st.binary(max_size=64))
    def test_loaders_raise_only_toolkit_or_value_errors(self, content, tmp_path_factory):
        path = tmp_path_factory.mktemp("doc") / "doc.json"
        path.write_bytes(content)
        for load in (registry_load, dataset.load_manifest, dataset.load_stem_manifest,
                     cli._config_settings):
            try:
                load(path)
            except (SingerSepError, ValueError):
                pass

    @settings(max_examples=300, deadline=None)
    @given(stage=st.sampled_from([STAGE1, STAGE2]), command=_commands)
    def test_every_external_backend_has_arguments_free_of_nul(self, stage, command):
        try:
            backend = SeparationBackend(kind=KIND_EXTERNAL, stage=stage, command=command)
        except MalformedRegistryError:
            return
        tokens = shlex.split(backend.command)
        assert tokens and not any("\0" in token for token in tokens)


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        assert [name for name in singersep.__all__
                if not hasattr(singersep, name)] == []

    def test_readme_library_imports_run(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme,
                          re.M | re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})


class TestCliBuildDataset:
    def test_summary_and_determinism(self, tmp_path, capsys):
        manifest = write_toy_stems(tmp_path, n_singers=4, seconds=30.0,
                                   split="train")
        outs = []
        for name in ("d1", "d2"):
            rc = cli.main(["build-dataset", "--manifest", str(manifest),
                           "--scheme", "duet", "--out", str(tmp_path / name),
                           "--seed", "7", "--snr", "0:0"])
            assert rc == 0
            outs.append((tmp_path / name / "dataset.json").read_bytes())
        assert outs[0] == outs[1]
        text = capsys.readouterr().out
        assert "train" in text and "Pairs" in text

    def test_zero_snr_range(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0,
                                   split="train")
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(tmp_path / "z"),
                       "--seed", "1", "--snr", "0:0"])
        assert rc == 0
        doc = json.loads((tmp_path / "z" / "dataset.json").read_text())
        assert all(p["snr_db"] == 0.0 for p in doc["pairs"])

    @pytest.mark.parametrize("made", [True, False], ids=["made-out", "existing-out"])
    def test_failed_build_leaves_nothing(self, tmp_path, capsys, made):
        # the last test stem is missing: the train pairs are written by then,
        # and go with the manifest
        manifest = write_toy_stems(tmp_path, n_singers=4, seconds=20.0)
        rows = json.loads(manifest.read_text())
        for i, row in enumerate(rows):
            row["split"] = "train" if i < len(rows) // 2 else "test"
        missing = rows[-1]["vocal_path"] = str(tmp_path / "no-such-stem.wav")
        manifest.write_text(json.dumps(rows))
        out = tmp_path / "ds"
        if not made:
            out.mkdir()
        rc = cli.main(["build-dataset", "--manifest", str(manifest), "--scheme", "duet",
                       "--out", str(out), "--seed", "3"])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert missing in err
        if made:
            assert not out.exists()
        else:
            assert list(out.iterdir()) == []

    def test_self_scheme_single_segment_singer_exits_2(self, tmp_path, capsys):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=10.0,
                                   split="train")  # one segment per singer
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "self", "--out", str(tmp_path / "s"),
                       "--seed", "1"])
        assert rc == 2
        assert "singer-0" in capsys.readouterr().err

    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0,
                                   split="train")
        monkeypatch.setenv("MIRSS_SEED", "42")
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(tmp_path / "env1")])
        assert rc == 0
        doc = json.loads((tmp_path / "env1" / "dataset.json").read_text())
        assert doc["seed"] == 42

    def test_config_file_lowest_precedence(self, tmp_path, monkeypatch):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0,
                                   split="train")
        cfg = tmp_path / "mirss.cfg"
        cfg.write_text("seed = 9\n# comment\n")
        monkeypatch.delenv("MIRSS_SEED", raising=False)
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(tmp_path / "cfg1"),
                       "--config", str(cfg)])
        assert rc == 0
        doc = json.loads((tmp_path / "cfg1" / "dataset.json").read_text())
        assert doc["seed"] == 9
        # flag beats the file
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(tmp_path / "cfg2"),
                       "--config", str(cfg), "--seed", "13"])
        assert rc == 0
        doc = json.loads((tmp_path / "cfg2" / "dataset.json").read_text())
        assert doc["seed"] == 13

    @pytest.mark.parametrize("flag, value", [
        ("--segment-seconds", "0"),
        ("--segment-seconds", "inf"),
        ("--segment-seconds", "0.00001"),  # rounds to zero samples
        ("--segment-seconds", "1e305"),  # finite, but not in samples
        ("--snr", "-inf:inf"),
        ("--snr", "inf:inf"),
        ("--snr", "5:-5"),
        ("--snr", "5000:5000"),
        ("--snr", "-5000:-5000"),
        ("--snr", "300:300"),  # the quieter source would round to silence
        ("--snr", "-90.1:0"),
        ("--ratios", "nan,0.5,0.5"),
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, flag, value):
        manifest = write_toy_stems(tmp_path, n_singers=3, seconds=2.0)
        out = tmp_path / "ds" / "nested"
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(out), "--seed", "1",
                       f"{flag}={value}"])
        assert_clean_exit(rc, capsys.readouterr().err, 2)
        assert not (tmp_path / "ds").exists()

    def test_stems_shorter_than_one_segment_exit_2(self, tmp_path, capsys):
        # no stem holds one 10 s segment, so the build has no pair to write
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=3.0, split="train")
        out = tmp_path / "ds"
        out.mkdir()
        rc = cli.main(["build-dataset", "--manifest", str(manifest), "--scheme", "duet",
                       "--out", str(out), "--seed", "1"])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "no stem lasts one 10 s segment" in err
        assert list(out.iterdir()) == []

    def test_full_disk_names_the_manifest_and_leaves_nothing(
            self, tmp_path, capsys, monkeypatch):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0, split="train")
        out = tmp_path / "ds"
        out.mkdir()
        monkeypatch.setattr(json, "dump", json_dump_on_a_full_disk)
        rc = cli.main(["build-dataset", "--manifest", str(manifest), "--scheme", "duet",
                       "--out", str(out), "--seed", "1"])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err == (f"error: {out / 'dataset.json'}: [Errno 28] "
                       f"{os.strerror(errno.ENOSPC)}\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan,0.5,0.5", "-1,1,1", "0.5,0.5,0.5"])
    def test_ratios_checked_when_every_entry_pins_its_split(
            self, tmp_path, capsys, value):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=2.0, split="train")
        out = tmp_path / "ds"
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(out), "--seed", "1",
                       f"--ratios={value}"])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err.startswith("error: ratios must be")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1,2", "a,b,c"])
    def test_ratios_need_three_numbers(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["build-dataset", "--manifest", str(tmp_path / "stems.json"),
                      "--scheme", "duet", "--out", str(tmp_path / "ds"),
                      "--ratios", value])
        assert exc.value.code == 2
        assert "--ratios" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["song_id", "singer_id", "vocal_path"])
    @pytest.mark.parametrize("value", [None, 5])
    def test_non_string_stem_field_exits_2(self, tmp_path, capsys, key, value):
        manifest = write_toy_stems(tmp_path, n_singers=3, seconds=2.0, split="train")
        rows = json.loads(manifest.read_text())
        rows[1][key] = value
        manifest.write_text(json.dumps(rows))
        out = tmp_path / "ds"
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(out), "--seed", "1"])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"bad stem entry 1: {key} must be a string" in err
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        ({"stems": []}, "stem manifest must be a JSON array"),
        (["singer-0.wav"], "bad stem entry 0: "),
    ], ids=["not-array", "entry-not-object"])
    def test_malformed_stem_manifest_exits_2(self, tmp_path, capsys, rows, message):
        manifest = tmp_path / "stems.json"
        manifest.write_text(json.dumps(rows))
        out = tmp_path / "ds"
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(out), "--seed", "1"])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{manifest}: {message}" in err
        assert not out.exists()

    def test_drawn_seed_printed_and_recorded(self, tmp_path, capsys, monkeypatch):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0, split="train")
        monkeypatch.delenv("MIRSS_SEED", raising=False)
        monkeypatch.delenv("MIRSS_CONFIG", raising=False)
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(tmp_path / "ds")])
        assert rc == 0
        drawn = re.search(r"no --seed given; drew seed (\d+)", capsys.readouterr().out)
        doc = json.loads((tmp_path / "ds" / "dataset.json").read_text())
        assert drawn and doc["seed"] == int(drawn.group(1))

    def test_snr_range_takes_only_colon_form(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["build-dataset", "--manifest", str(tmp_path / "stems.json"),
                      "--scheme", "duet", "--out", str(tmp_path / "ds"),
                      "--snr=-5..5"])
        assert exc.value.code == 2
        assert "LO:HI" in capsys.readouterr().err

    @pytest.mark.parametrize("pin, message", [
        ("Train", "'singer-1': unknown split 'Train'"),
        (None, "'singer-1' does not; pin every entry or none"),
    ])
    def test_bad_split_pin_exits_2(self, tmp_path, capsys, pin, message):
        manifest = write_toy_stems(tmp_path, n_singers=3, seconds=2.0, split="train")
        rows = json.loads(manifest.read_text())
        rows[1]["split"] = pin
        manifest.write_text(json.dumps(rows))
        out = tmp_path / "ds"
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(out), "--seed", "1"])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_negative_seed_exits_2_before_any_stem_is_read(
            self, tmp_path, capsys, monkeypatch, source):
        manifest = write_toy_stems(tmp_path, n_singers=3, seconds=2.0, split="train")
        out = tmp_path / "ds"
        argv = ["build-dataset", "--manifest", str(manifest), "--scheme", "duet",
                "--out", str(out)]
        monkeypatch.delenv("MIRSS_SEED", raising=False)
        monkeypatch.delenv("MIRSS_CONFIG", raising=False)
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "env":
            monkeypatch.setenv("MIRSS_SEED", "-1")
        else:
            cfg = tmp_path / "mirss.cfg"
            cfg.write_text("seed = -1\n")
            argv += ["--config", str(cfg)]
        read = []
        monkeypatch.setattr(dataset, "read_wav", lambda path: read.append(path))
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "seed must be a non-negative integer, got -1" in err
        assert read == []
        assert not out.exists()


@pytest.fixture
def built_dataset(tmp_path):
    manifest = write_toy_stems(tmp_path, n_singers=2, seconds=30.0, split="test")
    rc = cli.main(["build-dataset", "--manifest", str(manifest),
                   "--scheme", "duet", "--out", str(tmp_path / "ds"),
                   "--seed", "2", "--snr", "0:0"])
    assert rc == 0
    root = tmp_path / "ds"
    doc = json.loads((root / "dataset.json").read_text())
    return root, doc


def write_oracle_estimates(root, doc, est):
    """Each pair's sources written as its estimates; returns the directory."""
    est.mkdir()
    for rec in doc["pairs"]:
        for ch, key in (("a", "src_a"), ("b", "src_b")):
            src = read_wav(root / rec["paths"][key])
            write_wav(src, est / f"{rec['pair_id']}_{ch}.wav")
    return est


def write_mixed_estimates(root, doc, est):
    """write_oracle_estimates, with the first pair's second estimate
    replaced by the second pair's mix; returns the directory."""
    write_oracle_estimates(root, doc, est)
    first, other = doc["pairs"][:2]
    write_wav(read_wav(root / other["paths"]["mix"]), est / f"{first['pair_id']}_b.wav")
    return est


class TestCliEvaluate:
    def test_oracle_estimates_hit_sentinel(self, built_dataset, tmp_path, capsys):
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        rc = cli.main(["evaluate", "--dataset", str(root),
                       "--estimates", str(est)])
        assert rc == 0
        assert f"{SENTINEL_DB:.4f}" in capsys.readouterr().out
        assert (est / "evaluation.csv").exists()

    def test_mixture_as_estimate_scores_near_zero(self, built_dataset, tmp_path,
                                                  capsys):
        root, doc = built_dataset
        est = tmp_path / "est2"
        est.mkdir()
        for rec in doc["pairs"]:
            mix = read_wav(root / rec["paths"]["mix"])
            for ch in ("a", "b"):
                write_wav(mix, est / f"{rec['pair_id']}_{ch}.wav")
        rc = cli.main(["evaluate", "--dataset", str(root),
                       "--estimates", str(est), "--csv",
                       str(tmp_path / "m.csv")])
        assert rc == 0
        import csv as csvmod
        with open(tmp_path / "m.csv") as fh:
            rows = list(csvmod.DictReader(fh))
        mean_row = [r for r in rows if r["pair_id"] == "mean"][0]
        assert abs(float(mean_row["si_snri_db"])) <= 0.5

    def test_empty_estimates_dir_exits_4(self, built_dataset, tmp_path, capsys):
        root, _ = built_dataset
        est = tmp_path / "empty"
        est.mkdir()
        rc = cli.main(["evaluate", "--dataset", str(root),
                       "--estimates", str(est)])
        assert rc == 4
        assert "missing estimates" in capsys.readouterr().err

    def test_partial_estimates_listed_and_exit_4(self, built_dataset, tmp_path,
                                                 capsys):
        root, doc = built_dataset
        est = tmp_path / "partial"
        est.mkdir()
        first = doc["pairs"][0]
        for ch, key in (("a", "src_a"), ("b", "src_b")):
            write_wav(read_wav(root / first["paths"][key]),
                      est / f"{first['pair_id']}_{ch}.wav")
        rc = cli.main(["evaluate", "--dataset", str(root),
                       "--estimates", str(est)])
        assert rc == 4
        err = capsys.readouterr().err
        assert doc["pairs"][1]["pair_id"] in err

    def test_manifest_of_another_schema_exits_2(self, built_dataset, tmp_path, capsys):
        root, doc = built_dataset
        (root / "dataset.json").write_text(json.dumps({**doc, "schema": "mir-ss/2"}))
        rc = cli.main(["evaluate", "--dataset", str(root), "--estimates", str(tmp_path)])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{root / 'dataset.json'}: unknown manifest schema 'mir-ss/2'" in err

    def test_split_without_pairs_exits_2(self, built_dataset, tmp_path, capsys):
        root, _ = built_dataset
        rc = cli.main(["evaluate", "--dataset", str(root),
                       "--estimates", str(tmp_path), "--split", "train"])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "'train'" in err

    def test_metric_error_names_the_pair(self, built_dataset, tmp_path, capsys):
        root, doc = built_dataset
        est = tmp_path / "short"
        est.mkdir()
        bad = doc["pairs"][-1]["pair_id"]
        for rec in doc["pairs"]:
            for ch, key in (("a", "src_a"), ("b", "src_b")):
                src = read_wav(root / rec["paths"][key])
                if rec["pair_id"] == bad:
                    src = Waveform(src.samples[:-5], src.sample_rate)
                write_wav(src, est / f"{rec['pair_id']}_{ch}.wav")
        rc = cli.main(["evaluate", "--dataset", str(root),
                       "--estimates", str(est)])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"pair {bad}: length mismatch" in err

    def test_estimate_longer_than_its_reference_exits_2_unread(
            self, built_dataset, tmp_path, capsys):
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        bad = doc["pairs"][-1]["pair_id"]
        path = est / f"{bad}_b.wav"
        src = read_wav(path)
        write_wav(Waveform(np.tile(src.samples, 10), src.sample_rate), path)
        rc = cli.main(["evaluate", "--dataset", str(root), "--estimates", str(est)])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert (f"pair {bad}: {path}: {10 * len(src)} frames, more than the "
                f"{len(src)} allowed") in err

    def test_constant_estimate_exits_2_naming_the_pair(self, built_dataset, tmp_path,
                                                       capsys):
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        bad = doc["pairs"][-1]["pair_id"]
        src = read_wav(est / f"{bad}_b.wav")
        write_wav(Waveform([0.1] * len(src), src.sample_rate), est / f"{bad}_b.wav")
        rc = cli.main(["evaluate", "--dataset", str(root),
                       "--estimates", str(est)])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"pair {bad}: zero-variance estimate" in err

    def test_exact_sources_left_out_of_the_mean(self, built_dataset, tmp_path, capsys):
        # four pairs estimated by their own sources, except that one pair's
        # second channel is another pair's mix: 7 of 8 sources are exact
        root, doc = built_dataset
        doc = {**doc, "pairs": doc["pairs"][:4]}
        (root / "dataset.json").write_text(json.dumps(doc))
        est = write_mixed_estimates(root, doc, tmp_path / "est")
        first = doc["pairs"][0]
        rc = cli.main(["evaluate", "--dataset", str(root), "--estimates", str(est),
                       "--csv", str(tmp_path / "m.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "7 of 8 sources reconstructed exactly, left out of the mean" in out
        finite = metrics.pit_evaluate(
            [read_wav(root / first["paths"][k]) for k in ("src_a", "src_b")],
            [read_wav(est / f"{first['pair_id']}_{ch}.wav") for ch in "ab"],
            read_wav(root / first["paths"]["mix"])).per_source[1]
        with open(tmp_path / "m.csv", newline="") as fh:
            rows = {r["pair_id"]: r for r in csv.DictReader(fh)}
        mean_row, first_row = rows["mean"], rows[first["pair_id"]]
        assert {k: float(mean_row[k]) for k in metrics.METRICS} == \
            {k: getattr(finite, k) for k in metrics.METRICS}
        assert all(abs(getattr(finite, k)) < 1e3 for k in metrics.METRICS)
        assert f"mean over 4 pairs: SI-SNRi {finite.si_snri_db:.4f} dB" in out
        # the pair's own row follows the same rule: its finite source alone
        assert {k: float(first_row[k]) for k in metrics.METRICS} == \
            {k: getattr(finite, k) for k in metrics.METRICS}
        assert (f"{first['pair_id']}: SI-SNRi {finite.si_snri_db:.4f} dB, "
                f"SDRi {finite.sdri_db:.4f} dB") in out

    def test_mixture_with_nothing_of_a_source_is_not_exact(self, built_dataset, tmp_path,
                                                          capsys):
        # one pair whose source a and mix are orthogonal square waves, with
        # noisy estimates: a's SI-SNRi is capped at the sentinel, but its
        # SI-SNR is finite, so no source counts as exact
        root, doc = built_dataset
        doc = {**doc, "pairs": doc["pairs"][:1]}
        (root / "dataset.json").write_text(json.dumps(doc))
        paths = {k: root / v for k, v in doc["pairs"][0]["paths"].items()}
        n = len(read_wav(paths["mix"]))
        write_wav(Waveform(np.resize([0.25, -0.25, 0.25, -0.25], n), 8000), paths["src_a"])
        write_wav(Waveform(np.resize([0.25, 0.25, -0.25, -0.25], n), 8000), paths["mix"])
        est = tmp_path / "est"
        est.mkdir()
        rng = np.random.default_rng(3)
        for ch in "ab":
            src = read_wav(paths[f"src_{ch}"]).samples
            write_wav(Waveform(0.5 * src + 0.01 * rng.standard_normal(n), 8000),
                      est / f"{doc['pairs'][0]['pair_id']}_{ch}.wav")
        rc = cli.main(["evaluate", "--dataset", str(root), "--estimates", str(est),
                       "--csv", str(tmp_path / "m.csv")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "reconstructed exactly" not in printed
        assert ("1 of 2 sources whose mixture holds none of the reference: "
                "SI-SNRi at the 1e+09 dB cap, left out of the mean") in printed
        with open(tmp_path / "m.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(abs(float(r[k])) < 1e3 for r in rows for k in metrics.METRICS)

    @pytest.mark.parametrize("jobs, started", [(1, 0), (2, 1), (3, 2)])
    def test_jobs_count_the_calling_thread(self, built_dataset, tmp_path, monkeypatch,
                                           jobs, started):
        # each pair waits a moment, so every worker takes one; the threads
        # alive beside it are the ones evaluate started
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        alive = []
        evaluate_pair = cli._evaluate_pair

        def counted(*args):
            alive.append(threading.active_count())
            time.sleep(0.05)
            return evaluate_pair(*args)

        monkeypatch.setattr(cli, "_evaluate_pair", counted)
        before = threading.active_count()
        rc = cli.main(["evaluate", "--dataset", str(root), "--estimates", str(est),
                       "--jobs", str(jobs), "--csv", str(tmp_path / f"j{jobs}.csv")])
        assert rc == 0
        assert len(alive) == len(doc["pairs"])
        assert max(alive) - before == started
        assert threading.active_count() == before
        with open(tmp_path / f"j{jobs}.csv", newline="") as fh:
            assert [r["pair_id"] for r in csv.DictReader(fh)] == \
                [r["pair_id"] for r in doc["pairs"]] + ["mean"]

    def test_one_worker_and_three_write_the_same_csv(self, built_dataset, tmp_path,
                                                    monkeypatch):
        # the first pair is slow, so on three workers it finishes last; the
        # rows still come in manifest order, to the same bytes
        root, doc = built_dataset
        est = write_mixed_estimates(root, doc, tmp_path / "est")
        evaluate_pair = cli._evaluate_pair

        def first_finishes_last(*args):
            if args[-1]["pair_id"] == doc["pairs"][0]["pair_id"]:
                time.sleep(0.3)
            return evaluate_pair(*args)

        monkeypatch.setattr(cli, "_evaluate_pair", first_finishes_last)
        for jobs in (1, 3):
            rc = cli.main(["evaluate", "--dataset", str(root), "--estimates", str(est),
                           "--jobs", str(jobs), "--csv", str(tmp_path / f"j{jobs}.csv")])
            assert rc == 0
        assert (tmp_path / "j1.csv").read_bytes() == (tmp_path / "j3.csv").read_bytes()

    def test_full_disk_names_the_csv_and_leaves_none(self, built_dataset, tmp_path,
                                                     capsys, monkeypatch):
        # a CSV from an earlier run is in place; the disk fills after the
        # header and the first row are written
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        estimates = {p: p.read_bytes() for p in est.iterdir()}
        csv_path = est / "evaluation.csv"
        csv_path.write_text("an earlier run's scores\n")
        sizes = fill_disk_on_write(monkeypatch, csv_path, writes=2)
        rc = cli.main(["evaluate", "--dataset", str(root), "--estimates", str(est)])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err == f"error: {csv_path}: [Errno 28] {os.strerror(errno.ENOSPC)}\n"
        assert len(sizes) == 1 and sizes[0] > 0
        assert {p: p.read_bytes() for p in est.iterdir()} == estimates

    def test_read_error_names_the_wav_and_leaves_no_csv(self, built_dataset, tmp_path,
                                                        capsys, monkeypatch):
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        failing = est / f"{doc['pairs'][0]['pair_id']}_a.wav"
        fail_payload_reads(monkeypatch, failing)
        rc = cli.main(["evaluate", "--dataset", str(root), "--estimates", str(est)])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert err == f"error: {failing}: [Errno {errno.EIO}] {os.strerror(errno.EIO)}\n"
        assert not (est / "evaluation.csv").exists()


def _tree(root):
    """Every path under root: a file's bytes, None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


class TestFileSizeCap:
    """A write the kernel itself refuses, past a file-size cap (EFBIG), ends
    the verb with exit 2 and one line naming the file, and leaves the inputs
    as they were and nothing the run made. The verb runs in a child process
    (run_capped) under RLIMIT_FSIZE, set below the first WAV or CSV it
    writes."""

    def assert_refused(self, tmp_path, argv, limit, written):
        """A ``*`` in ``written`` stands for the rest of one path component,
        such as a scratch directory's random name."""
        before = _tree(tmp_path)
        result = run_capped(_CLI_MAIN, *argv, rlimit="RLIMIT_FSIZE", limit=limit)
        assert_clean_exit(result["rc"], result["err"], 2)
        line = f"error: {written}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
        assert re.fullmatch(re.escape(line).replace(r"\*", "[^/]*"), result["err"]), \
            result["err"]
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("extra", ["", "model", "refs"])
    def test_separate(self, duet_setup, tmp_path, extra):
        argv = {"": [], "model": ["--model", "clean"],
                "refs": ["--ref-a", str(duet_setup["refs"][0]),
                         "--ref-b", str(duet_setup["refs"][1])]}[extra]
        out = tmp_path / "out"
        # the 6 s accompaniment takes 96 kB
        self.assert_refused(tmp_path, separate_argv(duet_setup, out, *argv), 20_000,
                            out / "accompaniment.wav")

    def test_separate_external_stage1(self, duet_setup, tmp_path):
        copy = (f"{sys.executable} -c 'import shutil, sys; "
                "[shutil.copy(sys.argv[1], p) for p in sys.argv[2:]]' "
                "{input} {out_vocal} {out_accomp}")
        registry = swap_stage1(duet_setup, tmp_path, copy)
        out = tmp_path / "out"
        # the backend's scratch input.wav, 6 s at 8 kHz, takes 96 kB; the
        # command never runs, so its scratch is not kept
        self.assert_refused(tmp_path, separate_argv(duet_setup, out, registry=registry),
                            20_000, out / "tmp" / "backend-*" / "input.wav")

    def test_build_dataset(self, tmp_path):
        manifest = write_toy_stems(tmp_path, n_singers=2, seconds=20.0, split="train")
        out = tmp_path / "ds"
        # a 10 s pair file takes 160 kB
        self.assert_refused(tmp_path, ["build-dataset", "--manifest", manifest,
                                       "--scheme", "duet", "--out", out, "--seed", "1"],
                            20_000, out / "train" / "train-000000" / "mix.wav")

    def test_evaluate(self, built_dataset, tmp_path):
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        # the CSV's header alone is longer
        self.assert_refused(tmp_path, ["evaluate", "--dataset", root, "--estimates", est],
                            16, est / "evaluation.csv")


def _process_gone(pid):
    """Whether process ``pid`` has ended: it is not found, or it is a zombie
    that its new parent has yet to reap."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestInterrupt:
    """Ctrl-C (SIGINT) ends a run with exit 130 and one stderr line, no
    traceback, and leaves nothing the run made: its outputs are removed and
    the backend command it was waiting on is killed."""

    def test_separate_waiting_on_a_command(self, duet_setup, tmp_path):
        pid_file = tmp_path / "pid"
        # writes its pid, then becomes `sleep 30` under that pid
        code = ("import os, sys; "
                "open(sys.argv[1] + '.part', 'w').write(str(os.getpid())); "
                "os.replace(sys.argv[1] + '.part', sys.argv[1]); "
                "os.execvp('sleep', ['sleep', '30'])")
        command = shlex.join([sys.executable, "-c", code, str(pid_file)])
        registry = add_candidate(duet_setup, tmp_path, "sleeper",
                                 command + " {input} {out_a} {out_b}")
        out = tmp_path / "out"
        argv = separate_argv(duet_setup, out, "--jobs", "1", registry=registry)
        proc = subprocess.Popen([sys.executable, "-m", "singersep", *argv],
                                env=cli_process_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        sleeper = None
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists():
                assert proc.poll() is None, proc.communicate()
                assert time.monotonic() < deadline, "the command never started"
                time.sleep(0.02)
            sleeper = int(pid_file.read_text())
            proc.send_signal(signal.SIGINT)
            start = time.monotonic()
            _, err = proc.communicate(timeout=30)
            elapsed = time.monotonic() - start
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            if sleeper is not None and not _process_gone(sleeper):
                os.kill(sleeper, signal.SIGKILL)
        assert proc.returncode == 130, err
        assert elapsed < 2.0
        assert err == "interrupted: SIGINT received\n"
        assert not out.exists()
        deadline = time.monotonic() + 2
        while not _process_gone(sleeper):
            assert time.monotonic() < deadline, f"pid {sleeper} still runs"
            time.sleep(0.02)


def _tree_bytes(root):
    """Every file under root, by its path relative to root, as bytes; a
    report's timings left out."""
    tree = {}
    for path in _files(root):
        data = path.read_bytes()
        if path.name == "report.json":
            data = json.loads(data)
            data.pop("timings")
        tree[path.relative_to(root)] = data
    return tree


class TestRelativeOutputPaths:
    """An output path relative to the working directory writes what the
    absolute one does; the input paths are the same absolute ones."""

    def test_separate(self, duet_setup, tmp_path, monkeypatch, capsys):
        refs = ["--ref-a", str(duet_setup["refs"][0]), "--ref-b", str(duet_setup["refs"][1])]
        assert cli.main(separate_argv(duet_setup, tmp_path / "abs", *refs)) == 0
        monkeypatch.chdir(tmp_path)
        assert cli.main(separate_argv(duet_setup, "rel", *refs)) == 0
        tree = _tree_bytes(tmp_path / "abs")
        assert {"report.json", "vocal_a.wav", "candidates/clean/a.wav"} <= set(map(str, tree))
        assert _tree_bytes(tmp_path / "rel") == tree

    def test_build_dataset(self, tmp_path, monkeypatch):
        manifest = write_toy_stems(tmp_path, n_singers=4, seconds=20.0, split="train")
        argv = ["build-dataset", "--manifest", str(manifest), "--scheme", "duet",
                "--seed", "5", "--out"]
        assert cli.main([*argv, str(tmp_path / "abs")]) == 0
        monkeypatch.chdir(tmp_path)
        assert cli.main([*argv, "rel"]) == 0
        tree = _tree_bytes(tmp_path / "abs")
        assert len(tree) == 1 + 3 * 8  # the manifest and 8 pairs
        assert _tree_bytes(tmp_path / "rel") == tree

    def test_evaluate(self, built_dataset, tmp_path, monkeypatch):
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        argv = ["evaluate", "--dataset", str(root), "--estimates", str(est), "--csv"]
        # the CSV's missing directory is made, as separate's --out is
        assert cli.main([*argv, str(tmp_path / "abs" / "scores.csv")]) == 0
        monkeypatch.chdir(tmp_path)
        assert cli.main([*argv, "rel/scores.csv"]) == 0
        assert ((tmp_path / "rel" / "scores.csv").read_bytes()
                == (tmp_path / "abs" / "scores.csv").read_bytes())


# the run settings each verb declares
VERB_SETTINGS = {
    "separate": set(cli._SETTINGS),
    "build-dataset": {"seed", "jobs"},
    "evaluate": {"jobs"},
    "selftest": set(),
}


def verb_argv(verb, tmp_path):
    """A complete command line for ``verb``; its input paths need not exist."""
    return {
        "build-dataset": ["build-dataset", "--manifest", str(tmp_path / "stems.json"),
                          "--scheme", "duet", "--out", str(tmp_path / "ds")],
        "evaluate": ["evaluate", "--dataset", str(tmp_path / "ds"),
                     "--estimates", str(tmp_path / "est")],
        "selftest": ["selftest"],
    }[verb]


class TestCliSettingsPerVerb:
    def test_readme_settings_table_matches_parsers(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([\w-]+)` \| (.+) \|$",
                          readme, re.M)
        assert [key for key, *_ in rows] == list(cli._SETTINGS)
        documented = {}
        for key, env, flag, verbs in rows:
            assert (env, flag) == (f"MIRSS_{key.upper()}", cli._flag(key))
            for verb in re.findall(r"`([\w-]+)`", verbs):
                documented.setdefault(verb, set()).add(key)
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {verb: {key for key in cli._SETTINGS
                           if cli._flag(key) in p._option_string_actions}
                    for verb, p in sub.choices.items()}
        assert declared == VERB_SETTINGS
        assert documented == {verb: keys for verb, keys in declared.items() if keys}

    @pytest.mark.parametrize("verb, key", [
        (verb, key) for verb, keys in VERB_SETTINGS.items()
        for key in cli._SETTINGS if key not in keys])
    def test_undeclared_setting_flag_exits_2(self, tmp_path, capsys, verb, key):
        value = "hz" if key == "units" else "3"
        with pytest.raises(SystemExit) as exc:
            cli.main(verb_argv(verb, tmp_path) + [cli._flag(key), value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {cli._flag(key)} {value}" in \
            capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("var, value", [
        ("MIRSS_PITCH_FMIN", "abc"), ("MIRSS_UNITS", "cents")])
    def test_unread_env_settings_ignored(self, built_dataset, tmp_path, monkeypatch,
                                         var, value):
        monkeypatch.setenv(var, value)
        stems = tmp_path / "other"
        stems.mkdir()
        manifest = write_toy_stems(stems, n_singers=2, seconds=10.0, split="train")
        assert cli.main(["build-dataset", "--manifest", str(manifest), "--scheme",
                         "duet", "--out", str(tmp_path / "ds2"), "--seed", "1"]) == 0
        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        assert cli.main(["evaluate", "--dataset", str(root),
                         "--estimates", str(est)]) == 0

    def test_one_config_file_serves_every_verb(self, duet_setup, built_dataset,
                                               tmp_path, monkeypatch):
        cfg = tmp_path / "mirss.cfg"
        cfg.write_text("seed = 5\njobs = 1\npitch_fmin = 70\n")
        monkeypatch.setenv("MIRSS_CONFIG", str(cfg))
        for key in cli._SETTINGS:
            monkeypatch.delenv(f"MIRSS_{key.upper()}", raising=False)
        seen = {}

        def record(*args, **kwargs):
            seen.update(kwargs)
            return {"chosen": "clean", "selection_bypassed": False,
                    "candidates": [], "evaluation": None}

        monkeypatch.setattr(cli.pipeline, "separate_song", record)
        assert cli.main(["separate", str(duet_setup["song"]),
                         "--registry", str(duet_setup["registry"]),
                         "--stage1", "stage1-pass", "--out", str(tmp_path / "out")]) == 0
        assert (seen["seed"], seen["jobs"], seen["pitch_config"].fmin_hz) == (5, 1, 70.0)

        stems = tmp_path / "other"
        stems.mkdir()
        manifest = write_toy_stems(stems, n_singers=2, seconds=10.0, split="train")
        assert cli.main(["build-dataset", "--manifest", str(manifest),
                         "--scheme", "duet", "--out", str(tmp_path / "ds2")]) == 0
        assert json.loads((tmp_path / "ds2" / "dataset.json").read_text())["seed"] == 5

        root, doc = built_dataset
        est = write_oracle_estimates(root, doc, tmp_path / "est")
        assert cli.main(["evaluate", "--dataset", str(root),
                         "--estimates", str(est)]) == 0

    @pytest.mark.parametrize("verb", ["build-dataset", "evaluate"])
    def test_unknown_config_key_exits_2_on_every_verb(self, tmp_path, capsys, verb):
        cfg = tmp_path / "mirss.cfg"
        cfg.write_text("pitch_fmn = 400\n")
        rc = cli.main(verb_argv(verb, tmp_path) + ["--config", str(cfg)])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert "pitch_fmn" in err

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "mirss.cfg"
        cfg.write_text("# jobs\njobs 2\n")
        rc = cli.main(verb_argv("evaluate", tmp_path) + ["--config", str(cfg)])
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 2)
        assert f"{cfg}:2: expected key=value" in err


def _error_classes(cls=errors.SingerSepError):
    """SingerSepError and every class below it."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


ERROR_CLASSES = list(_error_classes())


def _policy(cls):
    """The class whose exit_code and label the CLI reports ``cls`` with: a
    ValueError or an OSError is reported as a SingerSepError."""
    return cls if issubclass(cls, errors.SingerSepError) else errors.SingerSepError


class TestErrorTaxonomy:
    """Each error class carries its exit code and stderr label; the CLI reads
    them from the class, and README's exit-code table lists every class."""

    @pytest.mark.parametrize("cls", [*ERROR_CLASSES, ValueError, OSError],
                             ids=lambda cls: cls.__name__)
    def test_verb_raising_it_exits_with_its_code_and_label(self, tmp_path, capsys,
                                                           monkeypatch, cls):
        def fail(args):
            raise cls("it broke")

        monkeypatch.setattr(cli, "cmd_evaluate", fail)
        rc = cli.main(verb_argv("evaluate", tmp_path))
        policy = _policy(cls)
        assert rc == policy.exit_code
        assert capsys.readouterr().err == f"{policy.label}: it broke\n"

    def test_keyboard_interrupt_exits_130_in_one_line(self, tmp_path, capsys,
                                                      monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_evaluate", interrupted)
        try:
            rc = cli.main(verb_argv("evaluate", tmp_path))
        except KeyboardInterrupt:  # one escaping would end the whole session
            pytest.fail("KeyboardInterrupt escaped cli.main")
        assert rc == 130
        assert capsys.readouterr().err == "interrupted: SIGINT received\n"

    def test_only_backend_failures_exit_3_and_carry_a_penalty_reason(self):
        backend = [errors.BackendFailureError, errors.ContractViolationError]
        assert {cls.exit_code for cls in ERROR_CLASSES} == {2, 3, 130}
        assert [cls for cls in ERROR_CLASSES if cls.exit_code == 3] == backend
        assert [cls for cls in ERROR_CLASSES if cls.exit_code == 130] == [
            errors.InterruptedRunError]
        assert [cls for cls in ERROR_CLASSES if cls.label != "error"] == [
            *backend, errors.InterruptedRunError]
        assert [cls for cls in ERROR_CLASSES if hasattr(cls, "reason")] == backend
        assert {cls.reason for cls in backend} == {"backend_failed"}

    def test_readme_exit_code_table_matches_errors(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        rows = re.findall(r"^\| (\d+) \| [^|]+ \|([^|]*)\|([^|]*)\|$", readme, re.M)
        assert [int(code) for code, *_ in rows] == [0, 1, 2, 3, 4, 130]
        documented = []
        for code, prefix, names in rows:
            for name in re.findall(r"`(\w+)`", names):
                cls = getattr(errors, name, None) or {"ValueError": ValueError,
                                                      "OSError": OSError}[name]
                policy = _policy(cls)
                assert (int(code), prefix.strip()) == (policy.exit_code,
                                                       f"`{policy.label}:`")
                documented.append(cls)
            if not names.strip():
                assert not prefix.strip()
        assert len(documented) == len(set(documented))
        assert set(documented) == {*ERROR_CLASSES, ValueError, OSError}


class TestCliSelftest:
    def test_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_json_output(self, capsys):
        assert cli.main(["selftest", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in doc)
        assert {"name", "passed", "detail"} <= set(doc[0])
