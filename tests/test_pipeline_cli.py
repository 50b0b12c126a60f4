import argparse
import json
import re
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from singersep import cli, synth
from singersep.audio import Waveform, read_wav, write_wav
from singersep.backends import STAGE1, STAGE2, registry_load
from singersep.dataset import mix_at_snr
from singersep.metrics import SENTINEL_DB
from singersep.pipeline import separate_song
from singersep.selection import select_model

from conftest import make_duet_refs, write_registry, write_toy_stems


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


class TestSeparateSong:
    def test_end_to_end_selects_clean(self, duet_setup, tmp_path):
        out = tmp_path / "out"
        result = separate_song(duet_setup["song"],
                               registry_load(duet_setup["registry"]),
                               stage1_id="stage1-pass", out_dir=out)
        assert result.report["chosen"] == "clean"
        for rel in result.report["outputs"].values():
            assert (out / rel).exists()
        ids = [c["model_id"] for c in result.report["candidates"]]
        assert sorted(ids) == ["clean", "leaky"]
        for c in result.report["candidates"]:
            assert c["score"] is not None

    def test_passthrough_conservation_pre_quantization(self, duet_setup, tmp_path):
        result = separate_song(duet_setup["song"],
                               registry_load(duet_setup["registry"]),
                               stage1_id="stage1-pass", out_dir=tmp_path / "out")
        song = read_wav(duet_setup["song"])
        recon = result.mixed_vocal.samples + result.accompaniment.samples
        assert np.array_equal(recon, song.samples)

    def test_model_bypass_runs_single_backend(self, duet_setup, tmp_path):
        result = separate_song(duet_setup["song"],
                               registry_load(duet_setup["registry"]),
                               stage1_id="stage1-pass", out_dir=tmp_path / "out",
                               model="leaky")
        assert result.report["chosen"] == "leaky"
        assert result.report["selection_bypassed"]
        assert all(c["score"] is None for c in result.report["candidates"])
        # only the bypassed model has written outputs
        outs = {c["model_id"]: c["outputs"] for c in result.report["candidates"]}
        assert outs["leaky"] is not None and outs["clean"] is None

    def test_evaluation_block_with_refs(self, duet_setup, tmp_path):
        pa, pb = duet_setup["refs"]
        result = separate_song(duet_setup["song"],
                               registry_load(duet_setup["registry"]),
                               stage1_id="stage1-pass", out_dir=tmp_path / "out",
                               refs=(pa, pb))
        mean = result.report["evaluation"]["mean"]
        # clean oracle returns the references themselves
        assert mean["si_snr_db"] == SENTINEL_DB

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
        registry, marker = marker_setup
        models = registry_load(registry)
        with pytest.raises(ValueError, match="cents"):
            separate_song(duet_setup["song"], models, stage1_id="stage1-pass",
                          out_dir=tmp_path / "out", model=model, units="cents")
        candidates = [m for m in models if m.backend.stage == STAGE2]
        with pytest.raises(ValueError, match="cents"):
            select_model(duet_setup["mix"], candidates, workdir=tmp_path,
                         units="cents")
        assert not marker.exists()


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

    def test_semitone_units(self, tmp_path, capsys):
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
            rc = cli.main([
                "separate", str(song), "--registry", str(registry),
                "--stage1", "stage1-pass", "--out", str(tmp_path / units),
                "--seed", "3", "--units", units])
            assert rc == 0
            assert f"chosen model: {chosen}" in capsys.readouterr().out

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


def swap_stage1(setup, tmp_path, command):
    """setup's registry with its stage-1 entry replaced by an external command."""
    entries = json.loads(setup["registry"].read_text())
    entries[0] = {"model_id": "stage1-pass", "stage": STAGE1, "command": command}
    return write_registry(tmp_path / "stage1-registry.json", entries)


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

    def test_stage1_that_cannot_start_exits_3(self, duet_setup, tmp_path, capsys):
        registry = swap_stage1(duet_setup, tmp_path,
                               f"{tmp_path / 'no-such-separator'} "
                               "{input} {out_vocal} {out_accomp}")
        rc = cli.main(separate_argv(duet_setup, tmp_path / "out", registry=registry))
        err = capsys.readouterr().err
        assert_clean_exit(rc, err, 3)
        assert "could not start" in err

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
            return SimpleNamespace(report={
                "chosen": "clean", "selection_bypassed": False,
                "candidates": [], "evaluation": None})

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
        ("--segment-seconds", "inf"),
        ("--snr", "-inf:inf"),
        ("--snr", "inf:inf"),
        ("--snr", "5:-5"),
        ("--ratios", "nan,0.5,0.5"),
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, flag, value):
        manifest = write_toy_stems(tmp_path, n_singers=3, seconds=2.0)
        out = tmp_path / "ds"
        rc = cli.main(["build-dataset", "--manifest", str(manifest),
                       "--scheme", "duet", "--out", str(out), "--seed", "1",
                       f"{flag}={value}"])
        assert_clean_exit(rc, capsys.readouterr().err, 2)
        assert not (out / "dataset.json").exists()

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
            return SimpleNamespace(report={
                "chosen": "clean", "selection_bypassed": False,
                "candidates": [], "evaluation": None})

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
