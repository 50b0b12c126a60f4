import json
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from singersep import synth
from singersep.audio import quantize_pcm16, read_wav
from singersep.backends import (
    KIND_EXTERNAL,
    KIND_ORACLE,
    KIND_PASSTHROUGH,
    STAGE1,
    STAGE2,
    STDERR_TAIL,
    OracleSpec,
    SeparationBackend,
    registry_load,
    run_backend,
)
from singersep.errors import (
    BackendFailureError,
    ContractViolationError,
    DuplicateModelIdError,
    MalformedRegistryError,
)
from singersep.metrics import si_snr

# stdlib-only so each subprocess starts fast, like a real external tool
STUB = textwrap.dedent("""\
    import sys, wave

    mode, inp, out_a, out_b = sys.argv[1:5]
    with wave.open(inp, "rb") as fh:
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    if mode == "fail":
        print("stub blew up", file=sys.stderr)
        sys.exit(3)
    if mode == "missing":
        sys.exit(0)
    if mode == "short":
        raw = raw[:-10]
    if mode == "offbyone":
        raw = raw[:-2]
    if mode == "onelong":
        raw = raw + raw[-2:]
    if mode == "wrongrate":
        rate = 4000
    for path, frames in ((out_a, raw), (out_b, b"\\x00" * len(raw))):
        with wave.open(path, "wb") as out:
            out.setnchannels(1)
            out.setsampwidth(2)
            out.setframerate(rate)
            out.writeframes(frames)
""")


@pytest.fixture
def stub_cmd(tmp_path):
    script = tmp_path / "stub.py"
    script.write_text(STUB)

    def _cmd(mode, stage=STAGE2):
        slots = "{input} {out_a} {out_b}" if stage == STAGE2 \
            else "{input} {out_vocal} {out_accomp}"
        return SeparationBackend(
            kind=KIND_EXTERNAL, stage=stage,
            command=f"{sys.executable} {script} {mode} {slots}")

    return _cmd


class TestOracle:
    def test_identity_bits(self, tmp_wav):
        ref_a = synth.vibrato_sine(220.0, 1.0)
        ref_b = synth.vibrato_sine(330.0, 1.0)
        pa, pb = tmp_wav(ref_a), tmp_wav(ref_b)
        backend = SeparationBackend(kind=KIND_ORACLE, stage=STAGE2,
                                    oracle=OracleSpec(str(pa), str(pb)))
        out_a, out_b = run_backend(backend, read_wav(pa))
        np.testing.assert_array_equal(out_a.samples, read_wav(pa).samples)
        np.testing.assert_array_equal(out_b.samples, read_wav(pb).samples)

    def test_swap_exchanges_channels(self, tmp_wav):
        pa = tmp_wav(synth.sine(220.0, 1.0))
        pb = tmp_wav(synth.sine(330.0, 1.0))
        backend = SeparationBackend(kind=KIND_ORACLE, stage=STAGE2,
                                    oracle=OracleSpec(str(pa), str(pb), swap=True))
        out_a, out_b = run_backend(backend, read_wav(pa))
        np.testing.assert_array_equal(out_a.samples, read_wav(pb).samples)
        np.testing.assert_array_equal(out_b.samples, read_wav(pa).samples)

    @pytest.mark.parametrize("leak", [0.1, 0.25, 0.4])
    def test_leak_si_snr_matches_closed_form(self, tmp_wav, leak):
        rng = np.random.default_rng(21)
        ref_a = synth.vibrato_sine(200.0, 1.0, depth_hz=4.0)
        ref_b = synth.white_noise(1.0, amplitude=0.5, seed=8)
        pa, pb = tmp_wav(ref_a), tmp_wav(ref_b)
        backend = SeparationBackend(kind=KIND_ORACLE, stage=STAGE2,
                                    oracle=OracleSpec(str(pa), str(pb), leak=leak))
        out_a, _ = run_backend(backend, read_wav(pa))

        # closed form from leak and the (quantized) references
        a = read_wav(pa).samples
        b = read_wav(pb).samples
        a = a - a.mean()
        b = b - b.mean()
        est = (1 - leak) * a + leak * b
        est = est - est.mean()
        c = np.dot(est, a) / np.dot(a, a)
        resid = est - c * a
        expected = 10 * np.log10(c ** 2 * np.dot(a, a) / np.dot(resid, resid))
        assert si_snr(read_wav(pa), out_a) == pytest.approx(expected, abs=1e-9)

    def test_noise_corrupts_at_requested_level(self, tmp_wav):
        pa = tmp_wav(synth.vibrato_sine(220.0, 2.0))
        pb = tmp_wav(synth.vibrato_sine(330.0, 2.0))
        backend = SeparationBackend(
            kind=KIND_ORACLE, stage=STAGE2,
            oracle=OracleSpec(str(pa), str(pb), noise_snr_db=20.0, noise_seed=5))
        out_a, _ = run_backend(backend, read_wav(pa))
        got = si_snr(read_wav(pa), out_a)
        assert 17.0 < got < 23.0

    def test_bad_leak_rejected(self):
        with pytest.raises(MalformedRegistryError):
            OracleSpec("a.wav", "b.wav", leak=0.5)

    @pytest.mark.parametrize("oracle", [None, {"ref_a": "a.wav", "ref_b": "b.wav"}],
                             ids=["missing", "dict"])
    def test_direct_construction_needs_a_spec(self, oracle):
        with pytest.raises(MalformedRegistryError,
                           match="oracle kind needs an oracle object"):
            SeparationBackend(kind=KIND_ORACLE, stage=STAGE2, oracle=oracle)

    def test_references_of_different_lengths_fail(self, tmp_wav):
        pa = tmp_wav(synth.sine(220.0, 1.0))
        pb = tmp_wav(synth.sine(330.0, 0.5))
        backend = SeparationBackend(kind=KIND_ORACLE, stage=STAGE2,
                                    oracle=OracleSpec(str(pa), str(pb)))
        with pytest.raises(BackendFailureError, match="disagree in length or rate"):
            run_backend(backend, read_wav(pa))


class TestPassthrough:
    def test_input_and_silence(self):
        w = synth.vibrato_sine(260.0, 1.0)
        backend = SeparationBackend(kind=KIND_PASSTHROUGH, stage=STAGE1)
        vocal, accomp = run_backend(backend, w)
        np.testing.assert_array_equal(vocal.samples, w.samples)
        assert not accomp.samples.any()
        assert np.array_equal(vocal.samples + accomp.samples, w.samples)


class TestExternalCommand:
    def test_ok_stage2(self, stub_cmd, tmp_path):
        w = synth.sine(250.0, 0.5)
        out_a, out_b = run_backend(stub_cmd("ok"), w, workdir=tmp_path)
        assert len(out_a) == len(w)
        assert np.max(np.abs(out_a.samples - w.samples)) <= 2 ** -15
        assert not out_b.samples.any()

    def test_ok_stage1_slots(self, stub_cmd, tmp_path):
        w = synth.sine(250.0, 0.5)
        vocal, accomp = run_backend(stub_cmd("ok", stage=STAGE1), w,
                                    workdir=tmp_path)
        assert len(vocal) == len(w)

    def test_nonzero_exit_carries_stderr(self, stub_cmd, tmp_path):
        with pytest.raises(BackendFailureError, match="stub blew up"):
            run_backend(stub_cmd("fail"), synth.sine(250.0, 0.5), workdir=tmp_path)

    def test_stderr_cut_to_its_tail(self, tmp_path):
        backend = SeparationBackend(kind=KIND_EXTERNAL, stage=STAGE2, command=(
            f'{sys.executable} -c "import sys; '
            "sys.stderr.write('x' * 2 ** 20 + 'last words'); sys.exit(1)\" "
            "{input} {out_a} {out_b}"))
        with pytest.raises(BackendFailureError) as exc:
            run_backend(backend, synth.sine(250.0, 0.5), workdir=tmp_path)
        stderr = str(exc.value).split("\nstderr: ", 1)[1]
        assert len(stderr) == STDERR_TAIL
        assert stderr.endswith("x" * 100 + "last words")

    @pytest.mark.parametrize("program", ["missing", "no-shebang"])
    def test_command_that_cannot_start(self, tmp_path, program):
        exe = tmp_path / program
        if program == "no-shebang":
            exe.write_text("echo separated\n")
            exe.chmod(0o755)  # executable, but not a format the kernel runs
        backend = SeparationBackend(kind=KIND_EXTERNAL, stage=STAGE2,
                                    command=f"{exe} {{input}} {{out_a}} {{out_b}}")
        with pytest.raises(BackendFailureError, match="could not start"):
            run_backend(backend, synth.sine(250.0, 0.5), workdir=tmp_path)

    def test_output_that_is_not_a_wav(self, tmp_path):
        write_text = ('import sys; [open(p, "w").write("not audio") for p in sys.argv[1:]]')
        backend = SeparationBackend(
            kind=KIND_EXTERNAL, stage=STAGE2,
            command=f"{sys.executable} -c '{write_text}' {{out_a}} {{out_b}} {{input}}")
        with pytest.raises(BackendFailureError,
                           match="unreadable out_a output: .*not a RIFF/WAVE file"):
            run_backend(backend, synth.sine(220.0, 0.1), workdir=tmp_path)

    def test_missing_output_file(self, stub_cmd, tmp_path):
        with pytest.raises(BackendFailureError, match="out_a"):
            run_backend(stub_cmd("missing"), synth.sine(250.0, 0.5),
                        workdir=tmp_path)

    def test_length_off_by_five_rejected(self, stub_cmd, tmp_path):
        with pytest.raises(ContractViolationError):
            run_backend(stub_cmd("short"), synth.sine(250.0, 0.5), workdir=tmp_path)

    def test_length_off_by_one_padded(self, stub_cmd, tmp_path):
        w = synth.sine(250.0, 0.5)
        out_a, out_b = run_backend(stub_cmd("offbyone"), w, workdir=tmp_path)
        assert len(out_a) == len(w)
        assert out_a.samples[-1] == 0.0  # zero-padded tail

    def test_length_one_over_trimmed(self, stub_cmd, tmp_path):
        w = synth.sine(250.0, 0.5)
        out_a, _ = run_backend(stub_cmd("onelong"), w, workdir=tmp_path)
        np.testing.assert_array_equal(out_a.samples, quantize_pcm16(w.samples))

    def test_rate_mismatch_rejected(self, stub_cmd, tmp_path):
        with pytest.raises(ContractViolationError):
            run_backend(stub_cmd("wrongrate"), synth.sine(250.0, 0.5),
                        workdir=tmp_path)

    def test_paths_with_spaces(self, stub_cmd, tmp_path):
        w = synth.sine(250.0, 0.5)
        out_a, _ = run_backend(stub_cmd("ok"), w, workdir=tmp_path / "with space")
        assert len(out_a) == len(w)

    def test_parallel_runs_do_not_collide(self, stub_cmd, tmp_path):
        w = synth.sine(199.0, 0.5)
        backend = stub_cmd("ok")

        def one_run(_):
            out_a, _ = run_backend(backend, w, workdir=tmp_path)
            return float(np.max(np.abs(out_a.samples - w.samples)))

        with ThreadPoolExecutor(max_workers=8) as pool:
            errors = list(pool.map(one_run, range(16)))
        assert all(e <= 2 ** -15 for e in errors)


class TestRegistry:
    def test_three_models(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([
            {"model_id": "en-duet", "stage": STAGE2, "command": "run-en {input} {out_a} {out_b}"},
            {"model_id": "ch-duet", "stage": STAGE2, "command": "run-ch {input} {out_a} {out_b}"},
            {"model_id": "en-self", "stage": STAGE2, "command": "run-es {input} {out_a} {out_b}"},
        ]))
        models = registry_load(path)
        assert [m.model_id for m in models] == ["en-duet", "ch-duet", "en-self"]
        assert all(m.backend.kind == KIND_EXTERNAL for m in models)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([
            {"model_id": "m", "stage": STAGE2, "command": "x {input} {out_a} {out_b}"},
            {"model_id": "m", "stage": STAGE2, "command": "y {input} {out_a} {out_b}"},
        ]))
        with pytest.raises(DuplicateModelIdError):
            registry_load(path)

    def test_empty_list_is_valid(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text("[]")
        assert registry_load(path) == []

    def test_wrapped_object_form(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({
            "schema": "mir-ss-registry/1",
            "models": [{"model_id": "p", "stage": STAGE1, "kind": "passthrough"}],
        }))
        models = registry_load(path)
        assert models[0].backend.kind == KIND_PASSTHROUGH

    def test_oracle_entry(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([{
            "model_id": "o", "stage": STAGE2, "kind": "oracle",
            "oracle": {"ref_a": "a.wav", "ref_b": "b.wav", "leak": 0.2},
        }]))
        models = registry_load(path)
        assert models[0].backend.oracle.leak == 0.2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text("{not json")
        with pytest.raises(MalformedRegistryError):
            registry_load(path)

    def test_bad_stage(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([
            {"model_id": "m", "stage": "stage3", "command": "x"}]))
        with pytest.raises(MalformedRegistryError):
            registry_load(path)

    @pytest.mark.parametrize("stage, command", [
        (STAGE2, "run {input} {out_a} {oops}"),
        (STAGE2, "run {input {out_a} {out_b}"),
        (STAGE2, "run {input} {out_a} {out_b}}"),
        (STAGE2, "run {} {out_a} {out_b}"),
        (STAGE2, "run {input!r} {out_a} {out_b}"),
        (STAGE2, "run '{input} {out_a} {out_b}"),
        (STAGE1, "run {input} {out_a} {out_b}"),
    ])
    def test_bad_command_template(self, tmp_path, stage, command):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([
            {"model_id": "m", "stage": stage, "command": command}]))
        with pytest.raises(MalformedRegistryError):
            registry_load(path)

    @pytest.mark.parametrize("doc, message", [
        ({"schema": "mir-ss-registry/2", "models": []},
         "unknown schema 'mir-ss-registry/2'"),
        ({"models": {"m": {"stage": STAGE2}}}, "registry must be a list of entries"),
        (["m"], "entry 0 is not an object"),
        ([{"model_id": "o", "stage": STAGE2, "kind": KIND_ORACLE}],
         "entry 0 ('o'): oracle kind needs an oracle object"),
        ([{"model_id": "o", "stage": STAGE2, "kind": KIND_ORACLE,
           "oracle": ["a.wav", "b.wav"]}],
         "entry 0 ('o'): oracle kind needs an oracle object"),
        ([{"model_id": "o", "stage": STAGE2, "kind": KIND_ORACLE,
           "oracle": {"ref_a": "a.wav", "ref_b": "b.wav", "gain": 2}}],
         "unexpected keyword argument 'gain'"),
        ([{"model_id": "m", "stage": STAGE2, "kind": "neural"}],
         "entry 0 ('m'): unknown backend kind 'neural'"),
        ([{"model_id": "m", "stage": STAGE2}],
         "entry 0 ('m'): external_command backend needs a command"),
    ], ids=["schema", "models-not-list", "entry-not-object", "oracle-missing",
            "oracle-not-object", "oracle-unknown-key", "kind", "command-missing"])
    def test_malformed_document(self, tmp_path, doc, message):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedRegistryError) as excinfo:
            registry_load(path)
        assert message in str(excinfo.value)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps([{"stage": STAGE2}]))
        with pytest.raises(MalformedRegistryError):
            registry_load(path)
