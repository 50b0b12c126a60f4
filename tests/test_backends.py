import contextlib
import json
import os
import re
import shlex
import shutil
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from singersep import backends, synth
from singersep.audio import BLOCK_SAMPLES, CANONICAL_RATE, quantize_pcm16, read_wav
from singersep.backends import (
    KIND_EXTERNAL,
    KIND_ORACLE,
    KIND_PASSTHROUGH,
    STAGE1,
    STAGE2,
    STDERR_TAIL,
    CandidateModel,
    OracleSpec,
    SeparationBackend,
    _reconcile,
    registry_load,
    run_backend,
)
from singersep.errors import (
    BackendFailureError,
    ContractViolationError,
    DuplicateModelIdError,
    MalformedRegistryError,
)
from singersep.dataset import mix_at_snr
from singersep.metrics import si_snr
from singersep.selection import select_model

from conftest import make_duet_refs, oracle_candidate, run_capped, white_noise

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
    if mode == "tenfold":
        raw = raw * 10
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
        ref_b = white_noise(1.0, amplitude=0.5, seed=8)
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

    @pytest.mark.parametrize("snr_db", [-90.0, 90])
    def test_noise_at_the_bound_runs(self, tmp_wav, snr_db):
        pa = tmp_wav(synth.vibrato_sine(220.0, 1.0))
        pb = tmp_wav(synth.vibrato_sine(330.0, 1.0))
        backend = SeparationBackend(
            kind=KIND_ORACLE, stage=STAGE2,
            oracle=OracleSpec(str(pa), str(pb), noise_snr_db=snr_db))
        out_a, out_b = run_backend(backend, read_wav(pa))
        assert out_a.peak() <= 1.0 and out_b.peak() <= 1.0

    @pytest.mark.parametrize("oracle", [None, {"ref_a": "a.wav", "ref_b": "b.wav"}],
                             ids=["missing", "dict"])
    def test_direct_construction_needs_a_spec(self, oracle):
        with pytest.raises(MalformedRegistryError,
                           match="oracle kind needs an oracle object"):
            SeparationBackend(kind=KIND_ORACLE, stage=STAGE2, oracle=oracle)

    @pytest.mark.parametrize("leak", [0.0, 0.3])
    @pytest.mark.parametrize("snr_db", [None, -10.0, 20.0])
    @pytest.mark.parametrize("swap", [False, True])
    def test_bits_equal_the_plain_expressions(self, tmp_wav, leak, snr_db, swap):
        # two whole mixing blocks and part of a third
        seconds = 2.5 * BLOCK_SAMPLES / CANONICAL_RATE
        pa = tmp_wav(white_noise(seconds, amplitude=0.6, seed=1))
        pb = tmp_wav(white_noise(seconds, amplitude=0.6, seed=2))
        backend = SeparationBackend(kind=KIND_ORACLE, stage=STAGE2, oracle=OracleSpec(
            str(pa), str(pb), swap=swap, leak=leak, noise_snr_db=snr_db, noise_seed=4))
        got = run_backend(backend, read_wav(pa))

        a, b = read_wav(pa).samples, read_wav(pb).samples
        want = [(1.0 - leak) * a + leak * b, (1.0 - leak) * b + leak * a]
        if snr_db is not None:
            rng = np.random.default_rng(4)
            for out in want:
                noise = rng.standard_normal(out.size)
                out += noise * np.sqrt(np.mean(out ** 2) / 10 ** (snr_db / 10)
                                       / np.mean(noise ** 2))
        if swap:
            want.reverse()
        for out, expected in zip(got, want):
            assert out.samples.tobytes() == np.clip(expected, -1.0, 1.0).tobytes()

    @pytest.mark.parametrize("snr_db, lengths", [(None, 2), (20.0, 4)])
    def test_leaky_call_peaks_at_two_channel_lengths_four_with_noise(
            self, tmp_wav, snr_db, lengths):
        pa = tmp_wav(white_noise(20.0, amplitude=0.6, seed=1))
        pb = tmp_wav(white_noise(20.0, amplitude=0.6, seed=2))
        backend = SeparationBackend(kind=KIND_ORACLE, stage=STAGE2, oracle=OracleSpec(
            str(pa), str(pb), leak=0.3, noise_snr_db=snr_db))
        song = read_wav(pa)
        tracemalloc.start()
        try:
            run_backend(backend, song)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two references, mixed into in place, plus the noise and its
        # squares; the mix and the noise through temporaries took six
        assert peak <= lengths * song.samples.nbytes + 2 ** 20

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


class TestReconcile:
    def test_exact_length_output_returned_as_it_is(self):
        w = synth.sine(250.0, 0.5)
        out = synth.sine(330.0, 0.5)
        assert _reconcile(out, w, "channel A") is out


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

    def test_interrupt_removes_the_scratch(self, stub_cmd, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(backends.subprocess, "run", interrupted)
        workdir = tmp_path / "work"
        with pytest.raises(KeyboardInterrupt):
            run_backend(stub_cmd("ok"), synth.sine(250.0, 0.5), workdir=workdir)
        assert list(workdir.iterdir()) == []

    def test_parallel_runs_do_not_collide(self, stub_cmd, tmp_path):
        w = synth.sine(199.0, 0.5)
        backend = stub_cmd("ok")

        def one_run(_):
            out_a, _ = run_backend(backend, w, workdir=tmp_path)
            return float(np.max(np.abs(out_a.samples - w.samples)))

        with ThreadPoolExecutor(max_workers=8) as pool:
            errors = list(pool.map(one_run, range(16)))
        assert all(e <= 2 ** -15 for e in errors)


def _outputs_made_by(code: str) -> SeparationBackend:
    """An external stage-2 command that exits 0 after running ``code`` with
    its two output paths as ``sys.argv[1:]``."""
    return SeparationBackend(
        kind=KIND_EXTERNAL, stage=STAGE2,
        command=f"{sys.executable} -c 'import os, sys; {code}' {{out_a}} {{out_b}}")


def _timed_on_a_thread(fn, under):
    """fn()'s result (or the exception it raised) and its seconds, run on a
    daemon thread for at most 10 s. A read left blocked on a FIFO under
    ``under`` is then let go: opening each FIFO to write lets it return."""
    result = {}

    def run():
        start = time.monotonic()
        try:
            result["value"] = fn()
        except Exception as exc:
            result["value"] = exc
        result["seconds"] = time.monotonic() - start

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(10)
    if thread.is_alive():
        for path in under.rglob("*"):
            if path.is_fifo():
                with contextlib.suppress(OSError):
                    os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        pytest.fail("the run waited on a FIFO")
    return result["value"], result["seconds"]


# Runs the stage-2 command sys.argv[1] on a 0.5 s sine under tracemalloc,
# in a capped process (run_capped); prints its error and its traced peak.
_TRACED_RUN = """
import json, sys, tracemalloc
from singersep import synth
from singersep.backends import STAGE2, KIND_EXTERNAL, SeparationBackend, run_backend
backend = SeparationBackend(kind=KIND_EXTERNAL, stage=STAGE2, command=sys.argv[1])
tracemalloc.start()
try:
    run_backend(backend, synth.sine(250.0, 0.5), workdir=sys.argv[2])
    error = None
except Exception as exc:
    error = f"{type(exc).__name__}: {exc}"
print(json.dumps({"error": error, "peak": tracemalloc.get_traced_memory()[1]}))
"""


class TestUntrustedOutputs:
    """An external command's outputs are read only as bounded regular files."""

    def test_fifo_outputs_excluded_within_1s(self, tmp_path):
        fifos = _outputs_made_by("[os.mkfifo(p) for p in sys.argv[1:]]")
        exc, seconds = _timed_on_a_thread(
            lambda: run_backend(fifos, synth.sine(250.0, 0.5), workdir=tmp_path),
            tmp_path)
        assert isinstance(exc, BackendFailureError)
        assert "unreadable out_a output: MalformedWavError: " in str(exc)
        assert str(exc).endswith("out_a.wav: not a regular file")
        assert seconds < 1.0

    def test_fifo_candidate_loses_to_another(self, tmp_path):
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=2, seconds=2.0)
        mix = mix_at_snr(ref_a, ref_b, 0.0).mixture
        candidates = [CandidateModel("fifo", _outputs_made_by(
                          "[os.mkfifo(p) for p in sys.argv[1:]]")),
                      oracle_candidate("clean", pa, pb)]
        result, _ = _timed_on_a_thread(
            lambda: select_model(mix, candidates, workdir=tmp_path / "work"), tmp_path)
        assert result.chosen == "clean"
        fifo = result.scores[0]
        assert (fifo.model_id, fifo.reason) == ("fifo", "backend_failed")
        assert "not a regular file" in fifo.error

    def test_dev_zero_outputs_excluded_under_1mb_traced(self, tmp_path):
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero")
        zeros = _outputs_made_by('[os.symlink("/dev/zero", p) for p in sys.argv[1:]]')
        result = run_capped(_TRACED_RUN, zeros.command, tmp_path)
        assert result["error"].startswith("BackendFailureError: unreadable out_a output")
        assert result["error"].endswith("out_a.wav: not a regular file")
        assert result["peak"] < 1_000_000

    def test_stderr_fifo_excluded_within_1s(self, tmp_path):
        fifo_stderr = SeparationBackend(kind=KIND_EXTERNAL, stage=STAGE2, command=(
            f"{sys.executable} -c 'import os, sys; "
            'p = os.path.join(os.path.dirname(sys.argv[1]), "stderr.txt"); '
            "os.remove(p); os.mkfifo(p); sys.exit(1)' {out_a} {out_b}"))
        exc, seconds = _timed_on_a_thread(
            lambda: run_backend(fifo_stderr, synth.sine(250.0, 0.5), workdir=tmp_path),
            tmp_path)
        assert isinstance(exc, BackendFailureError)
        assert seconds < 1.0
        cmd, stderr = str(exc).split("\nstderr: ")
        assert cmd.startswith(f"command exited 1: {shlex.quote(sys.executable)} -c ")
        assert stderr.endswith("stderr.txt: not a regular file")
        # and selection excludes the candidate
        (ref_a, pa), (ref_b, pb) = make_duet_refs(tmp_path, seed=2, seconds=2.0)
        candidates = [CandidateModel("fifo-stderr", fifo_stderr),
                      oracle_candidate("clean", pa, pb)]
        result, _ = _timed_on_a_thread(
            lambda: select_model(mix_at_snr(ref_a, ref_b, 0.0).mixture, candidates,
                                 workdir=tmp_path / "work"), tmp_path)
        failed = result.scores[0]
        assert (failed.model_id, failed.reason) == ("fifo-stderr", "backend_failed")
        assert failed.error.startswith("command exited 1: ")

    def test_64mib_stderr_cut_under_1mb_traced(self, tmp_path):
        command = (f"{sys.executable} -c 'import sys; "
                   '[sys.stderr.write("x" * 2 ** 20) for _ in range(64)]; '
                   'sys.stderr.write("last words"); sys.exit(1)\' {input} {out_a} {out_b}')
        result = run_capped(_TRACED_RUN, command, tmp_path)
        for scratch in tmp_path.glob("backend-*"):  # its 64 MiB stderr.txt
            shutil.rmtree(scratch)
        assert result["error"].startswith("BackendFailureError: command exited 1: ")
        stderr = result["error"].split("\nstderr: ", 1)[1]
        assert len(stderr) == STDERR_TAIL
        assert stderr.endswith("x" * 100 + "last words")
        assert result["peak"] < 1_000_000

    def test_output_of_ten_times_the_input_excluded_unread(self, stub_cmd, tmp_path):
        w = synth.sine(250.0, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(BackendFailureError, match=re.escape(
                    "80000 frames, more than the 8001 allowed")):
                run_backend(stub_cmd("tenfold"), w, workdir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # decoded, the output's samples alone would take 640 KB
        assert peak < 8 * len(w) * 10 / 2

    def test_error_without_a_message_names_its_type(self, stub_cmd, tmp_path,
                                                    monkeypatch):
        def out_of_memory(path, max_frames=None):
            raise MemoryError()

        monkeypatch.setattr(backends, "read_wav", out_of_memory)
        with pytest.raises(BackendFailureError) as exc:
            run_backend(stub_cmd("ok"), synth.sine(250.0, 0.5), workdir=tmp_path)
        assert str(exc.value) == "unreadable out_a output: MemoryError: "


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
        *(([{"model_id": "m", "stage": STAGE2, "command": command}],
           f"entry 0 ('m'): bad command template {command!r}: it must split into "
           "at least one argument, none holding a NUL")
          for command in (" ", "\t\n", "run\0 {input} {out_a} {out_b}",
                          "run '{input}\0' {out_a} {out_b}")),
    ], ids=["schema", "models-not-list", "entry-not-object", "oracle-missing",
            "oracle-not-object", "oracle-unknown-key", "kind", "command-missing",
            "command-blank", "command-whitespace", "command-nul", "command-quoted-nul"])
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
