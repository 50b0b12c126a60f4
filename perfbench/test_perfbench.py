"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``.

They use fixtures far smaller than the timed ones; the per-operation
counts they check depend on the workload's structure, not its size.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads as wl

assert wl.add_src_path()

BENCH = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def traced_ops(workload, fixtures, work, n=2):
    """Run n traced operations; return each one's layer metrics."""
    t = tracer.Tracer()
    main = wl.cli_main()

    def call(argv):
        with t.installed():
            return t.call("cli.main", wl.run_cli, argv, main)

    bench = run.Workload(workload, {"timed": fixtures}, work)
    ops = []
    for _ in range(n):
        _, summary = bench.run("timed", call)
        assert "exit" not in summary, summary
        ops.append(tracer.layer_metrics(t.take()))
    return ops


def counts(metrics):
    return {k: v for k, v in metrics.items() if run.is_count(k)}


@pytest.fixture
def song(tmp_path):
    return wl.make_song(tmp_path / "fx", seed=5, seconds=3)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in BENCH["per_layer"])


def test_select_counts_repeat_per_op(song, tmp_path):
    ops = traced_ops("separate-select", song, tmp_path / "work")
    assert counts(ops[0]) == counts(ops[1])
    m = ops[0]
    assert m["pitch.track_pitch.calls"] == 2 * len(wl.CANDIDATES)
    assert m["selection.trend_distance.calls"] == len(wl.CANDIDATES)
    assert m["backends.run_backend.calls"] == 1 + len(wl.CANDIDATES)
    assert m["backends.external.calls"] == 1
    assert m["backends.passthrough.calls"] == 1
    assert m["backends.failed"] == 0
    # worker-thread spans attach to select_model, so its self time is small
    assert m["selection.select_model.self_s"] < 0.5 * m["selection.select_model.wall_s"]
    assert m["pitch.track_pitch.s"] >= m["pitch.track_pitch.wall_s"]


def test_roundtrip_reads_five_and_writes_three_per_pair(tmp_path):
    fx = wl.make_corpus(tmp_path / "fx", seed=5, singers=8, stem_seconds=10, repeats=1)
    ops = traced_ops("dataset-roundtrip", fx, tmp_path / "work")
    assert counts(ops[0]) == counts(ops[1])
    m, pairs = ops[0], fx["pairs"]
    assert m["audio.read_wav.calls"] == fx["stems"] + 5 * pairs
    assert m["audio.write_wav.calls"] == 3 * pairs
    assert m["metrics.pit_evaluate.calls"] == pairs
    assert m["metrics.si_snr.calls"] == 10 * pairs
    assert m.get("pitch.track_pitch.calls", 0) == 0


def test_installed_restores_every_site():
    from singersep import cli, pipeline, selection

    before = (pipeline.read_wav, selection.track_pitch, cli.ThreadPoolExecutor)
    with tracer.Tracer().installed():
        assert pipeline.read_wav is not before[0]
        assert cli.ThreadPoolExecutor is not before[2]
    assert (pipeline.read_wav, selection.track_pitch, cli.ThreadPoolExecutor) == before


def test_pool_spans_attach_to_submitter_and_self_time_uses_unions():
    t = tracer.Tracer()

    def child():
        return t.call("child", time.sleep, 0.05)

    def parent():
        with tracer._ContextExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: child(), range(2)))

    t.call("parent", parent)
    spans = t.take()
    parent_span = next(s for s in spans if s.name == "parent")
    assert all(s.parent == parent_span.span_id for s in spans if s.name == "child")
    m = tracer.layer_metrics(spans)
    assert m["child.calls"] == 2
    assert m["child.s"] > 1.5 * m["child.wall_s"]  # the two ran concurrently
    assert m["parent.self_s"] == pytest.approx(m["parent.wall_s"] - m["child.wall_s"])


def test_interval_arithmetic():
    merged = tracer.union([(3, 4), (0, 2), (1, 2.5)])
    assert merged == [(0, 2.5), (3, 4)]
    assert tracer.length(merged) == 3.5
    assert tracer.overlap(merged, [(2, 3.5)]) == 1.0


def stat_lines(monkeypatch, *lines):
    lines = iter(lines)
    monkeypatch.setattr(run, "_stat_line", lambda: next(lines))


def test_stopwatch_removes_the_stolen_share(monkeypatch):
    # fields: user nice system idle iowait irq softirq steal; 50 of 200 busy ticks stolen
    stat_lines(monkeypatch, "cpu  1000 0 0 500 20 0 0 10 0 0",
               "cpu  1150 0 0 500 20 0 0 60 0 0")
    with run.Stopwatch() as sw:
        time.sleep(0.01)
    assert sw.net == pytest.approx(0.75 * sw.wall)


def test_stopwatch_ignores_an_idle_cpu(monkeypatch):
    # One thread on one of two vCPUs: that vCPU runs 80 ticks and loses
    # 20 to steal while the other idles 100; the thread lost 20%, not 10%.
    stat_lines(monkeypatch, "cpu  1000 0 0 5000 7 0 0 40 0 0",
               "cpu  1080 0 0 5100 7 0 0 60 0 0")
    with run.Stopwatch() as sw:
        time.sleep(0.01)
    assert sw.net == pytest.approx(0.8 * sw.wall)


def test_stopwatch_without_steal_accounting(monkeypatch):
    stat_lines(monkeypatch, "", "")
    with run.Stopwatch() as sw:
        time.sleep(0.01)
    assert sw.net == sw.wall


def test_peak_rss_op_matches_the_in_process_op(song, tmp_path):
    bench = run.Workload("separate-select", {"timed": song}, tmp_path / "work")
    _, in_process = bench.run("timed", wl.run_cli)
    block = b"\x01" * (200 * 2**20)  # the child's peak must not include this process's
    peak, fresh = bench.peak_rss("timed")
    del block
    assert fresh == in_process
    assert 30 < peak["peak_rss_mb"] < 200  # at least the interpreter with numpy and scipy


def test_fixtures_depend_only_on_seed(tmp_path):
    def digest(seed, where):
        wl.make_fixtures("dataset-roundtrip", seed, where)
        return [p.read_bytes() for p in sorted(where.rglob("*.wav"))]

    assert digest(3, tmp_path / "a") == digest(3, tmp_path / "b")
    assert digest(3, tmp_path / "a") != digest(4, tmp_path / "c")


def test_fails_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload",
                           wl.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
