#!/usr/bin/env python3
"""Benchmark of the singersep CLI: two workloads, closed loop, one client.

    python3 perfbench/run.py --workload separate-select --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it builds nothing (the program is Python
under ``src/``) and works in ``.perfbench_work/``, which it removes again.

One run:

1. Set-up, repeated ``SETUP_REPEATS`` times in fresh interpreters:
   import the program, synthesize the fixtures for ``--seed`` and the
   default-seed check fixture, write the registry. ``setup_s`` is the
   median time.
2. A warm-up operation on the check fixture, whose outputs must match
   ``reference.json`` (1e-9 relative; the dataset digest exactly).
3. Operations one after another for ``--seconds`` (at least ``MIN_OPS``),
   each by ``singersep.cli.main`` in this process with ``--jobs 2``. Every
   operation's outputs are checked; a nonzero exit or a failed check
   counts as failed.
4. With ``--trace 0``, ``RSS_OPS`` more (untimed, checked) operations,
   each in a fresh interpreter; ``peak_rss_mb`` is the median of their
   peak resident set sizes (see ``Workload.peak_rss``).

Times in the end-to-end metrics are wall times net of hypervisor steal
(see ``Stopwatch``); the plain wall-time median is printed beside them.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
every other operation runs under the outside-in tracer (``tracer.py``)
and it reports per-layer metrics, the medians over traced operations,
plus ``trace.overhead_s`` (traced minus untraced median operation time).
The last line of stdout is the JSON result. The lines before it give the
run environment (git SHA when there is one, a digest of ``src/``, CPU
count, Python/numpy/scipy versions), the failed/attempted ratio and a
table of the metrics, with the time per operation also shown under the
workload's own name (``separate_s_p50``, or ``build_pairs_per_s`` and
``eval_pairs_per_s`` for the dataset round trip).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as wl
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
MIN_OPS = 3
RSS_OPS = 3

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}

PER_LAYER = (
    "cli.main.wall_s", "cli.main.self_s", "trace.overhead_s",
    "pipeline.separate_song.wall_s", "pipeline.separate_song.self_s",
    "selection.select_model.wall_s", "selection.select_model.self_s",
    "selection.trend_distance.calls", "selection.trend_distance.s", "selection.penalized",
    "pitch.track_pitch.calls", "pitch.track_pitch.s", "pitch.track_pitch.wall_s",
    "pitch.track_pitch.frames",
    "backends.run_backend.calls", "backends.run_backend.s",
    "backends.external.calls", "backends.external.s", "backends.oracle.s",
    "backends.passthrough.s", "backends.failed",
    "audio.resample.calls", "audio.resample.s", "audio.resample.in_samples",
    "audio.read_wav.calls", "audio.read_wav.s", "audio.read_wav.mb",
    "audio.write_wav.calls", "audio.write_wav.s", "audio.write_wav.mb",
    "audio.segment.s",
    "dataset.build_dataset.wall_s", "dataset.build_dataset.self_s",
    "dataset.mix_at_snr.calls", "dataset.mix_at_snr.s", "dataset.pair_segments.s",
    "metrics.pit_evaluate.calls", "metrics.pit_evaluate.s", "metrics.pit_evaluate.wall_s",
    "metrics.si_snr.calls", "metrics.sdr.calls",
)

# Layers each workload must call (a zero there is an error), and layers it
# must not call (the prediction on a workload that bypasses them).
MUST_CALL = {
    "separate-select": ("pipeline.separate_song", "selection.select_model",
                        "pitch.track_pitch", "backends.external", "backends.oracle",
                        "backends.passthrough", "audio.resample", "audio.read_wav",
                        "audio.write_wav"),
    "dataset-roundtrip": ("dataset.build_dataset", "audio.resample", "audio.segment",
                          "audio.read_wav", "audio.write_wav", "metrics.pit_evaluate"),
}
MUST_NOT_CALL = {
    "separate-select": (),
    "dataset-roundtrip": ("pitch.track_pitch", "pipeline.separate_song"),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "MB" if name.endswith(".mb") else "count"


def is_count(name: str) -> bool:
    return layer_unit(name) != "s"


# --- timing ----------------------------------------------------------------------

def _stat_line() -> str:
    with open("/proc/stat", encoding="ascii") as fh:
        return fh.readline()


def _cpu_ticks() -> tuple[int, int]:
    """(busy ticks, steal ticks) since boot, summed over CPUs, from /proc/stat.

    Busy ticks are all ticks but idle and iowait; steal counts as busy. An
    idle vCPU accrues no steal, so the stolen share of busy ticks, not of
    all ticks, is the share taken from the CPUs that were running.
    """
    try:
        fields = [int(x) for x in _stat_line().split()[1:9]]
        return sum(fields) - fields[3] - fields[4], fields[7]
    except (OSError, ValueError, IndexError):  # no steal accounting here
        return 0, 0


class Stopwatch:
    """Wall time of a block (``wall``), and that time net of hypervisor steal (``net``).

    On a shared virtual machine the host can take the CPUs away for a
    share of the time (steal); ``net`` scales the wall time by the share
    of busy CPU time that was not stolen, so minutes when the host is busy
    do not read as a slower program. Without steal the two are equal.
    """

    def __enter__(self):
        self._ticks = _cpu_ticks()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        busy, steal = (end - start for start, end in zip(self._ticks, _cpu_ticks()))
        self.net = self.wall * (1 - steal / busy) if busy > 0 else self.wall


# --- operations ----------------------------------------------------------------

class Workload:
    """Runs one workload's operation and summarizes its outputs for checking."""

    def __init__(self, name: str, fixtures: dict, work: Path):
        self.name = name
        self.fixtures = fixtures
        self.work = work
        self.out = work / "out"

    def commands(self, role: str) -> list[list[str]]:
        """The CLI command lines of one operation on the ``role`` fixture."""
        fx = self.fixtures[role]
        if self.name != "dataset-roundtrip":
            return [wl.separate_argv(fx, self.out)]
        dataset_dir = self.out / "dataset"
        return [wl.build_argv(fx, dataset_dir),
                wl.evaluate_argv(dataset_dir, self.work / f"estimates-{role}",
                                 self.out / "evaluation.csv")]

    def run(self, role: str, call) -> tuple[dict, dict]:
        """Run one operation on the ``role`` fixture; return (times, summary)."""
        shutil.rmtree(self.out, ignore_errors=True)
        commands = self.commands(role)
        if self.name != "dataset-roundtrip":
            with Stopwatch() as op:
                code = call(commands[0])
            times = {"wall_s": op.wall, "net_s": op.net}
            return times, (self.summary(role) if code == 0 else {"exit": code})

        with Stopwatch() as build:
            code = call(commands[0])
        if code != 0:
            return {"wall_s": build.wall, "net_s": build.net}, {"exit": code}
        est_dir = self.work / f"estimates-{role}"
        if not est_dir.exists():  # once per fixture, before its first evaluate
            wl.make_estimates(self.out / "dataset", est_dir, self.fixtures[role]["seed"])
        with Stopwatch() as evaluate:
            code = call(commands[1])
        times = {"wall_s": build.wall + evaluate.wall, "net_s": build.net + evaluate.net,
                 "build_s": build.net, "eval_s": evaluate.net}
        return times, (self.summary(role) if code == 0 else {"exit": code})

    def peak_rss(self, role: str) -> tuple[dict, dict]:
        """Run one operation in a fresh interpreter; return ({"peak_rss_mb": MB}, summary).

        The peak is that process's high-water mark (see ``peak_rss.py``).
        Inside this long-running process the peak of an operation depended
        on the allocator's history: after 35 s of timed operations it was
        139-143 MB in most runs of separate-select and 154 MB in others
        (2-vCPU x86_64 virtual machine). The dataset round trip needs the
        estimates made by a timed operation before.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        proc = subprocess.run([sys.executable, str(HERE / "peak_rss.py"),
                               json.dumps(self.commands(role))],
                              capture_output=True, text=True, check=True, timeout=120)
        result = json.loads(proc.stdout.splitlines()[-1])
        code = next((c for c in result["exit"] if c != 0), 0)
        return ({"peak_rss_mb": result["peak_rss_mb"]},
                self.summary(role) if code == 0 else {"exit": code})

    def summary(self, role: str) -> dict:
        """The checked parts of the outputs of the operation that just ran."""
        if self.name != "dataset-roundtrip":
            return wl.separate_summary(self.out)
        dataset_dir, csv_path = self.out / "dataset", self.out / "evaluation.csv"
        with open(dataset_dir / "dataset.json", encoding="utf-8") as fh:
            pairs = len(json.load(fh)["pairs"])
        return {"digest": wl.dataset_digest(dataset_dir),
                "means": wl.csv_means(csv_path), "csv": csv_path.read_text(),
                "pairs": pairs, "expected_pairs": self.fixtures[role]["pairs"]}

    def problems(self, summary: dict, expected: dict | None) -> list[str]:
        if "exit" in summary:
            return [f"exit code {summary['exit']}"]
        found = wl.check_summary(self.name, summary)
        if expected is not None:
            found += wl.compare(expected, wl.reference_view(self.name, summary))
        return found


# --- set-up and environment ------------------------------------------------------

def set_up(workload: str, seed: int, work: Path) -> tuple[float, dict]:
    """Run the set-up in fresh interpreters; return (median seconds, fixtures)."""
    fx_dir = work / "fixtures"
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(fx_dir, ignore_errors=True)
        with Stopwatch() as setup:
            subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload",
                            workload, "--seed", str(seed), "--out", str(fx_dir)],
                           stdout=sys.stderr, check=True, timeout=120)
        times.append(setup.net)
    with open(fx_dir / "fixtures.json", encoding="utf-8") as fh:
        return statistics.median(times), json.load(fh)


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(wl.ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((wl.SRC / "singersep").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


# --- the run ----------------------------------------------------------------------

def measure(args) -> dict:
    """Set up, warm up, run the closed loop; return what ``report`` prints."""
    reference = json.loads(REFERENCE.read_text())
    setup_s, fixtures = set_up(args.workload, args.seed, WORK)
    main = wl.cli_main()
    workload = Workload(args.workload, fixtures, WORK)
    tracer = Tracer()

    def plain(argv):
        return wl.run_cli(argv, main)

    def traced(argv):
        with tracer.installed():
            return tracer.call("cli.main", wl.run_cli, argv, main)

    _, summary = workload.run("check", plain)
    failures = [f"check fixture: {p}"
                for p in workload.problems(summary, reference[args.workload])]
    attempted, failed = 1, int(bool(failures))

    def kinds():
        """Timed operations for --seconds (every other one traced with --trace 1),
        then, with --trace 0, the operations whose peak memory is read."""
        start, n = time.perf_counter(), 0
        while time.perf_counter() - start < args.seconds or n < MIN_OPS:
            yield "traced" if args.trace and n % 2 == 0 else "plain"
            n += 1
        if not args.trace:
            yield from ["rss"] * RSS_OPS

    ops, layers, first = [], [], None
    for kind in kinds():
        attempted += 1
        try:
            if kind == "rss":
                times, summary = workload.peak_rss("timed")
            else:
                times, summary = workload.run("timed", traced if kind == "traced" else plain)
        except Exception:  # an operation that raises counts as failed, the run goes on
            failures.append(f"op {len(ops)}: {traceback.format_exc()}")
            failed += 1
            tracer.take()
            continue
        ops.append({**times, "kind": kind})
        if kind == "traced":
            layers.append(layer_metrics(tracer.take()))
        found = workload.problems(summary, None)
        if first is None and not found:
            first = summary
        elif first is not None and summary != first:
            found.append("outputs differ from the first operation's")
        failures += [f"op {len(ops) - 1}: {p}" for p in found]
        failed += bool(found)

    timed = [op for op in ops if op["kind"] == "plain"]
    peaks = [op["peak_rss_mb"] for op in ops if op["kind"] == "rss"]
    if not timed or not (layers if args.trace else peaks):
        raise RuntimeError("no operation completed:\n" + "\n".join(failures))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "ops": timed,
              "pairs": fixtures["timed"].get("pairs"), "attempted": attempted,
              "failed": failed, "failures": failures}
    plain_s = [op["wall_s"] for op in timed]
    record["op_wall_s_p50"] = statistics.median(plain_s)
    if not args.trace:
        record["metrics"] = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(op["net_s"] for op in timed),
            "peak_rss_mb": statistics.median(peaks),
        }
    else:
        record["metrics"] = per_layer(args.workload, layers, plain_s, failures)
    return record


def per_layer(workload: str, layers: list[dict], plain_s: list[float],
              failures: list[str]) -> dict:
    """Median over traced operations; counts must repeat exactly."""
    metrics = {}
    for name in PER_LAYER:
        values = [op.get(name, 0) for op in layers]
        if is_count(name) and len(set(values)) > 1:
            failures.append(f"{name} differs between operations: {values}")
        metrics[name] = values[0] if is_count(name) else statistics.median(values)
    traced_s = statistics.median(op["cli.main.wall_s"] for op in layers)
    metrics["trace.overhead_s"] = traced_s - statistics.median(plain_s)
    for layer in MUST_CALL[workload]:
        if not any(op.get(f"{layer}.calls", 0) for op in layers):
            failures.append(f"{layer} was never called")
    for layer in MUST_NOT_CALL[workload]:
        if any(op.get(f"{layer}.calls", 0) for op in layers):
            failures.append(f"{layer} was called")
    return metrics


def report(record: dict) -> dict:
    """Print the environment and the metrics table; return the result line."""
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    ops, metrics, failed = record["ops"], record["metrics"], record["failed"]
    print(f"{record['workload']} seed {record['seed']}: {len(ops)} timed ops, "
          f"failed_ratio {failed}/{record['attempted']}")
    for problem in record["failures"]:
        print(f"  FAILED {problem}")
    if not record["trace"]:
        rows = {"setup_s": (metrics["setup_s"], "s"), "peak_rss_mb": (metrics["peak_rss_mb"], "MB")}
        if record["workload"] == "dataset-roundtrip":
            done = [op for op in ops if "eval_s" in op]  # both phases ran
            pairs = record["pairs"] * len(done)
            rows["build_pairs_per_s"] = (pairs / sum(o["build_s"] for o in done), "pairs/s")
            rows["eval_pairs_per_s"] = (pairs / sum(o["eval_s"] for o in done), "pairs/s")
            rows["roundtrip_s_p50 (op_s_p50)"] = (metrics["op_s_p50"], "s")
        else:
            rows["separate_s_p50 (op_s_p50)"] = (metrics["op_s_p50"], "s")
        rows["op_wall_s_p50 (with steal)"] = (record["op_wall_s_p50"], "s")
        for name, (value, unit) in rows.items():
            print(f"  {name:<28} {value:12.4f} {unit}")
    else:
        for name in PER_LAYER:
            unit = layer_unit(name)
            value = f"{metrics[name]:14.6f}" if unit == "s" else f"{metrics[name]:14.6g}"
            print(f"  {name:<34} {value} {unit}")
    units = END_TO_END if not record["trace"] else {n: layer_unit(n) for n in PER_LAYER}
    return {"correct": not record["failures"], "attempted": record["attempted"], "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not wl.add_src_path():
        print(f"error: no singersep sources under {wl.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(wl.ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        record = measure(args)
        result = report(record)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
