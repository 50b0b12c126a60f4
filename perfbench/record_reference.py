#!/usr/bin/env python3
"""Rewrite reference.json from the program's outputs on the check fixtures.

    python3 perfbench/record_reference.py

The reference pins behaviour that a performance change must keep (chosen
model and trend scores, evaluation values, dataset bytes), so record it
only from a commit whose behaviour is known good, never to make a failing
check pass.
"""

import json
import os
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    if not wl.add_src_path():
        print(f"error: no singersep sources under {wl.SRC}", file=sys.stderr)
        return 2
    os.chdir(wl.ROOT)
    reference = {}
    try:
        for name in wl.WORKLOADS:
            shutil.rmtree(run.WORK, ignore_errors=True)
            fixtures = wl.make_fixtures(name, wl.DEFAULT_SEED, run.WORK / "fixtures")
            workload = run.Workload(name, fixtures, run.WORK)
            _, summary = workload.run("check", wl.run_cli)
            problems = workload.problems(summary, None)
            if problems:
                print(f"error: {name}: {problems}", file=sys.stderr)
                return 1
            reference[name] = wl.reference_view(name, summary)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
