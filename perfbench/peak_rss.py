"""Run CLI command lines in this fresh interpreter; print their exit codes and its peak RSS.

    python3 perfbench/peak_rss.py '[["separate", "song.wav", "--registry", ...]]'

Prints one JSON object, ``{"exit": [codes], "peak_rss_mb": MB}``. The peak
is the kernel's high-water mark of this process's resident set (``VmHWM``),
which imports the program and runs one operation as a user's ``singersep``
process does. ``ru_maxrss`` would not do: across ``exec`` it keeps the peak
of the image the process replaced, and for a child started with ``vfork``,
as ``subprocess`` starts it, that is the parent's peak.
"""

import json
import sys

import workloads as wl


def vm_hwm_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1])


def main(argv) -> int:
    if not wl.add_src_path():
        print(f"error: no singersep sources under {wl.SRC}", file=sys.stderr)
        return 2
    codes = [wl.run_cli(command) for command in json.loads(argv[0])]
    print(json.dumps({"exit": codes, "peak_rss_mb": vm_hwm_kib() / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
