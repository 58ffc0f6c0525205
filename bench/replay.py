"""Replay finished operations from their manifests in a fresh interpreter, for run.py.

    PYTHONPATH=src python3 bench/replay.py MANIFEST OUTDIR [MANIFEST OUTDIR ...]

Each pair goes through `gapsub rerun --manifest MANIFEST --outdir OUTDIR`.
Prints the exit codes, and how far importing gapsub and replaying the
operations raised the process's peak resident memory above that of the
bare interpreter.
"""


def peak_bytes() -> int:
    """The process's resident high-water mark (VmHWM).

    getrusage's ru_maxrss would not do: a child inherits its parent's
    maximum through fork, while VmHWM starts afresh at exec.
    """
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024


bare = peak_bytes()

import json  # noqa: E402
import sys  # noqa: E402

import gapsub.cli  # noqa: E402

pairs = sys.argv[1:]
codes = [gapsub.cli.main(["rerun", "--manifest", m, "--outdir", o])
         for m, o in zip(pairs[::2], pairs[1::2])]
print(json.dumps({"codes": codes, "peak_growth_bytes": peak_bytes() - bare}))
