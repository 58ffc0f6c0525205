"""Print the peak memory of every benchmark operation, each in a fresh interpreter.

    python3 tools/op_peaks.py 11 12

Every operation of every workload in bench/workloads.py runs at each given
seed through gapsub.cli.run, on this checkout's sources, into its own
temporary directory, in two fresh interpreters: one reads how far the
operation raises the resident high-water mark (VmHWM) over the mark left
by importing gapsub and generating the workload, and one reads the peak
that tracemalloc sees (Python objects and numpy arrays).  One line is
printed per operation:

    seed/workload/operation hwm_mb=... rise_mb=... traced_mb=...

where hwm_mb is the interpreter's VmHWM after the operation.  The
operation with the largest hwm_mb in a workload is the one that sets the
benchmark's peak_mb, which replays every operation in one interpreter.
numpy runs single-threaded, as under bench/run.py.  Needs Linux, for
/proc/self/status.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files in bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

MB = 1e6


def hwm_bytes() -> int:
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024


def measure(seed: int, workload: str, index: int, traced: bool) -> dict:
    """Run one operation in this interpreter and return its memory figures."""
    from gapsub import cli
    from workloads import WORKLOADS

    op = WORKLOADS[workload](seed)[index]
    before = hwm_bytes()
    if traced:
        tracemalloc.start()
    with tempfile.TemporaryDirectory() as out:
        cli.run(cli.RunConfig(op.subcommand, op.params), out)
        if traced:
            return {"traced": tracemalloc.get_traced_memory()[1]}
        after = hwm_bytes()
    return {"hwm": after, "rise": after - before}


def in_fresh_interpreter(seed: int, workload: str, index: int, traced: bool) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    args = [sys.executable, __file__, "--one", str(seed), workload, str(index), str(int(traced))]
    done = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(seeds: list[int]) -> None:
    from workloads import WORKLOADS

    for seed in seeds:
        for workload, operations in WORKLOADS.items():
            for index, op in enumerate(operations(seed)):
                peaks = in_fresh_interpreter(seed, workload, index, traced=False)
                traced = in_fresh_interpreter(seed, workload, index, traced=True)["traced"]
                print(f"{seed}/{workload}/{op.name} hwm_mb={peaks['hwm'] / MB:.1f} "
                      f"rise_mb={peaks['rise'] / MB:.1f} traced_mb={traced / MB:.1f}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--one"]:
        seed, workload, index, traced = sys.argv[2:6]
        print(json.dumps(measure(int(seed), workload, int(index), traced == "1")))
    else:
        main([int(seed) for seed in sys.argv[1:]])
