"""Print the best in-process time of every benchmark operation.

    python3 tools/op_times.py 11 12 --repeat 7

Every operation of every workload in bench/workloads.py runs at each given
seed through gapsub.cli.run, on this checkout's sources, into a temporary
directory, --repeat times in a row in this interpreter.  The interpreter
pins itself to the CPU it starts on, and numpy runs single-threaded, as
under bench/run.py.  One line is printed per operation:

    seed/workload/operation best_ms=... median_ms=... minflt=... cpu=N

The times are raw wall-clock milliseconds (time.perf_counter), not
normalised by the benchmark's reference kernel, so compare two checkouts
on the same machine, one after the other.  The first call of each
operation pays its one-time costs (compiles, caches); best_ms leaves them
out.  minflt is the median count of minor page faults per call, from
getrusage(RUSAGE_SELF): pages the call touched for the first time, mostly
fresh arrays that the allocator mapped for it and unmapped after.  cpu is
the CPU the run was pinned to: on a shared machine one CPU may carry more
outside load than another, so compare rounds pinned to the same CPU (for
example under taskset -c N).  Needs Linux, for /proc/self/stat.
"""
from __future__ import annotations

import os

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files in bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]


def pin_to_current_cpu() -> int:
    """Keep this process on the CPU it runs on now, and return that CPU."""
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(seeds: list[int], repeat: int) -> None:
    from gapsub import cli
    from workloads import WORKLOADS

    cpu = pin_to_current_cpu()
    for seed in seeds:
        for workload, operations in WORKLOADS.items():
            for op in operations(seed):
                config = cli.RunConfig(op.subcommand, op.params)
                took, faults = [], []
                with tempfile.TemporaryDirectory() as out:
                    for _ in range(repeat):
                        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                        start = time.perf_counter()
                        cli.run(config, out)
                        took.append(time.perf_counter() - start)
                        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
                print(f"{seed}/{workload}/{op.name} best_ms={min(took) * 1e3:.2f} "
                      f"median_ms={statistics.median(took) * 1e3:.2f} "
                      f"minflt={statistics.median(faults):.0f} cpu={cpu}", flush=True)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="best in-process time of every benchmark operation")
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--repeat", type=int, default=7, help="calls per operation (default 7)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    main(args.seeds, args.repeat)
