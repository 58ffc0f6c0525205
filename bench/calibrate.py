"""Measure how each operation's time follows the reference kernel.

    python3 bench/calibrate.py --workload certify-wide --seconds 300

Runs the workload's operations over and over, each bracketed by the
reference kernel, and keeps the runs whose two brackets agree within 10%
(the speed mode did not change during the operation).  It splits them at
the geometric midpoint of the kernel's 10th and 90th percentiles into a
fast and a slow cluster and prints, per operation,

    exponent = log(median slow time / median fast time)
             / log(median slow kernel / median fast kernel),

the value that `Operation.speed_exponent` should hold, and the slow
cluster's median kernel time, the candidate for `timing.R0_S`.  A
machine that stays in one mode for the whole call gives no exponent.
"""
from __future__ import annotations

import argparse
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gapsub.cli as cli  # noqa: E402

from run import pin_to_current_cpu  # noqa: E402
from timing import kernel_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=300.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    pin_to_current_cpu()
    ops = WORKLOADS[args.workload](args.seed)
    samples: dict[str, list] = {op.name: [] for op in ops}
    kernels = []
    scratch = BENCH.parent / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        before = kernel_time()
        stop = time.perf_counter() + args.seconds
        while time.perf_counter() < stop:
            for op in ops:
                start = time.perf_counter()
                cli.run(cli.RunConfig(op.subcommand, op.params), Path(tmp) / op.name)
                took = time.perf_counter() - start
                after = kernel_time()
                kernels.append(after)
                if abs(math.log(after / before)) < math.log(1.1):
                    samples[op.name].append((took, 0.5 * (before + after)))
                before = after
    deciles = statistics.quantiles(kernels, n=10)
    split = math.sqrt(deciles[0] * deciles[-1])
    slow_kernel = statistics.median(k for k in kernels if k > split)
    print(f"kernel deciles {deciles[0] * 1e3:.2f} .. {deciles[-1] * 1e3:.2f} ms, "
          f"split at {split * 1e3:.2f} ms, slow-cluster median {slow_kernel * 1e3:.3f} ms")
    for name, pairs in samples.items():
        fast = [p for p in pairs if p[1] < split]
        slow = [p for p in pairs if p[1] >= split]
        if len(fast) < 3 or len(slow) < 3:
            print(f"{name:22s} {len(fast)} fast and {len(slow)} slow samples: no exponent")
            continue
        t_ratio = statistics.median(t for t, _ in slow) / statistics.median(t for t, _ in fast)
        k_ratio = statistics.median(k for _, k in slow) / statistics.median(k for _, k in fast)
        print(f"{name:22s} {len(fast):3d} fast {len(slow):3d} slow: time x{t_ratio:.2f}, "
              f"kernel x{k_ratio:.2f}, exponent {math.log(t_ratio) / math.log(k_ratio):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
