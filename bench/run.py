"""Benchmark of the gapsub CLI layer, run in-process.

    python3 bench/run.py --workload chain-estimate --seed 1 --seconds 20 --trace 0

Each operation is one `gapsub.cli.run(RunConfig(...), outdir)` call, the
code path of `gapsub <command>` without interpreter start-up, issued in a
closed loop from one thread.  A run:

1. times set-up in fresh interpreters (setup_probe.py), nine times;
2. repeats passes over all operations until --seconds have passed (at
   least three), every operation bracketed by the reference kernel, and
   checks every operation's outputs after each pass;
3. replays every operation from its manifest through `gapsub rerun` in a
   fresh interpreter (replay.py); the bytes must be the same, and the
   interpreter's peak resident memory gives `peak_mb`.

With --trace 1, step 2 alternates untraced and traced passes and the run
reports per-layer metrics instead.  The last line of stdout is one JSON
object; the line before it gives raw seconds beside the normalised ones.
"""
from __future__ import annotations

import os

# one thread for numpy's BLAS in this process and in its child interpreters
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from checks import checker  # noqa: E402
from timing import R0_S, kernel_time, normalised  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150

# layer -> (self-time metric, work-count metric, cost-per-unit metric, cost scale)
LAYER_METRICS = {
    "sampling.draw": ("sampling.draw_s", "sampling.symbols_drawn",
                      "sampling.draw_us_per_symbol", 1e6),
    "sampling.eval": ("sampling.eval_s", "sampling.symbols_evaluated",
                      "sampling.eval_us_per_symbol", 1e6),
    "estimators.self": ("estimators.self_s", None, None, None),
    "measures.build": ("measures.build_s", None, None, None),
    "measures.levels": ("measures.levels_s", "measures.words_enumerated",
                        "measures.levels_ns_per_word", 1e9),
    "decoupling.audit": ("decoupling.audit_s", None, None, None),
    "decoupling.check": ("decoupling.check_s", "decoupling.pairs_checked", None, None),
    "steele.decompose": ("steele.decompose_s", "steele.tiles", None, None),
    "steele.verify": ("steele.verify_s", None, None, None),
    "fekete.check": ("fekete.check_s", None, None, None),
    "cli.write": ("cli.write_s", None, None, None),
}

UNITS = {"_s": "s", "_mb": "MB", "_ms": "ms", "_us_per_symbol": "us", "_ns_per_word": "ns",
         "bytes_written": "bytes"}


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _child(script: str, *args: str) -> dict:
    """Run a benchmark script in a fresh interpreter on the checkout's sources."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / script), *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now.

    The CPUs of a shared machine run at different speeds at the same
    moment, so a process that migrates between them between the kernel
    brackets and the operation gets normalised by the wrong speed.
    """
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError as exc:
        print(f"bench: running unpinned, normalisation is weaker: {exc}", file=sys.stderr)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median normalised (setup_s, import_s) over fresh interpreters."""
    setup, imports = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel_time()
        rec = _child("setup_probe.py", workload, str(seed))
        after = kernel_time()
        setup.append(normalised(rec["setup_s"], before, after, 1.0))
        imports.append(normalised(rec["import_s"], before, after, 1.0))
    return statistics.median(setup), statistics.median(imports)


class Bench:
    """One workload's operations, their output directories and their tally."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path):
        self.cli = cli
        self.ops = WORKLOADS[workload](seed)
        self.configs = [cli.RunConfig(op.subcommand, op.params) for op in self.ops]
        self.checks = [checker(op, seed) for op in self.ops]
        self.dirs = [workdir / op.name for op in self.ops]
        self.replay_dirs = [workdir / "replay" / op.name for op in self.ops]
        self.digests: list[str | None] = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, tracer: Tracer | None = None) -> dict:
        """One timed pass over every operation, then the checks of its outputs.

        Returns per-operation normalised and raw seconds, the kernel times,
        the bytes written and, when traced, per-layer [self seconds, count].
        """
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        gc.collect()
        errors = [None] * len(self.ops)
        norm, wall, layers = [], [], {}
        kernels = [kernel_time()]
        for i, config in enumerate(self.configs):
            start = time.perf_counter()
            try:
                self.cli.run(config, self.dirs[i])
            except Exception as exc:  # a failed operation is counted, the run goes on
                errors[i] = exc
            took = time.perf_counter() - start
            kernels.append(kernel_time())
            norm.append(normalised(took, kernels[-2], kernels[-1], self.ops[i].speed_exponent))
            wall.append(took)
            if tracer is not None:
                scale = norm[-1] / took
                for layer, (self_s, count) in layer_totals(tracer.take()).items():
                    acc = layers.setdefault(layer, [0.0, 0])
                    acc[0] += self_s * scale
                    acc[1] += count
        written = self.verify(errors)
        return {"norm": norm, "wall": wall, "kernels": kernels, "layers": layers,
                "bytes": written}

    def verify(self, errors: list) -> int:
        """Check every operation's outputs; returns the bytes the pass wrote."""
        written = 0
        for i, op in enumerate(self.ops):
            if errors[i] is not None:
                self._tally(op.name, [f"raised {errors[i]!r}"])
                continue
            problems = self.checks[i](self.dirs[i])
            written += sum(p.stat().st_size for p in self.dirs[i].iterdir())
            digest = _digest(self.dirs[i])
            if self.digests[i] is None:
                self.digests[i] = digest
            elif digest != self.digests[i]:
                problems.append("outputs differ from the first pass")
            self._tally(op.name, problems)
        return written

    def replay(self) -> int:
        """`gapsub rerun` of every manifest must give the same bytes.

        Returns how far importing gapsub and replaying the operations
        raised the replaying interpreter's peak resident memory above that
        of the bare interpreter, in bytes.
        """
        args = []
        for d, out in zip(self.dirs, self.replay_dirs):
            args += [str(d / "manifest.json"), str(out)]
        rec = _child("replay.py", *args)
        for i, op in enumerate(self.ops):
            if rec["codes"][i] != 0:
                problems = [f"rerun exited {rec['codes'][i]}"]
            elif _digest(self.replay_dirs[i]) != self.digests[i]:
                problems = ["rerun outputs differ from the run"]
            else:
                problems = []
            self._tally(op.name + " (rerun)", problems)
        return rec["peak_growth_bytes"]

    def _tally(self, name: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def pass_seconds(passes: list[dict], key: str = "norm") -> float:
    """One pass through all operations: the sum of each operation's median.

    An operation's median over the passes drops the passes where a kernel
    bracket missed a change of speed mode, one operation at a time.
    """
    return sum(statistics.median(p[key][i] for p in passes) for i in range(len(passes[0][key])))


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    setup_s, import_s = measure_setup(workload, seed)
    bench = Bench(cli, workload, seed, workdir)
    plain, traced = [], []
    tracer = Tracer()
    stop = time.perf_counter() + seconds
    while len(traced if trace else plain) < MIN_PASSES or time.perf_counter() < stop:
        if trace and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(bench.run_pass(tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(bench.run_pass())
    peak_growth = bench.replay()

    run_s = pass_seconds(plain)
    wall_s = pass_seconds(plain, "wall")
    kernel_ms = statistics.median(k for p in plain + traced for k in p["kernels"]) * 1e3
    if not trace:
        metrics = {"run_s": run_s, "setup_s": setup_s, "peak_mb": peak_growth / 1e6}
    else:
        metrics = _layer_metrics(traced)
        metrics.update({
            "setup.import_s": import_s,
            "cli.bytes_written": plain[0]["bytes"],
            "ref.kernel_ms": kernel_ms,
            "wall.run_s": wall_s,
            "trace.overhead_s": pass_seconds(traced) - run_s,
        })
    summary = (f"{workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced passes; "
               f"run_s {run_s:.4f} normalised, {wall_s:.4f} raw; setup_s {setup_s:.4f}; "
               f"kernel {kernel_ms:.3f} ms against R0 {R0_S * 1e3:.3f} ms")
    return {"summary": summary, "problems": bench.problems,
            "result": {"correct": bench.failed == 0, "attempted": bench.attempted,
                       "failed": bench.failed,
                       "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}}


def _layer_metrics(traced: list[dict]) -> dict:
    """Per-pass means over the traced passes; counts are exact per pass."""
    n = len(traced)
    mean = {layer: sum(p["layers"][layer][0] for p in traced) / n for layer in LAYER_METRICS}
    counts = traced[0]["layers"]
    out: dict = {}
    for layer, (time_name, count_name, cost_name, scale) in LAYER_METRICS.items():
        out[time_name] = mean[layer]
        if count_name:
            out[count_name] = counts[layer][1]
        if cost_name:
            out[cost_name] = mean[layer] / counts[layer][1] * scale if counts[layer][1] else 0.0
    traced_pass = sum(sum(p["norm"]) for p in traced) / n
    out["trace.unattributed_s"] = traced_pass - sum(mean.values())
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gapsub" / "cli.py").is_file():
        print(f"bench: no gapsub sources under {SRC}", file=sys.stderr)
        return 2
    pin_to_current_cpu()
    sys.path.insert(0, str(SRC))
    import gapsub.cli as cli

    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        out = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    for line in out["problems"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(out["summary"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
