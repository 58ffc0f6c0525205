"""Print the SHA-256 of every file the benchmark workloads write.

    python3 tools/artifact_digests.py 11 12 > digests.txt

Every operation of every workload in bench/workloads.py runs at each given
seed through gapsub.cli.run, on this checkout's sources, into its own
temporary directory.  One `seed/workload/operation/file sha256` line is
printed per file, manifests included, so that the outputs of two checkouts
can be compared with diff.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files in bench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from gapsub import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(seeds: list[int]) -> None:
    for seed in seeds:
        for workload, operations in WORKLOADS.items():
            for op in operations(seed):
                with tempfile.TemporaryDirectory() as out:
                    cli.run(cli.RunConfig(op.subcommand, op.params), out)
                    for path in sorted(Path(out).iterdir()):
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        print(f"{seed}/{workload}/{op.name}/{path.name} {digest}")


if __name__ == "__main__":
    main([int(seed) for seed in sys.argv[1:]])
