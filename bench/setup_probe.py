"""Set-up cost in a fresh interpreter, for run.py.

    PYTHONPATH=src python3 bench/setup_probe.py <workload> <seed>

Times `import gapsub.cli`, then generating the workload's specs and
building every measure they name, and prints both times as JSON.
"""
import time

start = time.perf_counter()
import gapsub.cli  # noqa: E402

imported = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

for op in WORKLOADS[sys.argv[1]](int(sys.argv[2])):
    for key in ("p", "q", "measure"):
        if key in op.params:
            gapsub.cli.measure_from_spec(op.params[key])
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
