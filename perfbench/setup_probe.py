"""Time one workload's set-up in this fresh interpreter and print it.

Set-up is ``import repro`` plus the workload's ``prepare`` (registry
resolution and system builds).  run.py starts this script several times
per run and reports the median as ``setup_s``::

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    workload = WORKLOADS[name](seed, True, {}, HERE.parent / ".perfbench" / "tmp")
    started = time.perf_counter()
    workload.prepare(NullTracer())
    print(time.perf_counter() - started)
