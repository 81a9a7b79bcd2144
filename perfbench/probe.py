"""Time one cold set-up: import spinmo, load and validate the config,
build the inputs.  Prints the seconds taken; run.py starts it in a fresh
interpreter for every ``setup_s`` sample.

    python3 perfbench/probe.py <workload> <scale> <workdir>
"""

import time

T0 = time.perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports numpy, scipy and spinmo)

name, scale, workdir = sys.argv[1], sys.argv[2], Path(sys.argv[3])
try:
    workloads.Workload(name, scale, workdir, seed=0).setup()
    elapsed = time.perf_counter() - T0
finally:
    shutil.rmtree(workdir, ignore_errors=True)
print(elapsed)
