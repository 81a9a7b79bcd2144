"""Regenerate reference.json, the outputs the benchmark checks against.

    python3 perfbench/make_reference.py     # both scales, about 1 min

* ``ramp``: the same config run at a fixed ``ramp_dt_s`` several times finer
  than the automatic step, so the check bounds the integration error of the
  benchmarked run rather than repeating it.
* ``search``: the K history and every step's (q*, t*, K*) of the run.
* ``noise`` and ``loss``: the checked outputs of every CLI seed in
  ``range(SEED_SPACE)``.

The values depend on spinmo's numerics: regenerate them only in a change
that is meant to alter output floats, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# the BLAS thread count of run.py, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402

# the automatic RK4 step at the start of the ramp is 7.17e-6 s at N = 200
# and 2.5e-5 s at N = 20
RAMP_REFERENCE_DT_S = {"full": 2e-6, "smoke": 5e-6}


def reference_for(name: str, scale: str, workdir: Path) -> dict:
    if name in ("noise", "loss"):
        out = {}
        for seed in range(workloads.SEED_SPACE):
            out[str(seed)] = run_once(name, scale, workdir, seed)
        return out
    config = workloads.configs(scale)[name]
    if name == "ramp":
        config["output"]["ramp_dt_s"] = RAMP_REFERENCE_DT_S[scale]
    return run_once(name, scale, workdir, 0, config)


def run_once(name, scale, workdir, seed, config=None) -> dict:
    work = workloads.Workload(name, scale, workdir, seed)
    work.setup(config)
    work.prepare()
    t0 = time.perf_counter()
    summary = work.summary(work.run())
    print(f"{name} {scale} seed {seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return summary


def main() -> int:
    ref = {}
    workdir = HERE / "out" / f"reference-{os.getpid()}"
    try:
        for name in ("ramp", "search", "noise", "loss"):
            for scale in ("full", "smoke"):
                ref.setdefault(name, {})[scale] = reference_for(name, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref["ramp_reference_dt_s"] = RAMP_REFERENCE_DT_S
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
