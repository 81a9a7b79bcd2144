"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ramp --seed 0 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (wall_s, cpu_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones from a traced
run.  The first line records the environment, and the line before the last
gives the operation times: count, fastest, median and tail.  See README.md.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so this precedes every import
# that can load numpy; the setup probes inherit it through the environment.
# One thread: the matrices have at most 501 rows, and with two threads an
# operation's time depends on both vCPUs of a shared host at once
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ramp", "search", "noise", "loss")
SETUP_PROBES = {"full": 5, "smoke": 2}
PROBE_TIMEOUT_S = 60
# workloads whose operations are short against the host's speed swings; their
# time metrics are scaled by the calibration loop timed around each operation
SCALED = ("ramp", "noise", "loss")
CAL_STEPS = 150
CAL_REF_S = 1e-3  # the calibration time the scaled metrics are quoted at


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long to repeat the operation")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: small sizes for the benchmark's own tests")
    return ap.parse_args(argv)


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"), "threads_set": BLAS_THREADS}


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "numba": has_numba,
        "git_commit": git_commit(),
    }


def setup_times(workload: str, scale: str, workdir: Path) -> list[float]:
    """Set-up time of fresh interpreters: import spinmo, load the config,
    build the inputs (probe.py times itself, interpreter start excluded)."""
    times = []
    for i in range(SETUP_PROBES[scale]):
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, scale, str(workdir / f"probe{i}")],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def calibrate() -> float:
    """Wall time of a fixed NumPy loop shaped like the RK4 kernel: tridiagonal
    products on 101 complex amplitudes.  It measures the host's speed at the
    moment: 0.8 ms at its fast speed and 1.4 ms at its slow one on the
    2-vCPU host where this was written (README.md, Steadiness)."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 101) + 0.5j
    d = np.linspace(-1.0, 1.0, 101)
    o = np.full(100, 0.3)
    t0 = time.perf_counter()
    for _ in range(CAL_STEPS):
        y = d * x
        y[:-1] += o * x[1:]
        y[1:] += o * x[:-1]
        x = x + 1e-3j * y
    return time.perf_counter() - t0


def timed(work):
    """Run one operation; returns (wall_s, cpu_s, problems with its outputs)."""
    work.prepare()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        result = work.run()
    except Exception:  # a failed operation is counted, the run goes on
        traceback.print_exc()
        return time.perf_counter() - w0, time.process_time() - c0, ["exception"]
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    problems = work.check(result)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return wall, cpu, problems


def spread(values: list[float]) -> dict:
    """Sample count, fastest, median and the highest percentile with at least
    ten samples beyond it (absent below eleven samples)."""
    ranked = sorted(values)
    out = {"n": len(ranked), "min": ranked[0], "median": statistics.median(ranked)}
    if len(ranked) > 10:
        out[f"p{100 * (len(ranked) - 10) / len(ranked):.0f}"] = ranked[-11]
    return out


def measure(args, work, workdir: Path) -> dict:
    """Repeat the operation for ``--seconds``, with the calibration loop
    between operations.  Untraced, the time metrics of a SCALED workload are
    the median over operations of the time times CAL_REF_S over the mean
    calibration time before and after it; those of ``search`` are its
    fastest operation's (README.md, Steadiness).  Traced, untraced and
    traced operations alternate, and the overhead is the difference of
    their medians."""
    attempted = failed = 0
    walls, cpus, cals, scales, layers, traced_walls = [], [], [], [], [], []
    tracer = tracing.Tracer() if args.trace else None
    cal = calibrate()
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < args.seconds:
        wall, cpu, problems = timed(work)
        cal_after = calibrate()
        attempted += 1
        failed += int(bool(problems))
        walls.append(wall)
        cpus.append(cpu)
        cals.append(cal_after)
        scales.append(CAL_REF_S / ((cal + cal_after) / 2))
        cal = cal_after
        if tracer is not None:
            tracer.run = len(layers)
            with tracer.installed():
                wall, _, problems = timed(work)
            attempted += 1
            failed += int(bool(problems))
            traced_walls.append(wall)
            layers.append(tracing.layer_metrics(tracer.of_run(tracer.run), wall))

    if tracer is None:
        scaled_walls = [w * k for w, k in zip(walls, scales)]
        scaled_cpus = [c * k for c, k in zip(cpus, scales)]
        print(json.dumps({"wall_s": spread(walls), "cpu_s": spread(cpus), "calibration_s": spread(cals),
                          "scaled_wall_s": spread(scaled_walls), "scaled_cpu_s": spread(scaled_cpus)}))
        if args.workload in SCALED:
            wall_s, cpu_s = statistics.median(scaled_walls), statistics.median(scaled_cpus)
        else:
            wall_s, cpu_s = min(walls), min(cpus)
        values = {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "setup_s": statistics.median(setup_times(args.workload, args.scale, workdir)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        print(json.dumps({"untraced_wall_s": spread(walls), "traced_wall_s": spread(traced_walls)}))
        tracer.dump(workdir.parent / f"spans-{args.workload}-{args.scale}.json")
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        units = tracing.LAYER_UNITS
        values = {k: values[k] for k in units}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import spinmo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workdir = HERE / "out" / f"{args.workload}-{args.scale}-{os.getpid()}"
    try:
        work = workloads.Workload(args.workload, args.scale, workdir, args.seed)
        work.setup()
        print(json.dumps({"environment": environment(), "first_cli_seed": work.cli_seed, "scale": args.scale}))
        result = measure(args, work, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
