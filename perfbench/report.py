"""Print every metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--seed 0] [--seconds 20]

For each workload this runs run.py twice, one after the other: untraced
for the end-to-end metrics (plus failed_frac, failed over attempted
operations) and traced for the per-layer metrics, whose
``trace.overhead_s`` is the median traced minus the median untraced wall
time of an operation.  The full set takes about four minutes on two cores.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ramp", "search", "noise", "loss")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload}: run.py exited with {out.returncode}")
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    return {"environment": lines[0]["environment"], "spread": lines[-2], **lines[-1]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    for i, workload in enumerate(WORKLOADS):
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        if i == 0:
            print("environment:", json.dumps(plain["environment"]))
        print(f"\n== {workload}  (correct: {plain['correct'] and traced['correct']})")
        print(f"  {'failed_frac':34s} {plain['failed'] / plain['attempted']:14.6g}  "
              f"({plain['failed']} of {plain['attempted']})")
        for result in (plain, traced):
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:14.6g}  {m['unit']}")
            print("  operation times:", json.dumps(result["spread"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
