"""Deterministic run outputs: CSV records, manifests, error JSON.

Floats serialize with 17 significant digits (round-trip exact for
float64).  Every run directory gets `manifest.json` -- resolved config,
seed, unit convention, code version and the SHA-256 of every data file,
all byte-stable across reruns -- plus `run_info.json` holding the wall
clock and what the run did (``RunDir.counts`` and ``RunDir.info``), which
is the one file excluded from the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter
from pathlib import Path

from . import __version__
from .observables import CSV_FIELDS, ObservableRecord


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def write_records_csv(path: Path, records: list[ObservableRecord]) -> None:
    lines = [",".join(CSV_FIELDS)]
    for r in records:
        lines.append(",".join(fmt(v) for v in r.astuple()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_table_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


class RunDir:
    """Output directory with manifest bookkeeping."""

    def __init__(self, out: str | Path, command: str, config: dict):
        self.path = Path(out)
        self.path.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.config = config
        self.t_start = time.monotonic()
        self.wall_start = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.files: list[str] = []
        # run_info.json: what the library calls did, and what else the command reports
        self.counts: Counter = Counter()
        self.info: dict = {}

    def file(self, name: str) -> Path:
        if name not in self.files:
            self.files.append(name)
        return self.path / name

    def write_json(self, name: str, payload) -> None:
        self.file(name).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def finalize(self) -> None:
        manifest = {
            "command": self.command,
            "version": __version__,
            "seed": self.config.get("seed"),
            "convention": self.config.get("physics", {}).get("convention"),
            "config": self.config,
            "outputs": {name: sha256_of(self.path / name) for name in sorted(self.files)},
        }
        (self.path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        counts = self.counts
        run_info = {
            "wall_clock_s": time.monotonic() - self.t_start,
            "started_utc": self.wall_start,
            "hold_blocks": counts["hold_blocks"],
            "ramp_steps": {key: counts[f"ramp_steps.{key}"] for key in ("1", "2", "branch")},
            **{k: counts[k] for k in ("trajectories", "jumps", "reference_eigensystems") if k in counts},
            **self.info,
        }
        (self.path / "run_info.json").write_text(
            json.dumps(run_info, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def error_json(exc: Exception, code: int) -> str:
    return json.dumps(
        {"error": type(exc).__name__, "message": str(exc), "exit_code": code},
        sort_keys=True,
    )
