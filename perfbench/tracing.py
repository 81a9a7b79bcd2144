"""Layer spans recorded from outside spinmo.

A :class:`Tracer` swaps wrappers in for a fixed list of spinmo functions
(every module-level name bound to the same function object, so imports of
the form ``from .spectra import eigensolve_tridiagonal`` are covered too)
and records one span per call: name, start, end, parent span and run id.
Spans stay in memory; :func:`layer_metrics` reduces the spans of one run
to the per-layer metrics, and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_attrs(args, kwargs, result):
    qgrid = _arg(args, kwargs, 4, "qgrid")
    return {"steps": (len(qgrid) - 1) // 2}


def _scan_attrs(args, kwargs, scan):
    cfg = _arg(args, kwargs, 3, "cfg")
    dt = cfg.sample_dt_s
    capped_at = math.floor(cfg.step_time_cap_s / dt) + 1
    if scan.flag:
        needed = capped_at
    else:
        needed = min(round(scan.t_s / dt) + cfg.dwell_window + 1, capped_at)
    return {"samples": needed, "flag": scan.flag}


def _step_attrs(args, kwargs, step):
    from spinmo.optimizer import _count_k

    state = _arg(args, kwargs, 0, "state")
    cfg = _arg(args, kwargs, 3, "cfg")
    reference = _arg(args, kwargs, 4, "reference")
    return {"useful": step.k_star < _count_k(state, reference, cfg.k_threshold)}


def _records_attrs(args, kwargs, result):
    return {"records": len(result) if isinstance(result, list) else 1}


def _traj_attrs(args, kwargs, traj):
    return {"jumps": traj.summary.n_jumps}


def _csv_attrs(args, kwargs, result):
    return {"bytes": Path(_arg(args, kwargs, 0, "path")).stat().st_size}


def _json_attrs(args, kwargs, result):
    run_dir, name = args[0], _arg(args, kwargs, 1, "name")
    return {"bytes": (run_dir.path / name).stat().st_size}


def _finalize_attrs(args, kwargs, result):
    run_dir = args[0]
    return {
        "bytes": sum((run_dir.path / n).stat().st_size for n in ("manifest.json", "run_info.json"))
    }


# (module, attribute, span name, attribute extractor)
LAYERS = (
    ("spinmo.cli", "main", "cli.main", None),
    ("spinmo._kernels", "rk4_chain", "propagate.kernel", _kernel_attrs),
    ("spinmo.propagate", "evolve_ramp", "propagate.evolve_ramp", None),
    ("spinmo.spectra", "eigensolve_tridiagonal", "spectra.eigensolve", None),
    ("spinmo.optimizer", "first_local_min_k", "optimizer.scan", _scan_attrs),
    ("spinmo.optimizer", "optimize_step", "optimizer.step", _step_attrs),
    ("spinmo.observables", "batch_records", "observables.records", _records_attrs),
    ("spinmo.observables", "record_for", "observables.records", _records_attrs),
    ("spinmo.schedule", "run_schedule", "schedule.run_schedule", None),
    ("spinmo.noise", "run_dephasing_ensemble", "noise.ensemble", None),
    ("spinmo.opensystem", "gillespie_trajectory", "opensystem.traj", _traj_attrs),
    ("spinmo.runio", "write_records_csv", "runio.write", _csv_attrs),
    ("spinmo.runio", "write_table_csv", "runio.write", _csv_attrs),
    ("spinmo.runio", "RunDir.write_json", "runio.write", _json_attrs),
    ("spinmo.runio", "RunDir.finalize", "runio.write", _finalize_attrs),
)


class Tracer:
    """In-memory span recorder for the wrapped layer functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, 0.0, 0.0, parent, self.run)
            self._stack.append(span.index)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every LAYERS function wherever spinmo binds it; undo on exit."""
        patched = []
        try:
            for module, attr, name, attrs in LAYERS:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
                wrapped = self.wrap(name, original, attrs)
                if path:
                    holders = [owner]
                else:
                    holders = [
                        m for n, m in list(sys.modules.items())
                        if n == "spinmo" or n.startswith("spinmo.")
                    ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            patched.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)

    def of_run(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.duration for s in spans]
    pos = {s.index: i for i, s in enumerate(spans)}
    for s in spans:
        if s.parent in pos:
            own[pos[s.parent]] -= s.duration
    return own


# unit of every per-layer metric, in report order
LAYER_UNITS = {
    "propagate.evolve_ramp.calls": "count",
    "propagate.evolve_ramp.self_s": "s",
    "propagate.kernel.steps": "count",
    "propagate.kernel.s": "s",
    "propagate.kernel.us_per_step": "us",
    "spectra.eigensolve.calls": "count",
    "spectra.eigensolve.s": "s",
    "spectra.eigensolve.ms_per_call": "ms",
    "optimizer.scan.calls": "count",
    "optimizer.scan.self_s": "s",
    "optimizer.scan.samples_needed": "count",
    "optimizer.scan.us_per_sample": "us",
    "optimizer.scan.capped_frac": "ratio",
    "optimizer.scan.flat_frac": "ratio",
    "optimizer.step.calls": "count",
    "optimizer.step.useful_frac": "ratio",
    "observables.records": "count",
    "observables.records.s": "s",
    "observables.us_per_record": "us",
    "schedule.run_schedule.self_s": "s",
    "cli.main.self_s": "s",
    "noise.traj": "count",
    "noise.traj_s.p50": "s",
    "noise.traj_s.max": "s",
    "noise.self_s": "s",
    "opensystem.traj": "count",
    "opensystem.traj_s.p50": "s",
    "opensystem.traj_s.max": "s",
    "opensystem.jumps": "count",
    "opensystem.traj.self_s": "s",
    "runio.write.s": "s",
    "runio.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
    "trace.coverage": "ratio",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation that took ``wall_s``."""
    own = self_times(spans)

    def self_s(name):
        return sum(o for s, o in zip(spans, own) if s.name == name)

    def durations(name):
        return [s.duration for s in spans if s.name == name]

    def attr(name, key):
        return [s.attrs[key] for s in spans if s.name == name]

    def p50(values):
        return statistics.median(values) if values else 0.0

    ensembles = {s.index for s in spans if s.name == "noise.ensemble"}
    noise_traj = [s.duration for s in spans if s.name == "schedule.run_schedule" and s.parent in ensembles]
    traj_s = durations("opensystem.traj")
    kernel_steps = sum(attr("propagate.kernel", "steps"))
    kernel_s = sum(durations("propagate.kernel"))
    eig_s = durations("spectra.eigensolve")
    scan_self = self_s("optimizer.scan")
    samples = sum(attr("optimizer.scan", "samples"))
    flags = attr("optimizer.scan", "flag")
    useful = attr("optimizer.step", "useful")
    n_rec = sum(attr("observables.records", "records"))
    rec_s = self_s("observables.records")
    self_sum = sum(own)
    return {
        "propagate.evolve_ramp.calls": len(durations("propagate.evolve_ramp")),
        "propagate.evolve_ramp.self_s": self_s("propagate.evolve_ramp"),
        "propagate.kernel.steps": kernel_steps,
        "propagate.kernel.s": kernel_s,
        "propagate.kernel.us_per_step": _ratio(kernel_s, kernel_steps, 1e6),
        "spectra.eigensolve.calls": len(eig_s),
        "spectra.eigensolve.s": sum(eig_s),
        "spectra.eigensolve.ms_per_call": _ratio(sum(eig_s), len(eig_s), 1e3),
        "optimizer.scan.calls": len(flags),
        "optimizer.scan.self_s": scan_self,
        "optimizer.scan.samples_needed": samples,
        "optimizer.scan.us_per_sample": _ratio(scan_self, samples, 1e6),
        "optimizer.scan.capped_frac": _ratio(flags.count("capped"), len(flags)),
        "optimizer.scan.flat_frac": _ratio(flags.count("flat"), len(flags)),
        "optimizer.step.calls": len(useful),
        "optimizer.step.useful_frac": _ratio(sum(useful), len(useful)),
        "observables.records": n_rec,
        "observables.records.s": rec_s,
        "observables.us_per_record": _ratio(rec_s, n_rec, 1e6),
        "schedule.run_schedule.self_s": self_s("schedule.run_schedule"),
        "cli.main.self_s": self_s("cli.main"),
        "noise.traj": len(noise_traj),
        "noise.traj_s.p50": p50(noise_traj),
        "noise.traj_s.max": max(noise_traj, default=0.0),
        "noise.self_s": self_s("noise.ensemble"),
        "opensystem.traj": len(traj_s),
        "opensystem.traj_s.p50": p50(traj_s),
        "opensystem.traj_s.max": max(traj_s, default=0.0),
        "opensystem.jumps": sum(attr("opensystem.traj", "jumps")),
        "opensystem.traj.self_s": self_s("opensystem.traj"),
        "runio.write.s": sum(durations("runio.write")),
        "runio.bytes_written": sum(attr("runio.write", "bytes")),
        "trace.wall_s": wall_s,
        "trace.self_sum_s": self_sum,
        "trace.coverage": _ratio(self_sum, wall_s),
    }
