"""Declarative control schedules q(t) and the machinery to run them.

A schedule is an ordered list of segments; q jumps at segment boundaries
are allowed and intentional (the multilevel-oscillation steps are
sudden).  Three segment kinds exist:

* :class:`ParabolicRamp` -- ``q(t) = q0 (1 - t/T0)^2`` traversed from
  ``t_begin`` to ``t_end`` of the model time; ``t_begin > t_end`` runs
  the same arc backwards, which is how mirrored schedules represent the
  reversed ramp without leaving this field set.
* :class:`Hold` -- constant q for a duration.
* :class:`LinearSweep` -- linear q between two endpoints.

Schedules serialize to/from plain dicts (the JSON config format) and
evaluation is exactly reproducible from the serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SectorBasis, StateVector
from .observables import (
    ObservableRecord,
    batch_records,
    reference_eigensystem,
)
from .operators import PhysicsParams, hamiltonian_sector
from .propagate import evolve_ramp
from .spectra import EigenSystem, eigensolve_tridiagonal

REFERENCE_Q0_HZ = 277.0
REFERENCE_T0_S = 0.955
REFERENCE_T_END_S = 0.9
SAMPLE_DT_DEFAULT_S = 1e-3


@dataclass(frozen=True)
class ParabolicRamp:
    q0_hz: float
    T0_s: float
    t_begin_s: float
    t_end_s: float

    def __post_init__(self):
        if self.T0_s <= 0:
            raise ValueError("T0_s must be positive")
        if self.t_begin_s == self.t_end_s:
            raise ValueError("ramp duration must be positive")

    @property
    def duration(self) -> float:
        return abs(self.t_end_s - self.t_begin_s)

    def q_hz_at(self, local_t):
        frac = np.clip(local_t / self.duration, 0.0, 1.0)
        t_model = self.t_begin_s + (self.t_end_s - self.t_begin_s) * frac
        return self.q0_hz * (1.0 - t_model / self.T0_s) ** 2

    def mirrored(self) -> "ParabolicRamp":
        return ParabolicRamp(-self.q0_hz, self.T0_s, self.t_end_s, self.t_begin_s)

    def to_dict(self) -> dict:
        return {
            "kind": "parabolic_ramp",
            "q0_hz": self.q0_hz,
            "T0_s": self.T0_s,
            "t_begin_s": self.t_begin_s,
            "t_end_s": self.t_end_s,
        }


@dataclass(frozen=True)
class Hold:
    q_hz: float
    duration_s: float

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("hold duration must be positive")

    @property
    def duration(self) -> float:
        return self.duration_s

    def q_hz_at(self, local_t):
        return self.q_hz + 0.0 * np.asarray(local_t, dtype=float)

    def mirrored(self) -> "Hold":
        return Hold(-self.q_hz, self.duration_s)

    def to_dict(self) -> dict:
        return {"kind": "hold", "q_hz": self.q_hz, "duration_s": self.duration_s}


@dataclass(frozen=True)
class LinearSweep:
    q_from_hz: float
    q_to_hz: float
    duration_s: float

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("sweep duration must be positive")

    @property
    def duration(self) -> float:
        return self.duration_s

    def q_hz_at(self, local_t):
        frac = np.clip(np.asarray(local_t, dtype=float) / self.duration_s, 0.0, 1.0)
        return self.q_from_hz + (self.q_to_hz - self.q_from_hz) * frac

    def mirrored(self) -> "LinearSweep":
        return LinearSweep(-self.q_to_hz, -self.q_from_hz, self.duration_s)

    def to_dict(self) -> dict:
        return {
            "kind": "linear_sweep",
            "q_from_hz": self.q_from_hz,
            "q_to_hz": self.q_to_hz,
            "duration_s": self.duration_s,
        }


Segment = ParabolicRamp | Hold | LinearSweep


@dataclass(frozen=True)
class Schedule:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    def boundaries(self) -> list[float]:
        """Cumulative segment end times, starting after t = 0."""
        out, t = [], 0.0
        for s in self.segments:
            t += s.duration
            out.append(t)
        return out

    def q_hz_at(self, t: float) -> float:
        """q at a global time; boundary instants take the starting segment."""
        if not self.segments:
            raise ValueError("empty schedule has no q(t)")
        t0 = 0.0
        for s in self.segments:
            if t < t0 + s.duration or s is self.segments[-1]:
                return float(s.q_hz_at(min(t - t0, s.duration)))
            t0 += s.duration
        raise AssertionError("unreachable")

    def to_dict(self) -> dict:
        return {"segments": [s.to_dict() for s in self.segments]}

    @staticmethod
    def from_dict(doc: dict) -> "Schedule":
        segs = []
        for d in doc["segments"]:
            kind = d.get("kind")
            if kind == "parabolic_ramp":
                segs.append(
                    ParabolicRamp(d["q0_hz"], d["T0_s"], d["t_begin_s"], d["t_end_s"])
                )
            elif kind == "hold":
                segs.append(Hold(d["q_hz"], d["duration_s"]))
            elif kind == "linear_sweep":
                segs.append(LinearSweep(d["q_from_hz"], d["q_to_hz"], d["duration_s"]))
            else:
                raise ValueError(f"unknown segment kind {kind!r}")
        return Schedule(tuple(segs))


def reference_ramp(
    q0_hz: float = REFERENCE_Q0_HZ,
    T0_s: float = REFERENCE_T0_S,
    t_end_s: float = REFERENCE_T_END_S,
) -> Schedule:
    """The stock slow ramp: parabolic q from q0 down to q0(1 - t_end/T0)^2."""
    return Schedule((ParabolicRamp(q0_hz, T0_s, 0.0, t_end_s),))


def mirror_schedule(s: Schedule) -> Schedule:
    """Time-reversed segment order with q -> -q."""
    return Schedule(tuple(seg.mirrored() for seg in reversed(s.segments)))


def landau_zener(q0_hz: float, duration_s: float) -> Schedule:
    """Single linear sweep from +q0 to -q0."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    return Schedule((LinearSweep(q0_hz, -q0_hz, duration_s),))


class _OffsetSegment:
    """View of a segment with a constant q offset (quasi-static field noise)."""

    def __init__(self, segment: Segment, q_offset_hz: float):
        self._segment = segment
        self._dq = q_offset_hz

    @property
    def duration(self) -> float:
        return self._segment.duration

    def q_hz_at(self, local_t):
        return self._segment.q_hz_at(local_t) + self._dq


def _sample_grid(t_a: float, t_b: float, sample_dt: float) -> np.ndarray:
    """Global sample instants strictly inside (t_a, t_b)."""
    k0 = int(np.floor(t_a / sample_dt)) + 1
    k1 = int(np.ceil(t_b / sample_dt)) - 1
    ts = np.arange(k0, k1 + 1, dtype=float) * sample_dt
    keep = (ts > t_a + 1e-12) & (ts < t_b - 1e-12)
    return ts[keep]


def run_schedule(
    state0: StateVector,
    schedule: Schedule,
    params: PhysicsParams,
    sample_dt: float | None = SAMPLE_DT_DEFAULT_S,
    reference: EigenSystem | None = None,
    q_offset_hz: float = 0.0,
    ramp_dt: float | None = None,
    k_threshold: float = 1e-3,
) -> tuple[list[ObservableRecord], StateVector]:
    """Drive a state through a schedule, recording diagnostics.

    Records are emitted at t = 0, at every multiple of ``sample_dt`` and
    at every segment boundary.  Holds evolve by exact spectral
    decomposition; ramps and sweeps take the fourth-order Magnus steps of
    :func:`~spinmo.propagate.evolve_ramp`.  ``q_offset_hz``
    shifts the whole control curve, which is how quasi-static field
    noise enters.
    """
    basis = state0.basis
    if not isinstance(basis, SectorBasis):
        raise TypeError("run_schedule drives chain-sector states")
    if reference is None:
        reference = reference_eigensystem(basis.n_atoms, basis.magnetization)

    records: list[ObservableRecord] = []
    state = state0.copy()

    def emit(states_cols, ts, qs):
        records.extend(
            batch_records(basis, states_cols, np.asarray(ts), np.asarray(qs), reference, k_threshold)
        )

    q_start = (schedule.q_hz_at(0.0) + q_offset_hz) if schedule.segments else 0.0
    emit(state.amplitudes[:, None], [0.0], [q_start])

    t_global = 0.0
    for seg in schedule.segments:
        use = _OffsetSegment(seg, q_offset_hz) if q_offset_hz else seg
        t_end = t_global + seg.duration
        interior = (
            _sample_grid(t_global, t_end, sample_dt) if sample_dt else np.empty(0)
        )
        if isinstance(seg, Hold):
            q_hold = float(use.q_hz_at(0.0))
            h = hamiltonian_sector(params.with_q(q_hold), basis)
            eig = eigensolve_tridiagonal(h)
            c0 = eig.vectors.T @ state.amplitudes
            taus = np.concatenate([interior - t_global, [seg.duration]])
            # per-column products keep each sample's floats independent of
            # how densely the hold is sampled (bitwise-superset contract)
            cols = np.column_stack(
                [eig.vectors @ (np.exp(-1j * eig.values * tau) * c0) for tau in taus]
            )
            emit(
                cols,
                np.concatenate([interior, [t_end]]),
                np.full(taus.size, q_hold),
            )
            state = StateVector(basis, cols[:, -1].copy())
        else:
            final, samples = evolve_ramp(
                state, use, params, dt=ramp_dt, sample_times=interior - t_global
            )
            if samples:
                cols = np.column_stack([sv.amplitudes for _, sv in samples])
                emit(cols, interior, [float(use.q_hz_at(tl)) for tl, _ in samples])
            emit(final.amplitudes[:, None], [t_end], [float(use.q_hz_at(seg.duration))])
            state = final
        t_global = t_end
    return records, state
