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


def _shifted_q(segment: Segment, local_t: float, q_offset_hz: float) -> float:
    """q of a segment at a local time, shifted by a quasi-static offset.
    A zero offset leaves q as it is, so the -0.0 of a mirrored zero-q hold
    keeps its sign in the records."""
    q = segment.q_hz_at(local_t)
    return float(q + q_offset_hz) if q_offset_hz else float(q)


def _sample_grid(t_a: float, t_b: float, sample_dt: float) -> np.ndarray:
    """Global sample instants strictly inside (t_a, t_b)."""
    k0 = int(np.floor(t_a / sample_dt)) + 1
    k1 = int(np.ceil(t_b / sample_dt)) - 1
    ts = np.arange(k0, k1 + 1, dtype=float) * sample_dt
    keep = (ts > t_a + 1e-12) & (ts < t_b - 1e-12)
    return ts[keep]


def run_schedule(
    state0: StateVector | list[StateVector],
    schedule: Schedule,
    params: PhysicsParams | list[PhysicsParams],
    sample_dt: float | None = SAMPLE_DT_DEFAULT_S,
    reference: EigenSystem | list[EigenSystem | None] | None = None,
    q_offset_hz: float | list[float] = 0.0,
    ramp_dt: float | None = None,
    k_threshold: float = 1e-3,
) -> tuple:
    """Drive a state through a schedule, recording diagnostics.

    Records are emitted at t = 0, at every multiple of ``sample_dt`` and
    at every segment boundary.  Holds evolve by exact spectral
    decomposition; ramps and sweeps take the fourth-order Magnus steps of
    :func:`~spinmo.propagate.evolve_ramp`.  ``q_offset_hz`` shifts the
    whole control curve, which is how quasi-static field noise enters.

    ``state0`` may also be a list of B states, with ``params`` and
    ``q_offset_hz`` (and ``reference``, unless None) lists of the same
    length.  The states then walk the schedule together: each ramp or
    sweep advances the whole batch in one :func:`evolve_ramp` call, and
    each hold evolves every state by its own eigensystem.  The result is
    then a list of record lists and a list of final states.  A single
    state is a batch of one.
    """
    single = isinstance(state0, StateVector)
    states0 = [state0] if single else list(state0)
    n_batch = len(states0)
    params = [params] if single else list(params)
    offsets = [float(q_offset_hz)] * n_batch if np.ndim(q_offset_hz) == 0 else list(q_offset_hz)
    references = [reference] * n_batch if single or reference is None else list(reference)
    if not all(isinstance(st.basis, SectorBasis) for st in states0):
        raise TypeError("run_schedule drives chain-sector states")
    refs = [
        ref if ref is not None else reference_eigensystem(st.basis.n_atoms, st.basis.magnetization)
        for ref, st in zip(references, states0)
    ]

    records: list[list[ObservableRecord]] = [[] for _ in range(n_batch)]
    states = [st.copy() for st in states0]

    def emit(b, states_cols, ts, qs):
        records[b].extend(
            batch_records(
                states[b].basis, states_cols, np.asarray(ts), np.asarray(qs), refs[b], k_threshold
            )
        )

    for b in range(n_batch):
        q_start = (schedule.q_hz_at(0.0) + offsets[b]) if schedule.segments else 0.0
        emit(b, states[b].amplitudes[:, None], [0.0], [q_start])

    t_global = 0.0
    for seg in schedule.segments:
        t_end = t_global + seg.duration
        interior = (
            _sample_grid(t_global, t_end, sample_dt) if sample_dt else np.empty(0)
        )
        if isinstance(seg, Hold):
            taus = np.concatenate([interior - t_global, [seg.duration]])
            for b in range(n_batch):
                q_hold = _shifted_q(seg, 0.0, offsets[b])
                h = hamiltonian_sector(params[b].with_q(q_hold), states[b].basis)
                cols = eigensolve_tridiagonal(h).evolve(states[b].amplitudes, taus)
                emit(b, cols, np.concatenate([interior, [t_end]]), np.full(taus.size, q_hold))
                states[b] = StateVector(states[b].basis, cols[:, -1].copy())
        else:
            finals, samples = evolve_ramp(
                states, seg, params, dt=ramp_dt, sample_times=interior - t_global,
                q_offset_hz=offsets,
            )
            for b in range(n_batch):
                if samples:
                    cols = np.column_stack([svs[b].amplitudes for _, svs in samples])
                    emit(b, cols, interior, [_shifted_q(seg, tl, offsets[b]) for tl, _ in samples])
                emit(b, finals[b].amplitudes[:, None], [t_end], [_shifted_q(seg, seg.duration, offsets[b])])
            states = finals
        t_global = t_end
    if single:
        return records[0], states[0]
    return records, states
