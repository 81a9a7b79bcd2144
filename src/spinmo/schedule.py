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

from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .basis import StateVector
from .observables import K_THRESHOLD_DEFAULT, batch_records
from .operators import PhysicsParams
from .propagate import Sector, evolve_hold, evolve_ramp

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

    def between(self, a: float, b: float) -> "ParabolicRamp":
        """The stretch over local times [a, b]: the same arc, model times scaled."""
        span = self.t_end_s - self.t_begin_s
        return ParabolicRamp(
            self.q0_hz,
            self.T0_s,
            self.t_begin_s + span * (a / self.duration),
            self.t_begin_s + span * (b / self.duration),
        )


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

    def between(self, a: float, b: float) -> "Hold":
        """The stretch over local times [a, b]."""
        return Hold(self.q_hz, b - a)


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

    def between(self, a: float, b: float) -> "LinearSweep":
        """The stretch over local times [a, b]."""
        return LinearSweep(float(self.q_hz_at(a)), float(self.q_hz_at(b)), b - a)


Segment = ParabolicRamp | Hold | LinearSweep

# the "kind" of each segment in a schedule document; its other keys are
# the segment's fields
SEGMENT_KINDS = {"parabolic_ramp": ParabolicRamp, "hold": Hold, "linear_sweep": LinearSweep}
_KIND_OF = {cls: kind for kind, cls in SEGMENT_KINDS.items()}


@dataclass(frozen=True)
class Schedule:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

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
        return {"segments": [{"kind": _KIND_OF[type(s)], **asdict(s)} for s in self.segments]}

    @staticmethod
    def from_dict(doc: dict) -> "Schedule":
        segs = []
        for d in doc["segments"]:
            fields = dict(d)
            cls = SEGMENT_KINDS.get(fields.pop("kind", None))
            if cls is None:
                raise ValueError(f"unknown segment kind {d.get('kind')!r}")
            segs.append(cls(**fields))
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


def landau_zener(q0_hz: float = REFERENCE_Q0_HZ, duration_s: float = 8.63) -> Schedule:
    """Single linear sweep from +q0 to -q0."""
    return Schedule((LinearSweep(q0_hz, -q0_hz, duration_s),))


# the schedule presets of the config, by name; a preset's keys are its arguments
PRESETS = {"reference_ramp": reference_ramp, "landau_zener": landau_zener}


def _sample_grid(t_a: float, t_b: float, sample_dt: float) -> np.ndarray:
    """Global sample instants strictly inside (t_a, t_b)."""
    k0 = int(np.floor(t_a / sample_dt)) + 1
    k1 = int(np.ceil(t_b / sample_dt)) - 1
    ts = np.arange(k0, k1 + 1, dtype=float) * sample_dt
    keep = (ts > t_a + 1e-12) & (ts < t_b - 1e-12)
    return ts[keep]


def segment_instants(seg: Segment, t_start: float, sample_dt: float | None, q_offsets) -> tuple:
    """The record instants of a segment that starts at global time
    ``t_start``: the multiples of ``sample_dt`` strictly inside it, then its
    end.  Returns them as global times, the inner ones as local times, and
    the q at each for every offset in ``q_offsets``."""
    interior = _sample_grid(t_start, t_start + seg.duration, sample_dt) if sample_dt else np.empty(0)
    local = np.append(interior - t_start, seg.duration)
    qs = [[float(seg.q_hz_at(tl) + dq) for tl in local] for dq in q_offsets]
    return np.append(interior, t_start + seg.duration), local[:-1], qs


def advance_segment(
    states: list[StateVector],
    seg: Segment,
    sectors: list[Sector],
    q_offsets: list[float],
    taus: np.ndarray,
    ramp_dt: float | None = None,
    counts: Counter | None = None,
) -> tuple[list[np.ndarray], list[StateVector]]:
    """Evolve chain-sector states through one segment.

    Returns each state's amplitude columns at the sorted local times
    ``taus`` and then at the segment's end, and the final states.
    ``sectors[b]`` is the :class:`~spinmo.propagate.Sector` of state b;
    the sectors share one params.  State b sees the control curve shifted
    by ``q_offsets[b]``.  A hold evolves each state by
    :func:`~spinmo.propagate.evolve_hold` on the block certified for the
    whole segment, in its sector's reference frame, and adds the blocks it
    solves to ``counts``; a ramp or sweep advances the batch in one
    :func:`~spinmo.propagate.evolve_ramp` call on its sectors' chains, on
    merged steps or on uniform ``ramp_dt`` long ones, with the taus on side
    branches, reads no reference and adds its steps to ``counts``.
    """
    taus = np.append(taus, seg.duration)
    if isinstance(seg, Hold):
        cols = [
            evolve_hold(st, seg.q_hz + dq, sec, taus, counts)
            for st, sec, dq in zip(states, sectors, q_offsets)
        ]
    else:
        cols = evolve_ramp(states, seg, sectors, q_offsets, taus, ramp_dt, counts)
    return cols, [StateVector(st.basis, c[:, -1].copy()) for st, c in zip(states, cols)]


def run_schedule(
    state0: StateVector | list[StateVector],
    schedule: Schedule,
    params: PhysicsParams,
    sample_dt: float | None = SAMPLE_DT_DEFAULT_S,
    q_offset_hz: float | list[float] = 0.0,
    ramp_dt: float | None = None,
    k_threshold: float = K_THRESHOLD_DEFAULT,
    t0: float = 0.0,
    counts: Counter | None = None,
) -> tuple:
    """Drive a state through a schedule, recording diagnostics.

    Records are emitted at the start, at every multiple of ``sample_dt``
    and at every segment boundary (:func:`segment_instants`).  ``t0`` is
    the global time of the start state: the schedule runs from ``t0`` on,
    and the sample instants stay multiples of ``sample_dt`` in that time.
    A schedule run in two pieces, the second from the first's end time and
    state, thus records bit for bit what one run over both pieces records.
    Each segment is one :func:`advance_segment` step.  ``q_offset_hz``
    shifts the whole control curve, which is how quasi-static field noise
    enters.

    ``state0`` may also be a list of B states, which share ``params`` and
    may have atom numbers of their own (the evolution reads N off each
    state's basis, never off ``params``), with ``q_offset_hz`` a list of
    the same length.  The states then walk the
    schedule together: each ramp or sweep advances the whole batch in one
    :func:`evolve_ramp` call, and each hold evolves every state on its own
    block.  The result is then a list of record lists and a list of
    final states.  A single state is a batch of one.  The hold blocks
    solved are added to ``counts["hold_blocks"]`` and the ramp steps taken
    to its ``"ramp_steps.*"`` keys (:func:`~spinmo.propagate.evolve_ramp`).
    """
    single = isinstance(state0, StateVector)
    states = [st.copy() for st in ([state0] if single else state0)]
    n_batch = len(states)
    offsets = [float(q_offset_hz)] * n_batch if np.ndim(q_offset_hz) == 0 else list(q_offset_hz)
    sectors = [Sector(st.basis, params) for st in states]

    def records_of(b, cols, ts, qs):
        return batch_records(states[b].basis, cols, ts, qs, sectors[b].reference, k_threshold)

    q_start = [schedule.q_hz_at(0.0) + dq if schedule.segments else 0.0 for dq in offsets]
    records = [records_of(b, st.amplitudes[:, None], [t0], [q_start[b]]) for b, st in enumerate(states)]
    t_global = t0
    for seg in schedule.segments:
        ts, taus, qs = segment_instants(seg, t_global, sample_dt, offsets)
        cols, states = advance_segment(states, seg, sectors, offsets, taus, ramp_dt, counts)
        for b in range(n_batch):
            records[b].extend(records_of(b, cols[b], ts, qs[b]))
        t_global = ts[-1]
    if single:
        return records[0], states[0]
    return records, states
