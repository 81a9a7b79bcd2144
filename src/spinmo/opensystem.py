"""Atom-loss dynamics: exact quantum-jump trajectories.

Within a fixed-(N, M) sector the no-jump generator is ``H - i*Gamma*N``
with N a scalar, so the conditional evolution is the unitary flow times
a global decay and the waiting time between loss events is exactly
exponential with rate ``2*Gamma*N``.  A trajectory therefore alternates
exact sector-local evolution with instantaneous single-atom losses
through channel m with probability ``<n_m>/N``.  The pieces between
jumps walk the schedule through the segment step of the schedule runner
(:func:`~spinmo.schedule.advance_segment`), so a piece evolves exactly as
the same stretch of :func:`~spinmo.schedule.run_schedule` does.

A loss run keeps one table of the (N, M) sectors its trajectories reach
(:class:`~spinmo.propagate.Sector`), so a sector's basis and ramp chain
are built once per run, and its reference eigensystem once, and only if
a record or a hold reads it: a jump inside a ramp needs none.
"""

from __future__ import annotations

import bisect
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .basis import SectorBasis, StateVector
from .errors import ConfigError
from .noise import Aggregate, NoiseConfig, aggregate, q_offset, sample_trajectory_config
from .noise import trajectory_curves
from .observables import ObservableRecord, batch_records
from .operators import PhysicsParams
from .propagate import Sector
from .schedule import Schedule, advance_segment, segment_instants


@dataclass(frozen=True)
class LossConfig:
    gamma_per_s: float = 0.005
    n_traj: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.gamma_per_s < 0:
            raise ConfigError("gamma_per_s must be >= 0")
        if self.n_traj < 1:
            raise ConfigError("n_traj must be >= 1")


@dataclass(frozen=True)
class JumpEvent:
    t: float
    channel: int        # magnetic quantum number of the lost atom: -1, 0, +1
    n_before: int


@dataclass
class TrajectorySummary:
    index: int
    final_n: int
    final_m: int
    n_jumps: int
    final: ObservableRecord  # the record of the final state
    jumps: list[JumpEvent]


@dataclass
class LossTrajectory:
    summary: TrajectorySummary
    final_state: StateVector
    records: list[ObservableRecord]
    magnetizations: list[int]  # the M of each record's sector


class _Sectors(dict):
    """The chain sectors of one loss run by (N, M), each made when first
    looked up, for the run's ``params``."""

    def __init__(self, params: PhysicsParams):
        super().__init__()
        self.params = params

    def __missing__(self, key: tuple[int, int]) -> Sector:
        self[key] = sector = Sector(SectorBasis(*key), self.params)
        return sector


def _occupations(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The occupation array of each loss channel, at index channel + 1."""
    return basis.n_minus, basis.n_zero, basis.n_plus


def _apply_loss(state: StateVector, channel: int, sectors: _Sectors | None = None) -> StateVector:
    """Annihilate one atom in Zeeman component ``channel`` and renormalize:
    a level, weighted by the root of its occupation (:func:`_occupations`),
    moves to level ``min(n_minus - [channel == -1], n_plus - [channel == +1])``
    of sector (N - 1, M - channel), whose basis comes from ``sectors`` when given."""
    basis: SectorBasis = state.basis
    n, m = basis.n_atoms, basis.magnetization
    w = np.sqrt(_occupations(basis)[channel + 1].astype(float))
    lost = w * state.amplitudes
    if not lost.any():  # an empty channel may have no target sector
        raise ArithmeticError("loss channel annihilated the state")
    target = (n - 1, m - channel)
    new_basis = SectorBasis(*target) if sectors is None else sectors[target].basis
    out = np.zeros(new_basis.size, dtype=np.complex128)
    # each source level with w != 0 lands on its own target level
    live = w != 0.0
    out[np.minimum(basis.n_minus - (channel == -1), basis.n_plus - (channel == 1))[live]] = lost[live]
    return StateVector(new_basis, out / np.linalg.norm(out))


def _channel_probabilities(state: StateVector) -> np.ndarray:
    """(p_minus, p_zero, p_plus): mean occupation fractions; sums to 1."""
    dens = np.abs(state.amplitudes) ** 2
    return np.array([float(occ @ dens) for occ in _occupations(state.basis)]) / state.basis.n_atoms


def _draw_channel(p: np.ndarray, u: float) -> int:
    """The channel (-1, 0 or +1) that probabilities ``p`` give a uniform
    ``u`` in [0, 1) by inverse CDF: the step and the one uniform of
    ``Generator.choice([-1, 0, 1], p=p)``, which it matches draw for draw.
    A channel of probability 0 is never drawn."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right")) - 1


def gillespie_trajectory(
    state0: StateVector,
    schedule: Schedule,
    params: PhysicsParams,
    cfg: LossConfig,
    index: int = 0,
    sample_dt: float | None = None,
    q_offset_hz: float = 0.0,
    ramp_dt: float | None = None,
    sectors: _Sectors | None = None,
    counts: Counter | None = None,
) -> LossTrajectory:
    """One quantum-jump unraveling of the loss master equation.

    Between jumps the normalized state follows the loss-free unitary
    flow exactly; jump instants are drawn from the exponential waiting
    time with rate ``2*Gamma*N`` and the lost atom's Zeeman component is
    chosen with probability ``<n_m>/N``.  Each piece between jumps is one
    :func:`~spinmo.schedule.advance_segment` step.  The records sit at the
    instants of :func:`~spinmo.schedule.run_schedule`; an instant in
    [t, t_next) goes to the piece that starts at t, so a record at a jump
    holds the post-jump state.  An emptied trajectory no longer evolves
    but is still recorded.

    ``sectors`` is the run's sector table for ``params``
    (:func:`run_loss_study`); without one the trajectory keeps its own.
    The hold blocks solved and the ramp steps taken are added to
    ``counts`` (:func:`~spinmo.schedule.run_schedule`).
    """
    rng = np.random.default_rng([cfg.seed, 7, index])
    sectors = _Sectors(params) if sectors is None else sectors
    state = state0.copy()
    sector = sectors[state.basis.n_atoms, state.basis.magnetization]
    gamma = cfg.gamma_per_s
    jumps: list[JumpEvent] = []
    records: list[ObservableRecord] = []
    magnetizations: list[int] = []

    def emit(cols, ts, qs):
        basis = state.basis
        records.extend(batch_records(basis, cols, ts, qs, sector.reference))
        magnetizations.extend([basis.magnetization] * len(ts))

    q_start = schedule.q_hz_at(0.0) + q_offset_hz if schedule.segments else 0.0
    emit(state.amplitudes[:, None], [0.0], [q_start])
    next_jump = rng.exponential(1.0 / (2.0 * gamma * state.basis.n_atoms)) if gamma > 0 else math.inf
    t_seg = 0.0
    for seg in schedule.segments:
        ts, _, (qs,) = segment_instants(seg, t_seg, sample_dt, [q_offset_hz])
        grid, inner = ts.tolist(), ts.size - 1
        t, i = t_seg, 0  # the piece's start and its first instant
        while True:
            last = next_jump >= grid[-1]
            k = inner if last else bisect.bisect_left(grid, next_jump, i, inner)
            n_rec = k - i + last  # the instants in [t, next_jump), and the end if last
            if state.basis.n_atoms == 0 or next_jump == t:
                cols = np.repeat(state.amplitudes[:, None], n_rec, axis=1)
            else:
                piece = (
                    seg if last and t == t_seg
                    else seg.between(t - t_seg, seg.duration if last else next_jump - t_seg)
                )
                (cols,), (state,) = advance_segment(
                    [state], piece, [sector], [q_offset_hz], ts[i:k] - t, ramp_dt, counts
                )
            if n_rec:
                emit(cols[:, :n_rec], grid[i : i + n_rec], qs[i : i + n_rec])
            if last:
                break
            t, i = next_jump, k
            channel = _draw_channel(_channel_probabilities(state), rng.random())
            jumps.append(JumpEvent(t=t, channel=channel, n_before=state.basis.n_atoms))
            state = _apply_loss(state, channel, sectors)
            n_now = state.basis.n_atoms
            sector = sectors[n_now, state.basis.magnetization]
            next_jump = t + rng.exponential(1.0 / (2.0 * gamma * n_now)) if n_now else math.inf
        t_seg = grid[-1]

    basis = state.basis
    summary = TrajectorySummary(
        index=index,
        final_n=basis.n_atoms,
        final_m=basis.magnetization,
        n_jumps=len(jumps),
        final=records[-1],  # the last record holds the final state
        jumps=jumps,
    )
    return LossTrajectory(summary, state, records, magnetizations)


@dataclass
class LossStudyResult:
    times: np.ndarray
    aggregate: Aggregate  # over every trajectory, by :func:`~spinmo.noise.aggregate`
    summaries: list[TrajectorySummary]
    trajectory_wall_s: np.ndarray  # the wall time of each trajectory


def run_loss_study(
    state0: StateVector,
    schedule: Schedule,
    params: PhysicsParams,
    cfg: LossConfig,
    sample_dt: float | None = 1e-2,
    dephasing: NoiseConfig | None = None,
    ramp_dt: float | None = None,
    counts: Counter | None = None,
) -> LossStudyResult:
    """Trajectory ensemble of the loss process, optionally with dephasing draws.

    Every trajectory starts from ``state0``.  With ``dephasing``,
    trajectory i takes the field offset of noise draw i
    (:func:`~spinmo.noise.sample_trajectory_config`) but not its atom
    number: the drawn N is never used, so a loss run has no atom-number
    shot noise.  The trajectories share one sector table, which is dropped
    on return, and are aggregated by :func:`~spinmo.noise.aggregate`.
    The trajectories, their jumps, the reference eigensystems solved, the
    hold blocks solved and the ramp steps taken are added to ``counts``.
    """
    curves = []
    summaries = []
    sectors = _Sectors(params)
    clock = [time.perf_counter()]
    for i in range(cfg.n_traj):
        dq = 0.0
        if dephasing is not None:
            draw = sample_trajectory_config(dephasing, params.n_atoms, i)
            dq = q_offset(draw.delta_bz_gauss, dephasing)
        traj = gillespie_trajectory(
            state0, schedule, params, cfg, index=i, sample_dt=sample_dt, q_offset_hz=dq,
            ramp_dt=ramp_dt, sectors=sectors, counts=counts,
        )
        curves.append(trajectory_curves(traj.records, traj.magnetizations))
        summaries.append(traj.summary)
        clock.append(time.perf_counter())
    if counts is not None:
        counts.update(
            trajectories=cfg.n_traj,
            jumps=sum(s.n_jumps for s in summaries),
            # the chains of M and -M share one reference solve
            reference_eigensystems=len(
                {(na, abs(ma)) for (na, ma), sec in sectors.items() if "reference" in vars(sec)}
            ),
        )
    # every trajectory records at the same instants
    times = np.array([r.t for r in traj.records])
    return LossStudyResult(times, aggregate(curves), summaries, np.diff(clock))


def postselect(summaries: list[TrajectorySummary], predicate) -> dict:
    """Final-state diagnostics over the trajectories that ``predicate``
    selects: :func:`~spinmo.noise.aggregate` of their final records."""
    keep = [s for s in summaries if predicate(s)]
    result = {
        "n_selected": len(keep),
        "n_total": len(summaries),
        "survival_fraction": len(keep) / len(summaries) if summaries else 0.0,
    }
    if not keep:
        result["empty"] = True
        return result
    agg = aggregate([trajectory_curves([s.final], [s.final_m]) for s in keep])
    n_mean = float(agg.mean["n_current"][0])
    result["final_f_singlet_mean"] = float(agg.mean["F_singlet"][0])
    result["final_f_singlet_stderr"] = float(agg.stderr["F_singlet"][0])
    # xi2 is undefined (null) when no selected trajectory keeps an atom
    result["final_xi2"] = float(agg.xi2[0]) if n_mean else None
    result["final_n_mean"] = n_mean
    return result
