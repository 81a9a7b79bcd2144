"""Atom-loss dynamics: exact quantum-jump trajectories.

Within a fixed-(N, M) sector the no-jump generator is ``H - i*Gamma*N``
with N a scalar, so the conditional evolution is the unitary flow times
a global decay and the waiting time between loss events is exactly
exponential with rate ``2*Gamma*N``.  A trajectory therefore alternates
exact sector-local evolution with instantaneous single-atom losses
through channel m with probability ``<n_m>/N``.  A hold piece runs in
the total-spin frame on the block of reference levels certified for it
(:func:`~spinmo.propagate.evolve_hold`), as every schedule hold does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import SectorBasis, StateVector
from .errors import ConfigError
from .observables import ObservableRecord, batch_records, reference_eigensystem
from .operators import PhysicsParams
from .propagate import evolve_hold, evolve_ramp
from .schedule import Hold, LinearSweep, ParabolicRamp, Schedule, Segment


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
    terminated_empty: bool
    final_f_singlet: float
    final_l2: float
    jumps: list[JumpEvent]


@dataclass
class LossTrajectory:
    summary: TrajectorySummary
    final_state: StateVector
    records: list[ObservableRecord]
    samples: dict[str, np.ndarray] | None = None  # t, l2_t (transverse), m, n, f_singlet


def _slice_segment(seg: Segment, a: float, b: float) -> Segment:
    """Sub-segment covering local times [a, b] of ``seg``."""
    if isinstance(seg, Hold):
        return Hold(seg.q_hz, b - a)
    if isinstance(seg, LinearSweep):
        return LinearSweep(float(seg.q_hz_at(a)), float(seg.q_hz_at(b)), b - a)
    if isinstance(seg, ParabolicRamp):
        frac_a = a / seg.duration
        frac_b = b / seg.duration
        span = seg.t_end_s - seg.t_begin_s
        return ParabolicRamp(
            seg.q0_hz,
            seg.T0_s,
            seg.t_begin_s + span * frac_a,
            seg.t_begin_s + span * frac_b,
        )
    raise TypeError(f"unsupported segment {type(seg)!r}")


def _apply_loss(state: StateVector, channel: int) -> StateVector:
    """Annihilate one atom in Zeeman component ``channel`` and renormalize."""
    basis: SectorBasis = state.basis
    n, m = basis.n_atoms, basis.magnetization
    new_basis = SectorBasis(n - 1, m - channel)
    out = np.zeros(new_basis.size, dtype=np.complex128)
    if channel == 0:
        w = np.sqrt(basis.n_zero.astype(float))
        src_nm, src_np = basis.n_minus, basis.n_plus
    elif channel == 1:
        w = np.sqrt(basis.n_plus.astype(float))
        src_nm, src_np = basis.n_minus, basis.n_plus - 1
    else:
        w = np.sqrt(basis.n_minus.astype(float))
        src_nm, src_np = basis.n_minus - 1, basis.n_plus
    # each source level with w != 0 lands on its own target level
    live = w != 0.0
    out[np.minimum(src_nm, src_np)[live]] += w[live] * state.amplitudes[live]
    nrm = np.linalg.norm(out)
    if nrm == 0.0:
        raise ArithmeticError("loss channel annihilated the state")
    return StateVector(new_basis, out / nrm)


def _channel_probabilities(state: StateVector) -> np.ndarray:
    """(p_minus, p_zero, p_plus): mean occupation fractions; sums to 1."""
    basis = state.basis
    dens = np.abs(state.amplitudes) ** 2
    n = basis.n_atoms
    return np.array(
        [
            float(basis.n_minus @ dens) / n,
            float(basis.n_zero @ dens) / n,
            float(basis.n_plus @ dens) / n,
        ]
    )


def _evolve_sector(
    state: StateVector,
    seg: Segment,
    a: float,
    b: float,
    params: PhysicsParams,
    q_offset_hz: float,
) -> StateVector:
    """Unitary evolution through local times [a, b] of one segment; a hold
    piece runs on its own certified block (:func:`evolve_hold`)."""
    if b <= a:
        return state
    if isinstance(seg, Hold):
        basis = state.basis
        ref = reference_eigensystem(basis.n_atoms, basis.magnetization)
        return StateVector(basis, evolve_hold(state, seg.q_hz + q_offset_hz, params, ref, [b - a])[:, 0])
    final, _ = evolve_ramp(state, _slice_segment(seg, a, b), params, q_offset_hz=q_offset_hz)
    return final


def _record(state: StateVector, t: float, q: float) -> ObservableRecord:
    """The record of one sector state.  It calls :func:`batch_records`
    directly, not through :func:`~spinmo.observables.record_for`, so that
    each record is one call of the record builder in a traced run."""
    basis = state.basis
    ref = reference_eigensystem(basis.n_atoms, basis.magnetization)
    return batch_records(basis, state.amplitudes[:, None], [t], [q], ref)[0]


def gillespie_trajectory(
    state0: StateVector,
    schedule: Schedule,
    params: PhysicsParams,
    cfg: LossConfig,
    index: int = 0,
    sample_dt: float | None = None,
    q_offset_hz: float = 0.0,
) -> LossTrajectory:
    """One quantum-jump unraveling of the loss master equation.

    Between jumps the normalized state follows the loss-free unitary
    flow exactly; jump instants are drawn from the exponential waiting
    time with rate ``2*Gamma*N`` and the lost atom's Zeeman component is
    chosen with probability ``<n_m>/N``.
    """
    if not isinstance(state0.basis, SectorBasis):
        raise TypeError("loss trajectories run on chain sectors")
    rng = np.random.default_rng([cfg.seed, 7, index])
    state = state0.copy()
    gamma = cfg.gamma_per_s

    jumps: list[JumpEvent] = []
    records: list[ObservableRecord] = []
    ms: list[int] = []  # the magnetization of each record's state
    recorded = None     # the state of the last record

    def sample(t_s: float, q_s: float) -> None:
        nonlocal recorded
        records.append(_record(state, t_s, q_s))
        ms.append(state.basis.magnetization)
        recorded = state

    terminated = False
    t = 0.0
    if sample_dt:
        sample(0.0, schedule.q_hz_at(0.0) + q_offset_hz)

    next_jump = (
        t + rng.exponential(1.0 / (2.0 * gamma * state.basis.n_atoms))
        if gamma > 0
        else math.inf
    )
    next_sample = sample_dt if sample_dt else math.inf

    t_seg_start = 0.0
    for seg in schedule.segments:
        t_seg_end = t_seg_start + seg.duration
        while t < t_seg_end - 1e-15:
            t_next = min(next_jump, next_sample, t_seg_end)
            # an empty trajectory does not evolve but is still sampled, so
            # that every trajectory has a record at every sample time
            if not terminated:
                state = _evolve_sector(
                    state, seg, t - t_seg_start, t_next - t_seg_start, params, q_offset_hz
                )
            t = t_next
            if t == next_jump:
                probs = _channel_probabilities(state)
                channel = int(rng.choice([-1, 0, 1], p=probs))
                jumps.append(JumpEvent(t=t, channel=channel, n_before=state.basis.n_atoms))
                state = _apply_loss(state, channel)
                n_now = state.basis.n_atoms
                if n_now == 0:
                    terminated = True
                    next_jump = math.inf
                else:
                    next_jump = t + rng.exponential(1.0 / (2.0 * gamma * n_now))
            if t == next_sample:
                sample(t, float(seg.q_hz_at(t - t_seg_start)) + q_offset_hz)
                next_sample = next_sample + sample_dt
        t_seg_start = t_seg_end
        if sample_dt and (not records or abs(records[-1].t - t_seg_end) > 1e-12):
            sample(t_seg_end, float(seg.q_hz_at(seg.duration)) + q_offset_hz)

    basis = state.basis
    # the summary reads the last record when it holds the final state
    final = records[-1] if recorded is state else _record(state, t, 0.0)
    summary = TrajectorySummary(
        index=index,
        final_n=basis.n_atoms,
        final_m=basis.magnetization,
        n_jumps=len(jumps),
        terminated_empty=terminated,
        final_f_singlet=final.F_singlet,
        final_l2=final.xi2 * final.n_current + basis.magnetization**2,
        jumps=jumps,
    )
    samples = None
    if records:
        # per-sample ensemble ingredients: the record's xi2 already holds
        # (<L^2> - M^2)/N of its sector; recover the transverse variance sum
        # and keep the magnetization trace alongside
        samples = {
            "t": np.array([r.t for r in records]),
            "l2_t": np.array([r.xi2 * r.n_current for r in records]),
            "m": np.array(ms, dtype=float),
            "n": np.array([r.n_current for r in records]),
            "f_singlet": np.array([r.F_singlet for r in records]),
        }
    return LossTrajectory(summary=summary, final_state=state, records=records, samples=samples)


@dataclass
class LossStudyResult:
    times: np.ndarray
    xi2: np.ndarray
    xi2_stderr: np.ndarray
    n_mean: np.ndarray
    n_stderr: np.ndarray
    f_singlet_mean: np.ndarray
    f_singlet_stderr: np.ndarray
    summaries: list[TrajectorySummary]

    @property
    def unselected_final_f_singlet(self) -> float:
        return float(np.mean([s.final_f_singlet for s in self.summaries]))


def run_loss_study(
    state0: StateVector,
    schedule: Schedule,
    params: PhysicsParams,
    cfg: LossConfig,
    sample_dt: float = 1e-2,
    dephasing: "NoiseConfig | None" = None,
) -> LossStudyResult:
    """Trajectory ensemble of the loss process, optionally with dephasing draws."""
    from .noise import NoiseConfig, mean_stderr, q_offset, sample_trajectory_config

    samples = []
    summaries = []
    for i in range(cfg.n_traj):
        dq = 0.0
        if dephasing is not None:
            draw = sample_trajectory_config(dephasing, params.n_atoms, i)
            dq = q_offset(draw.delta_bz_gauss, dephasing)
        traj = gillespie_trajectory(
            state0, schedule, params, cfg, index=i, sample_dt=sample_dt, q_offset_hz=dq
        )
        samples.append(traj.samples)
        summaries.append(traj.summary)

    def stacked(key):
        return np.stack([s[key] for s in samples])

    l2_mean, l2_stderr = mean_stderr(stacked("l2_t"))
    n_mean, n_stderr = mean_stderr(stacked("n"))
    f_mean, f_stderr = mean_stderr(stacked("f_singlet"))

    def per_atom(x):
        # xi2 is undefined (nan) where no trajectory keeps an atom
        return np.divide(x, n_mean, out=np.full_like(x, np.nan), where=n_mean > 0)

    # ensemble moments: transverse variances from per-traj (<L^2> - M^2),
    # longitudinal from the spread of M across trajectories
    return LossStudyResult(
        times=samples[0]["t"],
        xi2=per_atom(l2_mean + stacked("m").var(axis=0)),
        xi2_stderr=per_atom(l2_stderr),
        n_mean=n_mean,
        n_stderr=n_stderr,
        f_singlet_mean=f_mean,
        f_singlet_stderr=f_stderr,
        summaries=summaries,
    )


def postselect(summaries: list[TrajectorySummary], predicate) -> dict:
    """Aggregate final-state diagnostics over the surviving subset."""
    keep = [s for s in summaries if predicate(s)]
    result = {
        "n_selected": len(keep),
        "n_total": len(summaries),
        "survival_fraction": len(keep) / len(summaries) if summaries else 0.0,
    }
    if not keep:
        result["empty"] = True
        return result
    f = np.array([s.final_f_singlet for s in keep])
    l2 = np.array([s.final_l2 for s in keep])
    m = np.array([float(s.final_m) for s in keep])
    n = np.array([float(s.final_n) for s in keep])
    n_mean = n.mean()
    result["final_f_singlet_mean"] = float(f.mean())
    result["final_f_singlet_stderr"] = float(f.std(ddof=1) / math.sqrt(len(keep))) if len(keep) > 1 else 0.0
    # xi2 is undefined (null) when no selected trajectory keeps an atom
    result["final_xi2"] = (
        float(((l2 - m**2).mean() + (np.mean(m**2) - m.mean() ** 2)) / n_mean) if n_mean else None
    )
    result["final_n_mean"] = float(n_mean)
    return result
