"""Atom-loss dynamics: exact quantum-jump trajectories plus a dense oracle.

Within a fixed-(N, M) sector the no-jump generator is ``H - i*Gamma*N``
with N a scalar, so the conditional evolution is the unitary flow times
a global decay and the waiting time between loss events is exactly
exponential with rate ``2*Gamma*N``.  A trajectory therefore alternates
exact sector-local evolution with instantaneous single-atom losses
through channel m with probability ``<n_m>/N``.  The dense
density-matrix integrator on the direct sum of all atom-number sectors
validates the unraveling at small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import FullBasis, SectorBasis, StateVector
from .errors import ConfigError, ResourceCapError
from .observables import ObservableRecord, batch_records, reference_eigensystem, singlet_amplitudes
from .operators import PhysicsParams, hamiltonian_sector, l2_full, l2_sector, n0_full
from .propagate import evolve_ramp
from .schedule import Hold, LinearSweep, ParabolicRamp, Schedule, Segment
from .spectra import EigenSystem, eigensolve_tridiagonal

DENSE_N_CAP = 8


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
    final_n0: float
    jumps: list[JumpEvent]


@dataclass
class LossTrajectory:
    summary: TrajectorySummary
    states: list[tuple[float, StateVector]]   # (t, state) at jump boundaries
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
    for k in range(basis.size):
        if w[k] == 0.0:
            continue
        kp = int(min(src_nm[k], src_np[k]))
        out[kp] += w[k] * state.amplitudes[k]
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
    eigs: dict[tuple[int, int, float], EigenSystem],
    q_offset_hz: float,
) -> StateVector:
    """Unitary evolution through local times [a, b] of one segment; a hold
    reuses its sector's eigensystem from ``eigs``, keyed by (N, M, q)."""
    if b <= a:
        return state
    if isinstance(seg, Hold):
        basis = state.basis
        q = seg.q_hz + q_offset_hz
        key = (basis.n_atoms, basis.magnetization, q)
        eig = eigs.get(key)
        if eig is None:
            eig = eigs[key] = eigensolve_tridiagonal(hamiltonian_sector(params.with_q(q), basis))
        return StateVector(basis, eig.evolve(state.amplitudes, [b - a])[:, 0])
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
    keep_states: bool = False,
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
    eigs: dict[tuple[int, int, float], EigenSystem] = {}
    state = state0.copy()
    gamma = cfg.gamma_per_s

    jumps: list[JumpEvent] = []
    states: list[tuple[float, StateVector]] = []
    records: list[ObservableRecord] = []
    terminated = False

    t = 0.0
    if sample_dt:
        records.append(_record(state, 0.0, schedule.q_hz_at(0.0) + q_offset_hz))
    if keep_states:
        states.append((0.0, state.copy()))

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
                    state, seg, t - t_seg_start, t_next - t_seg_start, params, eigs, q_offset_hz
                )
            t = t_next
            if t == next_jump:
                probs = _channel_probabilities(state)
                channel = int(rng.choice([-1, 0, 1], p=probs))
                jumps.append(JumpEvent(t=t, channel=channel, n_before=state.basis.n_atoms))
                state = _apply_loss(state, channel)
                if keep_states:
                    states.append((t, state.copy()))
                n_now = state.basis.n_atoms
                if n_now == 0:
                    terminated = True
                    next_jump = math.inf
                else:
                    next_jump = t + rng.exponential(1.0 / (2.0 * gamma * n_now))
            if t == next_sample:
                records.append(
                    _record(state, t, float(seg.q_hz_at(t - t_seg_start)) + q_offset_hz)
                )
                next_sample = next_sample + sample_dt
        t_seg_start = t_seg_end
        if sample_dt and (not records or abs(records[-1].t - t_seg_end) > 1e-12):
            q_b = float(seg.q_hz_at(seg.duration)) + q_offset_hz
            records.append(_record(state, t_seg_end, q_b))

    basis = state.basis
    m = basis.magnetization
    l2e = l2_sector(basis.n_atoms, m).expectation(state.amplitudes) if basis.n_atoms else 0.0
    dens = np.abs(state.amplitudes) ** 2
    summary = TrajectorySummary(
        index=index,
        final_n=basis.n_atoms,
        final_m=m,
        n_jumps=len(jumps),
        terminated_empty=terminated,
        final_f_singlet=_record(state, t, 0.0).F_singlet,
        final_l2=float(l2e),
        final_n0=float(basis.n_zero @ dens) if basis.n_atoms else 0.0,
        jumps=jumps,
    )
    if keep_states:
        states.append((t, state.copy()))
    samples = None
    if records:
        # per-sample ensemble ingredients: the record's xi2 already holds
        # (<L^2> - M^2)/N of its sector; recover the transverse variance sum
        # and keep the magnetization trace alongside
        ms = np.empty(len(records))
        pos = 0
        m_now = 0
        jump_iter = iter(jumps)
        nxt = next(jump_iter, None)
        for ridx, r in enumerate(records):
            while nxt is not None and nxt.t <= r.t + 1e-15:
                m_now -= nxt.channel
                nxt = next(jump_iter, None)
            ms[ridx] = m_now
        samples = {
            "t": np.array([r.t for r in records]),
            "l2_t": np.array([r.xi2 * r.n_current for r in records]),
            "m": ms + state0.basis.magnetization,
            "n": np.array([r.n_current for r in records]),
            "f_singlet": np.array([r.F_singlet for r in records]),
        }
    return LossTrajectory(summary=summary, states=states, records=records, samples=samples)


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


class DenseLindblad:
    """RK4 integrator for the loss master equation on the direct sum of
    all atom-number sectors up to the initial N (oracle for trajectories)."""

    def __init__(self, n_max: int, params: PhysicsParams, gamma_per_s: float):
        if n_max > DENSE_N_CAP:
            raise ResourceCapError(f"dense oracle capped at N={DENSE_N_CAP}")
        self.n_max = n_max
        self.params = params
        self.gamma = gamma_per_s
        self.bases = []
        self.offsets = [0]
        for n in range(n_max + 1):
            b = FullBasis(n) if n > 0 else None
            self.bases.append(b)
            self.offsets.append(self.offsets[-1] + (b.size if b else 1))
        self.dim = self.offsets[-1]
        self._jump_ops = self._build_jumps()

    def block(self, n: int) -> slice:
        return slice(self.offsets[n], self.offsets[n + 1])

    def _build_jumps(self) -> list[np.ndarray]:
        """Dense a_m over the direct sum, m in (-1, 0, +1)."""
        ops = []
        for mi, channel in enumerate((-1, 0, 1)):
            op = np.zeros((self.dim, self.dim))
            for n in range(1, self.n_max + 1):
                src = self.bases[n]
                dst = self.bases[n - 1]
                for i, (nm, n0, npl) in enumerate(src.states):
                    occ = (nm, n0, npl)[mi]
                    if occ == 0:
                        continue
                    tgt = list((nm, n0, npl))
                    tgt[mi] -= 1
                    if n - 1 == 0:
                        j = 0
                    else:
                        j = dst.index_of(tuple(tgt))
                    op[self.offsets[n - 1] + j, self.offsets[n] + i] = math.sqrt(occ)
            ops.append(op)
        return ops

    def hamiltonian(self, q_hz: float) -> np.ndarray:
        p = self.params
        h = np.zeros((self.dim, self.dim))
        for n in range(1, self.n_max + 1):
            basis = self.bases[n]
            blk = self.block(n)
            h_n = (
                p.factor * p.c2p_hz / n * l2_full(basis).toarray()
                - p.factor * q_hz * np.diag(n0_full(basis))
            )
            h[blk, blk] = h_n
        return h

    def initial_density(self, state: StateVector) -> np.ndarray:
        basis = state.basis
        rho = np.zeros((self.dim, self.dim), dtype=np.complex128)
        n = basis.n_atoms
        blk = self.block(n)
        if isinstance(basis, FullBasis):
            vec = state.amplitudes
        else:
            full = self.bases[n]
            vec = np.zeros(full.size, dtype=np.complex128)
            sub = full.block(basis.magnetization)
            vec[sub] = state.amplitudes
        rho[blk, blk] = np.outer(vec, vec.conj())
        return rho

    def run(
        self,
        state0: StateVector,
        schedule: Schedule,
        dt: float | None = None,
        sample_dt: float | None = None,
    ) -> list[tuple[float, np.ndarray]]:
        """Integrate the master equation through hold segments; returns (t, rho).

        Works in the interaction picture of the (constant within a hold)
        Hamiltonian: the coherent rotation is applied exactly through
        eigenphases and RK4 only integrates the Gamma-small dissipator
        with the oscillating jump operators, which keeps the density
        matrix positive to machine accuracy at modest step counts.
        """
        for seg in schedule.segments:
            if not isinstance(seg, Hold):
                raise ConfigError("the dense oracle integrates hold schedules only")
        rho = self.initial_density(state0)
        out = [(0.0, rho.copy())]
        t_global = 0.0
        for seg in schedule.segments:
            h = self.hamiltonian(seg.q_hz)
            evals, vecs = np.linalg.eigh(h)
            # eigenframe: sigma = V^dag rho V; alpha_m = V^dag a_m V
            sigma = vecs.conj().T @ rho @ vecs
            alphas = [vecs.conj().T @ a @ vecs for a in self._jump_ops]
            omega = np.subtract.outer(evals, evals)  # lambda_i - lambda_j
            spread = float(evals.max() - evals.min())
            dt0 = dt if dt is not None else min(
                5e-3, (2.0 * math.pi / (24.0 * spread)) if spread > 0 else 5e-3
            )
            n_steps = max(1, math.ceil(seg.duration / dt0))
            dt0 = seg.duration / n_steps
            g = self.gamma

            def dissipator(sig, tau):
                ph = np.exp(1j * omega * tau)
                outp = np.zeros_like(sig)
                for al in alphas:
                    at = al * ph
                    atd = at.conj().T
                    outp += 2.0 * at @ sig @ atd - atd @ (at @ sig) - (sig @ atd) @ at
                return g * outp

            for s in range(n_steps):
                tau = s * dt0
                k1 = dissipator(sigma, tau)
                k2 = dissipator(sigma + 0.5 * dt0 * k1, tau + 0.5 * dt0)
                k3 = dissipator(sigma + 0.5 * dt0 * k2, tau + 0.5 * dt0)
                k4 = dissipator(sigma + dt0 * k3, tau + dt0)
                sigma = sigma + (dt0 / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
                if sample_dt and (s + 1) % max(1, round(sample_dt / dt0)) == 0:
                    # undo the local interaction picture at tau = (s+1)*dt0
                    ph = np.exp(-1j * evals * ((s + 1) * dt0))
                    rho_t = (vecs * ph) @ sigma @ (vecs * ph).conj().T
                    out.append((t_global + (s + 1) * dt0, rho_t))
            ph = np.exp(-1j * evals * seg.duration)
            rho = (vecs * ph) @ sigma @ (vecs * ph).conj().T
            t_global += seg.duration
        if not sample_dt:
            out.append((t_global, rho.copy()))
        return out

    def observables(self, rho: np.ndarray) -> dict:
        """<n0>, xi^2, F_singlet and <N> of a direct-sum density matrix."""
        from .operators import lx_full, ly_full, lz_full

        tr = float(np.real(np.trace(rho)))
        n0e = 0.0
        ne = 0.0
        mom = np.zeros(6)  # lx, ly, lz, lx2, ly2, lz2
        fs = 0.0
        for n in range(self.n_max + 1):
            blk = self.block(n)
            sub = rho[blk, blk]
            if n == 0:
                continue
            basis = self.bases[n]
            n0e += float(np.real(np.trace(sub @ np.diag(n0_full(basis)))))
            ne += n * float(np.real(np.trace(sub)))
            lx, ly = lx_full(basis).toarray(), ly_full(basis).toarray()
            lz = np.diag(lz_full(basis))
            mom[0] += float(np.real(np.trace(sub @ lx)))
            mom[1] += float(np.real(np.trace(sub @ ly)))
            mom[2] += float(np.real(np.trace(sub @ lz)))
            mom[3] += float(np.real(np.trace(sub @ (lx @ lx))))
            mom[4] += float(np.real(np.trace(sub @ (ly @ ly))))
            mom[5] += float(np.real(np.trace(sub @ (lz @ lz))))
            if n % 2 == 0:
                target = singlet_amplitudes(n)
                full = self.bases[n]
                vec = np.zeros(full.size, dtype=np.complex128)
                vec[full.block(0)] = target
                fs += float(np.real(vec.conj() @ sub @ vec))
        xi2 = (mom[3] - mom[0] ** 2 + mom[4] - mom[1] ** 2 + mom[5] - mom[2] ** 2) / max(ne, 1e-300)
        return {"trace": tr, "n0": n0e, "n": ne, "xi2": xi2, "f_singlet": fs}
