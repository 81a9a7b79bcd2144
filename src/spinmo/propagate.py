"""Time evolution under constant and time-dependent Hamiltonians.

Constant-q evolution is always done by exact spectral decomposition
(chain sectors) or a Krylov-style exponential action (full basis), never
by time stepping, so the optimizer's inner loop carries no integrator
error.  Ramps and sweeps use classical RK4 on the mean-energy-shifted
generator; the shift is a pure global phase (tracked and restored) and
lets the step size follow the physical energy spread of the state
instead of the absolute scale of the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from . import _kernels
from .basis import FullBasis, SectorBasis, StateVector
from .errors import ConvergenceError, StepSizeError
from .operators import (
    ExtendedParams,
    PhysicsParams,
    TriMatrix,
    hamiltonian_sector,
    l2_sector,
    lx_full,
    ly_full,
    n0_full,
    l2_full,
)
from .spectra import EigenSystem, eigensolve_tridiagonal

MAX_DT_S = 2.5e-5        # never step coarser than this during ramps; at this
                         # ceiling the pre-renormalization norm drift of the
                         # populated modes stays well under the 1e-6/s budget
STABILITY_FACTOR = 2.5   # RK4 imaginary-axis stability limit is ~2.828
ACCURACY_FACTOR = 0.05   # default dt also honours 0.05 / energy-uncertainty
PRECHECK_FACTOR = 0.1    # user-supplied dt must satisfy dt <= 0.1 / uncertainty
DRIFT_TOL_PER_S = 1e-6   # cumulative pre-renormalization norm drift budget


def evolve_constant(
    state: StateVector,
    h,
    t: float,
    eig: EigenSystem | None = None,
) -> StateVector:
    """``exp(-i H t)`` applied to a state.

    ``h`` may be a :class:`TriMatrix` (spectral path, optionally with a
    precomputed eigensystem) or a sparse/dense full-basis operator
    (Krylov exponential action).
    """
    if isinstance(h, TriMatrix):
        if h.size != state.basis.size:
            raise ValueError(
                f"operator dimension {h.size} does not match state dimension "
                f"{state.basis.size}"
            )
        if eig is None:
            eig = eigensolve_tridiagonal(h)
        c = eig.vectors.T @ state.amplitudes
        out = eig.vectors @ (np.exp(-1j * eig.values * t) * c)
        return StateVector(state.basis, out)
    if sp.issparse(h) or isinstance(h, np.ndarray):
        if h.shape[0] != state.basis.size:
            raise ValueError(
                f"operator dimension {h.shape[0]} does not match state dimension "
                f"{state.basis.size}"
            )
        out = expm_multiply((-1j * t) * h, state.amplitudes)
        nrm = np.linalg.norm(out)
        if abs(nrm - 1.0) > 1e-9:
            raise ConvergenceError(f"exponential action lost unitarity: |norm-1|={abs(nrm-1):.2e}")
        return StateVector(state.basis, out / nrm)
    raise TypeError(f"unsupported Hamiltonian type {type(h)!r}")


@dataclass(frozen=True)
class _ChainPieces:
    """Sector Hamiltonian split as H(q) = diag0 + q*qdiag + off-diагonal."""

    diag0: np.ndarray
    qdiag: np.ndarray
    off: np.ndarray

    @classmethod
    def build(cls, params: PhysicsParams, basis: SectorBasis) -> "_ChainPieces":
        n = basis.n_atoms
        l2 = l2_sector(n, basis.magnetization)
        f = params.factor
        return cls(
            diag0=f * (params.c2p_hz / n) * l2.diag,
            qdiag=-f * basis.n_zero.astype(np.float64),
            off=f * (params.c2p_hz / n) * l2.offdiag,
        )

    def tri(self, q_hz: float) -> TriMatrix:
        return TriMatrix(self.diag0 + q_hz * self.qdiag, self.off)

    def spectral_spread(self, q_values) -> float:
        """Full width of the spectrum, maximized over q values.

        The integrator shifts by the state's mean energy, which can sit
        anywhere in the spectrum (at an edge for near-ground states), so
        stability must budget for the full spread, not the half-width.
        """
        spread = 0.0
        for q in q_values:
            lo, hi = self.tri(q).gershgorin_bounds()
            spread = max(spread, hi - lo)
        return spread


def _segment_q_probes(segment) -> list[float]:
    """q values bounding the segment's range (endpoints, plus an interior
    vertex when a parabolic ramp crosses its zero)."""
    d = segment.duration
    probes = [segment.q_hz_at(0.0), segment.q_hz_at(d), segment.q_hz_at(0.5 * d)]
    lo, hi = min(probes), max(probes)
    return [lo, hi, 0.0] if lo <= 0.0 <= hi else [lo, hi]


def ramp_default_dt(
    state: StateVector, segment, params: PhysicsParams
) -> float:
    """Automatic RK4 step: accuracy from the state's energy uncertainty,
    stability from the centred spectral radius, never above MAX_DT_S."""
    pieces = _ChainPieces.build(params, state.basis)
    spread = pieces.spectral_spread(_segment_q_probes(segment))
    h0 = pieces.tri(segment.q_hz_at(0.0))
    hv = h0.matvec(state.amplitudes)
    mean = float(np.real(np.vdot(state.amplitudes, hv)))
    unc = float(np.linalg.norm(hv - mean * state.amplitudes))
    dt = MAX_DT_S
    if spread > 0:
        dt = min(dt, STABILITY_FACTOR / spread)
    if unc > 0:
        dt = min(dt, ACCURACY_FACTOR / unc)
    return dt


def evolve_ramp(
    state: StateVector,
    segment,
    params: PhysicsParams,
    dt: float | None = None,
    sample_times: np.ndarray | None = None,
) -> tuple[StateVector, list[tuple[float, StateVector]]]:
    """Integrate one time-dependent segment (parabolic ramp or linear sweep).

    Returns the final state and ``(local_t, state)`` snapshots at the
    requested sample times.  Snapshots are taken on side branches of a
    fixed internal step grid, so the main trajectory (and therefore every
    shared sample) is bit-identical no matter how densely it is sampled.

    States are returned in the mean-energy gauge: the integrator removes
    the instantaneous mean energy (a global phase) and does not restore
    it, which keeps every observable intact and the output bitwise
    independent of how the stepping is chunked internally.
    """
    if not isinstance(state.basis, SectorBasis):
        raise TypeError("ramp evolution runs on chain sectors")
    duration = segment.duration
    if duration <= 0:
        raise ValueError("segment duration must be positive")
    pieces = _ChainPieces.build(params, state.basis)
    auto_dt = ramp_default_dt(state, segment, params)
    if dt is None:
        dt = auto_dt
    else:
        spread = pieces.spectral_spread(_segment_q_probes(segment))
        h0 = pieces.tri(segment.q_hz_at(0.0))
        hv = h0.matvec(state.amplitudes)
        mean = float(np.real(np.vdot(state.amplitudes, hv)))
        unc = float(np.linalg.norm(hv - mean * state.amplitudes))
        if unc > 0 and dt > PRECHECK_FACTOR / unc:
            raise StepSizeError(
                f"dt={dt:.3e} s exceeds the accuracy bound {PRECHECK_FACTOR / unc:.3e} s "
                "(0.1 / energy uncertainty)"
            )
        if spread > 0 and dt > 2.83 / spread:
            raise StepSizeError(
                f"dt={dt:.3e} s exceeds the RK4 stability bound {2.83 / spread:.3e} s"
            )
    n_steps = max(1, math.ceil(duration / dt))
    dt0 = duration / n_steps

    samples: list[tuple[float, StateVector]] = []
    wanted = np.sort(np.asarray(sample_times, dtype=float)) if sample_times is not None else np.empty(0)
    if wanted.size and (wanted[0] < -1e-12 or wanted[-1] > duration + 1e-12):
        raise ValueError("sample times must lie within the segment")

    psi = state.amplitudes.copy()
    drift = 0.0
    step = 0  # current position on the main grid

    def q_at(local_t) -> np.ndarray | float:
        return segment.q_hz_at(np.clip(local_t, 0.0, duration))

    def advance(n_adv: int):
        nonlocal drift, step
        if n_adv <= 0:
            return
        ts = (step + 0.5 * np.arange(2 * n_adv + 1)) * dt0
        grid = np.asarray(q_at(ts), dtype=np.float64)
        _, dr = _kernels.rk4_chain(psi, pieces.diag0, pieces.qdiag, pieces.off, grid, dt0)
        drift += dr
        step += n_adv

    for t_s in wanted:
        m = min(int(math.floor(t_s / dt0 + 1e-9)), n_steps)
        advance(m - step)
        delta = t_s - step * dt0
        if delta > 1e-12 * max(1.0, duration):
            branch = psi.copy()
            t_here = step * dt0
            grid = np.asarray(
                q_at(np.array([t_here, t_here + 0.5 * delta, t_here + delta])), dtype=np.float64
            )
            _kernels.rk4_chain(branch, pieces.diag0, pieces.qdiag, pieces.off, grid, delta)
        else:
            branch = psi.copy()
        samples.append((float(t_s), StateVector(state.basis, branch)))
    advance(n_steps - step)

    budget = DRIFT_TOL_PER_S * max(duration, 1e-3)
    if drift > budget:
        raise ConvergenceError(
            f"norm drift {drift:.2e} exceeds the {budget:.2e} budget for a "
            f"{duration:.3g} s segment; reduce dt"
        )
    return StateVector(state.basis, psi), samples


def _rotating_rho(h0_centered: sp.spmatrix, h_int: float, n_atoms: int) -> float:
    """Gershgorin radius of the centred static part plus the worst-case
    transverse coupling (||Lx||, ||Ly|| <= N)."""
    rows = np.asarray(np.abs(h0_centered).sum(axis=1)).ravel()
    return float(np.max(rows)) + abs(h_int) * n_atoms


def evolve_rotating(
    state: StateVector,
    ext: ExtendedParams,
    t: float,
    mode: str = "averaged",
    p_scale: float = 1.0,
    t0: float = 0.0,
    dt: float | None = None,
) -> StateVector:
    """Constant-q evolution in the frame rotating at the linear Zeeman rate.

    In that frame the transverse coupling becomes
    ``-h (Lx cos(p t) - Ly sin(p t))``.  Mode ``exact_scaled_p``
    integrates it directly (practical only with ``p_scale`` << 1); mode
    ``averaged`` keeps its second-order secular part ``+ (h^2/2p) Lz``,
    valid for h << p.  All reported observables are frame-invariant.
    """
    basis = state.basis
    if not isinstance(basis, FullBasis):
        raise TypeError("rotating-frame evolution runs on the full basis")
    params = ext.base
    f = params.factor
    if mode == "averaged":
        if ext.p_hz == 0 or abs(ext.h_hz / ext.p_hz) > 1e-2:
            raise ValueError(
                f"averaged mode requires h/p <= 1e-2, got h={ext.h_hz} Hz, p={ext.p_hz} Hz"
            )
        shift_hz = ext.h_hz**2 / (2.0 * ext.p_hz)
        out = np.empty_like(state.amplitudes)
        for m in range(-basis.n_atoms, basis.n_atoms + 1):
            blk = basis.block(m)
            amp = state.amplitudes[blk]
            if not np.any(amp):
                out[blk] = 0.0
                continue
            h_m = hamiltonian_sector(params, SectorBasis(basis.n_atoms, m))
            h_m = h_m.add_diagonal(f * shift_hz * m)
            sub = evolve_constant(StateVector(SectorBasis(basis.n_atoms, m), amp / np.linalg.norm(amp)), h_m, t)
            out[blk] = sub.amplitudes * np.linalg.norm(amp)
        return StateVector(basis, out)

    if mode != "exact_scaled_p":
        raise ValueError(f"unknown rotating-frame mode {mode!r}")

    p_int = f * ext.p_hz * p_scale
    h_int = f * ext.h_hz
    h0 = f * (params.c2p_hz / basis.n_atoms) * l2_full(basis) - sp.diags(
        f * params.q_hz * n0_full(basis)
    )
    lo = h0.diagonal().min()
    hi = h0.diagonal().max()
    center = 0.5 * (lo + hi)
    h0c = (h0 - sp.identity(basis.size) * center).tocsr()
    lx = lx_full(basis)
    ly = ly_full(basis)

    # the mean-energy shift can sit at a spectral edge, so budget 2*rho
    spread = 2.0 * _rotating_rho(h0c, h_int, basis.n_atoms)
    dt_auto = min(MAX_DT_S, STABILITY_FACTOR / spread if spread > 0 else MAX_DT_S)
    if p_int != 0.0:
        dt_auto = min(dt_auto, 2.0 * math.pi / (24.0 * abs(p_int)))
    if dt is None:
        dt = dt_auto
    elif spread > 0 and dt > 2.83 / spread:
        raise StepSizeError(f"dt={dt:.3e} exceeds the stability bound {2.83 / spread:.3e}")
    n_steps = max(1, math.ceil(t / dt))
    dt0 = t / n_steps

    psi = state.amplitudes.copy()

    def hmul(tau: float, y: np.ndarray) -> np.ndarray:
        th = p_int * (t0 + tau)
        return h0c @ y - h_int * (math.cos(th) * (lx @ y) - math.sin(th) * (ly @ y))

    drift = 0.0
    for s in range(n_steps):
        tau = s * dt0
        hv = hmul(tau, psi)
        eref = float(np.real(np.vdot(psi, hv)))
        k1 = -1j * (hv - eref * psi)
        y = psi + 0.5 * dt0 * k1
        k2 = -1j * (hmul(tau + 0.5 * dt0, y) - eref * y)
        y = psi + 0.5 * dt0 * k2
        k3 = -1j * (hmul(tau + 0.5 * dt0, y) - eref * y)
        y = psi + dt0 * k3
        k4 = -1j * (hmul(tau + dt0, y) - eref * y)
        psi += (dt0 / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        nrm = float(np.linalg.norm(psi))
        drift += abs(nrm - 1.0)
        psi /= nrm
    if drift > DRIFT_TOL_PER_S * max(t, 1e-3):
        raise ConvergenceError(f"norm drift {drift:.2e} over {t:.3g} s rotating-frame segment")
    # defined up to a global phase (all reported observables are invariant)
    return StateVector(basis, psi)
