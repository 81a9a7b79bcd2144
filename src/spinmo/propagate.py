"""Time evolution under constant and time-dependent Hamiltonians.

Constant-q evolution is always done by exact spectral decomposition
(chain sectors) or a Krylov-style exponential action (full basis), never
by time stepping, so the optimizer's inner loop carries no integrator
error.  Ramps, sweeps and the exact rotating frame take fourth-order
commutator-free Magnus steps with Chebyshev exponentials
(:mod:`spinmo._kernels`); on chain sectors the step runs on a leading
window of the chain whose truncation is certified step by step.  States
carry their exact phase.
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

# ramp step of the CF4:2 integrator.  On the first 5 ms of the reference ramp
# at N = 200 the final xi2 is within 5.0e-8 of a run at a 2e-6 s step; a
# 5e-4 s step gives 8.8e-7, and 1e-3 s gives 2.3e-5.
RAMP_DT_S = 2.5e-4
WINDOW_TOL = 1e-12  # norm outside the starting window; leakage budget per segment


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
    """Sector Hamiltonian split as H(q) = diag0 + q*qdiag + off-diagonal."""

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


def leading_window(a: np.ndarray, tol: float) -> tuple[int, np.ndarray]:
    """Twice the support of ``a`` (at most its length), and ``||a[k:]||``
    for k = 0, ..., n.  The support is the fewest leading levels outside
    which the norm of ``a`` is at most ``tol``."""
    tail = np.append(np.sqrt(np.cumsum((a.real**2 + a.imag**2)[::-1])[::-1]), 0.0)
    return min(a.size, 2 * int(np.argmax(tail <= tol))), tail


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

    Each step is the fourth-order commutator-free Magnus step of
    :func:`spinmo._kernels.cf4_chain`, ``RAMP_DT_S`` long (or ``dt``, which
    may only be finer), with Chebyshev exponentials on the leading m levels
    of the chain.  m starts at twice the state's support (levels beyond it
    hold a norm of at most ``WINDOW_TOL`` and are dropped) and doubles
    whenever a step's bound on the amplitude leaving the window exceeds
    its share of a ``WINDOW_TOL`` budget for the segment; sample branches
    never grow the main window.  States carry their exact phase.
    """
    if not isinstance(state.basis, SectorBasis):
        raise TypeError("ramp evolution runs on chain sectors")
    duration = segment.duration
    if duration <= 0:
        raise ValueError("segment duration must be positive")
    if dt is None:
        dt = RAMP_DT_S
    elif dt > RAMP_DT_S:
        raise StepSizeError(f"dt={dt:.3e} s is coarser than the ramp step {RAMP_DT_S:.3e} s")
    pieces = _ChainPieces.build(params, state.basis)
    n_steps = max(1, math.ceil(duration / dt - 1e-9))
    dt0 = duration / n_steps
    leak_tol = WINDOW_TOL / n_steps

    samples: list[tuple[float, StateVector]] = []
    wanted = np.sort(np.asarray(sample_times, dtype=float)) if sample_times is not None else np.empty(0)
    if wanted.size and (wanted[0] < -1e-12 or wanted[-1] > duration + 1e-12):
        raise ValueError("sample times must lie within the segment")

    psi = state.amplitudes.copy()
    m, _ = leading_window(psi, WINDOW_TOL)
    psi[m:] = 0.0
    step = 0  # current position on the main grid

    def q_at(local_t) -> np.ndarray | float:
        return segment.q_hz_at(np.clip(local_t, 0.0, duration))

    def advance(n_adv: int):
        nonlocal m, step
        if n_adv <= 0:
            return
        ts = (step + 0.5 * np.arange(2 * n_adv + 1)) * dt0
        grid = np.asarray(q_at(ts), dtype=np.float64)
        m = _kernels.cf4_chain(psi, pieces.diag0, pieces.qdiag, pieces.off, grid, dt0, m, leak_tol)
        step += n_adv

    for t_s in wanted:
        k = min(int(math.floor(t_s / dt0 + 1e-9)), n_steps)
        advance(k - step)
        delta = t_s - step * dt0
        branch = psi.copy()
        if delta > 1e-12 * max(1.0, duration):
            t_here = step * dt0
            grid = np.asarray(
                q_at(np.array([t_here, t_here + 0.5 * delta, t_here + delta])), dtype=np.float64
            )
            _kernels.cf4_chain(branch, pieces.diag0, pieces.qdiag, pieces.off, grid, delta, m, leak_tol)
        samples.append((float(t_s), StateVector(state.basis, branch)))
    advance(n_steps - step)
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
    integrates it directly (practical only with ``p_scale`` << 1) by the
    Magnus step of :mod:`spinmo._kernels`, with the Hamiltonian evaluated
    at the Gauss nodes and a step of at most ``RAMP_DT_S`` and 1/24 of a
    rotation period; a finer ``dt`` may be given.  Mode
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
    # H0, Lx and Ly stacked, so that one sparse product applies all three
    parts = sp.vstack([h0c, lx_full(basis), ly_full(basis)]).tocsr()

    dt_auto = RAMP_DT_S
    if p_int != 0.0:
        dt_auto = min(dt_auto, 2.0 * math.pi / (24.0 * abs(p_int)))
    if dt is None:
        dt = dt_auto
    elif dt > dt_auto:
        raise StepSizeError(f"dt={dt:.3e} s is coarser than the automatic step {dt_auto:.3e} s")
    n_steps = max(1, math.ceil(t / dt - 1e-9))
    dt0 = t / n_steps
    # each exponential's transverse weight |cbar + i sbar| is at most
    # 2 (|a1| + |a2|) = 2 / sqrt(3)
    rho = _rotating_rho(h0c, 2.0 / math.sqrt(3.0) * h_int, basis.n_atoms)

    psi = state.amplitudes.copy()
    for s in range(n_steps):
        th_a, th_b = (p_int * (t0 + (s + node) * dt0) for node in _kernels.GAUSS_NODES)
        for wa, wb in ((_kernels.A1, _kernels.A2), (_kernels.A2, _kernels.A1)):
            cbar = 2.0 * (wa * math.cos(th_a) + wb * math.cos(th_b))
            sbar = 2.0 * (wa * math.sin(th_a) + wb * math.sin(th_b))
            kx, ky = 2.0 * h_int * cbar / rho, 2.0 * h_int * sbar / rho

            def recur(u, w):
                hu = (parts @ u).reshape(3, -1)
                return (2.0 / rho) * hu[0] - kx * hu[1] + ky * hu[2] - w

            psi = _kernels.expv(recur, psi, 0.5 * dt0 * rho)
        psi = _kernels.renormalized(psi)
    # defined up to a global phase (all reported observables are invariant)
    return StateVector(basis, psi)
