"""Time evolution under constant and time-dependent Hamiltonians.

Constant-q evolution on a chain is always done by exact spectral
decomposition (:meth:`~spinmo.spectra.EigenSystem.evolve`), never by
time stepping, so the optimizer's inner loop carries no integrator
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

from . import _kernels
from .basis import FullBasis, SectorBasis, StateVector
from .errors import StepSizeError
from .operators import (
    ExtendedParams,
    PhysicsParams,
    TriMatrix,
    l2_sector,
    lx_full,
    ly_full,
    n0_full,
    l2_full,
)
from .spectra import eigensolve_tridiagonal

# ramp step of the CF4:2 integrator.  On the first 5 ms of the reference ramp
# at N = 200 the final xi2 is within 5.0e-8 of a run at a 2e-6 s step; a
# 5e-4 s step gives 8.8e-7, and 1e-3 s gives 2.3e-5.
RAMP_DT_S = 2.5e-4
WINDOW_TOL = 1e-12  # norm outside the starting window; leakage budget per segment


def evolve_constant(state: StateVector, h: TriMatrix, t: float) -> StateVector:
    """``exp(-i H t)`` applied to a state, by the spectrum of the
    tridiagonal ``h`` (:meth:`~spinmo.spectra.EigenSystem.evolve`)."""
    if not isinstance(h, TriMatrix):
        raise TypeError(f"unsupported Hamiltonian type {type(h)!r}")
    if h.size != state.basis.size:
        raise ValueError(
            f"operator dimension {h.size} does not match state dimension "
            f"{state.basis.size}"
        )
    return StateVector(state.basis, eigensolve_tridiagonal(h).evolve(state.amplitudes, [t])[:, 0])


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
    state: StateVector | list[StateVector],
    segment,
    params: PhysicsParams | list[PhysicsParams],
    dt: float | None = None,
    sample_times: np.ndarray | None = None,
    q_offset_hz: float | list[float] = 0.0,
) -> tuple:
    """Integrate one time-dependent segment (parabolic ramp or linear sweep).

    Returns the final state and ``(local_t, state)`` snapshots at the
    requested sample times.  Snapshots are taken on side branches of a
    fixed internal step grid, so the main trajectory (and therefore every
    shared sample) is bit-identical no matter how densely it is sampled.

    ``state`` may also be a list of B chain-sector states, with ``params``
    and ``q_offset_hz`` lists of the same length (state b has its own atom
    number and sees the control curve shifted by ``q_offset_hz[b]``).  The
    batch then advances together and the result holds lists: the final
    states and ``(local_t, states)`` snapshots.  A single state is a batch
    of one.

    Each step is the fourth-order commutator-free Magnus step of
    :func:`spinmo._kernels.cf4_chain`, ``RAMP_DT_S`` long (or ``dt``, which
    may only be finer), with Chebyshev exponentials on the leading m levels
    of every chain, all chains in one block-diagonal series.  Each m starts
    at twice its state's support (levels beyond it hold a norm of at most
    ``WINDOW_TOL`` and are dropped) and doubles whenever a step's bound on
    the amplitude leaving that window exceeds its share of a ``WINDOW_TOL``
    budget for the segment; sample branches never grow the main windows.
    States carry their exact phase.
    """
    single = isinstance(state, StateVector)
    states = [state] if single else list(state)
    params = [params] if single else list(params)
    offsets = np.broadcast_to(np.asarray(q_offset_hz, dtype=np.float64), (len(states),))
    if not all(isinstance(st.basis, SectorBasis) for st in states):
        raise TypeError("ramp evolution runs on chain sectors")
    duration = segment.duration
    if duration <= 0:
        raise ValueError("segment duration must be positive")
    if dt is None:
        dt = RAMP_DT_S
    elif dt > RAMP_DT_S:
        raise StepSizeError(f"dt={dt:.3e} s is coarser than the ramp step {RAMP_DT_S:.3e} s")
    pieces = [_ChainPieces.build(p, st.basis) for p, st in zip(params, states)]
    diag0 = [pc.diag0 for pc in pieces]
    qdiag = [pc.qdiag for pc in pieces]
    off = [pc.off for pc in pieces]
    n_steps = max(1, math.ceil(duration / dt - 1e-9))
    dt0 = duration / n_steps
    leak_tol = WINDOW_TOL / n_steps

    samples: list[tuple[float, list[StateVector]]] = []
    wanted = np.sort(np.asarray(sample_times, dtype=float)) if sample_times is not None else np.empty(0)
    if wanted.size and (wanted[0] < -1e-12 or wanted[-1] > duration + 1e-12):
        raise ValueError("sample times must lie within the segment")

    psis = [st.amplitudes.copy() for st in states]
    ms = []
    for psi in psis:
        m, _ = leading_window(psi, WINDOW_TOL)
        psi[m:] = 0.0
        ms.append(m)
    step = 0  # current position on the main grid

    def q_grid(local_t: np.ndarray) -> np.ndarray:
        """q of every state (columns) at the local times (rows)."""
        q = np.asarray(segment.q_hz_at(np.clip(local_t, 0.0, duration)), dtype=np.float64)
        return q[:, None] + offsets

    def advance(n_adv: int):
        nonlocal ms, step
        if n_adv <= 0:
            return
        ts = (step + 0.5 * np.arange(2 * n_adv + 1)) * dt0
        ms = _kernels.cf4_chain(psis, diag0, qdiag, off, q_grid(ts), dt0, ms, leak_tol)
        step += n_adv

    for t_s in wanted:
        k = min(int(math.floor(t_s / dt0 + 1e-9)), n_steps)
        advance(k - step)
        delta = t_s - step * dt0
        branch = [psi.copy() for psi in psis]
        if delta > 1e-12 * max(1.0, duration):
            t_here = step * dt0
            grid = q_grid(np.array([t_here, t_here + 0.5 * delta, t_here + delta]))
            _kernels.cf4_chain(branch, diag0, qdiag, off, grid, delta, ms, leak_tol)
        samples.append((float(t_s), [StateVector(st.basis, b) for st, b in zip(states, branch)]))
    advance(n_steps - step)
    finals = [StateVector(st.basis, psi) for st, psi in zip(states, psis)]
    if single:
        return finals[0], [(t, svs[0]) for t, svs in samples]
    return finals, samples


def _rotating_rho(h0_centered: sp.spmatrix, h_int: float, n_atoms: int) -> float:
    """Gershgorin radius of the centred static part plus the worst-case
    transverse coupling (||Lx||, ||Ly|| <= N)."""
    rows = np.asarray(np.abs(h0_centered).sum(axis=1)).ravel()
    return float(np.max(rows)) + abs(h_int) * n_atoms


def evolve_rotating(
    state: StateVector,
    ext: ExtendedParams,
    t: float,
    p_scale: float = 1.0,
    t0: float = 0.0,
    dt: float | None = None,
) -> StateVector:
    """Constant-q evolution in the frame rotating at the linear Zeeman rate.

    In that frame the transverse coupling becomes
    ``-h (Lx cos(p t) - Ly sin(p t))``.  It is integrated directly, with
    the Zeeman rate scaled by ``p_scale`` (practical only with
    ``p_scale`` << 1), by the Magnus step of :mod:`spinmo._kernels`, with
    the Hamiltonian evaluated at the Gauss nodes and a step of at most
    ``RAMP_DT_S`` and 1/24 of a rotation period; a finer ``dt`` may be
    given.  All reported observables are frame-invariant.
    """
    basis = state.basis
    if not isinstance(basis, FullBasis):
        raise TypeError("rotating-frame evolution runs on the full basis")
    params = ext.base
    f = params.factor
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
