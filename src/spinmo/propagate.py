"""Time evolution of chain-sector states: constant-q holds and ramps.

Constant-q evolution is always done by exact spectral decomposition
(:meth:`~spinmo.spectra.EigenSystem.evolve`), never by time stepping, so
the optimizer's inner loop carries no integrator error.  Every hold, in
the scan, a schedule or a loss trajectory, runs in the total-spin frame
on the block that :func:`hold_levels` certifies.  Ramps and sweeps take
fourth-order commutator-free Magnus steps with Chebyshev exponentials
(:mod:`spinmo._kernels`), one or two fine steps long as the control curve
allows, on a leading window of the chain whose truncation is certified
step by step.  States carry their exact phase.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property

import numpy as np

from . import _kernels
from .basis import SectorBasis, StateVector
from .observables import reference_eigensystem, reference_n0
from .operators import PhysicsParams, TriMatrix, l2_sector
from .spectra import EigenSystem, eigensolve_tridiagonal, real_map

# fine ramp step of the CF4:2 integrator, sized for the fastest stretch of the
# reference ramp, its start (q = 277 Hz, |dq/dt| = 580 Hz/s at c2p = 25 Hz):
# there the first 5 ms at N = 200 give a final xi2 within 5.0e-8 of a run at a
# 2e-6 s step; a 5e-4 s step gives 8.8e-7, and 1e-3 s gives 2.3e-5.  A segment
# whose control curve is slow enough throughout takes steps of two of these
# (:func:`merges`).
RAMP_DT_S = 2.5e-4
# The CF4:2 error per unit time of a step of length h on H(q(t)), as the
# largest amplitude error against a 16x finer step, stays below
#     ERR_COEF w (w h)^4 (|q'| / (f c2p^2) + |q''| / (f^2 c2p^3)) (1 + |q| / c2p)
# with w = f c2p, f the unit factor, |q| and |q'| their maxima over the step
# and |q| <= Q_MAX_C2P c2p.  Measured at c2p = 25 Hz at steps of 2 and 4
# RAMP_DT_S, from the polar, ground and top-of-chain states, for N from 2 to
# N_MAX_MERGE: on 5 ms linear sweeps with |q| up to 280 Hz and |q'| from 1 to
# 600 Hz/s the largest error is 0.88 of the bound, and on 5 ms across
# parabola vertices shifted to q from -277 to 277 Hz, with q'' from 30 to
# 3e4 Hz/s^2, 0.67.  Rescaling time maps (c2p, q, q', q'', h) to
# (s c2p, s q, s^2 q', s^3 q'', h / s) and the step with it, so the bound
# holds at any c2p.
ERR_COEF = 0.0116
Q_MAX_C2P = 11.2
# The error per unit time that a merged step may reach, in units of w: that
# of one RAMP_DT_S step at the reference-ramp start, 1.6e-8 per 5 ms at
# w = 2 pi 25 Hz.
ERR_BUDGET = 1.6e-8 / 5e-3 / (2.0 * math.pi * 25.0)
N_MAX_MERGE = 1000  # the largest atom number the bound is measured at
WINDOW_TOL = 1e-12  # leakage budget of a ramp's windows per segment
# bound on the truncation error of every reference amplitude in a hold
_TRUNCATION_TOL = 1e-12


class Sector:
    """A chain sector as the evolution reads it, for one ``params``: its
    basis, the chain that its ramps read and the reference eigensystem
    that its holds and records read.  The chain and the reference are
    built when first read and then kept, so a caller that keeps a sector
    builds each at most once, and only if something reads it."""

    def __init__(self, basis: SectorBasis, params: PhysicsParams):
        self.basis = basis
        self.params = params

    @cached_property
    def chain(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sector Hamiltonian split as H(q) = diag0 + q qdiag + off:
        ``(diag0, qdiag, off)``."""
        n = self.basis.n_atoms
        l2 = l2_sector(n, self.basis.magnetization)
        f = self.params.factor
        return (
            f * (self.params.c2p_hz / n) * l2.diag,
            -f * self.basis.n_zero.astype(np.float64),
            f * (self.params.c2p_hz / n) * l2.offdiag,
        )

    @cached_property
    def reference(self) -> EigenSystem:
        return reference_eigensystem(self.basis.n_atoms, self.basis.magnetization)


def _ladder(m: int, n: int) -> int:
    """The smallest multiple of 8 that is at least ``m``, at most ``n``."""
    return min(n, -(-m // 8) * 8)


def _first_block(a: np.ndarray) -> tuple[int, np.ndarray]:
    """The first block of :func:`hold_levels` and of a ramp's window for
    amplitudes ``a``, and ``||a[k:]||`` for k = 0, ..., n: the whole chain
    when twice the support of ``a`` fills it, else the first rung of the
    8-level ladder at least 8 levels beyond the support.  The support is
    the fewest leading levels outside which the norm of ``a`` is at most
    ``_TRUNCATION_TOL``."""
    tail = np.append(np.sqrt(np.cumsum((a.real**2 + a.imag**2)[::-1])[::-1]), 0.0)
    support = int(np.argmax(tail <= _TRUNCATION_TOL))
    return (a.size if 2 * support >= a.size else _ladder(support + 8, a.size)), tail


def hold_start(state: StateVector, reference: EigenSystem) -> tuple[np.ndarray, tuple]:
    """The reference amplitudes of ``state`` and the ``window`` that
    :func:`hold_levels` starts from for them."""
    a = reference.project(state.amplitudes)
    return a, _first_block(a)


def hold_levels(
    a: np.ndarray,
    q_hz: float,
    params: PhysicsParams,
    basis: SectorBasis,
    reference: EigenSystem,
    cap_s: float,
    window: tuple[int, np.ndarray] | None = None,
    memo: dict | None = None,
) -> tuple[EigenSystem, np.ndarray]:
    """Eigensystem of a hold on the leading reference levels, and ``a`` in it.

    ``a`` holds the state's reference amplitudes.  In that basis the hold
    Hamiltonian is the tridiagonal ``f c2p/N diag(lambda) - f q A``, with
    lambda the reference eigenvalues and A the m = 0 number operator
    (:func:`reference_n0`).  Only its leading m x m block is solved.  m
    climbs a ladder of multiples of 8 levels: it starts on the whole
    chain when twice the support of ``a`` fills it, else on the first
    rung at least 8 levels beyond the support, and grows to the first rung
    at least 1.5 m until the truncation error of every reference amplitude
    up to ``cap_s`` is at most ``_TRUNCATION_TOL``.  That error is at most
    the weight of ``a`` beyond m plus what the coupling out of level m - 1
    can carry off in ``cap_s``:

        ||a[m:]|| + cap_s |H[m-1, m]| sum_j |c_j| |W[m-1, j]|,

    with W the block's eigenvectors and c = W^T a[:m].  When no smaller
    block qualifies, m is the whole chain, which is exact.  ``window`` is
    the first m and the tail norms of ``a`` (:func:`hold_start`), for a
    caller that holds the same ``a`` at many q.  A block's eigensystem
    depends on q and m only, so a caller that holds many states in one
    sector with the same ``params`` may pass one ``memo`` dict to all the
    calls: every (q, m) block is then solved once.  The ladder makes the
    blocks of nearby supports coincide.
    """
    n0_ref = reference_n0(basis.n_atoms, basis.magnetization)
    f = params.factor
    diag = f * (params.c2p_hz / basis.n_atoms * reference.values - q_hz * n0_ref.diag)
    off = -f * q_hz * n0_ref.offdiag
    n = a.size
    m, tail = window if window is not None else _first_block(a)
    memo = {} if memo is None else memo
    while True:
        eig = memo.get((q_hz, m))
        if eig is None:
            eig = memo[q_hz, m] = eigensolve_tridiagonal(TriMatrix(diag[:m], off[: m - 1]))
        c = eig.project(a[:m])
        if m == n:
            return eig, c
        leak = cap_s * abs(off[m - 1]) * (np.abs(c) @ np.abs(eig.vectors[m - 1]))
        if tail[m] + leak <= _TRUNCATION_TOL:
            return eig, c
        m = _ladder((3 * m + 1) // 2, n)


def evolve_hold(
    state: StateVector, q_hz: float, sector: Sector, taus, counts: Counter | None = None
) -> np.ndarray:
    """``exp(-i H(q) tau)`` applied to a chain-sector state, one column per
    tau, on the block that :func:`hold_levels` certifies up to the longest
    tau, in the reference frame of the state's ``sector``.  Each column is
    its own product, so it depends on the other taus only through the
    longest one.  The blocks solved are added to ``counts["hold_blocks"]``."""
    reference = sector.reference
    a = reference.project(state.amplitudes)
    memo: dict = {}
    eig, c = hold_levels(a, q_hz, sector.params, state.basis, reference, max(taus), memo=memo)
    if counts is not None:
        counts["hold_blocks"] += len(memo)
    r = reference.vectors[:, : eig.size]
    return np.stack([real_map(r, col) for col in eig.evolve_projected(c, taus)], axis=1)


def merges(segment, q_offsets: np.ndarray, sectors: list[Sector], h: float) -> bool:
    """Whether steps of length ``h`` keep a ramp's error per unit time
    within ``ERR_BUDGET`` over the whole segment, for every batch member.

    The bound (``ERR_COEF``) takes the largest |q| and |q'| over the
    segment and the offsets ``q_offsets``, and holds for atom numbers up
    to ``N_MAX_MERGE``.  For every segment kind q is quadratic in time, so
    q'' is constant, |q'| is largest at an end, and |q| at an end or at
    the vertex.
    """
    if max(sec.basis.n_atoms for sec in sectors) > N_MAX_MERGE:
        return False
    d = segment.duration
    q0, qm, q1 = np.asarray(segment.q_hz_at(np.array([0.0, 0.5 * d, d])), dtype=float).tolist()
    curvature = 4.0 * (q0 - 2.0 * qm + q1) / d**2
    slope = (4.0 * qm - 3.0 * q0 - q1) / d
    qs = [q0, q1]
    if curvature and 0.0 < -slope / curvature < d:
        qs.append(q0 - 0.5 * slope**2 / curvature)  # the vertex
    lo, hi = float(q_offsets.min()), float(q_offsets.max())
    f, c2p = sectors[0].params.factor, sectors[0].params.c2p_hz
    x = max(abs(q + dq) for q in qs for dq in (lo, hi)) / c2p
    y = max(abs(slope), abs(slope + curvature * d)) / (f * c2p**2)
    z = abs(curvature) / (f**2 * c2p**3)
    return x <= Q_MAX_C2P and ERR_COEF * (h * f * c2p) ** 4 * (y + z) * (1.0 + x) <= ERR_BUDGET


def evolve_ramp(
    states: list[StateVector],
    segment,
    sectors: list[Sector],
    q_offsets,
    taus,
    dt: float | None = None,
    counts: Counter | None = None,
) -> list[np.ndarray]:
    """Integrate chain-sector states through one time-dependent segment
    (parabolic ramp or linear sweep), and return each state's amplitude
    columns at the local times ``taus``, as :func:`evolve_hold` does.
    ``taus`` must be sorted and lie within the segment, and ``dt`` may be
    no coarser than ``RAMP_DT_S``, else ``ValueError``.

    State b reads its chain off ``sectors[b]`` (:attr:`Sector.chain`),
    whose basis sets its atom number, and sees the control curve shifted
    by ``q_offsets[b]``; the sectors share one params.  The batch advances
    together.

    The segment's fine grid has n = ceil(d / RAMP_DT_S) steps of d / n.
    Where steps of twice that length keep the error per unit time within
    that of one fine step at the reference-ramp start over the whole
    segment (:func:`merges`), the segment takes ceil(n / 2) equal steps
    instead; elsewhere, as on the reference ramp's fast stretches, it
    takes the fine grid.  An explicit ``dt`` (which may only be finer)
    takes the uniform grid of ceil(d / dt) steps.  The main line over the
    grid is one kernel call, which keeps copies of the states at the last
    step before each tau; a tau off the grid is a side branch from that
    copy.  So the main trajectory (and therefore every shared column) is
    bit-identical no matter how densely it is sampled.  The steps taken
    are added to ``counts``: ``"ramp_steps.1"`` counts fine steps,
    ``"ramp_steps.2"`` merged ones of two fine steps and
    ``"ramp_steps.branch"`` the partial steps of the side branches.

    Each step is the fourth-order commutator-free Magnus step of
    :func:`spinmo._kernels.cf4_chain`, one grid step long, with Chebyshev
    exponentials on the leading m levels of every chain, all chains in one
    block-diagonal series.  Each m starts on the first rung of the hold
    ladder (:func:`_first_block`): the whole chain when twice its state's
    support fills it, else the first multiple of 8 levels at least 8
    beyond the support (levels beyond the support hold a norm of at most
    1e-12 and are dropped).  m doubles whenever a step's bound on the
    amplitude leaving that window exceeds its share of a ``WINDOW_TOL``
    budget for the segment; sample branches never grow the main windows.
    The main line and the branches share one dict of Chebyshev
    coefficients, which lives for this call only.  States carry their
    exact phase.
    """
    duration = segment.duration
    if duration <= 0:
        raise ValueError("segment duration must be positive")
    if dt is not None and dt > RAMP_DT_S:
        raise ValueError(f"dt={dt:.3e} s is coarser than the ramp step {RAMP_DT_S:.3e} s")
    taus = np.asarray(taus, dtype=float)
    if np.any(np.diff(taus) < 0):
        raise ValueError("taus must be sorted")
    if taus.size and (taus[0] < -1e-12 or taus[-1] > duration + 1e-12):
        raise ValueError("taus must lie within the segment")
    diag0, qdiag, off = map(list, zip(*(sec.chain for sec in sectors)))
    offsets = np.asarray(q_offsets, dtype=np.float64)
    n_steps = max(1, math.ceil(duration / (RAMP_DT_S if dt is None else dt) - 1e-9))
    size = 1  # fine steps per step
    if dt is None and n_steps > 1 and merges(segment, offsets, sectors, 2.0 * duration / n_steps):
        n_steps, size = math.ceil(n_steps / 2), 2
    dt0 = duration / n_steps
    leak_tol = WINDOW_TOL / n_steps

    psis = [st.amplitudes.copy() for st in states]
    ms = []
    for psi in psis:
        m, _ = _first_block(psi)
        psi[m:] = 0.0
        ms.append(m)

    def q_grid(local_t: np.ndarray) -> np.ndarray:
        """q of every state (columns) at the local times (rows)."""
        q = np.asarray(segment.q_hz_at(np.clip(local_t, 0.0, duration)), dtype=np.float64)
        return q[:, None] + offsets

    # the main line, one call; a tau branches off at the last step before it
    at_step = [min(int(math.floor(t_s / dt0 + 1e-9)), n_steps) for t_s in taus]
    coefs: dict = {}  # Chebyshev coefficients of this segment, by series argument
    ts = 0.5 * np.arange(2 * n_steps + 1) * dt0
    kept = _kernels.cf4_chain(
        psis, diag0, qdiag, off, q_grid(ts), dt0, ms, leak_tol, coefs, at_step
    )
    branches = []
    for i, (t_s, k) in enumerate(zip(taus, at_step)):
        start, ms_k = kept[k]
        # the last tau at step k takes the kept copy; earlier ones copy it
        last_at_k = i + 1 == len(at_step) or at_step[i + 1] != k
        branch = start if last_at_k else [psi.copy() for psi in start]
        delta = t_s - k * dt0
        if delta > 1e-12 * max(1.0, duration):
            t_here = k * dt0
            grid = q_grid(np.array([t_here, t_here + 0.5 * delta, t_here + delta]))
            _kernels.cf4_chain(branch, diag0, qdiag, off, grid, delta, ms_k, leak_tol, coefs)
            if counts is not None:
                counts["ramp_steps.branch"] += 1
        branches.append(branch)
    if counts is not None:
        counts[f"ramp_steps.{size}"] += n_steps
    return [np.stack([branch[b] for branch in branches], axis=1) for b in range(len(states))]
