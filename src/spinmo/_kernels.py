"""Time step for time-dependent Hamiltonians: a fourth-order commutator-free
Magnus step whose exponentials are Chebyshev series.

During a ramp the chain Hamiltonian is ``H(q) = D0 + q Dq + Off``, with D0
and Dq diagonal and Off a fixed symmetric off-diagonal, and q supplied at
half-step resolution.  One step of length dt is the CF4:2 scheme (Blanes &
Moan, Appl. Numer. Math. 56, 1519 (2006); Alvermann & Fehske,
J. Comput. Phys. 230, 5930 (2011)):

    U = exp(-i dt/2 H(q2)) exp(-i dt/2 H(q1)),
    q1 = 2 (a1 qA + a2 qB),   q2 = 2 (a2 qA + a1 qB),   a1,2 = 1/4 +- sqrt(3)/6,

where qA and qB are q at the Gauss nodes 1/2 -+ sqrt(3)/6 of the step.
Because H is affine in q and a1 + a2 = 1/2, ``a1 H(qA) + a2 H(qB)`` is
``H(q1) / 2``.  qA and qB are interpolated quadratically from the step's
three half-step values, which is exact for every segment kind (q(t) is at
most quadratic in time).

Each exponential is a Chebyshev series on the Gershgorin interval of the
operator (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), with
Bessel coefficients from Miller's backward recurrence.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.linalg.blas import zaxpy, zhbmv

from .errors import ConvergenceError
from .operators import TriMatrix

# CF4:2 weights and Gauss nodes
A1 = 0.25 + math.sqrt(3.0) / 6.0
A2 = 0.25 - math.sqrt(3.0) / 6.0
GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

NORM_TOL = 1e-10        # per-step |norm - 1| before renormalizing
_SERIES_TOL = 1e-17     # Bessel coefficients below this end the series


def _lagrange_weights(theta: float) -> tuple[float, float, float]:
    """Weights of q at 0, 1/2 and 1 of a step for q at ``theta`` (quadratic)."""
    return (
        2.0 * (theta - 0.5) * (theta - 1.0),
        -4.0 * theta * (theta - 1.0),
        2.0 * theta * (theta - 0.5),
    )


_POWERS_OF_MINUS_I = np.array([1.0, -1j, -1.0, 1j])
_WA = _lagrange_weights(GAUSS_NODES[0])
_WB = _lagrange_weights(GAUSS_NODES[1])


def bessel_j(x: float) -> np.ndarray:
    """J_0(x), J_1(x), ... for x >= 0, up to the last order above
    ``_SERIES_TOL``, by Miller's backward recurrence normalized with
    ``J_0 + 2 (J_2 + J_4 + ...) = 1``."""
    if x == 0.0:
        return np.ones(1)
    start = int(x + 20.0 * x ** (1.0 / 3.0) + 40.0)
    vals = [0.0] * (start + 1)
    hi, cur = 0.0, 1e-30
    for k in range(start, 0, -1):
        vals[k] = cur
        hi, cur = cur, (2.0 * k / x) * cur - hi
        if abs(cur) > 1e250:
            # rescale; the orders already stored are negligible next to the rest
            for j in range(k, start + 1):
                vals[j] *= 1e-250
            hi *= 1e-250
            cur *= 1e-250
    vals[0] = cur
    j = np.array(vals)
    j /= j[0] + 2.0 * j[2::2].sum()
    big = np.flatnonzero(np.abs(j) > _SERIES_TOL)
    return j[: big[-1] + 1]


def expv(recur, v: np.ndarray, x: float) -> np.ndarray:
    """``exp(-i x S) v`` for an operator S with spectrum in [-1, 1], given
    the Chebyshev recurrence ``recur(u, w) = 2 S u - w``, which may
    overwrite ``w`` and return it."""
    j = bessel_j(x)
    if j.size == 1:
        return v.copy()
    coef = 2.0 * j * _POWERS_OF_MINUS_I[np.arange(j.size) % 4]
    prev = v.copy()
    cur = 0.5 * recur(v, np.zeros_like(v))
    acc = j[0] * v + coef[1] * cur
    n = v.size
    for c in coef[2:].tolist():
        prev, cur = cur, recur(cur, prev)
        zaxpy(cur, acc, n, c)  # acc += c * cur, in place
    return acc


def chain_expv(v: np.ndarray, h: TriMatrix, tau: float) -> np.ndarray:
    """``exp(-i tau h) v`` by a Chebyshev series on h's Gershgorin interval."""
    lo, hi = h.gershgorin_bounds()
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    phase = cmath.exp(-1j * tau * center)
    if radius == 0.0:
        return phase * v
    # 2 (h - center) / radius in BLAS Hermitian band storage: the
    # superdiagonal over the diagonal
    band = np.zeros((2, h.size), dtype=np.complex128, order="F")
    band[0, 1:] = h.offdiag * (2.0 / radius)
    band[1] = (h.diag - center) * (2.0 / radius)

    def recur(u, w):
        # positional (k, alpha, a, x, incx, offx, beta, y, incy, offy, lower,
        # overwrite_y): keyword parsing would cost a third of the call
        return zhbmv(1, 1.0, band, u, 1, 0, -1.0, w, 1, 0, 0, 1)

    return phase * expv(recur, v, tau * radius)


def renormalized(v: np.ndarray) -> np.ndarray:
    """``v`` scaled to unit norm; a step that moved the norm by more than
    ``NORM_TOL`` raises :class:`ConvergenceError`."""
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > NORM_TOL:
        raise ConvergenceError(f"step changed the norm by {abs(nrm - 1.0):.2e}")
    return v / nrm


def cf4_chain(psi, diag0, qdiag, off, qgrid, dt, m, leak_tol):
    """Advance psi in place through the half-step q grid on its leading
    ``m`` levels, and return the window size reached.

    ``psi`` must vanish beyond level m.  After each step the amplitude that
    can have left the window is bounded by ``dt |off[m-1]| max|psi[m-1]|``,
    the maximum taken over the start, middle and end of the step; when the
    bound exceeds ``leak_tol``, m doubles (at most to the whole chain) and
    the step is redone.  Each step ends with :func:`renormalized`.
    """
    n = psi.shape[0]
    nsteps = (qgrid.shape[0] - 1) // 2
    for s in range(nsteps):
        q0, qm, q1 = qgrid[2 * s], qgrid[2 * s + 1], qgrid[2 * s + 2]
        qa = _WA[0] * q0 + _WA[1] * qm + _WA[2] * q1
        qb = _WB[0] * q0 + _WB[1] * qm + _WB[2] * q1
        q_first = 2.0 * (A1 * qa + A2 * qb)
        q_second = 2.0 * (A2 * qa + A1 * qb)
        while True:
            d0, dq, o = diag0[:m], qdiag[:m], off[: m - 1]
            mid = chain_expv(psi[:m], TriMatrix(d0 + q_first * dq, o), 0.5 * dt)
            end = chain_expv(mid, TriMatrix(d0 + q_second * dq, o), 0.5 * dt)
            if m == n:
                break
            edge = max(abs(psi[m - 1]), abs(mid[-1]), abs(end[-1]))
            if dt * abs(off[m - 1]) * edge <= leak_tol:
                break
            m = min(n, 2 * m)
        psi[:m] = renormalized(end)
    return m


# the benchmark's tracer wraps the kernel under this name; kept until the
# benchmark's next change renames its span target
rk4_chain = cf4_chain
