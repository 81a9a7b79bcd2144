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
Bessel coefficients from Miller's backward recurrence.  A series stays
exact on any interval that contains the spectrum, so the interval's
radius is rounded up to a grid of ``RADIUS_STEPS_PER_OCTAVE`` steps per
octave: the interval grows by at most 2^(1/16) - 1 = 4.4%, which costs
at most about one extra term.  The coefficients are kept in a dict by
series argument that the caller owns: one segment of a ramp
(:func:`spinmo.propagate.evolve_ramp`) is one :func:`cf4_chain` call for
its main line plus one per off-grid sample branch, all sharing one dict,
so each argument's coefficients are computed once per segment and
dropped with it.  A batch of chains (an ensemble's trajectories, or a
single state) is one block-diagonal operator, so a series costs one band
product and one vector update per term for the whole batch; what stays
fixed between window changes is built once per window change, and the
q-dependent part of the exponentials of up to ``_CHUNK_STEPS`` steps in
whole-array passes, so that per exponential only the series runs.

Windows, like the blocks of :func:`spinmo.propagate.hold_levels`, sit on
a ladder of multiples of 8 levels (:func:`ladder`).  A leaking window of
a single chain grows to the next rung at least 1.5 times its width; in a
batch it doubles, since there one regrowth redoes every block's step.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.linalg.blas import zaxpy, zhbmv

from .errors import ConvergenceError

# CF4:2 weights and Gauss nodes
A1 = 0.25 + math.sqrt(3.0) / 6.0
A2 = 0.25 - math.sqrt(3.0) / 6.0
GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)

NORM_TOL = 1e-10        # per-step |norm - 1| before renormalizing
_SERIES_TOL = 1e-17     # Bessel coefficients below this end the series
RADIUS_STEPS_PER_OCTAVE = 16  # grid the series' radius is rounded up to
_JOIN = np.zeros(1)     # the coupling between two blocks of a band
_CHUNK_STEPS = 64       # steps whose exponentials a window prepares at once
_CHUNK_LEVELS = 1 << 15  # cap on exponentials x levels prepared at once (1 MB of bands)


def _lagrange_weights(theta: float) -> tuple[float, float, float]:
    """Weights of q at 0, 1/2 and 1 of a step for q at ``theta`` (quadratic)."""
    return (
        2.0 * (theta - 0.5) * (theta - 1.0),
        -4.0 * theta * (theta - 1.0),
        2.0 * theta * (theta - 0.5),
    )


_POWERS_OF_MINUS_I = np.array([1.0, -1j, -1.0, 1j])
# _NODE_WEIGHTS[j] weighs q at half-step j of a step into qA and qB; q1 and
# q2 of the step are 2 (_FROM_QA qA + _FROM_QB qB)
_NODE_WEIGHTS = np.array([_lagrange_weights(x) for x in GAUSS_NODES]).T.reshape(3, 2, 1, 1)
_FROM_QA = np.array([A1, A2]).reshape(2, 1, 1)
_FROM_QB = np.array([A2, A1]).reshape(2, 1, 1)


def ladder(m: int, n: int) -> int:
    """The smallest multiple of 8 that is at least ``m``, at most ``n``: the
    rungs on which hold blocks and ramp windows grow."""
    return min(n, -(-m // 8) * 8)


def next_rung(m: int, n: int) -> int:
    """The first rung of the ladder at least 1.5 ``m``, at most ``n``."""
    return ladder((3 * m + 1) // 2, n)


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


def chebyshev_coefficients(x: float) -> list[complex]:
    """The series of ``exp(-i x S)`` in Chebyshev polynomials of S:
    ``J_0(x)``, then ``2 (-i)^k J_k(x)`` for k >= 1."""
    j = bessel_j(x)
    coef = 2.0 * j * _POWERS_OF_MINUS_I[np.arange(j.size) % 4]
    coef[0] = j[0]
    return coef.tolist()


def renormalized(v: np.ndarray) -> np.ndarray:
    """Scale the contiguous vector ``v`` in place to unit norm and return
    it; a step that moved the norm by more than ``NORM_TOL`` raises
    :class:`ConvergenceError`.  The squared norm is one dot product of the
    float view of ``v``."""
    w = v.view(np.float64)
    nrm = math.sqrt(w @ w)
    if not abs(nrm - 1.0) <= NORM_TOL:  # also catches a NaN norm
        raise ConvergenceError(f"step changed the norm by {abs(nrm - 1.0):.2e}")
    v /= nrm
    return v


class _Band:
    """The leading windows of B chains laid end to end as one Hermitian band,
    with a zero coupling at each join, so that one band product applies all
    B blocks.  Built once per change of the windows, with everything that
    stays fixed until then (Gershgorin radii, block slices, edge levels and
    couplings); :meth:`prepare` forms the q-dependent part of many
    exponentials at once."""

    def __init__(self, diag0, qdiag, off, ms):
        self.ms = np.array(ms)
        self.stops = np.cumsum(self.ms)
        self.last = self.stops - 1  # each block's last level
        self.blocks = [slice(stop - m, stop) for stop, m in zip(self.stops.tolist(), ms)]
        self.d0 = np.concatenate([d[:m] for d, m in zip(diag0, ms)])
        self.dq = np.concatenate([d[:m] for d, m in zip(qdiag, ms)])
        joined = []
        for o, m in zip(off, ms):
            joined += [o[: m - 1], _JOIN]
        self.off = np.concatenate(joined[:-1])
        # Gershgorin radius of every row
        self.radius = np.zeros(self.d0.size)
        if self.d0.size > 1:
            self.radius[:-1] += np.abs(self.off)
            self.radius[1:] += np.abs(self.off)
        # coupling out of each window; zero where the window is the whole chain
        self.edge_off = np.array(
            [abs(o[m - 1]) if m <= o.size else 0.0 for o, m in zip(off, ms)]
        )

    def prepare(self, qs: np.ndarray, tau: float) -> list[tuple]:
        """The exponentials ``exp(-i tau H)`` with ``H = D0 + q[b] Dq + Off``
        on block b, one for each row q of ``qs``, ready for :func:`expv`.

        Each is one Chebyshev series on the union of the blocks' Gershgorin
        intervals, its radius rounded up to the grid: ``(phase, x, band)``
        with ``phase = exp(-i tau center)``, the series argument ``x = tau
        radius`` (None for a pure phase) and ``band`` holding ``2 S``,
        ``S = (H - center) / radius``, in BLAS Hermitian band storage, the
        superdiagonal over the diagonal.  The diagonals, the Gershgorin
        intervals and the band rows are formed in whole-array passes over
        all rows; centres, radii, their grid rounding and the phases are
        scalar, once per row."""
        diag = self.d0 + qs.repeat(self.ms, axis=1) * self.dq
        lo = (diag - self.radius).min(axis=1)
        hi = (diag + self.radius).max(axis=1)
        center, phases, xs, scale = [], [], [], []
        for lo_e, hi_e in zip(lo.tolist(), hi.tolist()):
            c, r = 0.5 * (hi_e + lo_e), 0.5 * (hi_e - lo_e)
            if not math.isfinite(r):
                raise ValueError("matrix entries must be finite")
            center.append(c)
            phases.append(cmath.exp(-1j * tau * c))
            if r == 0.0:
                xs.append(None)
                scale.append(0.0)
                continue
            r = 2.0 ** (math.ceil(RADIUS_STEPS_PER_OCTAVE * math.log2(r)) / RADIUS_STEPS_PER_OCTAVE)
            xs.append(tau * r)
            scale.append(2.0 / r)
        scale = np.array(scale)[:, None]
        # exponential e's band is bands[e].T, Fortran-ordered as zhbmv reads it
        bands = np.empty((len(xs), self.d0.size, 2), dtype=np.complex128)
        bands[:, 0, 0] = 0.0
        np.multiply(self.off, scale, out=bands[:, 1:, 0])
        diag -= np.array(center)[:, None]
        np.multiply(diag, scale, out=bands[:, :, 1])
        return [(phase, x, band.T) for phase, x, band in zip(phases, xs, bands)]


def expv(v: np.ndarray, exponential: tuple, coefs: dict) -> tuple[np.ndarray, int]:
    """One exponential of :meth:`_Band.prepare` applied to ``v``, and the
    number of series terms that took.  ``coefs`` maps a series argument to
    its :func:`chebyshev_coefficients` and gains the ones computed here."""
    phase, x, band = exponential
    if x is None:
        return phase * v, 1
    coef = coefs.get(x)
    if coef is None:
        coef = coefs[x] = chebyshev_coefficients(x)
    if len(coef) == 1:
        return phase * v, 1
    # zhbmv positional (k, alpha, a, x, incx, offx, beta, y, incy, offy,
    # lower, overwrite_y): keyword parsing would cost a third of the call.
    # T_1 v = S v, then T_k v = 2 S T_(k-1) v - T_(k-2) v, overwriting
    # T_(k-2) v; acc sums the series in place
    cur = zhbmv(1, 0.5, band, v)
    prev = v.copy()
    acc = coef[0] * v + coef[1] * cur
    n = v.size
    for c in coef[2:]:
        prev, cur = cur, zhbmv(1, 1.0, band, cur, 1, 0, -1.0, prev, 1, 0, 0, 1)
        zaxpy(cur, acc, n, c)  # acc += c * cur
    # phase first: numpy's complex product is not symmetric to the bit
    return np.multiply(phase, acc, out=acc), len(coef)


def cf4_chain(psis, diag0, qdiag, off, qgrid, dt, ms, leak_tol, coefs, keep=(), *, counts=None):
    """Advance B chains in place through a half-step q grid, each on its
    leading window, and return copies of them after each step count in
    ``keep``.

    ``psis``, ``diag0``, ``qdiag`` and ``off`` hold one array per chain;
    chain b has the Hamiltonian ``diag0[b] + q qdiag[b] + off[b]``, its
    state ``psis[b]`` must vanish beyond level ``ms[b]``, and column b of
    ``qgrid`` (shape ``(2 steps + 1, B)``) is its q.  Every exponential
    acts on all windows at once (:class:`_Band`), and the exponentials of
    up to ``_CHUNK_STEPS`` steps are prepared together.  After each step
    the amplitude that can have left window b is bounded by
    ``dt |off[b][m-1]| max|psi_b[m-1]|``, the maximum taken over the start,
    middle and end of the step.  Where some block's bound exceeds
    ``leak_tol``, the step is redone for the whole batch with every such
    block on a larger window.  A single chain's window grows to the first rung of the
    8-level ladder at least 1.5 times its width (:func:`next_rung`); in a
    batch of more than one each such window doubles, since one regrowth
    there redoes every block's step.  No window grows past its chain.
    Each step ends with :func:`renormalized` on every block.

    ``coefs`` maps a series argument to its :func:`chebyshev_coefficients`
    and gains the ones computed here, so calls that share it (a segment's
    main line and its sample branches) compute each once.  The result maps
    each step count k in ``keep`` to copies of the chains after k steps and
    their windows then, the start of a branch.  The series terms run and
    the steps redone are added to ``counts["chebyshev_terms"]`` and
    ``counts["ramp_regrowths"]``.
    """
    ms = list(ms)
    band = _Band(diag0, qdiag, off, ms)
    reach = dt * band.edge_off
    v = np.concatenate([p[:m] for p, m in zip(psis, ms)])
    keep = set(keep)
    kept = {0: ([p.copy() for p in psis], list(ms))} if 0 in keep else {}
    # q at the Gauss nodes of every step, then of its two exponentials, in
    # one row each: row 2 s + j is exponential j of step s
    weights = _NODE_WEIGHTS
    qa, qb = weights[0] * qgrid[0:-1:2] + weights[1] * qgrid[1::2] + weights[2] * qgrid[2::2]
    steps = qa.shape[0]
    qs = np.empty((steps, 2, qa.shape[1]))
    np.multiply(2.0, _FROM_QA * qa + _FROM_QB * qb, out=qs.transpose(1, 0, 2))
    qs = qs.reshape(2 * steps, -1)
    terms = regrowths = 0
    ready = 0  # exps holds the exponentials of the steps up to this one
    for s in range(steps):
        while True:
            if s == ready:
                ready = min(steps, s + max(1, min(_CHUNK_STEPS, _CHUNK_LEVELS // v.size)))
                exps = iter(band.prepare(qs[2 * s : 2 * ready], 0.5 * dt))
            mid, n1 = expv(v, next(exps), coefs)
            end, n2 = expv(mid, next(exps), coefs)
            terms += n1 + n2
            last = band.last
            edge = np.abs(np.array((v[last], mid[last], end[last]))).max(axis=0)
            leaks = reach * edge > leak_tol
            if not leaks.any():
                break
            regrowths += 1
            _scatter(v, psis, band.blocks)
            for b in np.flatnonzero(leaks).tolist():
                n = psis[b].shape[0]
                ms[b] = next_rung(ms[b], n) if len(ms) == 1 else min(n, 2 * ms[b])
            band = _Band(diag0, qdiag, off, ms)
            reach = dt * band.edge_off
            v = np.concatenate([p[:m] for p, m in zip(psis, ms)])
            ready = s
        for block in band.blocks:
            renormalized(end[block])
        v = end
        if s + 1 in keep:
            _scatter(v, psis, band.blocks)
            kept[s + 1] = ([p.copy() for p in psis], list(ms))
    _scatter(v, psis, band.blocks)
    if counts is not None:
        counts["chebyshev_terms"] += terms
        counts["ramp_regrowths"] += regrowths
    return kept


def _scatter(v: np.ndarray, psis, blocks) -> None:
    """Write the concatenated windows ``v`` back into the chains."""
    for p, block in zip(psis, blocks):
        p[: block.stop - block.start] = v[block]


# the benchmark's tracer wraps the kernel under this name; kept until the
# benchmark's next change renames its span target
rk4_chain = cf4_chain
