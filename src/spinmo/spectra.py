"""Spectral decomposition, energy gap, critical point, adiabaticity.

The eigensolver is LAPACK's divide-and-conquer symmetric-tridiagonal
driver ``dstevd``, called directly (it is what
``scipy.linalg.eigh_tridiagonal`` runs for a full spectrum, without that
wrapper's per-call overhead); results are wrapped with a
deterministic sign convention (largest-magnitude component of every
eigenvector made positive) so that repeated runs are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dstevd

from .errors import ConvergenceError
from .operators import PhysicsParams, TriMatrix, hamiltonian_pair
from .basis import SectorBasis

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def ground(self) -> np.ndarray:
        return self.vectors[:, 0]

    def project(self, amplitudes: np.ndarray) -> np.ndarray:
        """Amplitudes in the eigenbasis (vectors are real orthonormal)."""
        return real_map(self.vectors.T, amplitudes)

    def populations(self, amplitudes: np.ndarray) -> np.ndarray:
        c = self.project(amplitudes)
        return c.real**2 + c.imag**2

    def evolve(self, amplitudes: np.ndarray, taus) -> np.ndarray:
        """``exp(-i H tau) a`` for each tau, one column per tau.

        Each column is its own product, so its floats do not depend on
        how many other times share the call.
        """
        return np.stack(self.evolve_projected(self.project(amplitudes), taus), axis=1)

    def evolve_projected(self, c: np.ndarray, taus) -> list[np.ndarray]:
        """The columns of :meth:`evolve` for the state whose eigenbasis
        amplitudes are ``c`` (:meth:`project`), one array per tau."""
        rate = -1j * self.values
        return [real_map(self.vectors, np.exp(rate * tau) * c) for tau in taus]


def real_map(matrix: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``matrix @ z`` for a real matrix and complex ``z`` (a vector or one
    column per sample), as one real product on the float view of ``z``, so
    that the matrix is never copied to complex and ``z`` is never split
    into strided real and imaginary copies."""
    z = np.ascontiguousarray(z, dtype=complex)
    out = matrix @ z.reshape(z.shape[0], -1).view(np.float64)
    return out.view(complex).reshape(matrix.shape[:1] + z.shape[1:])


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    lead = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    return vectors * np.where(lead < 0.0, -1.0, 1.0)


def eigensolve_tridiagonal(m: TriMatrix) -> EigenSystem:
    """Full spectrum and eigenvectors of a symmetric tridiagonal matrix,
    bit for bit those of ``scipy.linalg.eigh_tridiagonal``.  The entries
    are finite: :class:`TriMatrix` checks them and keeps them read-only."""
    if m.size == 1:
        return EigenSystem(m.diag.copy(), np.ones((1, 1)))
    values, vectors, info = dstevd(m.diag, m.offdiag)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolver failed (LAPACK info={info})")
    return EigenSystem(values, _fix_signs(vectors))


def gap(params: PhysicsParams) -> float:
    """Energy gap E1 - E0 of the pair-sector Hamiltonian, in Hz."""
    h = hamiltonian_pair(params)
    values = scipy.linalg.eigh_tridiagonal(
        h.diag, h.offdiag, eigvals_only=True, select="i", select_range=(0, 1)
    )
    return float(values[1] - values[0]) / params.factor


def critical_q_estimate(n_atoms: int, c2p_hz: float) -> float:
    """Closed-form location of the perturbative gap minimum, in Hz: the
    vertex ``x = 3.7688/N^2`` of the small-q expansion of the gap,
    ``6/N - 0.1907*N*x + 0.0253*N^3*x^2`` in units of c2p with x = q/c2p."""
    return 3.7688 / float(n_atoms) ** 2 * c2p_hz


def find_critical_q(n_atoms: int, c2p_hz: float, convention: str = "angular") -> float:
    """Locate the minimum-gap q, in Hz, by golden-section search to a
    relative width of 1e-4.

    The bracket spans two decades around the perturbative estimate
    (:func:`critical_q_estimate` / 10 to x 10), wide enough that the
    interior minimum is always enclosed.
    """
    if n_atoms < 4:
        raise ValueError("critical-point search requires N >= 4")
    q_est = critical_q_estimate(n_atoms, c2p_hz)

    def f(q):
        return gap(PhysicsParams(c2p_hz, n_atoms, q, convention))

    a, b = q_est / 10.0, q_est * 10.0
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > 1e-4 * b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def adiabatic_beta(params: PhysicsParams, dq_dt_hz_per_s: float) -> float:
    """Dimensionless adiabaticity measure of a q ramp.

    beta = |dq/dt * <e| n0 |g>| / (E1 - E0)^2 with the instantaneous
    ground and first-excited states of the pair-sector Hamiltonian; only
    the explicit q(t) dependence is differentiated.  Everything is
    evaluated in internal units, which is what makes the value
    convention-dependent and lets a measured reference value pin the
    convention.
    """
    h = hamiltonian_pair(params)
    if h.size < 2:
        raise ValueError("adiabaticity needs at least two levels")
    values, vectors = scipy.linalg.eigh_tridiagonal(
        h.diag, h.offdiag, select="i", select_range=(0, 1)
    )
    de = float(values[1] - values[0])
    if de <= 0 or not np.isfinite(de):
        raise ConvergenceError(f"degenerate or invalid gap {de}")
    n0 = SectorBasis(params.n_atoms, 0).n_zero
    element = float(vectors[:, 1] @ (n0 * vectors[:, 0]))
    return abs(params.factor * dq_dt_hz_per_s * element) / de**2
