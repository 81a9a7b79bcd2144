"""Hamiltonians and collective-spin operators.

The working Hamiltonian for the condensate is

    H = c2p * L^2 / N  -  q * n0

with ``c2p`` the spin-exchange strength and ``q`` the quadratic Zeeman
splitting, both supplied in Hz.  The linear Zeeman term ``-p * Lz`` is a
constant on each fixed-magnetization sector and is left out.  Internally
matrices are stored either in angular units (rad/s, the default: Hz
inputs are multiplied by 2*pi) or in plain Hz; the choice is the
``convention`` flag carried by :class:`PhysicsParams` and recorded in
every output manifest.

Within a fixed-(N, M) sector the Hamiltonian is a real symmetric
tridiagonal chain.  With a = |M|, site k holding ``n0 = N - a - 2k``
m = 0 atoms, the closed forms are

    (L^2)[k, k]   = a(a+1) + 2*[(k+a+1)*n0 + (n0+1)*k]
    (L^2)[k, k+1] = 2*sqrt((k+1)*(k+a+1)*n0*(n0-1))

which at M = 0 reduce to ``2*[(N-2k)(2k+1) + k]`` and
``2(k+1)*sqrt((N-2k)(N-2k-1))``.  They are cross-validated entrywise
against a brute-force ladder-operator construction in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import SectorBasis

GYROMAGNETIC_RATIO_HZ_PER_G = -0.7e6

_CONVENTIONS = ("angular", "plain")


def unit_factor(convention: str) -> float:
    """Hz -> internal-unit multiplier: 2*pi for 'angular', 1 for 'plain'."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown unit convention {convention!r}; expected one of {_CONVENTIONS}")
    return 2.0 * math.pi if convention == "angular" else 1.0


@dataclass(frozen=True)
class PhysicsParams:
    """Condensate parameters; energies in Hz, converted on matrix build."""

    c2p_hz: float
    n_atoms: int
    q_hz: float = 0.0
    convention: str = "angular"

    def __post_init__(self):
        if self.c2p_hz <= 0:
            raise ValueError("c2p_hz must be > 0 (antiferromagnetic interactions)")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        unit_factor(self.convention)  # validates the flag

    @property
    def factor(self) -> float:
        return unit_factor(self.convention)

    def with_q(self, q_hz: float) -> "PhysicsParams":
        return replace(self, q_hz=q_hz)


@dataclass(frozen=True)
class TriMatrix:
    """Real symmetric tridiagonal matrix stored as two arrays.

    The arrays are read-only float64 copies of the ones given, so nothing
    writes to them once their entries are checked finite, not even the
    caller through the arrays it passed in.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        for name in ("diag", "offdiag"):
            copy = np.array(getattr(self, name), dtype=np.float64)
            copy.setflags(write=False)
            object.__setattr__(self, name, copy)
        if self.offdiag.shape != (max(self.size - 1, 0),):
            raise ValueError("offdiag must have length len(diag) - 1")
        if not (np.isfinite(self.diag).all() and np.isfinite(self.offdiag).all()):
            raise ValueError("matrix entries must be finite")

    @property
    def size(self) -> int:
        return self.diag.shape[0]


def l2_sector(n_atoms: int, magnetization: int = 0) -> TriMatrix:
    """Total-spin-squared chain in the fixed-(N, M) sector, units of 1."""
    basis = SectorBasis(n_atoms, magnetization)
    a = abs(magnetization)
    k = np.arange(basis.size, dtype=np.float64)
    n0 = basis.n_zero.astype(np.float64)
    diag = a * (a + 1.0) + 2.0 * ((k + a + 1.0) * n0 + (n0 + 1.0) * k)
    kk, n0k = k[:-1], n0[:-1]
    off = 2.0 * np.sqrt((kk + 1.0) * (kk + a + 1.0) * n0k * (n0k - 1.0))
    return TriMatrix(diag, off)


def hamiltonian_sector(params: PhysicsParams, basis: SectorBasis) -> TriMatrix:
    """``c2p * L^2 / N - q * n0`` on a chain sector, in internal units.

    ``basis.n_atoms`` may differ from ``params.n_atoms``; the L^2 term is
    always scaled by the sector's own atom number so that the same
    physics applies after loss events shrink N.
    """
    n = basis.n_atoms
    l2 = l2_sector(n, basis.magnetization)
    f = params.factor
    diag = f * (params.c2p_hz / n * l2.diag - params.q_hz * basis.n_zero)
    off = f * (params.c2p_hz / n) * l2.offdiag
    return TriMatrix(diag, off)


def hamiltonian_pair(params: PhysicsParams) -> TriMatrix:
    """Pair-sector Hamiltonian for ``params.n_atoms`` atoms, internal units."""
    return hamiltonian_sector(params, SectorBasis(params.n_atoms, 0))

