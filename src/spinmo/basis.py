"""Fock bases for a single-spatial-mode spin-1 condensate.

Every state the toolkit evolves lives in one fixed-(N, M) chain sector:

* :class:`PairBasis` -- the zero-magnetization "pair" sector spanned by
  ``|k>`` with occupations ``n_+1 = n_-1 = k`` and ``n_0 = N - 2k``.
  All Hamiltonians restricted to it are real symmetric tridiagonal.
* :class:`SectorBasis` -- the same chain structure for a general fixed
  magnetization ``M = n_+1 - n_-1`` (needed once atom loss moves the
  state out of M = 0).

Bases are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _check_n_atoms(n_atoms: int) -> None:
    if int(n_atoms) != n_atoms or n_atoms < 1:
        raise ValueError(f"n_atoms must be a positive integer, got {n_atoms!r}")


@dataclass(frozen=True)
class SectorBasis:
    """Chain basis of the fixed-(N, M) sector.

    States are indexed by k = 0 .. (N - |M|)//2 with occupations
    ``n_minus = k + max(0, -M)``, ``n_plus = k + max(0, M)`` and
    ``n_zero = N - 2k - |M|``.
    """

    n_atoms: int
    magnetization: int = 0
    n_plus: np.ndarray = field(init=False, repr=False, compare=False)
    n_zero: np.ndarray = field(init=False, repr=False, compare=False)
    n_minus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_atoms < 0:
            raise ValueError("n_atoms must be >= 0")
        if abs(self.magnetization) > self.n_atoms:
            raise ValueError(
                f"|M|={abs(self.magnetization)} exceeds n_atoms={self.n_atoms}"
            )
        k = np.arange(self.size, dtype=np.int64)
        m = self.magnetization
        object.__setattr__(self, "n_minus", k + max(0, -m))
        object.__setattr__(self, "n_plus", k + max(0, m))
        object.__setattr__(self, "n_zero", self.n_atoms - 2 * k - abs(m))

    @property
    def size(self) -> int:
        return (self.n_atoms - abs(self.magnetization)) // 2 + 1


class PairBasis(SectorBasis):
    """Zero-magnetization pair sector: ``|k> = |n_+1=k, n_0=N-2k, n_-1=k>``."""

    def __init__(self, n_atoms: int):
        _check_n_atoms(n_atoms)
        super().__init__(n_atoms=n_atoms, magnetization=0)


@dataclass
class StateVector:
    """Complex amplitude vector over a chain sector.

    Amplitudes are dense; a sector holds at most N//2 + 1 levels (501 at
    N = 1000), so sparsity never pays off.
    """

    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.basis.size,):
            raise ValueError(
                f"amplitude length {self.amplitudes.shape} does not match basis size "
                f"{self.basis.size}"
            )

    def copy(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes.copy())


def polar_state(basis: SectorBasis) -> StateVector:
    """All atoms in the m = 0 Zeeman component."""
    if basis.magnetization != 0:
        raise ValueError("polar state lives in the M = 0 sector")
    amps = np.zeros(basis.size, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(basis, amps)


def twin_fock_state(basis: SectorBasis) -> StateVector:
    """N/2 atoms in each of m = +1 and m = -1; requires even N."""
    n = basis.n_atoms
    if n % 2:
        raise ValueError(f"twin-Fock state requires an even atom number, got N={n}")
    if basis.magnetization != 0:
        raise ValueError("twin-Fock state lives in the M = 0 sector")
    amps = np.zeros(basis.size, dtype=np.complex128)
    amps[n // 2] = 1.0
    return StateVector(basis, amps)
