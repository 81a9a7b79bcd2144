"""Fock bases for a single-spatial-mode spin-1 condensate.

Three bases cover everything the toolkit does:

* :class:`PairBasis` -- the zero-magnetization "pair" sector spanned by
  ``|k>`` with occupations ``n_+1 = n_-1 = k`` and ``n_0 = N - 2k``.
  All Hamiltonians restricted to it are real symmetric tridiagonal.
* :class:`SectorBasis` -- the same chain structure for a general fixed
  magnetization ``M = n_+1 - n_-1`` (needed once atom loss moves the
  state out of M = 0).
* :class:`FullBasis` -- every three-mode configuration with fixed total
  atom number, grouped in contiguous magnetization blocks (needed when a
  transverse field couples neighbouring M sectors).

Bases are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError

FULL_BASIS_DEFAULT_CAP = 300


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

    def config(self, k: int) -> tuple[int, int, int]:
        """Occupations ``(n_minus, n_zero, n_plus)`` of chain site k."""
        return (int(self.n_minus[k]), int(self.n_zero[k]), int(self.n_plus[k]))

    def index_of(self, config: tuple[int, int, int]) -> int:
        """Inverse of :meth:`config`; raises KeyError for foreign configs."""
        nm, n0, np_ = config
        if nm + n0 + np_ != self.n_atoms or np_ - nm != self.magnetization:
            raise KeyError(f"{config} not in sector (N={self.n_atoms}, M={self.magnetization})")
        k = min(nm, np_)
        if n0 != self.n_atoms - 2 * k - abs(self.magnetization) or n0 < 0:
            raise KeyError(f"{config} not in sector (N={self.n_atoms}, M={self.magnetization})")
        return int(k)


class PairBasis(SectorBasis):
    """Zero-magnetization pair sector: ``|k> = |n_+1=k, n_0=N-2k, n_-1=k>``."""

    def __init__(self, n_atoms: int):
        _check_n_atoms(n_atoms)
        super().__init__(n_atoms=n_atoms, magnetization=0)


def build_pair_basis(n_atoms: int) -> PairBasis:
    """Pair basis of the M = 0 sector; size is ``N//2 + 1``."""
    return PairBasis(n_atoms)


@dataclass(frozen=True)
class NumberBasis:
    """Truncated number basis |0>, ..., |size-1> of a single oscillator mode."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")


class FullBasis:
    """All ``(n_-1, n_0, n_+1)`` configurations of N spin-1 atoms.

    Ordering: magnetization blocks ascending from M = -N to +N, and
    descending ``n_0`` within each block.  The ordering is part of the
    output-stability contract and must not change.
    """

    def __init__(self, n_atoms: int, cap: int = FULL_BASIS_DEFAULT_CAP):
        _check_n_atoms(n_atoms)
        if n_atoms > cap:
            raise ResourceCapError(
                f"full basis for N={n_atoms} exceeds the configured cap of {cap} atoms "
                f"({(n_atoms + 1) * (n_atoms + 2) // 2} states); raise the cap explicitly "
                "if this is intentional"
            )
        self.n_atoms = n_atoms
        states = []
        block_slices: dict[int, slice] = {}
        pos = 0
        for m in range(-n_atoms, n_atoms + 1):
            block = []
            for n0 in range(n_atoms - abs(m), -1, -2):
                n_plus = (n_atoms - n0 + m) // 2
                n_minus = (n_atoms - n0 - m) // 2
                block.append((n_minus, n0, n_plus))
            block_slices[m] = slice(pos, pos + len(block))
            states.extend(block)
            pos += len(block)
        self.states = np.array(states, dtype=np.int64)
        self.block_slices = block_slices
        self._index = {tuple(s): i for i, s in enumerate(states)}

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def index_of(self, config: tuple[int, int, int]) -> int:
        return self._index[tuple(int(c) for c in config)]

    def block(self, magnetization: int) -> slice:
        """Contiguous index range of one magnetization block."""
        return self.block_slices[magnetization]

    @property
    def magnetizations(self) -> np.ndarray:
        """Per-state magnetization M = n_+1 - n_-1."""
        return self.states[:, 2] - self.states[:, 0]


def build_full_basis(n_atoms: int, cap: int = FULL_BASIS_DEFAULT_CAP) -> FullBasis:
    """Full three-mode basis with ``(N+1)(N+2)/2`` states."""
    return FullBasis(n_atoms, cap=cap)


@dataclass
class StateVector:
    """Complex amplitude vector over one of the bases above.

    Amplitudes are dense; sector dimensions stay small enough (<= ~5200
    at the scales this toolkit targets) that sparsity never pays off.
    """

    basis: SectorBasis | FullBasis | NumberBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (self.basis.size,):
            raise ValueError(
                f"amplitude length {self.amplitudes.shape} does not match basis size "
                f"{self.basis.size}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes / self.norm)

    def copy(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes.copy())

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity_to(self, other: "StateVector") -> float:
        return float(abs(self.overlap(other)) ** 2)


def polar_state(basis: SectorBasis | FullBasis) -> StateVector:
    """All atoms in the m = 0 Zeeman component."""
    amps = np.zeros(basis.size, dtype=np.complex128)
    if isinstance(basis, FullBasis):
        amps[basis.index_of((0, basis.n_atoms, 0))] = 1.0
    else:
        if basis.magnetization != 0:
            raise ValueError("polar state lives in the M = 0 sector")
        amps[0] = 1.0
    return StateVector(basis, amps)


def twin_fock_state(basis: SectorBasis | FullBasis) -> StateVector:
    """N/2 atoms in each of m = +1 and m = -1; requires even N."""
    n = basis.n_atoms
    if n % 2:
        raise ValueError(f"twin-Fock state requires an even atom number, got N={n}")
    amps = np.zeros(basis.size, dtype=np.complex128)
    if isinstance(basis, FullBasis):
        amps[basis.index_of((n // 2, 0, n // 2))] = 1.0
    else:
        if basis.magnetization != 0:
            raise ValueError("twin-Fock state lives in the M = 0 sector")
        amps[n // 2] = 1.0
    return StateVector(basis, amps)
