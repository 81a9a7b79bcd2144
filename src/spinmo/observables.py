"""Diagnostics of chain-sector states: occupied-level count, fidelities,
squeezing, conversion.

The occupied-level count K counts reference-basis levels holding more
than a threshold population (default 1e-3, configurable for sensitivity
studies).  The generalized squeezing parameter is

    xi^2 = sum_alpha (<L_alpha^2> - <L_alpha>^2) / (S * N),   S = 1,

which is 0 for the even-N ground state at q = 0, 2/N for the odd-N one,
1 for a fully polarized coherent spin state and 2 for the polar state.

The reference basis of a chain sector (N, M) is the eigenbasis of its
L^2 chain, total spins L in ascending order.  With the populations
|a_L|^2 of a state in that basis, K counts them, the singlet fidelity is
|a_0|^2 (even N, M = 0) and xi^2 = (sum_L L(L+1) |a_L|^2 - M^2) / N, so
:func:`batch_records` reads every chain-sector diagnostic but the
pair-basis densities off one projection.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter

import numpy as np

from .basis import SectorBasis, StateVector
from .operators import TriMatrix, l2_sector
from .spectra import EigenSystem, eigensolve_tridiagonal

K_THRESHOLD_DEFAULT = 1e-3


@dataclass(frozen=True)
class ObservableRecord:
    """One sampled row of diagnostics; the CSV schema of every run output."""

    t: float
    q: float
    K: int
    F_singlet: float
    F_twinfock: float
    xi2: float
    pc: float
    norm: float
    n_current: float

    def astuple(self) -> tuple:
        return _CSV_ROW(self)


CSV_FIELDS = tuple(f.name for f in fields(ObservableRecord))
_CSV_ROW = attrgetter(*CSV_FIELDS)


@lru_cache(maxsize=64)
def reference_eigensystem(n_atoms: int, magnetization: int = 0) -> EigenSystem:
    """Eigenbasis of the q = 0 Hamiltonian (pure spin-exchange chain).
    The chains of M and -M are one matrix, so they share one solve."""
    if magnetization < 0:
        return reference_eigensystem(n_atoms, -magnetization)
    return eigensolve_tridiagonal(l2_sector(n_atoms, magnetization))


@lru_cache(maxsize=64)
def reference_n0(n_atoms: int, magnetization: int = 0) -> TriMatrix:
    """The m = 0 number operator in the q = 0 eigenbasis, ``R^T n0 R``.

    The reference levels are the total spins L >= |M| of the parity of N,
    in ascending order, and n0 couples L only to L and L +- 2, so the
    matrix is tridiagonal: its three diagonals are summed directly,
    without forming the dense product.
    """
    r = reference_eigensystem(n_atoms, magnetization).vectors
    n0 = SectorBasis(n_atoms, magnetization).n_zero.astype(np.float64)
    return TriMatrix(n0 @ r**2, n0 @ (r[:, :-1] * r[:, 1:]))


@lru_cache(maxsize=64)
def singlet_amplitudes(n_atoms: int) -> np.ndarray | None:
    """Total-spin-zero ground state in the pair basis; None for odd N."""
    if n_atoms % 2:
        return None
    vec = reference_eigensystem(n_atoms, 0).ground().copy()
    vec.setflags(write=False)
    return vec


def occupied_levels(
    state: StateVector,
    reference: EigenSystem,
    threshold: float = K_THRESHOLD_DEFAULT,
) -> int:
    """Number of reference levels with population above the threshold."""
    if reference.size != state.basis.size:
        raise ValueError("reference eigensystem is from a different sector")
    return int(level_count(reference.populations(state.amplitudes), threshold))


def level_count(pops: np.ndarray, threshold: float):
    """Occupied-level count K of each population column, at least 1."""
    return np.maximum((pops > threshold).sum(axis=0), 1)


def record_for(
    state: StateVector,
    t: float,
    q_hz: float,
    threshold: float = K_THRESHOLD_DEFAULT,
) -> ObservableRecord:
    """All diagnostics of one chain-sector state at one time
    (:func:`batch_records` of one column)."""
    basis = state.basis
    reference = reference_eigensystem(basis.n_atoms, basis.magnetization)
    return batch_records(basis, state.amplitudes[:, None], [t], [q_hz], reference, threshold)[0]


def batch_records(
    basis: SectorBasis,
    states: np.ndarray,
    times: np.ndarray,
    q_values: np.ndarray,
    reference: EigenSystem,
    threshold: float = K_THRESHOLD_DEFAULT,
) -> list[ObservableRecord]:
    """The records of the columns of ``states``, one chain sector, with
    shared setup.

    ``reference`` is :func:`reference_eigensystem` of the sector: K,
    F_singlet and xi^2 are read off each column's populations in it (see
    the module docstring); pc, F_twinfock and the norm off its pair-basis
    densities.  Every column is reduced by fixed-shape operations so that
    the floats for a given state do not depend on how many other samples
    share the batch; that is what makes re-sampling at a finer grid a
    bitwise superset of the coarser run.  An empty sector (N = 0, left by
    a loss trajectory that lost every atom) reads K = 1 and 0 for every
    other diagnostic but the norm.
    """
    n = basis.n_atoms
    m = basis.magnetization
    n0 = basis.n_zero.astype(np.float64)
    paired = n > 0 and m == 0 and n % 2 == 0
    out = []
    for j in range(states.shape[1]):
        col = np.ascontiguousarray(states[:, j])
        dens = np.abs(col) ** 2
        pops = reference.populations(col)
        out.append(
            ObservableRecord(
                t=float(times[j]),
                q=float(q_values[j]),
                K=int(level_count(pops, threshold)),
                F_singlet=float(pops[0]) if paired else 0.0,
                F_twinfock=float(dens[n // 2]) if paired else 0.0,
                xi2=float((reference.values @ pops - m * m) / n) if n else 0.0,
                pc=float((n - float(n0 @ dens)) / n) if n else 0.0,
                norm=float(np.sqrt(dens.sum())),
                n_current=float(n),
            )
        )
    return out
