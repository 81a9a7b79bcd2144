"""Scalar diagnostics: occupied-level count, fidelities, squeezing, conversion.

The occupied-level count K counts reference-basis levels holding more
than a threshold population (default 1e-3, configurable for sensitivity
studies).  The generalized squeezing parameter is

    xi^2 = sum_alpha (<L_alpha^2> - <L_alpha>^2) / (S * N),   S = 1,

which is 0 for the even-N ground state at q = 0, 2/N for the odd-N one,
1 for a fully polarized coherent spin state and 2 for the polar state.
For ensembles the moments are averaged over trajectories first and only
then combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import FullBasis, SectorBasis, StateVector
from .operators import TriMatrix, l2_sector, lx_full, ly_full, lz_full, n0_full
from .spectra import EigenSystem, eigensolve_tridiagonal

K_THRESHOLD_DEFAULT = 1e-3

CSV_FIELDS = ("t", "q", "K", "F_singlet", "F_twinfock", "xi2", "pc", "norm", "n_current")


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
        return (
            self.t,
            self.q,
            self.K,
            self.F_singlet,
            self.F_twinfock,
            self.xi2,
            self.pc,
            self.norm,
            self.n_current,
        )


@dataclass(frozen=True)
class SpinMoments:
    """First and second moments of the collective spin components."""

    lx: float
    ly: float
    lz: float
    lx2: float
    ly2: float
    lz2: float

    def xi2(self, n_atoms: float) -> float:
        var = (self.lx2 - self.lx**2) + (self.ly2 - self.ly**2) + (self.lz2 - self.lz**2)
        return var / n_atoms

    @staticmethod
    def average(items: "list[SpinMoments]") -> "SpinMoments":
        arr = np.array([[m.lx, m.ly, m.lz, m.lx2, m.ly2, m.lz2] for m in items])
        return SpinMoments(*arr.mean(axis=0))


@lru_cache(maxsize=64)
def reference_eigensystem(n_atoms: int, magnetization: int = 0) -> EigenSystem:
    """Eigenbasis of the q = 0 Hamiltonian (pure spin-exchange chain)."""
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
    n0_ref = TriMatrix(n0 @ r**2, n0 @ (r[:, :-1] * r[:, 1:]))
    n0_ref.diag.setflags(write=False)
    n0_ref.offdiag.setflags(write=False)
    return n0_ref


@lru_cache(maxsize=64)
def singlet_amplitudes(n_atoms: int) -> np.ndarray | None:
    """Total-spin-zero ground state in the pair basis; None for odd N."""
    if n_atoms % 2:
        return None
    vec = reference_eigensystem(n_atoms).ground().copy()
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
    pops = reference.populations(state.amplitudes)
    return max(int(np.sum(pops > threshold)), 1)


def fidelity_singlet(state: StateVector) -> float:
    """Squared overlap with the total-spin-zero state of the current sector.

    Defined as 0 (rather than an error) for odd atom numbers and for
    nonzero magnetization, so that noise/loss ensembles mixing parities
    aggregate without faulting.
    """
    basis = state.basis
    if isinstance(basis, FullBasis):
        target = singlet_amplitudes(basis.n_atoms)
        if target is None:
            return 0.0
        blk = basis.block(0)
        return float(abs(np.vdot(target, state.amplitudes[blk])) ** 2)
    if basis.magnetization != 0:
        return 0.0
    target = singlet_amplitudes(basis.n_atoms)
    if target is None:
        return 0.0
    return float(abs(np.vdot(target, state.amplitudes)) ** 2)


def fidelity_twinfock(state: StateVector) -> float:
    """Squared overlap with the twin-Fock state; 0 for odd N or M != 0."""
    basis = state.basis
    n = basis.n_atoms
    if n % 2:
        return 0.0
    if isinstance(basis, FullBasis):
        idx = basis.index_of((n // 2, 0, n // 2))
        return float(abs(state.amplitudes[idx]) ** 2)
    if basis.magnetization != 0:
        return 0.0
    return float(abs(state.amplitudes[n // 2]) ** 2)


def spin_moments(state: StateVector) -> SpinMoments:
    """Collective-spin moments of a pure state.

    In a fixed-(N, M) sector Lx and Ly connect different sectors, so
    their first moments vanish and their second moments split the
    transverse part of <L^2> evenly.
    """
    basis = state.basis
    if isinstance(basis, FullBasis):
        a = state.amplitudes
        lx, ly = lx_full(basis), ly_full(basis)
        lza = lz_full(basis)
        lxa, lya = lx @ a, ly @ a
        return SpinMoments(
            lx=float(np.real(np.vdot(a, lxa))),
            ly=float(np.real(np.vdot(a, lya))),
            lz=float(np.real(np.vdot(a, lza * a))),
            lx2=float(np.real(np.vdot(lxa, lxa))),
            ly2=float(np.real(np.vdot(lya, lya))),
            lz2=float(np.real(np.vdot(a, lza**2 * a))),
        )
    m = basis.magnetization
    l2e = l2_sector(basis.n_atoms, m).expectation(state.amplitudes)
    trans = 0.5 * (l2e - m * m)
    return SpinMoments(0.0, 0.0, float(m), trans, trans, float(m * m))


def squeezing_xi2(state_or_moments, n_atoms: float | None = None) -> float:
    """Generalized spin-squeezing parameter of a state or averaged moments."""
    if isinstance(state_or_moments, SpinMoments):
        if n_atoms is None:
            raise ValueError("n_atoms required when passing averaged moments")
        return state_or_moments.xi2(n_atoms)
    state = state_or_moments
    n = n_atoms if n_atoms is not None else state.basis.n_atoms
    return spin_moments(state).xi2(n)


def conversion_efficiency(state: StateVector) -> float:
    """Fraction of atoms outside the m = 0 component, (N - <n0>)/N."""
    basis = state.basis
    a2 = np.abs(state.amplitudes) ** 2
    if isinstance(basis, FullBasis):
        n0 = n0_full(basis)
    else:
        n0 = basis.n_zero.astype(np.float64)
    n = basis.n_atoms
    return float((n - np.dot(n0, a2)) / n)


def record_for(
    state: StateVector,
    t: float,
    q_hz: float,
    reference: EigenSystem | None = None,
    threshold: float = K_THRESHOLD_DEFAULT,
) -> ObservableRecord:
    """All diagnostics of one state at one time."""
    basis = state.basis
    if reference is None and isinstance(basis, SectorBasis):
        reference = reference_eigensystem(basis.n_atoms, basis.magnetization)
    if isinstance(basis, FullBasis):
        # project onto the M = 0 pair chain for the level count
        blk = basis.block(0)
        sub = state.amplitudes[blk]
        ref0 = reference_eigensystem(basis.n_atoms, 0)
        pops = np.abs(ref0.vectors.T @ sub) ** 2
        k = max(int(np.sum(pops > threshold)), 1)
    else:
        k = occupied_levels(state, reference, threshold)
    return ObservableRecord(
        t=float(t),
        q=float(q_hz),
        K=k,
        F_singlet=fidelity_singlet(state),
        F_twinfock=fidelity_twinfock(state),
        xi2=squeezing_xi2(state),
        pc=conversion_efficiency(state),
        norm=state.norm,
        n_current=float(basis.n_atoms),
    )


def batch_records(
    basis: SectorBasis,
    states: np.ndarray,
    times: np.ndarray,
    q_values: np.ndarray,
    reference: EigenSystem,
    threshold: float = K_THRESHOLD_DEFAULT,
) -> list[ObservableRecord]:
    """:func:`record_for` over the columns of ``states`` with shared setup.

    Every column is reduced by fixed-shape operations so that the floats
    for a given state do not depend on how many other samples share the
    batch; that is what makes re-sampling at a finer grid a bitwise
    superset of the coarser run.
    """
    m = basis.magnetization
    l2 = l2_sector(basis.n_atoms, m)
    n0 = basis.n_zero.astype(np.float64)
    target = singlet_amplitudes(basis.n_atoms) if m == 0 else None
    tf_idx = basis.n_atoms // 2 if (m == 0 and basis.n_atoms % 2 == 0) else None
    out = []
    for j in range(states.shape[1]):
        col = np.ascontiguousarray(states[:, j])
        pops = np.abs(reference.vectors.T @ col) ** 2
        k = max(int(np.sum(pops > threshold)), 1)
        l2e = l2.expectation(col)
        dens = np.abs(col) ** 2
        out.append(
            ObservableRecord(
                t=float(times[j]),
                q=float(q_values[j]),
                K=k,
                F_singlet=float(abs(np.vdot(target, col)) ** 2) if target is not None else 0.0,
                F_twinfock=float(abs(col[tf_idx]) ** 2) if tf_idx is not None else 0.0,
                xi2=float((l2e - m * m) / basis.n_atoms),
                pc=float((basis.n_atoms - float(n0 @ dens)) / basis.n_atoms),
                norm=float(np.sqrt(dens.sum())),
                n_current=float(basis.n_atoms),
            )
        )
    return out
