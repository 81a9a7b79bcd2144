"""The full three-mode Fock basis and its collective-spin operators.

spinmo itself works on fixed-(N, M) chain sectors only.  The full basis
holds every ``(n_-1, n_0, n_+1)`` configuration of N atoms, grouped in
contiguous magnetization blocks, so that a transverse field coupling
neighbouring M sectors can be represented.  It is the oracle the chain
operators, the records and the relaxation ensemble are checked against
(and the space :mod:`dense_lindblad` integrates on).

The lab-frame Hamiltonian on it is

    H = c2p * L^2 / N  -  q * n0  -  p * Lz  -  h * Lx

with ``p`` the linear Zeeman and ``h`` the transverse splitting in Hz.

The module also holds the chain-sector helpers that only the tests read:
site occupations and their inverse, and the dense form and expectation
value of a tridiagonal chain.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from spinmo.basis import SectorBasis, StateVector
from spinmo.operators import PhysicsParams, TriMatrix, l2_sector

FULL_BASIS_DEFAULT_CAP = 300


class ResourceCapError(Exception):
    """An oracle asked for more than its size cap."""


class FullBasis:
    """All ``(n_-1, n_0, n_+1)`` configurations of N spin-1 atoms.

    Ordering: magnetization blocks ascending from M = -N to +N, and
    descending ``n_0`` within each block, so that block M holds the chain
    sites of :class:`~spinmo.basis.SectorBasis` ``(N, M)`` in order.
    """

    def __init__(self, n_atoms: int, cap: int = FULL_BASIS_DEFAULT_CAP):
        if int(n_atoms) != n_atoms or n_atoms < 1:
            raise ValueError(f"n_atoms must be a positive integer, got {n_atoms!r}")
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


def embed(state: StateVector, basis: FullBasis) -> np.ndarray:
    """The amplitudes of a chain-sector state on the full basis: its
    magnetization block, zero elsewhere."""
    sector: SectorBasis = state.basis
    if sector.n_atoms != basis.n_atoms:
        raise ValueError("the state and the full basis hold different atom numbers")
    out = np.zeros(basis.size, dtype=np.complex128)
    out[basis.block(sector.magnetization)] = state.amplitudes
    return out


def sector_config(basis: SectorBasis, k: int) -> tuple[int, int, int]:
    """Occupations ``(n_minus, n_zero, n_plus)`` of chain site k."""
    return (int(basis.n_minus[k]), int(basis.n_zero[k]), int(basis.n_plus[k]))


def sector_index(basis: SectorBasis, config: tuple[int, int, int]) -> int:
    """Inverse of :func:`sector_config`; raises KeyError for foreign configs."""
    nm, n0, np_ = config
    n, m = basis.n_atoms, basis.magnetization
    if nm + n0 + np_ != n or np_ - nm != m:
        raise KeyError(f"{config} not in sector (N={n}, M={m})")
    k = min(nm, np_)
    if n0 != n - 2 * k - abs(m) or n0 < 0:
        raise KeyError(f"{config} not in sector (N={n}, M={m})")
    return int(k)


def to_dense(m: TriMatrix) -> np.ndarray:
    """The tridiagonal chain as a dense symmetric matrix."""
    out = np.diag(m.diag)
    if m.size > 1:
        idx = np.arange(m.size - 1)
        out[idx, idx + 1] = m.offdiag
        out[idx + 1, idx] = m.offdiag
    return out


def expectation(m: TriMatrix, v: np.ndarray) -> float:
    """``<v|m|v>``, with ``m v`` formed band by band."""
    mv = m.diag * v
    if m.size > 1:
        mv[:-1] += m.offdiag * v[1:]
        mv[1:] += m.offdiag * v[:-1]
    return float(np.real(np.vdot(v, mv)))


def lz_full(basis: FullBasis) -> np.ndarray:
    """Diagonal of L_z (value M on each magnetization block), units of 1."""
    return basis.magnetizations.astype(np.float64)


def n0_full(basis: FullBasis) -> np.ndarray:
    """Diagonal of the m = 0 number operator on the full basis."""
    return basis.states[:, 1].astype(np.float64)


def _transverse_entries(basis: FullBasis):
    """Rows/cols/values of the raising half of L_x (M -> M+1 couplings)."""
    rows, cols, vals = [], [], []
    s = math.sqrt(2.0) / 2.0
    for i, (nm, n0, npl) in enumerate(basis.states):
        if n0 >= 1:  # a_+1^dag a_0 : (nm, n0, npl) -> (nm, n0-1, npl+1)
            j = basis.index_of((nm, n0 - 1, npl + 1))
            rows.append(j)
            cols.append(i)
            vals.append(s * math.sqrt((npl + 1) * n0))
        if nm >= 1:  # a_0^dag a_-1 : (nm, n0, npl) -> (nm-1, n0+1, npl)
            j = basis.index_of((nm - 1, n0 + 1, npl))
            rows.append(j)
            cols.append(i)
            vals.append(s * math.sqrt((n0 + 1) * nm))
    return rows, cols, vals


def lx_full(basis: FullBasis) -> sp.csr_matrix:
    """Sparse symmetric L_x; couples magnetization blocks M <-> M+1 only."""
    rows, cols, vals = _transverse_entries(basis)
    d = basis.size
    up = sp.csr_matrix((vals, (rows, cols)), shape=(d, d))
    return (up + up.T).tocsr()


def ly_full(basis: FullBasis) -> sp.csr_matrix:
    """Sparse Hermitian L_y (purely imaginary entries)."""
    rows, cols, vals = _transverse_entries(basis)
    d = basis.size
    up = sp.csr_matrix((np.asarray(vals) * -1j, (rows, cols)), shape=(d, d))
    return (up + up.conj().T).tocsr()


def l2_full(basis: FullBasis) -> sp.csr_matrix:
    """Block-diagonal L^2 assembled from the per-sector chain forms."""
    n = basis.n_atoms
    d = basis.size
    rows, cols, vals = [], [], []
    for m in range(-n, n + 1):
        blk = basis.block(m)
        chain = l2_sector(n, m)
        base = blk.start
        for k in range(chain.size):
            rows.append(base + k)
            cols.append(base + k)
            vals.append(chain.diag[k])
        for k in range(chain.size - 1):
            rows.extend((base + k, base + k + 1))
            cols.extend((base + k + 1, base + k))
            vals.extend((chain.offdiag[k], chain.offdiag[k]))
    return sp.csr_matrix((vals, (rows, cols)), shape=(d, d))


def hamiltonian_full(
    params: PhysicsParams, basis: FullBasis, p_hz: float = 0.0, h_hz: float = 0.0
) -> sp.csr_matrix:
    """Lab-frame Hamiltonian at ``params.q_hz`` with linear Zeeman ``p_hz``
    and transverse ``h_hz``, in internal units."""
    f = params.factor
    h = f * (
        params.c2p_hz / basis.n_atoms * l2_full(basis)
        - sp.diags(params.q_hz * n0_full(basis) + p_hz * lz_full(basis))
    )
    if h_hz != 0.0:
        h = h - f * h_hz * lx_full(basis)
    return h.tocsr()


def spin_moments(basis: FullBasis, a: np.ndarray) -> dict[str, float]:
    """``<L_alpha>`` and ``<L_alpha^2>`` (keys ``lx`` ... ``lz2``) of a
    pure full-basis state."""
    lxa, lya = lx_full(basis) @ a, ly_full(basis) @ a
    lz = lz_full(basis)
    return {
        "lx": float(np.real(np.vdot(a, lxa))),
        "ly": float(np.real(np.vdot(a, lya))),
        "lz": float(np.real(np.vdot(a, lz * a))),
        "lx2": float(np.real(np.vdot(lxa, lxa))),
        "ly2": float(np.real(np.vdot(lya, lya))),
        "lz2": float(np.real(np.vdot(a, lz**2 * a))),
    }


def xi2_full(basis: FullBasis, a: np.ndarray) -> float:
    """Generalized squeezing parameter of a pure full-basis state,
    ``sum_alpha Var(L_alpha) / N``."""
    m = spin_moments(basis, a)
    var = sum(m[c + "2"] - m[c] ** 2 for c in ("lx", "ly", "lz"))
    return var / basis.n_atoms
