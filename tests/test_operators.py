"""Operator construction against an independent ladder-operator oracle.

The oracle builds the three-mode Fock space as a tensor product of
truncated single-mode spaces, forms the collective spin from the spin-1
matrices and projects onto the total-atom-number shell; the production
code uses closed-form chain elements and index maps, so agreement is a
real cross-check.
"""

import math

import numpy as np
import pytest

from spinmo.basis import PairBasis, SectorBasis, polar_state
from spinmo.operators import (
    PhysicsParams,
    TriMatrix,
    hamiltonian_pair,
    hamiltonian_sector,
    l2_sector,
    unit_factor,
)
from spinmo.spectra import eigensolve_tridiagonal

from full_basis import (
    FullBasis,
    build_full_basis,
    embed,
    l2_full,
    lx_full,
    ly_full,
    lz_full,
    n0_full,
    sector_config,
    to_dense,
)

FX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2)
FY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2)
FZ = np.diag([1.0, 0.0, -1.0])


def oracle_ops(n):
    """Collective Lx, i*Ly, Lz, L2 and n0 on the (n+1)^3 kron space."""
    dim = n + 1
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    eye = np.eye(dim)
    modes = [  # ordered (+1, 0, -1) to match the spin matrices above
        np.kron(np.kron(a, eye), eye),
        np.kron(np.kron(eye, a), eye),
        np.kron(np.kron(eye, eye), a),
    ]

    def collective(f):
        out = np.zeros((dim**3, dim**3), dtype=f.dtype)
        for i in range(3):
            for j in range(3):
                if f[i, j] != 0:
                    out += f[i, j] * (modes[i].T @ modes[j])
        return out

    lx = collective(FX)
    ly_i = np.real(collective(FY) * 1j)  # i*Ly is real
    lz = collective(FZ)
    l2 = lx @ lx - ly_i @ ly_i + lz @ lz
    n0 = modes[1].T @ modes[1]
    return lx, ly_i, lz, l2, n0


def embedding(basis, n):
    """Columns map basis states into the kron space."""
    dim = n + 1
    if isinstance(basis, FullBasis):
        configs = [tuple(s) for s in basis.states]
    else:
        configs = [sector_config(basis, k) for k in range(basis.size)]
    p = np.zeros((dim**3, len(configs)))
    for col, (nm, n0, npl) in enumerate(configs):
        p[npl * dim * dim + n0 * dim + nm, col] = 1.0
    return p


@pytest.mark.parametrize("n", range(1, 9))
def test_sector_chains_match_oracle(n):
    _, _, _, l2o, _ = oracle_ops(n)
    for m in range(-n, n + 1):
        basis = SectorBasis(n, m)
        p = embedding(basis, n)
        want = p.T @ l2o @ p
        got = to_dense(l2_sector(n, m))
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_full_operators_match_oracle(n):
    lxo, lyio, lzo, l2o, n0o = oracle_ops(n)
    basis = build_full_basis(n)
    p = embedding(basis, n)
    assert np.max(np.abs(lx_full(basis).toarray() - p.T @ lxo @ p)) < 1e-12
    got_ly = ly_full(basis).toarray()
    assert np.max(np.abs(np.real(1j * got_ly) - p.T @ lyio @ p)) < 1e-12
    assert np.max(np.abs(np.diag(lz_full(basis)) - p.T @ lzo @ p)) < 1e-12
    assert np.max(np.abs(l2_full(basis).toarray() - p.T @ l2o @ p)) < 1e-12
    assert np.max(np.abs(np.diag(n0_full(basis)) - p.T @ n0o @ p)) < 1e-12


def test_l2_pair_frozen_values():
    m4 = l2_sector(4, 0)
    assert np.allclose(m4.diag, [8.0, 14.0, 4.0], atol=0)
    assert np.allclose(m4.offdiag, [4 * math.sqrt(3), 4 * math.sqrt(2)], rtol=1e-15)
    m2 = l2_sector(2, 0)
    assert np.allclose(m2.diag, [4.0, 2.0], atol=0)
    assert np.allclose(m2.offdiag, [2 * math.sqrt(2)], rtol=1e-15)


@pytest.mark.parametrize("n", [3, 10, 57, 1000])
def test_l2_pair_k0_diagonal_is_2n(n):
    assert l2_sector(n, 0).diag[0] == 2 * n


@pytest.mark.parametrize("n", range(2, 30, 3))
def test_l2_spectrum_is_l_l_plus_1(n):
    eig = eigensolve_tridiagonal(l2_sector(n, 0))
    want = np.array([l * (l + 1) for l in range(n % 2, n + 1, 2)], dtype=float)
    scale = max(1.0, want.max())
    assert np.max(np.abs(np.sort(eig.values) - want)) / scale < 1e-9


def test_hamiltonian_pair_scaling_plain():
    p = PhysicsParams(1.0, 4, 0.0, convention="plain")
    h = hamiltonian_pair(p)
    assert np.allclose(h.diag, [2.0, 3.5, 1.0])


def test_hamiltonian_pair_angular_factor():
    p_ang = PhysicsParams(25.0, 6, 1.5, convention="angular")
    p_pl = PhysicsParams(25.0, 6, 1.5, convention="plain")
    ha, hp = hamiltonian_pair(p_ang), hamiltonian_pair(p_pl)
    assert np.allclose(ha.diag, 2 * math.pi * hp.diag)
    assert np.allclose(ha.offdiag, 2 * math.pi * hp.offdiag)


def test_large_q_ground_state_is_polar():
    p = PhysicsParams(25.0, 8, 1e6, convention="plain")
    eig = eigensolve_tridiagonal(hamiltonian_pair(p))
    assert abs(eig.ground()[0]) > 0.999999


def test_hamiltonian_sector_uses_sector_atom_number():
    p = PhysicsParams(25.0, 10, 0.0, convention="plain")
    h6 = hamiltonian_sector(p, SectorBasis(6, 0))
    assert np.allclose(h6.diag, 25.0 / 6 * l2_sector(6, 0).diag)


def test_commutator_lz_lx_is_i_ly():
    basis = build_full_basis(5)
    lx = lx_full(basis).toarray()
    ly = ly_full(basis).toarray()
    lz = np.diag(lz_full(basis))
    rng = np.random.default_rng(7)
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    lhs = lz @ (lx @ v) - lx @ (lz @ v)
    rhs = 1j * (ly @ v)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_lx_single_particle_matches_spin_matrix():
    basis = build_full_basis(1)
    got = lx_full(basis).toarray()
    # states ordered (1,0,0),(0,1,0),(0,0,1) = m -1, 0, +1
    want = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2)
    assert np.max(np.abs(got - want)) < 1e-15


def test_polar_lx2_expectation_is_n():
    for n in (2, 4, 6):
        basis = build_full_basis(n)
        pol = embed(polar_state(PairBasis(n)), basis)
        lx = lx_full(basis)
        val = np.real(np.vdot(lx @ pol, lx @ pol))
        assert abs(val - n) < 1e-12


def test_trimatrix_validation():
    with pytest.raises(ValueError):
        TriMatrix(np.array([1.0, 2.0]), np.array([]))
    with pytest.raises(ValueError):
        TriMatrix(np.array([np.inf]), np.array([]))
    with pytest.raises(ValueError):
        unit_factor("hz")
    with pytest.raises(ValueError):
        PhysicsParams(-1.0, 10)
