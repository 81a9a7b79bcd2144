import math
import warnings

import numpy as np
import pytest

from spinmo.basis import (
    PairBasis,
    SectorBasis,
    StateVector,
    polar_state,
    twin_fock_state,
)
from spinmo.observables import (
    batch_records,
    occupied_levels,
    record_for,
    reference_eigensystem,
    singlet_amplitudes,
)
from spinmo.operators import PhysicsParams, hamiltonian_sector, l2_sector
from spinmo.spectra import eigensolve_tridiagonal

from full_basis import build_full_basis, embed, expectation, spin_moments, xi2_full


def singlet_state(n):
    return StateVector(PairBasis(n), singlet_amplitudes(n).astype(complex))


def record(state):
    return record_for(state, 0.0, 0.0)


def test_occupied_levels_singlet_is_one():
    n = 10
    ref = reference_eigensystem(n)
    assert occupied_levels(singlet_state(n), ref) == 1


def test_occupied_levels_equal_superposition_is_two():
    n = 10
    ref = reference_eigensystem(n)
    amp = (ref.vectors[:, 0] + ref.vectors[:, 2]) / math.sqrt(2)
    st = StateVector(PairBasis(n), amp.astype(complex))
    assert occupied_levels(st, ref) == 2


def test_occupied_levels_threshold_knob():
    n = 10
    ref = reference_eigensystem(n)
    amp = math.sqrt(0.995) * ref.vectors[:, 0] + math.sqrt(0.005) * ref.vectors[:, 1]
    st = StateVector(PairBasis(n), amp.astype(complex))
    assert occupied_levels(st, ref, threshold=1e-3) == 2
    assert occupied_levels(st, ref, threshold=1e-2) == 1


def test_occupied_levels_invariant_under_global_phase():
    n = 8
    ref = reference_eigensystem(n)
    st = singlet_state(n)
    rotated = StateVector(st.basis, st.amplitudes * np.exp(1j * 0.73))
    assert occupied_levels(rotated, ref) == occupied_levels(st, ref)


def test_xi2_singlet_zero():
    assert abs(record(singlet_state(12)).xi2) < 1e-12


def test_xi2_odd_ground_is_2_over_n():
    n = 5
    eig = reference_eigensystem(n)
    st = StateVector(PairBasis(n), eig.ground().astype(complex))
    assert record(st).xi2 == pytest.approx(2.0 / n, rel=1e-9)


def test_xi2_polar_is_two():
    for n in (4, 25, 1000):
        assert record(polar_state(PairBasis(n))).xi2 == pytest.approx(2.0, rel=1e-12)


def test_xi2_coherent_spin_state_is_one():
    # fully +x polarized product state on the full basis
    n = 6
    basis = build_full_basis(n)
    c = {1: 0.5, 0: 1 / math.sqrt(2), -1: 0.5}  # +x eigenvector of the spin-1 matrix
    amps = np.zeros(basis.size, dtype=complex)
    for i, (nm, n0, npl) in enumerate(basis.states):
        amps[i] = (
            math.sqrt(math.factorial(n) / (math.factorial(nm) * math.factorial(n0) * math.factorial(npl)))
            * c[-1] ** nm
            * c[0] ** n0
            * c[1] ** npl
        )
    assert abs(np.linalg.norm(amps) - 1) < 1e-12
    assert xi2_full(basis, amps) == pytest.approx(1.0, rel=1e-10)
    assert spin_moments(basis, amps)["lx"] == pytest.approx(n, rel=1e-12)


def test_xi2_cross_path_sector_vs_full():
    # embed a pair-sector state into the full basis; the generic moment
    # path must reproduce the chain formula to 1e-10
    n = 8
    rng = np.random.default_rng(5)
    pair = PairBasis(n)
    amps = rng.normal(size=pair.size) + 1j * rng.normal(size=pair.size)
    amps /= np.linalg.norm(amps)
    st_pair = StateVector(pair, amps)
    full = build_full_basis(n)
    assert abs(record(st_pair).xi2 - xi2_full(full, embed(st_pair, full))) < 1e-10


def test_fidelity_singlet_examples():
    assert record(singlet_state(8)).F_singlet == pytest.approx(1.0, abs=1e-12)
    # N=2: polar overlap with the total-spin-zero state is 1/3
    assert record(polar_state(PairBasis(2))).F_singlet == pytest.approx(1 / 3, rel=1e-12)
    assert record(polar_state(PairBasis(5))).F_singlet == 0.0  # odd N


def test_fidelity_twinfock_examples():
    tf = twin_fock_state(PairBasis(6))
    assert record(tf).F_twinfock == 1.0
    assert record(singlet_state(2)).F_twinfock == pytest.approx(2 / 3, rel=1e-12)


def test_singlet_completeness():
    n = 12
    ref = reference_eigensystem(n)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
    amps /= np.linalg.norm(amps)
    st = StateVector(PairBasis(n), amps)
    pops = ref.populations(st.amplitudes)
    assert abs(record(st).F_singlet + pops[1:].sum() - 1.0) < 1e-10


def test_conversion_efficiency_examples():
    assert record(polar_state(PairBasis(6))).pc == 0.0
    assert record(twin_fock_state(PairBasis(6))).pc == 1.0
    assert record(singlet_state(2)).pc == pytest.approx(2 / 3, rel=1e-12)


def test_n2_singlet_structure():
    # frozen expansion: (sqrt(2)|k=1> - |k=0>)/sqrt(3) up to global sign
    vec = singlet_amplitudes(2)
    assert abs(abs(vec[0]) - 1 / math.sqrt(3)) < 1e-12
    assert abs(abs(vec[1]) - math.sqrt(2 / 3)) < 1e-12


def test_record_for_fields():
    n = 6
    st = polar_state(PairBasis(n))
    r = record_for(st, 0.5, 277.0)
    ref = reference_eigensystem(n)
    pops = ref.populations(st.amplitudes)
    assert r.K == int((pops > 1e-3).sum())  # polar spreads over every even-l level at N=6
    assert r.pc == 0.0 and r.n_current == n and abs(r.norm - 1) < 1e-12
    assert 0 <= r.F_singlet <= 1 and r.xi2 == pytest.approx(2.0)


def sector_columns(basis):
    """A random column, the ground state at 0.9 Hz and the k = 0 chain site
    (the polar state at M = 0) of one sector, as the columns of a matrix."""
    rng = np.random.default_rng(basis.n_atoms + 7 * basis.magnetization)
    rand = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    ground = eigensolve_tridiagonal(
        hamiltonian_sector(PhysicsParams(25.0, basis.n_atoms, 0.9), basis)
    ).ground()
    site0 = np.eye(basis.size)[:, 0]
    return np.column_stack([rand / np.linalg.norm(rand), ground, site0]).astype(complex)


@pytest.mark.parametrize("n,m", [(2, 0), (12, 0), (13, 0), (40, 3), (40, -3), (999, 1), (1000, 0)])
def test_records_match_the_pair_basis_formulas(n, m):
    # the record reads K, F_singlet and xi2 off the populations in the
    # total-spin basis; here they are taken from the L^2 chain, the singlet
    # amplitudes and a complex projection directly
    basis = SectorBasis(n, m)
    cols = sector_columns(basis)
    ref = reference_eigensystem(n, m)
    records = batch_records(basis, cols, np.zeros(3), np.zeros(3), ref)
    l2 = l2_sector(n, m)
    singlet = singlet_amplitudes(n) if m == 0 else None
    for j, r in enumerate(records):
        col = cols[:, j]
        assert abs(r.xi2 - (expectation(l2, col) - m * m) / n) <= 1e-12
        f = abs(np.vdot(singlet, col)) ** 2 if singlet is not None else 0.0
        assert abs(r.F_singlet - f) <= 1e-14
        pops = np.abs(ref.vectors.T.astype(complex) @ col) ** 2
        assert r.K == max(int((pops > 1e-3).sum()), 1)


@pytest.mark.parametrize("n, m", [(9, 1), (40, 3)])
def test_the_chains_of_m_and_minus_m_share_one_reference(n, m):
    reference_eigensystem.cache_clear()
    shared = reference_eigensystem(n, -m)
    assert shared is reference_eigensystem(n, m)
    # the L^2 chain reads |M| only, so the shared solve is the -M sector's own
    direct = eigensolve_tridiagonal(l2_sector(n, -m))
    assert np.array_equal(shared.values, direct.values)
    assert np.array_equal(shared.vectors, direct.vectors)


def test_empty_sector_helpers_read_the_record():
    st = StateVector(SectorBasis(0, 0), np.ones(1, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = record(st)
    assert (r.F_singlet, r.F_twinfock, r.xi2, r.pc, r.K, r.norm) == (0.0, 0.0, 0.0, 0.0, 1, 1.0)
