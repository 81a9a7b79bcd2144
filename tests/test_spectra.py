import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from spinmo.basis import SectorBasis
from spinmo.observables import reference_eigensystem, reference_n0
from spinmo.operators import PhysicsParams, TriMatrix, hamiltonian_pair, l2_sector
from spinmo.spectra import (
    _fix_signs,
    adiabatic_beta,
    critical_q_estimate,
    eigensolve_tridiagonal,
    find_critical_q,
    gap,
)

from full_basis import to_dense


def perturbative_gap(n_atoms: int, q_over_c2p: float) -> float:
    """Small-q expansion of the gap in units of c2p, the quadratic form
    whose vertex :func:`~spinmo.spectra.critical_q_estimate` returns;
    valid near the critical region |q| << c2p."""
    n = float(n_atoms)
    x = q_over_c2p
    return 6.0 / n - 0.1907 * n * x + 0.0253 * n**3 * x * x


def test_eigensolve_1x1():
    eig = eigensolve_tridiagonal(TriMatrix(np.array([3.25]), np.array([])))
    assert eig.values[0] == 3.25 and eig.vectors[0, 0] == 1.0


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**31))
def test_eigensolve_invariants(d, seed):
    rng = np.random.default_rng(seed)
    m = TriMatrix(rng.normal(size=d), rng.normal(size=d - 1))
    eig = eigensolve_tridiagonal(m)
    assert np.all(np.diff(eig.values) >= -1e-12)
    gram = eig.vectors.T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(d))) < 1e-9
    dense = to_dense(m)
    resid = dense @ eig.vectors - eig.vectors * eig.values
    assert np.max(np.abs(resid)) <= 1e-8 * max(1.0, np.max(np.abs(dense)))
    lead = np.argmax(np.abs(eig.vectors), axis=0)
    assert np.all(eig.vectors[lead, np.arange(d)] > 0)


@pytest.mark.parametrize("d", [2, 3, 57, 501])
def test_eigensolve_matches_eigh_tridiagonal_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for m in (TriMatrix(rng.normal(size=d), rng.normal(size=d - 1)), l2_sector(2 * d - 2, 0)):
        values, vectors = scipy.linalg.eigh_tridiagonal(m.diag, m.offdiag)
        eig = eigensolve_tridiagonal(m)
        assert np.array_equal(eig.values, values)
        assert np.array_equal(eig.vectors, _fix_signs(vectors))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["diag", "offdiag"])
def test_eigensolve_rejects_non_finite_entries(bad, part):
    # no non-finite entry reaches the eigensolve: TriMatrix refuses one at
    # construction, and its arrays are read-only after that check
    entries = {"diag": np.arange(4.0), "offdiag": np.ones(3)}
    m = TriMatrix(**entries)
    with pytest.raises(ValueError, match="read-only"):
        getattr(m, part)[1] = bad
    entries[part][1] = bad
    with pytest.raises(ValueError, match="finite"):
        TriMatrix(**entries)


@pytest.mark.parametrize("part", ["diag", "offdiag"])
def test_trimatrix_keeps_its_entries_when_the_caller_writes_its_arrays(part):
    entries = {"diag": np.arange(4.0), "offdiag": np.ones(3)}
    m = TriMatrix(**entries)
    want = eigensolve_tridiagonal(m)
    entries[part][1] = np.nan
    assert np.array_equal(m.diag, np.arange(4.0)) and np.array_equal(m.offdiag, np.ones(3))
    got = eigensolve_tridiagonal(m)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.vectors, want.vectors)


def test_n4_unscaled_l2_trace_det_spectrum():
    m = l2_sector(4, 0)
    eig = eigensolve_tridiagonal(m)
    assert np.allclose(np.sort(eig.values), [0.0, 6.0, 20.0], atol=1e-9)
    assert abs(np.trace(to_dense(m)) - 26.0) < 1e-12
    assert abs(np.linalg.det(to_dense(m))) < 1e-9


def test_n4_scaled_eigenvalues():
    p = PhysicsParams(1.0, 4, 0.0, convention="plain")
    eig = eigensolve_tridiagonal(hamiltonian_pair(p))
    assert np.allclose(eig.values, [0.0, 1.5, 5.0], atol=1e-12)


def test_gap_at_zero_q():
    assert abs(gap(PhysicsParams(25.0, 1000, 0.0)) - 0.15) < 1e-9
    assert abs(gap(PhysicsParams(25.0, 100, 0.0)) - 1.5) < 1e-9


def test_gap_convention_independent():
    pa = PhysicsParams(25.0, 200, 0.01, convention="angular")
    pp = PhysicsParams(25.0, 200, 0.01, convention="plain")
    assert abs(gap(pa) - gap(pp)) < 1e-12


def test_gap_large_q_asymptote():
    c2p, n = 25.0, 100
    q = 1e4 * c2p
    assert abs(gap(PhysicsParams(c2p, n, q)) / (2 * q) - 1) < 0.01


def test_gap_ordering_small_n_has_larger_min_gap():
    qs = np.geomspace(1e-6, 1e-2, 40)
    g100 = min(gap(PhysicsParams(25.0, 100, float(q))) for q in qs)
    g1000 = min(gap(PhysicsParams(25.0, 1000, float(q))) for q in qs)
    assert g100 > g1000


def test_perturbative_gap_values():
    assert perturbative_gap(1000, 0.0) == pytest.approx(6e-3, rel=1e-12)
    # the quadratic form has its minimum at 3.7688/N^2
    n = 500
    q_star = 0.1907 / (2 * 0.0253 * n * n)
    assert q_star * n * n == pytest.approx(3.7688, rel=1e-3)
    below = perturbative_gap(n, q_star * 0.9)
    above = perturbative_gap(n, q_star * 1.1)
    assert perturbative_gap(n, q_star) < min(below, above)


def test_perturbative_gap_matches_exact_at_formula_minimum():
    n, c2p = 1000, 25.0
    q_star_hz = critical_q_estimate(n, c2p)
    exact = gap(PhysicsParams(c2p, n, q_star_hz)) / c2p
    approx = perturbative_gap(n, q_star_hz / c2p)
    assert abs(approx - exact) / exact < 0.10


def test_perturbative_gap_matches_exact_at_q0():
    for n in (100, 400):
        assert gap(PhysicsParams(25.0, n, 0.0)) / 25.0 == pytest.approx(
            perturbative_gap(n, 0.0), rel=1e-9
        )


def test_find_critical_q_minimality():
    qc = find_critical_q(100, 25.0)
    g = lambda q: gap(PhysicsParams(25.0, 100, q))
    assert g(qc) < g(0.0)
    assert g(qc) < g(2 * qc)


def test_find_critical_q_scaling():
    # the located minimum scales as 1/N^2 (same prefactor at both sizes)
    q100 = find_critical_q(100, 25.0)
    q200 = find_critical_q(200, 25.0)
    assert q100 / q200 == pytest.approx(4.0, rel=0.03)
    with pytest.raises(ValueError):
        find_critical_q(3, 25.0)


def test_adiabatic_beta_zero_rate():
    assert adiabatic_beta(PhysicsParams(25.0, 100, 1.0), 0.0) == 0.0


def test_adiabatic_beta_linear_in_rate():
    p = PhysicsParams(25.0, 100, 0.5)
    b1 = adiabatic_beta(p, 10.0)
    b2 = adiabatic_beta(p, 20.0)
    assert b2 == pytest.approx(2 * b1, rel=1e-12)


def test_adiabatic_beta_convention_ratio():
    pa = PhysicsParams(25.0, 100, 0.5, convention="angular")
    pp = PhysicsParams(25.0, 100, 0.5, convention="plain")
    ratio = adiabatic_beta(pp, 10.0) / adiabatic_beta(pa, 10.0)
    assert ratio == pytest.approx(2 * math.pi, rel=1e-12)


@pytest.mark.parametrize("n", [10, 11, 40, 200])
@pytest.mark.parametrize("m", [0, 2])
def test_n0_is_tridiagonal_in_the_total_spin_basis(n, m):
    # n0 couples total spin L only to L and L +- 2, the neighbouring levels
    r = reference_eigensystem(n, m).vectors
    dense = r.T @ (SectorBasis(n, m).n_zero[:, None] * r)
    scale = np.abs(dense).max()
    assert np.abs(np.triu(dense, 2)).max(initial=0.0) <= 1e-11 * scale
    assert np.abs(np.tril(dense, -2)).max(initial=0.0) <= 1e-11 * scale
    band = reference_n0(n, m)
    np.testing.assert_allclose(band.diag, np.diag(dense), rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(band.offdiag, np.diag(dense, 1), rtol=0, atol=1e-12 * scale)
