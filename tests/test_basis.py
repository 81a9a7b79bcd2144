import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinmo.basis import (
    PairBasis,
    SectorBasis,
    StateVector,
    polar_state,
    twin_fock_state,
)
from full_basis import ResourceCapError, build_full_basis, embed, sector_config, sector_index


def test_pair_basis_n4():
    b = PairBasis(4)
    assert b.size == 3
    assert [(k, sector_config(b, k)[1]) for k in range(3)] == [(0, 4), (1, 2), (2, 0)]


def test_pair_basis_n5():
    b = PairBasis(5)
    assert b.size == 3
    assert [sector_config(b, k) for k in range(3)] == [(0, 5, 0), (1, 3, 1), (2, 1, 2)]


def test_pair_basis_n1000():
    assert PairBasis(1000).size == 501


def test_pair_basis_rejects_zero():
    with pytest.raises(ValueError):
        PairBasis(0)


@given(st.integers(min_value=1, max_value=60))
def test_pair_roundtrip_indexing(n):
    b = PairBasis(n)
    for k in range(b.size):
        assert sector_index(b, sector_config(b, k)) == k
        nm, n0, npl = sector_config(b, k)
        assert n0 == n - 2 * k >= 0
        assert nm == npl == k


def test_full_basis_counts():
    assert build_full_basis(2).size == 6
    assert build_full_basis(100).size == 5151


def test_full_basis_cap():
    with pytest.raises(ResourceCapError):
        build_full_basis(301)
    assert build_full_basis(301, cap=301).size == 302 * 303 // 2


def test_full_basis_m0_block_n4():
    b = build_full_basis(4)
    blk = b.states[b.block(0)]
    assert [tuple(s) for s in blk] == [(0, 4, 0), (1, 2, 1), (2, 0, 2)]


def test_full_basis_blocks_contiguous_and_sorted():
    b = build_full_basis(7)
    ms = b.magnetizations
    assert np.all(np.diff(ms) >= 0)
    total = sum((b.block(m).stop - b.block(m).start) for m in range(-7, 8))
    assert total == b.size


@given(st.integers(min_value=1, max_value=25))
def test_full_roundtrip_indexing(n):
    b = build_full_basis(n)
    for i in range(b.size):
        assert b.index_of(tuple(b.states[i])) == i


@given(st.integers(min_value=2, max_value=40))
def test_pair_is_m0_slice_of_full(n):
    pair = PairBasis(n)
    full = build_full_basis(n)
    blk = full.states[full.block(0)]
    got = [tuple(s) for s in blk]
    want = [sector_config(pair, k) for k in range(pair.size)]
    assert got == want


def test_sector_basis_sizes_and_occupations():
    s = SectorBasis(7, -3)
    assert s.size == 3
    assert sector_config(s, 0) == (3, 4, 0)
    assert sector_config(s, 2) == (5, 0, 2)
    with pytest.raises(ValueError):
        SectorBasis(3, 5)


def test_polar_and_twin_fock():
    b = PairBasis(4)
    pol = polar_state(b)
    assert pol.amplitudes[0] == 1.0 and abs(np.linalg.norm(pol.amplitudes) - 1) < 1e-15
    tf = twin_fock_state(b)
    assert tf.amplitudes[2] == 1.0
    with pytest.raises(ValueError):
        twin_fock_state(PairBasis(5))


def test_polar_on_full_basis():
    b = build_full_basis(4)
    pol = embed(polar_state(PairBasis(4)), b)
    assert pol[b.index_of((0, 4, 0))] == 1.0 and np.linalg.norm(pol) == 1.0
    tf = embed(twin_fock_state(PairBasis(4)), b)
    assert tf[b.index_of((2, 0, 2))] == 1.0 and np.linalg.norm(tf) == 1.0
    with pytest.raises(ValueError):
        embed(polar_state(PairBasis(5)), b)


def test_statevector_validation():
    b = PairBasis(4)
    with pytest.raises(ValueError):
        StateVector(b, np.ones(2))
    sv = StateVector(b, np.array([1.0, 1.0, 0.0]))
    assert sv.amplitudes.dtype == np.complex128
