import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from spinmo import _kernels, propagate
from spinmo.basis import PairBasis, StateVector, polar_state
from spinmo.errors import ConvergenceError
from spinmo.observables import reference_eigensystem
from spinmo.operators import PhysicsParams, hamiltonian_pair, hamiltonian_sector
from spinmo.propagate import RAMP_DT_S, Sector, evolve_ramp
from spinmo.schedule import Hold, LinearSweep, ParabolicRamp, landau_zener
from spinmo.spectra import eigensolve_tridiagonal

from full_basis import expectation, to_dense


def fidelity(a, b):
    return abs(np.vdot(a, b)) ** 2


def _ramp(st, seg, p, dt=None, taus=()):
    """One state through a ramp segment, as ``advance_segment`` runs it:
    its final amplitudes and its amplitude columns at the sorted ``taus``."""
    taus = np.append(np.asarray(taus, dtype=float), seg.duration)
    (cols,) = evolve_ramp([st], seg, [Sector(st.basis, p)], [0.0], taus, dt)
    return cols[:, -1], cols[:, :-1]


def test_eigenstate_is_stationary():
    p = PhysicsParams(25.0, 20, 3.0)
    eig = eigensolve_tridiagonal(hamiltonian_pair(p))
    a = eig.vectors[:, 3].astype(complex)
    out = eig.evolve(a, [0.37])[:, 0]
    assert abs(fidelity(a, out) - 1) < 1e-10


def test_singlet_invariant_at_zero_q():
    n = 12
    p = PhysicsParams(25.0, n, 0.0)
    a = reference_eigensystem(n).ground().astype(complex)
    out = eigensolve_tridiagonal(hamiltonian_pair(p)).evolve(a, [1.7])[:, 0]
    assert abs(fidelity(a, out) - 1) < 1e-10


def test_composition_constant_h():
    p = PhysicsParams(25.0, 16, 2.0)
    eig = eigensolve_tridiagonal(hamiltonian_pair(p))
    a = polar_state(PairBasis(16)).amplitudes
    one = eig.evolve(eig.evolve(a, [0.12])[:, 0], [0.34])[:, 0]
    two = eig.evolve(a, [0.46])[:, 0]
    assert fidelity(one, two) >= 1 - 1e-9


def test_norm_preserved():
    p = PhysicsParams(25.0, 30, 1.0)
    a = polar_state(PairBasis(30)).amplitudes
    out = eigensolve_tridiagonal(hamiltonian_pair(p)).evolve(a, [3.0])[:, 0]
    assert abs(np.linalg.norm(out) - 1) < 1e-9


def test_ramp_matches_constant_on_hold_segment():
    n = 24
    p = PhysicsParams(25.0, n, 0.0)
    st = polar_state(PairBasis(n))
    q = 4.0
    seg = Hold(q, 0.21)
    ref = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(q))).evolve(st.amplitudes, [0.21])[:, 0]
    out, _ = _ramp(st, seg, p)
    assert fidelity(ref, out) >= 1 - 1e-8


def test_ramp_energy_conservation_on_hold():
    n = 24
    p = PhysicsParams(25.0, n, 2.5)
    h = hamiltonian_pair(p)
    st = polar_state(PairBasis(n))
    out, _ = _ramp(st, Hold(2.5, 0.31), p)
    e0 = expectation(h, st.amplitudes)
    e1 = expectation(h, out)
    hnorm = max(np.max(np.abs(h.diag)), np.max(np.abs(h.offdiag)))
    assert abs(e1 - e0) <= 1e-8 * hnorm


def test_ramp_dt_halving_converges():
    n = 40
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    seg = ParabolicRamp(60.0, 0.5, 0.0, 0.35)
    d0 = RAMP_DT_S
    a, _ = _ramp(st, seg, p, dt=d0)
    b, _ = _ramp(st, seg, p, dt=d0 / 2)
    assert abs(fidelity(a, b) - 1) < 1e-6


def test_ramp_rejects_oversized_dt():
    n = 40
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    seg = ParabolicRamp(100.0, 0.5, 0.0, 0.3)
    with pytest.raises(ValueError, match="coarser than the ramp step"):
        _ramp(st, seg, p, dt=0.05)


def test_ramp_rejects_unsorted_taus():
    n = 20
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    seg = LinearSweep(10.0, 1.0, 0.2)
    with pytest.raises(ValueError, match="sorted"):
        evolve_ramp([st], seg, [Sector(st.basis, p)], [0.0], [0.1, 0.05, 0.2])


def test_ramp_samples_equal_final_state():
    n = 20
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    seg = LinearSweep(10.0, 1.0, 0.2)
    final, samples = _ramp(st, seg, p, taus=np.array([0.1, 0.2]))
    assert samples.shape[1] == 2
    assert np.array_equal(samples[:, -1], final)


@pytest.mark.parametrize(
    "n, t_end_s",
    [(20, 0.9), (200, 0.9), (1000, 0.005)],
    ids=["N20-ramp", "N200-ramp", "N1000-5ms"],
)
def test_windowed_ramp_matches_the_whole_chain(monkeypatch, n, t_end_s):
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    seg = ParabolicRamp(277.0, 0.955, 0.0, t_end_s)
    times = np.linspace(0.0, t_end_s, 7)[1:-1]
    windowed, w_samples = _ramp(st, seg, p, taus=times)
    # a window that starts as the whole chain never truncates
    monkeypatch.setattr(propagate, "_first_block", lambda a: (a.size, None))
    whole, h_samples = _ramp(st, seg, p, taus=times)
    assert np.max(np.abs(windowed - whole)) <= 1e-12
    for a, b in zip(w_samples.T, h_samples.T, strict=True):
        assert np.max(np.abs(a - b)) <= 1e-12


def _dense_magnus4(st, seg, p, n_steps):
    """Independent reference: the classical fourth-order Magnus step with its
    commutator, by dense expm, with q read from the segment at the Gauss
    nodes."""
    h0 = to_dense(hamiltonian_sector(p.with_q(0.0), st.basis))
    hq = to_dense(hamiltonian_sector(p.with_q(1.0), st.basis)) - h0
    h = seg.duration / n_steps
    nodes = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
    psi = st.amplitudes.copy()
    for s in range(n_steps):
        h1, h2 = (h0 + float(seg.q_hz_at((s + c) * h)) * hq for c in nodes)
        omega = -0.5j * h * (h1 + h2) - math.sqrt(3.0) / 12.0 * h**2 * (h2 @ h1 - h1 @ h2)
        psi = scipy.linalg.expm(omega) @ psi
    return psi


def test_ramp_step_is_fourth_order():
    n = 10
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    seg = LinearSweep(200.0, -200.0, 0.01)
    ref = _dense_magnus4(st, seg, p, 8 * round(seg.duration / RAMP_DT_S))
    err = [
        np.max(np.abs(_ramp(st, seg, p, dt=dt)[0] - ref))
        for dt in (RAMP_DT_S, RAMP_DT_S / 2)
    ]
    assert 1e-9 < err[1] < err[0] < 1e-5
    assert 14.0 < err[0] / err[1] < 18.0


def test_bessel_coefficients_match_scipy():
    from scipy.special import jv  # the package itself never imports scipy.special

    for x in np.linspace(0.0, 400.0, 81):
        j = _kernels.bessel_j(float(x))
        k = np.arange(j.size + 20)
        want = jv(k, x)
        assert np.max(np.abs(np.pad(j, (0, 20)) - want)) <= 1e-14
        assert np.all(np.abs(want[j.size:]) <= 1e-16)


def test_bessel_coefficients_match_mpmath():
    # scipy's own jv is off by up to 1.2e-14 between the grid points above
    # (at x = 374.8, order 90), so the tight check is against mpmath
    mpmath = pytest.importorskip("mpmath")
    for x in (1e-9, 0.37, 47.1, 374.8, 400.0):
        j = _kernels.bessel_j(x)
        want = [float(mpmath.besselj(k, mpmath.mpf(x))) for k in range(j.size)]
        assert np.max(np.abs(j - want)) <= 1e-15


def _random_blocks(rng, sizes):
    """Random Hermitian tridiagonal blocks as (diag0, qdiag, off) lists."""
    diag0 = [rng.normal(size=m) for m in sizes]
    qdiag = [rng.normal(size=m) for m in sizes]
    off = [rng.normal(size=m - 1) + 1j * rng.normal(size=m - 1) for m in sizes]
    return diag0, qdiag, off


def _band_expv_error(diag0, qdiag, off, q, tau, rng):
    """Max-abs error of one :class:`_kernels._Band` exponential against expm."""
    ms = [d.size for d in diag0]
    band = _kernels._Band(diag0, qdiag, off, ms)
    v = rng.normal(size=sum(ms)) + 1j * rng.normal(size=sum(ms))
    v /= np.linalg.norm(v)
    blocks = [np.diag(d + qb * dq) + np.diag(o, 1) + np.diag(o.conj(), -1)
              for d, dq, o, qb in zip(diag0, qdiag, off, q)]
    want = scipy.linalg.expm(-1j * tau * scipy.linalg.block_diag(*blocks)) @ v
    coefs = {}
    got = band.expv(v, np.asarray(q, dtype=float), tau, coefs)
    return np.max(np.abs(got - want)), coefs


@pytest.mark.parametrize("sizes", [[1], [2], [17], [101], [17, 2, 101]], ids=str)
def test_band_exponential_matches_expm(sizes):
    rng = np.random.default_rng(sum(sizes))
    diag0, qdiag, off = _random_blocks(rng, sizes)
    q = rng.normal(size=len(sizes))
    # the series' radius before rounding: half the union of the Gershgorin intervals
    band = _kernels._Band(diag0, qdiag, off, sizes)
    diag = band.d0 + np.repeat(q, band.ms) * band.dq
    radius = 0.5 * (np.max(diag + band.radius) - np.min(diag - band.radius))
    for x in np.geomspace(1e-6, 300.0, 12):
        err, coefs = _band_expv_error(diag0, qdiag, off, q, x / max(radius, 1.0), rng)
        assert err <= 1e-13, (x, err)
        if sizes != [1]:
            # the radius is rounded up by less than 1/16 octave
            (x_used,) = coefs
            assert x * (1 - 1e-14) <= x_used <= x * 2.0 ** (1 / 16) * (1 + 1e-14)


def test_band_exponential_at_zero_and_grid_radius():
    rng = np.random.default_rng(3)
    # one level: radius 0, a pure phase
    err, coefs = _band_expv_error([np.array([1.7])], [np.array([0.4])], [np.empty(0)], [2.0], 0.3, rng)
    assert err <= 1e-15 and coefs == {}
    # two blocks with the same diagonal and no coupling: radius 0 again
    err, coefs = _band_expv_error(
        [np.full(3, 0.5), np.full(2, 0.5)], [np.zeros(3), np.zeros(2)],
        [np.zeros(2), np.zeros(1)], [1.0, -1.0], 2.0, rng,
    )
    assert err <= 1e-15 and coefs == {}
    # radius exactly on the grid: 2 and 2^(3/16)
    for r in (2.0, 2.0 ** (3 / 16)):
        err, coefs = _band_expv_error([np.zeros(2)], [np.zeros(2)], [np.array([r])], [0.0], 1.5, rng)
        assert err <= 1e-14
        (x,) = coefs
        assert 1.5 * r <= x <= 1.5 * r * 2.0 ** (1 / 16) * (1 + 1e-15)


def _count_bessel(monkeypatch):
    calls = []
    original = _kernels.bessel_j

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(_kernels, "bessel_j", counting)
    return calls


def _count_kernel_calls(monkeypatch):
    """Record (steps, shared coefficient dict) of every kernel call."""
    calls = []
    original = _kernels.cf4_chain

    def counting(psis, diag0, qdiag, off, qgrid, dt, ms, leak_tol, coefs, keep=()):
        calls.append((qgrid.shape[0] // 2, coefs))
        return original(psis, diag0, qdiag, off, qgrid, dt, ms, leak_tol, coefs, keep)

    monkeypatch.setattr(_kernels, "cf4_chain", counting)
    return calls


def test_ramp_evaluates_few_chebyshev_coefficients(monkeypatch):
    # the last 5 ms of the reference ramp at N = 100 from its ground state:
    # one kernel call of 10 steps, each 2 fine steps long, 20 exponentials
    n = 100
    seg = ParabolicRamp(277.0, 0.955, 0.895, 0.9)
    p = PhysicsParams(25.0, n)
    ground = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(float(seg.q_hz_at(0.0))))).ground()
    st = StateVector(PairBasis(n), ground.astype(complex))
    kernel_calls = _count_kernel_calls(monkeypatch)
    calls = _count_bessel(monkeypatch)
    first, _ = _ramp(st, seg, p)
    assert [steps for steps, _ in kernel_calls] == [10]
    assert 1 <= len(calls) <= 2
    # nothing outlives a call: the same call computes them again, in a new dict
    del calls[:]
    second, _ = _ramp(st, seg, p)
    assert 1 <= len(calls) <= 2
    assert kernel_calls[1][1] is not kernel_calls[0][1]
    assert np.array_equal(first, second)


def test_ramp_segment_is_one_kernel_call(monkeypatch):
    # the benchmark's ramp: the first 5 ms of the reference ramp at N = 200
    # from the polar state, sampled every 1 ms on the 0.25 ms step grid
    n = 200
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    seg = ParabolicRamp(277.0, 0.955, 0.0, 0.005)
    unsampled, _ = _ramp(st, seg, p)
    windows = []

    class RecordingBand(_kernels._Band):
        def __init__(self, diag0, qdiag, off, ms):
            windows.append(list(ms))
            super().__init__(diag0, qdiag, off, ms)

    monkeypatch.setattr(_kernels, "_Band", RecordingBand)
    kernel_calls = _count_kernel_calls(monkeypatch)
    calls = _count_bessel(monkeypatch)
    final, samples = _ramp(st, seg, p, taus=np.linspace(0.0, 0.005, 6))
    # one main-line call of 20 steps; every sample lies on the grid
    assert [steps for steps, _ in kernel_calls] == [20]
    # each series argument's coefficients are computed once
    assert len(calls) == len(set(calls)) == len(kernel_calls[0][1])
    # the first window is the hold ladder's first rung: the support (1 level) + 8,
    # rounded up to a multiple of 8, not twice the support
    assert windows[0] == [16]
    assert np.array_equal(final, unsampled)
    assert samples.shape[1] == 6
    assert np.array_equal(samples[:, 0], st.amplitudes)
    assert np.array_equal(samples[:, -1], final)


def test_off_grid_samples_branch_from_the_main_line(monkeypatch):
    n = 40
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    seg = ParabolicRamp(277.0, 0.955, 0.0, 0.002)
    unsampled, _ = _ramp(st, seg, p)
    kernel_calls = _count_kernel_calls(monkeypatch)
    # two samples inside one step, one on the grid
    times = np.array([3.1e-4, 4.2e-4, 5e-4])
    final, samples = _ramp(st, seg, p, taus=times)
    assert np.array_equal(final, unsampled)
    # the main line, then one branch per off-grid sample, all on one dict
    assert [steps for steps, _ in kernel_calls] == [8, 1, 1]
    assert all(coefs is kernel_calls[0][1] for _, coefs in kernel_calls)
    # two branches from the same step do not share a state
    for t, sample in zip(times, samples.T, strict=True):
        _, alone = _ramp(st, seg, p, taus=[t])
        assert np.array_equal(sample, alone[:, 0])


def test_renormalized_checks_the_step_norm():
    rng = np.random.default_rng(0)
    v = rng.normal(size=33) + 1j * rng.normal(size=33)
    v /= np.linalg.norm(v)
    # just inside the tolerance: scaled in place to unit norm
    inside = v * (1.0 + 0.9 * _kernels.NORM_TOL)
    out = _kernels.renormalized(inside)
    assert out is inside
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-15
    for bad in (v * (1.0 + 1.1 * _kernels.NORM_TOL), v * (1.0 - 1.1 * _kernels.NORM_TOL)):
        with pytest.raises(ConvergenceError, match="norm"):
            _kernels.renormalized(bad)
    nan = v.copy()
    nan[5] = complex(np.nan, 0.0)
    with pytest.raises(ConvergenceError, match="norm"):
        _kernels.renormalized(nan)


def _counted_ramp(st, seg, p, dt=None, taus=()):
    """``_ramp`` that also returns the ramp steps taken, by size."""
    counts = Counter()
    taus = np.append(np.asarray(taus, dtype=float), seg.duration)
    (cols,) = evolve_ramp([st], seg, [Sector(st.basis, p)], [0.0], taus, dt, counts)
    return cols[:, -1], cols[:, :-1], {k: counts[f"ramp_steps.{k}"] for k in ("1", "2", "branch")}


REF_RAMP = ParabolicRamp(277.0, 0.955, 0.0, 0.9)
TAIL = REF_RAMP.between(0.895, 0.9)


def test_ramp_start_takes_the_fine_grid():
    # the first 5 ms of the reference ramp at N = 200, its fastest stretch:
    # nothing merges, so the steps and the outputs are those of dt = RAMP_DT_S
    p = PhysicsParams(25.0, 200)
    st = polar_state(PairBasis(200))
    seg = REF_RAMP.between(0.0, 0.005)
    taus = np.linspace(0.0, 0.005, 6)[:-1]
    final, samples, steps = _counted_ramp(st, seg, p, taus=taus)
    fine, fine_samples, fine_steps = _counted_ramp(st, seg, p, dt=RAMP_DT_S, taus=taus)
    assert steps == fine_steps == {"1": 20, "2": 0, "branch": 0}
    assert np.array_equal(final, fine)
    assert np.array_equal(samples, fine_samples)


def _ground(n, q):
    ground = eigensolve_tridiagonal(hamiltonian_pair(PhysicsParams(25.0, n, q))).ground()
    return StateVector(PairBasis(n), ground.astype(complex))


def test_ramp_tail_merges_two_fine_steps():
    # the last 5 ms of the reference ramp: 10 steps of 2 fine steps
    n = 100
    p = PhysicsParams(25.0, n)
    _, _, steps = _counted_ramp(_ground(n, float(TAIL.q_hz_at(0.0))), TAIL, p)
    assert steps == {"1": 0, "2": 10, "branch": 0}


def test_merging_is_decided_for_the_whole_segment():
    p = PhysicsParams(25.0, 40)
    st = polar_state(PairBasis(40))
    # 21 fine steps of a slow sweep merge into 11 equal steps
    seg = LinearSweep(1.0, 0.9475, 0.00525)
    assert math.ceil(seg.duration / RAMP_DT_S - 1e-9) == 21
    _, _, steps = _counted_ramp(st, seg, p)
    assert steps == {"1": 0, "2": 11, "branch": 0}
    # the reference ramp from 0.7 s is slow enough at its end but not at its
    # start, so none of its 400 fine steps merge
    seg = REF_RAMP.between(0.7, 0.8)
    sectors = [propagate.Sector(PairBasis(40), p)]
    assert propagate.merges(REF_RAMP.between(0.795, 0.8), np.zeros(1), sectors, 2 * RAMP_DT_S)
    _, _, steps = _counted_ramp(st, seg, p)
    assert steps == {"1": 400, "2": 0, "branch": 0}


def test_merging_reads_the_batch_offsets_and_atom_numbers():
    p = PhysicsParams(25.0, 40)
    sectors = [propagate.Sector(PairBasis(40), p)]
    assert propagate.merges(TAIL, np.zeros(1), sectors, 2 * RAMP_DT_S)
    # |q| beyond Q_MAX_C2P c2p for one member of the batch
    assert not propagate.merges(TAIL, np.array([0.0, -300.0]), sectors * 2, 2 * RAMP_DT_S)
    # 40 s of a parabola across its vertex, at |q'| <= 27 Hz/s: shifted by
    # -135 Hz, |q| is at most 135 Hz and the steps merge; shifted by -270 Hz,
    # |q| is 0 at both ends but 270 Hz at the vertex, and they do not
    vertex = ParabolicRamp(270.0, 20.0, 0.0, 40.0)
    assert propagate.merges(vertex, np.array([-135.0]), sectors, 2 * RAMP_DT_S)
    assert not propagate.merges(vertex, np.array([-270.0]), sectors, 2 * RAMP_DT_S)
    # the bound is measured up to N_MAX_MERGE atoms: an N = 1001 tail takes
    # the fine grid, also in a batch with a smaller chain
    big = propagate.Sector(PairBasis(propagate.N_MAX_MERGE + 1), p)
    assert not propagate.merges(TAIL, np.zeros(2), sectors + [big], 2 * RAMP_DT_S)
    st = polar_state(PairBasis(propagate.N_MAX_MERGE + 1))
    _, _, steps = _counted_ramp(st, TAIL, PhysicsParams(25.0, propagate.N_MAX_MERGE + 1))
    assert steps == {"1": 20, "2": 0, "branch": 0}


def test_explicit_dt_takes_the_uniform_grid():
    n = 40
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    for dt, n_steps in ((RAMP_DT_S, 20), (RAMP_DT_S / 2, 40)):
        _, _, steps = _counted_ramp(st, TAIL, p, dt=dt)
        assert steps == {"1": n_steps, "2": 0, "branch": 0}


def test_merged_main_line_is_bit_identical_with_and_without_taus(monkeypatch):
    n = 40
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    seg = LinearSweep(1.0, 0.95, 0.005)  # 10 steps of 2 fine steps
    unsampled, _, steps = _counted_ramp(st, seg, p)
    assert steps == {"1": 0, "2": 10, "branch": 0}
    kernel_calls = _count_kernel_calls(monkeypatch)
    # on a step end, on a fine point inside a merged step, and between fine points
    taus = np.array([1e-3, 1.25e-3, 1.5e-3, 2.6e-3, 5e-3])
    final, samples, steps = _counted_ramp(st, seg, p, taus=taus)
    assert np.array_equal(final, unsampled)
    assert steps == {"1": 0, "2": 10, "branch": 2}
    # the main line, then one partial step per tau off the step ends
    assert [k for k, _ in kernel_calls] == [10, 1, 1]
    for t, sample in zip(taus, samples.T, strict=True):
        _, alone, _ = _counted_ramp(st, seg, p, taus=[t])
        assert np.array_equal(sample, alone[:, 0])
    fine, _, _ = _counted_ramp(st, seg, p, dt=RAMP_DT_S)
    assert 0 < np.max(np.abs(final - fine)) <= 1.6e-8


ACCURACY_PIECES = {
    "forward-2x": REF_RAMP.between(0.76, 0.765),
    "forward-tail": TAIL,
    "mirrored-tail": REF_RAMP.mirrored().between(0.0, 0.005),
    "landau-zener-crossing": landau_zener().segments[0].between(4.3125, 4.3175),
}


@pytest.mark.parametrize("n", [20, 100, 200])
@pytest.mark.parametrize("piece", list(ACCURACY_PIECES))
def test_merged_steps_keep_the_error_budget(piece, n):
    # every piece merges; the error against a 16x finer uniform step stays
    # within that of one fine step at the reference-ramp start, 1.6e-8 per 5 ms
    seg = ACCURACY_PIECES[piece]
    p = PhysicsParams(25.0, n)
    top = np.zeros(n // 2 + 1, dtype=complex)
    top[-1] = 1.0
    starts = {
        "polar": polar_state(PairBasis(n)),
        "ground": _ground(n, float(seg.q_hz_at(0.0))),
        "top": StateVector(PairBasis(n), top),
    }
    for start, st in starts.items():
        got, _, steps = _counted_ramp(st, seg, p)
        assert steps["2"] > 0
        ref, _, _ = _counted_ramp(st, seg, p, dt=RAMP_DT_S / 16)
        err = np.max(np.abs(got - ref))
        assert err <= 1.6e-8 * seg.duration / 5e-3, (start, err, steps)
