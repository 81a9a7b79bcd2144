import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from spinmo import _kernels, propagate
from spinmo.basis import (
    FullBasis,
    NumberBasis,
    SectorBasis,
    StateVector,
    build_full_basis,
    build_pair_basis,
    polar_state,
)
from spinmo.errors import StepSizeError
from spinmo.noise import NoiseConfig, relaxation_params, sample_trajectory_config
from spinmo.observables import reference_eigensystem
from spinmo.operators import (
    ExtendedParams,
    PhysicsParams,
    hamiltonian_full,
    hamiltonian_pair,
    hamiltonian_sector,
    lx_full,
    lz_full,
    oscillator_hamiltonian,
)
from spinmo.propagate import RAMP_DT_S, evolve_constant, evolve_ramp, evolve_rotating
from spinmo.schedule import Hold, LinearSweep, ParabolicRamp
from spinmo.spectra import eigensolve_tridiagonal


def fidelity(a, b):
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


def test_eigenstate_is_stationary():
    p = PhysicsParams(25.0, 20, 3.0)
    h = hamiltonian_pair(p)
    eig = eigensolve_tridiagonal(h)
    st = StateVector(build_pair_basis(20), eig.vectors[:, 3].astype(complex))
    out = evolve_constant(st, h, 0.37)
    assert abs(fidelity(st, out) - 1) < 1e-10


def test_singlet_invariant_at_zero_q():
    n = 12
    p = PhysicsParams(25.0, n, 0.0)
    eig = reference_eigensystem(n)
    st = StateVector(build_pair_basis(n), eig.ground().astype(complex))
    out = evolve_constant(st, hamiltonian_pair(p), 1.7)
    assert abs(fidelity(st, out) - 1) < 1e-10


def test_composition_constant_h():
    p = PhysicsParams(25.0, 16, 2.0)
    h = hamiltonian_pair(p)
    st = polar_state(build_pair_basis(16))
    one = evolve_constant(evolve_constant(st, h, 0.12), h, 0.34)
    two = evolve_constant(st, h, 0.46)
    assert fidelity(one, two) >= 1 - 1e-9


def test_norm_preserved():
    p = PhysicsParams(25.0, 30, 1.0)
    st = polar_state(build_pair_basis(30))
    out = evolve_constant(st, hamiltonian_pair(p), 3.0)
    assert abs(out.norm - 1) < 1e-9


def test_ramp_matches_constant_on_hold_segment():
    n = 24
    p = PhysicsParams(25.0, n, 0.0)
    st = polar_state(build_pair_basis(n))
    q = 4.0
    seg = Hold(q, 0.21)
    ref = evolve_constant(st, hamiltonian_pair(p.with_q(q)), 0.21)
    out, _ = evolve_ramp(st, seg, p)
    assert fidelity(ref, out) >= 1 - 1e-8


def test_ramp_energy_conservation_on_hold():
    n = 24
    p = PhysicsParams(25.0, n, 2.5)
    h = hamiltonian_pair(p)
    st = polar_state(build_pair_basis(n))
    out, _ = evolve_ramp(st, Hold(2.5, 0.31), p)
    e0 = h.expectation(st.amplitudes)
    e1 = h.expectation(out.amplitudes)
    hnorm = max(np.max(np.abs(h.diag)), np.max(np.abs(h.offdiag)))
    assert abs(e1 - e0) <= 1e-8 * hnorm


def test_ramp_dt_halving_converges():
    n = 40
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    seg = ParabolicRamp(60.0, 0.5, 0.0, 0.35)
    d0 = RAMP_DT_S
    a, _ = evolve_ramp(st, seg, p, dt=d0)
    b, _ = evolve_ramp(st, seg, p, dt=d0 / 2)
    assert abs(fidelity(a, b) - 1) < 1e-6


def test_ramp_rejects_oversized_dt():
    n = 40
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    seg = ParabolicRamp(100.0, 0.5, 0.0, 0.3)
    with pytest.raises(StepSizeError):
        evolve_ramp(st, seg, p, dt=0.05)


def test_ramp_samples_equal_final_state():
    n = 20
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    seg = LinearSweep(10.0, 1.0, 0.2)
    final, samples = evolve_ramp(st, seg, p, sample_times=np.array([0.1, 0.2]))
    assert samples[-1][0] == 0.2
    assert np.array_equal(samples[-1][1].amplitudes, final.amplitudes)


def test_oscillator_half_period_mirror():
    m, w, d = 1.0, 1.0, 150
    x0 = 10.0 / math.sqrt(m * w)
    f0 = x0 * m * w * w
    left = eigensolve_tridiagonal(oscillator_hamiltonian(m, w, f0, d)).ground()
    right = eigensolve_tridiagonal(oscillator_hamiltonian(m, w, -f0, d)).ground()
    st = StateVector(NumberBasis(d), left.astype(complex))
    out = evolve_constant(st, oscillator_hamiltonian(m, w, 0.0, d), math.pi / w)
    assert abs(np.vdot(right, out.amplitudes)) ** 2 >= 0.999


def test_evolve_constant_dimension_mismatch():
    p = PhysicsParams(25.0, 10)
    st = polar_state(build_pair_basis(12))
    with pytest.raises(ValueError):
        evolve_constant(st, hamiltonian_pair(p), 0.1)


def test_rotating_h0_reduces_to_block_evolution():
    n = 6
    basis = build_full_basis(n)
    base = PhysicsParams(25.0, n, 0.7)
    ext = ExtendedParams(base, p_hz=1e4, h_hz=0.0)
    psi0 = polar_state(basis)
    # a scaled rotation period of 24 steps of RAMP_DT_S or more leaves the
    # step at RAMP_DT_S
    p_scale = 1e-2
    assert 2 * math.pi / (24 * base.factor * ext.p_hz * p_scale) >= RAMP_DT_S
    rot = evolve_rotating(psi0, ext, 0.15, p_scale=p_scale)
    pair = polar_state(build_pair_basis(n))
    ref = evolve_constant(pair, hamiltonian_pair(base), 0.15)
    blk = basis.block(0)
    got = rot.amplitudes[blk]
    assert abs(abs(np.vdot(got, ref.amplitudes)) ** 2 - 1) < 1e-10


def test_rotating_p0_matches_static_transverse():
    n = 6
    basis = build_full_basis(n)
    base = PhysicsParams(25.0, n, 0.5, convention="plain")
    ext = ExtendedParams(base, p_hz=0.0, h_hz=4.0)
    psi0 = polar_state(basis)
    out = evolve_rotating(psi0, ext, 0.2, dt=2e-5)
    h = hamiltonian_full(ext, basis)
    dense = scipy.linalg.expm(-1j * 0.2 * h.toarray()) @ psi0.amplitudes
    assert abs(abs(np.vdot(dense, out.amplitudes)) ** 2 - 1) < 1e-6


@pytest.mark.parametrize(
    "n, t_end_s",
    [(20, 0.9), (200, 0.9), (1000, 0.005)],
    ids=["N20-ramp", "N200-ramp", "N1000-5ms"],
)
def test_windowed_ramp_matches_the_whole_chain(monkeypatch, n, t_end_s):
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    seg = ParabolicRamp(277.0, 0.955, 0.0, t_end_s)
    times = np.linspace(0.0, t_end_s, 7)[1:-1]
    windowed, w_samples = evolve_ramp(st, seg, p, sample_times=times)
    # a window that starts as the whole chain never truncates
    monkeypatch.setattr(propagate, "leading_window", lambda a, tol: (a.size, None))
    whole, h_samples = evolve_ramp(st, seg, p, sample_times=times)
    assert np.max(np.abs(windowed.amplitudes - whole.amplitudes)) <= 1e-12
    for (_, a), (_, b) in zip(w_samples, h_samples):
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12


def _dense_magnus4(st, seg, p, n_steps):
    """Independent reference: the classical fourth-order Magnus step with its
    commutator, by dense expm, with q read from the segment at the Gauss
    nodes."""
    h0 = hamiltonian_sector(p.with_q(0.0), st.basis).to_dense()
    hq = hamiltonian_sector(p.with_q(1.0), st.basis).to_dense() - h0
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
    st = polar_state(build_pair_basis(n))
    seg = LinearSweep(200.0, -200.0, 0.01)
    ref = _dense_magnus4(st, seg, p, 8 * round(seg.duration / RAMP_DT_S))
    err = [
        np.max(np.abs(evolve_ramp(st, seg, p, dt=dt)[0].amplitudes - ref))
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


def test_rotating_exact_mode_at_the_relaxation_bias():
    p_scale = 1e-3
    p = PhysicsParams(25.0, 7, 0.6)
    cfg = NoiseConfig(bz_bias_gauss=0.85, delta_bx_gauss=1e-4, seed=2)
    t0, t = 0.003, 0.01
    for i in range(3):  # drawn N = 7, 5 and 8
        draw = sample_trajectory_config(cfg, 7, i)
        ext = relaxation_params(p, cfg, draw)
        basis = build_full_basis(draw.n_atoms)
        psi0 = polar_state(basis)
        out = evolve_rotating(psi0, ext, t, p_scale=p_scale, t0=t0)
        # the rotating-frame Hamiltonian H0 - h (Lx cos(Pt) - Ly sin(Pt)) is
        # exp(iPt Lz) (H0 + P Lz - h Lx) exp(-iPt Lz) - P Lz, with P the
        # scaled Zeeman rate, and H0 + P Lz - h Lx is time independent
        rate = p.factor * ext.p_hz * p_scale
        lz = lz_full(basis)
        lab = hamiltonian_full(ExtendedParams(ext.base, 0.0, ext.h_hz), basis).toarray() + np.diag(rate * lz)
        dense = np.exp(1j * rate * (t0 + t) * lz) * (
            scipy.linalg.expm(-1j * t * lab) @ (np.exp(-1j * rate * t0 * lz) * psi0.amplitudes)
        )
        overlap = np.vdot(dense, out.amplitudes)
        assert abs(abs(overlap) ** 2 - 1.0) < 1e-8
        # amplitudes up to the global phase: the step's error here is at most
        # 7.4e-8 and falls 16-fold per halving of the step
        aligned = out.amplitudes * abs(overlap) / overlap
        assert np.max(np.abs(aligned - dense)) < 1e-6


def test_rotating_rejects_a_step_above_the_automatic_one():
    n = 4
    basis = build_full_basis(n)
    ext = ExtendedParams(PhysicsParams(25.0, n, 0.5), p_hz=0.0, h_hz=4.0)
    with pytest.raises(StepSizeError):
        evolve_rotating(polar_state(basis), ext, 0.01, dt=2 * RAMP_DT_S)
