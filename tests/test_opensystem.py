import math

import numpy as np
import pytest

from spinmo.basis import SectorBasis, StateVector, build_pair_basis, polar_state
from spinmo.errors import ConfigError, ResourceCapError
from spinmo.observables import singlet_amplitudes
from spinmo.opensystem import (
    DenseLindblad,
    LossConfig,
    _apply_loss,
    _channel_probabilities,
    gillespie_trajectory,
    postselect,
    run_loss_study,
)
from spinmo.operators import PhysicsParams, hamiltonian_pair
from spinmo.propagate import evolve_constant
from spinmo.schedule import Hold, Schedule


def test_gamma_zero_reduces_to_unitary():
    n = 8
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    sched = Schedule((Hold(0.7, 0.4),))
    traj = gillespie_trajectory(st, sched, p, LossConfig(gamma_per_s=0.0, n_traj=1), index=0)
    assert traj.summary.n_jumps == 0 and traj.summary.final_n == n
    # matches the loss-free propagator to high accuracy
    ref = evolve_constant(st, hamiltonian_pair(p.with_q(0.7)), 0.4)
    # trajectory final state is reachable through the summary's sector record;
    # rerun with keep_states to compare amplitudes
    traj2 = gillespie_trajectory(
        st, sched, p, LossConfig(gamma_per_s=0.0, n_traj=1), index=0, keep_states=True
    )
    fin = traj2.states[-1][1]
    assert abs(abs(np.vdot(fin.amplitudes, ref.amplitudes)) ** 2 - 1) < 1e-10


def test_emptied_trajectory_records_read_the_empty_sector():
    # two atoms at 200/s are both lost within the 50 ms hold
    n = 2
    st = polar_state(build_pair_basis(n))
    sched = Schedule((Hold(0.3, 0.05),))
    cfg = LossConfig(gamma_per_s=200.0, n_traj=1)
    traj = gillespie_trajectory(st, sched, PhysicsParams(25.0, n), cfg, index=0, sample_dt=0.01)
    assert traj.summary.terminated_empty and traj.summary.final_f_singlet == 0.0
    last = traj.records[-1]
    assert (last.K, last.F_singlet, last.F_twinfock, last.xi2, last.pc, last.n_current) == (
        1, 0.0, 0.0, 0.0, 0.0, 0.0
    )


def test_channel_probabilities_sum_to_one():
    n = 9
    rng = np.random.default_rng(2)
    for m in (0, 1, -2):
        basis = SectorBasis(n, m)
        amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        amps /= np.linalg.norm(amps)
        probs = _channel_probabilities(StateVector(basis, amps))
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= 0)


def test_apply_loss_moves_sector():
    n = 6
    st = polar_state(build_pair_basis(n))
    out = _apply_loss(st, 0)
    assert out.basis.n_atoms == n - 1 and out.basis.magnetization == 0
    assert abs(out.norm - 1) < 1e-12
    # losing a +1 atom from a paired state lowers M by one
    tf = StateVector(build_pair_basis(n), np.eye(4)[3].astype(complex))
    out2 = _apply_loss(tf, 1)
    assert out2.basis.magnetization == -1


def test_sector_bookkeeping_after_jumps():
    n = 30
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    sched = Schedule((Hold(0.1, 2.0),))
    traj = gillespie_trajectory(st, sched, p, LossConfig(gamma_per_s=0.05, n_traj=1, seed=11), index=4)
    s = traj.summary
    assert s.final_n == n - s.n_jumps
    assert s.final_m == -sum(j.channel for j in s.jumps)


def test_no_jump_survival_fraction():
    n, gamma, t_hold = 12, 0.02, 1.5
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    sched = Schedule((Hold(0.2, t_hold),))
    cfg = LossConfig(gamma_per_s=gamma, n_traj=600, seed=8)
    res = run_loss_study(st, sched, p, cfg, sample_dt=0.75)
    sel = postselect(res.summaries, lambda s: s.n_jumps == 0)
    p_expect = math.exp(-2 * gamma * n * t_hold)
    sigma = math.sqrt(p_expect * (1 - p_expect) / cfg.n_traj)
    assert abs(sel["survival_fraction"] - p_expect) < 3 * sigma


def test_mean_atom_number_decay():
    n, gamma = 20, 0.05
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    sched = Schedule((Hold(0.0, 2.0),))
    cfg = LossConfig(gamma_per_s=gamma, n_traj=400, seed=13)
    res = run_loss_study(st, sched, p, cfg, sample_dt=0.5)
    for t, mean, se in zip(res.times, res.n_mean, res.n_stderr):
        expect = n * math.exp(-2 * gamma * t)
        assert abs(mean - expect) <= max(3 * se, 1e-9)


def test_postselect_always_true_matches_full():
    n = 10
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    sched = Schedule((Hold(0.3, 0.5),))
    cfg = LossConfig(gamma_per_s=0.03, n_traj=50, seed=2)
    res = run_loss_study(st, sched, p, cfg, sample_dt=0.25)
    sel = postselect(res.summaries, lambda s: True)
    assert sel["n_selected"] == cfg.n_traj and sel["survival_fraction"] == 1.0
    mean_f = np.mean([s.final_f_singlet for s in res.summaries])
    assert sel["final_f_singlet_mean"] == pytest.approx(mean_f, abs=0)


def test_postselect_empty_selection_flagged():
    n = 6
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    cfg = LossConfig(gamma_per_s=0.0, n_traj=3, seed=1)
    res = run_loss_study(st, Schedule((Hold(0.1, 0.1),)), p, cfg, sample_dt=0.05)
    sel = postselect(res.summaries, lambda s: s.final_n == 0)
    assert sel.get("empty") and sel["n_selected"] == 0


def test_dense_gamma_zero_is_pure_evolution():
    n = 4
    p = PhysicsParams(25.0, n, 0.4)
    st = polar_state(build_pair_basis(n))
    dl = DenseLindblad(n, p, 0.0)
    traj = dl.run(st, Schedule((Hold(0.4, 0.3),)))
    rho = traj[-1][1]
    ref = evolve_constant(st, hamiltonian_pair(p.with_q(0.4)), 0.3)
    full = dl.bases[n]
    vec = np.zeros(full.size, dtype=complex)
    vec[full.block(0)] = ref.amplitudes
    fid = float(np.real(vec.conj() @ rho[dl.block(n), dl.block(n)] @ vec))
    assert fid >= 1 - 1e-8


def test_dense_trace_hermiticity_positivity():
    n = 4
    p = PhysicsParams(25.0, n)
    dl = DenseLindblad(n, p, 0.05)
    traj = dl.run(polar_state(build_pair_basis(n)), Schedule((Hold(0.0, 1.0),)), sample_dt=0.25)
    for t, rho in traj:
        assert abs(np.trace(rho).real - 1.0) < 1e-8
        assert np.linalg.norm(rho - rho.conj().T) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_dense_cap():
    with pytest.raises(ResourceCapError):
        DenseLindblad(9, PhysicsParams(25.0, 9), 0.01)


def test_dense_rejects_ramps():
    from spinmo.schedule import LinearSweep

    dl = DenseLindblad(3, PhysicsParams(25.0, 3), 0.01)
    with pytest.raises(ConfigError):
        dl.run(polar_state(build_pair_basis(3)), Schedule((LinearSweep(1.0, 0.0, 0.1),)))


def test_between_jump_evolution_is_gamma_independent():
    # with the jump suppressed (huge waiting times), the normalized state
    # equals the loss-free evolution
    n = 8
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    sched = Schedule((Hold(0.5, 0.2),))
    a = gillespie_trajectory(st, sched, p, LossConfig(gamma_per_s=1e-12, n_traj=1, seed=5), index=0, keep_states=True)
    b = gillespie_trajectory(st, sched, p, LossConfig(gamma_per_s=0.0, n_traj=1, seed=5), index=0, keep_states=True)
    assert a.summary.n_jumps == 0
    fa, fb = a.states[-1][1], b.states[-1][1]
    assert np.max(np.abs(fa.amplitudes - fb.amplitudes)) < 1e-10


def test_gillespie_dense_agreement_small():
    n = 4
    p = PhysicsParams(25.0, n)
    st = polar_state(build_pair_basis(n))
    sched = Schedule((Hold(0.0, 1.0),))
    gamma = 0.08
    cfg = LossConfig(gamma_per_s=gamma, n_traj=500, seed=6)
    res = run_loss_study(st, sched, p, cfg, sample_dt=1.0)
    dl = DenseLindblad(n, p, gamma)
    rho = dl.run(st, sched)[-1][1]
    obs = dl.observables(rho)
    i = -1
    se_n = max(res.n_stderr[i], 1e-6)
    assert abs(res.n_mean[i] - obs["n"]) < 3.5 * se_n
    se_f = max(res.f_singlet_stderr[i], 1e-6)
    assert abs(res.f_singlet_mean[i] - obs["f_singlet"]) < 3.5 * se_f
