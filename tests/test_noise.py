from collections import Counter

import numpy as np
import pytest

from spinmo import _kernels
from spinmo.basis import PairBasis, StateVector, polar_state
from spinmo.errors import ConfigError
from spinmo.noise import (
    NoiseConfig,
    TrajectoryDraw,
    check_rotating_wave,
    q_offset,
    run_dephasing_ensemble,
    sample_trajectory_config,
)
from spinmo.observables import singlet_amplitudes
from spinmo.operators import GYROMAGNETIC_RATIO_HZ_PER_G, PhysicsParams
from spinmo.propagate import RAMP_DT_S
from spinmo.schedule import (
    Hold,
    LinearSweep,
    ParabolicRamp,
    Schedule,
    run_schedule,
)

from full_basis import build_full_basis, embed, hamiltonian_full, xi2_full


def test_draws_reproducible():
    cfg = NoiseConfig(seed=42)
    a = sample_trajectory_config(cfg, 1000, 17)
    b = sample_trajectory_config(cfg, 1000, 17)
    assert a == b
    c = sample_trajectory_config(cfg, 1000, 18)
    assert c != a


def test_zero_ranges_draw_zero():
    cfg = NoiseConfig(delta_bz_gauss=0.0, delta_bx_gauss=0.0, atom_number_spread=False)
    d = sample_trajectory_config(cfg, 500, 3)
    assert d == TrajectoryDraw(0.0, 0.0, 500)


def test_draw_statistics_uniform():
    cfg = NoiseConfig(seed=9)
    n = 10_000
    draws = [sample_trajectory_config(cfg, 1000, i) for i in range(n)]
    dbz = np.array([d.delta_bz_gauss for d in draws])
    # mean of U(-r, r) over n draws: 0 +- 3 * r/sqrt(3 n)
    r = cfg.delta_bz_gauss
    assert abs(dbz.mean()) < 3 * r / np.sqrt(3 * n)
    ns = np.array([d.n_atoms for d in draws])
    assert ns.min() >= 1000 - 31 and ns.max() <= 1000 + 31


def test_atom_number_draws_keep_at_least_one_atom():
    # the spread [N - sqrt(N), N + sqrt(N)] reaches 0 at N = 1 only; kept
    # symmetric about N there, every draw is 1
    assert {sample_trajectory_config(NoiseConfig(), 1, i).n_atoms for i in range(40)} == {1}
    # the clamp leaves every larger N's draws as they were
    cfg = NoiseConfig(seed=3)
    ns = [sample_trajectory_config(cfg, 100, i).n_atoms for i in range(12)]
    assert ns == [93, 106, 95, 103, 95, 107, 93, 94, 103, 94, 92, 103]
    assert sample_trajectory_config(cfg, 100, 0) == TrajectoryDraw(
        -8.287016657127514e-05, -5.2637898680780066e-05, 93
    )


def test_effective_q_examples():
    cfg0 = NoiseConfig(bz_bias_gauss=0.0)
    assert q_offset(0.0, cfg0) == 0.0
    # zero bias: pure quadratic shift 277 * (1e-4)^2
    assert q_offset(1e-4, cfg0) == pytest.approx(2.77e-6, rel=1e-12)
    cfg85 = NoiseConfig(bz_bias_gauss=0.85)
    shift = q_offset(1e-4, cfg85)
    linear = 2 * 277.0 * 0.85 * 1e-4
    assert shift == pytest.approx(0.0471, abs=2e-4)
    assert shift == pytest.approx(linear, rel=1e-3)  # linearized vs exact quadratic


def test_noise_config_validation():
    with pytest.raises(ConfigError):
        NoiseConfig(delta_bz_gauss=-1e-4)
    with pytest.raises(ConfigError):
        NoiseConfig(n_traj=0)


def _tiny_schedule():
    return Schedule((ParabolicRamp(20.0, 0.08, 0.0, 0.05), Hold(0.6, 0.02)))


def test_single_trajectory_zero_noise_matches_deterministic():
    n = 12
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(
        delta_bz_gauss=0.0, delta_bx_gauss=0.0, atom_number_spread=False, n_traj=1
    )
    sched = _tiny_schedule()
    ens = run_dephasing_ensemble(sched, p, cfg, sample_dt=0.01)
    records, _ = run_schedule(polar_state(PairBasis(n)), sched, p, sample_dt=0.01)
    agg = ens.classes["all"]
    for i, r in enumerate(records):
        assert agg.mean["F_singlet"][i] == r.F_singlet
        assert agg.xi2[i] == pytest.approx(r.xi2, abs=0)
        assert agg.mean["K"][i] == r.K


def test_batched_trajectories_match_each_draw_run_alone(monkeypatch):
    windows = []  # the window sizes of every band the kernel builds

    class RecordingBand(_kernels._Band):
        def __init__(self, diag0, qdiag, off, ms):
            windows.append(list(ms))
            super().__init__(diag0, qdiag, off, ms)

    monkeypatch.setattr(_kernels, "_Band", RecordingBand)
    n = 40
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(delta_bz_gauss=5e-2, n_traj=6, seed=2)
    sched = Schedule(
        (ParabolicRamp(277.0, 0.955, 0.88, 0.9), Hold(0.3, 0.01), LinearSweep(0.3, 0.0, 0.01))
    )
    draws = [sample_trajectory_config(cfg, n, i) for i in range(cfg.n_traj)]
    assert {d.n_atoms % 2 for d in draws} == {0, 1}
    offsets = [q_offset(d.delta_bz_gauss, cfg) for d in draws]
    # the batch shares the nominal params: N comes from each state's basis;
    # on the fine grid, then on the merged one, which merges 2 steps here
    for ramp_dt in (RAMP_DT_S, None):
        del windows[:]
        counts = Counter()
        batched, _ = run_schedule(
            [polar_state(PairBasis(d.n_atoms)) for d in draws], sched, p,
            sample_dt=5e-3, q_offset_hz=offsets, ramp_dt=ramp_dt, counts=counts,
        )
        assert counts["ramp_steps.1" if ramp_dt else "ramp_steps.2"] > 0

        sizes = np.array([d.n_atoms // 2 + 1 for d in draws])
        ms = np.array(windows)
        assert np.all(ms <= sizes)
        assert np.any(ms.max(axis=0) == sizes)
        if ramp_dt:
            # blocks grow their windows at different steps, and one reaches its chain
            assert any(
                np.any(cur > prev) and np.any((cur == prev) & (prev < sizes))
                for prev, cur in zip(ms[:-1], ms[1:])
            )

        for d, dq, recs in zip(draws, offsets, batched):
            alone, _ = run_schedule(
                polar_state(PairBasis(d.n_atoms)), sched, PhysicsParams(25.0, d.n_atoms),
                sample_dt=5e-3, q_offset_hz=dq, ramp_dt=ramp_dt,
            )
            assert [(r.t, r.q) for r in recs] == [(r.t, r.q) for r in alone]
            for r, a in zip(recs, alone):
                assert r.K == a.K
                for field in ("F_singlet", "xi2", "pc"):
                    assert abs(getattr(r, field) - getattr(a, field)) <= 1e-12

    ens = run_dephasing_ensemble(sched, p, cfg, sample_dt=5e-3)
    f_singlet = np.mean([[r.F_singlet for r in recs] for recs in batched], axis=0)
    np.testing.assert_array_equal(ens.classes["all"].mean["F_singlet"], f_singlet)


def test_parity_split_is_exhaustive():
    n = 13
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(n_traj=12, seed=5)
    ens = run_dephasing_ensemble(_tiny_schedule(), p, cfg, sample_dt=None)
    n_even = ens.classes["even"].n_traj if "even" in ens.classes else 0
    n_odd = ens.classes["odd"].n_traj if "odd" in ens.classes else 0
    assert n_even + n_odd == cfg.n_traj == ens.classes["all"].n_traj


def test_relaxation_averaged_rejects_large_transverse():
    n = 6
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(
        delta_bz_gauss=0.0, delta_bx_gauss=0.5, bz_bias_gauss=1e-3, n_traj=1,
        atom_number_spread=False, seed=1,
    )
    with pytest.raises(ConfigError):
        check_rotating_wave(p, cfg)


def test_rotating_wave_check_needs_a_longitudinal_field_for_a_transverse_one():
    p = PhysicsParams(25.0, 6)
    zero = dict(delta_bz_gauss=0.0, bz_bias_gauss=0.0, n_traj=2, seed=1)
    # p = 0 and h != 0: |h/p| is infinite
    with pytest.raises(ConfigError, match="h/p = inf"):
        check_rotating_wave(p, NoiseConfig(delta_bx_gauss=1e-4, **zero))
    # no transverse field: nothing to average away, at any p
    check_rotating_wave(p, NoiseConfig(delta_bx_gauss=0.0, **zero))
    check_rotating_wave(p, NoiseConfig(delta_bx_gauss=0.0, bz_bias_gauss=0.85, n_traj=4, seed=21))
    check_rotating_wave(p, NoiseConfig(delta_bx_gauss=1e-4, bz_bias_gauss=0.85, n_traj=2))


def test_dephasing_ensemble_adds_to_the_callers_counter():
    p = PhysicsParams(25.0, 10)
    cfg = NoiseConfig(n_traj=3, seed=2)
    counts = Counter(unrelated=1)
    run_dephasing_ensemble(_tiny_schedule(), p, cfg, sample_dt=0.01, counts=counts)
    once = Counter(counts)
    assert once["trajectories"] == 3 and once["unrelated"] == 1
    # a ramp and a hold: ramp steps and at least one block per trajectory
    assert once["hold_blocks"] >= 3
    assert once["ramp_steps.1"] + once["ramp_steps.2"] > 0
    run_dephasing_ensemble(_tiny_schedule(), p, cfg, sample_dt=0.01, counts=counts)
    assert counts == Counter({k: 2 * v for k, v in once.items() if k != "unrelated"}, unrelated=1)


def test_ensemble_aggregation_order_independent_of_grouping():
    # aggregates use index order internally; rerunning gives identical bytes
    n = 9
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(n_traj=6, seed=3)
    a = run_dephasing_ensemble(_tiny_schedule(), p, cfg, sample_dt=None)
    b = run_dephasing_ensemble(_tiny_schedule(), p, cfg, sample_dt=None)
    assert a.draws == b.draws
    assert a.classes.keys() == b.classes.keys() == {"all", "even", "odd"}
    for name, x in a.classes.items():
        y = b.classes[name]
        assert x.n_traj == y.n_traj
        assert np.array_equal(x.xi2, y.xi2)
        for f in ("F_singlet", "n_current"):
            assert np.array_equal(x.mean[f], y.mean[f])


@pytest.mark.parametrize("n", [6, 7, 8])
def test_relaxation_averaged_matches_the_lab_frame_oracle(n):
    # each draw evolved densely on the full basis under the time-independent
    # lab-frame H = c2p L^2/N - q n0 - p Lz - h Lx at the real Zeeman rate p;
    # F_singlet and xi2 do not change under rotations about z, so the lab
    # frame reads them directly
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(
        delta_bz_gauss=1e-4, delta_bx_gauss=1e-4, bz_bias_gauss=0.85,
        atom_number_spread=False, n_traj=3, seed=4,
    )
    hold = Hold(0.6, 0.02)
    check_rotating_wave(p, cfg)
    ens = run_dephasing_ensemble(Schedule((hold,)), p, cfg, sample_dt=None)
    basis = build_full_basis(n)
    psi0 = embed(polar_state(PairBasis(n)), basis)
    singlet = singlet_amplitudes(n)
    if singlet is not None:
        singlet = embed(StateVector(PairBasis(n), singlet), basis)
    f_singlet, xi2 = [], []
    for d in ens.draws:
        p_hz = -GYROMAGNETIC_RATIO_HZ_PER_G * (cfg.bz_bias_gauss + d.delta_bz_gauss)
        h_hz = -GYROMAGNETIC_RATIO_HZ_PER_G * d.delta_bx_gauss
        assert h_hz != 0.0
        q = hold.q_hz + q_offset(d.delta_bz_gauss, cfg)
        vals, vecs = np.linalg.eigh(hamiltonian_full(p.with_q(q), basis, p_hz, h_hz).toarray())
        psi = vecs @ (np.exp(-1j * vals * hold.duration) * (vecs.conj().T @ psi0))
        f_singlet.append(abs(np.vdot(singlet, psi)) ** 2 if singlet is not None else 0.0)
        xi2.append(xi2_full(basis, psi))
    agg = ens.classes["all"]
    assert abs(agg.mean["F_singlet"][-1] - np.mean(f_singlet)) <= 1e-8
    assert abs(agg.xi2[-1] - np.mean(xi2)) <= 1e-8
    # the hold moves the state well beyond that tolerance
    assert abs(agg.xi2[-1] - agg.xi2[0]) > 1e-2
