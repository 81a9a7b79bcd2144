import numpy as np
import pytest

from spinmo.basis import build_pair_basis, polar_state
from spinmo.errors import ConfigError
from spinmo.noise import (
    NoiseConfig,
    TrajectoryDraw,
    effective_q,
    q_offset,
    run_dephasing_ensemble,
    run_relaxation_ensemble,
    sample_trajectory_config,
)
from spinmo.operators import PhysicsParams
from spinmo.schedule import Hold, ParabolicRamp, Schedule, run_schedule


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


def test_effective_q_examples():
    cfg0 = NoiseConfig(bz_bias_gauss=0.0)
    assert effective_q(5.0, 0.0, cfg0) == 5.0
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
    records, _ = run_schedule(polar_state(build_pair_basis(n)), sched, p, sample_dt=0.01)
    agg = ens.classes["all"]
    for i, r in enumerate(records):
        assert agg.mean["F_singlet"][i] == r.F_singlet
        assert agg.xi2[i] == pytest.approx(r.xi2, abs=0)
        assert agg.mean["K"][i] == r.K


def test_parity_split_is_exhaustive():
    n = 13
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(n_traj=12, seed=5)
    ens = run_dephasing_ensemble(_tiny_schedule(), p, cfg, sample_dt=None)
    n_even = ens.classes["even"].n_traj if "even" in ens.classes else 0
    n_odd = ens.classes["odd"].n_traj if "odd" in ens.classes else 0
    assert n_even + n_odd == cfg.n_traj == ens.classes["all"].n_traj


def test_relaxation_averaged_equals_dephasing_when_bx_zero():
    n = 10
    p = PhysicsParams(25.0, n)
    base = dict(
        delta_bz_gauss=1e-4,
        delta_bx_gauss=0.0,
        bz_bias_gauss=0.85,
        n_traj=4,
        seed=21,
        atom_number_spread=False,
    )
    sched = _tiny_schedule()
    deph = run_dephasing_ensemble(sched, p, NoiseConfig(**base), sample_dt=0.01)
    relax = run_relaxation_ensemble(sched, p, NoiseConfig(**base), mode="averaged", sample_dt=0.01)
    a, b = deph.classes["all"], relax.classes["all"]
    assert np.array_equal(a.xi2, b.xi2)
    assert np.array_equal(a.mean["F_singlet"], b.mean["F_singlet"])


def test_relaxation_averaged_rejects_large_transverse():
    n = 6
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(
        delta_bz_gauss=0.0, delta_bx_gauss=0.5, bz_bias_gauss=1e-3, n_traj=1,
        atom_number_spread=False, seed=1,
    )
    with pytest.raises(ConfigError):
        run_relaxation_ensemble(_tiny_schedule(), p, cfg, mode="averaged")


def test_ensemble_aggregation_order_independent_of_grouping():
    # aggregates use index order internally; rerunning gives identical bytes
    n = 9
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(n_traj=6, seed=3)
    a = run_dephasing_ensemble(_tiny_schedule(), p, cfg, sample_dt=None)
    b = run_dephasing_ensemble(_tiny_schedule(), p, cfg, sample_dt=None)
    assert np.array_equal(a.classes["all"].xi2, b.classes["all"].xi2)
    assert np.array_equal(a.classes["all"].mean["F_singlet"], b.classes["all"].mean["F_singlet"])


def test_relaxation_exact_mode_simulates_the_drawn_atom_numbers():
    n = 7
    p = PhysicsParams(25.0, n)
    cfg = NoiseConfig(n_traj=6, seed=2)
    ens = run_relaxation_ensemble(
        Schedule((Hold(0.6, 0.01),)), p, cfg, mode="exact_scaled_p", sample_dt=None
    )
    drawn = [d.n_atoms for d in ens.draws]
    assert drawn == [sample_trajectory_config(cfg, n, i).n_atoms for i in range(cfg.n_traj)]
    assert {m % 2 for m in drawn} == {0, 1}
    assert ens.classes["all"].n_traj == cfg.n_traj
    for name, parity in (("even", 0), ("odd", 1)):
        members = [m for m in drawn if m % 2 == parity]
        agg = ens.classes[name]
        assert agg.n_traj == len(members)
        np.testing.assert_allclose(agg.mean["n_current"], np.mean(members), rtol=0, atol=1e-12)
    assert np.all(ens.classes["odd"].mean["F_singlet"] == 0.0)


def test_relaxation_exact_mode_runs_at_the_relaxation_bias():
    n = 7
    cfg = NoiseConfig(bz_bias_gauss=0.85, delta_bx_gauss=1e-4, n_traj=3, seed=2)
    ens = run_relaxation_ensemble(
        Schedule((Hold(0.6, 0.01),)), PhysicsParams(25.0, n), cfg,
        mode="exact_scaled_p", p_scale=1e-3, sample_dt=None,
    )
    agg = ens.classes["all"]
    assert agg.n_traj == cfg.n_traj
    assert np.all((agg.mean["F_singlet"] >= 0.0) & (agg.mean["F_singlet"] <= 1.0))
