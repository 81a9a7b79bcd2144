import math
import sys
from collections import Counter

import numpy as np
import pytest

import spinmo.observables
from spinmo.basis import PairBasis, SectorBasis, StateVector, polar_state
from spinmo.errors import ConfigError
from spinmo.noise import NoiseConfig, run_dephasing_ensemble
from spinmo.observables import singlet_amplitudes
from spinmo.opensystem import (
    LossConfig,
    _apply_loss,
    _channel_probabilities,
    _draw_channel,
    gillespie_trajectory,
    postselect,
    run_loss_study,
)
from spinmo.operators import PhysicsParams, hamiltonian_pair
from spinmo.schedule import Hold, LinearSweep, ParabolicRamp, Schedule, run_schedule
from spinmo.spectra import eigensolve_tridiagonal

from dense_lindblad import DenseLindblad, ResourceCapError
from full_basis import sector_config, sector_index


def test_gamma_zero_reduces_to_unitary():
    n = 8
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(0.7, 0.4),))
    traj = gillespie_trajectory(st, sched, p, LossConfig(gamma_per_s=0.0, n_traj=1), index=0)
    assert traj.summary.n_jumps == 0 and traj.summary.final_n == n
    # matches the loss-free propagator to high accuracy
    ref = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(0.7))).evolve(st.amplitudes, [0.4])[:, 0]
    fin = traj.final_state
    assert abs(abs(np.vdot(fin.amplitudes, ref)) ** 2 - 1) < 1e-10


def test_emptied_trajectory_records_read_the_empty_sector():
    # two atoms at 200/s are both lost within the 50 ms hold
    n = 2
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(0.3, 0.05),))
    cfg = LossConfig(gamma_per_s=200.0, n_traj=1)
    traj = gillespie_trajectory(st, sched, PhysicsParams(25.0, n), cfg, index=0, sample_dt=0.01)
    assert traj.summary.final_n == 0 and traj.summary.final.F_singlet == 0.0
    last = traj.records[-1]
    assert (last.K, last.F_singlet, last.F_twinfock, last.xi2, last.pc, last.n_current) == (
        1, 0.0, 0.0, 0.0, 0.0, 0.0
    )
    # an emptied trajectory is still recorded at every instant of the schedule
    want = run_schedule(st, sched, PhysicsParams(25.0, n), sample_dt=0.01)[0]
    assert [r.t for r in traj.records] == [r.t for r in want]


# holds first: their ends, 0.3 s and 0.4 s, are not multiples of 0.1 in floats
MIXED = Schedule((
    Hold(0.5, 0.3),
    Hold(0.1, 0.2),
    ParabolicRamp(30.0, 0.08, 0.02, 0.05),
    LinearSweep(0.6, -0.2, 0.07),
))


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("dt", [0.1, 1e-2])
def test_lossless_trajectory_records_what_run_schedule_records(n, dt):
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    cfg = LossConfig(gamma_per_s=0.0, n_traj=1)
    traj = gillespie_trajectory(st, MIXED, p, cfg, sample_dt=dt, q_offset_hz=0.2)
    records, final = run_schedule(st, MIXED, p, sample_dt=dt, q_offset_hz=0.2)
    assert traj.records == records
    assert np.array_equal(traj.final_state.amplitudes, final.amplitudes)


def test_lossless_trajectory_takes_the_ramp_step_it_is_given():
    n = 12
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    cfg = LossConfig(gamma_per_s=0.0, n_traj=1)
    traj = gillespie_trajectory(st, MIXED, p, cfg, sample_dt=1e-2, ramp_dt=1e-4)
    assert traj.records == run_schedule(st, MIXED, p, sample_dt=1e-2, ramp_dt=1e-4)[0]
    assert traj.records != gillespie_trajectory(st, MIXED, p, cfg, sample_dt=1e-2).records


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


def test_channel_draw_matches_generator_choice():
    rng = np.random.default_rng(17)
    pairs = 0
    for seed in range(1200):
        # probabilities as _channel_probabilities gives them, some of them 0
        w = rng.random(3) * (rng.random(3) > 0.3)
        if not w.any():
            w[seed % 3] = 1.0
        p = w / w.sum()
        want_rng, got_rng = np.random.default_rng([seed, 7]), np.random.default_rng([seed, 7])
        for _ in range(3):
            want = int(want_rng.choice([-1, 0, 1], p=p))
            got = _draw_channel(p, got_rng.random())
            assert got == want, (seed, p)
            assert p[got + 1] > 0
            pairs += 1
        # one uniform per draw: the exponential stream goes on alike
        assert want_rng.exponential(1.0) == got_rng.exponential(1.0)
    assert pairs >= 1000


def test_channel_sequence_of_a_lossy_trajectory_is_pinned():
    n = 20
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(0.3, 0.5), ParabolicRamp(30.0, 0.08, 0.0, 0.05)))
    cfg = LossConfig(gamma_per_s=0.2, n_traj=1, seed=3)
    traj = gillespie_trajectory(st, sched, PhysicsParams(25.0, n), cfg, index=1, sample_dt=0.1)
    assert [j.channel for j in traj.summary.jumps] == [-1, 0, 1, -1, 0]


def test_references_are_built_only_for_sectors_that_are_read(monkeypatch):
    built = []
    original = spinmo.observables.reference_eigensystem

    def recording(n_atoms, magnetization=0):
        built.append((n_atoms, magnetization))
        return original(n_atoms, magnetization)

    for name, module in list(sys.modules.items()):
        if name.startswith("spinmo") and getattr(module, "reference_eigensystem", None) is original:
            monkeypatch.setattr(module, "reference_eigensystem", recording)
    n = 40
    st = polar_state(PairBasis(n))
    # every jump falls inside the one ramp, and the records sit at its ends
    sched = Schedule((ParabolicRamp(30.0, 0.08, 0.0, 0.05),))
    cfg = LossConfig(gamma_per_s=2.0, n_traj=1, seed=2)
    traj = gillespie_trajectory(st, sched, PhysicsParams(25.0, n), cfg, sample_dt=0.1)
    s = traj.summary
    assert s.n_jumps >= 2 and [r.t for r in traj.records] == [0.0, 0.05]
    assert set(built) == {(n, 0), (s.final_n, s.final_m)}


def test_apply_loss_moves_sector():
    n = 6
    st = polar_state(PairBasis(n))
    out = _apply_loss(st, 0)
    assert out.basis.n_atoms == n - 1 and out.basis.magnetization == 0
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12
    # losing a +1 atom from a paired state lowers M by one
    tf = StateVector(PairBasis(n), np.eye(4)[3].astype(complex))
    out2 = _apply_loss(tf, 1)
    assert out2.basis.magnetization == -1


def _apply_loss_by_level(state, channel):
    """One level at a time: the reference for the vectorized jump."""
    basis = state.basis
    moves = []
    for k in range(basis.size):
        n_minus, n_zero, n_plus = sector_config(basis, k)
        lost = (n_minus, n_zero, n_plus)[channel + 1]
        if lost == 0:
            continue
        after = (n_minus - (channel == -1), n_zero - (channel == 0), n_plus - (channel == 1))
        moves.append((after, math.sqrt(lost) * state.amplitudes[k]))
    if not any(amp != 0 for _, amp in moves):
        raise ArithmeticError("loss channel annihilated the state")
    new_basis = SectorBasis(basis.n_atoms - 1, basis.magnetization - channel)
    out = np.zeros(new_basis.size, dtype=np.complex128)
    for after, amp in moves:
        out[sector_index(new_basis, after)] += amp
    return StateVector(new_basis, out / np.linalg.norm(out))


def test_apply_loss_matches_the_level_by_level_jump():
    rng = np.random.default_rng(5)
    for n in range(2, 61):
        for m in range(-4, 5):
            if abs(m) > n:
                continue
            basis = SectorBasis(n, m)
            amps = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
            st = StateVector(basis, amps / np.linalg.norm(amps))
            for channel in (-1, 0, 1):
                try:
                    want = _apply_loss_by_level(st, channel)
                except ArithmeticError:  # an empty channel
                    with pytest.raises(ArithmeticError):
                        _apply_loss(st, channel)
                    continue
                got = _apply_loss(st, channel)
                assert got.basis == want.basis
                assert np.array_equal(got.amplitudes, want.amplitudes)


@pytest.mark.parametrize("n", [16, 40, 100])
def test_lossless_study_aggregates_as_the_dephasing_ensemble(n):
    # the same draws through both ensembles: one batch of run_schedule, and
    # one trajectory at a time; the batch shares one Chebyshev interval, so
    # the two agree to rounding, not bit for bit
    p = PhysicsParams(25.0, n)
    sched = Schedule(
        (ParabolicRamp(277.0, 0.955, 0.895, 0.9), Hold(0.2936, 0.0095), Hold(0.0, 0.005))
    )
    noise = NoiseConfig(delta_bz_gauss=5e-2, atom_number_spread=False, n_traj=4, seed=3)
    ens = run_dephasing_ensemble(sched, p, noise, sample_dt=5e-3)
    res = run_loss_study(
        polar_state(PairBasis(n)), sched, p, LossConfig(gamma_per_s=0.0, n_traj=4),
        sample_dt=5e-3, dephasing=noise,
    )
    want, got = ens.classes["all"], res.aggregate
    assert np.array_equal(res.times, ens.times) and got.n_traj == want.n_traj == 4
    assert want.stderr["F_singlet"].max() > 1e-3  # the draws differ
    pairs = [(got.xi2, want.xi2), (got.xi2_stderr, want.xi2_stderr)]
    pairs += [(got.mean[f], want.mean[f]) for f in ("F_singlet", "n_current")]
    for a, b in pairs:
        assert np.max(np.abs(a - b)) <= 1e-12


def test_sector_bookkeeping_after_jumps():
    n = 30
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(0.1, 2.0),))
    traj = gillespie_trajectory(st, sched, p, LossConfig(gamma_per_s=0.05, n_traj=1, seed=11), index=4)
    s = traj.summary
    assert s.final_n == n - s.n_jumps
    assert s.final_m == -sum(j.channel for j in s.jumps)


def test_no_jump_survival_fraction():
    n, gamma, t_hold = 12, 0.02, 1.5
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
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
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(0.0, 2.0),))
    cfg = LossConfig(gamma_per_s=gamma, n_traj=400, seed=13)
    res = run_loss_study(st, sched, p, cfg, sample_dt=0.5)
    agg = res.aggregate
    for t, mean, se in zip(res.times, agg.mean["n_current"], agg.stderr["n_current"]):
        expect = n * math.exp(-2 * gamma * t)
        assert abs(mean - expect) <= max(3 * se, 1e-9)


def test_loss_study_adds_to_the_callers_counter():
    n = 10
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    sched = Schedule((LinearSweep(0.5, 0.2, 0.01), Hold(0.2, 0.3)))
    cfg = LossConfig(gamma_per_s=1.0, n_traj=4, seed=3)
    counts = Counter(unrelated=1)
    res = run_loss_study(st, sched, p, cfg, sample_dt=0.1, counts=counts)
    once = Counter(counts)
    assert once["trajectories"] == 4 and once["unrelated"] == 1
    assert once["jumps"] == sum(s.n_jumps for s in res.summaries) > 0
    assert 1 <= once["reference_eigensystems"] <= 1 + once["jumps"]
    assert once["hold_blocks"] >= 4 and once["ramp_steps.1"] + once["ramp_steps.2"] >= 4
    assert res.trajectory_wall_s.shape == (4,) and np.all(res.trajectory_wall_s > 0)
    # a second study adds the same counts again: each keeps its own sector table
    run_loss_study(st, sched, p, cfg, sample_dt=0.1, counts=counts)
    assert counts == Counter({k: 2 * v for k, v in once.items() if k != "unrelated"}, unrelated=1)


def test_postselect_always_true_matches_full():
    n = 10
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(0.3, 0.5),))
    cfg = LossConfig(gamma_per_s=0.03, n_traj=50, seed=2)
    res = run_loss_study(st, sched, p, cfg, sample_dt=0.25)
    sel = postselect(res.summaries, lambda s: True)
    assert sel["n_selected"] == cfg.n_traj and sel["survival_fraction"] == 1.0
    mean_f = np.mean([s.final.F_singlet for s in res.summaries])
    assert sel["final_f_singlet_mean"] == pytest.approx(mean_f, abs=0)


def test_postselect_empty_selection_flagged():
    n = 6
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    cfg = LossConfig(gamma_per_s=0.0, n_traj=3, seed=1)
    res = run_loss_study(st, Schedule((Hold(0.1, 0.1),)), p, cfg, sample_dt=0.05)
    sel = postselect(res.summaries, lambda s: s.final_n == 0)
    assert sel.get("empty") and sel["n_selected"] == 0


def test_dense_gamma_zero_is_pure_evolution():
    n = 4
    p = PhysicsParams(25.0, n, 0.4)
    st = polar_state(PairBasis(n))
    dl = DenseLindblad(n, p, 0.0)
    traj = dl.run(st, Schedule((Hold(0.4, 0.3),)))
    rho = traj[-1][1]
    ref = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(0.4))).evolve(st.amplitudes, [0.3])[:, 0]
    full = dl.bases[n]
    vec = np.zeros(full.size, dtype=complex)
    vec[full.block(0)] = ref
    fid = float(np.real(vec.conj() @ rho[dl.block(n), dl.block(n)] @ vec))
    assert fid >= 1 - 1e-8


def test_dense_trace_hermiticity_positivity():
    n = 4
    p = PhysicsParams(25.0, n)
    dl = DenseLindblad(n, p, 0.05)
    traj = dl.run(polar_state(PairBasis(n)), Schedule((Hold(0.0, 1.0),)), sample_dt=0.25)
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
        dl.run(polar_state(PairBasis(3)), Schedule((LinearSweep(1.0, 0.0, 0.1),)))


def test_between_jump_evolution_is_gamma_independent():
    # with the jump suppressed (huge waiting times), the normalized state
    # equals the loss-free evolution
    n = 8
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(0.5, 0.2),))
    a = gillespie_trajectory(st, sched, p, LossConfig(gamma_per_s=1e-12, n_traj=1, seed=5), index=0)
    b = gillespie_trajectory(st, sched, p, LossConfig(gamma_per_s=0.0, n_traj=1, seed=5), index=0)
    assert a.summary.n_jumps == 0
    fa, fb = a.final_state, b.final_state
    assert np.max(np.abs(fa.amplitudes - fb.amplitudes)) < 1e-10


def test_gillespie_dense_agreement_small():
    n = 4
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(0.0, 1.0),))
    gamma = 0.08
    cfg = LossConfig(gamma_per_s=gamma, n_traj=500, seed=6)
    res = run_loss_study(st, sched, p, cfg, sample_dt=1.0)
    dl = DenseLindblad(n, p, gamma)
    rho = dl.run(st, sched)[-1][1]
    obs = dl.observables(rho)
    mean, stderr = res.aggregate.mean, res.aggregate.stderr
    i = -1
    se_n = max(stderr["n_current"][i], 1e-6)
    assert abs(mean["n_current"][i] - obs["n"]) < 3.5 * se_n
    se_f = max(stderr["F_singlet"][i], 1e-6)
    assert abs(mean["F_singlet"][i] - obs["f_singlet"]) < 3.5 * se_f
