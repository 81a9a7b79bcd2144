import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import expm

from spinmo import optimizer, propagate
from spinmo.basis import PairBasis, SectorBasis, StateVector, polar_state
from spinmo.observables import occupied_levels, record_for, reference_eigensystem, singlet_amplitudes
from spinmo.operators import PhysicsParams, hamiltonian_pair, hamiltonian_sector
from spinmo.optimizer import (
    OptimizerConfig,
    first_local_min_k,
    geometric_grid,
    optimize_step,
    run_amo,
    run_protocol,
)
from spinmo.schedule import ParabolicRamp, Schedule, run_schedule
from spinmo.spectra import eigensolve_tridiagonal

from full_basis import to_dense


def singlet_state(n):
    return StateVector(PairBasis(n), singlet_amplitudes(n).astype(complex))


def test_geometric_grid_shape():
    g = geometric_grid(1e-4, 1.0, 10)
    assert g[0] == pytest.approx(1e-4) and g[-1] == pytest.approx(1.0)
    assert np.all(np.diff(np.log10(g)) > 0)
    assert geometric_grid(0.5, 0.5, 40).tolist() == [0.5]
    with pytest.raises(ValueError):
        geometric_grid(1.0, 0.5, 10)


def test_first_local_min_on_singlet_returns_immediately():
    n = 10
    p = PhysicsParams(25.0, n)
    cfg = OptimizerConfig(step_time_cap_s=0.5)
    ref = reference_eigensystem(n)
    start = singlet_state(n)
    scan = first_local_min_k(start, 0.5, p, cfg, ref)
    assert scan.k == 1 and scan.t_s == 0.0 and scan.flag == "flat"
    np.testing.assert_allclose(scan.amplitudes, start.amplitudes, rtol=0, atol=1e-12)


def test_first_local_min_flags_flat_eigenstate():
    n = 10
    p = PhysicsParams(25.0, n)
    q = 2.0
    eig = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(q)))
    st = StateVector(PairBasis(n), eig.vectors[:, 2].astype(complex))
    cfg = OptimizerConfig(step_time_cap_s=0.3)
    scan = first_local_min_k(st, q, p, cfg, reference_eigensystem(n))
    assert scan.flag == "flat" and scan.t_s == 0.0


def test_scan_chunking_does_not_change_the_scan(monkeypatch):
    # from the ground state at q = 0.9 Hz this grid gives all three flags
    n = 20
    p = PhysicsParams(25.0, n)
    ref = reference_eigensystem(n)
    g = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(0.9))).ground()
    st = StateVector(PairBasis(n), g.astype(complex))
    cfg = OptimizerConfig(step_time_cap_s=0.4)
    grid = geometric_grid(1e-2, 10.0, 3)
    runs = {}
    for chunk in (1, 7, optimizer._SCAN_CHUNK):
        with monkeypatch.context() as m:
            m.setattr(optimizer, "_SCAN_CHUNK", chunk)
            runs[chunk] = [first_local_min_k(st, float(q), p, cfg, ref) for q in grid]
    default = runs[optimizer._SCAN_CHUNK]
    assert {s.flag for s in default} == {"", "flat", "capped"}
    for scans in runs.values():
        for a, b in zip(scans, default):
            assert (a.k, a.t_s, a.flag) == (b.k, b.t_s, b.flag)
            np.testing.assert_allclose(a.amplitudes, b.amplitudes, rtol=0, atol=1e-12)


def test_scan_amplitudes_match_dense_expm():
    n = 10
    p = PhysicsParams(25.0, n)
    q = 3.0
    ref = reference_eigensystem(n)
    st = polar_state(PairBasis(n))
    cfg = OptimizerConfig(step_time_cap_s=0.5)
    scan = first_local_min_k(st, q, p, cfg, ref)
    assert scan.t_s > 0
    h = to_dense(hamiltonian_sector(p.with_q(q), st.basis))
    want = expm(-1j * h * scan.t_s) @ st.amplitudes
    np.testing.assert_allclose(scan.amplitudes, want, rtol=0, atol=1e-10)
    assert occupied_levels(StateVector(st.basis, want), ref, cfg.k_threshold) == scan.k


def dense_scan(state, q, p, cfg, ref):
    """The hold scan sample by sample on the whole chain, as (q, K, t, flag)
    and the amplitudes: a full eigensolve in the pair basis, every sample
    taken into the reference basis by the dense change of basis."""
    e, v = np.linalg.eigh(to_dense(hamiltonian_sector(p.with_q(q), state.basis)))
    c0 = v.T @ state.amplitudes
    change = ref.vectors.T @ v
    dt, w = cfg.sample_dt_s, cfg.dwell_window
    j_max = int(np.floor(cfg.step_time_cap_s / dt))
    pops = np.abs(change @ (np.exp(-1j * np.outer(e, np.arange(j_max + 1) * dt)) * c0[:, None])) ** 2
    ks = np.maximum((pops > cfg.k_threshold).sum(axis=0), 1)
    if ks[0] == 1:
        return (q, 1, 0.0, "flat"), state.amplitudes
    for j in range(1, j_max - w + 1):
        if ks[j] < ks[0] and ks[j] <= ks[j + 1 : j + w + 1].min() and ks[j] <= ks[max(0, j - w) : j].min():
            found, flag = j, ""
            break
    else:
        if np.all(ks == ks[0]):
            found, flag = 0, "flat"
        else:
            at_min = np.flatnonzero(ks == ks.min())
            found, flag = int(at_min[np.argmax(pops[:2, at_min].sum(axis=0))]), "capped"
    return (q, int(ks[found]), found * dt, flag), v @ (np.exp(-1j * e * found * dt) * c0)


def solve_sizes(monkeypatch):
    """Record the size of every eigensolve the hold scan makes."""
    sizes = []

    def recording(m):
        sizes.append(m.size)
        return eigensolve_tridiagonal(m)

    monkeypatch.setattr(propagate, "eigensolve_tridiagonal", recording)
    return sizes


@pytest.mark.parametrize("n", [20, 21, 60, 200])
def test_scan_matches_dense_pair_basis_scan(n):
    p = PhysicsParams(25.0, n)
    basis = PairBasis(n)
    ref = reference_eigensystem(n)
    ground = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(4.5))).ground()
    cfg = OptimizerConfig(step_time_cap_s=0.4)
    flags = set()
    for st in (polar_state(basis), StateVector(basis, ground.astype(complex))):
        for q in geometric_grid(1e-2, 10.0, 3):
            scan = first_local_min_k(st, float(q), p, cfg, ref)
            want, amplitudes = dense_scan(st, float(q), p, cfg, ref)
            assert (scan.q_hz, scan.k, scan.t_s, scan.flag) == want
            np.testing.assert_allclose(scan.amplitudes, amplitudes, rtol=0, atol=1e-10)
            flags.add(scan.flag)
    assert flags == {"", "flat", "capped"}


def test_scan_truncates_the_chain_only_below_its_top(monkeypatch):
    n = 200
    p = PhysicsParams(25.0, n)
    basis = PairBasis(n)
    ref = reference_eigensystem(n)
    cfg = OptimizerConfig(step_time_cap_s=0.4)
    q = 0.5
    ground = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(4.5))).ground()
    # every reference level occupied, up to the top of the L chain
    spread = ref.vectors @ np.full(basis.size, basis.size**-0.5)
    for amplitudes, truncated in ((ground, True), (spread, False)):
        st = StateVector(basis, amplitudes.astype(complex))
        sizes = solve_sizes(monkeypatch)
        scan = first_local_min_k(st, q, p, cfg, ref)
        assert (sizes[-1] < basis.size) == truncated
        want, want_amplitudes = dense_scan(st, q, p, cfg, ref)
        assert (scan.q_hz, scan.k, scan.t_s, scan.flag) == want
        np.testing.assert_allclose(scan.amplitudes, want_amplitudes, rtol=0, atol=1e-10)


def test_scan_matches_dense_expm_in_a_magnetized_sector(monkeypatch):
    n, m = 201, 3
    p = PhysicsParams(25.0, n)
    basis = SectorBasis(n, m)
    ref = reference_eigensystem(n, m)
    g = eigensolve_tridiagonal(hamiltonian_sector(p.with_q(4.5), basis)).ground()
    st = StateVector(basis, g.astype(complex))
    cfg = OptimizerConfig(step_time_cap_s=0.5)
    sizes = solve_sizes(monkeypatch)
    scan = first_local_min_k(st, 0.4, p, cfg, ref)
    assert scan.t_s > 0 and sizes[-1] < basis.size
    h = to_dense(hamiltonian_sector(p.with_q(0.4), basis))
    want = expm(-1j * h * scan.t_s) @ st.amplitudes
    np.testing.assert_allclose(scan.amplitudes, want, rtol=0, atol=1e-10)
    assert occupied_levels(StateVector(basis, want), ref, cfg.k_threshold) == scan.k


@pytest.mark.parametrize("support", [1, 9, 24, 40, 50, 51])
def test_hold_blocks_climb_the_8_level_ladder(monkeypatch, support):
    n = 200  # a 101-level chain
    p = PhysicsParams(25.0, n)
    basis = PairBasis(n)
    ref = reference_eigensystem(n)
    a = np.zeros(basis.size, dtype=complex)
    a[:support] = support**-0.5
    sizes = solve_sizes(monkeypatch)
    propagate.hold_levels(a, 0.3, p, basis, ref, 3.0)
    if 2 * support >= basis.size:
        assert sizes == [basis.size]
        return
    want = [min(basis.size, -(-(support + 8) // 8) * 8)]
    while len(want) < len(sizes):
        want.append(min(basis.size, -(-((3 * want[-1] + 1) // 2) // 8) * 8))
    assert sizes == want


def test_window_min_matches_sliding_window_view():
    rng = np.random.default_rng(3)
    for width in range(1, 12):
        sizes = {0, 1, width - 1}
        sizes |= {k * width + d for k in (1, 2, 5) for d in (-1, 0, 1)}
        for size in sorted(sizes):
            x = rng.integers(-5, 6, size)
            got = optimizer._window_min(x, width)
            if size < width:
                assert got.size == 0
                continue
            np.testing.assert_array_equal(got, sliding_window_view(x, width).min(axis=1))


@pytest.mark.parametrize("width", [1, 2, 3, 7, 255, 256])
def test_phase_table_by_doubling_matches_exp(width):
    # phases of up to 5 rad, where np.exp's own argument rounding is small
    rng = np.random.default_rng(width)
    values = rng.uniform(-20.0, 20.0, 40)
    dt = 1e-3
    want = np.exp(-1j * np.outer(values, np.arange(width) * dt))
    got = optimizer._phase_table(values, dt, width)
    assert got.shape == (values.size, width)
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-15)


@pytest.mark.parametrize("n", [60, 200])
def test_dropped_levels_never_reach_the_k_threshold(n):
    p = PhysicsParams(25.0, n)
    basis = PairBasis(n)
    ref = reference_eigensystem(n)
    ground = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(4.5))).ground()
    cfg = OptimizerConfig(step_time_cap_s=0.5)
    times = np.arange(int(np.floor(cfg.step_time_cap_s / cfg.sample_dt_s)) + 1) * cfg.sample_dt_s
    dropped_any = False
    for st in (polar_state(basis), StateVector(basis, ground.astype(complex))):
        a = ref.vectors.T @ st.amplitudes
        for q in geometric_grid(1e-2, 10.0, 3):
            eig, c0 = propagate.hold_levels(a, float(q), p, basis, ref, cfg.step_time_cap_s)
            kept = optimizer._reachable_rows(eig.vectors, c0, cfg.k_threshold)
            assert kept[:2].tolist() == [0, 1]
            dropped = np.setdiff1d(np.arange(eig.values.size), kept)
            dropped_any |= dropped.size > 0
            amps = eig.vectors[dropped] @ (np.exp(-1j * np.outer(eig.values, times)) * c0[:, None])
            assert np.all(np.abs(amps) ** 2 <= cfg.k_threshold)
    assert dropped_any


def test_optimize_step_grid_of_one():
    n = 12
    p = PhysicsParams(25.0, n)
    cfg = OptimizerConfig(step_time_cap_s=0.4)
    ref = reference_eigensystem(n)
    st = polar_state(PairBasis(n))
    step = optimize_step(st, 1.0, p, cfg, ref, grid=np.array([0.7]))
    assert step.q_star_hz == 0.7
    assert len(step.table) == 1


def test_optimize_step_tie_order(monkeypatch):
    # lowest K, then the larger pop_two_lowest, then the shorter hold, then grid order
    n = 12
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    amps = st.amplitudes

    def step_over(*rows):
        """The step over stub scans, one (k, pop_two_lowest, t_s) at each q = 0, 1, ..."""
        scans = [optimizer.HoldScan(float(q), k, t, pop, "", amps) for q, (k, pop, t) in enumerate(rows)]
        monkeypatch.setattr(optimizer, "first_local_min_k", lambda state, q, *args, **kw: scans[int(q)])
        grid = np.arange(len(rows), dtype=float)
        return optimize_step(st, 1.0, p, OptimizerConfig(), reference_eigensystem(n), grid=grid)

    assert step_over((3, 0.9, 0.1), (2, 0.1, 0.5), (4, 1.0, 0.0)).q_star_hz == 1.0
    assert step_over((2, 0.5, 0.1), (2, 0.7, 0.5), (2, 0.6, 0.0)).q_star_hz == 1.0
    assert step_over((2, 0.5, 0.3), (2, 0.5, 0.2), (2, 0.5, 0.4)).q_star_hz == 1.0
    step = step_over((3, 0.1, 0.0), (2, 0.5, 0.2), (2, 0.5, 0.2))
    assert (step.q_star_hz, step.k_star, step.t_star_s) == (1.0, 2, 0.2)
    assert [s.q_hz for s in step.table] == [0.0, 1.0, 2.0]


def test_optimize_step_projects_its_state_once(monkeypatch):
    n = 40
    p = PhysicsParams(25.0, n)
    cfg = OptimizerConfig(step_time_cap_s=0.4, points_per_decade=4)
    ref = reference_eigensystem(n)
    st = polar_state(PairBasis(n))
    grid = geometric_grid(1e-2, 1.0, 4)
    alone = [first_local_min_k(st, float(q), p, cfg, ref) for q in grid]
    windows = []
    original = propagate._first_block
    monkeypatch.setattr(propagate, "_first_block", lambda a: windows.append(a) or original(a))
    step = optimize_step(st, 1.0, p, cfg, ref, grid=grid)
    assert len(windows) == 1
    # the same scans as each grid point scanned on its own
    for got, want in zip(step.table, alone, strict=True):
        assert (got.q_hz, got.k, got.t_s, got.pop_two_lowest, got.flag) == (
            want.q_hz, want.k, want.t_s, want.pop_two_lowest, want.flag
        )
        assert np.array_equal(got.amplitudes, want.amplitudes)


def test_zero_time_scans_return_the_start_itself():
    # from the ground state at the ramp end most of the grid stays flat
    n = 100
    p = PhysicsParams(25.0, n)
    ref = reference_eigensystem(n)
    g = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(0.9188))).ground()
    st = StateVector(PairBasis(n), g.astype(complex))
    cfg = OptimizerConfig(points_per_decade=10, step_time_cap_s=0.5)
    step = optimize_step(st, 0.9188, p, cfg, ref)
    at_zero = [scan for scan in step.table if scan.t_s == 0.0]
    assert len(at_zero) > 1
    for scan in at_zero:
        assert np.array_equal(scan.amplitudes, st.amplitudes)
    assert len({scan.pop_two_lowest for scan in at_zero}) == 1


def _search_start(n, q_hz):
    p = PhysicsParams(25.0, n)
    g = eigensolve_tridiagonal(hamiltonian_pair(p.with_q(q_hz))).ground()
    st = StateVector(PairBasis(n), g.astype(complex))
    return st, p, OptimizerConfig(q_max_hz=q_hz, points_per_decade=10, max_steps=2, step_time_cap_s=0.5)


def test_search_memo_changes_no_scan(monkeypatch):
    st, p, cfg = _search_start(200, 0.9188)
    ref = reference_eigensystem(200)
    sizes = solve_sizes(monkeypatch)
    res = run_amo(st, p, cfg)
    # each (q, block) of the search is solved once
    assert res.eigensolves == len(sizes) > 0
    # K falls at every step, so no step refines its grid
    assert len(res.steps) == 2 and list(res.k_history) == sorted(res.k_history, reverse=True)
    state = st
    for step in res.steps:
        fresh = optimize_step(state, cfg.q_max_hz, p, cfg, ref)
        assert (step.q_star_hz, step.t_star_s, step.k_star) == (
            fresh.q_star_hz, fresh.t_star_s, fresh.k_star
        )
        for got, want in zip(step.table, fresh.table, strict=True):
            assert (got.q_hz, got.k, got.t_s, got.pop_two_lowest, got.flag) == (
                want.q_hz, want.k, want.t_s, want.pop_two_lowest, want.flag
            )
            assert np.array_equal(got.amplitudes, want.amplitudes)
        state = step.psi_out


def test_second_step_over_the_same_grid_reuses_the_blocks(monkeypatch):
    st, p, cfg = _search_start(200, 0.9188)
    ref = reference_eigensystem(200)
    memo = {}
    sizes = solve_sizes(monkeypatch)
    first = optimize_step(st, cfg.q_max_hz, p, cfg, ref, memo=memo)
    solved_first = len(sizes)
    optimize_step(first.psi_out, cfg.q_max_hz, p, cfg, ref, memo=memo)
    solved_second = len(sizes) - solved_first
    assert first.t_star_s > 0
    assert 0 <= solved_second < solved_first
    assert len(memo) == len(sizes)


def test_run_amo_from_singlet_emits_nothing():
    n = 10
    p = PhysicsParams(25.0, n)
    cfg = OptimizerConfig(q_max_hz=1.0, step_time_cap_s=0.3)
    res = run_amo(singlet_state(n), p, cfg)
    assert res.reached_target and len(res.schedule.segments) == 0
    assert res.k_history == (1,)


@pytest.mark.slow
def test_run_amo_small_system_reaches_target():
    n = 20
    p = PhysicsParams(25.0, n)
    cfg = OptimizerConfig(
        q_max_hz=None, points_per_decade=20, dwell_window=300,
        step_time_cap_s=1.2, max_steps=5,
    )
    res = run_protocol(polar_state(PairBasis(n)), p, cfg)
    ks = res.amo.k_history
    assert all(b <= a for a, b in zip(ks, ks[1:]))
    assert record_for(res.final_state, 0.0, 0.0).F_singlet > 0.8
    grid_lo = cfg.q_min_hz
    for h in res.amo.schedule.segments:
        assert grid_lo <= h.q_hz <= res.schedule.segments[0].q_hz_at(res.schedule.segments[0].duration) + 1e-12


def record_bytes(records) -> bytes:
    return np.array([r.astuple() for r in records], dtype=float).tobytes()


@pytest.mark.parametrize("sample_dt", [0.01, None])
@pytest.mark.parametrize("mirrored", [False, True], ids=["amo", "amoa"])
def test_protocol_records_are_one_run_of_its_schedule(mirrored, sample_dt):
    n = 12
    p = PhysicsParams(25.0, n)
    cfg = OptimizerConfig(points_per_decade=10, max_steps=2, step_time_cap_s=0.5)
    ramp = Schedule((ParabolicRamp(30.0, 0.08, 0.0, 0.05),))
    st = polar_state(PairBasis(n))
    res = run_protocol(st, p, cfg, ramp=ramp, mirrored=mirrored, sample_dt=sample_dt)
    holds = res.amo.schedule.segments
    assert holds and res.schedule.segments[: 1 + len(holds)] == ramp.segments + holds
    assert len(res.schedule.segments) == (3 + 2 * len(holds) if mirrored else 1 + len(holds))
    records, final = run_schedule(st, res.schedule, p, sample_dt=sample_dt)
    assert record_bytes(res.records) == record_bytes(records)
    assert np.array_equal(res.final_state.amplitudes, final.amplitudes)


@pytest.mark.slow
def test_optimizer_determinism_bytes():
    n = 16
    p = PhysicsParams(25.0, n)
    cfg = OptimizerConfig(q_max_hz=2.0, points_per_decade=10, step_time_cap_s=0.8, max_steps=2)
    st = polar_state(PairBasis(n))
    a = run_amo(st, p, cfg)
    b = run_amo(st, p, cfg)
    assert a.k_history == b.k_history
    assert [(h.q_hz, h.duration_s) for h in a.schedule.segments] == [
        (h.q_hz, h.duration_s) for h in b.schedule.segments
    ]
    assert np.array_equal(a.final_state.amplitudes, b.final_state.amplitudes)
    for sa, sb in zip(a.steps, b.steps):
        assert sa.q_star_hz == sb.q_star_hz and sa.t_star_s == sb.t_star_s
        for ra, rb in zip(sa.table, sb.table):
            assert (ra.q_hz, ra.k, ra.t_s, ra.pop_two_lowest, ra.flag) == (
                rb.q_hz,
                rb.k,
                rb.t_s,
                rb.pop_two_lowest,
                rb.flag,
            )


def test_monotonicity_hard_guarantee():
    # the scan's return value can never exceed the starting K
    n = 14
    p = PhysicsParams(25.0, n)
    cfg = OptimizerConfig(step_time_cap_s=0.4)
    ref = reference_eigensystem(n)
    st = polar_state(PairBasis(n))
    pops = ref.populations(st.amplitudes)
    k0 = max(int((pops > cfg.k_threshold).sum()), 1)
    for q in (0.01, 0.1, 1.0):
        scan = first_local_min_k(st, q, p, cfg, ref)
        assert scan.k <= k0


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(q_min_hz=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_steps=0)
    with pytest.raises(ValueError):
        OptimizerConfig(dwell_window=0)
    with pytest.raises(ValueError):
        OptimizerConfig(step_time_cap_s=float("inf"))
