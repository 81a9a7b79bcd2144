import json

import numpy as np
import pytest
from scipy.linalg import expm

from spinmo import propagate
from spinmo.basis import PairBasis, SectorBasis, StateVector, polar_state
from spinmo.observables import reference_eigensystem, singlet_amplitudes
from spinmo.opensystem import LossConfig, gillespie_trajectory
from spinmo.operators import PhysicsParams, hamiltonian_sector
from spinmo.schedule import (
    Hold,
    LinearSweep,
    ParabolicRamp,
    Schedule,
    landau_zener,
    mirror_schedule,
    reference_ramp,
    run_schedule,
)
from spinmo.spectra import eigensolve_tridiagonal

from full_basis import to_dense


def test_reference_ramp_values():
    sched = reference_ramp()
    seg = sched.segments[0]
    assert seg.q_hz_at(0.0) == 277.0
    # the formula gives ~0.919 Hz at the stated end time (an alternative
    # published endpoint of 0.788 Hz corresponds to t_end ~ 0.904 s and is
    # reachable through the t_end_s config)
    assert float(seg.q_hz_at(0.9)) == pytest.approx(0.91875, rel=1e-3)
    full = ParabolicRamp(277.0, 0.955, 0.0, 0.955)
    assert float(full.q_hz_at(0.955)) == 0.0
    t_alt = 0.955 * (1.0 - (0.788 / 277.0) ** 0.5)
    alt = reference_ramp(t_end_s=t_alt)
    assert float(alt.segments[0].q_hz_at(alt.segments[0].duration)) == pytest.approx(0.788, rel=1e-9)


def test_mirror_identities():
    h = Hold(3.0, 0.5)
    assert h.mirrored() == Hold(-3.0, 0.5)
    s = Schedule((ParabolicRamp(277.0, 0.955, 0.0, 0.9), Hold(0.5, 0.2), LinearSweep(1.0, 0.1, 0.3)))
    m = mirror_schedule(s)
    assert isinstance(m.segments[0], LinearSweep) and m.segments[0].q_from_hz == -0.1
    assert mirror_schedule(m) == s
    assert m.duration == pytest.approx(s.duration, abs=1e-12)


def test_mirrored_ramp_runs_backwards():
    ramp = ParabolicRamp(277.0, 0.955, 0.0, 0.9)
    rev = ramp.mirrored()
    assert rev.duration == pytest.approx(ramp.duration)
    assert float(rev.q_hz_at(0.0)) == pytest.approx(-float(ramp.q_hz_at(0.9)))
    assert float(rev.q_hz_at(rev.duration)) == pytest.approx(-277.0)


@pytest.mark.parametrize(
    "seg",
    [ParabolicRamp(277.0, 0.955, 0.0, 0.9), ParabolicRamp(-277.0, 0.955, 0.9, 0.0),
     Hold(0.5, 0.2), LinearSweep(1.0, 0.1, 0.3)],
    ids=["ramp", "reversed-ramp", "hold", "sweep"],
)
def test_between_is_the_stretch_of_the_segment(seg):
    a, b = 0.3 * seg.duration, 0.7 * seg.duration
    piece = seg.between(a, b)
    assert type(piece) is type(seg) and piece.duration == pytest.approx(b - a, rel=1e-12)
    local = np.linspace(0.0, b - a, 7)
    assert np.allclose(piece.q_hz_at(local), seg.q_hz_at(a + local), rtol=1e-12, atol=1e-12)


def test_landau_zener_shape():
    sched = landau_zener(277.0, 8.63)
    seg = sched.segments[0]
    assert float(seg.q_hz_at(0.0)) == 277.0
    assert float(seg.q_hz_at(8.63)) == -277.0
    assert float(seg.q_hz_at(8.63 / 2)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        landau_zener(277.0, 0.0)


def test_schedule_serialization_roundtrip():
    s = Schedule((ParabolicRamp(277.0, 0.955, 0.9, 0.0), Hold(-0.5, 0.25), LinearSweep(0.3, -0.3, 1.0)))
    doc = json.loads(json.dumps(s.to_dict()))
    assert Schedule.from_dict(doc) == s


def test_schedule_q_evaluation_boundaries():
    s = Schedule((Hold(2.0, 0.5), Hold(1.0, 0.5)))
    assert s.q_hz_at(0.0) == 2.0
    assert s.q_hz_at(0.5) == 1.0  # boundary belongs to the entered segment
    assert s.q_hz_at(1.0) == 1.0


def test_empty_schedule_single_record():
    n = 6
    p = PhysicsParams(25.0, n)
    records, final = run_schedule(polar_state(PairBasis(n)), Schedule(()), p)
    assert len(records) == 1 and records[0].t == 0.0
    assert abs(np.vdot(final.amplitudes, polar_state(PairBasis(n)).amplitudes)) ** 2 == 1.0


def test_hold_from_singlet_keeps_fidelity_one():
    n = 8
    p = PhysicsParams(25.0, n)
    st = StateVector(PairBasis(n), singlet_amplitudes(n).astype(complex))
    records, _ = run_schedule(st, Schedule((Hold(0.0, 0.05),)), p, sample_dt=0.01)
    assert all(abs(r.F_singlet - 1) < 1e-10 for r in records)


def test_sample_refinement_is_bitwise_superset():
    n = 14
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    sched = Schedule((ParabolicRamp(40.0, 0.1, 0.0, 0.06), Hold(1.3, 0.034)))
    coarse, _ = run_schedule(st, sched, p, sample_dt=8e-3)
    fine, _ = run_schedule(st, sched, p, sample_dt=4e-3)
    fine_by_t = {r.t: r for r in fine}
    assert len(fine) > len(coarse)
    for r in coarse:
        assert r.t in fine_by_t
        assert fine_by_t[r.t] == r  # bitwise-equal dataclass fields


def test_records_cover_boundaries_and_grid():
    n = 10
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(5.0, 0.02), Hold(2.0, 0.02)))
    records, _ = run_schedule(st, sched, p, sample_dt=0.005)
    ts = [r.t for r in records]
    assert ts[0] == 0.0 and ts == sorted(ts)
    for boundary in (0.02, 0.04):
        assert any(abs(t - boundary) < 1e-12 for t in ts)


def test_q_offset_shifts_control_curve():
    n = 8
    p = PhysicsParams(25.0, n)
    st = polar_state(PairBasis(n))
    sched = Schedule((Hold(1.0, 0.02),))
    recs, _ = run_schedule(st, sched, p, sample_dt=None, q_offset_hz=0.25)
    assert recs[-1].q == pytest.approx(1.25)


def test_segment_validation():
    with pytest.raises(ValueError):
        Hold(1.0, 0.0)
    with pytest.raises(ValueError):
        LinearSweep(1.0, 2.0, -0.1)
    with pytest.raises(ValueError):
        ParabolicRamp(1.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        ParabolicRamp(1.0, 1.0, 0.3, 0.3)


# the ground state at about the q where the reference ramp ends fills the
# whole chain of a small sector; from N = 60 on, its holds solve a block
# below the top of the chain.  Holds from the q = 0 ground state start on
# a block of two levels, which the certificate must grow with the hold (to
# the whole chain or not, depending on q).
@pytest.mark.parametrize(
    "n, m, truncated", [(20, 0, False), (21, 0, False), (60, 0, True), (200, 0, True), (201, 3, True)]
)
def test_holds_match_dense_expm(monkeypatch, n, m, truncated):
    p = PhysicsParams(25.0, n)
    basis = SectorBasis(n, m)
    ref = reference_eigensystem(n, m)
    ground = eigensolve_tridiagonal(hamiltonian_sector(p.with_q(0.9188), basis)).ground()
    # every reference level occupied, up to the top of the L chain
    spread = ref.vectors @ np.full(basis.size, basis.size**-0.5)
    sizes = []  # the size of every eigensolve a hold makes

    def recording(mat):
        sizes.append(mat.size)
        return eigensolve_tridiagonal(mat)

    monkeypatch.setattr(propagate, "eigensolve_tridiagonal", recording)
    starts = ((ground, truncated), (ref.ground(), None), (spread, False))
    for amplitudes, block_below_top in starts:
        st = StateVector(basis, amplitudes.astype(complex))
        for q in (-1.0, 1.8e-4, 0.3):
            h = to_dense(hamiltonian_sector(p.with_q(q), basis))
            for duration in (0.05, 1.0, 3.0):
                sizes.clear()
                sched = Schedule((Hold(q, duration),))
                _, final = run_schedule(st, sched, p, sample_dt=duration / 4)
                assert block_below_top in (None, max(sizes) < basis.size)
                assert all(size % 8 == 0 or size == basis.size for size in sizes)
                want = expm(-1j * h * duration) @ st.amplitudes
                np.testing.assert_allclose(final.amplitudes, want, rtol=0, atol=1e-11)
                # the block comes from the whole hold, never from the samples
                _, unsampled = run_schedule(st, sched, p, sample_dt=None)
                np.testing.assert_array_equal(unsampled.amplitudes, final.amplitudes)


def test_loss_trajectory_hold_pieces_match_dense_expm_in_a_magnetized_sector():
    n, m, q = 41, -2, 0.3
    p = PhysicsParams(25.0, n)
    basis = SectorBasis(n, m)
    ground = eigensolve_tridiagonal(hamiltonian_sector(p.with_q(0.9188), basis)).ground()
    st = StateVector(basis, ground.astype(complex))
    # without loss, the samples cut the hold into pieces of 0.3, 0.3, 0.3 and 0.1 s
    cfg = LossConfig(gamma_per_s=0.0, n_traj=1)
    traj = gillespie_trajectory(st, Schedule((Hold(q, 1.0),)), p, cfg, sample_dt=0.3)
    assert [r.t for r in traj.records] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
    want = expm(-1j * to_dense(hamiltonian_sector(p.with_q(q), basis))) @ st.amplitudes
    np.testing.assert_allclose(traj.final_state.amplitudes, want, rtol=0, atol=1e-11)
