"""The paper's acceptance criteria at paper scale, one test each.

The N = 1000 criteria are marked ``slow`` and share one ``amo`` run of
:func:`~spinmo.optimizer.run_protocol` with default settings, sampled
every 10 ms (about 2 s).  A criterion the code does not meet yet is a
strict xfail whose reason states the value it measured when the test was
written; it turns into a failure (XPASS strict) once the program meets
it, so the marker has to go with the fix.  ``pytest -rxX`` prints one line
per such criterion.

Three criteria live elsewhere and are not run again here: the operator
oracles (``test_operators.py``), loss against the dense master equation
(``test_opensystem.py``) and determinism (the rerun tests of
``test_cli.py``).
"""

import numpy as np
import pytest

from spinmo.basis import PairBasis, polar_state
from spinmo.noise import NoiseConfig, run_dephasing_ensemble
from spinmo.operators import PhysicsParams
from spinmo.optimizer import OptimizerConfig, run_protocol
from spinmo.schedule import Hold, Schedule, mirror_schedule, reference_ramp, run_schedule
from spinmo.spectra import adiabatic_beta, critical_q_estimate, find_critical_q

N = 1000
C2P_HZ = 25.0
SAMPLE_DT_S = 0.01
TARGET_FIDELITY = 0.96  # "fidelities over 96%"


def _mirrored_half(run, params: PhysicsParams, cfg: OptimizerConfig):
    """Records and final state of the ``amoa`` protocol's second half, run
    from the end of the ``amo`` run: the zero-q plateau, then the whole
    schedule mirrored, on the same clock and sample grid."""
    half = Schedule((Hold(0.0, cfg.plateau_s),) + mirror_schedule(run.schedule).segments)
    return run_schedule(
        run.final_state, half, params, sample_dt=SAMPLE_DT_S,
        k_threshold=cfg.k_threshold, t0=run.schedule.duration,
    )


@pytest.fixture(scope="module")
def amo():
    params = PhysicsParams(C2P_HZ, N)
    return run_protocol(polar_state(PairBasis(N)), params, OptimizerConfig(), sample_dt=SAMPLE_DT_S)


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="F_singlet 0.608 at N = 1000, K 20, 5, 4, 4, 4, 4: the K-only hold search stalls at K = 4",
)
def test_singlet_fidelity_over_96_percent(amo):
    assert amo.records[-1].F_singlet >= TARGET_FIDELITY


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="F_twinfock 0.522 at N = 1000: the mirror of the 0.608 singlet protocol",
)
def test_twin_fock_fidelity_over_96_percent(amo):
    records, _ = _mirrored_half(amo, PhysicsParams(C2P_HZ, N), OptimizerConfig())
    assert records[-1].F_twinfock >= TARGET_FIDELITY


def test_mirrored_half_records_what_amoa_records():
    # the twin-Fock criterion runs the mirrored half from the amo run; at
    # small N that is bit for bit the amoa protocol's one run
    n = 40
    params = PhysicsParams(C2P_HZ, n)
    cfg = OptimizerConfig(points_per_decade=10, max_steps=2, step_time_cap_s=0.5)
    state = polar_state(PairBasis(n))
    ramp = reference_ramp(t_end_s=0.05)
    run = run_protocol(state, params, cfg, ramp=ramp, sample_dt=SAMPLE_DT_S)
    both = run_protocol(state, params, cfg, ramp=ramp, mirrored=True, sample_dt=SAMPLE_DT_S)
    records, final = _mirrored_half(run, params, cfg)
    assert run.records + records[1:] == both.records
    assert np.array_equal(final.amplitudes, both.final_state.amplitudes)


@pytest.mark.slow
def test_squeezing_below_the_standard_quantum_limit(amo):
    # measured 0.0038 at N = 1000
    assert amo.records[-1].xi2 < 1.0


@pytest.mark.slow
def test_milligauss_field_noise_keeps_the_singlet(amo):
    # 20 draws of delta_Bz in +-1 mG and N in N +- sqrt(N), replaying the amo
    # schedule; odd N has no singlet, so only the even class is held to it
    # (measured: even F_singlet 0.6056 against 0.6076 without noise)
    cfg = NoiseConfig(delta_bz_gauss=1e-3, n_traj=20, atom_number_spread=True)
    even = run_dephasing_ensemble(amo.schedule, PhysicsParams(C2P_HZ, N), cfg, sample_dt=None).classes["even"]
    assert abs(even.mean["F_singlet"][-1] - amo.records[-1].F_singlet) <= 0.01
    assert even.xi2[-1] < 1.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="find_critical_q is 0.870x critical_q_estimate at N = 100 and 0.882x at N = 1000",
)
@pytest.mark.parametrize("n", [100, pytest.param(N, marks=pytest.mark.slow)])
def test_critical_point_within_5_percent_of_the_closed_form(n):
    ratio = find_critical_q(n, C2P_HZ) / critical_q_estimate(n, C2P_HZ)
    assert abs(ratio - 1.0) <= 0.05


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="peak adiabatic_beta over the reference ramp at N = 1000 is 0.0750, at t = 0.9 s",
)
def test_reference_ramp_adiabaticity_within_20_percent_of_0_054():
    # beta along the ramp every 10 ms, with dq/dt = -2 q0/T0 (1 - t/T0)
    ramp = reference_ramp().segments[0]
    params = PhysicsParams(C2P_HZ, N)
    peak = max(
        adiabatic_beta(
            params.with_q(float(ramp.q_hz_at(t))), -2.0 * ramp.q0_hz / ramp.T0_s * (1.0 - t / ramp.T0_s)
        )
        for t in np.linspace(0.0, ramp.duration, 91)
    )
    assert abs(peak - 0.054) <= 0.2 * 0.054
