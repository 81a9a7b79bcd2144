"""spinmo: multilevel-oscillation control for antiferromagnetic spin-1 condensates.

Simulates the generation of many-body singlet and twin-Fock states by
combining slow quadratic-Zeeman ramps with stepwise constant-q holds
("multilevel oscillations"), optimizes the hold schedule, and quantifies
robustness against field noise, atom-number fluctuations and atom loss.
"""

__version__ = "0.1.0"

from .basis import (
    PairBasis,
    SectorBasis,
    StateVector,
    polar_state,
    twin_fock_state,
)
from .operators import (
    PhysicsParams,
    TriMatrix,
    hamiltonian_pair,
    hamiltonian_sector,
    l2_sector,
)
from .spectra import (
    EigenSystem,
    adiabatic_beta,
    critical_q_estimate,
    eigensolve_tridiagonal,
    find_critical_q,
    gap,
)
from .propagate import evolve_ramp
from .observables import (
    ObservableRecord,
    occupied_levels,
    record_for,
    reference_eigensystem,
    singlet_amplitudes,
)
from .schedule import (
    Hold,
    LinearSweep,
    ParabolicRamp,
    Schedule,
    landau_zener,
    mirror_schedule,
    reference_ramp,
    run_schedule,
)

__all__ = [name for name in dir() if not name.startswith("_")]
