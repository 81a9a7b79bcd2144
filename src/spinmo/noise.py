"""Closed-system robustness: field dephasing, atom-number shot noise,
transverse relaxation in the rotating-wave limit.

Noise is quasi-static: every trajectory draws one (delta_Bz, delta_Bx,
atom number) triple from counter-based streams (seed, index), replays
the nominal control schedule on the pair sector of its atom number, and
the ensemble is aggregated split by atom-number parity.  :func:`aggregate`
is the one ensemble statistic; the loss study and its postselection
(:mod:`spinmo.opensystem`) use it too.  The quadratic
Zeeman control is realized through a microwave shift computed for the
nominal bias field, so a bias fluctuation delta_Bz leaves the residual
((Bz+delta)^2 - Bz^2) * 277 Hz/G^2 on every q value.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .basis import PairBasis, polar_state
from .errors import ConfigError
from .observables import ObservableRecord
from .operators import GYROMAGNETIC_RATIO_HZ_PER_G, PhysicsParams
from .schedule import Schedule, run_schedule

Q_COEFF_HZ_PER_G2 = 277.0  # 23Na, F = 1


@dataclass(frozen=True)
class NoiseConfig:
    """Quasi-static noise ranges and ensemble bookkeeping."""

    delta_bz_gauss: float = 1e-4       # uniform on [-range, +range]; 1e-4 G = 0.1 mG
    delta_bx_gauss: float = 1e-4
    bz_bias_gauss: float = 0.0         # 0 for dephasing-only runs, 0.85 for relaxation
    atom_number_spread: bool = True    # uniform integers on [N - sqrt(N), N + sqrt(N)]; 1 at N = 1
    n_traj: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.delta_bz_gauss < 0 or self.delta_bx_gauss < 0:
            raise ConfigError("noise ranges must be non-negative")
        if self.n_traj < 1:
            raise ConfigError("n_traj must be >= 1")


@dataclass(frozen=True)
class TrajectoryDraw:
    delta_bz_gauss: float
    delta_bx_gauss: float
    n_atoms: int


def sample_trajectory_config(
    cfg: NoiseConfig, n_atoms_nominal: int, index: int
) -> TrajectoryDraw:
    """Reproducible per-trajectory draw keyed by (seed, index).  A spread
    atom number is a uniform integer on [N - sqrt(N), N + sqrt(N)], raised
    to at least 1 and kept symmetric about N: at N = 1 every draw is 1."""
    rng = np.random.default_rng([cfg.seed, index])
    dbz = rng.uniform(-cfg.delta_bz_gauss, cfg.delta_bz_gauss) if cfg.delta_bz_gauss else 0.0
    dbx = rng.uniform(-cfg.delta_bx_gauss, cfg.delta_bx_gauss) if cfg.delta_bx_gauss else 0.0
    if cfg.atom_number_spread:
        lo = max(1, math.ceil(n_atoms_nominal - math.sqrt(n_atoms_nominal)))  # no draw is empty
        n = int(rng.integers(lo, 2 * n_atoms_nominal - lo + 1))  # symmetric about N
    else:
        n = n_atoms_nominal
    return TrajectoryDraw(float(dbz), float(dbx), n)


def q_offset(delta_bz_gauss: float, cfg: NoiseConfig) -> float:
    """The shift of every realized q from its nominal value, in Hz, when
    the microwave shift assumes the nominal bias field ``cfg.bz_bias_gauss``
    and the field is off by ``delta_bz_gauss``."""
    bz = cfg.bz_bias_gauss
    return ((bz + delta_bz_gauss) ** 2 - bz**2) * Q_COEFF_HZ_PER_G2


@dataclass
class Aggregate:
    """Mean and standard error of every curve over a set of trajectories,
    and the squeezing of the set."""

    n_traj: int
    mean: dict[str, np.ndarray]
    stderr: dict[str, np.ndarray]
    xi2: np.ndarray            # moments averaged over the set, then combined
    xi2_stderr: np.ndarray


@dataclass
class EnsembleResult:
    times: np.ndarray
    classes: dict[str, Aggregate]  # "all", "even", "odd"
    draws: list[TrajectoryDraw]


_CURVE_FIELDS = ("K", "F_singlet", "F_twinfock", "pc", "n_current")


def trajectory_curves(records: list[ObservableRecord], magnetizations) -> dict[str, np.ndarray]:
    """The curves of one trajectory that :func:`aggregate` reads: the
    record fields, the transverse variance sum ``l2`` = <L^2> - M^2 (the
    record's xi2 holds it over N) and the M of each record's sector."""
    curves = {f: np.array([getattr(r, f) for r in records], dtype=float) for f in _CURVE_FIELDS}
    curves["l2"] = np.array([r.xi2 * r.n_current for r in records])
    curves["M"] = np.asarray(magnetizations, dtype=float)
    return curves


def aggregate(curves: list[dict[str, np.ndarray]]) -> Aggregate:
    """The one ensemble statistic: mean and standard error (0 for a single
    trajectory) of every curve over the trajectories, and

        xi^2 = (<<L^2> - M^2> + Var M) / <N>,

    the spin moments averaged over the ensemble before they combine:
    transverse variances from each trajectory's ``l2``, longitudinal from
    the spread of M across trajectories.  xi^2 is undefined (nan) where
    no trajectory keeps an atom."""
    n = len(curves)
    mean: dict[str, np.ndarray] = {}
    stderr: dict[str, np.ndarray] = {}
    for f in (*_CURVE_FIELDS, "l2"):
        stack = np.stack([c[f] for c in curves])
        mean[f] = stack.mean(axis=0)
        stderr[f] = stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(stack.shape[1])
    n_mean = mean["n_current"]

    def per_atom(x):
        return np.divide(x, n_mean, out=np.full_like(x, np.nan), where=n_mean > 0)

    var_m = np.stack([c["M"] for c in curves]).var(axis=0)
    return Aggregate(
        n_traj=n,
        mean=mean,
        stderr=stderr,
        xi2=per_atom(mean.pop("l2") + var_m),
        xi2_stderr=per_atom(stderr.pop("l2")),
    )


def _parity_classes(
    curves: list[dict[str, np.ndarray]], draws: list[TrajectoryDraw]
) -> dict[str, Aggregate]:
    """Aggregates over all trajectories and over each atom-number parity drawn."""
    classes = {"all": aggregate(curves)}
    for name, parity in (("even", 0), ("odd", 1)):
        sel = [c for c, d in zip(curves, draws) if d.n_atoms % 2 == parity]
        if sel:
            classes[name] = aggregate(sel)
    return classes


def run_dephasing_ensemble(
    schedule: Schedule,
    params: PhysicsParams,
    cfg: NoiseConfig,
    sample_dt: float | None = 1e-2,
    ramp_dt: float | None = None,
    counts: Counter | None = None,
) -> EnsembleResult:
    """Replay one schedule over an ensemble of (delta_Bz, N) draws.

    The schedule is the one optimized for the nominal atom number; it is
    not re-optimized per trajectory (the experiment cannot adapt to an
    unknown shot-to-shot N).  All trajectories run as one batch of
    :func:`~spinmo.schedule.run_schedule` with the one ``params``, so each
    ramp step advances the whole ensemble; the draws differ in atom number
    only through their bases.  Aggregates (:func:`aggregate`) are split
    by atom-number parity.

    Every trajectory starts from the polar state of its drawn atom number;
    a configured ``initial_state`` is not used (a known defect: mending it
    changes the outputs of existing runs).

    The trajectories, the hold blocks solved and the ramp steps taken are
    added to ``counts``.  A relaxation run is this ensemble once
    :func:`check_rotating_wave` has passed.
    """
    draws = [sample_trajectory_config(cfg, params.n_atoms, i) for i in range(cfg.n_traj)]
    records, _ = run_schedule(
        [polar_state(PairBasis(d.n_atoms)) for d in draws],
        schedule,
        params,
        sample_dt=sample_dt,
        q_offset_hz=[q_offset(d.delta_bz_gauss, cfg) for d in draws],
        ramp_dt=ramp_dt,
        counts=counts,
    )
    if counts is not None:
        counts["trajectories"] += cfg.n_traj
    curves = [trajectory_curves(r, np.zeros(len(r))) for r in records]  # pair sectors: M = 0
    times = np.array([r.t for r in records[0]])
    return EnsembleResult(times=times, classes=_parity_classes(curves, draws), draws=draws)


def check_rotating_wave(params: PhysicsParams, cfg: NoiseConfig) -> None:
    """Raise a :class:`ConfigError` unless every draw of ``cfg`` has
    |h| <= 1e-2 |p|: a draw at p = 0 passes only at h = 0.

    In the frame rotating at the linear Zeeman rate p = -gamma (B_z +
    delta_Bz), the transverse coupling h = -gamma delta_Bx then averages to
    the secular correction ``(h^2/2p) Lz``, which vanishes on the
    zero-magnetization sector.  A relaxation run is therefore
    :func:`run_dephasing_ensemble` over the same draws (atom numbers
    included).  A dense lab-frame evolution on the full basis agrees with
    it to O((h/p)^2) (``tests/test_noise.py``).
    """
    for i in range(cfg.n_traj):
        draw = sample_trajectory_config(cfg, params.n_atoms, i)
        p_hz = -GYROMAGNETIC_RATIO_HZ_PER_G * (cfg.bz_bias_gauss + draw.delta_bz_gauss)
        h_hz = -GYROMAGNETIC_RATIO_HZ_PER_G * draw.delta_bx_gauss
        if abs(h_hz) > 1e-2 * abs(p_hz):
            ratio = abs(h_hz / p_hz) if p_hz else math.inf
            raise ConfigError(
                f"rotating-wave limit invalid for trajectory {i}: h/p = {ratio:.2e} > 1e-2"
            )
