"""Closed-system robustness: field dephasing, atom-number shot noise,
transverse relaxation.

Noise is quasi-static: every trajectory draws one (delta_Bz, delta_Bx,
atom number) triple from counter-based streams (seed, index), replays
the nominal control schedule, and the ensemble is aggregated split by
atom-number parity.  The quadratic Zeeman control is realized through a
microwave shift computed for the nominal bias field, so a bias
fluctuation delta_Bz leaves the residual ((Bz+delta)^2 - Bz^2) * 277
Hz/G^2 on every q value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import FullBasis, PairBasis, StateVector, polar_state
from .errors import ConfigError
from .observables import ObservableRecord
from .operators import (
    GYROMAGNETIC_RATIO_HZ_PER_G,
    ExtendedParams,
    PhysicsParams,
)
from .propagate import evolve_rotating
from .schedule import Hold, Schedule, run_schedule

Q_COEFF_HZ_PER_G2_DEFAULT = 277.0


@dataclass(frozen=True)
class NoiseConfig:
    """Quasi-static noise ranges and ensemble bookkeeping."""

    delta_bz_gauss: float = 1e-4       # uniform on [-range, +range]; 1e-4 G = 0.1 mG
    delta_bx_gauss: float = 1e-4
    bz_bias_gauss: float = 0.0         # 0 for dephasing-only runs, 0.85 for relaxation
    q_coeff_hz_per_g2: float = Q_COEFF_HZ_PER_G2_DEFAULT
    atom_number_spread: bool = True    # uniform integers on [N - sqrt(N), N + sqrt(N)]
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
    """Reproducible per-trajectory draw keyed by (seed, index)."""
    rng = np.random.default_rng([cfg.seed, index])
    dbz = rng.uniform(-cfg.delta_bz_gauss, cfg.delta_bz_gauss) if cfg.delta_bz_gauss else 0.0
    dbx = rng.uniform(-cfg.delta_bx_gauss, cfg.delta_bx_gauss) if cfg.delta_bx_gauss else 0.0
    if cfg.atom_number_spread:
        root = math.sqrt(n_atoms_nominal)
        lo = math.ceil(n_atoms_nominal - root)
        hi = math.floor(n_atoms_nominal + root)
        n = int(rng.integers(lo, hi + 1))
    else:
        n = n_atoms_nominal
    return TrajectoryDraw(float(dbz), float(dbx), n)


def effective_q(nominal_q_hz: float, delta_bz_gauss: float, cfg: NoiseConfig) -> float:
    """Realized q when the microwave shift assumes the nominal bias field."""
    bz = cfg.bz_bias_gauss
    shift = ((bz + delta_bz_gauss) ** 2 - bz**2) * cfg.q_coeff_hz_per_g2
    return nominal_q_hz + shift


def q_offset(delta_bz_gauss: float, cfg: NoiseConfig) -> float:
    return effective_q(0.0, delta_bz_gauss, cfg)


@dataclass
class ParityAggregate:
    """Mean and standard error of every observable column, one parity class."""

    n_traj: int
    times: np.ndarray
    mean: dict[str, np.ndarray]
    stderr: dict[str, np.ndarray]
    xi2: np.ndarray            # moments averaged over the class, then combined
    xi2_stderr: np.ndarray
    n_mean: np.ndarray


@dataclass
class EnsembleResult:
    times: np.ndarray
    classes: dict[str, ParityAggregate]  # "all", "even", "odd"
    draws: list[TrajectoryDraw]

    def final(self, cls: str, fieldname: str) -> float:
        return float(self.classes[cls].mean[fieldname][-1])


_CURVE_FIELDS = ("K", "F_singlet", "F_twinfock", "pc", "n_current")


def mean_stderr(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over the trajectories (rows) of ``stack`` and its standard
    error, 0 for a single trajectory."""
    n = stack.shape[0]
    stderr = stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(stack.shape[1])
    return stack.mean(axis=0), stderr


def _aggregate(
    times: np.ndarray,
    curves: list[dict[str, np.ndarray]],
    members: list[int],
) -> ParityAggregate:
    sel = [curves[i] for i in members]
    n = len(sel)
    mean: dict[str, np.ndarray] = {}
    stderr: dict[str, np.ndarray] = {}
    for f in _CURVE_FIELDS:
        mean[f], stderr[f] = mean_stderr(np.stack([c[f] for c in sel]))
    # spin moments are averaged over the ensemble before combining into xi^2
    l2_mean, l2_stderr = mean_stderr(np.stack([c["l2"] for c in sel]))
    n_mean = mean["n_current"]
    xi2 = l2_mean / n_mean
    xi2_stderr = l2_stderr / n_mean
    return ParityAggregate(
        n_traj=n,
        times=times,
        mean=mean,
        stderr=stderr,
        xi2=xi2,
        xi2_stderr=xi2_stderr,
        n_mean=n_mean,
    )


def _parity_classes(
    times: np.ndarray, curves: list[dict[str, np.ndarray]], draws: list[TrajectoryDraw]
) -> dict[str, ParityAggregate]:
    """Aggregates over all trajectories and over each atom-number parity drawn."""
    members = list(range(len(draws)))
    classes = {"all": _aggregate(times, curves, members)}
    for name, parity in (("even", 0), ("odd", 1)):
        sel = [i for i in members if draws[i].n_atoms % 2 == parity]
        if sel:
            classes[name] = _aggregate(times, curves, sel)
    return classes


def _curves_from_records(records: list[ObservableRecord]) -> dict[str, np.ndarray]:
    n_i = records[0].n_current
    out = {
        "K": np.array([r.K for r in records], dtype=float),
        "F_singlet": np.array([r.F_singlet for r in records]),
        "F_twinfock": np.array([r.F_twinfock for r in records]),
        "pc": np.array([r.pc for r in records]),
        "n_current": np.array([r.n_current for r in records]),
        "l2": np.array([r.xi2 * n_i for r in records]),  # M = 0 sector: <L^2> = xi2 * N
    }
    return out


def run_dephasing_ensemble(
    schedule: Schedule,
    params: PhysicsParams,
    cfg: NoiseConfig,
    sample_dt: float | None = 1e-2,
    ramp_dt: float | None = None,
) -> EnsembleResult:
    """Replay one schedule over an ensemble of (delta_Bz, N) draws.

    The schedule is the one optimized for the nominal atom number; it is
    not re-optimized per trajectory (the experiment cannot adapt to an
    unknown shot-to-shot N).  All trajectories run as one batch of
    :func:`~spinmo.schedule.run_schedule`, so each ramp step
    advances the whole ensemble.  Aggregates are split by atom-number
    parity.

    Every trajectory starts from the polar state of its drawn atom number;
    a configured ``initial_state`` is not used (a known defect: mending it
    changes the outputs of existing runs).
    """
    draws = [sample_trajectory_config(cfg, params.n_atoms, i) for i in range(cfg.n_traj)]
    records, _ = run_schedule(
        [polar_state(PairBasis(d.n_atoms)) for d in draws],
        schedule,
        [PhysicsParams(params.c2p_hz, d.n_atoms, params.q_hz, params.convention) for d in draws],
        sample_dt=sample_dt,
        q_offset_hz=[q_offset(d.delta_bz_gauss, cfg) for d in draws],
        ramp_dt=ramp_dt,
    )
    curves = [_curves_from_records(r) for r in records]
    times = np.array([r.t for r in records[0]])
    return EnsembleResult(times=times, classes=_parity_classes(times, curves, draws), draws=draws)


def relaxation_params(
    params: PhysicsParams, cfg: NoiseConfig, draw: TrajectoryDraw
) -> ExtendedParams:
    base = PhysicsParams(params.c2p_hz, draw.n_atoms, params.q_hz, params.convention)
    return ExtendedParams.from_fields(
        base,
        bz_gauss=cfg.bz_bias_gauss,
        delta_bz_gauss=draw.delta_bz_gauss,
        delta_bx_gauss=draw.delta_bx_gauss,
        gamma_hz_per_gauss=GYROMAGNETIC_RATIO_HZ_PER_G,
    )


def run_relaxation_ensemble(
    schedule: Schedule,
    params: PhysicsParams,
    cfg: NoiseConfig,
    mode: str = "averaged",
    p_scale: float = 1.0,
    sample_dt: float | None = 1e-2,
    ramp_dt: float | None = None,
) -> EnsembleResult:
    """Transverse-field robustness via the rotating-frame evolution.

    In ``averaged`` mode the secular correction ``(h^2/2p) Lz`` vanishes
    on the zero-magnetization sector, so each trajectory reduces to the
    pair-sector run with its quasi-static q offset (with delta_Bx = 0
    this reproduces the dephasing ensemble bit for bit).  Mode
    ``exact_scaled_p`` integrates the oscillating transverse term on the
    full basis of each trajectory's drawn atom number, with aggregates
    split by its parity; only hold segments are supported there (the
    oscillation stage), and it is meant for spot cross-checks at reduced p.
    """
    if mode == "averaged":
        # the secular term only shifts M != 0 blocks; M = 0 dynamics equal the
        # dephasing path, but each trajectory still validates h/p smallness
        for i in range(cfg.n_traj):
            draw = sample_trajectory_config(cfg, params.n_atoms, i)
            ext = relaxation_params(params, cfg, draw)
            if ext.p_hz != 0 and abs(ext.h_hz / ext.p_hz) > 1e-2:
                raise ConfigError(
                    f"averaged mode invalid for trajectory {i}: h/p = "
                    f"{abs(ext.h_hz / ext.p_hz):.2e} > 1e-2"
                )
        spread_off = replace(cfg, atom_number_spread=False)
        return run_dephasing_ensemble(
            schedule, params, spread_off, sample_dt=sample_dt, ramp_dt=ramp_dt
        )
    if mode != "exact_scaled_p":
        raise ValueError(f"unknown relaxation mode {mode!r}")

    times = None
    curves = []
    draws = []
    for i in range(cfg.n_traj):
        draw = sample_trajectory_config(cfg, params.n_atoms, i)
        draws.append(draw)
        recs = run_rotating_schedule(
            schedule, params, cfg, draw, p_scale=p_scale, sample_boundaries=True
        )
        if times is None:
            times = np.array([r.t for r in recs])
        # full-basis records: xi2 * N is <L^2> for M-symmetric states
        curves.append(_curves_from_records(recs))
    return EnsembleResult(times=times, classes=_parity_classes(times, curves, draws), draws=draws)


def run_rotating_schedule(
    schedule: Schedule,
    params: PhysicsParams,
    cfg: NoiseConfig,
    draw: TrajectoryDraw,
    p_scale: float = 1.0,
    sample_boundaries: bool = True,
) -> list[ObservableRecord]:
    """Drive the full-basis state of the drawn atom number through hold
    segments in exact mode."""
    from .observables import record_for

    for seg in schedule.segments:
        if not isinstance(seg, Hold):
            raise ConfigError("exact rotating-frame runs support hold segments only")
    n = draw.n_atoms
    basis = FullBasis(n)
    psi = np.zeros(basis.size, dtype=np.complex128)
    blk = basis.block(0)
    pair = polar_state(PairBasis(n))
    psi[blk] = pair.amplitudes
    state = StateVector(basis, psi)
    dq = q_offset(draw.delta_bz_gauss, cfg)
    records = [record_for(state, 0.0, schedule.q_hz_at(0.0) + dq)]
    t = 0.0
    for seg in schedule.segments:
        q_actual = float(seg.q_hz_at(0.0)) + dq
        ext = relaxation_params(params.with_q(q_actual), cfg, draw)
        state = evolve_rotating(state, ext, seg.duration, p_scale=p_scale, t0=t)
        t += seg.duration
        if sample_boundaries:
            records.append(record_for(state, t, q_actual))
    return records
