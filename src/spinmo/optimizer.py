"""Stepwise multilevel-oscillation search.

Each step holds q constant and watches the occupied-level count K in the
q = 0 eigenbasis until it reaches its first local minimum, then sweeps q
over a geometric grid and keeps the best hold.  Repeating the step
drives K down to 1 (the total-spin-zero state); mirroring the resulting
schedule through q -> -q then converts that state into the twin-Fock
state.  The construction is deterministic: the grid is fixed by the
config, grid points are scanned in ascending order and every tie-break
is total.

The q = 0 eigenbasis is the total-spin basis, and a hold is evolved in
it: there the hold Hamiltonian is tridiagonal, because the m = 0 number
operator couples total spin L only to L and L +- 2.  A hold from a state
in the low-L levels only reaches the levels just above them before the
time cap, so each scan solves a leading block of the chain, chosen so
that every reference amplitude stays within 1e-12 of the whole chain's
up to the time cap.

K is sampled in chunks of samples.  A chunk's phases are a table built by
doubling, each entry a product of at most 8 rounded exponentials
(:func:`_phase_table`).  Its populations are one real matrix product,
over only the levels whose population can pass the K threshold at some
time; the triangle inequality bounds every other level below it for the
whole hold (:func:`_reachable_rows`), so K is unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import SectorBasis, StateVector
from .observables import level_count, occupied_levels, reference_eigensystem, reference_n0
from .operators import PhysicsParams, TriMatrix
from .propagate import evolve_ramp, leading_window
from .schedule import Hold, Schedule, mirror_schedule, reference_ramp, run_schedule
from .spectra import EigenSystem, eigensolve_tridiagonal, real_map

log = logging.getLogger(__name__)

_SCAN_CHUNK = 256
# bound on the truncation error of every reference amplitude in a hold scan
_TRUNCATION_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the stepwise hold search."""

    q_min_hz: float = 1e-4
    q_max_hz: float | None = None  # default: q at the end of the entry ramp
    points_per_decade: int = 40
    dwell_window: int = 50
    sample_dt_s: float = 1e-3
    step_time_cap_s: float = 3.0
    max_steps: int = 6
    k_threshold: float = 1e-3
    seed: int = 0
    refine_factor: int = 4
    plateau_s: float = 0.32

    def __post_init__(self):
        if self.q_min_hz <= 0:
            raise ValueError("q_min_hz must be > 0")
        if not math.isfinite(self.step_time_cap_s) or self.step_time_cap_s <= 0:
            raise ValueError("step_time_cap_s must be finite and positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.dwell_window < 1:
            raise ValueError("dwell_window must be >= 1")


@dataclass(frozen=True)
class HoldScan:
    """Outcome of watching K during one constant-q hold."""

    q_hz: float
    k: int
    t_s: float
    pop_two_lowest: float
    # "": a local minimum below the starting K; "flat": the start is at
    # K = 1 or K never changed; "capped": the time cap ended the search
    flag: str
    amplitudes: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class StepResult:
    """Winning hold of one grid sweep plus the per-q diagnostics table."""

    q_star_hz: float
    t_star_s: float
    k_star: int
    psi_out: StateVector
    table: tuple[HoldScan, ...]


@dataclass(frozen=True)
class AmoResult:
    schedule: Schedule          # the emitted holds only
    final_state: StateVector
    steps: tuple[StepResult, ...]
    k_history: tuple[int, ...]  # K before the first step, then after each
    reached_target: bool


def geometric_grid(q_min_hz: float, q_max_hz: float, points_per_decade: int) -> np.ndarray:
    """Ascending geometric grid covering [q_min, q_max] inclusive."""
    if q_max_hz < q_min_hz:
        raise ValueError("q_max must be >= q_min")
    if q_max_hz == q_min_hz:
        return np.array([q_min_hz])
    span = math.log10(q_max_hz / q_min_hz)
    n = max(2, int(round(span * points_per_decade)) + 1)
    return np.geomspace(q_min_hz, q_max_hz, n)


def _hold_levels(
    a: np.ndarray,
    q_hz: float,
    params: PhysicsParams,
    basis: SectorBasis,
    reference: EigenSystem,
    cap_s: float,
) -> tuple[EigenSystem, np.ndarray]:
    """Eigensystem of a hold on the leading reference levels, and ``a`` in it.

    ``a`` holds the state's reference amplitudes.  In that basis the hold
    Hamiltonian is the tridiagonal ``f c2p/N diag(lambda) - f q A``, with
    lambda the reference eigenvalues and A the m = 0 number operator
    (:func:`reference_n0`).  Only its leading m x m block is solved.  m
    starts at twice the support of ``a`` and doubles until the truncation
    error of every reference amplitude up to ``cap_s`` is at most
    ``_TRUNCATION_TOL``.  That error is at most the weight of ``a`` beyond
    m plus what the coupling out of level m - 1 can carry off in ``cap_s``:

        ||a[m:]|| + cap_s |H[m-1, m]| sum_j |c_j| |W[m-1, j]|,

    with W the block's eigenvectors and c = W^T a[:m].  When no smaller
    block qualifies, m is the whole chain, which is exact.
    """
    n0_ref = reference_n0(basis.n_atoms, basis.magnetization)
    f = params.factor
    diag = f * (params.c2p_hz / basis.n_atoms * reference.values - q_hz * n0_ref.diag)
    off = -f * q_hz * n0_ref.offdiag
    n = a.size
    m, tail = leading_window(a, _TRUNCATION_TOL)
    while True:
        eig = eigensolve_tridiagonal(TriMatrix(diag[:m], off[: m - 1]))
        c = eig.project(a[:m])
        if m == n:
            return eig, c
        leak = cap_s * abs(off[m - 1]) * (np.abs(c) @ np.abs(eig.vectors[m - 1]))
        if tail[m] + leak <= _TRUNCATION_TOL:
            return eig, c
        m = min(n, 2 * m)


def _phase_table(values: np.ndarray, dt: float, width: int) -> np.ndarray:
    """``exp(-i values[l] j dt)`` for ``j < width``, one row per value.

    Built by doubling: columns ``[s, 2s)`` are columns ``[0, s)`` times
    ``exp(-i values s dt)``, so a row costs about ``log2(width) + 1``
    complex exponentials instead of ``width``.  Column j is the product of
    the factors of the set bits of j: popcount(j) rounded exponentials and
    popcount(j) - 1 rounded products, at most 8 of each for ``width`` =
    256.  Beyond those roundings, each of order 1e-16, the only error is
    the rounding of the factors' phase arguments, which a direct
    ``exp(-i values j dt)`` has as well.
    """
    table = np.empty((values.size, width), dtype=complex)
    table[:, 0] = 1.0
    s = 1
    while s < width:
        n = min(s, width - s)
        np.multiply(table[:, :n], np.exp(-1j * values * (s * dt))[:, None], out=table[:, s : s + n])
        s *= 2
    return table


def _reachable_rows(vectors: np.ndarray, c: np.ndarray, threshold: float) -> np.ndarray:
    """Reference levels whose population can pass ``threshold`` in a hold,
    and always levels 0 and 1.

    The amplitude of level r at time t is ``sum_j W[r, j] exp(-i lambda_j
    t) c_j``, at most ``sum_j |W[r, j]| |c_j|`` in modulus at every t (the
    triangle inequality).  A level whose bound squared is at most the
    threshold never counts toward K; the 1e-9 margin keeps a level whose
    bound is within rounding of the threshold.
    """
    bound = np.abs(vectors) @ np.abs(c)
    keep = bound**2 > threshold * (1.0 - 1e-9)
    keep[:2] = True
    return np.flatnonzero(keep)


def _window_min(x: np.ndarray, width: int) -> np.ndarray:
    """Minimum of every ``width``-long window of ``x``, in O(len(x)).

    van Herk / Gil-Werman: cut ``x`` into blocks of ``width``.  A window
    is either one whole block or the tail of one block and the head of the
    next, so its minimum is that of a block suffix minimum and a block
    prefix minimum.  The result is exact.
    """
    n = x.size - width + 1
    if n <= 0:
        return x[:0]
    # padding with the maximum leaves every window's minimum unchanged
    blocks = np.concatenate((x, np.full(-x.size % width, x.max()))).reshape(-1, width)
    prefix = np.minimum.accumulate(blocks, axis=1).ravel()
    suffix = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.minimum(suffix[:n], prefix[width - 1 : width - 1 + n])


def _first_refocus(ks: np.ndarray, lo: int, w: int) -> int:
    """First sample j >= lo at which K has refocused, or -1.

    K has refocused at j when it lies below ``ks[0]`` and is no larger
    than any K within ``w`` samples either side (clipped at sample 0).
    Only samples whose following window lies inside ``ks`` are tested.
    """
    seg = ks[max(lo - w, 0) :]
    if lo < w:
        # padding with ks[0] leaves every clipped window's minimum unchanged
        seg = np.concatenate((np.full(w - lo, ks[0]), seg))
    window_min = _window_min(seg, 2 * w + 1)
    cand = ks[lo : lo + window_min.size]
    hits = np.flatnonzero((cand < ks[0]) & (cand == window_min))
    return lo + int(hits[0]) if hits.size else -1


def first_local_min_k(
    state: StateVector,
    q_hz: float,
    params: PhysicsParams,
    cfg: OptimizerConfig,
    reference: EigenSystem,
) -> HoldScan:
    """Evolve at constant q, sampling K, until its first local minimum.

    A sample is a local minimum when it is <= every K in the preceding
    ``dwell_window`` samples and <= every K in the following window, and
    it must lie below the starting K (a hold only counts once the level
    count has actually refocused downward; otherwise t = 0 would qualify
    vacuously before any dynamics happen).  A start at K = 1 returns its
    t = 0 sample flagged "flat" without scanning, since no sample can lie
    below it.  A trace that never changes also returns its first sample
    flagged "flat".  "capped" means the time cap ended a search that
    could still have lowered K: the earliest global minimum of the capped
    scan is returned.

    The hold is evolved in the total-spin frame where K is defined:
    ``reference`` must be :func:`reference_eigensystem` of the state's
    sector.  Only the leading reference levels are kept
    (:func:`_hold_levels`); that truncation moves every reference
    amplitude, and the returned amplitudes, by at most 1e-12 up to
    ``step_time_cap_s``.  Samples are evaluated in chunks of
    ``_SCAN_CHUNK`` and each chunk is searched for a local minimum as a
    whole; the first one found is the same as in a sample-by-sample
    search.

    A chunk's populations are one real product of the reachable rows of
    the block's eigenvectors with the float view of its phased
    coefficients.  Only levels whose population can pass ``k_threshold``
    at some time enter it (:func:`_reachable_rows`), plus levels 0 and 1
    for ``pop_two_lowest``; no other level can ever count toward K, so K
    is that of the whole block.  The phases relative to a chunk's first
    sample come from :func:`_phase_table` by doubling; beyond the rounding
    of its phase argument, each carries at most 8 rounded exponentials and
    7 rounded products.
    """
    a = reference.project(state.amplitudes)
    pops0 = a.real**2 + a.imag**2
    if level_count(pops0, cfg.k_threshold) == 1:
        return HoldScan(
            q_hz=float(q_hz),
            k=1,
            t_s=0.0,
            pop_two_lowest=float(pops0[:2].sum()),
            flag="flat",
            amplitudes=state.amplitudes.astype(complex),
        )

    eig, c0 = _hold_levels(a, q_hz, params, state.basis, reference, cfg.step_time_cap_s)
    rows = eig.vectors[_reachable_rows(eig.vectors, c0, cfg.k_threshold)]

    dt = cfg.sample_dt_s
    w = cfg.dwell_window
    j_max = int(math.floor(cfg.step_time_cap_s / dt))
    ks = np.empty(j_max + 1, dtype=np.int64)
    pop2s = np.empty(j_max + 1, dtype=np.float64)
    have = 0  # samples evaluated so far
    # phases of a chunk's samples relative to its first sample
    chunk_phases = _phase_table(eig.values, dt, min(_SCAN_CHUNK, j_max + 1))

    def extend(upto: int):
        """Evaluate whole chunks of samples until sample ``upto - 1`` exists."""
        nonlocal have
        upto = min(upto, j_max + 1)
        while have < upto:
            hi = min(have + _SCAN_CHUNK, j_max + 1)
            first = np.exp(-1j * eig.values * (have * dt)) * c0
            cols = chunk_phases[:, : hi - have] * first[:, None]
            amps = real_map(rows, cols)
            pops = amps.real**2 + amps.imag**2
            ks[have:hi] = level_count(pops, cfg.k_threshold)
            pop2s[have:hi] = pops[0] + pops[1]
            have = hi

    found = -1
    flag = ""
    lo = 1  # first sample not yet tested
    while lo + w <= j_max:
        extend(lo + w + 1)
        found = _first_refocus(ks[:have], lo, w)
        if found >= 0:
            break
        lo = have - w  # every earlier sample had its following window

    if found < 0:
        extend(j_max + 1)
        if np.all(ks[: j_max + 1] == ks[0]):
            found = 0
            flag = "flat"
        else:
            # no certified local minimum before the cap: take the global
            # minimum, represented by the sample that best concentrates
            # population in the two lowest levels (earliest on ties)
            k_min = ks[: j_max + 1].min()
            at_min = np.flatnonzero(ks[: j_max + 1] == k_min)
            found = int(at_min[np.argmax(pop2s[at_min])])
            flag = "capped"

    t_star = found * dt
    b = real_map(eig.vectors, np.exp(-1j * eig.values * t_star) * c0)
    return HoldScan(
        q_hz=float(q_hz),
        k=int(ks[found]),
        t_s=float(t_star),
        pop_two_lowest=float((b.real[:2] ** 2 + b.imag[:2] ** 2).sum()),
        flag=flag,
        amplitudes=real_map(reference.vectors[:, : b.size], b),
    )


def optimize_step(
    state: StateVector,
    q_upper_hz: float,
    params: PhysicsParams,
    cfg: OptimizerConfig,
    reference: EigenSystem,
    grid: np.ndarray | None = None,
) -> StepResult:
    """Sweep the geometric q grid and keep the hold minimizing K.

    Ties go to the larger population in the two lowest reference levels,
    then to the shorter hold, then to the lower q (scan order).
    """
    if grid is None:
        grid = geometric_grid(cfg.q_min_hz, q_upper_hz, cfg.points_per_decade)
    if grid.size == 0:
        raise ValueError("empty q grid")
    best: HoldScan | None = None
    table = []
    for q in grid:
        scan = first_local_min_k(state, float(q), params, cfg, reference)
        table.append(scan)
        if (
            best is None
            or scan.k < best.k
            or (scan.k == best.k and scan.pop_two_lowest > best.pop_two_lowest)
            or (
                scan.k == best.k
                and scan.pop_two_lowest == best.pop_two_lowest
                and scan.t_s < best.t_s
            )
        ):
            best = scan
    return StepResult(
        q_star_hz=best.q_hz,
        t_star_s=best.t_s,
        k_star=best.k,
        psi_out=StateVector(state.basis, best.amplitudes.copy()),
        table=tuple(table),
    )


# the benchmark's tracer imports the level count under this name; kept until
# the benchmark's next change drops it
_count_k = occupied_levels


def run_amo(
    state: StateVector,
    params: PhysicsParams,
    cfg: OptimizerConfig,
    reference: EigenSystem | None = None,
) -> AmoResult:
    """Shrink K to 1 by successive optimized holds.

    A step that fails to reduce K triggers one grid refinement
    (``refine_factor`` x the point density around the best q); if that
    also fails to improve, the flagged best is accepted and iteration
    continues, so K is non-increasing by construction.
    """
    basis = state.basis
    if not isinstance(basis, SectorBasis):
        raise TypeError("the hold search runs on chain sectors")
    if reference is None:
        reference = reference_eigensystem(basis.n_atoms, basis.magnetization)
    if cfg.q_max_hz is None:
        raise ValueError("cfg.q_max_hz must be set (q at the end of the entry ramp)")

    k_now = occupied_levels(state, reference, cfg.k_threshold)
    k_history = [k_now]
    holds: list[Hold] = []
    steps: list[StepResult] = []
    current = state
    q_upper = cfg.q_max_hz

    while k_now > 1 and len(steps) < cfg.max_steps:
        step = optimize_step(current, q_upper, params, cfg, reference)
        if step.k_star >= k_now and step.k_star > 1:
            spacing = 10.0 ** (1.0 / cfg.points_per_decade)
            refined = geometric_grid(
                max(cfg.q_min_hz, step.q_star_hz / spacing),
                min(q_upper, step.q_star_hz * spacing),
                cfg.refine_factor * cfg.points_per_decade,
            )
            log.info(
                "step %d did not improve K (%d); refining grid around q=%.3g Hz",
                len(steps) + 1,
                step.k_star,
                step.q_star_hz,
            )
            retry = optimize_step(current, q_upper, params, cfg, reference, grid=refined)
            if retry.k_star < step.k_star:
                step = retry
        if step.k_star > k_now:
            raise AssertionError(
                f"K increased from {k_now} to {step.k_star}; the hold scan contract is broken"
            )
        steps.append(step)
        if steps and len(steps) >= 2 and step.q_star_hz > steps[-2].q_star_hz:
            log.warning(
                "selected q %.3g Hz is larger than the previous step's %.3g Hz",
                step.q_star_hz,
                steps[-2].q_star_hz,
            )
        if step.t_star_s > 0:
            holds.append(Hold(step.q_star_hz, step.t_star_s))
            current = step.psi_out
        k_now = step.k_star
        k_history.append(k_now)
        if step.t_star_s == 0 and step.k_star == k_history[-2]:
            log.info("step made no progress even after refinement; stopping")
            break

    return AmoResult(
        schedule=Schedule(tuple(holds)),
        final_state=current,
        steps=tuple(steps),
        k_history=tuple(k_history),
        reached_target=(k_now == 1),
    )


@dataclass(frozen=True)
class ProtocolResult:
    """A full optimized protocol: schedule, final state, search details."""

    schedule: Schedule
    final_state: StateVector
    amo: AmoResult


def run_amo_protocol(
    state0: StateVector,
    params: PhysicsParams,
    cfg: OptimizerConfig,
    ramp: Schedule | None = None,
    ramp_dt: float | None = None,
) -> ProtocolResult:
    """Entry ramp plus optimized holds, from an arbitrary starting state."""
    if ramp is None:
        ramp = reference_ramp()
    current = state0
    for seg in ramp.segments:
        current, _ = evolve_ramp(current, seg, params, dt=ramp_dt)
    q_entry = float(ramp.segments[-1].q_hz_at(ramp.segments[-1].duration))
    if cfg.q_max_hz is None:
        cfg = replace(cfg, q_max_hz=q_entry)
    amo = run_amo(current, params, cfg)
    full = Schedule(tuple(ramp.segments) + amo.schedule.segments)
    return ProtocolResult(schedule=full, final_state=amo.final_state, amo=amo)


def run_amoa_protocol(
    state0: StateVector,
    params: PhysicsParams,
    cfg: OptimizerConfig,
    ramp: Schedule | None = None,
    ramp_dt: float | None = None,
    fw: ProtocolResult | None = None,
) -> ProtocolResult:
    """Optimized protocol, zero-q plateau, then the mirrored protocol.

    The mirrored half replays the found schedule backwards with q -> -q;
    nothing is re-optimized there.  A precomputed forward result can be
    passed to skip the search.
    """
    if state0.basis.n_atoms % 2:
        raise ValueError("the mirrored protocol requires an even atom number")
    if fw is None:
        fw = run_amo_protocol(state0, params, cfg, ramp=ramp, ramp_dt=ramp_dt)
    segments = (
        fw.schedule.segments
        + (Hold(0.0, cfg.plateau_s),)
        + mirror_schedule(fw.schedule).segments
    )
    full = Schedule(segments)
    back = Schedule((Hold(0.0, cfg.plateau_s),) + mirror_schedule(fw.schedule).segments)
    _, final = run_schedule(
        fw.final_state, back, params, sample_dt=None, ramp_dt=ramp_dt
    )
    return ProtocolResult(schedule=full, final_state=final, amo=fw.amo)
