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
it on the block of :func:`~spinmo.propagate.hold_levels`, as every hold is:
the leading levels on a ladder of multiples of 8, from 8 beyond the
state's support up to the first rung that certifies the hold.  A block's
eigensystem depends only on q and its size, so :func:`run_amo` solves
each once per search, in one dict that it drops on return; the ladder
lets a later step land on the blocks an earlier one solved.

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
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import StateVector
from .observables import K_THRESHOLD_DEFAULT, ObservableRecord, level_count, occupied_levels, reference_eigensystem
from .operators import PhysicsParams
from .propagate import hold_levels, hold_start
from .schedule import SAMPLE_DT_DEFAULT_S, Hold, Schedule, mirror_schedule, reference_ramp, run_schedule
from .spectra import EigenSystem, real_map

log = logging.getLogger(__name__)

_SCAN_CHUNK = 256


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
    k_threshold: float = K_THRESHOLD_DEFAULT
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
    eigensolves: int            # hold blocks solved, each (q, block size) once


def geometric_grid(q_min_hz: float, q_max_hz: float, points_per_decade: int) -> np.ndarray:
    """Ascending geometric grid covering [q_min, q_max] inclusive."""
    if q_max_hz < q_min_hz:
        raise ValueError("q_max must be >= q_min")
    if q_max_hz == q_min_hz:
        return np.array([q_min_hz])
    span = math.log10(q_max_hz / q_min_hz)
    n = max(2, int(round(span * points_per_decade)) + 1)
    return np.geomspace(q_min_hz, q_max_hz, n)


def _phase_table(values: np.ndarray, dt: float, width: int) -> np.ndarray:
    """``exp(-i values[l] j dt)`` for ``j < width``, one row per value.

    Built by doubling: columns ``[s, 2s)`` are columns ``[0, s)`` times
    ``exp(-i values s dt)``, so a row costs about ``log2(width) + 1``
    complex exponentials instead of ``width``.  Column j is the product of
    the factors of the set bits of j: popcount(j) rounded exponentials and
    popcount(j) - 1 rounded products, at most 8 of each for ``width`` =
    256.  Beyond those roundings, each of order 1e-16, the only error is
    the rounding of the factors' phase arguments, which a direct
    ``exp(-i values j dt)`` has as well.  The doubling runs on whole
    contiguous rows of a sample-major buffer, which is then transposed.
    """
    table = np.empty((width, values.size), dtype=complex)
    table[0] = 1.0
    s = 1
    while s < width:
        n = min(s, width - s)
        np.multiply(table[:n], np.exp(-1j * values * (s * dt)), out=table[s : s + n])
        s *= 2
    return np.ascontiguousarray(table.T)


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
    start: tuple | None = None,
    memo: dict | None = None,
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
    sector.  Only the leading reference levels are kept (:func:`hold_levels`);
    that truncation moves every reference amplitude, and the returned
    amplitudes, by at most 1e-12 up to ``step_time_cap_s``.  Samples are
    evaluated in chunks of ``_SCAN_CHUNK`` and each chunk is searched for
    a local minimum as a whole; the first one found is the same as in a
    sample-by-sample search.

    A chunk's populations are one real product of the reachable rows of
    the block's eigenvectors with the float view of its phased
    coefficients.  Only levels whose population can pass ``k_threshold``
    at some time enter it (:func:`_reachable_rows`), plus levels 0 and 1
    for ``pop_two_lowest``; no other level can ever count toward K, so K
    is that of the whole block.  The phases relative to a chunk's first
    sample come from :func:`_phase_table` by doubling; beyond the rounding
    of its phase argument, each carries at most 8 rounded exponentials and
    7 rounded products.

    A scan that returns sample 0 returns the start itself: ``state``'s
    amplitudes and the populations of its reference amplitudes, with no
    round trip through the block, so every t = 0 scan of a state carries
    the same ``pop_two_lowest`` whatever its block.

    ``start`` is :func:`hold_start` of ``state``, for a caller that scans
    the same state at many q; ``memo`` is passed on to :func:`hold_levels`.
    """
    a, window = start if start is not None else hold_start(state, reference)
    pops0 = a.real**2 + a.imag**2

    def at_start(k: int, flag: str) -> HoldScan:
        return HoldScan(
            q_hz=float(q_hz),
            k=k,
            t_s=0.0,
            pop_two_lowest=float(pops0[:2].sum()),
            flag=flag,
            amplitudes=state.amplitudes.astype(complex),
        )

    if level_count(pops0, cfg.k_threshold) == 1:
        return at_start(1, "flat")

    eig, c0 = hold_levels(a, q_hz, params, state.basis, reference, cfg.step_time_cap_s, window, memo)
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

    if found == 0:
        return at_start(int(ks[0]), flag)
    t_star = found * dt
    (b,) = eig.evolve_projected(c0, [t_star])
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
    memo: dict | None = None,
) -> StepResult:
    """Sweep the geometric q grid and keep the hold minimizing K.

    Ties go to the larger population in the two lowest reference levels,
    then to the shorter hold, then to the lower q (scan order).  ``memo``
    is passed on to every scan (:func:`hold_levels`).
    """
    if grid is None:
        grid = geometric_grid(cfg.q_min_hz, q_upper_hz, cfg.points_per_decade)
    if grid.size == 0:
        raise ValueError("empty q grid")
    start = hold_start(state, reference)
    table = [first_local_min_k(state, float(q), params, cfg, reference, start, memo=memo) for q in grid]
    best = min(table, key=lambda s: (s.k, -s.pop_two_lowest, s.t_s))
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


def run_amo(state: StateVector, params: PhysicsParams, cfg: OptimizerConfig) -> AmoResult:
    """Shrink K to 1 by successive optimized holds.

    A step that fails to reduce K triggers one grid refinement
    (``refine_factor`` x the point density around the best q); if that
    also fails to improve, the flagged best is accepted and iteration
    continues, so K is non-increasing by construction.  Every scan of the
    search shares one ``memo`` of hold eigensystems (:func:`hold_levels`).
    """
    basis = state.basis
    reference = reference_eigensystem(basis.n_atoms, basis.magnetization)
    if cfg.q_max_hz is None:
        raise ValueError("cfg.q_max_hz must be set (q at the end of the entry ramp)")

    k_now = occupied_levels(state, reference, cfg.k_threshold)
    k_history = [k_now]
    holds: list[Hold] = []
    steps: list[StepResult] = []
    current = state
    q_upper = cfg.q_max_hz
    memo: dict = {}

    while k_now > 1 and len(steps) < cfg.max_steps:
        step = optimize_step(current, q_upper, params, cfg, reference, memo=memo)
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
            retry = optimize_step(current, q_upper, params, cfg, reference, grid=refined, memo=memo)
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
        eigensolves=len(memo),
    )


@dataclass(frozen=True)
class ProtocolResult:
    """A full optimized protocol: its schedule, the records of its one run
    and the state they end on, and the search details."""

    schedule: Schedule
    final_state: StateVector
    records: list[ObservableRecord]
    amo: AmoResult


def run_protocol(
    state0: StateVector,
    params: PhysicsParams,
    cfg: OptimizerConfig,
    ramp: Schedule | None = None,
    mirrored: bool = False,
    sample_dt: float | None = SAMPLE_DT_DEFAULT_S,
    ramp_dt: float | None = None,
    counts: Counter | None = None,
) -> ProtocolResult:
    """Entry ramp, optimized holds and, if ``mirrored``, a zero-q plateau
    and the mirrored protocol, each run once.

    The holds are searched from the end of the ramp and then run on from
    that same state, followed when ``mirrored`` by ``Hold(0, plateau_s)``
    and the ramp and holds replayed backwards with q -> -q (nothing is
    re-optimized there).  Both pieces go through :func:`run_schedule` on
    one clock, so ``records`` are bit for bit those of one run of
    ``schedule`` from ``state0``.  Both runs add their hold blocks and
    ramp steps to ``counts``.
    """
    if mirrored and state0.basis.n_atoms % 2:
        raise ValueError("the mirrored protocol requires an even atom number")
    if ramp is None:
        ramp = reference_ramp()
    records, entry = run_schedule(
        state0, ramp, params, sample_dt=sample_dt, ramp_dt=ramp_dt, k_threshold=cfg.k_threshold,
        counts=counts,
    )
    if cfg.q_max_hz is None:
        last = ramp.segments[-1]
        cfg = replace(cfg, q_max_hz=float(last.q_hz_at(last.duration)))
    amo = run_amo(entry, params, cfg)
    rest = amo.schedule.segments
    if mirrored:
        mirror = mirror_schedule(Schedule(ramp.segments + rest))
        rest += (Hold(0.0, cfg.plateau_s),) + mirror.segments
    # the second run's first record repeats the ramp's last one
    more, final = run_schedule(
        entry, Schedule(rest), params, sample_dt=sample_dt, ramp_dt=ramp_dt,
        k_threshold=cfg.k_threshold, t0=ramp.duration, counts=counts,
    )
    return ProtocolResult(Schedule(ramp.segments + rest), final, records + more[1:], amo)
