"""Batch front door: subcommands over a single JSON config.

    spinmo evolve          --config cfg.json --out dir
    spinmo optimize        --config cfg.json --out dir
    spinmo noise           --config cfg.json --out dir
    spinmo loss            --config cfg.json --out dir
    spinmo phase-diagram   --config cfg.json --out dir

Exit codes: 0 success, 2 config error, 3 numeric failure.
Outputs are byte-identical for identical (config, seed); see runio for the
manifest layout.  Every command runs in one process: a noise ensemble is
advanced as one batch rather than spread over workers.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .basis import PairBasis, polar_state, twin_fock_state, StateVector
from .config import load as load_config
from .errors import ConfigError, SpinmoError
from .noise import Aggregate, NoiseConfig, check_rotating_wave, run_dephasing_ensemble
from .observables import singlet_amplitudes
from .opensystem import LossConfig, postselect, run_loss_study
from .operators import PhysicsParams, hamiltonian_pair
from .optimizer import OptimizerConfig, geometric_grid, run_protocol
from .runio import RunDir, error_json, write_records_csv, write_table_csv
from .schedule import PRESETS, Schedule, reference_ramp, run_schedule
from .spectra import critical_q_estimate, eigensolve_tridiagonal, find_critical_q, gap


def _physics(cfg: dict) -> PhysicsParams:
    return PhysicsParams(**cfg["physics"])


# section keys that choose what runs rather than set a dataclass field
_NOT_FIELDS = ("mode", "ramp", "dephasing")


def _fields(section: dict) -> dict:
    """The keys of a config section that are fields of its dataclass."""
    return {k: v for k, v in section.items() if k not in _NOT_FIELDS}


def _initial_state(cfg: dict, params: PhysicsParams) -> StateVector:
    basis = PairBasis(params.n_atoms)
    kind = cfg["initial_state"]["kind"]
    if kind == "polar":
        return polar_state(basis)
    if kind == "twin_fock":
        return twin_fock_state(basis)
    if kind == "singlet":
        return StateVector(basis, singlet_amplitudes(params.n_atoms).astype(np.complex128))
    # "ground", the last kind config.RULES admits
    q = cfg["initial_state"].get("q_hz", params.q_hz)
    eig = eigensolve_tridiagonal(hamiltonian_pair(params.with_q(q)))
    return StateVector(basis, eig.ground().astype(np.complex128))


def _schedule(cfg: dict) -> Schedule:
    sc = cfg.get("schedule")
    if sc is None:
        raise ConfigError(
            "config invalid at $.schedule: this command requires a 'schedule' section"
        )
    if "segments" in sc:
        return Schedule.from_dict(sc)
    if "preset" in sc:
        return PRESETS[sc["preset"]](**{k: v for k, v in sc.items() if k != "preset"})
    raise ConfigError(
        "config invalid at $.schedule: a schedule needs either 'segments' or a 'preset'"
    )


def _noise_config(cfg: dict) -> NoiseConfig:
    return NoiseConfig(**_fields(cfg["noise"]), seed=cfg["seed"])


def cmd_evolve(cfg: dict, run: RunDir) -> None:
    params = _physics(cfg)
    state = _initial_state(cfg, params)
    records, _ = run_schedule(
        state,
        _schedule(cfg),
        params,
        sample_dt=cfg["output"]["sample_dt_s"],
        ramp_dt=cfg["output"]["ramp_dt_s"],
        counts=run.counts,
    )
    write_records_csv(run.file("records.csv"), records)


def cmd_optimize(cfg: dict, run: RunDir) -> None:
    params = _physics(cfg)
    state = _initial_state(cfg, params)
    o = cfg["optimizer"]
    result = run_protocol(
        state,
        params,
        OptimizerConfig(**_fields(o), seed=cfg["seed"]),
        ramp=reference_ramp(**o["ramp"]),
        mirrored=o["mode"] == "amoa",
        sample_dt=cfg["output"]["sample_dt_s"],
        ramp_dt=cfg["output"]["ramp_dt_s"],
        counts=run.counts,
    )
    run.write_json(
        "schedule.json",
        {
            "schedule": result.schedule.to_dict(),
            "k_history": list(result.amo.k_history),
            "reached_target": result.amo.reached_target,
            "steps": [
                {
                    "q_star_hz": s.q_star_hz,
                    "t_star_s": s.t_star_s,
                    "k_star": s.k_star,
                }
                for s in result.amo.steps
            ],
        },
    )
    diag_rows = []
    for i, step in enumerate(result.amo.steps):
        for scan in step.table:
            diag_rows.append((i, scan.q_hz, scan.k, scan.t_s, scan.pop_two_lowest, scan.flag))
    write_table_csv(
        run.file("diagnostics.csv"),
        ["step", "q_hz", "K", "t_s", "pop_two_lowest", "flag"],
        diag_rows,
    )
    flags = [row[-1] for row in diag_rows]
    run.info["hold_scans"] = {
        "total": len(flags),
        "by_flag": {flag: flags.count(flag) for flag in ("", "flat", "capped")},
        "eigensolves": result.amo.eigensolves,
    }
    write_records_csv(run.file("curve.csv"), result.records)


def _write_aggregate(path, times: np.ndarray, agg: Aggregate, names: dict[str, str]) -> None:
    """An aggregate table: ``t``, the squeezing and its standard error, then the
    mean and standard error of each curve of ``names``, under its name there."""
    header = ["t", "xi2", "xi2_stderr"]
    cols = [times, agg.xi2, agg.xi2_stderr]
    for curve, name in names.items():
        header += [name + "_mean", name + "_stderr"]
        cols += [agg.mean[curve], agg.stderr[curve]]
    write_table_csv(path, header, list(zip(*cols)))


def cmd_noise(cfg: dict, run: RunDir) -> None:
    """Dephasing or relaxation ensemble over the schedule (:func:`main`
    checks a relaxation run's rotating-wave limit first).

    Known defect: ``initial_state`` is ignored; every trajectory starts
    from the polar state of its drawn atom number
    (:func:`~spinmo.noise.run_dephasing_ensemble`).
    """
    result = run_dephasing_ensemble(
        _schedule(cfg),
        _physics(cfg),
        _noise_config(cfg),
        sample_dt=cfg["output"]["sample_dt_s"],
        ramp_dt=cfg["output"]["ramp_dt_s"],
        counts=run.counts,
    )
    for cls, agg in result.classes.items():
        _write_aggregate(run.file(f"aggregate_{cls}.csv"), result.times, agg, {f: f for f in agg.mean})
    run.write_json(
        "ensemble.json",
        {
            "n_traj": {cls: agg.n_traj for cls, agg in result.classes.items()},
            "final": {
                cls: {
                    "xi2": float(agg.xi2[-1]),
                    "F_singlet": float(agg.mean["F_singlet"][-1]),
                    "n_mean": float(agg.mean["n_current"][-1]),
                }
                for cls, agg in result.classes.items()
            },
        },
    )


def cmd_loss(cfg: dict, run: RunDir) -> None:
    params = _physics(cfg)
    state = _initial_state(cfg, params)
    sched = _schedule(cfg)
    lcfg = LossConfig(**_fields(cfg["loss"]), seed=cfg["seed"])
    dephasing = _noise_config(cfg) if cfg["loss"]["dephasing"] else None
    result = run_loss_study(
        state,
        sched,
        params,
        lcfg,
        sample_dt=cfg["output"]["sample_dt_s"],
        dephasing=dephasing,
        ramp_dt=cfg["output"]["ramp_dt_s"],
        counts=run.counts,
    )
    wall = result.trajectory_wall_s
    run.info["trajectory_wall_s"] = {"p50": float(np.median(wall)), "max": float(wall.max())}
    names = {"n_current": "n", "F_singlet": "f_singlet"}
    _write_aggregate(run.file("aggregate.csv"), result.times, result.aggregate, names)
    run.write_json(
        "jumps.json",
        [
            {
                "index": s.index,
                "final_n": s.final_n,
                "final_m": s.final_m,
                "jumps": [
                    {"t": j.t, "channel": j.channel, "n_before": j.n_before} for j in s.jumps
                ],
            }
            for s in result.summaries
        ],
    )
    everyone = postselect(result.summaries, lambda s: True)
    run.write_json(
        "postselect.json",
        {
            "all": everyone,
            "no_loss": postselect(result.summaries, lambda s: s.final_n == params.n_atoms),
            "unselected_final_f_singlet": everyone["final_f_singlet_mean"],
        },
    )


def cmd_phase_diagram(cfg: dict, run: RunDir) -> None:
    params = _physics(cfg)
    pd = cfg["phase_diagram"]
    rows = []
    summary = {}
    for n in pd["n_list"]:
        q_est = critical_q_estimate(n, params.c2p_hz)
        qs = geometric_grid(q_est * pd["q_min_factor"], q_est * pd["q_max_factor"], pd["points_per_decade"])
        gaps = [gap(PhysicsParams(params.c2p_hz, n, float(q), params.convention)) for q in qs]
        rows += [(n, float(q), g) for q, g in zip(qs, gaps)]
        q_c = find_critical_q(n, params.c2p_hz, convention=params.convention)
        summary[str(n)] = {
            "q_c_hz": q_c,
            "q_c_formula_hz": q_est,
            "ratio": q_c / q_est,
            "gap_min_hz": gap(PhysicsParams(params.c2p_hz, n, q_c, params.convention)),
        }
    write_table_csv(run.file("gaps.csv"), ["n_atoms", "q_hz", "gap_hz"], rows)
    run.write_json("summary.json", summary)


_COMMANDS = {
    "evolve": cmd_evolve,
    "optimize": cmd_optimize,
    "noise": cmd_noise,
    "loss": cmd_loss,
    "phase-diagram": cmd_phase_diagram,
}
# the commands that run the config's schedule
_SCHEDULED = ("evolve", "noise", "loss")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spinmo", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("command", choices=list(_COMMANDS))
    ap.add_argument("--config", required=True, help="run configuration JSON")
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        # a schedule or rotating-wave error leaves no output directory
        if args.command in _SCHEDULED:
            _schedule(cfg)
        if args.command == "noise" and cfg["noise"]["mode"] == "relaxation":
            check_rotating_wave(_physics(cfg), _noise_config(cfg))
        run = RunDir(args.out, args.command, cfg)
        _COMMANDS[args.command](cfg, run)
        run.finalize()
        return 0
    except ConfigError as exc:
        print(error_json(exc, 2), file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, SpinmoError) as exc:
        print(error_json(exc, 3), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
