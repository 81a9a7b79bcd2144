"""Batch front door: subcommands over a single JSON config.

    spinmo evolve          --config cfg.json --out dir
    spinmo optimize        --config cfg.json --out dir
    spinmo noise           --config cfg.json --out dir
    spinmo loss            --config cfg.json --out dir
    spinmo oscillator-demo --config cfg.json --out dir
    spinmo phase-diagram   --config cfg.json --out dir

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 resource cap.
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
from .errors import ConfigError, ConvergenceError, ResourceCapError, SpinmoError, StepSizeError
from .noise import NoiseConfig, run_dephasing_ensemble, run_relaxation_ensemble
from .observables import reference_eigensystem
from .opensystem import LossConfig, postselect, run_loss_study
from .operators import PhysicsParams, oscillator_hamiltonian
from .optimizer import OptimizerConfig, run_amo_protocol, run_amoa_protocol
from .runio import RunDir, error_json, write_records_csv, write_table_csv
from .schedule import Schedule, landau_zener, reference_ramp, run_schedule
from .spectra import critical_q_estimate, eigensolve_tridiagonal, find_critical_q, gap


def _physics(cfg: dict) -> PhysicsParams:
    p = cfg["physics"]
    return PhysicsParams(p["c2p_hz"], p["n_atoms"], p.get("q_hz", 0.0), p["convention"])


def _initial_state(cfg: dict, params: PhysicsParams) -> StateVector:
    basis = PairBasis(params.n_atoms)
    kind = cfg["initial_state"]["kind"]
    if kind == "polar":
        return polar_state(basis)
    if kind == "twin_fock":
        return twin_fock_state(basis)
    if kind == "singlet":
        eig = reference_eigensystem(params.n_atoms)
        return StateVector(basis, eig.ground().astype(np.complex128))
    if kind == "ground":
        q = cfg["initial_state"].get("q_hz", params.q_hz)
        from .operators import hamiltonian_pair

        eig = eigensolve_tridiagonal(hamiltonian_pair(params.with_q(q)))
        return StateVector(basis, eig.ground().astype(np.complex128))
    raise ConfigError(f"unknown initial state {kind!r}")


def _schedule(cfg: dict) -> Schedule:
    sc = cfg.get("schedule")
    if sc is None:
        raise ConfigError("this command requires a 'schedule' section")
    if "segments" in sc:
        return Schedule.from_dict(sc)
    preset = sc.get("preset")
    if preset == "reference_ramp":
        return reference_ramp(
            sc.get("q0_hz", 277.0), sc.get("T0_s", 0.955), sc.get("t_end_s", 0.9)
        )
    if preset == "landau_zener":
        return landau_zener(sc.get("q0_hz", 277.0), sc.get("duration_s", 8.63))
    raise ConfigError("schedule needs either 'segments' or a known 'preset'")


def _opt_config(cfg: dict) -> OptimizerConfig:
    o = cfg["optimizer"]
    return OptimizerConfig(
        q_min_hz=o["q_min_hz"],
        q_max_hz=o["q_max_hz"],
        points_per_decade=o["points_per_decade"],
        dwell_window=o["dwell_window"],
        sample_dt_s=o["sample_dt_s"],
        step_time_cap_s=o["step_time_cap_s"],
        max_steps=o["max_steps"],
        k_threshold=o["k_threshold"],
        seed=cfg["seed"],
        refine_factor=o["refine_factor"],
        plateau_s=o["plateau_s"],
    )


def _noise_config(cfg: dict) -> NoiseConfig:
    n = cfg["noise"]
    return NoiseConfig(
        delta_bz_gauss=n["delta_bz_gauss"],
        delta_bx_gauss=n["delta_bx_gauss"],
        bz_bias_gauss=n["bz_bias_gauss"],
        q_coeff_hz_per_g2=n["q_coeff_hz_per_g2"],
        atom_number_spread=n["atom_number_spread"],
        n_traj=n["n_traj"],
        seed=cfg["seed"],
    )


def cmd_evolve(cfg: dict, run: RunDir) -> None:
    params = _physics(cfg)
    state = _initial_state(cfg, params)
    sched_doc = cfg.get("schedule")
    if sched_doc is not None and sched_doc.get("segments") == []:
        records, _ = run_schedule(state, Schedule(()), params, sample_dt=None)
    else:
        sched = _schedule(cfg)
        records, _ = run_schedule(
            state,
            sched,
            params,
            sample_dt=cfg["output"]["sample_dt_s"],
            ramp_dt=cfg["output"]["ramp_dt_s"],
        )
    write_records_csv(run.file("records.csv"), records)


def cmd_optimize(cfg: dict, run: RunDir) -> None:
    params = _physics(cfg)
    state = _initial_state(cfg, params)
    o = cfg["optimizer"]
    opt = _opt_config(cfg)
    ramp = reference_ramp(o["ramp"]["q0_hz"], o["ramp"]["T0_s"], o["ramp"]["t_end_s"])
    runner = run_amoa_protocol if o["mode"] == "amoa" else run_amo_protocol
    result = runner(state, params, opt, ramp=ramp, ramp_dt=cfg["output"]["ramp_dt_s"])
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
    }
    records, _ = run_schedule(
        _initial_state(cfg, params),
        result.schedule,
        params,
        sample_dt=cfg["output"]["sample_dt_s"],
        ramp_dt=cfg["output"]["ramp_dt_s"],
    )
    write_records_csv(run.file("curve.csv"), records)


def _write_ensemble(run: RunDir, result) -> None:
    for cls, agg in result.classes.items():
        header = ["t", "xi2", "xi2_stderr"]
        cols = [result.times, agg.xi2, agg.xi2_stderr]
        for f in ("K", "F_singlet", "F_twinfock", "pc", "n_current"):
            header += [f + "_mean", f + "_stderr"]
            cols += [agg.mean[f], agg.stderr[f]]
        rows = list(zip(*cols))
        write_table_csv(run.file(f"aggregate_{cls}.csv"), header, rows)
    run.write_json(
        "ensemble.json",
        {
            "n_traj": {cls: agg.n_traj for cls, agg in result.classes.items()},
            "final": {
                cls: {
                    "xi2": float(agg.xi2[-1]),
                    "F_singlet": float(agg.mean["F_singlet"][-1]),
                    "n_mean": float(agg.n_mean[-1]),
                }
                for cls, agg in result.classes.items()
            },
        },
    )


def cmd_noise(cfg: dict, run: RunDir) -> None:
    """Dephasing or relaxation ensemble over the schedule.

    Known defect: ``initial_state`` is ignored; every trajectory starts
    from the polar state of its drawn atom number
    (:func:`~spinmo.noise.run_dephasing_ensemble`).
    """
    params = _physics(cfg)
    sched = _schedule(cfg)
    ncfg = _noise_config(cfg)
    mode = cfg["noise"]["mode"]
    if mode == "dephasing":
        result = run_dephasing_ensemble(
            sched,
            params,
            ncfg,
            sample_dt=cfg["output"]["sample_dt_s"],
            ramp_dt=cfg["output"]["ramp_dt_s"],
        )
    else:
        result = run_relaxation_ensemble(
            sched,
            params,
            ncfg,
            mode=cfg["noise"]["rotating_mode"],
            p_scale=cfg["noise"]["p_scale"],
            sample_dt=cfg["output"]["sample_dt_s"],
            ramp_dt=cfg["output"]["ramp_dt_s"],
        )
    _write_ensemble(run, result)


def cmd_loss(cfg: dict, run: RunDir) -> None:
    params = _physics(cfg)
    state = _initial_state(cfg, params)
    sched = _schedule(cfg)
    lcfg = LossConfig(
        gamma_per_s=cfg["loss"]["gamma_per_s"],
        n_traj=cfg["loss"]["n_traj"],
        seed=cfg["seed"],
    )
    dephasing = _noise_config(cfg) if cfg["loss"]["dephasing"] else None
    result = run_loss_study(
        state,
        sched,
        params,
        lcfg,
        sample_dt=cfg["output"]["sample_dt_s"] or 1e-2,
        dephasing=dephasing,
    )
    write_table_csv(
        run.file("aggregate.csv"),
        ["t", "xi2", "xi2_stderr", "n_mean", "n_stderr", "f_singlet_mean", "f_singlet_stderr"],
        list(
            zip(
                result.times,
                result.xi2,
                result.xi2_stderr,
                result.n_mean,
                result.n_stderr,
                result.f_singlet_mean,
                result.f_singlet_stderr,
            )
        ),
    )
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
    run.write_json(
        "postselect.json",
        {
            "all": postselect(result.summaries, lambda s: True),
            "no_loss": postselect(
                result.summaries, lambda s: s.final_n == params.n_atoms
            ),
            "unselected_final_f_singlet": result.unselected_final_f_singlet,
        },
    )


def cmd_oscillator_demo(cfg: dict, run: RunDir) -> None:
    o = cfg["oscillator"]
    mass, omega, d = o["mass"], o["omega"], o["truncation"]
    alpha = o["displacement_quanta"]
    x0 = alpha * np.sqrt(2.0 / (mass * omega))
    force = x0 * mass * omega**2
    g_left = eigensolve_tridiagonal(oscillator_hamiltonian(mass, omega, force, d)).ground()
    g_right = eigensolve_tridiagonal(oscillator_hamiltonian(mass, omega, -force, d)).ground()
    eig = eigensolve_tridiagonal(oscillator_hamiltonian(mass, omega, 0.0, d))
    n = np.arange(d - 1)
    xs = np.sqrt((n + 1) / (2.0 * mass * omega))

    times = np.linspace(0.0, np.pi / omega, o["n_samples"])
    rows = []
    for t, psi in zip(times, eig.evolve(g_left, times).T):
        xval = 2.0 * float(np.real(np.sum(xs * psi[:-1].conj() * psi[1:])))
        fid = float(abs(np.vdot(g_right, psi)) ** 2)
        rows.append((t, xval, fid))
    write_table_csv(run.file("oscillator.csv"), ["t", "x_expect", "fidelity_mirror"], rows)
    run.write_json(
        "summary.json",
        {
            "half_period_s": float(np.pi / omega),
            "final_fidelity": rows[-1][2],
            "x_initial": rows[0][1],
            "x_final": rows[-1][1],
        },
    )


def cmd_phase_diagram(cfg: dict, run: RunDir) -> None:
    params = _physics(cfg)
    pd = cfg["phase_diagram"]
    rows = []
    summary = {}
    for n in pd["n_list"]:
        q_est = critical_q_estimate(n, params.c2p_hz)
        lo, hi = q_est * pd["q_min_factor"], q_est * pd["q_max_factor"]
        n_pts = max(2, int(round(np.log10(hi / lo) * pd["points_per_decade"])) + 1)
        qs = np.geomspace(lo, hi, n_pts)
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
    "oscillator-demo": cmd_oscillator_demo,
    "phase-diagram": cmd_phase_diagram,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spinmo", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="run configuration JSON")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument(
            "--convention", choices=["angular", "plain"], default=None,
            help="override unit convention",
        )
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.convention is not None:
            cfg["physics"]["convention"] = args.convention
        run = RunDir(args.out, args.command, cfg)
        _COMMANDS[args.command](cfg, run)
        run.finalize()
        return 0
    except ConfigError as exc:
        print(error_json(exc, 2), file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(error_json(exc, 4), file=sys.stderr)
        return 4
    except (ConvergenceError, StepSizeError, ArithmeticError, ValueError, SpinmoError) as exc:
        print(error_json(exc, 3), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
