"""The four benchmark workloads, their inputs and their output checks.

``ramp``, ``noise`` and ``loss`` drive ``spinmo.cli.main`` in-process on a
config file; ``search`` calls ``spinmo.optimizer.run_amo`` on a prepared
entry state.  Each workload has a ``full`` scale (the benchmark) and a
``smoke`` scale (the benchmark's own tests).  Outputs are compared with
``reference.json``; see ``make_reference.py`` for how it was made.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# operation i of a run gets CLI seed (benchmark seed + i) modulo this, so a
# run's median mixes the draws of every CLI seed; reference.json holds the
# noise and loss outputs of every CLI seed in range(SEED_SPACE)
SEED_SPACE = 16

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import spinmo  # noqa: E402

if Path(spinmo.__file__).resolve().parent != SRC / "spinmo":
    raise ImportError(f"spinmo imported from {spinmo.__file__}, not from {SRC}")

import spinmo.cli  # noqa: E402
from spinmo.basis import PairBasis, StateVector  # noqa: E402
from spinmo.config import load as load_config  # noqa: E402
from spinmo.observables import reference_eigensystem, singlet_amplitudes  # noqa: E402
from spinmo.operators import PhysicsParams, hamiltonian_pair  # noqa: E402
from spinmo.optimizer import OptimizerConfig, run_amo  # noqa: E402
from spinmo.schedule import reference_ramp  # noqa: E402
from spinmo.spectra import eigensolve_tridiagonal  # noqa: E402

C2P_HZ = 25.0
RAMP = {"kind": "parabolic_ramp", "q0_hz": 277.0, "T0_s": 0.955, "t_begin_s": 0.0, "t_end_s": 0.9}
# The ramp, noise and loss operations are short (0.04-0.16 s on 2 cores), so
# that each can be timed against a calibration loop run right next to it and
# a run holds 150-500 of them; see README.md, Steadiness.
# ramp: the first 5 ms of the reference ramp, where the RK4 step is limited
# by the spectral spread of the polar state
RAMP_START = {**RAMP, "t_end_s": 0.005}
# noise and loss: the last 5 ms of the reference ramp, then a hold at the q
# of the reference hold for a quarter of its 0.038 s, then 5 ms at q = 0;
# started from the ground state at the q where the ramp piece begins
TAIL_BEGIN_S = 0.895
TAIL = [{**RAMP, "t_begin_s": TAIL_BEGIN_S}, {"kind": "hold", "q_hz": 0.2936, "duration_s": 0.0095},
        {"kind": "hold", "q_hz": 0.0, "duration_s": 0.005}]
Q_TAIL_HZ = float(reference_ramp().q_hz_at(TAIL_BEGIN_S))
Q_ENTRY_HZ = float(reference_ramp().q_hz_at(0.9))  # 0.9188 Hz, end of the reference ramp

SIZES = {
    "full": {"ramp": 200, "search": 1000, "noise": 100, "noise_traj": 4, "loss": 100, "loss_traj": 5},
    "smoke": {"ramp": 20, "search": 20, "noise": 16, "noise_traj": 1, "loss": 16, "loss_traj": 1},
}

# 1/s; over the 19.5 ms tail this gives 5-26 jumps per trajectory at N = 100
# (CLI seeds 0-15)
LOSS_GAMMA_PER_S = 4.0

# tolerances of the output checks
# final records row against the finer-step reference: 10x the error of the
# automatic step measured at the time of writing (3.98e-8 on the 5 ms piece
# at N = 200; 1.05e-5 on the whole ramp at N = 20, where the step sits at
# propagate.MAX_DT_S)
RAMP_ABS_TOL = {"full": 4e-7, "smoke": 1e-4}
NORM_TOL = 1e-12          # every records row
ENSEMBLE_ABS_TOL = 1e-7   # noise and loss aggregates against reference.json


def clear_caches() -> None:
    """Start an operation as cold as a fresh CLI run."""
    reference_eigensystem.cache_clear()
    singlet_amplitudes.cache_clear()


def configs(scale: str) -> dict[str, dict]:
    """Config documents of every workload at one scale."""
    n = SIZES[scale]
    return {
        "ramp": {
            "physics": {"c2p_hz": C2P_HZ, "n_atoms": n["ramp"]},
            "initial_state": {"kind": "polar"},
            # at N = 20 the 5 ms piece exits 3 on norm drift (README.md,
            # Known defects), so the smoke scale runs the whole ramp
            "schedule": {"segments": [RAMP_START]} if scale == "full" else {"preset": "reference_ramp"},
            "output": {"sample_dt_s": 1e-3},
        },
        "search": {
            "physics": {"c2p_hz": C2P_HZ, "n_atoms": n["search"]},
            "initial_state": {"kind": "ground", "q_hz": Q_ENTRY_HZ},
            "optimizer": {
                "q_max_hz": Q_ENTRY_HZ,
                "points_per_decade": 10,
                "max_steps": 2,
                "step_time_cap_s": 0.5,
            },
        },
        "noise": {
            "physics": {"c2p_hz": C2P_HZ, "n_atoms": n["noise"]},
            "initial_state": {"kind": "ground", "q_hz": Q_TAIL_HZ},
            "schedule": {"segments": TAIL},
            "noise": {"mode": "dephasing", "atom_number_spread": True, "n_traj": n["noise_traj"]},
            "output": {"sample_dt_s": 1e-2},
        },
        "loss": {
            "physics": {"c2p_hz": C2P_HZ, "n_atoms": n["loss"]},
            "initial_state": {"kind": "ground", "q_hz": Q_TAIL_HZ},
            "schedule": {"segments": TAIL},
            "loss": {"gamma_per_s": LOSS_GAMMA_PER_S, "n_traj": n["loss_traj"], "dephasing": True},
            "output": {"sample_dt_s": 1e-2},
        },
    }


class Workload:
    """One workload: ``setup`` builds the inputs, ``run`` is the timed
    operation, ``check`` lists what is wrong with its outputs."""

    def __init__(self, name: str, scale: str, workdir: Path, seed: int):
        self.name = name
        self.scale = scale
        self.workdir = workdir
        self.seed = seed
        self.operations = 0
        self.cli_seed = seed % SEED_SPACE
        self.config_path = workdir / f"{name}.json"
        self.out = workdir / "out"

    def setup(self, config: dict | None = None) -> None:
        """Write, load and validate the config, then build the inputs."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        doc = config if config is not None else configs(self.scale)[self.name]
        self.config_path.write_text(json.dumps(doc), encoding="utf-8")
        self.cfg = load_config(self.config_path)
        if self.name == "search":
            self._setup_search()

    def _setup_search(self) -> None:
        p = self.cfg["physics"]
        o = self.cfg["optimizer"]
        self.params = PhysicsParams(p["c2p_hz"], p["n_atoms"], convention=p["convention"])
        q0 = self.cfg["initial_state"]["q_hz"]
        ground = eigensolve_tridiagonal(hamiltonian_pair(self.params.with_q(q0))).ground()
        self.entry = StateVector(PairBasis(p["n_atoms"]), ground.astype(complex))
        self.opt = OptimizerConfig(
            q_min_hz=o["q_min_hz"],
            q_max_hz=o["q_max_hz"],
            points_per_decade=o["points_per_decade"],
            dwell_window=o["dwell_window"],
            sample_dt_s=o["sample_dt_s"],
            step_time_cap_s=o["step_time_cap_s"],
            max_steps=o["max_steps"],
            k_threshold=o["k_threshold"],
            seed=self.cli_seed,
            refine_factor=o["refine_factor"],
        )

    def prepare(self) -> None:
        """Untimed reset before each operation; picks its CLI seed."""
        self.cli_seed = (self.seed + self.operations) % SEED_SPACE
        self.operations += 1
        clear_caches()
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        """The timed operation: a CLI exit code, or the search result."""
        if self.name == "search":
            return run_amo(self.entry, self.params, self.opt)
        command = {"ramp": "evolve", "noise": "noise", "loss": "loss"}[self.name]
        return spinmo.cli.main([
            command, "--config", str(self.config_path), "--out", str(self.out),
            "--seed", str(self.cli_seed),
        ])

    def summary(self, result) -> dict:
        """The checked outputs of one operation, as stored in reference.json."""
        if self.name == "search":
            return {
                "k_history": list(result.k_history),
                "steps": [[s.q_star_hz, s.t_star_s, s.k_star] for s in result.steps],
            }
        if result != 0:
            raise RuntimeError(f"spinmo {self.name} exited with code {result}")
        if self.name == "ramp":
            rows = _csv_rows(self.out / "records.csv")
            last = rows[-1]
            return {
                "final": {k: float(last[k]) for k in ("t", "K", "F_singlet", "F_twinfock", "xi2", "pc")},
                "max_norm_error": max(abs(float(r["norm"]) - 1.0) for r in rows),
            }
        if self.name == "noise":
            ens = json.loads((self.out / "ensemble.json").read_text())
            return {"n_traj": ens["n_traj"], "final": ens["final"]}
        jumps = json.loads((self.out / "jumps.json").read_text())
        last = _csv_rows(self.out / "aggregate.csv")[-1]
        return {
            "jumps": [len(t["jumps"]) for t in jumps],
            "final_n": [t["final_n"] for t in jumps],
            "final": {k: float(last[k]) for k in ("t", "xi2", "n_mean", "f_singlet_mean")},
            "postselect": json.loads((self.out / "postselect.json").read_text()),
        }

    def expected(self) -> dict:
        ref = json.loads(REFERENCE.read_text())[self.name][self.scale]
        if self.name in ("noise", "loss"):
            return ref[str(self.cli_seed)]
        return ref

    def check(self, result) -> list[str]:
        """Problems with the outputs of one operation; empty when correct."""
        try:
            got = self.summary(result)
        except (OSError, KeyError, ValueError, RuntimeError) as exc:
            return [f"{self.name}: {exc}"]
        want = self.expected()
        if self.name == "search":
            return [] if got == want else [f"search: got {got}, want {want}"]
        if self.name == "ramp":
            problems = _compare(got["final"], want["final"], RAMP_ABS_TOL[self.scale], "final row")
            if got["max_norm_error"] > NORM_TOL:
                problems.append(f"norm off 1 by {got['max_norm_error']:.3g}")
            return problems
        problems = _compare(got, want, ENSEMBLE_ABS_TOL, self.name)
        return problems


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _compare(got, want, tol: float, where: str) -> list[str]:
    """Structural equality with numbers equal within ``tol``; ints and
    bools exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(want)}"]
        return [p for k in want for p in _compare(got[k], want[k], tol, f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got} != {want}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _compare(g, w, tol, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        return [] if abs(got - want) <= tol else [f"{where}: {got!r} differs from {want!r} by more than {tol}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]
