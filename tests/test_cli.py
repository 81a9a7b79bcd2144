import csv
import dataclasses
import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import spinmo
from spinmo import optimizer, propagate, schedule
from spinmo.cli import _COMMANDS, _schedule, main
from spinmo.config import RULES, load as load_config, resolve
from spinmo.errors import ConfigError, ConvergenceError
from spinmo.noise import NoiseConfig
from spinmo.observables import reference_eigensystem, singlet_amplitudes
from spinmo.opensystem import LossConfig
from spinmo.schedule import LinearSweep, ParabolicRamp, Schedule


def write_cfg(tmp_path: Path, doc: dict, name: str = "cfg.json") -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


BASE = {
    "physics": {"c2p_hz": 25.0, "n_atoms": 12},
    "schedule": {
        "segments": [
            {"kind": "parabolic_ramp", "q0_hz": 30.0, "T0_s": 0.08, "t_begin_s": 0.0, "t_end_s": 0.05},
            {"kind": "hold", "q_hz": 0.8, "duration_s": 0.03},
        ]
    },
    "output": {"sample_dt_s": 0.01},
}


def test_config_defaults_and_validation():
    cfg = resolve({"physics": {"c2p_hz": 25.0, "n_atoms": 10}})
    assert cfg["physics"]["convention"] == "angular"
    assert cfg["optimizer"]["points_per_decade"] == 40
    with pytest.raises(ConfigError) as ei:
        resolve({"physics": {"c2p_hz": 25.0, "n_atoms": 10}, "noise": {"n_traj": 0}})
    assert "$.noise.n_traj" in str(ei.value)
    with pytest.raises(ConfigError):
        resolve({"physics": {"c2p_hz": -1.0, "n_atoms": 10}})
    with pytest.raises(ConfigError):
        resolve({"physics": {"c2p_hz": 25.0, "n_atoms": 10}, "bogus": 1})


RESOLVED_DEFAULTS = {
    "seed": 0,
    "physics": {"c2p_hz": 25.0, "n_atoms": 10, "q_hz": 0.0, "convention": "angular"},
    "initial_state": {"kind": "polar"},
    "optimizer": {
        "mode": "amo",
        "q_min_hz": 1e-4,
        "q_max_hz": None,
        "points_per_decade": 40,
        "dwell_window": 50,
        "sample_dt_s": 1e-3,
        "step_time_cap_s": 3.0,
        "max_steps": 6,
        "k_threshold": 1e-3,
        "refine_factor": 4,
        "plateau_s": 0.32,
        "ramp": {"q0_hz": 277.0, "T0_s": 0.955, "t_end_s": 0.9},
    },
    "noise": {
        "mode": "dephasing",
        "delta_bz_gauss": 1e-4,
        "delta_bx_gauss": 1e-4,
        "bz_bias_gauss": 0.0,
        "atom_number_spread": True,
        "n_traj": 100,
    },
    "loss": {"gamma_per_s": 0.005, "n_traj": 2000, "dephasing": True},
    "phase_diagram": {
        "n_list": [100, 1000],
        "points_per_decade": 40,
        "q_min_factor": 0.1,
        "q_max_factor": 10.0,
    },
    "output": {"sample_dt_s": 1e-3, "ramp_dt_s": None},
}


def test_resolved_defaults_are_pinned():
    cfg = resolve({"physics": {"c2p_hz": 25.0, "n_atoms": 10}})
    assert cfg == RESOLVED_DEFAULTS
    # the manifest writes the resolved config: 277 and 277.0 would differ there
    assert json.dumps(cfg, sort_keys=True) == json.dumps(RESOLVED_DEFAULTS, sort_keys=True)


@pytest.mark.parametrize(
    "section, cls",
    [("optimizer", optimizer.OptimizerConfig), ("noise", NoiseConfig), ("loss", LossConfig)],
)
def test_schema_section_keys_are_the_dataclass_fields(section, cls):
    # the CLI builds each dataclass from its section by key name
    keys = set(RULES[section]) - {"mode", "ramp", "dephasing"}
    assert keys == {f.name for f in dataclasses.fields(cls)} - {"seed"}


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")


def test_evolve_roundtrip_and_schema(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "run1"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    csv = (out / "records.csv").read_text().splitlines()
    assert csv[0] == "t,q,K,F_singlet,F_twinfock,xi2,pc,norm,n_current"
    assert len(csv) > 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["convention"] == "angular"
    assert manifest["seed"] == 0
    assert "records.csv" in manifest["outputs"]
    assert (out / "run_info.json").exists()


def test_empty_schedule_single_row(tmp_path):
    doc = dict(BASE)
    doc["schedule"] = {"segments": []}
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "empty"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "records.csv").read_text().splitlines()
    assert len(rows) == 2  # header + t=0 row


def test_singlet_start_and_its_records_solve_the_chain_once(tmp_path):
    reference_eigensystem.cache_clear()
    singlet_amplitudes.cache_clear()
    cfg = write_cfg(tmp_path, dict(BASE, initial_state={"kind": "singlet"}))
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "singlet")]) == 0
    assert singlet_amplitudes(BASE["physics"]["n_atoms"]) is not None
    assert reference_eigensystem.cache_info().currsize == 1


def test_determinism_rerun_identical_sha(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["evolve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["evolve", "--config", str(cfg), "--out", str(out2)]) == 0
    assert sha(out1 / "records.csv") == sha(out2 / "records.csv")
    assert sha(out1 / "manifest.json") == sha(out2 / "manifest.json")


def _rerun_identical(tmp_path, command, doc, names):
    cfg = write_cfg(tmp_path, doc)
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    for name in names + ["manifest.json"]:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    return runs[0]


def test_noise_determinism_rerun_identical_bytes(tmp_path):
    doc = json.loads(json.dumps(BASE))
    doc["physics"]["n_atoms"] = 30
    doc["noise"] = {"atom_number_spread": True, "n_traj": 6}
    doc["seed"] = 2
    names = ["aggregate_all.csv", "aggregate_even.csv", "aggregate_odd.csv", "ensemble.json"]
    out = _rerun_identical(tmp_path, "noise", doc, names)
    # the batch mixes atom-number parities, so its chains differ in length
    n_traj = json.loads((out / "ensemble.json").read_text())["n_traj"]
    assert n_traj["even"] > 0 and n_traj["odd"] > 0
    for name in names[:3]:
        assert (out / name).read_text().splitlines()[0] == (
            "t,xi2,xi2_stderr,K_mean,K_stderr,F_singlet_mean,F_singlet_stderr,F_twinfock_mean,"
            "F_twinfock_stderr,pc_mean,pc_stderr,n_current_mean,n_current_stderr"
        ), name


def test_loss_determinism_rerun_identical_bytes(tmp_path):
    doc = json.loads(json.dumps(BASE))
    doc["loss"] = {"gamma_per_s": 2.0, "n_traj": 5}
    names = ["aggregate.csv", "jumps.json", "postselect.json"]
    out = _rerun_identical(tmp_path, "loss", doc, names)
    assert any(s["jumps"] for s in json.loads((out / "jumps.json").read_text()))
    assert (out / "aggregate.csv").read_text().splitlines()[0] == (
        "t,xi2,xi2_stderr,n_mean,n_stderr,f_singlet_mean,f_singlet_stderr"
    )


@pytest.mark.parametrize("command", ["evolve", "noise", "loss"])
@pytest.mark.parametrize("schedule", [None, {}], ids=["no-section", "empty-section"])
def test_a_run_without_a_schedule_exits_2_before_its_output_directory(
    tmp_path, capsys, command, schedule
):
    doc = {k: v for k, v in BASE.items() if k != "schedule"}
    if schedule is not None:
        doc["schedule"] = schedule
    out = tmp_path / "x"
    rc = main([command, "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "config invalid at $.schedule:" in err["message"]


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("loss", ("loss", "gamma_per_s"), math.nan),
        ("evolve", ("schedule", "segments", 1, "duration_s"), math.inf),
        ("optimize", ("optimizer", "step_time_cap_s"), math.inf),
        ("evolve", ("physics", "c2p_hz"), math.nan),
    ],
    ids=["nan-gamma", "inf-hold", "inf-step-cap", "nan-c2p"],
)
def test_a_non_finite_number_exits_2_at_its_path(tmp_path, capsys, command, path, value):
    doc = json.loads(json.dumps(BASE))
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value  # json.dumps writes NaN and Infinity, which json.loads reads
    out = tmp_path / "x"
    rc = main([command, "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    assert err["exit_code"] == 2 and f"config invalid at {where}:" in err["message"]


@pytest.mark.parametrize(
    "command, path, value",
    [
        ("evolve", ("physics", "n_atoms"), 12.0),
        ("noise", ("seed",), 3.0),
        ("noise", ("noise", "n_traj"), 2.0),
        ("loss", ("loss", "n_traj"), 2.0),
        ("optimize", ("optimizer", "dwell_window"), 10.0),
        ("phase-diagram", ("phase_diagram", "n_list", 0), 20.0),
        ("evolve", ("physics", "c2p_hz"), True),
    ],
    ids=["n_atoms", "seed", "noise-n_traj", "loss-n_traj", "dwell_window", "n_list", "bool-c2p"],
)
def test_an_integral_float_or_a_bool_exits_2_at_its_path(tmp_path, capsys, command, path, value):
    # integer keys take JSON integers only, and a boolean is not a number
    doc = json.loads(json.dumps(BASE))
    doc["phase_diagram"] = {"n_list": [20]}
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    out = tmp_path / "x"
    rc = main([command, "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    where = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    assert err["exit_code"] == 2 and f"config invalid at {where}:" in err["message"]


def test_a_relaxation_run_outside_the_rotating_wave_limit_exits_2_before_its_output_directory(
    tmp_path, capsys
):
    # the default bz_bias_gauss of 0 leaves p no larger than the drawn field offsets
    doc = dict(BASE, noise={"mode": "relaxation", "n_traj": 2})
    out = tmp_path / "x"
    rc = main(["noise", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "rotating-wave limit invalid" in err["message"]


def test_a_zero_field_relaxation_run_with_a_transverse_field_exits_2(tmp_path, capsys):
    # p = 0 while h is not: |h/p| is infinite, however small h is
    noise = {"mode": "relaxation", "bz_bias_gauss": 0.0, "delta_bz_gauss": 0.0,
             "delta_bx_gauss": 1e-4, "n_traj": 2}
    out = tmp_path / "x"
    rc = main(["noise", "--config", str(write_cfg(tmp_path, dict(BASE, noise=noise))), "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "h/p = inf" in err["message"]


def test_noise_runs_at_one_atom(tmp_path):
    # the atom-number spread of N = 1 reaches down to 0; draws keep one atom,
    # and kept symmetric about N they draw no other number
    doc = json.loads(json.dumps(BASE))
    doc["physics"]["n_atoms"] = 1
    doc["noise"] = {"n_traj": 8}
    out = tmp_path / "one"
    assert main(["noise", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    n_traj = json.loads((out / "ensemble.json").read_text())["n_traj"]
    assert n_traj == {"all": 8, "odd": 8}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_run_info_of_every_command_reports_hold_blocks_and_ramp_steps(tmp_path, command):
    doc = dict(
        BASE, optimizer=OPTIMIZE["optimizer"], phase_diagram={"n_list": [12]},
        noise={"n_traj": 2}, loss={"gamma_per_s": 2.0, "n_traj": 2},
    )
    out = tmp_path / "run"
    assert main([command, "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    info = json.loads((out / "run_info.json").read_text())
    steps = info["ramp_steps"]
    assert set(steps) == {"1", "2", "branch"} and all(isinstance(v, int) for v in steps.values())
    assert isinstance(info["hold_blocks"], int)
    # the phase diagram solves no hold and takes no ramp step; the others do both
    assert (info["hold_blocks"] > 0 and steps["1"] + steps["2"] > 0) == (command != "phase-diagram")
    ensemble = ("trajectories" in info, "jumps" in info, "reference_eigensystems" in info)
    assert ensemble == {"noise": (True, False, False), "loss": (True, True, True)}.get(
        command, (False, False, False)
    )


def test_no_library_function_takes_an_info_dict():
    # the library adds what it did to a caller's Counter; only the CLI's
    # RunDir knows the shape of run_info.json
    takes_info = []
    for mod in pkgutil.iter_modules(spinmo.__path__):
        module = importlib.import_module(f"spinmo.{mod.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            funcs = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                funcs = [f for f in vars(obj).values() if inspect.isfunction(f)]
            takes_info += [
                f"{module.__name__}.{f.__qualname__}"
                for f in funcs
                if "info" in inspect.signature(f).parameters
            ]
    assert takes_info == []


@pytest.mark.parametrize("command", ["noise", "loss"])
def test_ensemble_run_info_reports_its_counters(tmp_path, command):
    doc = json.loads(json.dumps(BASE))
    doc[command] = {"n_traj": 3} if command == "noise" else {"gamma_per_s": 2.0, "n_traj": 3}
    runs = [tmp_path / "a", tmp_path / "b"]
    cfg = write_cfg(tmp_path, doc)
    for out in runs:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    for name in names:
        if name != "run_info.json":
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    info = json.loads((runs[0] / "run_info.json").read_text())
    assert info["trajectories"] == 3
    # one hold segment, at least one block per trajectory
    assert isinstance(info["hold_blocks"], int) and info["hold_blocks"] >= 3
    if command == "loss":
        jumps = json.loads((runs[0] / "jumps.json").read_text())
        assert info["jumps"] == sum(len(t["jumps"]) for t in jumps) > 0
        assert 1 <= info["reference_eigensystems"] <= 1 + info["jumps"]
        wall = info["trajectory_wall_s"]
        assert 0 < wall["p50"] <= wall["max"] <= info["wall_clock_s"]


# the last 5 ms of the reference ramp and a hold, sampled off the step ends
TAIL_DOC = {
    "physics": {"c2p_hz": 25.0, "n_atoms": 12},
    "schedule": {
        "segments": [
            {"kind": "parabolic_ramp", "q0_hz": 277.0, "T0_s": 0.955, "t_begin_s": 0.895, "t_end_s": 0.9},
            {"kind": "hold", "q_hz": 0.2936, "duration_s": 0.003},
        ]
    },
    "output": {"sample_dt_s": 0.0012},
}


@pytest.mark.parametrize("command, runs", [("evolve", 1), ("noise", 1), ("loss", 2)])
def test_run_info_counts_ramp_steps_by_size(tmp_path, command, runs):
    # the ramp takes 10 steps of 2 fine steps; the samples at 1.2, 2.4, 3.6
    # and 4.8 ms fall inside steps and branch off with one partial step each.
    # A noise ensemble advances as one batch; loss runs each trajectory
    doc = json.loads(json.dumps(TAIL_DOC))
    if command == "noise":
        doc["noise"] = {"n_traj": 3}
    if command == "loss":
        doc["loss"] = {"gamma_per_s": 1e-6, "n_traj": runs}
    out = tmp_path / command
    assert main([command, "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    info = json.loads((out / "run_info.json").read_text())
    assert info["ramp_steps"] == {"1": 0, "2": 10 * runs, "branch": 4 * runs}
    doc["output"]["ramp_dt_s"] = propagate.RAMP_DT_S
    out = tmp_path / f"{command}-fine"
    assert main([command, "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    info = json.loads((out / "run_info.json").read_text())
    assert info["ramp_steps"] == {"1": 20 * runs, "2": 0, "branch": 4 * runs}


@pytest.mark.parametrize("mode, ramps", [("amo", 1), ("amoa", 2)])
def test_optimize_run_info_counts_ramp_steps(tmp_path, mode, ramps):
    doc = json.loads(json.dumps(OPTIMIZE))
    doc["optimizer"]["mode"] = mode
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    steps = json.loads((out / "run_info.json").read_text())["ramp_steps"]
    # every ramp takes its 200 fine steps once: its start is too fast to merge
    assert (steps["1"], steps["2"]) == (200 * ramps, 0)


def test_threads_is_not_a_config_key(tmp_path, capsys):
    doc = dict(BASE, threads=2)
    rc = main(["evolve", "--config", str(write_cfg(tmp_path, doc)), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "threads" in err["message"]


def test_exit_code_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"physics": {"c2p_hz": 25.0}})
    rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ConfigError" and err["exit_code"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus", "--config", "c.json", "--out", "x"],
        ["evolve", "--config", "c.json"],
        ["oscillator-demo", "--config", "c.json", "--out", "x"],
        ["evolve", "--config", "c.json", "--out", "x", "--convention", "plain"],
    ],
    ids=["unknown-command", "missing-out", "removed-command", "removed-convention-flag"],
)
def test_bad_command_line_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: spinmo" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == spinmo.__version__


def test_exit_code_numeric_error(tmp_path, capsys, monkeypatch):
    def failing_ramp(*args, **kwargs):
        raise ConvergenceError("the ramp step failed")

    # a numeric failure once the run has started
    monkeypatch.setattr(schedule, "evolve_ramp", failing_ramp)
    cfg = write_cfg(tmp_path, BASE)
    rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 3


def test_too_coarse_ramp_step_is_a_config_error(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["output"]["ramp_dt_s"] = 1e-3  # coarser than propagate.RAMP_DT_S
    rc = main(["evolve", "--config", str(write_cfg(tmp_path, doc)), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "$.output.ramp_dt_s" in err["message"]
    doc["output"]["ramp_dt_s"] = 1e-4
    rc = main(["evolve", "--config", str(write_cfg(tmp_path, doc)), "--out", str(tmp_path / "y")])
    assert rc == 0


def test_help_keeps_the_command_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert "spinmo evolve          --config cfg.json --out dir" in lines


def test_seed_and_convention_overrides(tmp_path):
    # --seed overrides the file; the convention is set by the file only
    doc = json.loads(json.dumps(BASE))
    doc["physics"]["convention"] = "plain"
    out = tmp_path / "ovr"
    assert main(["evolve", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out), "--seed", "7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["convention"] == "plain"


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_negative_seed_override_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "neg"
    cfg = write_cfg(tmp_path, BASE)
    assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "config invalid at $.seed:" in err["message"]
    assert not out.exists()


RAMP_PRESET = {"preset": "reference_ramp", "q0_hz": 30.0, "T0_s": 0.08, "t_end_s": 0.05}


@pytest.mark.parametrize(
    "section, value, path",
    [
        ("schedule", dict(BASE["schedule"], preset="reference_ramp"), "$.schedule.preset"),
        ("schedule", {"preset": "landau_zener", "q0_hz": 3.0, "T0_s": 0.08}, "$.schedule.T0_s"),
        ("schedule", {"preset": "landau_zener", "t_end_s": 0.05}, "$.schedule.t_end_s"),
        ("schedule", dict(RAMP_PRESET, duration_s=0.1), "$.schedule.duration_s"),
        ("initial_state", {"kind": "polar", "q_hz": 0.5}, "$.initial_state.q_hz"),
        ("initial_state", {"kind": "coherent"}, "$.initial_state.kind"),
    ],
    ids=[
        "segments-and-preset", "landau-zener-T0", "landau-zener-t_end", "ramp-duration", "polar-q",
        "unknown-initial-kind",
    ],
)
def test_keys_nothing_reads_are_config_errors(tmp_path, capsys, section, value, path):
    doc = dict(BASE, **{section: value})
    with pytest.raises(ConfigError, match=re.escape(path + ":")):
        resolve(doc)
    out = tmp_path / "unread"
    assert main(["evolve", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and path in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "sched, segment",
    [
        (RAMP_PRESET, ParabolicRamp(30.0, 0.08, 0.0, 0.05)),
        ({"preset": "reference_ramp"}, ParabolicRamp(277.0, 0.955, 0.0, 0.9)),
        ({"preset": "landau_zener", "q0_hz": 3.0, "duration_s": 0.02}, LinearSweep(3.0, -3.0, 0.02)),
        ({"preset": "landau_zener"}, LinearSweep(277.0, -277.0, 8.63)),
    ],
    ids=["reference-ramp", "reference-ramp-defaults", "landau-zener", "landau-zener-defaults"],
)
def test_schedule_presets_read_their_keys(sched, segment):
    assert _schedule(resolve(dict(BASE, schedule=sched))) == Schedule((segment,))


def test_phase_diagram_small(tmp_path):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 50},
        "phase_diagram": {"n_list": [50], "points_per_decade": 10},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "pd"
    assert main(["phase-diagram", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "50" in summary and summary["50"]["q_c_hz"] > 0
    rows = (out / "gaps.csv").read_text().splitlines()
    assert rows[0] == "n_atoms,q_hz,gap_hz" and len(rows) > 10


def test_phase_diagram_inverted_factors_exit_2_before_the_output_directory(tmp_path, capsys):
    doc = dict(BASE, phase_diagram={"n_list": [20], "q_min_factor": 10.0, "q_max_factor": 0.1})
    out = tmp_path / "pd"
    assert main(["phase-diagram", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "config invalid at $.phase_diagram.q_min_factor:" in err["message"]


def test_phase_diagram_equal_factors_give_one_row_per_atom_number(tmp_path):
    doc = dict(BASE, phase_diagram={"n_list": [20, 30], "q_min_factor": 2.0, "q_max_factor": 2.0})
    out = tmp_path / "pd"
    assert main(["phase-diagram", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    rows = (out / "gaps.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["20", "30"]


def test_phase_diagram_determinism_rerun_identical_bytes(tmp_path):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 20},
        "phase_diagram": {"n_list": [20, 30], "points_per_decade": 5},
    }
    out = _rerun_identical(tmp_path, "phase-diagram", doc, ["gaps.csv", "summary.json"])
    assert sorted(json.loads((out / "summary.json").read_text())) == ["20", "30"]


def test_noise_command_small(tmp_path):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 9},
        "schedule": {"segments": [{"kind": "hold", "q_hz": 0.5, "duration_s": 0.02}]},
        "noise": {"n_traj": 4},
        "output": {"sample_dt_s": 0.01},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "noise"
    assert main(["noise", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "aggregate_all.csv").exists()
    ens = json.loads((out / "ensemble.json").read_text())
    assert ens["n_traj"]["all"] == 4


def test_loss_command_small(tmp_path):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 8},
        "schedule": {"segments": [{"kind": "hold", "q_hz": 0.2, "duration_s": 0.2}]},
        "loss": {"gamma_per_s": 0.05, "n_traj": 20},
        "output": {"sample_dt_s": 0.1},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "loss"
    assert main(["loss", "--config", str(cfg), "--out", str(out)]) == 0
    ps = json.loads((out / "postselect.json").read_text())
    assert ps["all"]["n_total"] == 20
    assert 0 <= ps["unselected_final_f_singlet"] <= 1
    assert ps["unselected_final_f_singlet"] == ps["all"]["final_f_singlet_mean"]
    jumps = json.loads((out / "jumps.json").read_text())
    assert len(jumps) == 20


def test_loss_when_a_trajectory_loses_every_atom(tmp_path):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 12},
        "schedule": {
            "segments": [
                {"kind": "parabolic_ramp", "q0_hz": 277.0, "T0_s": 0.955, "t_begin_s": 0.85, "t_end_s": 0.9},
                {"kind": "hold", "q_hz": 0.3, "duration_s": 0.03},
            ]
        },
        "loss": {"gamma_per_s": 20.0, "n_traj": 5},
        "output": {"sample_dt_s": 0.01},
    }
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "loss"
    assert main(["loss", "--config", str(cfg), "--out", str(out), "--seed", "0"]) == 0
    assert 0 in [t["final_n"] for t in json.loads((out / "jumps.json").read_text())]
    with (out / "aggregate.csv").open(newline="", encoding="utf-8") as fh:
        times = [float(row["t"]) for row in csv.DictReader(fh)]
    # samples every 10 ms over the 80 ms schedule
    assert times == pytest.approx([0.01 * i for i in range(9)], abs=1e-12)


def _t_columns(tmp_path, doc, runs):
    """The t column of each (command, file) of ``runs`` on config ``doc``."""
    cfg = write_cfg(tmp_path, doc)
    times = {}
    for command, name in runs:
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
        with (tmp_path / command / name).open(newline="", encoding="utf-8") as fh:
            times[command] = [row["t"] for row in csv.DictReader(fh)]
    return times


def test_loss_records_sit_on_the_evolve_sample_grid(tmp_path):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 12},
        "schedule": {
            "segments": [
                {"kind": "hold", "q_hz": 0.5, "duration_s": 0.3},
                {"kind": "hold", "q_hz": 0.1, "duration_s": 0.2},
            ]
        },
        "loss": {"gamma_per_s": 2.0, "n_traj": 2},
        "output": {"sample_dt_s": 0.1},
    }
    times = _t_columns(tmp_path, doc, (("evolve", "records.csv"), ("loss", "aggregate.csv")))
    assert times["loss"] == times["evolve"]
    assert len(times["loss"]) == 6


def test_loss_without_a_sample_step_records_the_segment_ends(tmp_path):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 8},
        "schedule": {
            "segments": [
                {"kind": "hold", "q_hz": 0.5, "duration_s": 0.03},
                {"kind": "hold", "q_hz": 0.1, "duration_s": 0.02},
            ]
        },
        "loss": {"gamma_per_s": 2.0, "n_traj": 2},
        "output": {"sample_dt_s": None},
    }
    times = _t_columns(tmp_path, doc, (("evolve", "records.csv"), ("loss", "aggregate.csv")))
    assert times["loss"] == times["evolve"]
    assert [float(t) for t in times["loss"]] == [0.0, 0.03, 0.05]


@pytest.mark.parametrize("key, value", [("rotating_mode", "exact_scaled_p"), ("p_scale", 0.01)])
def test_removed_relaxation_keys_are_config_errors(tmp_path, capsys, key, value):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 4},
        "schedule": {"segments": [{"kind": "hold", "q_hz": 0.5, "duration_s": 0.005}]},
        "noise": {"mode": "relaxation", "bz_bias_gauss": 1.0, "n_traj": 2, key: value},
    }
    rc = main(["noise", "--config", str(write_cfg(tmp_path, doc)), "--out", str(tmp_path / "x")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and f"config invalid at $.noise.{key}:" in err["message"]


@pytest.mark.parametrize("command", ["noise", "loss"])
def test_removed_zeeman_coefficient_key_is_a_config_error(tmp_path, capsys, command):
    # the 23Na coefficient is the constant noise.Q_COEFF_HZ_PER_G2
    doc = dict(BASE, noise={"q_coeff_hz_per_g2": 277.0})
    out = tmp_path / "qc"
    assert main([command, "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "config invalid at $.noise.q_coeff_hz_per_g2:" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_removed_oscillator_section_is_a_config_error(tmp_path, capsys, command):
    doc = dict(BASE, oscillator={"truncation": 40, "n_samples": 11})
    out = tmp_path / "osc"
    assert main([command, "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and "config invalid at $.oscillator:" in err["message"]
    assert not out.exists()


def test_loss_aggregates_when_no_atoms_remain(tmp_path):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 2},
        "schedule": {"segments": [{"kind": "hold", "q_hz": 0.3, "duration_s": 0.05}]},
        "loss": {"gamma_per_s": 200.0, "n_traj": 3},
        "output": {"sample_dt_s": 0.01},
    }
    out = tmp_path / "loss"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["loss", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    ps = json.loads((out / "postselect.json").read_text(), parse_constant=no_constants)
    assert ps["all"]["final_n_mean"] == 0.0 and ps["all"]["final_xi2"] is None
    with (out / "aggregate.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # the three trajectories are identical at t = 0
    assert all(float(rows[0][k]) <= 1e-15 for k in ("xi2_stderr", "n_stderr", "f_singlet_stderr"))
    assert rows[-1]["n_mean"] == "0" and rows[-1]["xi2"] == "nan"


OPTIMIZE = {
    "physics": {"c2p_hz": 25.0, "n_atoms": 12},
    "optimizer": {
        "points_per_decade": 10,
        "max_steps": 2,
        "step_time_cap_s": 0.5,
        "ramp": {"q0_hz": 30.0, "T0_s": 0.08, "t_end_s": 0.05},  # keeps a run under 1 s
    },
    "output": {"sample_dt_s": 0.01},
}


@pytest.mark.parametrize("mode", ["amo", "amoa"])
def test_optimize_command_small(tmp_path, mode):
    doc = json.loads(json.dumps(OPTIMIZE))
    doc["optimizer"]["mode"] = mode
    out = _rerun_identical(tmp_path, "optimize", doc, ["schedule.json", "diagnostics.csv", "curve.csv"])
    with (out / "diagnostics.csv").open(newline="", encoding="utf-8") as fh:
        flags = {row["flag"] for row in csv.DictReader(fh)}
    assert flags and flags <= {"", "flat", "capped"}


@pytest.mark.parametrize("mode, ramps", [("amo", 1), ("amoa", 2)])
def test_optimize_integrates_each_ramp_once(tmp_path, monkeypatch, mode, ramps):
    calls = []
    original = propagate.evolve_ramp

    def counting(state, segment, *args, **kwargs):
        calls.append(segment)
        return original(state, segment, *args, **kwargs)

    # every module that imported the integrator by name
    for name, module in list(sys.modules.items()):
        if name.startswith("spinmo") and getattr(module, "evolve_ramp", None) is original:
            monkeypatch.setattr(module, "evolve_ramp", counting)
    doc = json.loads(json.dumps(OPTIMIZE))
    doc["optimizer"]["mode"] = mode
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    segments = json.loads((out / "schedule.json").read_text())["schedule"]["segments"]
    assert len(calls) == ramps == sum(s["kind"] == "parabolic_ramp" for s in segments)


def test_curve_counts_levels_at_the_optimizer_threshold(tmp_path):
    doc = json.loads(json.dumps(OPTIMIZE))
    doc["optimizer"]["k_threshold"] = 0.05
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    k_history = json.loads((out / "schedule.json").read_text())["k_history"]
    with (out / "curve.csv").open(newline="", encoding="utf-8") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert k_history[-1] == 1
    assert int(last["K"]) == k_history[-1]


@pytest.mark.parametrize(
    "q_min_hz, q_max_hz",
    [(0.01, 0.001), (10.0, None)],  # the test ramp ends at 4.2 Hz
    ids=["above-q_max", "above-the-ramp-end"],
)
def test_optimize_q_min_above_the_grid_end_is_a_config_error(tmp_path, capsys, q_min_hz, q_max_hz):
    doc = json.loads(json.dumps(OPTIMIZE))
    doc["optimizer"].update(q_min_hz=q_min_hz, q_max_hz=q_max_hz)
    path = "$.optimizer.q_min_hz"
    with pytest.raises(ConfigError, match=re.escape(path)):
        resolve(doc)
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and path in err["message"]
    assert not out.exists()  # rejected before the entry ramp


def test_optimize_run_info_counts_hold_scans_by_flag(tmp_path, monkeypatch):
    solved = []  # the size of every eigensolve of a hold
    search_solves = []
    eigensolve, search = propagate.eigensolve_tridiagonal, optimizer.run_amo

    def recording(m):
        solved.append(m.size)
        return eigensolve(m)

    def counted_search(*args, **kwargs):
        before = len(solved)
        result = search(*args, **kwargs)
        search_solves.append(len(solved) - before)
        return result

    monkeypatch.setattr(propagate, "eigensolve_tridiagonal", recording)
    monkeypatch.setattr(optimizer, "run_amo", counted_search)
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(write_cfg(tmp_path, OPTIMIZE)), "--out", str(out)]) == 0
    with (out / "diagnostics.csv").open(newline="", encoding="utf-8") as fh:
        flags = [row["flag"] for row in csv.DictReader(fh)]
    scans = json.loads((out / "run_info.json").read_text())["hold_scans"]
    assert scans["total"] == len(flags) > 0
    assert scans["by_flag"] == {flag: flags.count(flag) for flag in ("", "flat", "capped")}
    assert scans["eigensolves"] == search_solves[0] > 0


@pytest.mark.parametrize(
    "section, value, path",
    [
        ("optimizer", {"mode": "amoa"}, "$.optimizer.mode"),
        ("initial_state", {"kind": "twin_fock"}, "$.initial_state.kind"),
        ("initial_state", {"kind": "singlet"}, "$.initial_state.kind"),
    ],
)
def test_odd_atom_number_is_a_config_error(tmp_path, capsys, section, value, path):
    doc = {"physics": {"c2p_hz": 25.0, "n_atoms": 11}, section: value}
    with pytest.raises(ConfigError, match=re.escape(path)):
        resolve(doc)
    out = tmp_path / "odd"
    assert main(["optimize", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and path in err["message"]
    assert not out.exists()  # rejected before the run directory, so before any evolution


def test_zero_length_ramp_is_a_config_error(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["schedule"]["segments"].append(
        {"kind": "parabolic_ramp", "q0_hz": 30.0, "T0_s": 0.08, "t_begin_s": 0.05, "t_end_s": 0.05}
    )
    path = "$.schedule.segments[2]"
    with pytest.raises(ConfigError, match=re.escape(path)):
        resolve(doc)
    out = tmp_path / "zero"
    assert main(["evolve", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 2 and path in err["message"]
    assert not out.exists()


REFERENCE_RAMP_START = {
    "kind": "parabolic_ramp", "q0_hz": 277.0, "T0_s": 0.955, "t_begin_s": 0.0, "t_end_s": 0.005,
}


@pytest.mark.parametrize("n", [20, 40])
def test_evolve_short_ramp_piece(tmp_path, n):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": n},
        "schedule": {"segments": [REFERENCE_RAMP_START]},
        "output": {"sample_dt_s": 1e-3},
    }
    out = tmp_path / "piece"
    assert main(["evolve", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    with (out / "records.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 and float(rows[-1]["t"]) == pytest.approx(0.005)
    assert max(abs(float(r["norm"]) - 1.0) for r in rows) <= 1e-12


def test_loss_on_the_reference_ramp(tmp_path):
    doc = {
        "physics": {"c2p_hz": 25.0, "n_atoms": 20},
        "schedule": {"preset": "reference_ramp"},
        "loss": {"gamma_per_s": 0.5, "n_traj": 2},
        "output": {"sample_dt_s": 0.1},
    }
    out = tmp_path / "loss"
    assert main(["loss", "--config", str(write_cfg(tmp_path, doc)), "--out", str(out)]) == 0
    assert len(json.loads((out / "jumps.json").read_text())) == 2


def test_cli_import_leaves_out_heavy_modules():
    # each costs import time and memory on every run (scipy.optimize, .interpolate
    # and .integrate each about 0.3 s over spinmo.cli on a 2-core host); none is needed
    src = str(Path(spinmo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    unwanted = (
        "jsonschema", "numba", "mpmath", "scipy.integrate", "scipy.interpolate", "scipy.ndimage",
        "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg", "scipy.special",
    )
    code = f"import sys, spinmo.cli; print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
