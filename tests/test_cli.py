import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import spinmo
from spinmo.cli import main
from spinmo.config import load as load_config, resolve
from spinmo.errors import ConfigError


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


def test_loss_determinism_rerun_identical_bytes(tmp_path):
    doc = json.loads(json.dumps(BASE))
    doc["loss"] = {"gamma_per_s": 2.0, "n_traj": 5}
    names = ["aggregate.csv", "jumps.json", "postselect.json"]
    out = _rerun_identical(tmp_path, "loss", doc, names)
    assert any(s["jumps"] for s in json.loads((out / "jumps.json").read_text()))


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


def test_exit_code_numeric_error(tmp_path, capsys):
    doc = json.loads(json.dumps(BASE))
    doc["output"]["ramp_dt_s"] = 0.02  # violates the step-size precheck
    cfg = write_cfg(tmp_path, doc)
    rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == 3


def test_seed_and_convention_overrides(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "ovr"
    assert main([
        "evolve", "--config", str(cfg), "--out", str(out),
        "--seed", "7", "--convention", "plain",
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7 and manifest["convention"] == "plain"


def test_oscillator_demo(tmp_path):
    cfg = write_cfg(tmp_path, {"physics": {"c2p_hz": 25.0, "n_atoms": 4}})
    out = tmp_path / "osc"
    assert main(["oscillator-demo", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_fidelity"] >= 0.999
    head = (out / "oscillator.csv").read_text().splitlines()[0]
    assert head == "t,x_expect,fidelity_mirror"


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
    cfg = write_cfg(tmp_path, doc)
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
    names = ["schedule.json", "diagnostics.csv", "curve.csv", "manifest.json"]
    for name in names:
        assert (runs[0] / name).exists()
    with (runs[0] / "diagnostics.csv").open(newline="", encoding="utf-8") as fh:
        flags = {row["flag"] for row in csv.DictReader(fh)}
    assert flags and flags <= {"", "flat", "capped"}
    for name in names:
        assert sha(runs[0] / name) == sha(runs[1] / name)


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


def test_optimize_run_info_counts_hold_scans_by_flag(tmp_path):
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(write_cfg(tmp_path, OPTIMIZE)), "--out", str(out)]) == 0
    with (out / "diagnostics.csv").open(newline="", encoding="utf-8") as fh:
        flags = [row["flag"] for row in csv.DictReader(fh)]
    scans = json.loads((out / "run_info.json").read_text())["hold_scans"]
    assert scans["total"] == len(flags) > 0
    assert scans["by_flag"] == {flag: flags.count(flag) for flag in ("", "flat", "capped")}


@pytest.mark.parametrize(
    "section, value, path",
    [
        ("optimizer", {"mode": "amoa"}, "$.optimizer.mode"),
        ("initial_state", {"kind": "twin_fock"}, "$.initial_state.kind"),
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


def test_cli_import_leaves_out_numba_scipy_special_and_sparse_linalg():
    # each costs import time and memory on every run; none is needed
    src = str(Path(spinmo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    unwanted = ("numba", "scipy.special", "scipy.sparse.linalg")
    code = f"import sys, spinmo.cli; print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
