"""JSON run configuration: schema, validation, default resolution.

One JSON document fully determines one run.  Validation errors carry the
JSON path of the offending value.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema

from .errors import ConfigError

_SEGMENT_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": "parabolic_ramp"},
                "q0_hz": {"type": "number"},
                "T0_s": {"type": "number", "exclusiveMinimum": 0},
                "t_begin_s": {"type": "number"},
                "t_end_s": {"type": "number"},
            },
            "required": ["kind", "q0_hz", "T0_s", "t_begin_s", "t_end_s"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "hold"},
                "q_hz": {"type": "number"},
                "duration_s": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind", "q_hz", "duration_s"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "kind": {"const": "linear_sweep"},
                "q_from_hz": {"type": "number"},
                "q_to_hz": {"type": "number"},
                "duration_s": {"type": "number", "exclusiveMinimum": 0},
            },
            "required": ["kind", "q_from_hz", "q_to_hz", "duration_s"],
            "additionalProperties": False,
        },
    ]
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "physics": {
            "type": "object",
            "properties": {
                "c2p_hz": {"type": "number", "exclusiveMinimum": 0},
                "n_atoms": {"type": "integer", "minimum": 1},
                "q_hz": {"type": "number"},
                "convention": {"enum": ["angular", "plain"]},
            },
            "required": ["c2p_hz", "n_atoms"],
            "additionalProperties": False,
        },
        "initial_state": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["polar", "singlet", "twin_fock", "ground"]},
                "q_hz": {"type": "number"},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "schedule": {
            "type": "object",
            "properties": {
                "segments": {"type": "array", "items": _SEGMENT_SCHEMA},
                "preset": {"enum": ["reference_ramp", "landau_zener"]},
                "q0_hz": {"type": "number"},
                "T0_s": {"type": "number", "exclusiveMinimum": 0},
                "t_end_s": {"type": "number", "exclusiveMinimum": 0},
                "duration_s": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "optimizer": {
            "type": "object",
            "properties": {
                "mode": {"enum": ["amo", "amoa"]},
                "q_min_hz": {"type": "number", "exclusiveMinimum": 0},
                "q_max_hz": {"type": ["number", "null"]},
                "points_per_decade": {"type": "integer", "minimum": 1},
                "dwell_window": {"type": "integer", "minimum": 1},
                "sample_dt_s": {"type": "number", "exclusiveMinimum": 0},
                "step_time_cap_s": {"type": "number", "exclusiveMinimum": 0},
                "max_steps": {"type": "integer", "minimum": 1},
                "k_threshold": {"type": "number", "exclusiveMinimum": 0},
                "refine_factor": {"type": "integer", "minimum": 1},
                "plateau_s": {"type": "number", "exclusiveMinimum": 0},
                "ramp": {
                    "type": "object",
                    "properties": {
                        "q0_hz": {"type": "number"},
                        "T0_s": {"type": "number", "exclusiveMinimum": 0},
                        "t_end_s": {"type": "number", "exclusiveMinimum": 0},
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "noise": {
            "type": "object",
            "properties": {
                "mode": {"enum": ["dephasing", "relaxation"]},
                "delta_bz_gauss": {"type": "number", "minimum": 0},
                "delta_bx_gauss": {"type": "number", "minimum": 0},
                "bz_bias_gauss": {"type": "number", "minimum": 0},
                "q_coeff_hz_per_g2": {"type": "number"},
                "atom_number_spread": {"type": "boolean"},
                "n_traj": {"type": "integer", "minimum": 1},
                "rotating_mode": {"enum": ["averaged", "exact_scaled_p"]},
                "p_scale": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "loss": {
            "type": "object",
            "properties": {
                "gamma_per_s": {"type": "number", "minimum": 0},
                "n_traj": {"type": "integer", "minimum": 1},
                "dephasing": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "oscillator": {
            "type": "object",
            "properties": {
                "mass": {"type": "number", "exclusiveMinimum": 0},
                "omega": {"type": "number", "exclusiveMinimum": 0},
                "displacement_quanta": {"type": "number", "exclusiveMinimum": 0},
                "truncation": {"type": "integer", "minimum": 2},
                "n_samples": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "phase_diagram": {
            "type": "object",
            "properties": {
                "n_list": {"type": "array", "items": {"type": "integer", "minimum": 4}},
                "points_per_decade": {"type": "integer", "minimum": 2},
                "q_min_factor": {"type": "number", "exclusiveMinimum": 0},
                "q_max_factor": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {
                "sample_dt_s": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "ramp_dt_s": {"type": ["number", "null"], "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "required": ["physics"],
    "additionalProperties": False,
}

DEFAULTS = {
    "seed": 0,
    "physics": {"q_hz": 0.0, "convention": "angular"},
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
        "q_coeff_hz_per_g2": 277.0,
        "atom_number_spread": True,
        "n_traj": 100,
        "rotating_mode": "averaged",
        "p_scale": 1.0,
    },
    "loss": {"gamma_per_s": 0.005, "n_traj": 2000, "dephasing": True},
    "oscillator": {
        "mass": 1.0,
        "omega": 1.0,
        "displacement_quanta": 7.0710678118654755,
        "truncation": 150,
        "n_samples": 201,
    },
    "phase_diagram": {
        "n_list": [100, 1000],
        "points_per_decade": 40,
        "q_min_factor": 0.1,
        "q_max_factor": 10.0,
    },
    "output": {"sample_dt_s": 1e-3, "ramp_dt_s": None},
}


def _merge_defaults(doc: dict, defaults: dict) -> dict:
    out = dict(doc)
    for key, val in defaults.items():
        if key not in out:
            out[key] = val if not isinstance(val, dict) else dict(val)
        elif isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(out[key], val)
    return out


def validate(doc: dict) -> None:
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in e.absolute_path
        )
        raise ConfigError(f"config invalid at {path}: {e.message}")


def _check_atom_parity(cfg: dict) -> None:
    """Settings that need an even atom number, which the schema cannot express."""
    n = cfg["physics"]["n_atoms"]
    if n % 2 == 0:
        return
    if cfg["optimizer"]["mode"] == "amoa":
        raise ConfigError(
            "config invalid at $.optimizer.mode: the mirrored protocol (amoa) "
            f"requires an even atom number, got N={n}"
        )
    if cfg["initial_state"]["kind"] == "twin_fock":
        raise ConfigError(
            "config invalid at $.initial_state.kind: the twin-Fock state "
            f"requires an even atom number, got N={n}"
        )


def _check_segments(cfg: dict) -> None:
    """Segment constraints the schema cannot express."""
    for i, seg in enumerate(cfg.get("schedule", {}).get("segments", [])):
        if seg["kind"] == "parabolic_ramp" and seg["t_begin_s"] == seg["t_end_s"]:
            raise ConfigError(
                f"config invalid at $.schedule.segments[{i}]: a parabolic ramp "
                "needs t_begin_s != t_end_s"
            )


def _check_hold_grid(cfg: dict) -> None:
    """The hold grid must not start above its end: ``q_max_hz``, or when
    that is null the q at the end of the entry ramp."""
    o = cfg["optimizer"]
    q_max, what = o["q_max_hz"], "q_max_hz"
    if q_max is None:
        ramp = o["ramp"]
        q_max = ramp["q0_hz"] * (1.0 - ramp["t_end_s"] / ramp["T0_s"]) ** 2
        what = "the q at the end of the entry ramp"
    if o["q_min_hz"] > q_max:
        raise ConfigError(
            f"config invalid at $.optimizer.q_min_hz: {o['q_min_hz']} Hz is above "
            f"{what} ({q_max} Hz)"
        )


def resolve(doc: dict) -> dict:
    """Validate a raw config document and fill in every default."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    validate(doc)
    cfg = _merge_defaults(doc, DEFAULTS)
    _check_atom_parity(cfg)
    _check_segments(cfg)
    _check_hold_grid(cfg)
    return cfg


def load(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve(doc)
