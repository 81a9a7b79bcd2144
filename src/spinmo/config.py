"""JSON run configuration: schema, validation, default resolution.

One JSON document fully determines one run.  Validation errors carry the
JSON path of the offending value.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import MISSING, fields
from pathlib import Path

import jsonschema

from .errors import ConfigError
from .noise import NoiseConfig
from .opensystem import LossConfig
from .operators import PhysicsParams
from .optimizer import OptimizerConfig
from .propagate import RAMP_DT_S
from .schedule import PRESETS, SAMPLE_DT_DEFAULT_S, SEGMENT_KINDS, reference_ramp
from .schedule import REFERENCE_Q0_HZ, REFERENCE_T0_S, REFERENCE_T_END_S

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

# a segment document is its kind and the fields of that kind's dataclass;
# the positive ones are those the dataclasses' __post_init__ require positive
_SEGMENT_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "kind": {"const": kind},
                **{f.name: _POSITIVE if f.name in ("T0_s", "duration_s") else _NUMBER for f in fields(cls)},
            },
            "required": ["kind", *(f.name for f in fields(cls))],
            "additionalProperties": False,
        }
        for kind, cls in SEGMENT_KINDS.items()
    ]
}

# the keys of the reference ramp, as a preset and as the optimizer's entry ramp
_RAMP_PROPERTIES = {"q0_hz": _NUMBER, "T0_s": _POSITIVE, "t_end_s": _POSITIVE}

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
                "preset": {"enum": list(PRESETS)},
                **_RAMP_PROPERTIES,
                "duration_s": _POSITIVE,
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
                "ramp": {"type": "object", "properties": _RAMP_PROPERTIES, "additionalProperties": False},
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


def _field_defaults(cls) -> dict:
    """The defaults of a config dataclass, less its ``seed``: the
    top-level ``seed`` sets that."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING and f.name != "seed"}


DEFAULTS = {
    "seed": 0,
    "physics": _field_defaults(PhysicsParams),
    "initial_state": {"kind": "polar"},
    "optimizer": {
        "mode": "amo",
        **_field_defaults(OptimizerConfig),
        "ramp": {"q0_hz": REFERENCE_Q0_HZ, "T0_s": REFERENCE_T0_S, "t_end_s": REFERENCE_T_END_S},
    },
    "noise": {"mode": "dephasing", **_field_defaults(NoiseConfig)},
    "loss": {**_field_defaults(LossConfig), "dephasing": True},
    "phase_diagram": {
        "n_list": [100, 1000],
        "points_per_decade": 40,
        "q_min_factor": 0.1,
        "q_max_factor": 10.0,
    },
    "output": {"sample_dt_s": SAMPLE_DT_DEFAULT_S, "ramp_dt_s": None},
}

# the schedule keys each form reads: its segments, or its preset's arguments
_SCHEDULE_KEYS = {
    name: {"preset", *inspect.signature(build).parameters} for name, build in PRESETS.items()
}


def _merge_defaults(doc: dict, defaults: dict) -> dict:
    out = dict(doc)
    for key, val in defaults.items():
        if key not in out:
            out[key] = val if not isinstance(val, dict) else dict(val)
        elif isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(out[key], val)
    return out


def _json_path(where: list) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in where)


def validate(doc: dict) -> None:
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = list(e.absolute_path)
        if e.validator == "additionalProperties":
            # an unknown key is reported at its own path, the first in sorted order
            where.append(min(set(e.instance) - set(e.schema.get("properties", {}))))
        raise ConfigError(f"config invalid at {_json_path(where)}: {e.message}")


def _check_finite(node, where: list) -> None:
    """Every number must be finite: ``json.loads`` reads NaN and Infinity,
    and the schema's bounds let them through."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"config invalid at {_json_path(where)}: {node} is not a finite number")
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, val in items:
        _check_finite(val, [*where, key])


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
    state = {"twin_fock": "twin-Fock", "singlet": "singlet"}.get(cfg["initial_state"]["kind"])
    if state:
        raise ConfigError(
            f"config invalid at $.initial_state.kind: the {state} state "
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


def _check_unread_keys(cfg: dict) -> None:
    """Keys that the rest of the config makes unread: a schedule key its
    form does not read, a start q for a state other than a ground state."""
    sc = cfg.get("schedule", {})
    if "segments" in sc:
        form, reads = "a schedule of 'segments'", {"segments"}
    elif "preset" in sc:
        form, reads = f"the {sc['preset']} preset", _SCHEDULE_KEYS[sc["preset"]]
    else:
        form, reads = "a schedule without 'segments' or 'preset'", set()
    unread = sorted(set(sc) - reads)
    if unread:
        raise ConfigError(f"config invalid at $.schedule.{unread[0]}: {form} does not read it")
    start = cfg["initial_state"]
    if "q_hz" in start and start["kind"] != "ground":
        raise ConfigError(
            "config invalid at $.initial_state.q_hz: only a ground state reads q_hz, "
            f"not {start['kind']!r}"
        )


def _check_hold_grid(cfg: dict) -> None:
    """The hold grid must not start above its end: ``q_max_hz``, or when
    that is null the q at the end of the entry ramp."""
    o = cfg["optimizer"]
    q_max, what = o["q_max_hz"], "q_max_hz"
    if q_max is None:
        ramp = reference_ramp(**o["ramp"])
        q_max = ramp.q_hz_at(ramp.duration)
        what = "the q at the end of the entry ramp"
    if o["q_min_hz"] > q_max:
        raise ConfigError(
            f"config invalid at $.optimizer.q_min_hz: {o['q_min_hz']} Hz is above "
            f"{what} ({q_max} Hz)"
        )


def _check_ramp_dt(cfg: dict) -> None:
    """A ramp step may only be finer than the integrator's own."""
    dt = cfg["output"]["ramp_dt_s"]
    if dt is not None and dt > RAMP_DT_S:
        raise ConfigError(
            f"config invalid at $.output.ramp_dt_s: {dt} s is coarser than the "
            f"ramp step {RAMP_DT_S} s"
        )


def resolve(doc: dict) -> dict:
    """Validate a raw config document and fill in every default."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    validate(doc)
    _check_finite(doc, [])
    cfg = _merge_defaults(doc, DEFAULTS)
    _check_atom_parity(cfg)
    _check_segments(cfg)
    _check_unread_keys(cfg)
    _check_hold_grid(cfg)
    _check_ramp_dt(cfg)
    return cfg


def load(path: str | Path, seed: int | None = None, convention: str | None = None) -> dict:
    """Read and resolve a config file; a ``seed`` or ``convention`` given
    here replaces the file's before validation, so it is checked alike."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        if seed is not None:
            doc["seed"] = seed
        if convention is not None and isinstance(doc.get("physics"), dict):
            doc["physics"]["convention"] = convention
    return resolve(doc)
