"""JSON run configuration: its rules, their check, default resolution.

One JSON document fully determines one run.  :data:`RULES` gives the rule
of every key; :func:`resolve` walks a document against it and stops at the
first value that breaks its rule, with a :class:`ConfigError` that names
the value's JSON path.  It then fills in :data:`DEFAULTS` and checks the
settings that span several keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from inspect import signature
from pathlib import Path

from .errors import ConfigError
from .noise import NoiseConfig
from .opensystem import LossConfig
from .operators import PhysicsParams
from .optimizer import OptimizerConfig
from .propagate import RAMP_DT_S
from .schedule import PRESETS, SAMPLE_DT_DEFAULT_S, SEGMENT_KINDS, reference_ramp


@dataclass(frozen=True)
class Num:
    """A finite JSON number, above ``gt`` or at least ``ge`` when given;
    ``integer`` takes JSON integers only, ``null`` takes null too."""

    integer: bool = False
    gt: float | None = None
    ge: float | None = None
    null: bool = False


@dataclass(frozen=True)
class Required:
    """The rule of a key its object must hold."""

    rule: object


@dataclass(frozen=True)
class Pick:
    """An object whose rule the value of its ``key`` picks from ``rules``:
    ``rules[ANY]`` for any value, ``rules[None]`` when the key is absent
    (with no such entry the key is required)."""

    key: str
    rules: dict


ANY = ...  # the Pick entry for any value of its key
NUMBER, POSITIVE, NON_NEGATIVE, COUNT = Num(), Num(gt=0), Num(ge=0), Num(integer=True, ge=1)
# the keys of the reference ramp, as a preset and as the optimizer's entry ramp
_RAMP = {"q0_hz": NUMBER, "T0_s": POSITIVE, "t_end_s": POSITIVE}
# a segment reads its kind and every field of that kind's dataclass; the
# positive ones are those its __post_init__ requires positive
_SEGMENT = Pick("kind", {
    kind: {"kind": (kind,), **{
        f.name: Required(POSITIVE if f.name in ("T0_s", "duration_s") else NUMBER) for f in fields(cls)
    }}
    for kind, cls in SEGMENT_KINDS.items()
})
# a preset reads its name and its builder's arguments
_PRESET_ARGS = {**_RAMP, "duration_s": POSITIVE}
_PRESET = Pick("preset", {None: {}, **{
    name: {"preset": (name,), **{a: _PRESET_ARGS[a] for a in signature(build).parameters}}
    for name, build in PRESETS.items()
}})

RULES = {
    "seed": Num(integer=True, ge=0),
    "physics": Required({
        "c2p_hz": Required(POSITIVE), "n_atoms": Required(COUNT),
        "q_hz": NUMBER, "convention": ("angular", "plain"),
    }),
    # only a ground state reads a start q
    "initial_state": Pick("kind", {
        **{kind: {"kind": (kind,)} for kind in ("polar", "singlet", "twin_fock")},
        "ground": {"kind": ("ground",), "q_hz": NUMBER},
    }),
    # a schedule reads its segments, or else a preset
    "schedule": Pick("segments", {ANY: {"segments": [_SEGMENT]}, None: _PRESET}),
    "optimizer": {
        "mode": ("amo", "amoa"), "q_min_hz": POSITIVE, "q_max_hz": Num(null=True),
        "points_per_decade": COUNT, "dwell_window": COUNT, "max_steps": COUNT, "refine_factor": COUNT,
        "sample_dt_s": POSITIVE, "step_time_cap_s": POSITIVE,
        "k_threshold": POSITIVE, "plateau_s": POSITIVE, "ramp": _RAMP,
    },
    "noise": {
        "mode": ("dephasing", "relaxation"), "atom_number_spread": bool,
        "delta_bz_gauss": NON_NEGATIVE, "delta_bx_gauss": NON_NEGATIVE, "bz_bias_gauss": NON_NEGATIVE,
        "n_traj": COUNT,
    },
    "loss": {"gamma_per_s": NON_NEGATIVE, "n_traj": COUNT, "dephasing": bool},
    "phase_diagram": {
        "n_list": [Num(integer=True, ge=4)], "points_per_decade": Num(integer=True, ge=2),
        "q_min_factor": POSITIVE, "q_max_factor": POSITIVE,
    },
    "output": {"sample_dt_s": Num(gt=0, null=True), "ramp_dt_s": Num(gt=0, null=True)},
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
        "ramp": {a: p.default for a, p in signature(reference_ramp).parameters.items()},
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


def _merge_defaults(doc: dict, defaults: dict) -> dict:
    out = dict(doc)
    for key, val in defaults.items():
        if key not in out:
            out[key] = val if not isinstance(val, dict) else dict(val)
        elif isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(out[key], val)
    return out


def _check(node, rule, where: str = "$") -> None:
    """Raise a :class:`ConfigError` at the first value under ``node``, whose
    JSON path is ``where``, that breaks ``rule``.  Keys are walked in sorted
    order, so the error named does not hang on the order of the file."""
    why = None
    if isinstance(rule, Num):
        if isinstance(node, bool) or not isinstance(node, int if rule.integer else (int, float)):
            why = None if node is None and rule.null else "an integer" if rule.integer else "a number"
        elif isinstance(node, float) and not math.isfinite(node):
            why = "a finite number"
        elif rule.gt is not None and not node > rule.gt:
            why = f"> {rule.gt}"
        elif rule.ge is not None and not node >= rule.ge:
            why = f">= {rule.ge}"
    elif rule is bool:
        why = None if isinstance(node, bool) else "true or false"
    elif isinstance(rule, tuple):
        why = None if node in rule else f"one of {json.dumps(rule)}"
    elif isinstance(rule, list):
        why = None if isinstance(node, list) else "an array"
        for i, item in enumerate(node if why is None else ()):
            _check(item, rule[0], f"{where}[{i}]")
    elif not isinstance(node, dict):
        why = "an object"
    elif isinstance(rule, Pick):
        if rule.key not in node:
            choice = None
        elif ANY in rule.rules:
            choice = ANY
        else:
            choice = node[rule.key]
            _check(choice, tuple(c for c in rule.rules if c is not None), f"{where}.{rule.key}")
        if choice not in rule.rules:
            raise ConfigError(f"config invalid at {where}: {rule.key!r} is required")
        _check(node, rule.rules[choice], where)
    else:
        missing = [key for key, r in rule.items() if isinstance(r, Required) and key not in node]
        if missing:
            raise ConfigError(f"config invalid at {where}: {missing[0]!r} is required")
        unknown = sorted(set(node) - set(rule))
        if unknown:
            raise ConfigError(f"config invalid at {where}.{unknown[0]}: nothing reads this key here")
        for key in sorted(node):
            _check(node[key], r.rule if isinstance(r := rule[key], Required) else r, f"{where}.{key}")
    if why:
        raise ConfigError(f"config invalid at {where}: {json.dumps(node, default=str)} is not {why}")


def _check_atom_parity(cfg: dict) -> None:
    """Settings that need an even atom number."""
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
    """Segment constraints that span two of its keys."""
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
        ramp = reference_ramp(**o["ramp"])
        q_max = ramp.q_hz_at(ramp.duration)
        what = "the q at the end of the entry ramp"
    if o["q_min_hz"] > q_max:
        raise ConfigError(
            f"config invalid at $.optimizer.q_min_hz: {o['q_min_hz']} Hz is above "
            f"{what} ({q_max} Hz)"
        )


def _check_phase_grid(cfg: dict) -> None:
    """The phase-diagram q grid must not start above its end."""
    lo, hi = cfg["phase_diagram"]["q_min_factor"], cfg["phase_diagram"]["q_max_factor"]
    if lo > hi:
        raise ConfigError(
            f"config invalid at $.phase_diagram.q_min_factor: {lo} is above q_max_factor ({hi})"
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
    _check(doc, RULES)
    cfg = _merge_defaults(doc, DEFAULTS)
    _check_atom_parity(cfg)
    _check_segments(cfg)
    _check_hold_grid(cfg)
    _check_phase_grid(cfg)
    _check_ramp_dt(cfg)
    return cfg


def load(path: str | Path, seed: int | None = None) -> dict:
    """Read and resolve a config file; a ``seed`` given here replaces the
    file's before validation, so it is checked alike."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and seed is not None:
        doc["seed"] = seed
    return resolve(doc)
