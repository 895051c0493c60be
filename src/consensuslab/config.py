"""Flat sectioned key/value scenario configs.

Sections: [cascade], [graph], [stage.k], [init], [disturbance],
[integrator], [metrics]. Values are scalars, strings, or JSON lists.
Unknown sections or keys are rejected with the offending line number, and
``parse_scenario(emit_scenario(sc))`` reproduces ``sc`` exactly. Parsing
checks syntax alone: ``scenario.validate_scenario`` checks what will run.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .exceptions import ConfigError
from .scenario import Scenario, StageSpec


def _to_int(value, line):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", line) from None


def _to_float(value, line):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}", line) from None


def _to_tuple(value, line):
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        raise ConfigError(f"expected a JSON list, got {value!r}", line) from None
    if not isinstance(parsed, list):
        raise ConfigError(f"expected a JSON list, got {value!r}", line)
    return tuple(tuple(v) if isinstance(v, list) else v for v in parsed)


def _string(value, line):
    return value


# Section -> {key: (Scenario or StageSpec field, converter)}, in emit order.
# [stage] stands for every [stage.k]. A key absent from a file takes the
# dataclass default.
_SCHEMA = {
    "cascade": {
        "name": ("name", _string),
        "seed": ("seed", _to_int),
        "order": ("order", _to_int),
        "controller": ("controller", _string),
    },
    "graph": {
        "kind": ("graph_kind", _string),
        "n": ("graph_n", _to_int),
        "edges": ("graph_edges", _to_tuple),
    },
    "stage": {
        "kind": ("kind", _string),
        "scale": ("scale", _to_float),
        "omega": ("omega", _to_tuple),
        "phi": ("phi", _to_tuple),
        "gains": ("gains", _to_tuple),
        "ref": ("ref", _string),
        "delay": ("delay", _string),
    },
    "init": {
        "preset": ("init_preset", _string),
        "x0": ("x0", _to_tuple),
        "xdot0": ("xdot0", _to_tuple),
        "xi0": ("xi0", _to_tuple),
        "d_ref": ("d_ref", _to_tuple),
    },
    "disturbance": {
        "kind": ("disturbance_kind", _string),
        "vector": ("disturbance_vector", _to_tuple),
        "sup": ("disturbance_sup", _to_float),
    },
    "integrator": {
        "dt": ("dt", _to_float),
        "t_end": ("t_end", _to_float),
        "record_every": ("record_every", _to_int),
    },
    "metrics": {
        "tolerance": ("tolerance", _to_float),
        "tail_fraction": ("tail_fraction", _to_float),
    },
}


def _raw_sections(text: str):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            base = name.split(".", 1)[0]
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            if base == "stage":
                parts = name.split(".")
                if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                    raise ConfigError(f"bad stage section [{name}]", lineno)
            elif name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ConfigError("key/value before any section header", lineno)
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, value = key.strip(), value.strip()
        base = current.split(".", 1)[0]
        if key not in _SCHEMA[base]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _convert(base, section):
    """Dataclass field values of the keys present in one parsed section."""
    return {
        field: conv(*section[key])
        for key, (field, conv) in _SCHEMA[base].items() if key in section
    }


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario config's syntax alone; ConfigError carries the line."""
    sections = _raw_sections(text)

    if "cascade" not in sections:
        raise ConfigError("missing required section [cascade]")
    # Scenario fields a file may leave out although the dataclass has no default.
    fields = {"name": "scenario", "seed": 0, "controller": "compositional"}
    fields.update(_convert("cascade", sections.pop("cascade")))
    if "order" not in fields:
        raise ConfigError("[cascade] needs an order")
    if "graph" not in sections:
        raise ConfigError("missing required section [graph]")
    fields.update(_convert("graph", sections.pop("graph")))
    if "graph_kind" not in fields or "graph_n" not in fields:
        raise ConfigError("[graph] needs kind and n")

    order = fields["order"]
    stages = []
    for k in range(1, order + 1):
        sect = sections.pop(f"stage.{k}", None)
        if sect is None:
            raise ConfigError(f"missing section [stage.{k}] for order {order}")
        # A missing kind is left for validation to reject as unknown.
        stages.append(StageSpec(**{"kind": "", **_convert("stage", sect)}))
    extra_stage = [s for s in sections if s.startswith("stage.")]
    if extra_stage:
        raise ConfigError(f"stage sections beyond the declared order: {extra_stage}")

    for base, sect in sections.items():
        fields.update(_convert(base, sect))
    return Scenario(stages=tuple(stages), **fields)


def _fmt(value):
    # A numpy scalar is written as the plain number it holds, which parses back to it.
    if isinstance(value, (tuple, list)):
        return json.dumps([list(v) if isinstance(v, tuple) else v for v in value],
                          default=np.generic.item)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_scenario(sc: Scenario) -> str:
    """Canonical config text; parse(emit(sc)) == sc."""
    out = []

    def section(title, base, obj):
        body = [(key, getattr(obj, field)) for key, (field, _) in _SCHEMA[base].items()]
        body = [(k, v) for k, v in body if v is not None]
        if not body:
            return
        out.append(f"[{title}]")
        out.extend(f"{k} = {_fmt(v)}" for k, v in body)
        out.append("")

    for base in _SCHEMA:
        if base == "stage":
            for k, st in enumerate(sc.stages, start=1):
                section(f"stage.{k}", base, st)
        else:
            section(base, base, sc)
    return "\n".join(out)


def scenario_hash(text: str) -> str:
    """Short content hash of a scenario's config text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]
