"""Scenario files: JSON schema validation and built-in presets.

A scenario document lists the nodes (with join/leave times, queued data,
upload rate, bargaining weight) plus channel parameters, optional loss and
PCD-error models, and the seed.  Field names are validated strictly:
unknown keys are rejected so typos fail loudly instead of being ignored.

This module checks the JSON shape, the types and that every number is
finite.  Defaults and rules live on the :class:`~airfair.simulate.Scenario`
dataclasses alone, whose ``ValueError`` comes back as a :class:`SchemaError`
naming the object.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from .simulate import LossModel, PcdErrorModel, Scenario, ScenarioNode

__all__ = ["SchemaError", "PRESETS", "preset_scenario", "load_scenario", "scenario_from_dict"]


class SchemaError(ValueError):
    """A scenario document does not match the expected schema."""


# The 6-node reference group: one shared 10 s contact, loads 10..80 mb,
# symmetric 11 mb/s rates, GO pinned to n4 with doubled bargaining weight.
_TABLE1 = {
    "nodes": [
        {"id": "n1", "join_s": 0.0, "leave_s": 10.0, "data_mb": 10.0, "upload_mbps": 11.0},
        {"id": "n2", "join_s": 0.0, "leave_s": 10.0, "data_mb": 20.0, "upload_mbps": 11.0},
        {"id": "n3", "join_s": 0.0, "leave_s": 10.0, "data_mb": 40.0, "upload_mbps": 11.0},
        {"id": "n4", "join_s": 0.0, "leave_s": 10.0, "data_mb": 40.0, "upload_mbps": 11.0},
        {"id": "n5", "join_s": 0.0, "leave_s": 10.0, "data_mb": 60.0, "upload_mbps": 11.0},
        {"id": "n6", "join_s": 0.0, "leave_s": 10.0, "data_mb": 80.0, "upload_mbps": 11.0},
    ],
    "broadcast_mbps": 11.0,
    "t_slot_ms": 20.0,
    "go": "n4",
    "seed": 1,
}

# Four nodes churning through a 20 s window: two unicast phases, two
# GO-coordinated phases, per-peer data amounts, loss and estimation noise.
_DYNAMIC4 = {
    "nodes": [
        {"id": "n1", "join_s": 0.0, "leave_s": 8.0, "data_mb_per_peer": 25.0, "upload_mbps": 11.0},
        {"id": "n2", "join_s": 0.0, "leave_s": 16.0, "data_mb_per_peer": 20.0, "upload_mbps": 11.0},
        {"id": "n3", "join_s": 4.0, "leave_s": 20.0, "data_mb_per_peer": 15.0, "upload_mbps": 11.0},
        {"id": "n4", "join_s": 12.0, "leave_s": 20.0, "data_mb_per_peer": 10.0, "upload_mbps": 11.0},
    ],
    "broadcast_mbps": 11.0,
    "t_slot_ms": 100.0,
    "loss": {"lo": 0.0, "hi": 0.1},
    "pcd_error": {"stddev": 1.0},
    "seed": 33,
}

PRESETS: dict[str, dict] = {"table1": _TABLE1, "dynamic4": _DYNAMIC4}


def _number(value: Any, key: str, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: field {key!r} must be a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:      # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"{where}: field {key!r} must be finite, got {value!r}")
    return value


def _fields(obj: Any, where: str, required: tuple[str, ...], numbers: tuple[str, ...],
            others: tuple[str, ...] = ()) -> dict[str, Any]:
    """The fields of one JSON object: unknown keys rejected, required keys
    present, and every numeric field a finite float.  Absent optional
    fields stay absent, so the dataclass supplies their defaults."""
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: must be an object")
    unknown = set(obj).difference(numbers, others)
    if unknown:
        raise SchemaError(f"{where}: unknown field(s) {sorted(unknown)}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{where}: missing required field {key!r}")
    return {key: _number(v, key, where) if key in numbers else v for key, v in obj.items()}


def _build(cls: type, where: str, fields: Mapping[str, Any]):
    """``cls(**fields)``, with the dataclass's own checks reported as a
    :class:`SchemaError` at ``where``."""
    try:
        return cls(**fields)
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from e


def scenario_from_dict(doc: Mapping[str, Any]) -> Scenario:
    fields = _fields(doc, "scenario", ("nodes", "broadcast_mbps", "t_slot_ms"),
                     ("broadcast_mbps", "t_slot_ms", "go_alpha_factor"),
                     ("nodes", "loss", "pcd_error", "seed", "connectivity", "go"))
    if not isinstance(fields["nodes"], list) or not fields["nodes"]:
        raise SchemaError("scenario: 'nodes' must be a non-empty list")
    nodes = []
    for k, nd in enumerate(fields["nodes"]):
        where = f"nodes[{k}]"
        node = _fields(nd, where, ("join_s", "leave_s"),
                       ("join_s", "leave_s", "data_mb", "data_mb_per_peer", "upload_mbps", "alpha"), ("id",))
        if not isinstance(node.get("id"), str) or not node["id"]:
            raise SchemaError(f"{where}: 'id' must be a non-empty string")
        nodes.append(_build(ScenarioNode, where, node))
    fields["nodes"] = nodes
    fields["t_slot_s"] = fields.pop("t_slot_ms") / 1000.0

    if fields.get("loss") is not None:
        fields["loss"] = _build(LossModel, "loss", _fields(fields["loss"], "loss", ("lo", "hi"), ("lo", "hi")))
    if fields.get("pcd_error") is not None:
        fields["pcd_error"] = _build(PcdErrorModel, "pcd_error",
                                     _fields(fields["pcd_error"], "pcd_error", ("stddev",), ("stddev", "mean")))

    if "seed" in fields and (isinstance(fields["seed"], bool) or not isinstance(fields["seed"], int)):
        raise SchemaError("scenario: 'seed' must be an integer")

    if "connectivity" in fields and fields["connectivity"] != "complete":
        connectivity = fields["connectivity"]
        if not isinstance(connectivity, Mapping) or set(connectivity) != {"edges"}:
            raise SchemaError("scenario: 'connectivity' must be \"complete\" or {\"edges\": [...]} ")
        edges = connectivity["edges"]
        if not isinstance(edges, list):
            raise SchemaError("connectivity: 'edges' must be a list of [a, b] pairs")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
                raise SchemaError("connectivity: each edge must be a pair of node ids")
        fields["connectivity"] = edges

    go = fields.get("go")
    if go is not None and not isinstance(go, str):
        raise SchemaError("scenario: 'go' must be a node id string")

    return _build(Scenario, "scenario", fields)


def preset_scenario(name: str) -> Scenario:
    if name not in PRESETS:
        raise SchemaError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return scenario_from_dict(PRESETS[name])


def load_scenario(path: str | Path) -> Scenario:
    """The scenario in a JSON file, read as UTF-8 (RFC 8259).  A file that
    cannot be read raises :class:`SchemaError`, and so does one that cannot
    be decoded or parsed: bytes that are not UTF-8, invalid JSON, nesting
    too deep for the parser, or an integer too long to convert."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise SchemaError(f"cannot read scenario file: {e}") from e
    except (ValueError, RecursionError) as e:      # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise SchemaError(f"scenario file is not valid JSON: {e}") from e
    return scenario_from_dict(doc)
