"""Scenario files: JSON schema validation and built-in presets.

A scenario document lists the nodes (with join/leave times, queued data,
upload rate, bargaining weight) plus channel parameters, optional loss and
PCD-error models, and the seed.  Field names are validated strictly:
unknown keys are rejected so typos fail loudly instead of being ignored.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping

from .simulate import LossModel, PcdErrorModel, Scenario, ScenarioNode

__all__ = ["SchemaError", "PRESETS", "preset_scenario", "load_scenario", "scenario_from_dict"]


class SchemaError(ValueError):
    """A scenario document does not match the expected schema."""


_TOP_KEYS = {
    "nodes", "broadcast_mbps", "t_slot_ms", "loss", "pcd_error", "seed",
    "connectivity", "go", "go_alpha_factor",
}
_NODE_KEYS = {"id", "join_s", "leave_s", "data_mb", "data_mb_per_peer", "upload_mbps", "alpha"}
_LOSS_KEYS = {"lo", "hi"}
_ERROR_KEYS = {"stddev", "mean"}

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


def _number(doc: Mapping, key: str, where: str, required: bool = True,
            default: float | None = None) -> float | None:
    if key not in doc:
        if required:
            raise SchemaError(f"{where}: missing required field {key!r}")
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: field {key!r} must be a number, got {type(v).__name__}")
    try:
        v = float(v)
    except OverflowError:      # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise SchemaError(f"{where}: field {key!r} must be finite, got {v!r}")
    return v


def _check_keys(doc: Mapping, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown field(s) {sorted(unknown)}")


def scenario_from_dict(doc: Mapping[str, Any]) -> Scenario:
    if not isinstance(doc, Mapping):
        raise SchemaError("scenario document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "scenario")

    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise SchemaError("scenario: 'nodes' must be a non-empty list")
    nodes = []
    for k, nd in enumerate(raw_nodes):
        where = f"nodes[{k}]"
        if not isinstance(nd, Mapping):
            raise SchemaError(f"{where}: must be an object")
        _check_keys(nd, _NODE_KEYS, where)
        node_id = nd.get("id")
        if not isinstance(node_id, str) or not node_id:
            raise SchemaError(f"{where}: 'id' must be a non-empty string")
        if ("data_mb" in nd) == ("data_mb_per_peer" in nd):
            raise SchemaError(f"{where}: set exactly one of data_mb / data_mb_per_peer")
        try:
            nodes.append(ScenarioNode(
                id=node_id,
                join_s=_number(nd, "join_s", where),
                leave_s=_number(nd, "leave_s", where),
                upload_mbps=_number(nd, "upload_mbps", where, required=False, default=11.0),
                alpha=_number(nd, "alpha", where, required=False, default=1.0),
                data_mb=_number(nd, "data_mb", where, required=False),
                data_mb_per_peer=_number(nd, "data_mb_per_peer", where, required=False),
            ))
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from e

    loss = None
    if doc.get("loss") is not None:
        ld = doc["loss"]
        if not isinstance(ld, Mapping):
            raise SchemaError("scenario: 'loss' must be an object")
        _check_keys(ld, _LOSS_KEYS, "loss")
        try:
            loss = LossModel(_number(ld, "lo", "loss"), _number(ld, "hi", "loss"))
        except ValueError as e:
            raise SchemaError(f"loss: {e}") from e

    pcd_error = None
    if doc.get("pcd_error") is not None:
        ed = doc["pcd_error"]
        if not isinstance(ed, Mapping):
            raise SchemaError("scenario: 'pcd_error' must be an object")
        _check_keys(ed, _ERROR_KEYS, "pcd_error")
        try:
            pcd_error = PcdErrorModel(
                stddev=_number(ed, "stddev", "pcd_error"),
                mean=_number(ed, "mean", "pcd_error", required=False, default=0.0),
            )
        except ValueError as e:
            raise SchemaError(f"pcd_error: {e}") from e

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError("scenario: 'seed' must be an integer")

    connectivity: Any = doc.get("connectivity", "complete")
    if connectivity != "complete":
        if not isinstance(connectivity, Mapping) or set(connectivity) != {"edges"}:
            raise SchemaError("scenario: 'connectivity' must be \"complete\" or {\"edges\": [...]} ")
        edges = connectivity["edges"]
        if not isinstance(edges, list):
            raise SchemaError("connectivity: 'edges' must be a list of [a, b] pairs")
        pairs = []
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
                raise SchemaError("connectivity: each edge must be a pair of node ids")
            pairs.append((e[0], e[1]))
        connectivity = tuple(pairs)

    go = doc.get("go")
    if go is not None and not isinstance(go, str):
        raise SchemaError("scenario: 'go' must be a node id string")

    try:
        return Scenario(
            nodes=tuple(nodes),
            broadcast_mbps=_number(doc, "broadcast_mbps", "scenario"),
            t_slot_s=_number(doc, "t_slot_ms", "scenario") / 1000.0,
            loss=loss,
            pcd_error=pcd_error,
            seed=seed,
            connectivity=connectivity,
            go=go,
            go_alpha_factor=_number(doc, "go_alpha_factor", "scenario", required=False, default=2.0),
        )
    except ValueError as e:
        raise SchemaError(str(e)) from e


def preset_scenario(name: str) -> Scenario:
    if name not in PRESETS:
        raise SchemaError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return scenario_from_dict(PRESETS[name])


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise SchemaError(f"cannot read scenario file: {e}") from e
    except json.JSONDecodeError as e:
        raise SchemaError(f"scenario file is not valid JSON: {e}") from e
    return scenario_from_dict(doc)
