"""Metamorphic relations: transformations of a scenario document whose
effect on a run is known, checked by bits.

Draws are keyed by node id, not by position, and a node that is never
present with another joins no round.  So reversing the document's node list,
or adding a node that joins after everyone has left, leaves every round of
every policy and every other node's totals as they were, noise included.
"""

import copy

import pytest

from airfair.scenario_io import PRESETS, scenario_from_dict
from airfair.simulate import compare_policies, scale_contact_durations

DURATIONS = (5.0, 10.0, 20.0, 40.0, 80.0)
VARIANTS = {
    "clean": {},
    "loss": {"loss": {"lo": 0.05, "hi": 0.3}, "seed": 3},
    "pcd": {"pcd_error": {"stddev": 1.0}, "seed": 5},
}


def _doc(preset: str, variant: str) -> dict:
    doc = copy.deepcopy(PRESETS[preset])
    doc.pop("loss", None)
    doc.pop("pcd_error", None)
    return {**doc, **copy.deepcopy(VARIANTS[variant])}


def _reversed(doc: dict) -> dict:
    return {**doc, "nodes": doc["nodes"][::-1]}


def _with_late_node(doc: dict) -> dict:
    # a 1 s stay, shorter than every other, so the duration scaling keeps its factor
    end = max(n["leave_s"] for n in doc["nodes"])
    late = {"id": "n0", "join_s": end + 1.0, "leave_s": end + 2.0, "data_mb": 10.0}
    return {**doc, "nodes": [late, *doc["nodes"]]}


def _bits(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def _outcome(doc: dict, duration: float, ids) -> object:
    """Every round of every policy, and the nodes' totals, as float bits;
    the error type when the run raises."""
    try:
        reports = compare_policies(scale_contact_durations(scenario_from_dict(doc), duration))
    except Exception as e:
        return type(e)
    return {
        policy: (
            [(r.members, r.go_id, r.mode, _bits(r.allocation.upload_time), _bits(r.allocation.broadcast_time),
              _bits(r.realized_broadcast),
              _bits((r.nash_realized, r.nash_ideal, r.wpf_vs_ideal))) for r in report.rounds],
            {i: _bits((report.transmitted_mb[i], report.received_mb[i])) for i in ids},
        )
        for policy, report in reports.items()
    }


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_node_order_and_a_node_that_meets_no_one_change_no_run(preset, variant):
    doc = _doc(preset, variant)
    ids = [n["id"] for n in doc["nodes"]]
    for duration in DURATIONS:
        expected = _outcome(doc, duration, ids)
        assert _outcome(_reversed(doc), duration, ids) == expected, duration
        assert _outcome(_with_late_node(doc), duration, ids) == expected, duration
