"""Metamorphic relations: transformations of a scenario document whose
effect on a run is known, checked by bits.

Draws are keyed by node id, not by position, and a node that is never
present with another joins no round.  So reversing the document's node list,
or adding a node that joins after everyone has left, leaves every round of
every policy and every other node's totals as they were, noise included.

Scaling by a power of two is exact in binary floating point.  Every rate and
data amount doubled or halved together leaves every second and metric as it
was, and every time, slot size, PCD error and data amount doubled or
quartered together scales every second and megabit by that factor and leaves
the metrics as they were.  A run that raises raises the same error type
rescaled.
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


def _scaled(doc: dict, time: float = 1.0, rate: float = 1.0) -> dict:
    """Every join, leave, slot size and PCD error times ``time``, every
    rate times ``rate``, and every data amount times both."""
    data = time * rate
    nodes = [{**n, "join_s": n["join_s"] * time, "leave_s": n["leave_s"] * time, "upload_mbps": n["upload_mbps"] * rate,
              **{k: n[k] * data for k in ("data_mb", "data_mb_per_peer") if k in n}} for n in doc["nodes"]]
    out = {**doc, "nodes": nodes, "broadcast_mbps": doc["broadcast_mbps"] * rate, "t_slot_ms": doc["t_slot_ms"] * time}
    if "pcd_error" in doc:
        out["pcd_error"] = {k: v * time for k, v in doc["pcd_error"].items()}
    return out


def _bits(values, unit: float = 1.0) -> tuple[str, ...]:
    return tuple(float(v / unit).hex() for v in values)


def _outcome(doc: dict, duration: float, ids, seconds: float = 1.0, megabits: float = 1.0) -> object:
    """Every round of every policy, and the nodes' totals, as float bits,
    with seconds and megabits read in the given units; the error type when
    the run raises."""
    try:
        reports = compare_policies(scale_contact_durations(scenario_from_dict(doc), duration))
    except Exception as e:
        return type(e)
    return {
        policy: (
            [(r.members, r.go_id, r.mode, _bits((r.t_start, r.t_end, r.airtime), seconds),
              _bits(r.allocation.upload_time, seconds), _bits(r.allocation.broadcast_time, seconds),
              _bits(r.realized_broadcast, seconds), _bits(r.delivered_mb, megabits),
              _bits((r.nash_realized, r.nash_ideal, r.wpf_vs_ideal))) for r in report.rounds],
            {i: _bits((report.transmitted_mb[i], report.received_mb[i]), megabits) for i in ids},
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


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_power_of_two_rescalings_scale_only_seconds_and_megabits(preset, variant):
    doc = _doc(preset, variant)
    ids = [n["id"] for n in doc["nodes"]]
    for duration in DURATIONS:
        expected = _outcome(doc, duration, ids)
        for time, rate in ((1.0, 2.0), (1.0, 0.5), (2.0, 1.0), (0.25, 1.0)):
            got = _outcome(_scaled(doc, time, rate), duration * time, ids, seconds=time, megabits=time * rate)
            assert got == expected, (duration, time, rate)
