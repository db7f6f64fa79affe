"""Metamorphic relations: transformations of a scenario document whose
effect on a run is known, checked by bits.

Draws are keyed by node id, not by position, and a node that is never
present with another joins no round and moves no round's index.  So
reversing the document's node list, or adding a node that joins after
everyone has left or leaves before anyone joins, leaves every round of every
policy and every other node's totals as they were, noise included.

Renaming every id with a common prefix keeps their order, and on a clean
document (no loss, no PCD noise) nothing else reads an id, so every round
is the same with its members, GO and totals renamed.  With noise on it is
not a relation: stream keys hash the ids.

Scaling by a power of two is exact in binary floating point.  Every rate and
data amount doubled or halved together leaves every second and metric as it
was, and every time, slot size, PCD error and data amount doubled or
quartered together scales every second and megabit by that factor and leaves
the metrics as they were.  A run that raises raises the same error type
rescaled.
"""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import support

from airfair.scenario_io import PRESETS, scenario_from_dict
from airfair.simulate import PCD_FLOOR, compare_policies, scale_contact_durations

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


def _with_lone_node(doc: dict, early: bool = False) -> dict:
    """A node that joins after everyone has left, or leaves before anyone
    joins: a span of one node before the rounds moves no round's index."""
    # a 1 s stay, shorter than every other, so the duration scaling keeps its factor
    if early:
        start = min(n["join_s"] for n in doc["nodes"])
        lone = {"id": "n0", "join_s": start - 2.0, "leave_s": start - 1.0, "data_mb": 10.0}
    else:
        end = max(n["leave_s"] for n in doc["nodes"])
        lone = {"id": "n0", "join_s": end + 1.0, "leave_s": end + 2.0, "data_mb": 10.0}
    return {**doc, "nodes": [lone, *doc["nodes"]]}


def _renamed(doc: dict, prefix: str) -> dict:
    """Every node id, the pinned GO and the edges' ends with ``prefix`` in front."""
    out = {**doc, "nodes": [{**n, "id": prefix + n["id"]} for n in doc["nodes"]]}
    if doc.get("go") is not None:
        out["go"] = prefix + doc["go"]
    if isinstance(doc.get("connectivity"), dict):
        out["connectivity"] = {"edges": [[prefix + a, prefix + b] for a, b in doc["connectivity"]["edges"]]}
    return out


def _renamed_outcome(outcome, prefix: str):
    """``outcome`` with ``prefix`` in front of every member, GO and total's id."""
    if isinstance(outcome, type):
        return outcome
    return {policy: ([(tuple(prefix + m for m in r[0]), prefix + r[1], *r[2:]) for r in rounds],
                     {prefix + i: bits for i, bits in totals.items()})
            for policy, (rounds, totals) in outcome.items()}


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


def _outcome(doc: dict, duration: float | None, ids, seconds: float = 1.0, megabits: float = 1.0) -> object:
    """Every round of every policy, and the nodes' totals, as float bits,
    with seconds and megabits read in the given units; the error type when
    the run raises.  The timeline is dilated to ``duration`` unless it is None."""
    try:
        scenario = scenario_from_dict(doc)
        reports = compare_policies(scenario if duration is None else scale_contact_durations(scenario, duration))
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
        assert _outcome(_with_lone_node(doc), duration, ids) == expected, duration
        assert _outcome(_with_lone_node(doc, early=True), duration, ids) == expected, duration


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_an_order_preserving_renaming_renames_every_clean_run(preset):
    """The prefixes each reverse the CRC-32 order of ``n2`` and ``n4``,
    which ``dynamic4`` ties at 10 s, so an election that broke the tie by
    an id's hash rather than its order would fail here."""
    doc = _doc(preset, "clean")
    ids = [n["id"] for n in doc["nodes"]]
    for duration in DURATIONS:
        expected = _outcome(doc, duration, ids)
        for prefix in ("x", "node-", "z"):
            got = _outcome(_renamed(doc, prefix), duration, [prefix + i for i in ids])
            assert got == _renamed_outcome(expected, prefix), (duration, prefix)


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


# |z| < 12.3 for every standard normal numpy's ziggurat returns: its tail
# adds at most sqrt(2 * 53 log 2) = 8.6 to the 3.65 where the tail begins
_MAX_ABS_NORMAL = 12.3


@settings(derandomize=True, max_examples=80, deadline=None)
@given(doc=support.documents(), rate_exp=st.sampled_from((-3, -2, -1, 1, 2, 3)),
       time_exp=st.sampled_from((-2, -1, 1, 2, 3)))
def test_relations_hold_on_generated_documents(doc, rate_exp, time_exp):
    """The relations above (node order, a lone node after or before the
    others, and both rescalings), by bits, on generated documents; where the
    original raises, each transformed run raises the same error type.

    The time rescaling is asserted only where no absolute threshold can
    bind.  A round lasts at least 1 s, so every true PCD is at least 1 s,
    and the rescaling is checked only without PCD noise or with a mean of
    at least 0 and sigma 0.04 s: then every estimate exceeds
    1 - 12.3 * 0.04 > 0.4 s, above ``PCD_FLOOR`` at every factor down to
    1/4.  Loads are whole megabits, so no share lies near the 1e-15 s
    threshold, and at these magnitudes the cut cycle's remainders are
    either far from the 1e-12 s cut or rounding residues of about 1e-14 s,
    which stay below it at factors up to 8."""
    ids = [n["id"] for n in doc["nodes"]]
    expected = _outcome(doc, None, ids)
    assert _outcome(_reversed(doc), None, ids) == expected
    assert _outcome(_with_lone_node(doc), None, ids) == expected
    assert _outcome(_with_lone_node(doc, early=True), None, ids) == expected
    rate = 2.0 ** rate_exp
    assert _outcome(_scaled(doc, rate=rate), None, ids, megabits=rate) == expected
    time, pcd = 2.0 ** time_exp, doc.get("pcd_error")
    # every estimate is at least 1 - 12.3 sigma + mean, and must clear the floor at both scales
    if pcd is None or (pcd["mean"] >= 0 and 1.0 - _MAX_ABS_NORMAL * pcd["stddev"] > PCD_FLOOR / min(time, 1.0)):
        assert _outcome(_scaled(doc, time=time), None, ids, seconds=time, megabits=time) == expected
