import json
import math
import re
from pathlib import Path

import pytest

from airfair import cli
from airfair.scenario_io import PRESETS, SchemaError, load_scenario, preset_scenario, scenario_from_dict


MINIMAL = {
    "nodes": [
        {"id": "a", "join_s": 0.0, "leave_s": 5.0, "data_mb": 3.0},
        {"id": "b", "join_s": 0.0, "leave_s": 5.0, "data_mb": 3.0},
    ],
    "broadcast_mbps": 11.0,
    "t_slot_ms": 20.0,
}


def doc(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


def _delete(path):
    def mutate(d):
        target = d
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return d
    return mutate


def _set(path, value):
    def mutate(d):
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return d
    return mutate


def test_bundled_presets():
    assert set(PRESETS) == {"table1", "dynamic4"}
    t1 = preset_scenario("table1")
    assert len(t1.nodes) == 6
    assert t1.go == "n4"
    assert t1.t_slot_s == pytest.approx(0.02)
    assert t1.loss is None and t1.pcd_error is None
    d4 = preset_scenario("dynamic4")
    assert len(d4.nodes) == 4
    assert (d4.loss.lo, d4.loss.hi) == (0.0, 0.1)
    assert d4.pcd_error.stddev == 1.0
    assert d4.t_slot_s == pytest.approx(0.1)


def test_unknown_preset():
    with pytest.raises(SchemaError, match="unknown preset"):
        preset_scenario("table9")


def test_minimal_document_parses():
    scn = scenario_from_dict(MINIMAL)
    assert [n.id for n in scn.nodes] == ["a", "b"]
    assert scn.t_slot_s == pytest.approx(0.02)
    assert scn.seed == 0
    assert scn.connectivity == "complete"


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(SchemaError, match="unknown field"):
        scenario_from_dict(doc(t_slot="oops"))
    bad_node = doc()
    bad_node["nodes"][0]["pcd"] = 1.0
    with pytest.raises(SchemaError, match=r"nodes\[0\].*unknown field"):
        scenario_from_dict(bad_node)
    with pytest.raises(SchemaError, match="loss.*unknown field"):
        scenario_from_dict(doc(loss={"lo": 0.0, "hi": 0.1, "shape": 2}))
    with pytest.raises(SchemaError, match="pcd_error.*unknown field"):
        scenario_from_dict(doc(pcd_error={"stddev": 1.0, "skew": 2}))


def test_exactly_one_data_field():
    both = doc()
    both["nodes"][0]["data_mb_per_peer"] = 1.0
    with pytest.raises(SchemaError, match="exactly one"):
        scenario_from_dict(both)
    neither = doc()
    del neither["nodes"][0]["data_mb"]
    with pytest.raises(SchemaError, match="exactly one"):
        scenario_from_dict(neither)


def test_numbers_must_be_numbers():
    with pytest.raises(SchemaError, match="must be a number"):
        scenario_from_dict(doc(broadcast_mbps="11"))
    with pytest.raises(SchemaError, match="must be a number"):
        scenario_from_dict(doc(broadcast_mbps=True))
    with pytest.raises(SchemaError, match="seed"):
        scenario_from_dict(doc(seed=1.5))
    with pytest.raises(SchemaError, match="seed"):
        scenario_from_dict(doc(seed=True))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize("path", [
    ("nodes", 0, "data_mb"), ("nodes", 0, "join_s"), ("nodes", 1, "leave_s"), ("nodes", 0, "upload_mbps"),
    ("nodes", 1, "alpha"), ("broadcast_mbps",), ("t_slot_ms",), ("go_alpha_factor",),
    ("loss", "hi"), ("pcd_error", "stddev"), ("pcd_error", "mean"),
], ids=lambda path: ".".join(map(str, path)))
def test_numbers_must_be_finite(path, value):
    d = _set(path, value)(doc(loss={"lo": 0.0, "hi": 0.1}, pcd_error={"stddev": 1.0}))
    with pytest.raises(SchemaError, match=f"field '{path[-1]}' must be finite"):
        scenario_from_dict(d)


def test_non_finite_json_literals_rejected(tmp_path):
    # Python's json module accepts these literals; an infinite leave time
    # used to run the schedule builder forever.
    for literal in ("NaN", "Infinity", "-Infinity"):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(MINIMAL).replace('"leave_s": 5.0', f'"leave_s": {literal}'))
        with pytest.raises(SchemaError, match="must be finite"):
            load_scenario(p)


def test_node_constraints_surface_as_schema_errors():
    swapped = doc()
    swapped["nodes"][0].update(join_s=5.0, leave_s=0.0)
    with pytest.raises(SchemaError, match="join must precede leave"):
        scenario_from_dict(swapped)


def test_connectivity_forms():
    scn = scenario_from_dict(doc(connectivity={"edges": [["a", "b"]]}))
    assert scn.connectivity == (("a", "b"),)
    with pytest.raises(SchemaError, match="connectivity"):
        scenario_from_dict(doc(connectivity="mesh"))
    with pytest.raises(SchemaError, match="pair of node ids"):
        scenario_from_dict(doc(connectivity={"edges": [["a", "b", "c"]]}))
    with pytest.raises(SchemaError, match=r"edge \('a', 'a'\) is a self loop"):
        scenario_from_dict(doc(connectivity={"edges": [["a", "b"], ["a", "a"]]}))


def test_loss_and_error_models_parse():
    scn = scenario_from_dict(doc(loss={"lo": 0.0, "hi": 0.1}, pcd_error={"stddev": 1.0, "mean": 0.5}))
    assert scn.loss.hi == 0.1
    assert scn.pcd_error.mean == 0.5
    with pytest.raises(SchemaError, match="loss"):
        scenario_from_dict(doc(loss={"lo": 0.5, "hi": 0.1}))


def test_load_scenario_roundtrip(tmp_path):
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(doc(seed=7)))
    scn = load_scenario(p)
    assert scn.seed == 7


#: files that cannot be decoded or parsed, which each used to end in a
#: traceback: bytes that are not UTF-8, an array nested deeper than the
#: parser recurses, and a node field of more digits than int() converts
UNPARSABLE = {
    "not-utf8": b"\xff\xfe{}",
    "deep": b"[" * 200_000 + b"]" * 200_000,
    "long-int": json.dumps(MINIMAL).replace('"data_mb": 3.0', '"data_mb": ' + "9" * 5000, 1).encode(),
}


def test_load_scenario_bad_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SchemaError, match="cannot read"):
        load_scenario(missing)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_scenario(broken)
    for name, content in UNPARSABLE.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError, match="^scenario file is not valid JSON: "):
            load_scenario(path)


def test_unparsable_files_exit_2(capsys, tmp_path):
    """The CLI prints one error line for each file and nothing else."""
    for name, content in UNPARSABLE.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        assert cli.main(["allocate", "--scenario", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: scenario file is not valid JSON: ")


def test_empty_document_rejected():
    with pytest.raises(SchemaError, match="nodes"):
        scenario_from_dict({})


@pytest.mark.parametrize("mutate,match", [
    (_delete(("nodes", 0, "join_s")), r"nodes\[0\].*missing required field 'join_s'"),
    (lambda d: [d], r"scenario\W+(document )?must be an? (JSON )?object"),
    (_set(("nodes", 1), "b"), r"nodes\[1\]: must be an object"),
    (_set(("loss",), [0.0, 0.1]), r"loss\W+must be an object"),
    (_set(("pcd_error",), 1.0), r"pcd_error\W+must be an object"),
    (_set(("nodes", 0, "id"), ""), r"nodes\[0\]: 'id' must be a non-empty string"),
    (_set(("nodes", 0, "id"), 7), r"nodes\[0\]: 'id' must be a non-empty string"),
    (_set(("connectivity",), {"edges": "a-b"}), "'edges' must be a list"),
    (_set(("go",), 1), "'go' must be a node id string"),
    (_set(("nodes", 0, "data_mb"), -1.0), r"nodes\[0\].*negative data amount"),
    (_set(("nodes", 0, "upload_mbps"), 0.0), r"nodes\[0\].*upload_mbps must be > 0"),
    (_set(("nodes", 1, "alpha"), -1.0), r"nodes\[1\].*alpha must be > 0"),
    (_set(("broadcast_mbps",), 0.0), "broadcast_mbps must be > 0"),
    (_set(("t_slot_ms",), -20.0), "t_slot_s must be > 0"),
    (_set(("go_alpha_factor",), 0.0), "go_alpha_factor must be > 0"),
    (_set(("pcd_error", "stddev"), -1.0), "pcd_error.*stddev must be >= 0"),
    (_set(("nodes",), []), "scenario: 'nodes' must be a non-empty list"),
], ids=[
    "missing-field", "document", "node", "loss", "pcd_error", "empty-id", "non-string-id", "edges",
    "go", "negative-data", "upload_mbps", "alpha", "broadcast_mbps", "t_slot_ms", "go_alpha_factor",
    "stddev", "no-nodes",
])
def test_rejections_name_the_field(mutate, match):
    d = mutate(doc(loss={"lo": 0.0, "hi": 0.1}, pcd_error={"stddev": 1.0}))
    with pytest.raises(SchemaError, match=match):
        scenario_from_dict(d)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_scenario_parses_and_allocates(tmp_path, capsys):
    block = re.search(r"## Scenario files.*?```json\n(.*?)```", README.read_text(), re.S).group(1)
    scn = scenario_from_dict(json.loads(block))
    assert [n.id for n in scn.nodes] == ["a", "b"]
    p = tmp_path / "readme.json"
    p.write_text(block)
    assert cli.main(["allocate", "--scenario", str(p)]) == 0
    assert "nash_product" in capsys.readouterr().out
