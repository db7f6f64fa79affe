import json
import math
import re
import shlex
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from airfair import cli
from airfair.bargaining import InfeasibleProblemError, gnbs_allocate
from airfair.grouping import ScheduleError
from airfair.scenario_io import PRESETS, load_scenario, preset_scenario, scenario_from_dict
from airfair.simulate import PcdErrorModel, repeated_contacts, run_scenario, scale_contact_durations


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_allocate_table_format(capsys):
    code, out, _ = run_cli(capsys, "allocate", "--preset", "table1", "--format", "table")
    assert code == 0
    assert "nash_product 0.335795" in out
    assert "wpf_vs_gsa 0.000000" in out
    go_line = next(l for l in out.splitlines() if l.startswith("n4"))
    assert "go" in go_line and "2.857" in go_line


def test_allocate_csv_format(capsys):
    code, out, err = run_cli(capsys, "allocate", "--preset", "table1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node_id,role,upload_s,broadcast_s,rate_mbps,utility"
    assert len(lines) == 7
    n1 = lines[1].split(",")
    assert n1[0] == "n1" and n1[1] == "client"
    assert float(n1[2]) == pytest.approx(0.714286)
    assert float(n1[3]) == pytest.approx(0.714286)
    assert "nash_product=" in err
    # the GO relays without uploading; every client uploads
    rows = [line.split(",") for line in lines[1:]]
    assert sum(row[1] == "go" for row in rows) == 1
    assert all((row[1] == "go") == (row[2] == "0.000000") for row in rows)


def test_allocate_unicast_pair_uploads_nothing(capsys):
    # dynamic4's round 0 is a unicast pair, which talks directly
    code, out, _ = run_cli(capsys, "allocate", "--preset", "dynamic4", "--format", "csv")
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["0.000000", "0.000000"]


@pytest.mark.parametrize("policy,solves", [("gsa", 0), ("eql", 1), ("wtd", 1)])
def test_allocate_solves_gsa_again_only_under_another_policy(capsys, monkeypatch, policy, solves):
    # under gsa the round's allocation is the one wpf_vs_gsa compares with
    calls = []

    def counted(problem):
        calls.append(problem)
        return gnbs_allocate(problem)

    monkeypatch.setattr(cli, "gnbs_allocate", counted)
    code, _, _ = run_cli(capsys, "allocate", "--preset", "table1", "--policy", policy)
    assert code == 0
    assert len(calls) == solves


@pytest.mark.parametrize("policy", ["gsa", "eql", "wtd"])
def test_allocate_of_idle_round_prints_nan_metrics(capsys, tmp_path, policy):
    """A round where no member has data is idle: its metrics are NaN, as on
    the run's record, not the empty product 1 and the empty sum 0."""
    nodes = [{"id": x, "join_s": 0.0, "leave_s": 10.0, "data_mb": 0.0} for x in "abc"]
    doc = {"nodes": nodes, "broadcast_mbps": 11.0, "t_slot_ms": 20.0}
    rnd = run_scenario(scenario_from_dict(doc), policy).rounds[0]
    assert rnd.idle and math.isnan(rnd.nash_realized) and math.isnan(rnd.wpf_vs_ideal)
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "allocate", "--scenario", str(path), "--policy", policy)
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == ["nash_product nan", "wpf_vs_gsa nan"]
    code, out, err = run_cli(capsys, "allocate", "--scenario", str(path), "--policy", policy, "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 4
    assert err == "nash_product=nan\nwpf_vs_gsa=nan\n"


@pytest.mark.parametrize(
    "policy,n1_broadcast", [("gsa", 5.0 / 7.0), ("eql", 10.0 / 11.0), ("wtd", 10.0 / 46.0)]
)
def test_allocate_policies(capsys, policy, n1_broadcast):
    code, out, _ = run_cli(capsys, "allocate", "--preset", "table1", "--policy", policy, "--format", "csv")
    assert code == 0
    n1 = out.strip().splitlines()[1].split(",")
    assert float(n1[3]) == pytest.approx(n1_broadcast, abs=1e-6)


def _table1_nodes(fields_of) -> dict:
    """table1 with node k's fields updated by ``fields_of(k)``."""
    return {**PRESETS["table1"], "nodes": [{**n, **fields_of(k)} for k, n in enumerate(PRESETS["table1"]["nodes"])]}


ALLOCATE_DOCS = {
    "table1": PRESETS["table1"],
    "dynamic4": PRESETS["dynamic4"],
    "table1-n1-empty": _table1_nodes(lambda k: {"data_mb": 0.0} if k == 0 else {}),
    "table1-80s": _table1_nodes(lambda k: {"leave_s": 80.0}),
}


@pytest.mark.parametrize("name", sorted(ALLOCATE_DOCS))
def test_allocate_formats_print_the_same_rows(capsys, tmp_path, name):
    """The table and the csv list the round's members with their roles in
    member order, and agree on every number to the table's 3 decimals and
    on the metrics to 6.  n1 with no data sits out and prints utility 0;
    at 80 s the round is saturated."""
    doc = ALLOCATE_DOCS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for policy in ("gsa", "eql", "wtd"):
        rnd = run_scenario(scenario_from_dict(doc), policy).rounds[0]
        code, table, _ = run_cli(capsys, "allocate", "--scenario", str(path), "--policy", policy)
        assert code == 0
        code, csv, err = run_cli(capsys, "allocate", "--scenario", str(path), "--policy", policy, "--format", "csv")
        assert code == 0
        header, _, *lines = table.splitlines()
        assert header.endswith("saturated" if rnd.allocation.saturated else "contended")
        table_rows = [line.split() for line in lines if len(line.split()) == 6]
        csv_rows = [line.split(",") for line in csv.splitlines()[1:]]
        assert [r[:2] for r in table_rows] == [r[:2] for r in csv_rows] == [
            [m, "go" if m == rnd.go_id else "client"] for m in rnd.members]
        for t, c, upload, broadcast in zip(table_rows, csv_rows, rnd.allocation.upload_time,
                                           rnd.allocation.broadcast_time):
            assert [float(v) for v in c[2:4]] == pytest.approx([upload, broadcast], abs=5e-7)
            assert [float(v) for v in t[2:]] == pytest.approx([float(v) for v in c[2:]], abs=5e-4 + 5e-7)
        metrics = [line.split() for line in lines[-2:]]
        assert [key for key, _ in metrics] == ["nash_product", "wpf_vs_gsa"]
        assert [line.split("=")[0] for line in err.splitlines()] == ["nash_product", "wpf_vs_gsa"]
        assert [float(line.split("=")[1]) for line in err.splitlines()] == pytest.approx(
            [float(value) for _, value in metrics], abs=5e-7)
        if name == "table1-n1-empty":
            assert csv_rows[0][3:] == ["0.000000"] * 3
        if name == "table1-80s":
            assert rnd.allocation.saturated


def test_schedule_csv(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--preset", "table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node_id,kind,start_s,duration_s"
    assert lines[1] == "n1,upload,0.000000,0.010000"
    assert lines[2] == "n1,broadcast,0.010000,0.010000"
    # the first cycle: each client's upload and broadcast legs in id order, the GO n4's broadcast leg last
    assert [line.rsplit(",", 2)[0] for line in lines[1:12]] == [
        "n1,upload", "n1,broadcast", "n2,upload", "n2,broadcast", "n3,upload", "n3,broadcast",
        "n5,upload", "n5,broadcast", "n6,upload", "n6,broadcast", "n4,broadcast"]


def test_schedule_table(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--preset", "table1", "--format", "table")
    assert code == 0
    header, *rows = out.splitlines()
    count = int(re.fullmatch(r"round 0: cycle [0-9.]+ ms, (\d+) slots from 0\.000s", header).group(1))
    assert count > 0 and len(rows) == count
    assert rows[0].split() == ["n1", "upload", "0.000000", "0.010000"]


def test_schedule_of_idle_round_is_header_only(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--preset", "dynamic4", "--round", "2")
    assert code == 0
    assert out.strip() == "node_id,kind,start_s,duration_s"


def test_schedule_of_idle_round_as_table(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--preset", "dynamic4", "--round", "2", "--format", "table")
    assert code == 0
    assert out == "round 2: 0 slots from 8.000s\n"


def test_schedule_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--preset", "dynamic4", "--round", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "node_id,kind,start_s,duration_s"
    assert lines[1] == "n2,upload,12.000000,0.051629"
    entries = cli._round(preset_scenario("dynamic4"), "gsa", 3).schedule.entries
    assert len(lines) == 1 + len(entries)


def test_schedule_round_out_of_range(capsys):
    code, _, err = run_cli(capsys, "schedule", "--preset", "table1", "--round", "9")
    assert code == 2
    assert "out of range" in err


def test_one_round_commands_run_only_the_rounds_up_to_theirs(capsys, tmp_path):
    """Round 0 (0-10.04 s) of this document runs, and round 1 lasts 10 ms,
    less than one cycle: printing round 0 does not run round 1."""
    doc = {
        "nodes": [
            {"id": "a", "join_s": 0.0, "leave_s": 10.05, "data_mb": 40.0},
            {"id": "b", "join_s": 0.0, "leave_s": 10.05, "data_mb": 30.0},
            {"id": "c", "join_s": 0.0, "leave_s": 10.04, "data_mb": 20.0},
        ],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 20.0,
        "seed": 3,
    }
    path = tmp_path / "late.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "schedule", "--scenario", str(path), "--round", "0")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "node_id,kind,start_s,duration_s" and rows
    assert all(0.0 <= float(row.split(",")[2]) < 10.04 for row in rows)
    code, out, _ = run_cli(capsys, "allocate", "--scenario", str(path))
    assert code == 0
    assert out.startswith("policy gsa: airtime 10.040s")
    assert [line.split()[:2] for line in out.splitlines()[2:5]] == [["a", "go"], ["b", "client"], ["c", "client"]]
    with pytest.raises(ScheduleError, match=r"^round 1 at 10\.04s: one cycle \([0-9.]+s\) exceeds the interval"):
        cli.main(["schedule", "--scenario", str(path), "--round", "1"])


def test_simulate_writes_reports(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, _ = run_cli(capsys, "simulate", "--preset", "dynamic4", "--out", str(out_dir))
    assert code == 0
    rounds = (out_dir / "rounds.csv").read_text().strip().splitlines()
    assert rounds[0].startswith("round,start_s,end_s,mode,go_id,members")
    assert len(rounds) == 6
    assert rounds[1].split(",")[3] == "unicast-pair"
    assert rounds[2].split(",")[3] == "go-coordinated"
    delivery = (out_dir / "delivery.csv").read_text().strip().splitlines()
    assert delivery[0] == "node_id,transmitted_mb,received_mb"
    assert [l.split(",")[0] for l in delivery[1:]] == ["n1", "n2", "n3", "n4"]
    # every node heard something: received_mb is folded from the rounds' records after the run
    assert all(float(l.split(",")[2]) > 0 for l in delivery[1:])
    metrics = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert metrics[1] == "rounds,5"


@pytest.mark.parametrize("under", ["", "reports"], ids=["file", "under-file"])
def test_simulate_out_that_cannot_be_written_exits_2(capsys, tmp_path, monkeypatch, under):
    """An --out naming an existing file, or a directory under one, fails
    with one line and exit 2, as an unreadable --scenario does, and before
    the scenario runs."""
    def run_scenario(*args, **kwargs):
        raise AssertionError("the scenario ran before --out was checked")

    monkeypatch.setattr(cli, "run_scenario", run_scenario)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    code, out, err = run_cli(capsys, "simulate", "--preset", "dynamic4", "--out", str(taken / under))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write reports: ")
    assert str(taken) in err
    assert taken.read_text() == "keep"


def test_simulate_reports_that_cannot_be_written_exit_2(capsys, tmp_path):
    """An --out directory that already holds a directory where a report
    goes fails after the run with one line and exit 2, listing nothing."""
    (tmp_path / "rounds.csv").mkdir()
    code, out, err = run_cli(capsys, "simulate", "--preset", "dynamic4", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write reports: ")
    assert "rounds.csv" in err


def test_scenario_that_never_forms_a_group_exits_2(capsys, tmp_path):
    """Nodes that are never present together leave no round to allocate
    or print."""
    apart = [{"id": x, "join_s": t, "leave_s": t + 1.0, "data_mb": 1.0} for x, t in (("a", 0.0), ("b", 2.0))]
    path = tmp_path / "apart.json"
    path.write_text(json.dumps({"nodes": apart, "broadcast_mbps": 11.0, "t_slot_ms": 20.0}))
    for command in ("allocate", "schedule"):
        code, out, err = run_cli(capsys, command, "--scenario", str(path))
        assert code == 2 and out == ""
        assert err == "error: scenario never forms a group of two or more nodes\n"


def test_simulate_byte_identical_per_seed(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, "simulate", "--preset", "dynamic4", "--out", str(a))[0] == 0
    assert run_cli(capsys, "simulate", "--preset", "dynamic4", "--out", str(b))[0] == 0
    for name in ("rounds.csv", "delivery.csv", "metrics.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_changes_output(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "simulate", "--preset", "dynamic4", "--out", str(a))
    run_cli(capsys, "simulate", "--preset", "dynamic4", "--seed", "99", "--out", str(b))
    assert (a / "rounds.csv").read_bytes() != (b / "rounds.csv").read_bytes()


def test_simulate_prints_round_listing(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", "--preset", "dynamic4", "--out", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "round 0: (0, 4]s  mode=unicast-pair  go=n1  horizon=8.123s"
    assert "round 1: (4, 8]s  mode=go-coordinated  go=n3  horizon=4.027s" in lines
    assert "  n3       allocated   2.014s  realized   2.000s  delivered   22.000 mb" in lines
    assert "round 2: (8, 12]s  mode=unicast-pair  go=n2  horizon=7.664s  (idle)" in lines
    assert lines[-1] == f"policy gsa: 5 rounds, nash_realized 0.585849, reports in {tmp_path}"


def test_compare_output(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--preset", "table1", "--durations", "5,10", "--reps", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "duration_s,gsa,eql,wtd"
    assert len(lines) == 3
    for line in lines[1:]:
        _, gsa, eql, wtd = (float(v) for v in line.split(","))
        assert gsa >= eql - 1e-9
        assert gsa >= wtd - 1e-9


def test_sweep_output(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--preset", "table1", "--slot-sizes", "20,50", "--reps", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t_slot_ms,mean_wpf,stddev_wpf"
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[1]) <= 1e-9


def test_sweep_runs_slots_far_smaller_than_any_schedule_prints(capsys):
    # at a 1e-12 s basic slot one 10 s round holds ~1e13 slots; the replay
    # reads the cycle, not the slots, so the sweep is as quick as at 20 ms
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "sweep", "--preset", "table1", "--slot-sizes", "1e-9", "--reps", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "t_slot_ms,mean_wpf,stddev_wpf"
    assert row.startswith("1e-09,")
    assert all(math.isfinite(float(v)) for v in row.split(","))


def test_sweep_rejects_slot_sizes_below_the_float_spacing():
    # a 1e-303 s leg cannot move a slot start at 6 s, whatever the slot count
    start = time.perf_counter()
    with pytest.raises(ScheduleError, match=r"^round 0 at 0s: the slots do not reach the interval's end"):
        cli.main(["sweep", "--preset", "table1", "--slot-sizes", "1e-300", "--reps", "1"])
    assert time.perf_counter() - start < 1.0


def test_row_labels_stay_distinct(capsys):
    # six decimals where they read back as the value, the shortest
    # round-trip form where they do not
    code, out, _ = run_cli(capsys, "sweep", "--preset", "table1", "--slot-sizes", "1e-9,1e-6", "--reps", "1")
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["1e-09", "0.000001"]
    code, out, _ = run_cli(capsys, "compare", "--preset", "table1", "--durations", "5.0000001,5", "--reps", "1")
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["5.0000001", "5.000000"]


def _table1_file(tmp_path, doc_fields, **node_fields):
    doc = {**json.loads(json.dumps(PRESETS["table1"])), **doc_fields}
    for node in doc["nodes"]:
        node.update(node_fields)
    path = tmp_path / "table1.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_slots_below_the_float_spacing_raise_schedule_error(tmp_path):
    # at 1e15 s the float spacing is 0.125 s and every 10-40 ms leg rounds
    # away, so no slot start would advance; the slot arrays used to grow
    # until memory ran out.  Running the scenario and printing its schedule
    # fail alike.
    scenario = _table1_file(tmp_path, {}, join_s=1e15, leave_s=1e15 + 10)
    for argv in (["compare", "--scenario", scenario, "--durations", "10", "--reps", "1"],
                 ["schedule", "--scenario", scenario]):
        start = time.perf_counter()
        with pytest.raises(ScheduleError, match=r"round 0 at 1e\+15s: .*do not reach the interval's end"):
            cli.main(argv)
        assert time.perf_counter() - start < 1.0


def _schedule_head(scenario: str, lines: int, *flags: str) -> list[bytes]:
    """The first lines ``airfair schedule`` prints of the scenario's round 0
    to a reader that then closes the pipe, after checking that the command
    exits 1 with nothing on stderr."""
    with subprocess.Popen([sys.executable, "-m", "airfair", "schedule", "--scenario", scenario, *flags],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""
    return head


def test_schedule_of_trillions_of_slots_prints_at_once(tmp_path):
    """Round 0 at a 1e-12 s basic slot holds some 1e13 slots: its header and
    first rows print as soon as the round has run, and a reader that stops
    after two lines ends the command with exit 1 and nothing on stderr."""
    scenario = _table1_file(tmp_path, {"t_slot_ms": 1e-9})
    start = time.perf_counter()
    head = _schedule_head(scenario, 2)
    assert time.perf_counter() - start < 1.0
    assert head == [b"node_id,kind,start_s,duration_s\n", b"n1,upload,0.00000000000000,0.00000000000050\n"]


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_schedule_rows_of_sub_microsecond_slots_stay_distinct(tmp_path, fmt):
    """At a 1e-9 s basic slot six decimals would print every duration as 0
    and repeat starts; the rows carry enough decimals that the shortest leg
    reads as nonzero, so each row has its own start."""
    scenario = _table1_file(tmp_path, {"t_slot_ms": 1e-6})
    start = time.perf_counter()
    header, *lines = _schedule_head(scenario, 9, "--format", fmt)
    assert time.perf_counter() - start < 20.0
    if fmt == "csv":
        assert header == b"node_id,kind,start_s,duration_s\n"
    rows = [line.decode().replace(",", " ").split() for line in lines]
    starts = [float(row[2]) for row in rows]
    assert starts == sorted(set(starts))
    assert all(float(row[3]) > 0 for row in rows)
    assert rows[0] == ["n1", "upload", "0.00000000000", "0.00000000050"]


def test_schedule_header_of_sub_microsecond_slots_shows_the_cycle(tmp_path):
    """The table header prints the cycle in ms and the round start in s with
    three decimals fewer than the rows, so a 1e-6 ms slot's cycle reads as
    the nonzero time it is, not as 0.000 ms."""
    scenario = _table1_file(tmp_path, {"t_slot_ms": 1e-6})
    start = time.perf_counter()
    header = _schedule_head(scenario, 1, "--format", "table")
    assert time.perf_counter() - start < 20.0
    assert header == [b"round 0: cycle 0.00000700 ms, 15714285716 slots from 0.00000000s\n"]


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_schedule_rows_of_a_short_cut_slot_stay_distinct(capsys, tmp_path, fmt):
    """The last slot belongs to the cut cycle and may be far shorter than
    any leg: here 3 ns after 40 ms legs.  The rows carry enough decimals
    that it too reads as nonzero, and every start as its own."""
    nodes = [{"id": x, "join_s": 0, "leave_s": 18.000000003, "data_mb": 1000} for x in "ab"]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps({"nodes": nodes, "broadcast_mbps": 11, "t_slot_ms": 20}))
    code, out, err = run_cli(capsys, "schedule", "--scenario", str(path), "--format", fmt)
    assert code == 0 and err == ""
    rows = [line.replace(",", " ").split() for line in out.splitlines()[1:]]
    assert len(rows) == 601      # 300 whole cycles of two legs, and the cut slot
    assert rows[-1] == ["b", "broadcast", "18.0000000000", "0.0000000030"]
    starts = [float(row[2]) for row in rows]
    assert starts == sorted(set(starts))
    assert all(float(row[3]) > 0 for row in rows)


_OVERFLOW = "scenario: alpha weights overflow once the GO's is scaled by go_alpha_factor and summed"


@pytest.mark.parametrize("doc_fields,node_fields,message", [
    ({"go_alpha_factor": 2.0}, {"alpha": 1e308}, _OVERFLOW),     # the GO's weight is infinite
    ({"go_alpha_factor": 1.0}, {"alpha": 1e308}, _OVERFLOW),     # the sum of weights overflows
    ({"connectivity": {"edges": [["n1", "n2"], ["n1", "n1"]]}}, {},
     "scenario: connectivity edge ('n1', 'n1') is a self loop"),
    ({}, {"upload_mbps": 5e-324},       # 11 / 5e-324 is inf: nan for n1 and both metrics
     "scenario: node 'n1': relay overhead broadcast_mbps / upload_mbps overflows at its worst loss-adjusted rate "
     "4.94066e-324"),
    ({"broadcast_mbps": 1e-310}, {},    # 10 / 1e-310 is inf: every utility read 0 and allocate raised DomainError
     "scenario: node 'n1': queue time data / broadcast_mbps overflows at its largest round load 10 mb"),
    # n3's cap is 4e307 s, its level 7 times that: compare printed 0.000000;
    # the round's own problem rejects it, naming the round
    ({"broadcast_mbps": 1e-306}, {}, "round 0 at 0s: player n3: the level at the cap overflows"),
    ({"broadcast_mbps": 1.0}, {"data_mb": 2e307},    # each level is finite, but the caps sum past DBL_MAX / 2
     "round 0 at 0s: the demand, the channel seconds that drain every queue, must be below DBL_MAX / 2"),
    # a 1e-320 s round overflowed the certificate's inverse levels: allocate warned and printed zeros
    ({}, {"leave_s": 1e-320}, "round 0 at 0s: the airtime left after the disagreement outcomes, 9.99989e-321 s, "
                              "is below the smallest normal float, where a solve's inverse levels overflow"),
], ids=["go-weight", "weight-sum", "self-loop", "relay-overhead", "queue-time", "cap-level", "demand",
        "subnormal-airtime"])
def test_documents_that_used_to_fail_later_exit_2(capsys, tmp_path, doc_fields, node_fields, message):
    # each used to print NaN and exit 0, or end in a traceback
    scenario = _table1_file(tmp_path, doc_fields, **node_fields)
    code, out, err = run_cli(capsys, "allocate", "--scenario", scenario)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_only_a_round_that_overflows_fails_compare(capsys, tmp_path):
    """x's cap is 8e307 s at 1.25e-307 Mb/s, and its level would overflow
    were it a client; open, x is elected GO and every round is finite, so
    compare runs; pinning a as the GO makes x a client, and the round fails
    with one line that names it, after the header.  table1 at 1e-306 Mb/s
    fails the same way."""
    nodes = [{"id": i, "join_s": 0.0, "leave_s": 10.0, "data_mb": mb} for i, mb in (("x", 10.0), ("a", 0.5), ("b", 0.5))]
    doc = {"nodes": nodes, "broadcast_mbps": 1.25e-307, "t_slot_ms": 20.0}
    open_go, pinned = tmp_path / "open.json", tmp_path / "pinned.json"
    open_go.write_text(json.dumps(doc))
    pinned.write_text(json.dumps({**doc, "go": "a"}))
    argv = ("compare", "--durations", "10", "--reps", "2", "--scenario")
    code, out, err = run_cli(capsys, *argv, str(open_go))
    assert (code, err) == (0, "") and "nan" not in out
    overflow = "error: round 0 at 0s: player {}: the level at the cap overflows"
    assert run_cli(capsys, *argv, str(pinned)) == (2, "duration_s,gsa,eql,wtd\n", overflow.format("x") + "\n")
    table1 = _table1_file(tmp_path, {"broadcast_mbps": 1e-306})
    assert run_cli(capsys, *argv, table1) == (2, "duration_s,gsa,eql,wtd\n", overflow.format("n3") + "\n")


def test_a_subnormal_contact_fails_compare_with_exit_2(capsys):
    """table1 scaled to 1e-322 s ended compare in a DomainError traceback
    from the wpf aggregate of utilities that underflow to 0; its round now
    fails with one line that names it, after the header."""
    code, out, err = run_cli(capsys, "compare", "--preset", "table1", "--durations", "1e-322", "--reps", "1")
    assert (code, out) == (2, "duration_s,gsa,eql,wtd\n")
    assert err == ("error: round 0 at 0s: the airtime left after the disagreement outcomes, 9.88131e-323 s, "
                   "is below the smallest normal float, where a solve's inverse levels overflow\n")


def test_a_subnormal_cap_exits_2(capsys, tmp_path):
    """n1's 1e-322 mb is a cap of 1e-323 s, whose normalized-linear slope
    1 / cap overflows: allocate warned "overflow encountered in divide" in
    the certificate and exited 0.  The round's problem rejects it."""
    doc = json.loads(json.dumps(PRESETS["table1"]))
    doc["nodes"][0]["data_mb"] = 1e-322
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "allocate", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: round 0 at 0s: player n1: the level at the cap or the utility coefficient "
                                "(a normalized-linear utility's cap), 9.88131e-324, has no finite reciprocal"]


def test_a_slow_but_finite_relay_overhead_still_runs(capsys, tmp_path):
    # every client's relay overhead is 11 / 1e-300, large but finite
    scenario = _table1_file(tmp_path, {}, upload_mbps=1e-300)
    for argv in (["allocate"], ["compare", "--durations", "10", "--reps", "2"]):
        code, out, err = run_cli(capsys, *argv, "--scenario", scenario)
        assert code == 0 and err == "" and "nan" not in out


def test_a_slow_but_finite_broadcast_still_runs(capsys, tmp_path):
    # every queue's cap is its load over 1e-305 Mb/s, large but finite
    scenario = _table1_file(tmp_path, {"broadcast_mbps": 1e-305})
    for argv in (["allocate"], ["compare", "--durations", "10", "--reps", "1"]):
        code, out, err = run_cli(capsys, *argv, "--scenario", scenario)
        assert code == 0 and err == "" and "nan" not in out


CONVERGE_TABLE1_5 = """\
contact,running_avg_nash,ideal_nash
1,0.583879,0.634532
2,0.583641,0.634532
3,0.600603,0.634532
4,0.603275,0.634532
5,0.602520,0.634532
"""


def test_converge_output(capsys):
    code, out, _ = run_cli(capsys, "converge", "--preset", "table1", "--contacts", "5")
    assert code == 0
    assert out == CONVERGE_TABLE1_5


def test_converge_prints_the_same_rows_on_two_runs_at_one_seed(capsys):
    argv = ("converge", "--preset", "table1", "--contacts", "3", "--seed", "7")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv) == (0, out, "")
    header, *rows = out.splitlines()
    assert header == "contact,running_avg_nash,ideal_nash"
    assert out.count("\n") == 4 and [row.split(",")[0] for row in rows] == ["1", "2", "3"]


def test_converge_keeps_the_scenario_pcd_error_mean(capsys, tmp_path):
    """--stddev replaces only the estimation error's stddev: a document's
    error mean stays, so the rows are the mean's and differ from mean 0's."""
    nodes = [{"id": f"n{k}", "join_s": 0.0, "leave_s": 10.0, "data_mb": mb}
             for k, mb in enumerate((100.0, 200.0, 400.0), start=1)]
    out = {}
    for mean in (0.0, -5.0):
        path = tmp_path / f"mean{mean}.json"
        path.write_text(json.dumps({"nodes": nodes, "broadcast_mbps": 11.0, "t_slot_ms": 20.0,
                                    "pcd_error": {"stddev": 0.5, "mean": mean}, "seed": 3}))
        code, out[mean], _ = run_cli(capsys, "converge", "--scenario", str(path), "--contacts", "3", "--stddev", "1")
        assert code == 0
    scenario = scale_contact_durations(load_scenario(str(path)), 20.0)
    running, ideal = repeated_contacts(replace(scenario, pcd_error=PcdErrorModel(stddev=1.0, mean=-5.0)), 3)
    assert out[-5.0] == "contact,running_avg_nash,ideal_nash\n" + "".join(
        f"{k},{value:.6f},{ideal:.6f}\n" for k, value in enumerate(running, start=1))
    assert out[-5.0] != out[0.0]


@pytest.mark.parametrize("argv", [
    "compare --durations 5 --reps 0",
    "sweep --slot-sizes 20 --reps 0",
    "compare --durations 0",
    "compare --durations nan",
    "compare --durations inf",
    "sweep --slot-sizes 0",
    "sweep --slot-sizes inf",
    "converge --contacts 0",
    "converge --duration 0",
    "converge --duration inf",
    "converge --duration nan",
    "converge --stddev -1",
    "converge --stddev nan",
    "sweep --slot-sizes 1e-322",         # > 0 in ms, 0.0 in seconds
    "compare --durations 1e-323",        # every join and leave scales to 0
    "converge --duration 1e-323",
    "compare --durations 5,x",
])
def test_bad_numeric_argument_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv.split(), "--preset", "table1")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_scenario_file_and_preset_are_exclusive(capsys):
    code, _, _ = run_cli(capsys, "allocate", "--preset", "table1", "--scenario", "x.json")
    assert code == 2


def test_unknown_preset_exits_2(capsys):
    code, _, err = run_cli(capsys, "allocate", "--preset", "table9")
    assert code == 2
    assert "unknown preset" in err


def test_schema_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": []}))
    code, _, err = run_cli(capsys, "simulate", "--scenario", str(bad), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "error:" in err


def test_missing_subcommand_exits_2(capsys):
    assert cli.main([]) == 2


def test_infeasible_problem_exits_3(capsys, monkeypatch):
    def boom(*a, **kw):
        raise InfeasibleProblemError("disagreements exhaust the airtime")

    monkeypatch.setattr(cli, "_run", boom)
    code, _, err = run_cli(capsys, "allocate", "--preset", "table1")
    assert code == 3
    assert "infeasible" in err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "airfair", "allocate", "--preset", "table1", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "node_id,role,upload_s,broadcast_s,rate_mbps,utility"


def test_closed_pipe_exits_1_quietly(tmp_path):
    """A reader that stops early, as ``| head -2`` does, leaves ``airfair``
    with exit 1 and nothing on stderr.  The 1 ms ``table1`` round prints
    15,717 lines, far more than a pipe buffer holds, so the writer is still
    printing when the pipe closes."""
    path = tmp_path / "t1ms.json"
    path.write_text(json.dumps({**PRESETS["table1"], "t_slot_ms": 1}))
    assert _schedule_head(str(path), 2) == [b"node_id,kind,start_s,duration_s\n", b"n1,upload,0.000000,0.000500\n"]


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands():
    """(argv, expected stdout) for every ``airfair`` line in the README's
    ``sh`` blocks; the expected stdout is the rest of the block after a
    ``$ airfair ...`` line, and None for a bare one."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        lines = block.splitlines(keepends=True)
        for k, line in enumerate(lines):
            if line.startswith("$ airfair "):
                commands.append((shlex.split(line[2:])[1:], "".join(lines[k + 1:])))
            elif line.startswith("airfair "):
                commands.append((shlex.split(line, comments=True)[1:], None))
    return commands


def test_readme_commands_run(capsys, tmp_path):
    commands = _readme_commands()
    checked = [argv for argv, expected in commands if expected is not None]
    assert ["allocate", "--preset", "table1", "--policy", "gsa"] in checked
    for argv, expected in commands:
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        if expected is not None:
            assert out == expected, argv


def test_readme_library_blocks_build_one_problem(capsys):
    """The Library section's two ``python`` blocks run in turn, and the
    problem given as columns allocates what the one given as ``Player``
    objects does, float for float."""
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    namespace = {}
    exec(blocks[0], namespace)
    from_players = namespace["problem"]
    assert len(capsys.readouterr().out.splitlines()) == 1
    exec(blocks[1], namespace)
    from_columns = namespace["problem"]
    assert from_columns is not from_players
    times = [[x.hex() for x in gnbs_allocate(p)[0].broadcast_time.tolist()] for p in (from_players, from_columns)]
    assert times[0] == times[1]
