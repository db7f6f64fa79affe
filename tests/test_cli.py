import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from airfair import cli
from airfair.bargaining import InfeasibleProblemError
from airfair.grouping import MAX_SLOTS, ScheduleError


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


@pytest.mark.parametrize(
    "policy,n1_broadcast", [("gsa", 5.0 / 7.0), ("eql", 10.0 / 11.0), ("wtd", 10.0 / 46.0)]
)
def test_allocate_policies(capsys, policy, n1_broadcast):
    code, out, _ = run_cli(capsys, "allocate", "--preset", "table1", "--policy", policy, "--format", "csv")
    assert code == 0
    n1 = out.strip().splitlines()[1].split(",")
    assert float(n1[3]) == pytest.approx(n1_broadcast, abs=1e-6)


def test_schedule_csv(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--preset", "table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node_id,kind,start_s,duration_s"
    assert lines[1] == "n1,upload,0.000000,0.010000"
    assert lines[2] == "n1,broadcast,0.010000,0.010000"


def test_schedule_of_idle_round_is_header_only(capsys):
    code, out, _ = run_cli(capsys, "schedule", "--preset", "dynamic4", "--round", "2")
    assert code == 0
    assert out.strip() == "node_id,kind,start_s,duration_s"


def test_schedule_round_out_of_range(capsys):
    code, _, err = run_cli(capsys, "schedule", "--preset", "table1", "--round", "9")
    assert code == 2
    assert "out of range" in err


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
    metrics = (out_dir / "metrics.csv").read_text().strip().splitlines()
    assert metrics[1] == "rounds,5"


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


@pytest.mark.parametrize("size_ms", ["1e-9", "1e-300"])
def test_sweep_rejects_slot_sizes_beyond_max_slots(size_ms):
    # at a 1e-12 s basic slot one 10 s round would need ~1e13 slots
    start = time.perf_counter()
    with pytest.raises(ScheduleError, match=f"more than {MAX_SLOTS} slots"):
        cli.main(["sweep", "--preset", "table1", "--slot-sizes", size_ms, "--reps", "1"])
    assert time.perf_counter() - start < 1.0


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

    monkeypatch.setattr(cli, "run_scenario", boom)
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
