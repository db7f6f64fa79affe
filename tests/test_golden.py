"""Golden transcript of the CLI outputs on the bundled presets.

Refactors and performance changes must leave every number the CLI prints
unchanged.  This test runs a fixed set of ``airfair`` commands in process on
``table1`` and ``dynamic4`` and on three documents of its own (given
connectivity edges, a pinned GO, a 12-node crowd), each written to a file
named after it, and compares what they print (and, for ``simulate``, the
CSV reports they write) byte for byte with the transcript committed under
``tests/golden/``, one file per command; a mismatch names the file and
shows its first differing lines.  One SHA-256 over the whole
transcript, recorded below, holds it to the digest earlier changes quote.
A command that raises is recorded with its exception type and message, so
a fix to such a failure shows up here as a deliberate change.  When a
change is meant to move results, rewrite the files with
``python tests/test_golden.py``, which prints the new digest, and say why
in the change log.
"""

import contextlib
import difflib
import functools
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

from airfair import cli
from airfair.scenario_io import PRESETS as PRESET_DOCS

PRESETS = ("table1", "dynamic4")

_LOSS, _PCD_ERROR = {"lo": 0.0, "hi": 0.1}, {"stddev": 1.0}
_HUB_GAPS = ({"a", "c"}, {"b", "d"}, {"c", "e"})

#: documents beyond the presets: only the hub h reaches every node (a-c, b-d
#: and c-e are out of range); dynamic4 with its GO pinned to n3, who is
#: present from round 1 on; twelve staggered nodes with an elected GO, at a
#: length where simulate completes
DOCS = {
    "edges": {
        "nodes": [{"id": x, "join_s": 2.0 * k, "leave_s": 160.0 - 20.0 * k, "data_mb": 8.0 + 4.0 * k}
                  for k, x in enumerate("habcde")],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 10.0,
        "connectivity": {"edges": [[x, y] for i, x in enumerate("habcde") for y in "habcde"[i + 1:]
                                   if {x, y} not in _HUB_GAPS]},
        "loss": _LOSS,
        "pcd_error": _PCD_ERROR,
        "seed": 42,
    },
    "dynamic4-go": {**PRESET_DOCS["dynamic4"], "go": "n3"},
    "crowd12": {
        "nodes": [{"id": f"c{i:02d}", "join_s": 2.0 * (i % 4), "leave_s": 48.0 - 3.0 * (i % 5),
                   "data_mb": 6.0 + 7.0 * i, "upload_mbps": (5.5, 11.0, 24.0, 54.0)[i % 4]}
                  for i in range(12)],
        "broadcast_mbps": 11.0,
        "t_slot_ms": 20.0,
        "loss": _LOSS,
        "pcd_error": _PCD_ERROR,
        "seed": 5,
    },
}

#: each document's commands besides simulate, all at seed 7
DOC_COMMANDS = {
    "edges": [["compare", "--durations", "80,160,320", "--reps", "5"],
              ["sweep", "--slot-sizes", "1,2,5", "--reps", "5"]],
    "dynamic4-go": [["compare", "--durations", "10,20", "--reps", "5"],
                    ["sweep", "--slot-sizes", "5,20,100", "--reps", "5"]],
    "crowd12": [["converge", "--contacts", "5", "--duration", "160"]],
}

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_SHA256 = "5706c675950f9e7d593548d2138d785774cab1516dc28ae3bdcd2f0db0f648ea"


def _commands(preset: str) -> list[list[str]]:
    scenario = ["--preset", preset]
    cmds = [["allocate", *scenario, "--policy", p, "--format", "csv"] for p in ("gsa", "eql", "wtd")]
    cmds += [["schedule", *scenario, "--policy", p, "--seed", "7"] for p in ("gsa", "eql", "wtd")]
    cmds.append(["compare", *scenario, "--durations", "5,10,20,40", "--reps", "20", "--seed", "7"])
    cmds.append(["sweep", *scenario, "--slot-sizes", "5,10,20,50,100", "--reps", "10", "--seed", "7"])
    if preset == "table1":
        cmds.append(["converge", *scenario, "--contacts", "20", "--seed", "7"])
    return cmds


def _run(argv: list[str], shown: str | None = None) -> bytes:
    """The command's record; ``shown`` stands for it in the header."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:  # an escaping error is part of the recorded behaviour
        code = f"raised {type(e).__name__}: {e}"
    return f"$ {shown or ' '.join(argv)}\nexit {code}\n{out.getvalue()}\n{err.getvalue()}\n".encode()


def _simulate(source: list[str], shown: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", *source, "--seed", "7", "--out", tmp]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        blob = f"$ simulate {shown} --seed 7\nexit {code}\n".encode()
        for path in sorted(Path(tmp).glob("*.csv")):
            blob += path.name.encode() + b"\n" + path.read_bytes()
    return blob


@functools.lru_cache(maxsize=1)
def transcript() -> dict[str, bytes]:
    """Each command's output by its file name under ``tests/golden/``, in
    the order the digest reads them: per preset, the commands of
    :func:`_commands`, then ``simulate``; then per document of ``DOCS``,
    its ``DOC_COMMANDS``, then ``simulate``, the header naming the file
    ``<name>.json``."""
    out = {}
    for preset in PRESETS:
        for argv in _commands(preset):
            policy = f"-{argv[argv.index('--policy') + 1]}" if "--policy" in argv else ""
            out[f"{preset}-{argv[0]}{policy}.txt"] = _run(argv)
        out[f"{preset}-simulate.txt"] = _simulate(["--preset", preset], f"--preset {preset}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in DOCS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            for argv in DOC_COMMANDS[name]:
                shown = " ".join([argv[0], "--scenario", path.name, *argv[1:], "--seed", "7"])
                out[f"{name}-{argv[0]}.txt"] = _run([argv[0], "--scenario", str(path), *argv[1:], "--seed", "7"], shown)
            out[f"{name}-simulate.txt"] = _simulate(["--scenario", str(path)], f"--scenario {path.name}")
    return out


def golden_digest() -> str:
    return hashlib.sha256(b"".join(transcript().values())).hexdigest()


def _first_differences(name: str, want: bytes, got: bytes, context: int = 12) -> str:
    diff = difflib.unified_diff(want.decode().splitlines(), got.decode().splitlines(),
                                f"golden/{name}", "now", lineterm="", n=1)
    return "\n".join(itertools.islice(diff, context))


def test_cli_outputs_match_golden_transcript():
    got = transcript()
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.txt")) == sorted(got)
    moved = [_first_differences(name, (GOLDEN_DIR / name).read_bytes(), out)
             for name, out in got.items() if (GOLDEN_DIR / name).read_bytes() != out]
    assert not moved, "\n\n".join(moved)


def test_cli_outputs_match_golden_digest():
    assert golden_digest() == GOLDEN_SHA256


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.txt"):
        stale.unlink()
    for name, out in transcript().items():
        (GOLDEN_DIR / name).write_bytes(out)
    sys.stdout.write(golden_digest() + "\n")
