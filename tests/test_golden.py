"""Golden digest of the CLI outputs on the bundled presets.

Refactors and performance changes must leave every number the CLI prints
unchanged.  This test runs a fixed set of ``airfair`` commands in process on
``table1`` and ``dynamic4`` and compares one SHA-256 over everything they
print (and, for ``simulate``, the CSV reports they write) with the digest
recorded below.  A command that raises is recorded with its exception type
and message, so a fix to such a failure shows up here as a deliberate
change.  When a change is meant to move results, recompute the digest
with ``python tests/test_golden.py`` and say why in the change log.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from airfair import cli

PRESETS = ("table1", "dynamic4")

GOLDEN_SHA256 = "800ce80d1f95603c8e22fcf49848359cb6aa3d009d315b9ca7c18dcb18c698d7"


def _commands(preset: str) -> list[list[str]]:
    scenario = ["--preset", preset]
    cmds = [["allocate", *scenario, "--policy", p, "--format", "csv"] for p in ("gsa", "eql", "wtd")]
    cmds += [["schedule", *scenario, "--policy", p, "--seed", "7"] for p in ("gsa", "eql", "wtd")]
    cmds.append(["compare", *scenario, "--durations", "5,10,20,40", "--reps", "20", "--seed", "7"])
    cmds.append(["sweep", *scenario, "--slot-sizes", "5,10,20,50,100", "--reps", "10", "--seed", "7"])
    return cmds


def _run(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:  # an escaping error is part of the recorded behaviour
        code = f"raised {type(e).__name__}: {e}"
    return f"$ {' '.join(argv)}\nexit {code}\n{out.getvalue()}\n{err.getvalue()}\n".encode()


def _simulate(preset: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", "--preset", preset, "--seed", "7", "--out", tmp]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        blob = f"$ simulate --preset {preset} --seed 7\nexit {code}\n".encode()
        for path in sorted(Path(tmp).glob("*.csv")):
            blob += path.name.encode() + b"\n" + path.read_bytes()
    return blob


def golden_digest() -> str:
    h = hashlib.sha256()
    for preset in PRESETS:
        for argv in _commands(preset):
            h.update(_run(argv))
        h.update(_simulate(preset))
    return h.hexdigest()


def test_cli_outputs_match_golden_digest():
    assert golden_digest() == GOLDEN_SHA256


if __name__ == "__main__":
    sys.stdout.write(golden_digest() + "\n")
