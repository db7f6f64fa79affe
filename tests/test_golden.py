"""Golden transcript of the CLI outputs on the bundled presets.

Refactors and performance changes must leave every number the CLI prints
unchanged.  This test runs a fixed set of ``airfair`` commands in process on
``table1`` and ``dynamic4`` and compares what they print (and, for
``simulate``, the CSV reports they write) byte for byte with the transcript
committed under ``tests/golden/``, one file per command; a mismatch names
the file and shows its first differing lines.  One SHA-256 over the whole
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
import sys
import tempfile
from pathlib import Path

from airfair import cli

PRESETS = ("table1", "dynamic4")

GOLDEN_DIR = Path(__file__).parent / "golden"

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


@functools.lru_cache(maxsize=1)
def transcript() -> dict[str, bytes]:
    """Each command's output by its file name under ``tests/golden/``, in
    the order the digest reads them: per preset, the commands of
    :func:`_commands`, then ``simulate``."""
    out = {}
    for preset in PRESETS:
        for argv in _commands(preset):
            policy = f"-{argv[argv.index('--policy') + 1]}" if "--policy" in argv else ""
            out[f"{preset}-{argv[0]}{policy}.txt"] = _run(argv)
        out[f"{preset}-simulate.txt"] = _simulate(preset)
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
