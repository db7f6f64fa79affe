"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that the
last output line carries exactly the metric names and units BENCHMARK.json
declares.  Run from the root of a source checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in spec["workloads"]:
        for trace, want in declared.items():
            cmd = spec["command"] + ["--workload", workload["name"], "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload['name']} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(n for n in want.keys() & got.keys() if want[n] != got[n])}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
                    and isinstance(result["failed"], int)):
                problems.append(f"{where}: bad attempted/failed {result['attempted']!r}/{result['failed']!r}")
            print(f"{where}: ok={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
