"""Span tracing for the benchmark's traced run.

A :class:`Tracer` wraps airfair's public functions by name in the namespace
of the module that calls them (``airfair.simulate.gnbs_allocate``, the
benchmark's own ``workloads.compare_policies``, ...), so nothing inside the
program changes and the untraced run pays nothing.  Each span records its
name, start, end and parent; spans stay in memory until :meth:`Tracer.write`.
Counts are taken at the same boundaries, from the arguments and the returned
values.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from pathlib import Path

# (module that makes the call, name it calls, span name)
TARGETS = (
    ("workloads", "BargainingProblem", "bargaining.problem_build"),
    ("workloads", "gnbs_allocate", "bargaining.gnbs_allocate"),
    ("workloads", "eql_allocate", "bargaining.eql_allocate"),
    ("workloads", "wtd_allocate", "bargaining.wtd_allocate"),
    ("workloads", "nash_product", "bargaining.nash_product"),
    ("workloads", "wpf_aggregate", "bargaining.wpf_aggregate"),
    ("workloads", "compare_policies", "simulate.compare_policies"),
    ("workloads", "slot_size_sweep", "simulate.slot_size_sweep"),
    ("workloads", "scenario_from_dict", "scenario_io.scenario_from_dict"),
    ("workloads", "cli_main", "cli.main"),
    ("airfair.simulate", "BargainingProblem", "bargaining.problem_build"),
    ("airfair.simulate", "gnbs_allocate", "bargaining.gnbs_allocate"),
    ("airfair.simulate", "eql_allocate", "bargaining.eql_allocate"),
    ("airfair.simulate", "wtd_allocate", "bargaining.wtd_allocate"),
    ("airfair.simulate", "nash_product", "bargaining.nash_product"),
    ("airfair.simulate", "wpf_aggregate", "bargaining.wpf_aggregate"),
    ("airfair.simulate", "update_contact_table", "grouping.update_contact_table"),
    ("airfair.simulate", "select_roles", "grouping.select_roles"),
    ("airfair.simulate", "slot_sizes", "grouping.slot_sizes"),
    ("airfair.simulate", "build_schedule", "grouping.build_schedule"),
    ("airfair.simulate", "estimate_pcd", "simulate.estimate_pcd"),
    ("airfair.simulate", "run_scenario", "simulate.run_scenario"),
    ("airfair.cli", "gnbs_allocate", "bargaining.gnbs_allocate"),
    ("airfair.cli", "nash_product", "bargaining.nash_product"),
    ("airfair.cli", "wpf_aggregate", "bargaining.wpf_aggregate"),
    ("airfair.cli", "run_scenario", "simulate.run_scenario"),
    ("airfair.cli", "compare_policies", "simulate.compare_policies"),
    ("airfair.cli", "slot_size_sweep", "simulate.slot_size_sweep"),
    ("airfair.scenario_io", "scenario_from_dict", "scenario_io.scenario_from_dict"),
)


def _gnbs_counts(tracer: "Tracer", args, result) -> None:
    problem = args[0]
    tracer.counts["bargaining.players"] += len(problem.active)
    tracer.count_distinct("bargaining.gnbs_allocate", (problem.players, problem.airtime, problem.broadcast_rate))


def _pcd_counts(tracer: "Tracer", args, result) -> None:
    tracer.count_distinct("simulate.estimate_pcd", (args[0], args[1], result))


def _schedule_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["grouping.slots"] += len(result.entries)


def _report_counts(tracer: "Tracer", args, result) -> None:
    tracer.counts["simulate.rounds"] += len(result.rounds)
    tracer.counts["simulate.idle_rounds"] += sum(r.idle for r in result.rounds)


HOOKS = {
    "bargaining.gnbs_allocate": _gnbs_counts,
    "simulate.estimate_pcd": _pcd_counts,
    "grouping.build_schedule": _schedule_counts,
    "simulate.run_scenario": _report_counts,
}


class Tracer:
    """In-memory spans plus counters, installed by patching module globals."""

    def __init__(self):
        self.records: list[list] = []     # [name, parent index, start ns, end ns]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._originals: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.records)
        self.records.append([name, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.records[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    def count_distinct(self, name: str, key) -> None:
        """Count a call of ``name`` as distinct unless the same op already
        made one with an equal key."""
        seen = self._seen.setdefault(name, set())
        if key not in seen:
            seen.add(key)
            self.counts[name + ".distinct"] += 1

    def new_op(self) -> None:
        self._seen.clear()

    def _wrap(self, fn, span: str):
        hook = HOOKS.get(span)

        def traced(*args, **kwargs):
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def summary(self, start: int, stop: int) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name over records[start:stop].
        Self time is a span's duration minus that of its direct children."""
        child_ns = Counter()
        for name, parent, t0, t1 in self.records[start:stop]:
            if parent >= start:
                child_ns[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for idx in range(start, stop):
            name, _, t0, t1 = self.records[idx]
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0 - child_ns[idx]) / 1e9
        return out

    def write(self, path: Path) -> None:
        """Write every span as a CSV row: index, parent, name, start, end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("index,parent,name,start_ns,end_ns\n")
            for idx, (name, parent, t0, t1) in enumerate(self.records):
                f.write(f"{idx},{parent},{name},{t0},{t1}\n")
