"""Command line front end.

Subcommands: ``allocate`` (one-round allocation table), ``schedule`` (slot
plan of a round as CSV), ``simulate`` (full run: a round-by-round listing,
CSV reports to a directory), ``compare`` (realized Nash products per policy
over contact durations), ``sweep`` (fairness aggregate per basic slot size),
``converge`` (running-average Nash product over repeated noisy contacts).
The last three only check their flags, scale durations and print: their
repetitions, and the seed each one runs at, come from
:mod:`airfair.simulate` (``compare_means``, ``slot_size_sweep``,
``repeated_contacts``).

Exit codes: 0 on success, 1 (with nothing on stderr) when the reader of
standard output closes it early, as ``| head`` does, 2 for argument or
scenario-schema problems, for a scenario file or ``simulate --out``
directory that cannot be read or written and for a round whose bargaining
problem overflows (the one line names the round), 3 when the allocation
problem is infeasible.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bargaining import (
    ROLE_CLIENT,
    ROLE_GO,
    InfeasibleProblemError,
    ProblemOverflowError,
    dissemination_rate,
    gnbs_allocate,
    nash_product,
    wpf_aggregate,
)
from .scenario_io import SchemaError, load_scenario, preset_scenario
from .simulate import (
    POLICIES,
    PcdErrorModel,
    _round_draws,
    _run,
    compare_means,
    repeated_contacts,
    run_scenario,
    scale_contact_durations,
    slot_size_sweep,
)
from .simulate import compare_policies  # noqa: F401  (not called here; perfbench/spans.py wraps it by name)


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", metavar="PATH", help="scenario JSON file")
    src.add_argument("--preset", metavar="NAME", help="built-in scenario (table1, dynamic4)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")


def _load(args) -> object:
    scenario = preset_scenario(args.preset) if args.preset else load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    return scenario


def _require(ok: bool, message: str) -> None:
    """Reject a bad argument value the way a bad scenario is rejected."""
    if not ok:
        raise SchemaError(message)


def _float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise SchemaError(f"{flag} expects a comma-separated list of numbers") from None
    _require(bool(values), f"{flag} must not be empty")
    _require(all(0 < v < math.inf for v in values), f"{flag} values must be finite and > 0")
    return values


def _label(value: float) -> str:
    """A row label: six decimals when they read back as ``value``, else its
    shortest round-trip form, so that rows of distinct values stay distinct
    (1e-9 prints as ``1e-09``, not ``0.000000``)."""
    text = f"{value:.6f}"
    return text if float(text) == value else repr(value)


def _scaled(scenario, duration: float, flag: str):
    try:    # a duration must leave every node's join before its leave
        return scale_contact_durations(scenario, duration)
    except ValueError as e:
        raise SchemaError(f"{flag} {duration!r} collapses the timeline: {e}") from None


def _round(scenario, policy, k: int):
    """Round k of the scenario under the policy.  Only rounds 0..k run, so
    an error in a later round cannot keep round k from printing."""
    draws = _round_draws(scenario)
    if not draws:
        raise SchemaError("scenario never forms a group of two or more nodes")
    if not (0 <= k < len(draws)):
        raise SchemaError(f"round {k} out of range (0..{len(draws) - 1})")
    return _run(scenario, policy, draws[:k + 1]).rounds[k]


def cmd_allocate(args) -> int:
    scenario = _load(args)
    rnd = _round(scenario, args.policy, 0)
    problem, alloc = rnd.problem, rnd.allocation
    if rnd.idle:    # the metrics are NaN, as on the round's record, not the empty product and sum
        nash = wpf = math.nan
    else:
        gsa_alloc = alloc if args.policy == "gsa" else gnbs_allocate(problem)[0]
        nash = nash_product(problem, alloc)
        wpf = wpf_aggregate(problem, gsa_alloc, alloc)

    if args.format == "csv":
        print("node_id,role,upload_s,broadcast_s,rate_mbps,utility")
        row, metric, metrics_to = "{},{},{:.6f},{:.6f},{:.6f},{:.6f}", "{}={:.6f}", sys.stderr
    else:
        print(f"policy {args.policy}: airtime {problem.airtime:.3f}s, "
              f"{'saturated' if alloc.saturated else 'contended'}")
        print(f"{'node':<8}{'role':<8}{'upload_s':>10}{'broadcast_s':>12}{'rate_mbps':>11}{'utility':>9}")
        row, metric, metrics_to = "{:<8}{:<8}{:>10.3f}{:>12.3f}{:>11.3f}{:>9.3f}", "{} {:.6f}", sys.stdout
    for k, (x, u) in enumerate(zip(alloc.broadcast_time, problem.utilities)):
        print(row.format(problem.ids[k], ROLE_GO if k == problem.go else ROLE_CLIENT, alloc.upload_time[k], x,
                         dissemination_rate(problem, alloc, k), 0.0 if u is None else float(u.value(x))))
    print(metric.format("nash_product", nash), file=metrics_to)
    print(metric.format("wpf_vs_gsa", wpf), file=metrics_to)
    return 0


def cmd_schedule(args) -> int:
    rnd = _round(_load(args), args.policy, args.round)
    schedule = rnd.schedule
    entries = schedule.entries if schedule is not None else ()     # an idle round prints its header alone
    # enough decimals that the shortest slot reads as at least 10 units of the
    # last place, so every row has a nonzero duration and its own start; the
    # table's columns widen with them, and its header's ms and s with 3 fewer
    places = 6 if schedule is None else max(6, math.ceil(1 - math.log10(entries.shortest)))
    if args.format == "table":
        sized = "0" if schedule is None else f"cycle {schedule.cycle_length * 1000:.{places - 3}f} ms, {entries.count}"
        print(f"round {rnd.index}: {sized} slots from {rnd.t_start:.{places - 3}f}s")
        row = "{0:<8}{1:<10}{2:>%d.%df}{3:>%d.%df}" % (places + 6, places, places + 6, places)
    else:
        print("node_id,kind,start_s,duration_s")
        row = "{0},{1},{2:.%df},{3:.%df}" % (places, places)
    for e in entries:
        print(row.format(e.node, e.kind, e.start, e.duration))
    return 0


def cmd_simulate(args) -> int:
    scenario = _load(args)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)      # before the run, which may be long
    except OSError as e:
        raise SchemaError(f"cannot write reports: {e}") from e
    report = run_scenario(scenario, policy=args.policy)

    rounds = ["round,start_s,end_s,mode,go_id,members,airtime_s,nash_realized,nash_ideal,wpf_vs_ideal"]
    for r in report.rounds:
        rounds.append(
            f"{r.index},{r.t_start:.6f},{r.t_end:.6f},{r.mode},{r.go_id},"
            f"{';'.join(r.members)},{r.airtime:.6f},"
            f"{r.nash_realized:.6f},{r.nash_ideal:.6f},{r.wpf_vs_ideal:.6f}"
        )
    delivery = ["node_id,transmitted_mb,received_mb"]
    for node_id in sorted(report.transmitted_mb):
        delivery.append(f"{node_id},{report.transmitted_mb[node_id]:.6f},{report.received_mb[node_id]:.6f}")
    metrics = [
        "metric,value",
        f"rounds,{len(report.rounds)}",
        f"nash_product_realized,{report.nash_product_realized:.6f}",
        f"nash_product_ideal,{report.nash_product_ideal:.6f}",
        f"wpf_aggregate_vs_ideal,{report.wpf_aggregate_vs_ideal:.6f}",
    ]
    try:
        for name, lines in (("rounds.csv", rounds), ("delivery.csv", delivery), ("metrics.csv", metrics)):
            (out / name).write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise SchemaError(f"cannot write reports: {e}") from e

    for rnd in report.rounds:
        print(f"round {rnd.index}: ({rnd.t_start:g}, {rnd.t_end:g}]s  mode={rnd.mode}  "
              f"go={rnd.go_id}  horizon={rnd.airtime:.3f}s"
              + ("  (idle)" if rnd.idle else ""))
        if rnd.idle:
            continue
        for k, member in enumerate(rnd.members):
            print(f"  {member:<8} allocated {rnd.allocation.broadcast_time[k]:7.3f}s"
                  f"  realized {rnd.realized_broadcast[k]:7.3f}s"
                  f"  delivered {rnd.delivered_mb[k]:8.3f} mb")
        print(f"  nash realized {rnd.nash_realized:.6f}  ideal {rnd.nash_ideal:.6f}  "
              f"wpf {rnd.wpf_vs_ideal:+.6f}")
    print(f"policy {report.policy}: {len(report.rounds)} rounds, "
          f"nash_realized {report.nash_product_realized:.6f}, "
          f"reports in {out}")
    return 0


def cmd_compare(args) -> int:
    scenario = _load(args)
    durations = _float_list(args.durations, "--durations")
    _require(args.reps >= 1, "--reps must be at least 1")
    scaled_runs = [_scaled(scenario, duration, "--durations") for duration in durations]
    print("duration_s," + ",".join(POLICIES))
    for duration, means in zip(durations, compare_means(scaled_runs, args.reps)):
        print(f"{_label(duration)}," + ",".join(f"{means[p]:.6f}" for p in POLICIES))
    return 0


def cmd_sweep(args) -> int:
    scenario = _load(args)
    sizes_ms = _float_list(args.slot_sizes, "--slot-sizes")
    _require(args.reps >= 1, "--reps must be at least 1")
    _require(all(ms / 1000.0 > 0 for ms in sizes_ms), "--slot-sizes values must stay > 0 in seconds")
    results = slot_size_sweep(scenario, [ms / 1000.0 for ms in sizes_ms], repetitions=args.reps)
    print("t_slot_ms,mean_wpf,stddev_wpf")
    for (t_slot, mean, std), ms in zip(results, sizes_ms):
        print(f"{_label(ms)},{mean:.6f},{std:.6f}")
    return 0


def cmd_converge(args) -> int:
    scenario = _load(args)
    _require(args.contacts >= 1, "--contacts must be at least 1")
    _require(0 < args.duration < math.inf, "--duration must be finite and > 0")
    _require(0 <= args.stddev < math.inf, "--stddev must be finite and >= 0")
    scenario = _scaled(scenario, args.duration, "--duration")
    scenario = replace(scenario, pcd_error=replace(scenario.pcd_error or PcdErrorModel(0.0), stddev=args.stddev))
    running, ideal = repeated_contacts(scenario, args.contacts)
    print("contact,running_avg_nash,ideal_nash")
    for k, value in enumerate(running, start=1):
        print(f"{k},{value:.6f},{ideal:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="airfair",
                                     description="Fair airtime allocation for sharing groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="solve one allocation round and print the split")
    _add_scenario_args(p)
    p.add_argument("--policy", choices=POLICIES, default="gsa")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.set_defaults(fn=cmd_allocate)

    p = sub.add_parser("schedule", help="print the slot schedule of one round")
    _add_scenario_args(p)
    p.add_argument("--policy", choices=POLICIES, default="gsa")
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--format", choices=("table", "csv"), default="csv")
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("simulate", help="run a scenario and write CSV reports")
    _add_scenario_args(p)
    p.add_argument("--policy", choices=POLICIES, default="gsa")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="realized Nash products per policy over durations")
    _add_scenario_args(p)
    p.add_argument("--durations", required=True, metavar="S1,S2,...")
    p.add_argument("--reps", type=int, default=10)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sweep", help="fairness aggregate per basic slot size")
    _add_scenario_args(p)
    p.add_argument("--slot-sizes", required=True, metavar="MS1,MS2,...")
    p.add_argument("--reps", type=int, default=20)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("converge", help="running-average Nash product over repeated noisy contacts")
    _add_scenario_args(p)
    p.add_argument("--contacts", type=int, default=200)
    p.add_argument("--duration", type=float, default=20.0, help="contact duration in seconds")
    p.add_argument("--stddev", type=float, default=1.0,
                   help="estimation error stddev in seconds; the scenario's error mean is kept")
    p.set_defaults(fn=cmd_converge)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        code = args.fn(args)
        sys.stdout.flush()      # a closed pipe fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # stdout still holds unwritten output, which the flush at exit would
        # fail on again: point it at devnull (the Python docs' "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SchemaError, ProblemOverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InfeasibleProblemError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
