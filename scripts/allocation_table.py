"""Side-by-side allocation table for one scenario under all three policies.

Prints per-node upload/broadcast seconds and dissemination rates for the
bargaining policy (gsa) next to the equal-airtime (eql) and load-weighted
(wtd) baselines, with Nash product and fairness aggregate footers.
"""

import argparse

from airfair.bargaining import dissemination_rate, nash_product, wpf_aggregate
from airfair.scenario_io import load_scenario, preset_scenario
from airfair.simulate import POLICIES, run_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="table1")
    ap.add_argument("--scenario", metavar="PATH", help="scenario JSON instead of a preset")
    args = ap.parse_args(argv)
    scenario = load_scenario(args.scenario) if args.scenario else preset_scenario(args.preset)

    rounds = {p: run_scenario(scenario, policy=p).rounds[0] for p in POLICIES}
    problem = rounds["gsa"].problem
    gsa_alloc = rounds["gsa"].allocation

    print(f"airtime {problem.airtime:.3f}s, {len(problem.players)} nodes")
    header = f"{'node':<8}{'role':<8}"
    for p in POLICIES:
        header += f"{p + ' up_s':>10}{p + ' bc_s':>10}{p + ' mbps':>10}"
    print(header)
    for k, player in enumerate(problem.players):
        row = f"{player.id:<8}{player.role:<8}"
        for p in POLICIES:
            alloc = rounds[p].allocation
            row += (f"{alloc.upload_time[k]:>10.3f}{alloc.broadcast_time[k]:>10.3f}"
                    f"{dissemination_rate(problem, alloc, k):>10.3f}")
        print(row)

    nash = {p: nash_product(problem, rounds[p].allocation) for p in POLICIES}
    wpf = {p: wpf_aggregate(problem, gsa_alloc, rounds[p].allocation) for p in POLICIES}
    print("nash_product  " + "  ".join(f"{p}={nash[p]:.6f}" for p in POLICIES))
    print("wpf_vs_gsa    " + "  ".join(f"{p}={wpf[p]:+.6f}" for p in POLICIES))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
