"""Locate the packet length where RTS/CTS stops paying for itself.

Sweeps both CSMA/CA variants over a packet grid with paired seeds, finds where
the simulated psi difference changes sign, and prints the estimate next to the
closed-form inflection point (2 - p_c)/p_c * l_rcts on the payload+ack axis.
"""
import argparse
import contextlib
import csv
import io
import sys

import numpy as np

from macfair import cli
from macfair.analytic import rtscts_basic_inflection, solve_collision_probability


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    ap.add_argument("--pkt-range", default="48:96:8", help="lo:hi:step slots")
    ap.add_argument("--slots", type=int, default=1_000_000)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="also keep the sweep CSV here")
    args = ap.parse_args()

    sweep_argv = [
        "sweep",
        "--protocols", "csma-rtscts,csma-basic",
        "--pkt-range", args.pkt_range,
        "--slots", str(args.slots),
        "--reps", str(args.reps),
        "--seed", str(args.seed),
    ]
    sweep = io.StringIO()
    with contextlib.redirect_stdout(sweep):
        code = cli.main(sweep_argv)
    if code:
        return code
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(sweep.getvalue())

    sim = {}
    for row in csv.DictReader(io.StringIO(sweep.getvalue())):
        pkt = int(row["x"])
        sim.setdefault(pkt, {})[row["protocol"]] = \
            float(row["psi_sim_mean_slots"])
    pkts = np.array(sorted(sim), dtype=float)
    diff = np.array([sim[int(p)]["csma-rtscts"] - sim[int(p)]["csma-basic"]
                     for p in pkts])
    for pkt, d in zip(pkts, diff):
        print(f"pkt={int(pkt)} rtscts_minus_basic={d:+.4f}")
    # A point where every rep left psi undefined has a nan mean, whose sign
    # differs from every other sign.
    undefined = [f"pkt={pkt} {protocol}" for pkt, by in sorted(sim.items())
                 for protocol, psi in by.items() if np.isnan(psi)]
    if undefined:
        print(f"no defined psi at {', '.join(undefined)}; raise --slots")
        return 1

    # The point the sweep ran, defaults included, as cli reads its flags.
    params = cli._build_params(
        "csma-rtscts", cli.build_parser().parse_args(sweep_argv))
    p_c = solve_collision_probability(params.cw_min, params.beta).p_c
    want = rtscts_basic_inflection(p_c, params.l_rcts)
    flips = np.flatnonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))
    if len(flips) != 1:
        print(f"no clean sign change on this grid ({len(flips)} flips); "
              "raise --slots or widen --pkt-range")
        return 1
    i = int(flips[0])
    x = pkts[i] + (pkts[i + 1] - pkts[i]) * diff[i] / (diff[i] - diff[i + 1])
    print(f"sim_crossover_tran_slots={x + params.l_ack:.2f}")
    print(f"analytic_inflection_tran_slots={want:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
