#!/usr/bin/env python3
"""Trace the retardation crossover of the electric-diamagnetic pair channel.

Scans the local log-log slope of the ed channel between deep nonretarded and
deep retarded separations (natural units, single-resonance electric atom
against a pure diamagnetic partner). The slope drifts from -5 to -7 across
roughly two decades around l ~ c/omega; the CSV also reports the channel
value relative to both closed-form limits so the handover is visible as the
ratio columns crossing unity.
"""
import argparse
import csv
import sys

from vdwcp.asymptotics import default_fixtures, local_log_slope
from vdwcp.cli import parse_grid
from vdwcp.potentials import Channel, Regime, pair_curve, vdw_asymptote
from vdwcp.units import UnitSystem, constants_for


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", default="1e-3:1e3:61",
                        help="min:max:points, geometric (default 1e-3:1e3:61)")
    parser.add_argument("--out", default=None, help="output CSV (default stdout)")
    args = parser.parse_args(argv)

    fixtures = default_fixtures()
    consts = constants_for(UnitSystem.NATURAL)
    try:
        grid = parse_grid(args.grid)
        curve = pair_curve(fixtures["e"], fixtures["d"], grid, UnitSystem.NATURAL)
        profile = local_log_slope(curve, Channel.ED)
        sink = open(args.out, "w", newline="") if args.out else sys.stdout
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["distance", "slope", "value", "value/nonretarded", "value/retarded"])
    index = {float(d): i for i, d in enumerate(curve.distances)}
    for k, l in enumerate(profile.distances):
        value = curve.values[Channel.ED][index[float(l)]]
        near = vdw_asymptote(Channel.ED, fixtures["e"], fixtures["d"], float(l),
                             Regime.NONRETARDED, consts)
        far = vdw_asymptote(Channel.ED, fixtures["e"], fixtures["d"], float(l),
                            Regime.RETARDED, consts)
        writer.writerow([
            format(l, ".17g"),
            format(profile.exponent[k], ".10g"),
            format(value, ".17g"),
            format(value / near, ".10g"),
            format(value / far, ".10g"),
        ])
    if args.out:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
