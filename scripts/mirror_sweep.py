#!/usr/bin/env python3
"""Sweep the atom-mirror potential for the three unit-response fixtures.

Runs the electric, paramagnetic and diamagnetic single-resonance atoms in
front of both mirror kinds over a common geometric distance grid (natural
units) and writes one long-format CSV: every row is a (atom, plate, distance)
triple with the three channel values and the total. Useful for eyeballing the
sign pattern and the nonretarded-to-retarded bend of the e and p channels
against the pure quartic d channel.
"""
import argparse
import csv
import sys

from vdwcp.asymptotics import default_fixtures
from vdwcp.cli import parse_grid
from vdwcp.green import PlateKind
from vdwcp.potentials import MIRROR_CHANNELS, mirror_curve
from vdwcp.quad import QuadratureSpec
from vdwcp.units import UnitSystem


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", default="1e-3:1e3:25",
                        help="min:max:points, geometric (default 1e-3:1e3:25)")
    parser.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol")
    parser.add_argument("--out", default=None, help="output CSV (default stdout)")
    args = parser.parse_args(argv)

    try:
        grid = parse_grid(args.grid)
        spec = QuadratureSpec(rel_tol=args.rel_tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fixtures = default_fixtures()

    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(
        ["atom", "plate", "distance"]
        + [f"channel:{ch.value}" for ch in MIRROR_CHANNELS]
        + ["total"]
    )
    for name, atom in fixtures.items():
        for plate in PlateKind:
            curve = mirror_curve(atom, grid, plate, UnitSystem.NATURAL, spec)
            for i, z in enumerate(curve.distances):
                row = [name, plate.value, format(z, ".17g")]
                row += [format(curve.values[ch][i], ".17g") for ch in MIRROR_CHANNELS]
                row.append(format(curve.total[i], ".17g"))
                writer.writerow(row)
    if args.out:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
