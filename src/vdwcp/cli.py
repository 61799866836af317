"""Command-line surface: curve sweeps, slope reports, table checks, selftest.

Exit codes: 0 success, 1 failed check (tables/selftest), 2 usage or
configuration error, 3 numerical failure, 4 internal error (any other
exception, reported as one "internal error: <type>: <message>" line on
stderr). Output is byte-deterministic for a fixed command line; every file
carries its configuration as metadata. Standard output and an --out file carry
the same UTF-8 bytes. Each command computes its whole result before it opens
its output, so one that exits 2, 3 or 4 writes no output and creates no file
(short of a write that fails part way, such as on a full disk).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .asymptotics import local_log_slope, verify_tables
from .green import PlateKind
from .potentials import (
    MIRROR_CHANNELS,
    PAIR_CHANNELS,
    Channel,
    PotentialCurve,
    mirror_curve,
    pair_curve,
)
from .quad import QuadratureError, QuadratureSpec
from .response import load_atom_file
from .selftest import run_selftest
from .units import UnitSystem

_CHANNEL_NAMES = [ch.value for ch in MIRROR_CHANNELS + PAIR_CHANNELS]


def parse_grid(text: str) -> np.ndarray:
    """Parse 'min:max:points' into a geometric grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be min:max:points, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be numeric min:max:points, got {text!r}") from None
    for name, part, bound in (("min", parts[0], lo), ("max", parts[1], hi)):
        if not math.isfinite(bound):
            raise ValueError(f"grid {name} must be finite, got {part!r}")
    if not (lo > 0.0 and hi > lo and points >= 2):
        raise ValueError(
            f"grid needs 0 < min < max and points >= 2, got {text!r}"
        )
    return np.geomspace(lo, hi, points)


def _metadata(args, **extra) -> dict[str, str]:
    meta = {"engine": f"vdwcp {__version__}", "subcommand": args.subcommand}
    meta.update(extra)
    if "rel_tol" in args:  # tables takes no --rel-tol
        meta["rel-tol"] = format(args.rel_tol, "g")
    return meta


def _write(args, meta: dict[str, str], body: dict, header: list[str], rows, text=()) -> None:
    """Write one document to --out or to stdout, as the same UTF-8 bytes either way.

    JSON is `body` under "metadata", dumped in one piece. CSV and selftest's text
    format (no --format) open with `# key: value` lines; CSV then streams the
    header and `rows` through one csv.writer, and text writes `text` one per line.
    """
    with contextlib.ExitStack() as stack:
        if args.out:
            sink = stack.enter_context(open(args.out, "w", encoding="utf-8", newline=""))
        elif hasattr(sys.stdout, "buffer"):  # an io.StringIO under redirect_stdout has none
            sys.stdout.flush()
            sink = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8", newline="")
            stack.callback(sink.detach)
        else:
            sink = sys.stdout
        if args.format == "json":
            sink.write(json.dumps({"metadata": meta, **body}, indent=2) + "\n")
            return
        sink.writelines(f"# {key}: {value}\n" for key, value in meta.items())
        if args.format == "csv":
            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            sink.writelines(f"{line}\n" for line in text)


def _write_columns(args, meta: dict[str, str], columns: dict[str, np.ndarray]) -> None:
    """mirror, pair and slopes: named columns of one length, `.17g` in CSV and lists in JSON."""
    columns = {name: column.tolist() for name, column in columns.items()}
    rows = ([format(v, ".17g") for v in row] for row in zip(*columns.values()))
    _write(args, meta, {"columns": columns}, list(columns), rows)


def _curve(args) -> tuple[PotentialCurve, dict[str, str]]:
    """The curve the arguments ask for and the metadata that every curve command writes.

    Two atoms give a pair curve; one atom gives a mirror curve at args.plate.
    """
    # --rel-tol bounds no curve; it is checked because bench/workloads.py passes it
    QuadratureSpec(rel_tol=args.rel_tol)
    units = UnitSystem(args.units)
    atom = load_atom_file(args.atom)
    atom_b_path = getattr(args, "atom_b", None)
    if atom_b_path:
        atom_b = load_atom_file(atom_b_path)
        curve = pair_curve(atom, atom_b, parse_grid(args.grid), units)
        atoms = {"atom": atom.label, "atom_b": atom_b.label}
    else:
        plate = PlateKind(args.plate)
        curve = mirror_curve(atom, parse_grid(args.grid), plate, units)
        atoms = {"atom": atom.label, "plate": plate.value}
    return curve, {"units": units.value, **atoms, "grid": f"{args.grid} (geometric)"}


def cmd_curve(args) -> int:
    curve, shared = _curve(args)
    channels = {f"channel:{ch.value}": values for ch, values in curve.values.items()}
    meta = _metadata(args, **shared, method="closed-form")
    _write_columns(args, meta, {"distance": curve.distances, **channels, "total": curve.total})
    return 0


def cmd_slopes(args) -> int:
    if not args.atom_b and args.plate is None:
        raise ValueError(
            "slopes over a mirror curve need --plate; give --atom-b for pair geometry"
        )
    if args.atom_b and args.plate is not None:
        raise ValueError("--plate applies to mirror geometry only; drop it or --atom-b")
    channel = "total" if args.channel == "total" else Channel(args.channel)
    if channel not in ("total", *(PAIR_CHANNELS if args.atom_b else MIRROR_CHANNELS)):
        raise ValueError(
            f"channel {args.channel!r} does not exist in this geometry"
        )
    curve, shared = _curve(args)
    profile = local_log_slope(curve, channel)
    meta = _metadata(args, **shared, channel=args.channel)
    columns = {"distance": profile.distances, "slope": profile.exponent, "sign": profile.sign}
    _write_columns(args, meta, columns)
    return 0


def cmd_tables(args) -> int:
    report = verify_tables()
    meta = _metadata(args, units=UnitSystem.NATURAL.value)
    body = {
        "all_passed": report.all_passed,
        "cells": [cell.as_dict() for cell in report.cells],
    }
    header = [
        "channel",
        "geometry",
        "regime",
        "expected_sign",
        "expected_power",
        "measured_slope",
        "measured_sign",
        "status",
    ]
    rows = (
        [
            cell.entry.channel.value,
            cell.entry.geometry,
            cell.entry.regime,
            f"{cell.entry.expected_sign:+d}",
            str(cell.entry.expected_power),
            format(cell.measured_slope, ".6g"),
            f"{cell.measured_sign:+d}",
            "PASS" if cell.passed else "FAIL",
        ]
        for cell in report.cells
    )
    _write(args, meta, body, header, rows)
    return 0 if report.all_passed else 1


def cmd_selftest(args) -> int:
    report = run_selftest(rel_tol=args.rel_tol)
    meta = _metadata(args, units=UnitSystem.NATURAL.value)
    rows = (
        [check.name, "PASS" if check.passed else "FAIL", check.detail]
        for check in report.checks
    )
    _write(args, meta, report.as_dict(), ["check", "status", "detail"], rows, text=report.lines())
    return 0 if report.all_passed else 1


def _add_common(parser: argparse.ArgumentParser, default_format: str | None = "csv") -> None:
    parser.add_argument("--format", choices=["csv", "json"], default=default_format,
                        help="output format")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")


@functools.cache  # one parser per process; main dispatches by subcommand at call time
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdwcp",
        description=(
            "Dispersion potentials of electric, paramagnetic and diamagnetic "
            "atoms: single-atom curves in front of a perfect mirror and "
            "two-atom free-space curves, with slope and sign verification."
        ),
    )
    parser.add_argument("--version", action="version", version=f"vdwcp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    mirror = sub.add_parser("mirror", help="atom-mirror potential over a distance grid")
    mirror.add_argument("--atom", required=True, help="atom definition file (YAML)")
    mirror.add_argument("--plate", choices=["conducting", "permeable"], required=True)
    mirror.add_argument("--grid", required=True, help="min:max:points, geometric spacing")
    _add_common(mirror)

    pair = sub.add_parser("pair", help="two-atom potential over a separation grid")
    pair.add_argument("--atom", required=True, help="first atom definition file")
    pair.add_argument("--atom-b", required=True, dest="atom_b",
                      help="second atom definition file")
    pair.add_argument("--grid", required=True, help="min:max:points, geometric spacing")
    _add_common(pair)

    slopes = sub.add_parser("slopes", help="local log-log slopes of a computed curve")
    slopes.add_argument("--atom", required=True, help="atom definition file")
    slopes.add_argument("--atom-b", default=None, dest="atom_b",
                        help="second atom file (pair geometry if given)")
    slopes.add_argument("--plate", choices=["conducting", "permeable"], default=None,
                        help="mirror kind (mirror geometry only)")
    slopes.add_argument("--grid", required=True,
                        help="min:max:points, geometric spacing, at least 5 points")
    slopes.add_argument("--channel", default="total",
                        choices=["total"] + _CHANNEL_NAMES,
                        help="channel to differentiate (default: total)")
    _add_common(slopes)

    tables = sub.add_parser(
        "tables", help="verify the sign/power table of every channel and regime"
    )
    _add_common(tables)

    selftest = sub.add_parser("selftest", help="run the full oracle battery")
    _add_common(selftest, default_format=None)

    # tables and selftest run in natural units; tables takes no quadrature tolerance
    for curves in (mirror, pair, slopes):
        curves.add_argument("--units", choices=["si", "natural"], default="si",
                            help="unit system (default: si)")
    for tolerant in (mirror, pair, slopes, selftest):
        tolerant.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol",
                              help="relative tolerance of the selftest's quadratures, "
                                   "in [1e-13, 1e-2] (default 1e-10)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"mirror": cmd_curve, "pair": cmd_curve, "slopes": cmd_slopes,
                "tables": cmd_tables, "selftest": cmd_selftest}
    try:
        return handlers[args.subcommand](args)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # an AtomFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
