"""Command-line surface: curve sweeps, slope reports, table checks, selftest.

Exit codes: 0 success, 1 failed check (tables/selftest), 2 usage or
configuration error, 3 numerical failure, 4 internal error (any other
exception, reported as one "internal error: <type>: <message>" line on
stderr). Output is byte-deterministic for a fixed command line; every file
carries its configuration as metadata.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .asymptotics import default_fixtures, local_log_slope, verify_tables
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
from .response import AtomFileError, load_atom_file
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


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _metadata(args, **extra) -> dict[str, str]:
    meta = {"engine": f"vdwcp {__version__}", "subcommand": args.subcommand}
    meta.update(extra)
    meta["rel-tol"] = format(args.rel_tol, "g")
    return meta


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as sink:
            sink.write(text)
    else:
        sys.stdout.write(text)


def _csv_document(metadata: dict[str, str], header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    for key, value in metadata.items():
        buffer.write(f"# {key}: {value}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_document(metadata: dict[str, str], body: dict) -> str:
    return json.dumps({"metadata": metadata, **body}, indent=2) + "\n"


def _curve_columns(curve: PotentialCurve) -> tuple[list[str], list[np.ndarray]]:
    names = ["distance"] + [f"channel:{ch.value}" for ch in curve.values] + ["total"]
    columns = [curve.distances, *curve.values.values(), curve.total]
    return names, columns


def _render_curve(args, curve: PotentialCurve, metadata: dict[str, str]) -> str:
    names, columns = _curve_columns(curve)
    if args.format == "json":
        body = {"columns": {n: [float(v) for v in col] for n, col in zip(names, columns)}}
        return _json_document(metadata, body)
    rows = [[_fmt(col[i]) for col in columns] for i in range(curve.distances.size)]
    return _csv_document(metadata, names, rows)


def _units_for(args, natural_default: bool = False) -> UnitSystem:
    if args.units is not None:
        return UnitSystem(args.units)
    return UnitSystem.NATURAL if natural_default else UnitSystem.SI


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=args.rel_tol)


def _curve(args, units: UnitSystem) -> tuple[PotentialCurve, dict[str, str]]:
    """The curve the arguments ask for and its atoms' metadata.

    Two atoms give a pair curve; one atom gives a mirror curve at args.plate.
    """
    atom = load_atom_file(args.atom)
    atom_b_path = getattr(args, "atom_b", None)
    if atom_b_path:
        atom_b = load_atom_file(atom_b_path)
        curve = pair_curve(atom, atom_b, parse_grid(args.grid), units, _quad_spec(args))
        return curve, {"atom": atom.label, "atom_b": atom_b.label}
    plate = PlateKind(args.plate)
    curve = mirror_curve(atom, parse_grid(args.grid), plate, units, _quad_spec(args))
    return curve, {"atom": atom.label, "plate": plate.value}


def cmd_curve(args) -> int:
    units = _units_for(args)
    curve, atoms = _curve(args, units)
    meta = _metadata(
        args,
        units=units.value,
        **atoms,
        grid=f"{args.grid} (geometric)",
        method="quadrature",
    )
    _emit(args, _render_curve(args, curve, meta))
    return 0


def cmd_slopes(args) -> int:
    if not args.atom_b and args.plate is None:
        raise ValueError(
            "slopes over a mirror curve need --plate; give --atom-b for pair geometry"
        )
    units = _units_for(args)
    curve, atoms = _curve(args, units)
    channel = "total" if args.channel == "total" else Channel(args.channel)
    if channel != "total" and channel not in curve.values:
        raise ValueError(
            f"channel {args.channel!r} does not exist in this geometry"
        )
    profile = local_log_slope(curve, channel)
    meta = _metadata(
        args,
        units=units.value,
        **atoms,
        grid=f"{args.grid} (geometric)",
        channel=args.channel,
    )
    if args.format == "json":
        body = {
            "columns": {
                "distance": [float(v) for v in profile.distances],
                "slope": [float(v) for v in profile.exponent],
                "sign": [int(v) for v in profile.sign],
            }
        }
        _emit(args, _json_document(meta, body))
    else:
        rows = [
            [_fmt(profile.distances[i]), _fmt(profile.exponent[i]), str(int(profile.sign[i]))]
            for i in range(profile.distances.size)
        ]
        _emit(args, _csv_document(meta, ["distance", "slope", "sign"], rows))
    return 0


def cmd_tables(args) -> int:
    units = _units_for(args, natural_default=True)
    if units is not UnitSystem.NATURAL:
        raise ValueError("table verification is defined in natural units")
    _quad_spec(args)  # validates rel_tol before any computation
    fixtures = default_fixtures(beta_d=args.diamagnetic_beta)
    report = verify_tables(fixtures, rel_tol=args.rel_tol)
    meta = _metadata(args, units=units.value)
    if args.format == "json":
        body = {
            "all_passed": report.all_passed,
            "cells": [cell.as_dict() for cell in report.cells],
        }
        _emit(args, _json_document(meta, body))
    else:
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
        rows = [
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
        ]
        _emit(args, _csv_document(meta, header, rows))
    return 0 if report.all_passed else 1


def cmd_selftest(args) -> int:
    units = _units_for(args, natural_default=True)
    if units is not UnitSystem.NATURAL:
        raise ValueError("the selftest is defined in natural units")
    report = run_selftest(rel_tol=args.rel_tol)
    meta = _metadata(args, units=units.value)
    if args.format == "json":
        _emit(args, _json_document(meta, report.as_dict()))
    elif args.format == "csv":
        rows = [
            [check.name, "PASS" if check.passed else "FAIL", check.detail]
            for check in report.checks
        ]
        _emit(args, _csv_document(meta, ["check", "status", "detail"], rows))
    else:
        lines = [f"# {key}: {value}" for key, value in meta.items()]
        lines.extend(report.lines())
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report.all_passed else 1


def _add_common(parser: argparse.ArgumentParser, default_format: str | None = "csv") -> None:
    parser.add_argument("--units", choices=["si", "natural"], default=None,
                        help="unit system (default: si for curves, natural for checks)")
    parser.add_argument("--rel-tol", type=float, default=1e-10, dest="rel_tol",
                        help="relative quadrature tolerance (default 1e-10)")
    parser.add_argument("--format", choices=["csv", "json"], default=default_format,
                        help="output format")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")


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
    mirror.set_defaults(handler=cmd_curve)

    pair = sub.add_parser("pair", help="two-atom potential over a separation grid")
    pair.add_argument("--atom", required=True, help="first atom definition file")
    pair.add_argument("--atom-b", required=True, dest="atom_b",
                      help="second atom definition file")
    pair.add_argument("--grid", required=True, help="min:max:points, geometric spacing")
    _add_common(pair)
    pair.set_defaults(handler=cmd_curve)

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
    slopes.set_defaults(handler=cmd_slopes)

    tables = sub.add_parser(
        "tables", help="verify the sign/power table of every channel and regime"
    )
    tables.add_argument(
        "--diamagnetic-beta", type=float, default=-1.0, dest="diamagnetic_beta",
        help="fixture diamagnetisability override (must be <= 0)"
    )
    _add_common(tables)
    tables.set_defaults(handler=cmd_tables)

    selftest = sub.add_parser("selftest", help="run the full oracle battery")
    _add_common(selftest, default_format=None)
    selftest.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except AtomFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
