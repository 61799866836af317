"""Power-law exponents and signs of computed potential curves.

The asymptotic behaviour of every channel is an integer power law with a
definite sign in each regime (nonretarded = separation small against c over
every transition frequency, retarded = large). local_log_slope measures
d ln|U| / d ln r by central differences on a geometric grid; verify_tables
checks each channel's sign exactly and its slope to +-0.05 in both regimes,
on one mirror and one self-pair curve of a fixture atom that carries the
e, p and d single-transition fixture responses. Each channel reads only its
own two responses, so its values are those of the single-response fixtures.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import (
    Channel,
    PotentialCurve,
    Regime,
    mirror_curve,
    pair_curve,
)
from .green import PlateKind
from .quad import QuadratureSpec
from .response import ELECTRIC, MAGNETIC, AtomModel, DiamagneticSpec, Transition
from .units import UnitSystem

SLOPE_TOL = 0.05
# Regime depth: l * omega / c at which a limit is considered deep. The
# subleading corrections are suppressed by at least one power of this, so
# measured slopes sit well inside SLOPE_TOL. None is the depth of a law that
# holds at every separation.
REGIME_DEPTH = {Regime.NONRETARDED: 1e-3, Regime.RETARDED: 1e3, None: 1.0}


@dataclass(frozen=True, slots=True)
class SlopeProfile:
    """Local log-log slope of |U| and the sign of U, on the interior grid points."""

    distances: np.ndarray
    exponent: np.ndarray
    sign: np.ndarray  # +1 or -1 per point


def local_log_slope(curve: PotentialCurve, channel) -> SlopeProfile:
    """Central-difference d ln|U| / d ln r on a geometric grid.

    channel is a Channel of the curve or the string "total"; any other is a
    ValueError naming the curve's geometry. The grid must be geometric
    (constant ratio) with at least 5 points; the two endpoints have no central
    stencil and are dropped, as is any interior point whose stencil contains a
    zero or a sign change.
    """
    if channel != "total" and channel not in curve.values:
        geometry = "pair" if curve.plate is None else "mirror"
        carried = ", ".join(str(ch) for ch in curve.values)
        raise ValueError(f"a {geometry} curve has no channel {channel!r}; give one of {carried} or 'total'")
    d = curve.distances
    if d.size < 5:
        raise ValueError("slope extraction needs at least 5 grid points")
    ratios = d[1:] / d[:-1]
    if np.max(np.abs(ratios / ratios[0] - 1.0)) > 1e-9:
        raise ValueError("slope extraction needs a geometric distance grid")
    u = curve.total if channel == "total" else curve.values[channel]
    signs = np.sign(u)
    inner = signs[1:-1]
    kept = np.flatnonzero((inner != 0.0) & (signs[:-2] == inner) & (signs[2:] == inner)) + 1
    log_d = np.log(d)
    slopes = (np.log(np.abs(u[kept + 1])) - np.log(np.abs(u[kept - 1]))) / (log_d[kept + 1] - log_d[kept - 1])
    return SlopeProfile(distances=d[kept], exponent=slopes, sign=signs[kept].astype(int))


@dataclass(frozen=True, slots=True)
class TableEntry:
    """One expected sign/power cell: a channel in a geometry and regime."""

    channel: Channel
    geometry: str  # "mirror" or "pair"
    regime: Regime | None  # None: the law holds at every separation
    expected_sign: int
    expected_power: int


# Signs for the conducting mirror; a permeable plate flips all of them.
MIRROR_TABLE = (
    TableEntry(Channel.E, "mirror", Regime.NONRETARDED, -1, -3),
    TableEntry(Channel.E, "mirror", Regime.RETARDED, -1, -4),
    TableEntry(Channel.P, "mirror", Regime.NONRETARDED, +1, -3),
    TableEntry(Channel.P, "mirror", Regime.RETARDED, +1, -4),
    TableEntry(Channel.D, "mirror", Regime.NONRETARDED, -1, -4),
    TableEntry(Channel.D, "mirror", Regime.RETARDED, -1, -4),
)

PAIR_TABLE = (
    TableEntry(Channel.EE, "pair", Regime.NONRETARDED, -1, -6),
    TableEntry(Channel.EE, "pair", Regime.RETARDED, -1, -7),
    TableEntry(Channel.EP, "pair", Regime.NONRETARDED, +1, -4),
    TableEntry(Channel.EP, "pair", Regime.RETARDED, +1, -7),
    TableEntry(Channel.ED, "pair", Regime.NONRETARDED, -1, -5),
    TableEntry(Channel.ED, "pair", Regime.RETARDED, -1, -7),
    TableEntry(Channel.PE, "pair", Regime.NONRETARDED, +1, -4),
    TableEntry(Channel.PE, "pair", Regime.RETARDED, +1, -7),
    TableEntry(Channel.PP, "pair", Regime.NONRETARDED, -1, -6),
    TableEntry(Channel.PP, "pair", Regime.RETARDED, -1, -7),
    TableEntry(Channel.PD, "pair", Regime.NONRETARDED, +1, -6),
    TableEntry(Channel.PD, "pair", Regime.RETARDED, +1, -7),
    TableEntry(Channel.DE, "pair", Regime.NONRETARDED, -1, -5),
    TableEntry(Channel.DE, "pair", Regime.RETARDED, -1, -7),
    TableEntry(Channel.DP, "pair", Regime.NONRETARDED, +1, -6),
    TableEntry(Channel.DP, "pair", Regime.RETARDED, +1, -7),
    # the dd power law is the same at every separation, one merged cell
    TableEntry(Channel.DD, "pair", None, -1, -7),
)

ALL_TABLE_ENTRIES = MIRROR_TABLE + PAIR_TABLE


def default_fixtures() -> dict[str, AtomModel]:
    """Single-transition fixture atoms in natural units, unit weights."""
    return {
        "e": AtomModel(
            label="electric-fixture",
            electric_transitions=(Transition(omega=1.0, dipole_sq=1.0, kind=ELECTRIC),),
        ),
        "p": AtomModel(
            label="paramagnetic-fixture",
            magnetic_transitions=(Transition(omega=1.0, dipole_sq=1.0, kind=MAGNETIC),),
        ),
        "d": AtomModel(
            label="diamagnetic-fixture",
            diamagnetic=DiamagneticSpec(direct_beta_d=-1.0),
        ),
    }


# Built once per process: the fixtures, and the atom of verify_tables that carries all three responses.
_FIXTURES = default_fixtures()
_TABLE_ATOM = AtomModel(
    "table-fixture",
    _FIXTURES["e"].electric_transitions,
    _FIXTURES["p"].magnetic_transitions,
    _FIXTURES["d"].diamagnetic,
)


@dataclass(frozen=True, slots=True)
class TableCellResult:
    entry: TableEntry
    measured_slope: float
    measured_sign: int
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {
            "channel": self.entry.channel.value,
            "geometry": self.entry.geometry,
            "regime": "all" if self.entry.regime is None else self.entry.regime.value,
            "expected_sign": self.entry.expected_sign,
            "expected_power": self.entry.expected_power,
            "measured_slope": self.measured_slope,
            "measured_sign": self.measured_sign,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True, slots=True)
class TableReport:
    cells: tuple[TableCellResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(cell.passed for cell in self.cells)


def _grid_around(center: float) -> np.ndarray:
    """Five points 2% apart, centre in the middle."""
    return center * 1.02 ** np.arange(-2, 3)


def _middle_slope(distances: np.ndarray, values: np.ndarray) -> float:
    """local_log_slope's central difference at the middle of five points, with the same operations."""
    log_d = np.log(distances)
    return float((np.log(abs(values[3])) - np.log(abs(values[1]))) / (log_d[3] - log_d[1]))


def _check_entry(entry: TableEntry, distances: np.ndarray, values: np.ndarray) -> TableCellResult:
    """A cell from its channel's five values: sign, and the central slope at the middle point."""
    signs = np.sign(values)
    if not (signs == signs[0]).all() or signs[0] == 0.0:
        return TableCellResult(entry, float("nan"), 0, False, "sign not uniform on the grid")
    measured_sign = int(signs[0])
    measured_slope = _middle_slope(distances, values)

    problems = []
    if measured_sign != entry.expected_sign:
        problems.append(f"sign {measured_sign:+d} != expected {entry.expected_sign:+d}")
    if abs(measured_slope - entry.expected_power) > SLOPE_TOL:
        problems.append(
            f"slope {measured_slope:.4f} off expected {entry.expected_power} by more than {SLOPE_TOL}"
        )
    return TableCellResult(entry, measured_slope, measured_sign, not problems, "; ".join(problems) or "ok")


def verify_tables(rel_tol: float = 1e-10) -> TableReport:
    """Check every sign/power cell against curves computed in the deep regimes.

    A conducting-mirror and a self-pair curve of one fixture atom with the e,
    p and d responses serve all 23 cells, each geometry on five points around
    each distinct REGIME_DEPTH of its cells, shallowest first. A channel reads
    only its own two responses, and a value depends on no other point of its
    curve, so a cell's five values are those of the single-response fixtures'
    curve on its grid alone, bit for bit. Deterministic: the fixture and grids
    are fixed and the curves exact (rel_tol bounds no quadrature here); runs in
    natural units with O(1) fixture magnitudes.
    """
    QuadratureSpec(rel_tol=rel_tol)  # checked only: bench/workloads.py passes it (ROADMAP item 1)
    depths, grid = {}, {}
    for geometry, table in (("mirror", MIRROR_TABLE), ("pair", PAIR_TABLE)):
        depths[geometry] = sorted({REGIME_DEPTH[entry.regime] for entry in table})
        grid[geometry] = np.concatenate([_grid_around(depth) for depth in depths[geometry]])
    mirror = mirror_curve(_TABLE_ATOM, grid["mirror"], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    curves = {"mirror": mirror, "pair": pair_curve(_TABLE_ATOM, _TABLE_ATOM, grid["pair"], UnitSystem.NATURAL)}
    cells = []
    for entry in ALL_TABLE_ENTRIES:
        curve, start = curves[entry.geometry], 5 * depths[entry.geometry].index(REGIME_DEPTH[entry.regime])
        cell = slice(start, start + 5)
        cells.append(_check_entry(entry, curve.distances[cell], curve.values[entry.channel][cell]))
    return TableReport(cells=tuple(cells))
