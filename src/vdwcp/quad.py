"""Adaptive semi-infinite quadrature: the independent route of the oracle checks.

The potentials are closed forms; this module integrates the same smooth,
exponentially decaying kernels numerically for the selftest,
vdw_pair_total_direct and the tests. A nested 7/15-point Gauss-Kronrod rule
bisects the worst panel first on a window [0, 40*decay_scale], which grows
by 10*decay_scale whenever the analytic exponential tail bound, always part
of the error estimate, dominates the budget; MAX_SUBDIVISIONS bisections and
extensions are allowed. An integrand call evaluates up to PANELS_PER_CALL
pending panels, and a due tail bound follows the last of them.

Deterministic by construction: panel ordering is tie-broken by creation index
and the panel values are summed with math.fsum, which rounds the exact sum
once and so does not depend on the order of the panels; identical inputs give
bit-identical results.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

# 15-point Kronrod nodes (positive half, descending) and weights, with the
# embedded 7-point Gauss weights, in double precision.
_XGK_HALF = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK_HALF = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG_HALF = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

_NODES = np.array([-x for x in _XGK_HALF[:7]] + [0.0] + [x for x in _XGK_HALF[6::-1]])
_WGK = np.array(list(_WGK_HALF[:7]) + [_WGK_HALF[7]] + list(_WGK_HALF[6::-1]))
# Gauss nodes sit at every second Kronrod node, y[1::2].
_WG = np.array(list(_WG_HALF[:3]) + [_WG_HALF[3]] + list(_WG_HALF[2::-1]))

_EPS = float(np.finfo(float).eps)
_TAIL_OFFSETS = np.array([0.2, 0.1, 0.0])

PANEL_NODES = _NODES.size
TAIL_NODES = _TAIL_OFFSETS.size
# Pending panels evaluated by one integrand call.
PANELS_PER_CALL = 4
# Bisections and window extensions an integral may take before it fails to converge.
MAX_SUBDIVISIONS = 400
# Absolute error allowance on top of rel_tol * |value|: an integral whose value
# is exactly zero converges once its error bound is this small.
ABS_TOL = 1e-300


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class IntegrandError(QuadratureError):
    """The integrand returned a non-finite value."""

    def __init__(self, abscissa: float):
        self.abscissa = abscissa
        super().__init__(f"integrand returned a non-finite value at x = {abscissa!r}")


class ConvergenceError(QuadratureError):
    """Subdivision budget exhausted before the tolerance was met."""

    def __init__(self, best: "QuadratureResult", tolerance: float):
        self.best = best
        self.tolerance = tolerance
        super().__init__(
            "quadrature did not converge: best estimate "
            f"{best.value!r} with error bound {best.error_estimate:.3e} "
            f"exceeds tolerance {tolerance:.3e} after {best.evaluations} evaluations"
        )


@dataclass(frozen=True, slots=True)
class QuadratureSpec:
    """Relative tolerance of integrate_semiinf."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol!r}")


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _values(f: Callable, x: np.ndarray):
    """f of the rows of x, given as one 1d array, in x's shape, and the first bad abscissa.

    That is the first non-finite value's abscissa in the first row that has
    one, whose values become zeros; None when every value is finite.
    """
    y = np.broadcast_to(np.asarray(f(x.ravel()), dtype=float), (x.size,)).reshape(x.shape)
    finite = np.isfinite(y)
    if finite.all():
        return y, None
    row = int(np.argmin(finite.all(axis=1)))
    return np.where(finite, y, 0.0), float(x[row, np.argmin(finite[row])])


def _dots(rows: np.ndarray, weights: np.ndarray) -> list:
    """weights @ row for every row of a 2d array, each row summed on its own.

    A stack of (1, n) @ (n, 1) products runs one BLAS dot per row, the same
    dot as weights @ row, so a row's sum does not depend on the other rows; a
    2d @ would run one gemv, whose rows can round differently.
    """
    return (rows[:, None, :] @ weights[:, None]).ravel().tolist()


def _error(half: float, resk: float, gauss: float, absolute: float, deviation: float) -> float:
    """Error estimate of one panel from its value and its other weighted sums.

    Python floats: their ** is the C library's pow, numpy's vector power can
    round differently.
    """
    resg, resabs, resasc = half * gauss, half * absolute, half * deviation
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return max(err, 50.0 * _EPS * resabs)


def _panels(f: Callable, lo: list, hi: list):
    """One Gauss-Kronrod panel [lo_i, hi_i] per row; returns (values, errors, bad abscissa).

    Every weighted sum runs on one row at a time: a row's results do not
    depend on the others.
    """
    halves = [0.5 * (b - a) for a, b in zip(lo, hi)]
    x = np.array(halves)[:, None] * _NODES
    x += np.array([0.5 * (a + b) for a, b in zip(lo, hi)])[:, None]
    y, bad = _values(f, x)
    del x
    values = [half * s for half, s in zip(halves, _dots(y, _WGK))]
    deviations = y - np.array([value / (b - a) for value, a, b in zip(values, lo, hi)])[:, None]
    np.abs(deviations, out=deviations)
    sums = zip(_dots(y[:, 1::2], _WG), _dots(np.abs(y), _WGK), _dots(deviations, _WGK))
    errors = [_error(half, resk, *row) for half, resk, row in zip(halves, values, sums)]
    return values, errors, bad


def _tail_bound(f: Callable, cutoff: float, scale: float):
    """Bound |int_cutoff^inf f| assuming |f| decays at least like e^(-x/scale).

    The amplitude at the cutoff is taken as the worst forward extrapolation of
    three samples just inside it, doubled for margin, so polynomial-times-
    exponential integrands stay covered. Returns (bound, bad abscissa).
    """
    x = cutoff - scale * _TAIL_OFFSETS[None, :]
    y, bad = _values(f, x)
    x -= cutoff
    x /= scale
    y = np.abs(y)
    y *= np.exp(x)
    return 2.0 * float(np.max(y)) * scale, bad


class _Column:
    """One integral in progress: its panels in creation order and its next evaluations.

    panels holds lo, hi, value and error of every panel, four entries each; a
    bisection deletes the worst and appends its halves, so max() and index()
    break ties by creation. Next come the panels between consecutive points,
    then a tail bound at points[-1] if tail_due.
    """

    __slots__ = ("panels", "points", "tail_due", "tail", "subdivisions", "evaluations")

    def __init__(self, edges: list):
        self.panels = array("d")
        self.points, self.tail_due = edges, True
        self.tail = 0.0
        self.subdivisions = 0
        self.evaluations = 0

    def advance(self, rel_tol: float, decay_scale: float):
        """One step of the algorithm once its evaluations are in.

        Returns (value, error estimate) when converged, else None with the
        next evaluations set; raises ConvergenceError when the subdivision
        budget is spent.
        """
        panels = self.panels
        value = math.fsum(panels[2::4])
        errors = panels[3::4]
        total_err = math.fsum(errors) + self.tail
        tolerance = rel_tol * abs(value) + ABS_TOL
        if total_err <= tolerance:
            return value, total_err
        if self.subdivisions >= MAX_SUBDIVISIONS:
            best = QuadratureResult(value, total_err, self.evaluations)
            raise ConvergenceError(best, tolerance)
        if self.tail > 0.5 * tolerance:
            # Bisection cannot reduce the tail; push the window outward instead.
            cutoff = self.points[-1]
            self.points, self.tail_due = [cutoff, cutoff + 10.0 * decay_scale], True
        else:
            worst = 4 * errors.index(max(errors))  # the first of equal errors: creation order
            a, b = panels[worst], panels[worst + 1]
            del panels[worst : worst + 4]
            self.points = [a, 0.5 * (a + b), b]
        self.subdivisions += 1
        return None


def integrate_semiinf(
    f: Callable, spec: QuadratureSpec = QuadratureSpec(), decay_scale: float = 1.0
) -> QuadratureResult:
    """Integrate f over [0, inf) to spec.rel_tol.

    f maps a 1d ndarray of abscissas, 15 per panel for up to PANELS_PER_CALL
    panels or 3 for a tail bound, to their values elementwise; it should be
    smooth and decay at least like exp(-x/decay_scale) beyond
    ~10*decay_scale. Returns a QuadratureResult with error_estimate <=
    rel_tol*|value| + ABS_TOL. Raises IntegrandError at the first
    non-finite value of the earliest panel, and ConvergenceError (carrying
    the best estimate) after MAX_SUBDIVISIONS subdivisions.
    """
    if not decay_scale > 0.0:
        raise ValueError(f"decay_scale must be positive, got {decay_scale!r}")
    s = decay_scale
    column = _Column([0.0, 0.5 * s, s, 2.0 * s, 5.0 * s, 10.0 * s, 20.0 * s, 40.0 * s])
    while True:
        points = column.points
        for start in range(0, len(points) - 1, PANELS_PER_CALL):
            stop = min(start + PANELS_PER_CALL, len(points) - 1)
            values, errors, bad = _panels(f, points[start:stop], points[start + 1 : stop + 1])
            for a, b, value, err in zip(points[start:stop], points[start + 1 :], values, errors):
                column.panels.extend((a, b, value, err))
            column.evaluations += PANEL_NODES * len(values)
            tail_bad = None
            if stop == len(points) - 1 and column.tail_due:
                column.tail, tail_bad = _tail_bound(f, points[-1], s)
                column.evaluations += TAIL_NODES
                column.tail_due = False
            if bad is not None or tail_bad is not None:
                raise IntegrandError(tail_bad if bad is None else bad)
        result = column.advance(spec.rel_tol, s)
        if result is not None:
            value, error = result
            return QuadratureResult(value=value, error_estimate=error, evaluations=column.evaluations)
