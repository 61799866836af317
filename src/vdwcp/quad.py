"""Adaptive semi-infinite quadrature for smooth, exponentially decaying integrands.

Every potential evaluation in this package reduces to integrals of the form
int_0^inf w(x) dx where w is a smooth product of Lorentzians and exp(-x) or
exp(-2x) factors (no oscillation). A nested 7/15-point Gauss-Kronrod rule with
worst-error-first bisection on a finite window [0, X] is enough; the window is
extended automatically whenever the analytic exponential tail bound, which is
always part of the reported error estimate, dominates the error budget.
The caller gives the relative tolerance in a QuadratureSpec and the decay
scale of the integrand's tail, a property of its kernel, as the integrators'
decay_scale keyword: the window starts as [0, 40*decay_scale] and each
extension adds 10*decay_scale. A column fails to converge after
MAX_SUBDIVISIONS bisections and extensions.

integrate_columns runs that algorithm for many integrands ("columns", for
instance one channel at every distance of a curve) in lockstep, up to
LOCKSTEP_COLUMNS columns at a time, so numpy's per-call cost is shared. Each
panel call fills up to LOCKSTEP_COLUMNS rows, one panel each: the next
pending panel of every column in flight and, while fewer columns are in
flight, further pending panels of the columns with the most of them, so a
row may repeat a column and even a single integral fills its calls. A
column's tail bound goes into the step of its last pending panel, one call
for all tail bounds of a step. A column's arithmetic does not depend on the
other rows of a call: its panels are created and its steps taken after the
same evaluations as on its own, the abscissas and the integrand are
elementwise, and every weighted sum is a dot product of one row (a stack of
(1, n) @ (n, 1) products, never one gemv over the batch). A column therefore
gives bit for bit what integrate_semiinf, its one-column case, gives for it
alone. The working set is bounded by the batch: at most LOCKSTEP_COLUMNS *
PANEL_NODES abscissas per integrand call, and per column in flight only a
flat array of its current panels.

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
# Columns integrated in lockstep: one integrand call sees at most
# LOCKSTEP_COLUMNS * PANEL_NODES abscissas.
LOCKSTEP_COLUMNS = 4
# Bisections and window extensions a column may take before it fails to converge.
MAX_SUBDIVISIONS = 400
# Absolute error allowance on top of rel_tol * |value|: a column whose value
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
    """Relative tolerance of integrate_semiinf and integrate_columns."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol!r}")


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _values(f: Callable, cols: list, x: np.ndarray):
    """f(cols, x) as a float array of x's shape, and the rows that are not finite.

    The failures are (row, first non-finite abscissa of that row) pairs; their
    values are replaced by zeros so the caller's arithmetic stays quiet.
    """
    y = f(cols, x)
    if not (isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == x.shape):
        if isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == (x.size,):
            y = y.reshape(x.shape)  # the rows as one 1d array
        else:
            y = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
    finite = np.isfinite(y)
    if finite.all():
        return y, ()
    rows = np.flatnonzero(~finite.all(axis=1)).tolist()
    failures = [(row, float(x[row, np.argmin(finite[row])])) for row in rows]
    return np.where(finite, y, 0.0), failures


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


def _panels(f: Callable, cols: list, lo: list, hi: list):
    """One Gauss-Kronrod panel [lo_i, hi_i] per row; returns (values, errors, failures).

    The integrand and the elementwise arithmetic run on the whole batch and
    every weighted sum on one row at a time, so a row's results do not depend
    on the other rows.
    """
    halves = [0.5 * (b - a) for a, b in zip(lo, hi)]
    x = np.array(halves)[:, None] * _NODES
    x += np.array([0.5 * (a + b) for a, b in zip(lo, hi)])[:, None]
    y, failures = _values(f, cols, x)
    del x
    values = [half * s for half, s in zip(halves, _dots(y, _WGK))]
    deviations = y - np.array([value / (b - a) for value, a, b in zip(values, lo, hi)])[:, None]
    np.abs(deviations, out=deviations)
    sums = zip(_dots(y[:, 1::2], _WG), _dots(np.abs(y), _WGK), _dots(deviations, _WGK))
    errors = [_error(half, resk, *row) for half, resk, row in zip(halves, values, sums)]
    return values, errors, failures


def _tail_bounds(f: Callable, cols: list, cutoffs: list, scale: float):
    """Bound |int_cutoff^inf f| per row assuming |f| decays at least like e^(-x/s).

    The amplitude at the cutoff is taken as the worst forward extrapolation of
    three samples just inside it, doubled for margin, so polynomial-times-
    exponential integrands stay covered. Returns (bounds, failures).
    """
    cutoff = np.array(cutoffs)[:, None]
    x = cutoff - scale * _TAIL_OFFSETS
    y, failures = _values(f, cols, x)
    x -= cutoff
    x /= scale
    y = np.abs(y)
    y *= np.exp(x)
    amplitude = np.max(y, axis=1)
    return (2.0 * amplitude * scale).tolist(), failures


class _Column:
    """One column in flight: its panels in creation order and its next evaluations.

    panels holds lo, hi, value and error of every panel of the current
    partition, four entries per panel in creation order. A bisection deletes
    the worst panel and appends its halves, so max() and index() find the
    worst error with the tie-break of a heap keyed on (-error, creation). The
    next evaluations are the panels between consecutive entries of points,
    from points[next] on, then a tail bound at points[-1] if tail_due.
    """

    __slots__ = (
        "index", "panels", "points", "next", "tail_due", "tail", "subdivisions", "evaluations",
    )

    def __init__(self, index: int, edges: list):
        self.index = index
        self.panels = array("d")
        self.points, self.next, self.tail_due = edges, 0, True
        self.tail = 0.0
        self.subdivisions = 0
        self.evaluations = 0

    def advance(self, rel_tol: float, decay_scale: float):
        """One step of the per-column algorithm once its evaluations are in.

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
        self.next = 0
        self.subdivisions += 1
        return None


def _spare_rows(live: list) -> list:
    """The columns that take a step's spare rows, one entry per row.

    While fewer than LOCKSTEP_COLUMNS columns are live, each spare row goes
    to the column with the most panels still pending after its first row,
    the first in column order among equals, until the rows or the pending
    panels run out.
    """
    spare = LOCKSTEP_COLUMNS - len(live)
    left = [len(column.points) - 2 - column.next for column in live] if spare else ()
    rows = []
    for _ in range(spare):
        most = max(left)
        if most == 0:
            break
        j = left.index(most)
        left[j] -= 1
        rows.append(live[j])
    return rows


def integrate_columns(
    f: Callable, n: int, spec: QuadratureSpec = QuadratureSpec(), decay_scale: float = 1.0
) -> np.ndarray:
    """Integrate n integrands over [0, inf) to spec.rel_tol, in lockstep.

    f(cols, x) gets a list of column indices and a (len(cols), m) array of
    abscissas, row i for column cols[i], and returns the matching array of
    values; m is 15 for a panel and 3 for a tail bound, and len(cols) <=
    LOCKSTEP_COLUMNS. An index may repeat: a column's rows of one call are,
    in row order, consecutive panels in its evaluation order, and with
    LOCKSTEP_COLUMNS columns in flight every panel call takes one row of
    each. Each column runs integrate_semiinf's algorithm on its own, so a
    column's result does not depend on the other rows of a call as long as
    f evaluates each row on its own. decay_scale is as for integrate_semiinf.

    Returns a (3, n) array: per column its value, error estimate and
    evaluation count. Raises the IntegrandError or ConvergenceError of the
    lowest-index column that fails; the other columns' results are then
    discarded.
    """
    if not decay_scale > 0.0:
        raise ValueError(f"decay_scale must be positive, got {decay_scale!r}")
    s, rel_tol = decay_scale, spec.rel_tol
    edges = [0.0, 0.5 * s, s, 2.0 * s, 5.0 * s, 10.0 * s, 20.0 * s, 40.0 * s]
    results = np.zeros((3, n))
    live = [_Column(i, edges) for i in range(min(n, LOCKSTEP_COLUMNS))]
    admitted = len(live)
    failed, failure = n, None  # the lowest failing column and its exception

    while live:
        # This step's panels: the next pending one of every live column, then
        # the spare rows. A column's rows come in its evaluation order. A
        # column's tail bound goes with its last pending panel, and the column
        # is then ready to take its next step.
        panel_cols = live + _spare_rows(live)
        lo, hi = [], []
        for column in panel_cols:
            i = column.next
            lo.append(column.points[i])
            hi.append(column.points[i + 1])
            column.next = i + 1
        tail_cols, cutoffs, ready = [], [], []
        for column in live:
            points = column.points
            if column.next + 1 == len(points):
                if column.tail_due:
                    tail_cols.append(column)
                    cutoffs.append(points[-1])
                    column.tail_due = False
                ready.append(column)
        bad = []
        values, errors, rows = _panels(f, [c.index for c in panel_cols], lo, hi)
        for column, a, b, value, err in zip(panel_cols, lo, hi, values, errors):
            column.panels.extend((a, b, value, err))
            column.evaluations += PANEL_NODES
        if rows:
            bad += [(panel_cols[row], IntegrandError(x)) for row, x in rows]
        if tail_cols:
            tails, rows = _tail_bounds(f, [c.index for c in tail_cols], cutoffs, s)
            for column, tail in zip(tail_cols, tails):
                column.tail = tail
                column.evaluations += TAIL_NODES
            if rows:
                bad += [(tail_cols[row], IntegrandError(x)) for row, x in rows]

        done = []
        for column in ready:
            try:
                result = column.advance(rel_tol, s)
            except ConvergenceError as exc:
                bad.append((column, exc))
                continue
            if result is not None:
                i = column.index
                results[0, i], results[1, i] = result
                results[2, i] = column.evaluations
                done.append(column)
        for column, exc in bad:
            if column.index < failed:
                failed, failure = column.index, exc
        if done or bad:
            live = [column for column in live if column.index < failed and column not in done]
            while len(live) < LOCKSTEP_COLUMNS and admitted < failed:
                live.append(_Column(admitted, edges))
                admitted += 1

    if failure is not None:
        raise failure
    return results


def integrate_semiinf(
    f: Callable, spec: QuadratureSpec = QuadratureSpec(), decay_scale: float = 1.0
) -> QuadratureResult:
    """Integrate f over [0, inf) to spec.rel_tol.

    f must accept a 1d ndarray of abscissas, 15 per panel for up to
    LOCKSTEP_COLUMNS panels (at most 60) or 3 for a tail bound, and return
    the matching ndarray of values, each value depending on its own
    abscissa only; it is assumed smooth and decaying at least like
    exp(-x/decay_scale) beyond ~10*decay_scale. This is integrate_columns
    with one column, whose packed rows f gets as one array.

    Returns a QuadratureResult whose error_estimate satisfies
    error_estimate <= rel_tol*|value| + ABS_TOL. Raises IntegrandError on
    non-finite integrand values and ConvergenceError (carrying the best
    estimate) once a column has taken MAX_SUBDIVISIONS subdivisions.
    """
    results = integrate_columns(lambda cols, x: f(x.ravel()), 1, spec, decay_scale=decay_scale)
    value, error, evaluations = results[:, 0].tolist()
    return QuadratureResult(value=value, error_estimate=error, evaluations=int(evaluations))
