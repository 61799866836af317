"""Adaptive semi-infinite quadrature for smooth, exponentially decaying integrands.

Every potential evaluation in this package reduces to integrals of the form
int_0^inf w(x) dx where w is a smooth product of Lorentzians and exp(-x) or
exp(-2x) factors (no oscillation). A nested 7/15-point Gauss-Kronrod rule with
worst-error-first bisection on a finite window [0, X] is enough; the window is
extended automatically whenever the analytic exponential tail bound, which is
always part of the reported error estimate, dominates the error budget.

Deterministic by construction: panel ordering is tie-broken by creation index
and the panel values are summed with math.fsum, which rounds the exact sum
once and so does not depend on the order of the panels; identical inputs give
bit-identical results.
"""
from __future__ import annotations

import heapq
import math
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

_EPS = np.finfo(float).eps


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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and decay hint for integrate_semiinf.

    decay_scale is the e^(-x/s) scale of the integrand's far tail; the
    initial integration window is [0, 40*decay_scale].
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-300
    decay_scale: float = 1.0
    max_subdivisions: int = 400

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in (0, 1e-2], got {self.rel_tol!r}")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be non-negative")
        if not self.decay_scale > 0.0:
            raise ValueError("decay_scale must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _values(f: Callable, x: np.ndarray) -> np.ndarray:
    """f at the abscissas x as a float array of x's shape; raises IntegrandError if not finite."""
    y = f(x)
    if not (isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == x.shape):
        y = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
    finite = np.isfinite(y)
    if not finite.all():
        raise IntegrandError(float(x[np.argmin(finite)]))
    return y


def _panel(f: Callable, a: float, b: float) -> tuple[float, float, int]:
    """Evaluate one Gauss-Kronrod panel; returns (value, error, evaluations)."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    y = _values(f, x)
    resk = half * float(_WGK @ y)
    resg = half * float(_WG @ y[1::2])
    resabs = half * float(_WGK @ np.abs(y))
    mean = resk / (b - a)
    resasc = half * float(_WGK @ np.abs(y - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return resk, err, x.size


def _tail_bound(f: Callable, cutoff: float, scale: float) -> tuple[float, int]:
    """Bound |int_cutoff^inf f| assuming |f| decays at least like e^(-x/s).

    The amplitude at the cutoff is taken as the worst forward extrapolation of
    three samples just inside it, doubled for margin, so polynomial-times-
    exponential integrands stay covered.
    """
    x = cutoff - scale * np.array([0.2, 0.1, 0.0])
    y = _values(f, x)
    amplitude = float(np.max(np.abs(y) * np.exp((x - cutoff) / scale)))
    return 2.0 * amplitude * scale, x.size


def integrate_semiinf(f: Callable, spec: QuadratureSpec = QuadratureSpec()) -> QuadratureResult:
    """Integrate f over [0, inf) to the tolerances in spec.

    f must accept an ndarray of abscissas and return the matching ndarray of
    values; it is assumed smooth and decaying at least like
    exp(-x/decay_scale) beyond ~10*decay_scale.

    Returns a QuadratureResult whose error_estimate satisfies
    error_estimate <= rel_tol*|value| + abs_tol. Raises IntegrandError on
    non-finite integrand values and ConvergenceError (carrying the best
    estimate) if max_subdivisions is exhausted.
    """
    s = spec.decay_scale
    edges = [0.0, 0.5 * s, s, 2.0 * s, 5.0 * s, 10.0 * s, 20.0 * s, 40.0 * s]
    cutoff = edges[-1]

    evaluations = 0
    counter = 0
    # Entries (-error, creation index, a, b, value): worst error first.
    heap: list[tuple[float, int, float, float, float]] = []
    for a, b in zip(edges[:-1], edges[1:]):
        value, err, n = _panel(f, a, b)
        evaluations += n
        heapq.heappush(heap, (-err, counter, a, b, value))
        counter += 1

    tail, n = _tail_bound(f, cutoff, s)
    evaluations += n

    subdivisions = 0
    while True:
        value = math.fsum(entry[4] for entry in heap)
        panel_err = -math.fsum(entry[0] for entry in heap)
        total_err = panel_err + tail
        tolerance = spec.rel_tol * abs(value) + spec.abs_tol
        if total_err <= tolerance:
            return QuadratureResult(value=value, error_estimate=total_err, evaluations=evaluations)
        if subdivisions >= spec.max_subdivisions:
            best = QuadratureResult(value=value, error_estimate=total_err, evaluations=evaluations)
            raise ConvergenceError(best, tolerance)
        if tail > 0.5 * tolerance:
            # Bisection cannot reduce the tail; push the window outward instead.
            new_cutoff = cutoff + 10.0 * s
            pvalue, perr, n = _panel(f, cutoff, new_cutoff)
            evaluations += n
            heapq.heappush(heap, (-perr, counter, cutoff, new_cutoff, pvalue))
            counter += 1
            cutoff = new_cutoff
            tail, n = _tail_bound(f, cutoff, s)
            evaluations += n
        else:
            _, _, a, b, _ = heapq.heappop(heap)
            mid = 0.5 * (a + b)
            for lo, hi in ((a, mid), (mid, b)):
                pvalue, perr, n = _panel(f, lo, hi)
                evaluations += n
                heapq.heappush(heap, (-perr, counter, lo, hi, pvalue))
                counter += 1
        subdivisions += 1
