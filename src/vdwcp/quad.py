"""Adaptive semi-infinite quadrature: the independent route of the oracle checks.

The potentials are closed forms; this module integrates the same smooth,
exponentially decaying kernels numerically for the selftest,
vdw_pair_total_direct and the tests. A nested 7/15-point Gauss-Kronrod rule
bisects the worst panel first on a window [0, 40*decay_scale], whose end
moves out by 10*decay_scale whenever the analytic exponential tail bound
beyond it, always part of the error estimate, dominates the budget;
MAX_SUBDIVISIONS bisections and extensions are allowed. A round adds panels:
the seven of the opening window, the two halves of a bisection or the one of
an extension, each but a bisection with a new tail bound. f must be
elementwise: a round's abscissas go to it in as few calls as whole panels
allow, at most PANELS_PER_CALL panels of 15 abscissas each, and the tail
bound's 3 abscissas in the round's last call; each panel keeps its own sums.

Deterministic by construction: panel ordering is tie-broken by creation index
and the panel values are summed with math.fsum, which rounds the exact sum
once and so does not depend on the order of the panels; identical inputs give
bit-identical results.
"""
from __future__ import annotations

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

_EPS = float(np.finfo(float).eps)
_TAIL_OFFSETS = np.array([0.2, 0.1, 0.0])

PANEL_NODES = _NODES.size
TAIL_NODES = _TAIL_OFFSETS.size
# Panels of one integrand call. The integrands' temporaries grow with it: a
# whole opening round in one call of 108 abscissas raised the traced memory
# peak of a verify request by 5%, four panels by 0.1%.
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
    """Relative tolerance of integrate_semiinf.

    The range [1e-13, 1e-2] holds for integrands without strong cancellation.
    The per-panel rounding floor scales with the integral of |f|, not with the
    value, so an integral far smaller than that may not reach a tight rel_tol:
    e^(-x/4.9559) (0.041722 + cos(4.53706 x + 1.15401)) at 3.7e-12 raises
    ConvergenceError.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        # tighter targets near the panels' rounding floor of 50 eps can exhaust MAX_SUBDIVISIONS
        if not 1e-13 <= self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in [1e-13, 1e-2], got {self.rel_tol!r}")


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _values(f: Callable, x: np.ndarray) -> np.ndarray:
    """f at the abscissas x as a float array of x's shape.

    Raises IntegrandError at the first non-finite value.
    """
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:  # such as a constant integrand's scalar; the broadcast costs a third of a call
        y = np.broadcast_to(y, x.shape)
    finite = np.isfinite(y)
    if not finite.all():
        raise IntegrandError(float(x[np.argmin(finite)]))
    return y


def _panel(y: np.ndarray, a: float, b: float) -> tuple[float, float]:
    """Value and error estimate of the Gauss-Kronrod rule on [a, b] from f at its 15 nodes.

    Each weighted sum is one 1d dot. The error arithmetic runs on Python
    floats: their ** is the C library's pow, numpy's vector power can round
    differently.
    """
    half = 0.5 * (b - a)
    resk = half * float(_WGK @ y)
    resg = half * float(_WG @ y[1::2])
    resabs = half * float(_WGK @ np.abs(y))
    resasc = half * float(_WGK @ np.abs(y - resk / (b - a)))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, max(err, 50.0 * _EPS * resabs)


def _tail_bound(y: np.ndarray, cutoff: float, scale: float) -> float:
    """Bound |int_cutoff^inf f| from f at cutoff - scale * _TAIL_OFFSETS,
    assuming |f| decays at least like e^(-x/scale).

    The amplitude at the cutoff is taken as the worst forward extrapolation of
    three samples just inside it, doubled for margin, so polynomial-times-
    exponential integrands stay covered.
    """
    x = cutoff - scale * _TAIL_OFFSETS
    y = np.abs(y)
    x -= cutoff
    x /= scale
    y *= np.exp(x)
    return 2.0 * float(np.max(y)) * scale


def _round(f: Callable, points: list, cutoff: float | None, scale: float):
    """The panels (lo, hi, value, error) between consecutive points, and the
    tail bound beyond cutoff, None without one.

    f takes at most PANELS_PER_CALL whole panels per call, and the tail
    bound's abscissas after the last call's panels. The abscissas keep the
    panels' order, then the tail bound's, and IntegrandError names the first
    in that order whose value is not finite.
    """
    panels, tail, count = [], None, len(points) - 1
    for first in range(0, count, PANELS_PER_CALL):
        chunk = points[first : first + PANELS_PER_CALL + 1]
        ends = np.array(chunk)
        x = (0.5 * (ends[1:] - ends[:-1]))[:, None] * _NODES
        x += (0.5 * (ends[:-1] + ends[1:]))[:, None]
        x = x.ravel()
        last = first + PANELS_PER_CALL >= count and cutoff is not None
        if last:
            x = np.concatenate((x, cutoff - scale * _TAIL_OFFSETS))
        y = _values(f, x)
        for k, (a, b) in enumerate(zip(chunk, chunk[1:])):
            panels.append((a, b, *_panel(y[k * PANEL_NODES : (k + 1) * PANEL_NODES], a, b)))
        if last:
            tail = _tail_bound(y[-TAIL_NODES:], cutoff, scale)
    return panels, tail


def integrate_semiinf(
    f: Callable, spec: QuadratureSpec = QuadratureSpec(), decay_scale: float = 1.0
) -> QuadratureResult:
    """Integrate f over [0, inf) to spec.rel_tol.

    f maps a 1d ndarray of abscissas to their values elementwise; a call
    takes whole panels of 15, at most PANELS_PER_CALL, and the round's last
    call also the 3 of its tail bound. f should be smooth and decay at least like
    exp(-x/decay_scale) beyond ~10*decay_scale. Returns a QuadratureResult
    with error_estimate <= rel_tol*|value| + ABS_TOL. Raises IntegrandError
    at the first non-finite value, and ConvergenceError (carrying the best
    estimate) after MAX_SUBDIVISIONS subdivisions.
    """
    if not decay_scale > 0.0:
        raise ValueError(f"decay_scale must be positive, got {decay_scale!r}")
    s = decay_scale
    points = [0.0, 0.5 * s, s, 2.0 * s, 5.0 * s, 10.0 * s, 20.0 * s, 40.0 * s]
    end = points[-1]  # the window end, moved only by an extension
    # (lo, hi, value, error) of every panel in creation order: a bisection
    # deletes the worst and appends its halves, so index() breaks ties by creation
    panels = []
    tail, tail_due = 0.0, True
    evaluations = subdivisions = 0
    while True:
        new, new_tail = _round(f, points, end if tail_due else None, s)
        panels += new
        evaluations += PANEL_NODES * len(new)
        if tail_due:
            tail, tail_due = new_tail, False
            evaluations += TAIL_NODES
        value = math.fsum(panel[2] for panel in panels)
        errors = [panel[3] for panel in panels]
        total_err = math.fsum(errors) + tail
        tolerance = spec.rel_tol * abs(value) + ABS_TOL
        if total_err <= tolerance:
            return QuadratureResult(value=value, error_estimate=total_err, evaluations=evaluations)
        if subdivisions >= MAX_SUBDIVISIONS:
            raise ConvergenceError(QuadratureResult(value, total_err, evaluations), tolerance)
        if tail > 0.5 * tolerance:
            # Bisection cannot reduce the tail; push the window outward instead.
            points, tail_due = [end, end + 10.0 * s], True
            end = points[-1]
        else:
            a, b, _, _ = panels.pop(errors.index(max(errors)))
            points = [a, 0.5 * (a + b), b]
        subdivisions += 1
