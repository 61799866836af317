"""Double-exponential quadrature on [0, inf): the independent route of the oracle checks.

The potentials are closed forms; this module integrates the same smooth,
exponentially decaying kernels numerically for the selftest,
vdw_pair_total_direct and the tests. It is the exp-exp double-exponential
rule of Takahasi & Mori (1974) in the form of Ooura & Mori (1991): with
x = decay_scale * exp(t - e^(-t)), the integral becomes the trapezoidal sum
h * sum_k f(x(kh)) x'(kh) over the nodes with 1e-30 < x/decay_scale < 800.
Level 0 has step h = 1/12, 131 nodes; its even nodes, the half rule of step
1/6, give the first error estimate |I_h - I_2h| at no extra cost. Each
further level halves h and evaluates only its new nodes, the odd multiples of
the new step, until the estimate meets the tolerance or MAX_LEVEL is passed.
f must be elementwise: it takes the nodes in calls of at most CHUNK_NODES
abscissas, the half rule's first, then each level's new nodes, ascending in t.

Deterministic by construction: the nodes are fixed, each call's terms are
summed with math.fsum, which rounds the exact sum once, and the calls' sums
again with math.fsum; identical inputs give bit-identical results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Step of the half rule, the coarsest of the nested rules; level 0 halves it.
_HALF_STEP = 1.0 / 6.0
# Nodes are kept where x/decay_scale lies in this window; t in [-5, 7] covers it.
_X_WINDOW = (1e-30, 800.0)
_T_SPAN = (-5.0, 7.0)
# Abscissas per integrand call, which bounds the integrands' temporaries: the
# half rule and level 0's new nodes take one call each, of 66 and 65.
CHUNK_NODES = 66
# Levels after level 0 an integral may take before it fails to converge: level
# 7 has step 1/1536 and brings the evaluations to 16,679.
MAX_LEVEL = 7
# Absolute error allowance on top of rel_tol * |value|: an integral whose value
# is exactly zero converges once its error bound is this small.
ABS_TOL = 1e-300
_EPS = float(np.finfo(float).eps)


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class IntegrandError(QuadratureError):
    """The integrand returned a non-finite value."""

    def __init__(self, abscissa: float):
        self.abscissa = abscissa
        super().__init__(f"integrand returned a non-finite value at x = {abscissa!r}")


class ConvergenceError(QuadratureError):
    """The last level's error estimate missed the tolerance."""

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
    """Relative tolerance of integrate_semiinf, in [1e-13, 1e-2]."""

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 1e-13 <= self.rel_tol <= 1e-2:
            raise ValueError(f"rel_tol must lie in [1e-13, 1e-2], got {self.rel_tol!r}")


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _nodes(halvings: int) -> tuple:
    """The (x, dx/dt) chunks, at decay_scale 1, of the nodes that the rule of
    step _HALF_STEP / 2**halvings adds: all of the half rule's, the odd
    multiples of the step after it, each chunk of at most CHUNK_NODES."""
    h = _HALF_STEP / 2**halvings
    k = np.arange(math.floor(_T_SPAN[0] / h), math.ceil(_T_SPAN[1] / h) + 1)
    if halvings:
        k = k[k % 2 == 1]
    t = k * h
    x = np.exp(t - np.exp(-t))
    keep = (_X_WINDOW[0] < x) & (x < _X_WINDOW[1])
    t, x = t[keep], x[keep]
    dx = x * (1.0 + np.exp(-t))
    return tuple((x[i : i + CHUNK_NODES], dx[i : i + CHUNK_NODES]) for i in range(0, x.size, CHUNK_NODES))


# The half rule's and level 0's nodes, which every integral takes.
_LEVEL_0 = (_nodes(0), _nodes(1))


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


def integrate_semiinf(
    f: Callable, spec: QuadratureSpec = QuadratureSpec(), decay_scale: float = 1.0
) -> QuadratureResult:
    """Integrate f over [0, inf) to spec.rel_tol.

    f maps a 1d ndarray of at most CHUNK_NODES abscissas to their values
    elementwise. f should be smooth and decay at least like
    exp(-x/decay_scale). The error estimate is |I_h - I_2h| plus 2 eps times
    the rule's integral of |f|, which covers the rounding of the sums; it
    assumes the half rule already resolves f, so an oscillation that the two
    coarsest rules alias alike can escape it at a loose rel_tol. Returns a
    QuadratureResult with error_estimate <= rel_tol*|value| + ABS_TOL. Raises
    IntegrandError at the first non-finite value, in the order f takes the
    abscissas, and ConvergenceError (carrying the last level's result) when
    level MAX_LEVEL misses the tolerance.
    """
    if not decay_scale > 0.0:
        raise ValueError(f"decay_scale must be positive, got {decay_scale!r}")
    s = decay_scale
    sums, magnitude, evaluations, previous = [], 0.0, 0, None
    for halvings in range(MAX_LEVEL + 2):
        for x, dx in _LEVEL_0[halvings] if halvings < 2 else _nodes(halvings):
            terms = dx * _values(f, s * x)
            sums.append(math.fsum(terms.data))
            magnitude += math.fsum(np.abs(terms, out=terms).data)
            evaluations += x.size
        h = s * _HALF_STEP / 2**halvings
        value = h * math.fsum(sums)
        if previous is not None:
            error = abs(value - previous) + 2.0 * _EPS * h * magnitude
            tolerance = spec.rel_tol * abs(value) + ABS_TOL
            if error <= tolerance:
                return QuadratureResult(value=value, error_estimate=error, evaluations=evaluations)
        previous = value
    raise ConvergenceError(QuadratureResult(value, error, evaluations), tolerance)
