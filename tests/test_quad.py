"""Adaptive semi-infinite quadrature against analytically known integrals."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vdwcp.green import mirror_kernel
from vdwcp.quad import (
    PANEL_NODES,
    PANELS_PER_CALL,
    TAIL_NODES,
    ConvergenceError,
    IntegrandError,
    QuadratureSpec,
    _dots,
    integrate_semiinf,
)


def test_exponential_integral_is_one():
    result = integrate_semiinf(lambda x: np.exp(-x))
    assert result.value == pytest.approx(1.0, rel=1e-12)
    assert result.error_estimate <= 1e-10 * result.value
    assert result.evaluations > 0


def test_gaussian_tail_integral():
    result = integrate_semiinf(lambda x: np.exp(-0.5 * x * x))
    assert result.value == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)


@given(st.integers(min_value=0, max_value=6))
def test_gamma_moments(n):
    result = integrate_semiinf(lambda x: x**n * np.exp(-x))
    assert result.value == pytest.approx(math.factorial(n), rel=1e-10)


@pytest.mark.parametrize("scale", [0.1, 10.0])
def test_decay_scale_invariance(scale):
    result = integrate_semiinf(lambda x: np.exp(-x / scale) / scale, decay_scale=scale)
    assert result.value == pytest.approx(1.0, rel=1e-12)


def test_linearity():
    f = lambda x: np.exp(-x)
    g = lambda x: x * np.exp(-2.0 * x)
    combined = integrate_semiinf(lambda x: 3.0 * f(x) - 2.0 * g(x))
    separate = 3.0 * integrate_semiinf(f).value - 2.0 * integrate_semiinf(g).value
    assert combined.value == pytest.approx(separate, rel=1e-12)


def test_oscillatory_decaying_integrand():
    # int_0^inf e^(-x) cos(4x) dx = 1/17
    result = integrate_semiinf(lambda x: np.exp(-x) * np.cos(4.0 * x))
    assert result.value == pytest.approx(1.0 / 17.0, rel=1e-9)


def test_slow_tail_triggers_domain_extension():
    # decay length 8 against the default unit decay_scale: the initial
    # window ends well before the integrand does
    result = integrate_semiinf(lambda x: np.exp(-x / 8.0) / 8.0)
    assert result.value == pytest.approx(1.0, rel=1e-9)


def test_deterministic_reruns():
    f = lambda x: x**2 * np.exp(-x) * (1.0 + np.sin(x) ** 2)
    first = integrate_semiinf(f)
    second = integrate_semiinf(f)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first.evaluations == second.evaluations


def test_tighter_tolerance_does_not_worsen_result():
    f = lambda x: np.exp(-x) / (1.0 + x)
    loose = integrate_semiinf(f, QuadratureSpec(rel_tol=1e-5))
    tight = integrate_semiinf(f, QuadratureSpec(rel_tol=1e-12))
    # reference value: exp(1) E1(1)
    reference = 0.596347362323194074341078499369
    assert abs(tight.value - reference) <= abs(loose.value - reference) + 1e-15
    assert tight.error_estimate <= loose.error_estimate


def test_positive_integrand_gives_positive_value():
    result = integrate_semiinf(lambda x: np.exp(-x) * (2.0 + np.cos(x)))
    assert result.value > 0.0


def test_convergence_error_carries_best_result(monkeypatch):
    # oscillation far faster than four subdivisions can resolve
    monkeypatch.setattr("vdwcp.quad.MAX_SUBDIVISIONS", 4)
    rough = lambda x: np.exp(-x) * np.cos(500.0 * x)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_semiinf(rough, QuadratureSpec(rel_tol=1e-12))
    err = excinfo.value
    assert math.isfinite(err.best.value)
    assert err.best.error_estimate > 0.0
    assert err.best.evaluations > 0
    assert err.tolerance > 0.0


def test_nonfinite_integrand_reports_abscissa():
    def bad(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x - 2.0) < 0.5, np.inf, np.exp(-x))

    with pytest.raises(IntegrandError) as excinfo:
        integrate_semiinf(bad)
    assert 1.0 < excinfo.value.abscissa < 3.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": 0.5},
        {"rel_tol": -1e-10},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


@pytest.mark.parametrize("scale", [0.0, -2.0, math.nan])
def test_decay_scale_validation(scale):
    with pytest.raises(ValueError, match="decay_scale"):
        integrate_semiinf(lambda x: np.exp(-x), decay_scale=scale)


@given(st.floats(min_value=0.3, max_value=5.0), st.floats(min_value=0.3, max_value=5.0))
def test_exponential_rate_property(a, b):
    # int e^(-a x) dx = 1/a, and results respect integrand ordering a <= b
    fa = integrate_semiinf(lambda x: np.exp(-a * x), decay_scale=1.0 / a)
    assert fa.value == pytest.approx(1.0 / a, rel=1e-10)


# -- packed panel calls ------------------------------------------------------------


@pytest.mark.parametrize("n, opening", [(1, [[0, 0, 0, 0], [0, 0, 0]])])
def test_opening_window_fills_panel_calls_then_takes_one_tail_call(n, opening):
    # the seven opening panels of the one integral packed into as few calls
    # as the rows allow (2 calls, not 7), then one tail call
    calls = []

    def recording(x):
        calls.append(x.size)
        return np.exp(-x)

    integrate_semiinf(recording)
    assert calls.count(TAIL_NODES) == n
    tail = calls.index(TAIL_NODES)
    assert calls[:tail] == [len(rows) * PANEL_NODES for rows in opening]
    assert max(calls) <= PANELS_PER_CALL * PANEL_NODES


def test_mirror_kernel_takes_four_integrand_calls():
    # f gets the packed rows as one 1d array: 4 + 3 opening panels, the tail
    # bound, then the two halves of one bisection
    sizes = []

    def recording(x):
        assert x.ndim == 1
        sizes.append(x.size)
        return mirror_kernel(x)

    result = integrate_semiinf(recording)
    assert sizes == [4 * PANEL_NODES, 3 * PANEL_NODES, TAIL_NODES, 2 * PANEL_NODES]
    assert result.evaluations == sum(sizes) == 138
    assert result.value == pytest.approx(3.0, rel=1e-10)


def test_packed_rows_report_the_first_bad_abscissa_of_the_earlier_panel():
    # the opening call packs [0, 1/2], [1/2, 1], [1, 2] and [2, 5]: the last
    # two turn non-finite, and a one-row-per-call run meets [1, 2] first
    calls = []

    def bad(x):
        calls.append(x.copy())
        return np.where(x > 1.2, np.nan, np.exp(-x))

    with pytest.raises(IntegrandError) as excinfo:
        integrate_semiinf(bad)
    assert len(calls) == 1
    rows = calls[0].reshape(PANELS_PER_CALL, PANEL_NODES)
    assert (rows[3] > 1.2).all()
    assert excinfo.value.abscissa == rows[2][rows[2] > 1.2][0]


def test_row_sums_do_not_depend_on_the_other_rows():
    rng = np.random.default_rng(7)
    weights = rng.uniform(0.0, 1.0, PANEL_NODES)
    for rows in range(1, 9):
        y = rng.standard_normal((rows, PANEL_NODES)) * np.exp(rng.uniform(-30.0, 30.0, (rows, 1)))
        assert _dots(y, weights) == [float(weights @ row) for row in y]
        assert _dots(y[:, 1::2], weights[:7]) == [float(weights[:7] @ row[1::2]) for row in y]
