"""Adaptive semi-infinite quadrature against analytically known integrals."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwcp.quad import (
    LOCKSTEP_COLUMNS,
    PANEL_NODES,
    TAIL_NODES,
    ConvergenceError,
    IntegrandError,
    QuadratureError,
    QuadratureSpec,
    _dots,
    integrate_columns,
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
    spec = QuadratureSpec(decay_scale=scale)
    result = integrate_semiinf(lambda x: np.exp(-x / scale) / scale, spec)
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


def test_convergence_error_carries_best_result():
    # oscillation far faster than four subdivisions can resolve
    rough = lambda x: np.exp(-x) * np.cos(500.0 * x)
    with pytest.raises(ConvergenceError) as excinfo:
        integrate_semiinf(rough, QuadratureSpec(rel_tol=1e-12, max_subdivisions=4))
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
        {"decay_scale": 0.0},
        {"decay_scale": -2.0},
        {"max_subdivisions": 0},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadratureSpec(**kwargs)


@given(st.floats(min_value=0.3, max_value=5.0), st.floats(min_value=0.3, max_value=5.0))
def test_exponential_rate_property(a, b):
    # int e^(-a x) dx = 1/a, and results respect integrand ordering a <= b
    fa = integrate_semiinf(lambda x: np.exp(-a * x), QuadratureSpec(decay_scale=1.0 / a))
    assert fa.value == pytest.approx(1.0 / a, rel=1e-10)


# -- columns in lockstep ---------------------------------------------------------


def _one_column(f, spec):
    """integrate_semiinf(f) as (value, error, evaluations), or the exception it raises."""
    try:
        result = integrate_semiinf(f, spec)
    except QuadratureError as exc:
        return exc
    return [result.value, result.error_estimate, result.evaluations]


def _assert_columns_match(batched, singles, spec):
    """integrate_columns equals the one-column runs, or raises what the first failing one raises."""
    expected = [_one_column(f, spec) for f in singles]
    failures = [outcome for outcome in expected if isinstance(outcome, QuadratureError)]
    if not failures:
        results = integrate_columns(batched, len(singles), spec)
        assert [results[:, i].tolist() for i in range(len(singles))] == expected
        return
    first = failures[0]
    with pytest.raises(type(first)) as excinfo:
        integrate_columns(batched, len(singles), spec)
    if isinstance(first, IntegrandError):
        assert excinfo.value.abscissa == first.abscissa
    else:
        assert excinfo.value.best == first.best
        assert excinfo.value.tolerance == first.tolerance


def _damped(rates, slopes, freqs):
    """Column i: (1 + s_i x)^2 e^(-a_i x) (2 + cos(w_i x)), batched and one by one."""
    rates, slopes, freqs = map(np.array, (rates, slopes, freqs))

    def batched(cols, x):
        p = 1.0 + slopes[cols, None] * x
        return p * p * np.exp(-rates[cols, None] * x) * (2.0 + np.cos(freqs[cols, None] * x))

    def single(a, s, w):
        def f(x):
            p = 1.0 + s * x
            return p * p * np.exp(-a * x) * (2.0 + np.cos(w * x))

        return f

    columns = zip(rates.tolist(), slopes.tolist(), freqs.tolist())
    return batched, [single(*column) for column in columns]


@settings(max_examples=20)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.3, max_value=4.0),
            st.floats(min_value=0.0, max_value=3.0),
            st.floats(min_value=0.0, max_value=12.0),
        ),
        min_size=1,
        max_size=70,
    ),
    st.floats(min_value=-13.0, max_value=-6.0),
)
def test_columns_equal_one_column_runs(params, exponent):
    batched, singles = _damped(*zip(*params))
    _assert_columns_match(batched, singles, QuadratureSpec(rel_tol=10.0**exponent))


def test_columns_raise_the_lowest_index_integrand_error():
    # columns 2 and 6 turn non-finite beyond different abscissas
    limits = np.array([np.inf, np.inf, 3.0, np.inf, np.inf, np.inf, 1.5, np.inf])

    def batched(cols, x):
        return np.where(x < limits[cols, None], np.exp(-x), np.nan)

    def single(limit):
        return lambda x: np.where(x < limit, np.exp(-x), np.nan)

    _assert_columns_match(batched, [single(limit) for limit in limits.tolist()], QuadratureSpec())
    with pytest.raises(IntegrandError) as excinfo:
        integrate_columns(batched, limits.size, QuadratureSpec())
    assert 3.0 <= excinfo.value.abscissa


def test_columns_raise_the_lowest_index_convergence_error():
    # columns 3 and 5 oscillate too fast for four subdivisions
    freqs = [0.0, 1.0, 0.5, 500.0, 0.0, 300.0, 1.0]
    batched, singles = _damped([1.0] * len(freqs), [0.0] * len(freqs), freqs)
    spec = QuadratureSpec(rel_tol=1e-12, max_subdivisions=4)
    _assert_columns_match(batched, singles, spec)
    with pytest.raises(ConvergenceError):
        integrate_columns(batched, len(freqs), spec)


def test_integrand_calls_stay_within_the_lockstep_bound():
    calls = []
    grid = np.linspace(0.0, 1.0, 23)
    batched, _ = _damped(0.5 + 2.5 * grid, 2.0 * grid, 9.0 * grid)

    def recording(cols, x):
        calls.append((list(cols), x.shape))
        return batched(cols, x)

    integrate_columns(recording, 23, QuadratureSpec(rel_tol=1e-12))
    assert calls
    for cols, shape in calls:
        assert len(set(cols)) == len(cols) == shape[0] <= LOCKSTEP_COLUMNS
        assert shape[1] in (PANEL_NODES, TAIL_NODES)
        assert shape[0] * shape[1] <= LOCKSTEP_COLUMNS * PANEL_NODES
    assert max(len(cols) for cols, _ in calls) == LOCKSTEP_COLUMNS


def test_row_sums_do_not_depend_on_the_other_rows():
    rng = np.random.default_rng(7)
    weights = rng.uniform(0.0, 1.0, PANEL_NODES)
    for rows in range(1, 9):
        y = rng.standard_normal((rows, PANEL_NODES)) * np.exp(rng.uniform(-30.0, 30.0, (rows, 1)))
        assert _dots(y, weights) == [float(weights @ row) for row in y]
        assert _dots(y[:, 1::2], weights[:7]) == [float(weights[:7] @ row[1::2]) for row in y]
