"""Double-exponential semi-infinite quadrature against analytically known integrals."""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import vdwcp.green
import vdwcp.potentials
import vdwcp.quad
import vdwcp.selftest
from vdwcp.green import (
    PlateKind,
    mirror_gmm_trace_via_q_integral,
    mirror_kernel,
    pair_kernel_cross,
    pair_kernel_same,
)
from vdwcp.potentials import vdw_pair_total_direct
from vdwcp.quad import (
    CHUNK_NODES,
    ConvergenceError,
    IntegrandError,
    QuadratureSpec,
    integrate_semiinf,
)
from vdwcp.selftest import _composite_pair, _kernel_moments
from vdwcp.units import UnitSystem, constants_for


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
    # decay length 8 against the default unit decay_scale: the last nodes, at
    # x = 800, lie 100 decay lengths out
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
    # oscillation far faster than level 1 can resolve
    monkeypatch.setattr("vdwcp.quad.MAX_LEVEL", 1)
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


def test_scalar_integrand_is_broadcast_and_integrates():
    # f(x) of x's shape is taken as it is; a scalar is broadcast over the abscissas
    result = integrate_semiinf(lambda x: 0.0, QuadratureSpec())
    assert result.value == 0.0 and result.error_estimate == 0.0 and result.evaluations > 0
    x = np.linspace(0.0, 2.0, 5)
    assert np.array_equal(vdwcp.quad._values(lambda _: 2.0, x), np.full(5, 2.0))
    y = np.exp(-x)
    assert vdwcp.quad._values(lambda _: y, x) is y


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"rel_tol": 0.5},
        {"rel_tol": -1e-10},
        # tighter than the 1e-13 the oracle is held to
        {"rel_tol": 5e-14},
        {"rel_tol": 1e-16},
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


def test_window_extends_from_its_end_after_a_bisection():
    # slow decay and fast oscillation: an adaptive engine whose window extension
    # overlapped its bisected panels gave 0.0171 here
    result = integrate_semiinf(
        lambda x: np.exp(-x / 8.0) * np.cos(5.0 * x), QuadratureSpec(rel_tol=1e-7)
    )
    assert result.value == pytest.approx(8.0 / 1601.0, rel=1e-6)


@given(
    st.floats(min_value=0.1, max_value=8.0),
    st.floats(min_value=1.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=-12.0, max_value=-4.0),
)
# overlapping window extensions of an adaptive engine put these 4e5 and 5e8 rel_tol off
@example(7.0, 1.1, 6.36, 4.9, -6.84)
@example(7.55, 1.04, 6.165, 2.218, -9.83)
def test_damped_cosine_meets_its_closed_form(length, offset, w, phase, exponent):
    # int_0^inf e^(-x/L) (c + cos(w x + phi)) dx = c L + (a cos phi - w sin phi) / (a^2 + w^2), a = 1/L
    rel_tol = 10.0**exponent
    a = 1.0 / length
    exact = offset * length + (a * math.cos(phase) - w * math.sin(phase)) / (a * a + w * w)
    result = integrate_semiinf(
        lambda x: np.exp(-x / length) * (offset + np.cos(w * x + phase)),
        QuadratureSpec(rel_tol=rel_tol),
    )
    assert abs(result.value - exact) <= 1000.0 * rel_tol * abs(exact)


def test_cancelling_damped_cosine_meets_a_tight_tolerance():
    # the integral is 1/350 of the integral of |f|: an adaptive Gauss-Kronrod engine with a per-panel
    # rounding floor of 50 eps raised ConvergenceError here after 11,964 evaluations
    length, offset, w, phase = 4.9559, 0.041722, 4.53706, 1.15401
    a = 1.0 / length
    exact = offset * length + (a * math.cos(phase) - w * math.sin(phase)) / (a * a + w * w)
    result = integrate_semiinf(
        lambda x: np.exp(-x / length) * (offset + np.cos(w * x + phase)), QuadratureSpec(rel_tol=3.7e-12)
    )
    assert result.evaluations == 4_170
    assert abs(result.value - exact) <= result.error_estimate <= 3.7e-12 * abs(result.value)


# -- nodes, levels and integrand calls ------------------------------------------------


def _recording(f, calls):
    def recorded(x):
        calls.append(x.copy())
        return f(x)

    return recorded


def test_mirror_kernel_takes_two_integrand_calls():
    # the mirror kernel converges at level 0: the half rule's 66 nodes, then level 0's 65 new ones,
    # each call one 1d array
    calls = []
    result = integrate_semiinf(_recording(mirror_kernel, calls))
    assert [x.size for x in calls] == [CHUNK_NODES, 65] == [66, 65]
    assert all(x.ndim == 1 for x in calls)
    assert result.evaluations == 131
    assert result.value == pytest.approx(3.0, rel=1e-15)


def test_calls_take_at_most_chunk_nodes():
    # deeper levels split their new nodes into calls of CHUNK_NODES and a remainder
    calls = []
    result = integrate_semiinf(_recording(lambda x: np.exp(-x) * np.cos(9.0 * x), calls), QuadratureSpec(1e-12))
    sizes = [x.size for x in calls]
    assert max(sizes) == CHUNK_NODES and sum(sizes) == result.evaluations > 131
    assert sizes[:4] == [66, 65, 66, 64]
    assert all(x.ndim == 1 for x in calls)


def test_each_level_interleaves_the_nodes_before_it():
    # between two neighbours of the earlier levels lies exactly one new node; the window
    # 1e-30 < x < 800 admits a few more at its ends as the step shrinks
    levels = [np.concatenate([x for x, _ in vdwcp.quad._nodes(k)]) for k in range(6)]
    assert [level.size for level in levels] == [66, 65, 130, 260, 521, 1043]
    for k in range(1, 6):
        before = np.sort(np.concatenate(levels[:k]))
        new = levels[k]
        assert np.all(np.diff(new) > 0.0)
        inside = new[(new > before[0]) & (new < before[-1])]
        assert np.array_equal(np.searchsorted(before, inside), np.arange(1, before.size))
        assert np.all((new > 1e-30) & (new < 800.0))
    # the calls take the levels in order, scaled by decay_scale
    calls = []
    result = integrate_semiinf(_recording(lambda x: np.exp(-x / 2.0) * np.cos(x), calls), decay_scale=2.0)
    taken = np.concatenate(calls)
    assert np.array_equal(taken, 2.0 * np.concatenate(levels)[: taken.size])
    assert result.evaluations == taken.size


def test_integrand_error_names_the_first_bad_node_in_call_order():
    # the half rule's nodes come first: its first node above 1.2 is reported, although
    # level 0 has a smaller one, and no further call is made
    calls = []

    def bad(x):
        calls.append(x.copy())
        return np.where(x > 1.2, np.nan, np.exp(-x))

    with pytest.raises(IntegrandError) as excinfo:
        integrate_semiinf(bad)
    assert len(calls) == 1 and calls[0].size == CHUNK_NODES
    assert excinfo.value.abscissa == calls[0][calls[0] > 1.2][0]
    level_0 = np.concatenate([x for x, _ in vdwcp.quad._nodes(1)])
    assert level_0[level_0 > 1.2][0] < excinfo.value.abscissa


_EPS = float(np.finfo(float).eps)


@given(
    st.sampled_from(["gamma", "exponential", "damped cosine"]),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=0.1, max_value=8.0),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.floats(min_value=-13.0, max_value=-6.0),
    st.booleans(),
)
def test_error_estimate_bounds_the_true_error(family, n, length, w, phase, exponent, scaled):
    # the closed form in floats carries its own rounding, within 4 eps of its largest term; rel_tol
    # stays at 1e-6 or tighter, since looser the two coarsest rules can alias an oscillation alike
    a = 1.0 / length
    if family == "gamma":
        f, exact = (lambda x: x**n * np.exp(-a * x)), math.factorial(n) / a ** (n + 1)
        largest = exact
    elif family == "exponential":
        f, exact = (lambda x: np.exp(-a * x)), 1.0 / a
        largest = exact
    else:
        offset = n / 6.0
        cosine = (a * math.cos(phase) - w * math.sin(phase)) / (a * a + w * w)
        f, exact = (lambda x: np.exp(-a * x) * (offset + np.cos(w * x + phase))), offset / a + cosine
        largest = max(offset / a, abs(cosine))
    result = integrate_semiinf(f, QuadratureSpec(rel_tol=10.0**exponent), decay_scale=length if scaled else 1.0)
    assert abs(result.value - exact) <= result.error_estimate + 4.0 * _EPS * largest


def _one_slice_per_call(f):
    """f evaluated on each slice of 15 abscissas in a call of its own."""

    def sliced(x):
        return np.concatenate([f(part) for part in np.split(x, range(15, x.size, 15))])

    return sliced


def _q_integrals(spec):
    for xi in (0.01, 0.3, 10.0):
        for plate in PlateKind:
            mirror_gmm_trace_via_q_integral(1.0, xi, plate, 1.0, spec)


def _direct_totals(spec):
    a, b = _composite_pair()
    for l in (0.5, 1.0, 2.2):
        vdw_pair_total_direct(a, b, l, constants_for(UnitSystem.NATURAL), spec)


@pytest.mark.parametrize("rel_tol", [1e-13, 1e-10, 1e-6])
@pytest.mark.parametrize(
    "oracle, integrals",
    [
        pytest.param(_kernel_moments, 4, id="kernel-moments"),
        pytest.param(_q_integrals, 6, id="q-integral"),
        pytest.param(_direct_totals, 3, id="direct-total"),
    ],
)
def test_oracle_integrands_give_the_bits_of_one_slice_per_call(monkeypatch, oracle, integrals, rel_tol):
    # every integrand of the oracles is elementwise: slices of 15 nodes in calls of their own change no bit
    runs = []

    def both(f, *args, **kwargs):
        runs.append((integrate_semiinf(f, *args, **kwargs), integrate_semiinf(_one_slice_per_call(f), *args, **kwargs)))
        return runs[-1][0]

    for module in (vdwcp.green, vdwcp.potentials, vdwcp.selftest):
        monkeypatch.setattr(module, "integrate_semiinf", both)
    oracle(QuadratureSpec(rel_tol=rel_tol))
    assert len(runs) == integrals
    for packed, sliced in runs:
        assert (packed.value.hex(), packed.error_estimate.hex(), packed.evaluations) == (
            sliced.value.hex(),
            sliced.error_estimate.hex(),
            sliced.evaluations,
        )
