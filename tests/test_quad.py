"""Adaptive semi-infinite quadrature against analytically known integrals."""
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
    PANEL_NODES,
    PANELS_PER_CALL,
    TAIL_NODES,
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
        # tighter than the 1e-13 the oracle meets: 2e-14 exhausted the subdivisions
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
    # bisections come before the first extension here; an extension from the
    # end of the last bisected panel overlapped the window and gave 0.0171
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
# overlapping extensions put these 4e5 and 5e8 rel_tol off
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


# -- whole panels per integrand call ------------------------------------------------


def _one_slice_per_call(f):
    """f evaluated on each panel's 15 abscissas and a tail bound's 3 in calls of their own."""

    def sliced(x):
        return np.concatenate([f(part) for part in np.split(x, range(PANEL_NODES, x.size, PANEL_NODES))])

    return sliced


@pytest.mark.parametrize("tail_calls, opening", [(1, [PANELS_PER_CALL * PANEL_NODES, 3 * PANEL_NODES + TAIL_NODES])])
def test_opening_window_fills_panel_calls_then_takes_one_tail_call(tail_calls, opening):
    # the seven opening panels take a call of four and one of three, the tail bound rides in the last
    calls = []

    def recording(x):
        calls.append(x.size)
        return np.exp(-x)

    integrate_semiinf(recording)
    assert calls == opening == [60, 48]
    assert sum(size % PANEL_NODES == TAIL_NODES for size in calls) == tail_calls


def test_mirror_kernel_takes_three_integrand_calls():
    # f gets one 1d array per call: four opening panels, the other three with the tail
    # bound, then the two halves of one bisection
    sizes = []

    def recording(x):
        assert x.ndim == 1
        sizes.append(x.size)
        return mirror_kernel(x)

    result = integrate_semiinf(recording)
    assert sizes == [4 * PANEL_NODES, 3 * PANEL_NODES + TAIL_NODES, 2 * PANEL_NODES] == [60, 48, 30]
    assert result.evaluations == sum(sizes) == 138
    assert result.value == pytest.approx(3.0, rel=1e-10)


def test_packed_rows_report_the_first_bad_abscissa_of_the_earlier_panel():
    # the opening panels [0, 1/2], [1/2, 1], [1, 2] and [2, 5] share the first call: [1, 2]
    # turns non-finite first, and its first abscissa above 1.2 is the one reported
    calls = []

    def bad(x):
        calls.append(x.copy())
        return np.where(x > 1.2, np.nan, np.exp(-x))

    with pytest.raises(IntegrandError) as excinfo:
        integrate_semiinf(bad)
    assert len(calls) == 1 and calls[0].size == PANELS_PER_CALL * PANEL_NODES
    panel = calls[0][2 * PANEL_NODES : 3 * PANEL_NODES]
    assert panel.min() > 1.0 and panel.max() < 2.0
    assert excinfo.value.abscissa == panel[panel > 1.2][0] == calls[0][calls[0] > 1.2][0]


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
    # every integrand of the oracles is elementwise: whole panels in one call change no bit
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
