"""Green-tensor traces: scalar kernels against brute-force tensor algebra."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vdwcp.green import (
    PlateKind,
    _free_tensor_em,
    _free_tensor_me,
    _free_tensor_mm,
    fg,
    mirror_gmm_trace,
    mirror_gmm_trace_via_q_integral,
    mirror_kernel,
    pair_kernel_cross,
    pair_kernel_same,
    trace_gme_gem_free,
    trace_gmm_gmm_free,
)

RNG = np.random.default_rng(987654321)


def test_fg_known_values():
    f, g = fg(0.0)
    assert (f, g) == (1.0, 3.0)
    f, g = fg(1.0)
    assert (f, g) == (3.0, 7.0)


def test_fg_rejects_negative_argument():
    with pytest.raises(ValueError):
        fg(-0.5)


def test_kernel_values_at_origin():
    assert pair_kernel_same(0.0) == 3.0
    assert pair_kernel_cross(0.0) == 1.0
    assert mirror_kernel(0.0) == 1.0


def test_pair_kernel_same_matches_scalar_combination():
    x = RNG.uniform(0.0, 8.0, size=100)
    f, g = fg(x)
    reference = 0.5 * (3.0 * f * f - 2.0 * f * g + g * g) * np.exp(-2.0 * x)
    assert np.max(np.abs(pair_kernel_same(x) / reference - 1.0)) <= 1e-14


def test_pair_kernel_cross_matches_squared_form():
    x = RNG.uniform(0.0, 8.0, size=100)
    reference = (1.0 + x) ** 2 * np.exp(-2.0 * x)
    assert np.max(np.abs(pair_kernel_cross(x) / reference - 1.0)) <= 1e-14


def _random_direction():
    v = RNG.normal(size=3)
    return v / np.linalg.norm(v)


def test_magnetic_trace_against_brute_force_tensors():
    worst = 0.0
    for _ in range(100):
        c = float(RNG.choice([1.0, 2.0]))
        l = float(RNG.uniform(0.2, 3.0))
        xi = float(RNG.uniform(0.05, 5.0))
        l_vec = l * _random_direction()
        brute = np.trace(_free_tensor_mm(l_vec, xi, c) @ _free_tensor_mm(-l_vec, xi, c))
        worst = max(worst, abs(brute / trace_gmm_gmm_free(l, xi, c) - 1.0))
    assert worst <= 1e-12


def test_crossed_trace_against_brute_force_tensors():
    worst = 0.0
    for _ in range(100):
        c = float(RNG.choice([1.0, 2.0]))
        l = float(RNG.uniform(0.2, 3.0))
        xi = float(RNG.uniform(0.05, 5.0))
        l_vec = l * _random_direction()
        brute = np.trace(_free_tensor_me(l_vec, xi, c) @ _free_tensor_em(-l_vec, xi, c))
        worst = max(worst, abs(brute / trace_gme_gem_free(l, xi, c) - 1.0))
    assert worst <= 1e-12


def test_crossed_tensor_antisymmetry():
    l_vec = np.array([0.3, -1.1, 0.7])
    me = _free_tensor_me(l_vec, 0.8, 1.0)
    em = _free_tensor_em(l_vec, 0.8, 1.0)
    assert np.array_equal(em, -me)
    assert np.allclose(me, -me.T)


def test_crossed_trace_is_negative():
    assert trace_gme_gem_free(1.0, 1.0, 1.0) < 0.0


def test_mirror_trace_static_limit():
    assert mirror_gmm_trace(1.0, 0.0, PlateKind.CONDUCTING, 1.0) == pytest.approx(
        1.0 / (8.0 * np.pi), rel=1e-15
    )
    assert mirror_gmm_trace(1.0, 0.0, PlateKind.PERMEABLE, 1.0) == pytest.approx(
        -1.0 / (8.0 * np.pi), rel=1e-15
    )


@given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
def test_mirror_trace_magnitude_decreases_with_frequency(xi1, xi2):
    lo, hi = sorted((xi1, xi2))
    assert abs(mirror_gmm_trace(1.0, hi, PlateKind.CONDUCTING, 1.0)) <= abs(
        mirror_gmm_trace(1.0, lo, PlateKind.CONDUCTING, 1.0)
    )


def test_q_integral_oracle_matches_closed_trace():
    worst = 0.0
    for k in np.geomspace(0.01, 10.0, 9):
        for plate in PlateKind:
            via_q = mirror_gmm_trace_via_q_integral(1.0, float(k), plate, 1.0)
            closed = mirror_gmm_trace(1.0, float(k), plate, 1.0)
            worst = max(worst, abs(via_q / closed - 1.0))
    assert worst <= 1e-8


def test_q_integral_oracle_away_from_unit_distance():
    via_q = mirror_gmm_trace_via_q_integral(2.5, 0.4, PlateKind.CONDUCTING, 1.0)
    closed = mirror_gmm_trace(2.5, 0.4, PlateKind.CONDUCTING, 1.0)
    assert via_q == pytest.approx(closed, rel=1e-8)


def test_q_integral_requires_positive_frequency():
    with pytest.raises(ValueError):
        mirror_gmm_trace_via_q_integral(1.0, 0.0, PlateKind.CONDUCTING, 1.0)


def test_free_traces_validate_arguments():
    with pytest.raises(ValueError):
        trace_gmm_gmm_free(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mirror_gmm_trace(-1.0, 1.0, PlateKind.CONDUCTING, 1.0)
