"""Green-tensor traces: scalar kernels against brute-force tensor algebra."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vdwcp.selftest
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


@pytest.mark.parametrize("trace", [mirror_gmm_trace, mirror_gmm_trace_via_q_integral])
def test_mirror_traces_take_a_plate_value_and_reject_any_other(trace):
    for plate in PlateKind:
        assert trace(1.5, 0.7, plate.value, 1.0) == trace(1.5, 0.7, plate, 1.0)
    with pytest.raises(ValueError):
        trace(1.5, 0.7, "bogus", 1.0)


def test_q_integral_requires_positive_frequency():
    with pytest.raises(ValueError):
        mirror_gmm_trace_via_q_integral(1.0, 0.0, PlateKind.CONDUCTING, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: fg(x),
        lambda x: fg(np.array([1.0, x])),
        lambda xi: mirror_gmm_trace(1.0, xi, PlateKind.CONDUCTING, 1.0),
    ],
    ids=["fg", "fg-stacked", "mirror_gmm_trace"],
)
def test_nan_is_no_distance_frequency_product_or_frequency(call):
    with pytest.raises(ValueError, match="must be >= 0"):
        call(float("nan"))


@pytest.mark.parametrize(
    "call",
    [
        lambda xi: trace_gmm_gmm_free(1.0, xi, 1.0),
        lambda xi: trace_gme_gem_free(np.array([1.0, 2.0]), np.array([0.5, xi]), 1.0),
        lambda xi: mirror_gmm_trace(1.0, xi, PlateKind.CONDUCTING, 1.0),
        lambda xi: mirror_gmm_trace_via_q_integral(1.0, xi, PlateKind.CONDUCTING, 1.0),
    ],
    ids=["trace_gmm_gmm_free", "trace_gme_gem_free-stacked", "mirror_gmm_trace", "mirror_gmm_trace_via_q_integral"],
)
@pytest.mark.filterwarnings("error")
def test_an_infinite_frequency_is_rejected_before_any_kernel(call):
    # the kernels' inf * 0 gave nan with a RuntimeWarning, and the q-integral an IntegrandError
    with pytest.raises(ValueError, match="finite xi|xi must be >= 0 and finite"):
        call(np.inf)


def test_free_traces_validate_arguments():
    with pytest.raises(ValueError):
        trace_gmm_gmm_free(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mirror_gmm_trace(-1.0, 1.0, PlateKind.CONDUCTING, 1.0)


def _stacked_samples(n):
    c = RNG.choice([1.0, 2.0], size=n)
    l = RNG.uniform(0.2, 3.0, size=n)
    xi = RNG.uniform(0.05, 5.0, size=n)
    directions = RNG.normal(size=(n, 3))
    return c, l, xi, l[:, None] * directions / np.linalg.norm(directions, axis=1, keepdims=True)


def test_stacked_tensors_and_traces_are_their_one_sample_results():
    c, l, xi, l_vec = _stacked_samples(20)
    for tensor in (_free_tensor_mm, _free_tensor_me, _free_tensor_em):
        stacked = tensor(l_vec, xi, c)
        assert stacked.shape == (20, 3, 3)
        for i in range(20):
            assert stacked[i].tobytes() == tensor(l_vec[i], float(xi[i]), float(c[i])).tobytes()
        # any leading axes
        square = tensor(l_vec.reshape(4, 5, 3), xi.reshape(4, 5), c.reshape(4, 5))
        assert square.tobytes() == stacked.tobytes()
    for trace in (trace_gmm_gmm_free, trace_gme_gem_free):
        stacked = trace(l, xi, c)
        assert stacked.shape == (20,)
        alone = [trace(float(l[i]), float(xi[i]), float(c[i])) for i in range(20)]
        assert stacked.tolist() == alone


def test_trace_battery_draws_its_samples_by_block(monkeypatch):
    # five blocks of 20 from the battery's generator after the identities draw: c, l and xi as arrays,
    # then one (20, 3) normal draw scaled to length l; the generator ends where those draws leave it
    drawn = {"l_vec": [], "lxc": []}

    def record(name, original, key, pick):
        def recorded(*args):
            drawn[key].append(pick(*args))
            return original(*args)

        monkeypatch.setattr(vdwcp.selftest, name, recorded)

    record("_free_tensor_me", _free_tensor_me, "l_vec", lambda l_vec, xi, c: l_vec.copy())
    record("trace_gmm_gmm_free", trace_gmm_gmm_free, "lxc", lambda l, xi, c: np.stack([l, xi, c], axis=1))
    battery = np.random.default_rng(vdwcp.selftest._RNG_SEED)
    assert vdwcp.selftest._check_kernel_identities(battery).passed
    assert vdwcp.selftest._check_tensor_traces(battery).passed
    rng = np.random.default_rng(vdwcp.selftest._RNG_SEED)
    rng.uniform(0.0, 8.0, size=100)
    assert [block.shape for block in drawn["lxc"]] == [(20, 3)] * 5
    assert [block.shape for block in drawn["l_vec"]] == [(20, 3)] * 5
    for lxc, l_vec in zip(drawn["lxc"], drawn["l_vec"]):
        c, l, xi = rng.choice([1.0, 2.0], 20), rng.uniform(0.2, 3.0, 20), rng.uniform(0.05, 5.0, 20)
        directions = rng.normal(size=(20, 3))
        assert lxc.tobytes() == np.stack([l, xi, c], axis=1).tobytes()
        scaled = l[:, None] * directions / np.linalg.norm(directions, axis=1, keepdims=True)
        assert np.allclose(l_vec, scaled, rtol=1e-15, atol=0.0)
    assert battery.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("trace", [trace_gmm_gmm_free, trace_gme_gem_free])
@pytest.mark.parametrize(
    "l, xi", [(0.0, 1.0), (-0.5, 1.0), (float("nan"), 1.0), (float("inf"), 1.0), (1.0, -0.1), (1.0, float("nan"))]
)
def test_free_traces_reject_one_bad_sample_as_its_scalar(trace, l, xi):
    with pytest.raises(ValueError) as scalar:
        trace(l, xi, 1.0)
    with pytest.raises(ValueError) as stacked:
        trace(np.array([1.0, l, 2.0]), np.array([0.5, xi, 0.5]), 1.0)
    assert str(stacked.value) == str(scalar.value)


def test_stacked_tensors_reject_one_coincident_pair():
    with pytest.raises(ValueError, match="coincident"):
        _free_tensor_mm(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1.0, 1.0)
