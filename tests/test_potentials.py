"""Potential channels against closed forms, symmetries and curve plumbing."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vdwcp.potentials
from vdwcp import moment_table
from vdwcp.green import PlateKind
from vdwcp.potentials import (
    MIRROR_CHANNELS,
    PAIR_CHANNELS,
    Channel,
    PotentialCurve,
    Regime,
    UnsupportedAsymptoteError,
    cp_mirror_diamagnetic_closed,
    force_from_curve,
    mirror_curve,
    pair_curve,
    vdw_asymptote,
    vdw_pair_total_direct,
)
from vdwcp.quad import QuadratureSpec
from vdwcp.response import (
    ELECTRIC,
    MAGNETIC,
    AtomModel,
    DiamagneticSpec,
    Transition,
    alpha_iso,
    beta_para_iso,
)
from vdwcp.units import UnitSystem, constants_for

NAT = constants_for(UnitSystem.NATURAL)

DIA = AtomModel(label="d", diamagnetic=DiamagneticSpec(direct_beta_d=-1.0))
ELEC = AtomModel(
    label="e",
    electric_transitions=(Transition(omega=1.0, dipole_sq=1.5, kind=ELECTRIC),),
)
PARA = AtomModel(
    label="p",
    magnetic_transitions=(Transition(omega=1.0, dipole_sq=1.5, kind=MAGNETIC),),
)

COMPOSITE_A = AtomModel(
    label="a",
    electric_transitions=(Transition(omega=1.0, dipole_sq=1.0, kind=ELECTRIC),),
    magnetic_transitions=(Transition(omega=1.4, dipole_sq=0.7, kind=MAGNETIC),),
    diamagnetic=DiamagneticSpec(direct_beta_d=-0.3),
)
COMPOSITE_B = AtomModel(
    label="b",
    electric_transitions=(Transition(omega=1.3, dipole_sq=0.8, kind=ELECTRIC),),
    magnetic_transitions=(Transition(omega=0.9, dipole_sq=0.5, kind=MAGNETIC),),
    diamagnetic=DiamagneticSpec(direct_beta_d=-0.9),
)


# -- mirror -------------------------------------------------------------------


def test_mirror_diamagnetic_quadrature_equals_closed_form():
    for z in (0.5, 1.0, 2.0, 5.0):
        for plate in PlateKind:
            quad = mirror_curve(DIA, [z], plate, UnitSystem.NATURAL).values[Channel.D][0]
            closed = cp_mirror_diamagnetic_closed(-1.0, z, plate, NAT)
            assert quad == pytest.approx(closed, rel=1e-9)


def test_mirror_diamagnetic_natural_spot_value():
    curve = mirror_curve(DIA, [1.0], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    value = curve.values[Channel.D][0]
    assert value == pytest.approx(-3.0 / (32.0 * np.pi**2), rel=1e-9)
    assert value == pytest.approx(-9.4989e-3, abs=5e-7)


def test_mirror_plate_swap_flips_every_channel():
    atom = AtomModel(
        label="epd",
        electric_transitions=ELEC.electric_transitions,
        magnetic_transitions=PARA.magnetic_transitions,
        diamagnetic=DiamagneticSpec(direct_beta_d=-0.5),
    )
    cond = mirror_curve(atom, [1.3], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    perm = mirror_curve(atom, [1.3], PlateKind.PERMEABLE, UnitSystem.NATURAL)
    for channel in MIRROR_CHANNELS:
        assert perm.values[channel][0] == -cond.values[channel][0]
    assert perm.total[0] == pytest.approx(-cond.total[0], rel=1e-15)


def test_mirror_channel_signs_in_front_of_conductor():
    pot = mirror_curve(
        AtomModel(
            label="epd",
            electric_transitions=ELEC.electric_transitions,
            magnetic_transitions=PARA.magnetic_transitions,
            diamagnetic=DiamagneticSpec(direct_beta_d=-0.5),
        ),
        [1.0],
        PlateKind.CONDUCTING,
        UnitSystem.NATURAL,
    )
    electric, paramagnetic, diamagnetic = (pot.values[ch][0] for ch in MIRROR_CHANNELS)
    assert electric < 0.0
    assert paramagnetic > 0.0
    assert diamagnetic < 0.0
    assert pot.total[0] == electric + (paramagnetic + diamagnetic)


def test_mirror_absent_channels_are_exactly_zero():
    pot = mirror_curve(ELEC, [1.0], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    assert pot.values[Channel.P][0] == 0.0
    assert pot.values[Channel.D][0] == 0.0
    assert pot.total[0] == pot.values[Channel.E][0]


def test_mirror_validation():
    with pytest.raises(ValueError):
        mirror_curve(DIA, [0.0], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    with pytest.raises(ValueError):
        cp_mirror_diamagnetic_closed(-1.0, -2.0, PlateKind.CONDUCTING, NAT)
    with pytest.raises(ValueError):
        cp_mirror_diamagnetic_closed(0.5, 1.0, PlateKind.CONDUCTING, NAT)


# -- pair ---------------------------------------------------------------------


def test_dd_channel_matches_closed_form_everywhere():
    for l in np.geomspace(0.1, 100.0, 20):
        quad = pair_curve(DIA, DIA, [l], UnitSystem.NATURAL).values[Channel.DD][0]
        closed = vdw_asymptote(Channel.DD, DIA, DIA, float(l), Regime.RETARDED, NAT)
        assert quad == pytest.approx(closed, rel=1e-9)


def test_dd_natural_spot_value():
    value = pair_curve(DIA, DIA, [1.0], UnitSystem.NATURAL).values[Channel.DD][0]
    assert value == pytest.approx(-23.0 / (64.0 * np.pi**3), rel=1e-9)
    assert value == pytest.approx(-1.1590e-2, abs=5e-7)


def test_pair_channels_absent_without_response():
    pot = pair_curve(DIA, DIA, [1.0], UnitSystem.NATURAL)
    for channel in PAIR_CHANNELS:
        if channel is not Channel.DD:
            assert pot.values[channel][0] == 0.0
    assert pot.total[0] == pot.values[Channel.DD][0]


@settings(max_examples=60)
@given(
    units=st.sampled_from(UnitSystem),
    electric=st.booleans(),
    pairs=st.lists(
        st.tuples(
            st.one_of(st.floats(0.5, 5.0), st.floats(1e-100, 1e100)),
            st.one_of(st.just(0.0), st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
        ),
        min_size=1,
        max_size=6,
    ),
)
# a transition without a dipole element, then two terms that round away one by one
@example(UnitSystem.NATURAL, True, [(1.0, 1.0), (3.0, 0.0), (1.0, 1e-16), (1.0, 1e-16)])
# finite terms whose sum overflows
@example(UnitSystem.NATURAL, False, [(1.0, 1e308), (1.0, 1e308)])
def test_response_static_is_bitwise_the_lorentz_sum_at_zero(units, electric, pairs):
    kind, letter = (ELECTRIC, "e") if electric else (MAGNETIC, "p")
    try:
        transitions = tuple(Transition(omega=w, dipole_sq=d, kind=kind) for w, d in pairs)
    except ValueError:  # omega |d|^2 / omega^2 is not a float
        assume(False)
    atom = AtomModel(
        label="random",
        electric_transitions=transitions if electric else (),
        magnetic_transitions=() if electric else transitions,
        diamagnetic=DiamagneticSpec(direct_beta_d=-1.0),
    )
    hbar = constants_for(units).hbar
    expected = (alpha_iso if electric else beta_para_iso)(atom, 0.0, hbar)
    if math.isfinite(expected):
        assert vdwcp.potentials._response(atom, letter, hbar)[0].hex() == expected.hex()
    else:
        with pytest.raises(ValueError, match="static .* must be a finite float"):
            vdwcp.potentials._response(atom, letter, hbar)


def test_atom_swap_is_byte_identical():
    swapped = {
        Channel.EE: Channel.EE,
        Channel.EP: Channel.PE,
        Channel.ED: Channel.DE,
        Channel.PE: Channel.EP,
        Channel.PP: Channel.PP,
        Channel.PD: Channel.DP,
        Channel.DE: Channel.ED,
        Channel.DP: Channel.PD,
        Channel.DD: Channel.DD,
    }
    for l in (0.5, 1.0, 2.0):
        forward = pair_curve(COMPOSITE_A, COMPOSITE_B, [l], UnitSystem.NATURAL)
        backward = pair_curve(COMPOSITE_B, COMPOSITE_A, [l], UnitSystem.NATURAL)
        for channel, partner in swapped.items():
            assert forward.values[channel][0] == backward.values[partner][0]
        assert forward.total[0] == backward.total[0]


def test_lenz_rule_flips_mixed_channel_signs():
    for l in np.geomspace(0.05, 50.0, 7):
        ep = pair_curve(ELEC, PARA, [l], UnitSystem.NATURAL).values[Channel.EP][0]
        ed = pair_curve(ELEC, DIA, [l], UnitSystem.NATURAL).values[Channel.ED][0]
        assert ep > 0.0
        assert ed < 0.0
        pp = pair_curve(PARA, PARA, [l], UnitSystem.NATURAL).values[Channel.PP][0]
        pd = pair_curve(PARA, DIA, [l], UnitSystem.NATURAL).values[Channel.PD][0]
        assert pp < 0.0
        assert pd > 0.0


def test_channel_sum_matches_unfactored_total():
    tight = QuadratureSpec(rel_tol=1e-13)
    for l in (0.5, 1.0, 2.2):
        split = pair_curve(COMPOSITE_A, COMPOSITE_B, [l], UnitSystem.NATURAL, tight).total[0]
        direct = vdw_pair_total_direct(COMPOSITE_A, COMPOSITE_B, l, NAT, tight)
        assert split == pytest.approx(direct, rel=1e-12)


@given(st.floats(min_value=0.2, max_value=20.0), st.floats(min_value=1.05, max_value=3.0))
def test_dd_attraction_strengthens_at_shorter_separation(l, factor):
    near = pair_curve(DIA, DIA, [l], UnitSystem.NATURAL).values[Channel.DD][0]
    far = pair_curve(DIA, DIA, [l * factor], UnitSystem.NATURAL).values[Channel.DD][0]
    assert near < far < 0.0


# -- asymptote formulas --------------------------------------------------------


def test_retarded_asymptote_values_in_natural_units():
    # alpha(0) = beta_p(0) = 1 and beta_d = -1 for the fixtures
    base = 1.0 / (64.0 * np.pi**3)
    cases = [
        (Channel.DD, DIA, DIA, -23.0 * base),
        (Channel.EE, ELEC, ELEC, -23.0 * base),
        (Channel.PP, PARA, PARA, -23.0 * base),
        (Channel.EP, ELEC, PARA, +7.0 * base),
        (Channel.PE, PARA, ELEC, +7.0 * base),
        (Channel.ED, ELEC, DIA, -7.0 * base),
        (Channel.DP, DIA, PARA, +23.0 * base),
    ]
    for channel, a, b, expected in cases:
        value = vdw_asymptote(channel, a, b, 1.0, Regime.RETARDED, NAT)
        assert value == pytest.approx(expected, rel=1e-12), channel


def test_nonretarded_asymptote_values_in_natural_units():
    # ed: 5 mu0^2 c beta_d sum(omega mu_sq) / (96 pi^3 l^5)
    value = vdw_asymptote(Channel.ED, ELEC, DIA, 2.0, Regime.NONRETARDED, NAT)
    assert value == pytest.approx(5.0 * (-1.0) * 1.5 / (96.0 * np.pi**3 * 2.0**5), rel=1e-12)
    # dp: -mu0^2 beta_d m_sq / (16 pi^2 l^6)
    value = vdw_asymptote(Channel.DP, DIA, PARA, 2.0, Regime.NONRETARDED, NAT)
    assert value == pytest.approx(-(-1.0) * 1.5 / (16.0 * np.pi**2 * 2.0**6), rel=1e-12)


def test_asymptote_rejects_unsupported_combinations():
    with pytest.raises(UnsupportedAsymptoteError):
        vdw_asymptote(Channel.EE, ELEC, ELEC, 1.0, Regime.NONRETARDED, NAT)
    with pytest.raises(UnsupportedAsymptoteError):
        vdw_asymptote(Channel.EP, ELEC, PARA, 1.0, Regime.NONRETARDED, NAT)
    with pytest.raises(ValueError):
        vdw_asymptote(Channel.E, ELEC, ELEC, 1.0, Regime.RETARDED, NAT)
    with pytest.raises(ValueError):
        vdw_asymptote(Channel.DD, DIA, DIA, -1.0, Regime.RETARDED, NAT)


# -- curves and forces ----------------------------------------------------------


def test_mirror_curve_matches_pointwise_evaluation():
    distances = np.geomspace(0.5, 2.0, 5)
    curve = mirror_curve(DIA, distances, PlateKind.CONDUCTING, UnitSystem.NATURAL)
    assert curve.plate is PlateKind.CONDUCTING
    assert list(curve.values) == list(MIRROR_CHANNELS)
    single = mirror_curve(DIA, distances[2:3], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    assert curve.values[Channel.D][2] == single.values[Channel.D][0]
    assert curve.total[2] == single.total[0]


def test_pair_curve_matches_pointwise_evaluation():
    distances = np.geomspace(0.5, 2.0, 5)
    curve = pair_curve(COMPOSITE_A, COMPOSITE_B, distances, UnitSystem.NATURAL)
    assert curve.plate is None
    assert list(curve.values) == list(PAIR_CHANNELS)
    single = pair_curve(COMPOSITE_A, COMPOSITE_B, distances[1:2], UnitSystem.NATURAL)
    for channel in PAIR_CHANNELS:
        assert curve.values[channel][1] == single.values[channel][0]
    assert curve.total[1] == single.total[0]


def test_curve_validation():
    distances = np.array([1.0, 2.0, 3.0])
    values = {ch: np.zeros(3) for ch in MIRROR_CHANNELS}
    good = dict(distances=distances, values=values, plate=PlateKind.CONDUCTING)
    PotentialCurve(**good)
    with pytest.raises(ValueError):
        PotentialCurve(**{**good, "distances": np.array([2.0, 1.0, 3.0])})
    with pytest.raises(ValueError):
        PotentialCurve(**{**good, "distances": distances[None]})
    with pytest.raises(ValueError):
        PotentialCurve(**{**good, "plate": None})
    bad_values = {ch: np.zeros(3) for ch in PAIR_CHANNELS}
    with pytest.raises(ValueError):
        PotentialCurve(**{**good, "values": bad_values})
    # the total is derived, never passed, and every field is a keyword
    with pytest.raises(TypeError):
        PotentialCurve(**good, total=np.zeros(3))
    with pytest.raises(TypeError):
        PotentialCurve(distances, values, PlateKind.CONDUCTING)
    # user-built curves get the engine's total bit for bit
    mirror = mirror_curve(COMPOSITE_A, [0.4, 1.0, 3.0], PlateKind.PERMEABLE, UnitSystem.NATURAL)
    rebuilt = PotentialCurve(
        distances=[0.4, 1.0, 3.0],
        values={ch: list(v) for ch, v in mirror.values.items()},
        plate=PlateKind.PERMEABLE,
    )
    e, p, d = (mirror.values[ch] for ch in MIRROR_CHANNELS)
    assert np.array_equal(rebuilt.total, e + (p + d))
    assert np.array_equal(rebuilt.total, mirror.total)
    pair = pair_curve(COMPOSITE_A, COMPOSITE_B, [0.4, 1.0, 3.0], UnitSystem.NATURAL)
    rebuilt = PotentialCurve(
        distances=pair.distances, values={ch: v.copy() for ch, v in pair.values.items()}
    )
    fsums = [math.fsum(pair.values[ch][i] for ch in PAIR_CHANNELS) for i in range(3)]
    assert rebuilt.total.tolist() == pair.total.tolist() == fsums


def test_cancelling_mirror_channels_build_a_curve():
    # e, p and d cancel to a few 1e-4 of their size near z = 0.612, where the
    # two summation orders of the total part by more than 1e-12 relative
    atom = AtomModel(
        label="cancelling",
        electric_transitions=(Transition(omega=1.0, dipole_sq=1.0, kind=ELECTRIC),),
        magnetic_transitions=(Transition(omega=0.2, dipole_sq=1.0, kind=MAGNETIC),),
        diamagnetic=DiamagneticSpec(direct_beta_d=-0.1),
    )
    distances = np.linspace(0.6053, 0.6122, 2001)
    curve = mirror_curve(atom, distances, PlateKind.CONDUCTING, UnitSystem.NATURAL)
    e, p, d = (curve.values[ch] for ch in MIRROR_CHANNELS)
    assert np.array_equal(curve.total, e + (p + d))
    assert np.any(curve.total < 0.0) and np.any(curve.total > 0.0)


def test_force_on_diamagnetic_atom_at_conductor_is_attractive():
    distances = np.geomspace(0.96, 1.04, 21)
    curve = mirror_curve(DIA, distances, PlateKind.CONDUCTING, UnitSystem.NATURAL)
    force = force_from_curve(curve)
    assert np.all(force < 0.0)
    # |F| = 4 |U| / z for the quartic law; the central-difference truncation
    # error is about 5 (h/z)^2, far below the 1e-3 allowance on this grid
    mid = 10
    expected = 4.0 * abs(curve.total[mid]) / distances[mid]
    assert abs(force[mid]) == pytest.approx(expected, rel=1e-3)


def test_force_to_potential_ratio_for_dd_pair():
    distances = np.geomspace(0.9, 1.1, 21)
    curve = pair_curve(DIA, DIA, distances, UnitSystem.NATURAL)
    force = force_from_curve(curve)
    mid = 10
    assert force[mid] / curve.total[mid] == pytest.approx(7.0 / distances[mid], rel=1e-2)


def test_force_needs_at_least_three_points():
    distances = np.array([1.0, 2.0])
    values = {ch: np.zeros(2) for ch in MIRROR_CHANNELS}
    curve = PotentialCurve(distances=distances, values=values, plate=PlateKind.CONDUCTING)
    with pytest.raises(ValueError):
        force_from_curve(curve)




# -- curves against an independent route ------------------------------------------
#
# The reference restates each channel as its imaginary-frequency integral in
# natural units, the response ratios as plain Lorentzian sums, and integrates
# it with mpmath's tanh-sinh rule at 40 digits: it shares no code with the
# closed forms of the engine. At 30 digits the rule's error estimate has an
# absolute floor near 1e-32, so a crossed integral as small as 2e-13 cannot
# meet _mp_integral's relative bound.

# Relative deviation allowed from the 40-digit reference; exact zeros must stay exact.
MPMATH_REL = 1e-13
MPMATH_DIGITS = 40


def _seeded_atom(seed=11, electric=14, magnetic=10):
    rng = np.random.default_rng(seed)

    def transitions(count, kind):
        omegas = np.exp(rng.uniform(np.log(0.5), np.log(5.0), count))
        weights = rng.uniform(0.2, 1.0, count)
        return tuple(
            Transition(omega=float(w), dipole_sq=float(d), kind=kind)
            for w, d in zip(omegas, weights)
        )

    return AtomModel(
        label=f"seeded-{seed}",
        electric_transitions=transitions(electric, ELECTRIC),
        magnetic_transitions=transitions(magnetic, MAGNETIC),
        diamagnetic=DiamagneticSpec(direct_beta_d=-float(rng.uniform(0.2, 1.0))),
    )


def _mp_response(atom, letter):
    """(static value, ratio of xi, pole frequencies) of one response at the working precision."""
    if letter == "d":
        return mp.mpf(atom.diamagnetic.direct_beta_d), (lambda xi: 1), []
    transitions = atom.electric_transitions if letter == "e" else atom.magnetic_transitions
    terms = [(mp.mpf(t.omega) ** 2, mp.mpf(t.omega) * mp.mpf(t.dipole_sq)) for t in transitions]
    total = mp.fsum(n / w for w, n in terms)

    def ratio(xi):
        return mp.fsum(n / (w + xi * xi) for w, n in terms) / total

    return 2 * total / 3, ratio, [mp.sqrt(w) for w, _ in terms]


def _mp_integral(f, poles):
    points = sorted({mp.mpf(0), mp.mpf(1), *poles}) + [mp.inf]
    value, error = mp.quad(f, points, error=True)
    assert abs(error) <= 1e-20 * abs(value)
    return value


def _mp_mirror(atom, letter, z, plate):
    with mp.workdps(MPMATH_DIGITS):
        static, ratio, poles = _mp_response(atom, letter)
        if static == 0:
            return 0.0
        z = mp.mpf(z)
        poles = [2 * z * p for p in poles]
        integral = _mp_integral(lambda x: ratio(x / (2 * z)) * mp.exp(-x) * (1 + x + x * x / 2), poles)
        sign = -plate.sign if letter == "e" else plate.sign
        return float(sign * static * integral / (32 * mp.pi**2 * z**4))


def _mp_pair(channel, atom_a, atom_b, l):
    with mp.workdps(MPMATH_DIGITS):
        static_a, ratio_a, poles_a = _mp_response(atom_a, channel.value[0])
        static_b, ratio_b, poles_b = _mp_response(atom_b, channel.value[1])
        if static_a == 0 or static_b == 0:
            return 0.0
        l = mp.mpf(l)
        poles = [l * p for p in poles_a + poles_b]
        if channel.value.count("e") == 1:
            kernel = lambda x: x * x * (1 + x) ** 2 * mp.exp(-2 * x)  # noqa: E731
            sign = 1
        else:
            kernel = lambda x: (3 + x * (6 + x * (5 + x * (2 + x)))) * mp.exp(-2 * x)  # noqa: E731
            sign = -1
        integral = _mp_integral(lambda x: ratio_a(x / l) * ratio_b(x / l) * kernel(x), poles)
        return float(sign * static_a * static_b * integral / (16 * mp.pi**3 * l**7))


def _assert_matches_reference(value, reference):
    assert value == pytest.approx(reference, rel=MPMATH_REL, abs=0.0)


SEEDED = _seeded_atom()
BITWISE_GRID = np.geomspace(1e-2, 1e2, 5)


@pytest.mark.parametrize("atom", [COMPOSITE_A, SEEDED], ids=["composite", "seeded"])
@pytest.mark.parametrize("plate", list(PlateKind))
def test_mirror_curve_is_bitwise_the_per_point_reference(atom, plate):
    curve = mirror_curve(atom, BITWISE_GRID, plate, UnitSystem.NATURAL)
    for i, z in enumerate(BITWISE_GRID.tolist()):
        point = mirror_curve(atom, [z], plate, UnitSystem.NATURAL)
        for ch in MIRROR_CHANNELS:
            assert curve.values[ch][i] == point.values[ch][0]
            _assert_matches_reference(point.values[ch][0], _mp_mirror(atom, ch.value, z, plate))


@pytest.mark.parametrize(
    "atom_a, atom_b",
    [(COMPOSITE_A, COMPOSITE_B), (SEEDED, SEEDED)],
    ids=["composite", "seeded-self"],
)
def test_pair_curve_is_bitwise_the_per_point_reference(atom_a, atom_b):
    curve = pair_curve(atom_a, atom_b, BITWISE_GRID, UnitSystem.NATURAL)
    for i, l in enumerate(BITWISE_GRID.tolist()):
        point = pair_curve(atom_a, atom_b, [l], UnitSystem.NATURAL)
        for ch in PAIR_CHANNELS:
            assert curve.values[ch][i] == point.values[ch][0]
            if atom_a is not atom_b or ch.value <= ch.value[::-1]:  # the rest are checked below
                _assert_matches_reference(point.values[ch][0], _mp_pair(ch, atom_a, atom_b, l))
    if atom_a is atom_b:
        for a, b in ((Channel.EP, Channel.PE), (Channel.ED, Channel.DE), (Channel.PD, Channel.DP)):
            assert np.array_equal(curve.values[a], curve.values[b])


def _record_engine_calls(monkeypatch) -> dict:
    """Counts the quadratures and the closed-form passes that potentials makes."""
    calls = {"quadratures": 0, "passes": 0}
    quadrature, closed_form = vdwcp.potentials.integrate_semiinf, vdwcp.potentials._channel_integrals

    def counting_quadrature(*args, **kwargs):
        calls["quadratures"] += 1
        return quadrature(*args, **kwargs)

    def counting_pass(*args, **kwargs):
        calls["passes"] += 1
        return closed_form(*args, **kwargs)

    monkeypatch.setattr(vdwcp.potentials, "integrate_semiinf", counting_quadrature)
    monkeypatch.setattr(vdwcp.potentials, "_channel_integrals", counting_pass)
    return calls


@pytest.mark.parametrize(
    "grid",
    [
        np.geomspace(2.0, 1.0, 101),
        [1.0, 1.0, 2.0],
        [[1.0]],
        [],
        [-1.0, 2.0],
        [0.0, 1.0],
        [1.0, np.nan],
    ],
    ids=["decreasing", "repeated", "2d", "empty", "negative", "zero", "nan"],
)
def test_bad_grid_is_rejected_before_any_quadrature(monkeypatch, grid):
    calls = _record_engine_calls(monkeypatch)
    with pytest.raises(ValueError, match="distances must be"):
        mirror_curve(COMPOSITE_A, grid, PlateKind.CONDUCTING, UnitSystem.NATURAL)
    with pytest.raises(ValueError, match="distances must be"):
        pair_curve(COMPOSITE_A, COMPOSITE_B, grid, UnitSystem.NATURAL)
    assert calls == {"quadratures": 0, "passes": 0}


def test_diamagnetic_moment_is_integrated_once_per_curve(monkeypatch):
    # The diamagnetic moments are the constants 3 and 23/4: a curve makes no
    # quadrature call, and one closed-form pass covers all its other channels.
    calls = _record_engine_calls(monkeypatch)
    pair = pair_curve(COMPOSITE_A, COMPOSITE_B, np.geomspace(1e-3, 1e3, 61), UnitSystem.NATURAL)
    mirror = mirror_curve(
        COMPOSITE_A, np.geomspace(1e-2, 1e2, 40), PlateKind.CONDUCTING, UnitSystem.NATURAL
    )
    assert calls == {"quadratures": 0, "passes": 2}
    for l, value in zip(pair.distances.tolist(), pair.values[Channel.DD].tolist()):
        closed = vdw_asymptote(Channel.DD, COMPOSITE_A, COMPOSITE_B, l, Regime.RETARDED, NAT)
        assert value == pytest.approx(closed, rel=1e-14)
    for z, value in zip(mirror.distances.tolist(), mirror.values[Channel.D].tolist()):
        closed = cp_mirror_diamagnetic_closed(-0.3, z, PlateKind.CONDUCTING, NAT)
        assert value == pytest.approx(closed, rel=1e-14)


# -- the moments M_n against mpmath ---------------------------------------------------

# Worst relative error of M_0..M_5 on _moment_sweep() with the depth-100
# continued fraction that the Taylor table replaced, rounded up.
FRACTION_ERRORS = (4.73e-16, 3.96e-16, 1.65e-15, 6.39e-16, 1.15e-15, 4.78e-16)


def _moment_sweep():
    """1,000 geometric points on [2, 130], 2, 100 and the neighbours of every route and band edge."""
    edges = moment_table.EDGES + (2.0, 100.0)
    neighbours = [math.nextafter(e, side) for e in edges for side in (0.0, math.inf)]
    return np.unique(np.concatenate([np.geomspace(2.0, 130.0, 1000), [2.0, 100.0], neighbours]))


def test_moments_match_mpmath_across_the_taylor_bands():
    # U_0 = e^z E_1(z), U_n = (n - 1)! - z U_(n-1) at z = -i A, U_n = M_(n+1) + i A M_n
    a = _moment_sweep()
    moments = vdwcp.potentials._moments(a)
    worst = [mp.mpf(0)] * 6
    with mp.workdps(80):
        for x, column in zip(a.tolist(), moments.T.tolist()):
            z = mp.mpc(0, -x)
            u = mp.exp(z) * mp.e1(z)
            reference = [u.imag / x]
            for n in range(1, 6):
                reference.append(u.real)
                u = math.factorial(n - 1) - z * u
            for n, (value, exact) in enumerate(zip(column, reference)):
                worst[n] = max(worst[n], abs(value / exact - 1))
    for n, (w, bound) in enumerate(zip(worst, FRACTION_ERRORS)):
        assert w <= bound, (n, float(w))


def test_each_moment_element_is_its_own_one_point_run():
    # series, Taylor bands, band edges and the asymptotic series in one call
    a = np.array([1e-9, 0.3, 1.999, 2.0, 2.5, 2.7, 9.5367431640625, 40.0, 99.99, 100.0, 150.0, 1e100])
    moments = vdwcp.potentials._moments(a)
    for i in range(a.size):
        assert np.array_equal(moments[:, i], vdwcp.potentials._moments(a[i : i + 1])[:, 0]), a[i]


# -- curves against one-point runs ------------------------------------------------


@settings(max_examples=6)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    electric=st.integers(min_value=1, max_value=4),
    magnetic=st.integers(min_value=1, max_value=4),
    points=st.integers(min_value=1, max_value=70),
    low=st.floats(min_value=-2.5, max_value=0.5),
    decades=st.floats(min_value=0.1, max_value=4.0),
    plate=st.sampled_from(list(PlateKind)),
    exponent=st.floats(min_value=-13.0, max_value=-6.0),
)
def test_curves_are_bitwise_one_point_runs(
    seed, electric, magnetic, points, low, decades, plate, exponent
):
    atom = _seeded_atom(seed, electric, magnetic)
    partner = _seeded_atom(seed + 1, magnetic, electric)
    grid = np.geomspace(10.0**low, 10.0 ** (low + decades), points)
    spec = QuadratureSpec(rel_tol=10.0**exponent)
    mirror = mirror_curve(atom, grid, plate, UnitSystem.NATURAL, spec)
    pair = pair_curve(atom, partner, grid, UnitSystem.NATURAL, spec)
    for i, d in enumerate(grid.tolist()):
        point = mirror_curve(atom, [d], plate, UnitSystem.NATURAL, spec)
        for ch in MIRROR_CHANNELS:
            assert mirror.values[ch][i] == point.values[ch][0]
        assert mirror.total[i] == point.total[0]
        point = pair_curve(atom, partner, [d], UnitSystem.NATURAL, spec)
        for ch in PAIR_CHANNELS:
            assert pair.values[ch][i] == point.values[ch][0]
        assert pair.total[i] == point.total[0]


@pytest.mark.parametrize("electric", [1, 3, 30])
def test_moment_calls_stay_within_the_block(monkeypatch, electric):
    # the engine's working set: every _moments call takes at most _BLOCK elements
    sizes = []
    real = vdwcp.potentials._moments

    def recording(a):
        sizes.append(a.size)
        return real(a)

    monkeypatch.setattr(vdwcp.potentials, "_moments", recording)
    atom = _seeded_atom(5, electric, 2)
    pair_curve(atom, atom, np.geomspace(0.05, 20.0, 11), UnitSystem.NATURAL)
    mirror_curve(atom, np.geomspace(0.05, 20.0, 11), PlateKind.CONDUCTING, UnitSystem.NATURAL)
    assert sizes and max(sizes) <= vdwcp.potentials._BLOCK


def _lines_atom(magnetic):
    """20 electric lines spaced 13% apart, the magnetic lines given, and a beta_d."""
    electric = np.geomspace(0.5, 5.0, 20).tolist()
    return AtomModel(
        label="lines",
        electric_transitions=tuple(Transition(omega=w, dipole_sq=0.5, kind=ELECTRIC) for w in electric),
        magnetic_transitions=tuple(Transition(omega=w, dipole_sq=0.7, kind=MAGNETIC) for w in magnetic),
        diamagnetic=DiamagneticSpec(direct_beta_d=-0.3),
    )


def test_moment_calls_do_not_grow_with_the_close_pairs(monkeypatch):
    # 1 or 6 magnetic lines 0.4% from an electric one (4 or 24 Gauss-Legendre
    # nodes, both ways within one _BLOCK), the other magnetic lines far from any
    calls = []
    real = vdwcp.potentials._moments
    monkeypatch.setattr(vdwcp.potentials, "_moments", lambda a: calls.append(a.size) or real(a))
    electric = np.geomspace(0.5, 5.0, 20)
    counts = []
    for close in (1, 6):
        magnetic = [1.004 * w for w in electric[1 : 2 * close : 2]] + [1.06 * w for w in electric[12 : 20 - close]]
        atom = _lines_atom(magnetic)
        calls.clear()
        pair_curve(atom, atom, np.geomspace(0.01, 100.0, 9), UnitSystem.NATURAL)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("magnetic", [[0.6, 0.6012, 1.3, 2.9], [0.5, 0.5, 1.0001, 4.99]])
def test_self_pair_is_bitwise_the_pair_with_an_equal_copy(magnetic):
    # a self-pair counts each close pair once, twice weighted; a copy meets it both ways
    atom = _lines_atom(magnetic + [1.0025 * w for w in np.geomspace(0.5, 5.0, 20)[3:9]])
    copy = AtomModel(
        label="copy",
        electric_transitions=atom.electric_transitions,
        magnetic_transitions=atom.magnetic_transitions,
        diamagnetic=atom.diamagnetic,
    )
    grid = np.geomspace(1e-3, 1e3, 13)
    alone, pair = pair_curve(atom, atom, grid, UnitSystem.NATURAL), pair_curve(atom, copy, grid, UnitSystem.NATURAL)
    for ch in PAIR_CHANNELS:
        assert np.array_equal(alone.values[ch], pair.values[ch]), ch
    assert np.array_equal(alone.total, pair.total)


def test_batch_failure_is_the_lowest_distance_error():
    # In SI, alpha(0) ~ 6e249 makes the electric mirror channel overflow below
    # z ~ 2e-19; the curve names its first failing distance, as a one-point
    # run there does.
    atom = AtomModel(
        label="huge", electric_transitions=(Transition(omega=1.0, dipole_sq=1e216, kind=ELECTRIC),)
    )
    grid = np.geomspace(1e-21, 1e-17, 6)
    with pytest.raises(ValueError, match="channel 'e'") as curve_error:
        mirror_curve(atom, grid, PlateKind.CONDUCTING, UnitSystem.SI)
    with pytest.raises(ValueError) as point_error:
        mirror_curve(atom, grid[:1], PlateKind.CONDUCTING, UnitSystem.SI)
    assert str(curve_error.value) == str(point_error.value)
    assert repr(float(grid[0])) in str(curve_error.value)


def test_astronomical_omega_times_distance_reaches_the_retarded_limit():
    # A = 2 omega z / c = 2e160: the ratio is 1 over the whole kernel, so the
    # electric channel is its static limit, with no overflow of A^2 on the way
    atom = AtomModel(
        label="far", electric_transitions=(Transition(omega=1e120, dipole_sq=1.0, kind=ELECTRIC),)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = mirror_curve(atom, [1e40], PlateKind.CONDUCTING, UnitSystem.NATURAL).values[Channel.E][0]
    static = alpha_iso(atom, 0.0, NAT.hbar)
    assert value == pytest.approx(-3.0 * static / (32.0 * np.pi**2 * 1e160), rel=1e-14)


# -- random multi-transition atoms: oracle and invariants ---------------------------


def _random_atom(rng, label, electric, magnetic):
    def transitions(count, kind):
        return tuple(
            Transition(omega=float(np.exp(rng.uniform(-1.5, 1.5))), dipole_sq=float(rng.uniform(0.1, 1.0)), kind=kind)
            for _ in range(count)
        )

    return AtomModel(
        label=label,
        electric_transitions=transitions(electric, ELECTRIC),
        magnetic_transitions=transitions(magnetic, MAGNETIC),
        diamagnetic=DiamagneticSpec(direct_beta_d=-float(rng.uniform(0.1, 1.0))),
    )


def _shifted(atom, rng, gap):
    """A copy of atom whose frequencies sit a relative gap away, up or down at random."""

    def moved(transitions):
        return tuple(
            Transition(omega=t.omega * (1.0 + gap * rng.choice((-1.0, 1.0))), dipole_sq=t.dipole_sq, kind=t.kind)
            for t in transitions
        )

    return AtomModel(
        label="shifted",
        electric_transitions=moved(atom.electric_transitions),
        magnetic_transitions=moved(atom.magnetic_transitions),
        diamagnetic=atom.diamagnetic,
    )


PARTNERS = ("self", "coincident", "close", "independent")
random_pairs = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(PARTNERS),
    st.floats(min_value=-12.0, max_value=-1.0),
)


def _pair_of(draw):
    """Two atoms from a random_pairs draw: a self-pair, poles at gap 0 or 1e-12..1e-1, or independent."""
    seed, electric, magnetic, partner, gap_exponent = draw
    rng = np.random.default_rng(seed)
    atom = _random_atom(rng, "a", electric, magnetic)
    if partner == "self":
        return atom, atom
    if partner == "coincident":
        return atom, _shifted(atom, rng, 0.0)
    if partner == "close":
        return atom, _shifted(atom, rng, 10.0**gap_exponent)
    return atom, _random_atom(rng, "b", magnetic, electric)


@settings(max_examples=12)
@given(pair=random_pairs, exponent=st.floats(min_value=-6.0, max_value=6.0))
# ep and pe integrals of 2.09e-13, whose 30-digit error estimate of 1e-32 failed the 1e-20 relative bound
@example(pair=(655, 2, 3, "close", -8.400613536586192), exponent=-3.9756012160880396)
def test_every_channel_matches_mpmath_on_random_atoms(pair, exponent):
    atom_a, atom_b = _pair_of(pair)
    d = 10.0**exponent
    curve = pair_curve(atom_a, atom_b, [d], UnitSystem.NATURAL)
    for ch in PAIR_CHANNELS:
        _assert_matches_reference(curve.values[ch][0], _mp_pair(ch, atom_a, atom_b, d))
    curve = mirror_curve(atom_a, [d], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    for ch in MIRROR_CHANNELS:
        _assert_matches_reference(
            curve.values[ch][0], _mp_mirror(atom_a, ch.value, d, PlateKind.CONDUCTING)
        )


@given(
    pair=random_pairs,
    exponent=st.floats(min_value=-5.0, max_value=5.0),
    stretch=st.floats(min_value=-3.0, max_value=3.0),
)
def test_channels_depend_on_omega_times_distance_only(pair, exponent, stretch):
    # (d, omega) -> (s d, omega / s) leaves every integral as it is; the
    # prefactor d^-7 (d^-4 at a mirror) and the statics, which scale with s,
    # carry the rest.
    atom_a, atom_b = _pair_of(pair)
    s = 10.0**stretch

    def stretched(atom):
        def moved(transitions):
            return tuple(Transition(t.omega / s, t.dipole_sq, t.kind) for t in transitions)

        return AtomModel(atom.label, moved(atom.electric_transitions), moved(atom.magnetic_transitions), atom.diamagnetic)

    d = 10.0**exponent
    scaled_a = stretched(atom_a)
    scaled_b = scaled_a if atom_b is atom_a else stretched(atom_b)
    base = pair_curve(atom_a, atom_b, [d], UnitSystem.NATURAL)
    scaled = pair_curve(scaled_a, scaled_b, [s * d], UnitSystem.NATURAL)
    for ch in PAIR_CHANNELS:
        weight = s ** (7 - sum(letter != "d" for letter in ch.value))
        assert scaled.values[ch][0] * weight == pytest.approx(base.values[ch][0], rel=1e-12, abs=0.0)
    base = mirror_curve(atom_a, [d], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    scaled = mirror_curve(scaled_a, [s * d], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    for ch in MIRROR_CHANNELS:
        weight = s ** (4 - (ch is not Channel.D))
        assert scaled.values[ch][0] * weight == pytest.approx(base.values[ch][0], rel=1e-12, abs=0.0)


@given(pair=random_pairs, exponent=st.floats(min_value=-6.0, max_value=6.0))
def test_atom_swap_is_bitwise_on_random_atoms(pair, exponent):
    # close and coincident poles take the double-pole nodes, whose order
    # depends on which atom comes first
    atom_a, atom_b = _pair_of(pair)
    grid = [10.0**exponent, 2.0 * 10.0**exponent]
    forward = pair_curve(atom_a, atom_b, grid, UnitSystem.NATURAL)
    backward = pair_curve(atom_b, atom_a, grid, UnitSystem.NATURAL)
    for ch in PAIR_CHANNELS:
        assert np.array_equal(forward.values[ch], backward.values[Channel(ch.value[::-1])])
    assert np.array_equal(forward.total, backward.total)


@given(pair=random_pairs, exponent=st.floats(min_value=-6.0, max_value=6.0))
def test_plate_flip_negates_every_mirror_channel_bitwise(pair, exponent):
    atom, _ = _pair_of(pair)
    d = 10.0**exponent
    conducting = mirror_curve(atom, [d], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    permeable = mirror_curve(atom, [d], PlateKind.PERMEABLE, UnitSystem.NATURAL)
    for ch in MIRROR_CHANNELS:
        assert permeable.values[ch][0] == -conducting.values[ch][0]


@settings(max_examples=15)
@given(pair=random_pairs, exponent=st.floats(min_value=-2.0, max_value=2.0))
def test_channel_sum_matches_the_unfactored_quadrature(pair, exponent):
    atom_a, atom_b = _pair_of(pair)
    d = 10.0**exponent
    curve = pair_curve(atom_a, atom_b, [d], UnitSystem.NATURAL)
    direct = vdw_pair_total_direct(atom_a, atom_b, d, NAT, QuadratureSpec(rel_tol=1e-13))
    scale = sum(abs(curve.values[ch][0]) for ch in PAIR_CHANNELS)
    assert abs(curve.total[0] - direct) <= 1e-11 * scale
