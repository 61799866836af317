"""Potential channels against closed forms, symmetries and curve plumbing."""

import hashlib
import importlib.util
import math
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vdwcp.potentials
from vdwcp import moment_table
from vdwcp.asymptotics import default_fixtures
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


@pytest.mark.parametrize("plate", list(PlateKind))
def test_mirror_takes_a_plate_or_its_value(plate):
    # mirror_curve and the closed form are public: a PlateKind's value stands for its member
    by_value = mirror_curve(DIA, [1.0, 2.0], plate.value, UnitSystem.NATURAL)
    assert by_value.plate is plate
    assert by_value.total.tobytes() == mirror_curve(DIA, [1.0, 2.0], plate, UnitSystem.NATURAL).total.tobytes()
    assert cp_mirror_diamagnetic_closed(-1.0, 1.0, plate.value, NAT) == cp_mirror_diamagnetic_closed(-1.0, 1.0, plate, NAT)
    for other in ("Conducting", None):
        with pytest.raises(ValueError, match=f"^{other!r} is not a valid PlateKind$"):
            mirror_curve(DIA, [1.0], other, UnitSystem.NATURAL)
        with pytest.raises(ValueError, match=f"^{other!r} is not a valid PlateKind$"):
            cp_mirror_diamagnetic_closed(-1.0, 1.0, other, NAT)


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


def test_unfactored_total_meets_a_tight_tolerance_in_si_units():
    # omega x 1e16 rad/s, dipoles x 1e-58 C^2 m^2 and 1e-46 J^2/T^2, beta_d x 1e-29 J/T^2, l = 1e-8 m:
    # 2 omega l / c as at l = 1 in natural units. The crossed part alone is too small for 1e-13; the total is not.
    def si(atom):
        electric, magnetic = (
            tuple(Transition(t.omega * 1e16, t.dipole_sq * scale, t.kind) for t in lines)
            for lines, scale in ((atom.electric_transitions, 1e-58), (atom.magnetic_transitions, 1e-46))
        )
        return AtomModel(atom.label, electric, magnetic, DiamagneticSpec(atom.diamagnetic.direct_beta_d * 1e-29))

    a, b = si(COMPOSITE_A), si(COMPOSITE_B)
    direct = vdw_pair_total_direct(a, b, 1e-8, constants_for(UnitSystem.SI), QuadratureSpec(rel_tol=1e-13))
    assert direct == pytest.approx(pair_curve(a, b, [1e-8], UnitSystem.SI).total[0], rel=1e-12)


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


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("channel", PAIR_CHANNELS)
def test_asymptote_takes_a_regime_or_its_value(channel, regime):
    # vdw_asymptote is public: a Regime's value stands for its member, anything else is refused
    def outcome(regime, l):
        try:
            return vdw_asymptote(channel, COMPOSITE_A, COMPOSITE_B, l, regime, NAT).hex()
        except ValueError as error:
            return type(error), str(error)

    assert all(outcome(regime.value, l) == outcome(regime, l) for l in (1e-3, 1.0, 1e3))
    for other in ("all", None):
        assert outcome(other, 1.0) == (ValueError, f"{other!r} is not a valid Regime")


@pytest.mark.parametrize("channel", PAIR_CHANNELS)
def test_asymptote_takes_a_channel_or_its_value(channel):
    by_value = vdw_asymptote(channel.value, COMPOSITE_A, COMPOSITE_B, 1e3, Regime.RETARDED, NAT)
    assert by_value.hex() == vdw_asymptote(channel, COMPOSITE_A, COMPOSITE_B, 1e3, Regime.RETARDED, NAT).hex()
    for other in ("bogus", "ED", None):
        with pytest.raises(ValueError, match=f"^{other!r} is not a valid Channel$"):
            vdw_asymptote(other, COMPOSITE_A, COMPOSITE_B, 1e3, Regime.RETARDED, NAT)


@pytest.mark.parametrize("units", list(UnitSystem))
def test_curves_take_a_unit_system_or_its_value(units):
    grid = [1e-8 if units is UnitSystem.SI else 1.0]
    mirror = mirror_curve(DIA, grid, "conducting", units.value)
    assert mirror.total.tobytes() == mirror_curve(DIA, grid, PlateKind.CONDUCTING, units).total.tobytes()
    pair = pair_curve(COMPOSITE_A, COMPOSITE_B, grid, units.value)
    assert pair.total.tobytes() == pair_curve(COMPOSITE_A, COMPOSITE_B, grid, units).total.tobytes()
    with pytest.raises(ValueError, match="^'Natural' is not a valid UnitSystem$"):
        mirror_curve(DIA, grid, "conducting", "Natural")


def _dia(beta_d):
    return AtomModel(label="d", diamagnetic=DiamagneticSpec(direct_beta_d=beta_d))


# alpha(0) = 2/(3 hbar) 1e300 is inf in SI
HUGE_ALPHA = AtomModel(label="huge", electric_transitions=(Transition(omega=1.0, dipole_sq=1e300, kind=ELECTRIC),))
# a beta_d at which the closed forms overflow at a small distance that passes the range checks
HUGE_DIA = AtomModel(label="huge-d", diamagnetic=DiamagneticSpec(direct_beta_d=-1e300))
C, SI = PlateKind.CONDUCTING, constants_for(UnitSystem.SI)
RANGE = "{} {!r} is out of range: 1/{}^{} is not a finite non-zero float"
CHANNEL = "channel {!r} at {} {!r} is {!r}; it must be a finite float"
LENZ = "diamagnetisability must be finite and <= 0 (Lenz rule), got {!r}"
# (closed form, the curve on the same input, the message of both)
CLOSED_FORM_REJECTS = {
    "mirror-beta_d-nan": (
        lambda: cp_mirror_diamagnetic_closed(math.nan, 1.0, C, NAT),
        lambda: mirror_curve(_dia(math.nan), [1.0], C, UnitSystem.NATURAL),
        LENZ.format(math.nan),
    ),
    "mirror-beta_d-minus-inf": (
        lambda: cp_mirror_diamagnetic_closed(-math.inf, 1.0, C, NAT),
        lambda: mirror_curve(_dia(-math.inf), [1.0], C, UnitSystem.NATURAL),
        LENZ.format(-math.inf),
    ),
    **{
        f"mirror-z-{z}": (
            lambda z=z: cp_mirror_diamagnetic_closed(-1.0, z, C, NAT),
            lambda z=z: mirror_curve(DIA, [z], C, UnitSystem.NATURAL),
            RANGE.format("mirror distance z", z, "z", 4),
        )
        for z in (1e-100, math.inf)
    },
    **{
        f"asymptote-l-{l}": (
            lambda l=l: vdw_asymptote(Channel.DD, DIA, DIA, l, Regime.RETARDED, NAT),
            lambda l=l: pair_curve(DIA, DIA, [l], UnitSystem.NATURAL),
            RANGE.format("separation l", l, "l", 7),
        )
        for l in (1e-50, 1e300, math.inf)
    },
    **{
        f"direct-l-{l}": (
            lambda l=l: vdw_pair_total_direct(DIA, DIA, l, NAT),
            lambda l=l: pair_curve(DIA, DIA, [l], UnitSystem.NATURAL),
            RANGE.format("separation l", l, "l", 7),
        )
        for l in (1e-50, 1e60, math.inf)
    },
    "mirror-overflow": (
        lambda: cp_mirror_diamagnetic_closed(-1e300, 1e-70, C, NAT),
        lambda: mirror_curve(HUGE_DIA, [1e-70], C, UnitSystem.NATURAL),
        CHANNEL.format("d", "mirror distance z", 1e-70, -math.inf),
    ),
    "asymptote-dd-retarded-overflow": (
        lambda: vdw_asymptote(Channel.DD, HUGE_DIA, HUGE_DIA, 1e-20, Regime.RETARDED, NAT),
        lambda: pair_curve(HUGE_DIA, HUGE_DIA, [1e-20], UnitSystem.NATURAL),
        CHANNEL.format("dd", "separation l", 1e-20, -math.inf),
    ),
    "asymptote-ed-nonretarded-overflow": (
        lambda: vdw_asymptote(Channel.ED, ELEC, HUGE_DIA, 1e-20, Regime.NONRETARDED, NAT),
        lambda: pair_curve(ELEC, HUGE_DIA, [1e-20], UnitSystem.NATURAL),
        CHANNEL.format("ed", "separation l", 1e-20, -math.inf),
    ),
    "asymptote-dp-nonretarded-overflow": (
        lambda: vdw_asymptote(Channel.DP, HUGE_DIA, PARA, 1e-20, Regime.NONRETARDED, NAT),
        lambda: pair_curve(HUGE_DIA, PARA, [1e-20], UnitSystem.NATURAL),
        CHANNEL.format("dp", "separation l", 1e-20, math.inf),
    ),
    "asymptote-alpha-inf": (
        lambda: vdw_asymptote(Channel.EE, HUGE_ALPHA, HUGE_ALPHA, 1e-8, Regime.RETARDED, SI),
        lambda: pair_curve(HUGE_ALPHA, HUGE_ALPHA, [1e-8], UnitSystem.SI),
        "atom 'huge': the static polarisability alpha(0) is inf; it must be a finite float",
    ),
}


@pytest.mark.parametrize("case", list(CLOSED_FORM_REJECTS))
def test_closed_forms_reject_what_the_curves_reject(case):
    # each raised ZeroDivisionError or OverflowError, or returned nan, +-inf or -0.0, before the closed
    # forms took the curves' range check of the distance, the Lenz rule, the finite statics and
    # the finite channel value
    closed, curve, message = CLOSED_FORM_REJECTS[case]
    for call in (closed, curve):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


def test_self_pair_names_the_channel_its_equal_copy_names():
    # de overflows with ed; a self-pair writes both rows before the scan, so both name ed, the first in channel order
    atom = AtomModel(
        label="tiny-e-huge-d",
        electric_transitions=(Transition(omega=1.0, dipole_sq=1e-300, kind=ELECTRIC),),
        diamagnetic=DiamagneticSpec(direct_beta_d=-1e300),
    )
    copy = AtomModel(label="copy", electric_transitions=atom.electric_transitions, diamagnetic=atom.diamagnetic)
    for partner in (atom, copy):
        with pytest.raises(ValueError) as raised:
            pair_curve(atom, partner, [1e-30, 1.0], UnitSystem.NATURAL)
        assert str(raised.value) == CHANNEL.format("ed", "separation l", 1e-30, -math.inf)


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


def test_curve_plate_is_a_plate_kind():
    # a plate's value reads as its PlateKind, as in mirror_curve; any other plate is no mirror curve
    values = {ch: np.zeros(3) for ch in MIRROR_CHANNELS}
    curve = PotentialCurve(distances=[1.0, 2.0, 3.0], values=values, plate="conducting")
    assert curve.plate is PlateKind.CONDUCTING
    with pytest.raises(ValueError, match="'bogus' is not a valid PlateKind"):
        PotentialCurve(distances=[1.0, 2.0, 3.0], values=values, plate="bogus")


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
# The reference is the benchmark's, bench/reference.py: each channel restated as
# its imaginary-frequency integral in natural units, the response ratios as
# plain Lorentzian sums, integrated by mpmath's tanh-sinh rule; it shares no
# code with the closed forms of the engine. The tests run a private instance
# of it at 40 digits, not the benchmark's 30: at 30 digits the rule's error
# estimate has an absolute floor near 1e-32, so a crossed integral as small as
# 2e-13 cannot meet the reference's 1e-20 relative bound.

# Relative deviation allowed from the 40-digit reference; exact zeros must stay exact.
MPMATH_REL = 1e-13
MPMATH_DIGITS = 40
REFERENCE_PATH = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
_spec = importlib.util.spec_from_file_location("_tier1_reference", REFERENCE_PATH)
REFERENCE = importlib.util.module_from_spec(_spec)  # not put in sys.modules
_spec.loader.exec_module(REFERENCE)
REFERENCE.DIGITS = MPMATH_DIGITS  # read at call time


def test_reference_is_the_benchmarks_module_at_forty_digits():
    assert Path(REFERENCE.__file__) == REFERENCE_PATH and REFERENCE.DIGITS == 40
    assert "reference" not in sys.modules and REFERENCE.__name__ not in sys.modules


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
            _assert_matches_reference(point.values[ch][0], REFERENCE.mirror_channel(atom, ch.value, z, plate.sign))


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
                _assert_matches_reference(point.values[ch][0], REFERENCE.pair_channel(atom_a, atom_b, ch.value, l))
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
    # series, Taylor bands, band edges and the asymptotic series in one call; and each kind's terms,
    # where a one-point run from 2 on takes no cross2_near
    a = np.array([1e-9, 0.3, 1.999, 2.0, 2.5, 2.7, 9.5367431640625, 40.0, 99.99, 100.0, 150.0, 1e100])
    moments = vdwcp.potentials._moments(a)
    terms = {kind: vdwcp.potentials._term_values(kind, a, moments) for kind in vdwcp.potentials._KERNELS}
    for i in range(a.size):
        one = vdwcp.potentials._moments(a[i : i + 1])
        assert np.array_equal(moments[:, i], one[:, 0]), a[i]
        for kind, values in terms.items():
            assert values[i] == vdwcp.potentials._term_values(kind, a[i : i + 1], one)[0], (kind, a[i])


def _kernel_digests() -> dict:
    """Per route, the sha256 (first 16 hex digits) of the float64 bits of _moments and of each kind's terms.

    One call takes every route at once: 300 points below 2, the sweep (Taylor bands, edges) and
    300 asymptotic points from 100 to _A_LIMIT; the digests split its elements by route.
    """
    below = np.geomspace(1e-6, 2.0, 300, endpoint=False)
    asymptotic = np.geomspace(100.0, vdwcp.potentials._A_LIMIT, 300)
    a = np.concatenate([below, _moment_sweep(), asymptotic])
    moments = vdwcp.potentials._moments(a)
    layers = {"moments": moments}
    for kind in vdwcp.potentials._KERNELS:
        layers[kind] = vdwcp.potentials._term_values(kind, a, moments)
    routes = {"series": a < 2.0, "taylor": (a >= 2.0) & (a < 100.0), "asymptotic": a >= 100.0}
    return {
        f"{route} {name}": hashlib.sha256(np.ascontiguousarray(layer[..., mask]).tobytes()).hexdigest()[:16]
        for route, mask in routes.items()
        for name, layer in layers.items()
    }


# _kernel_digests() taken at a commit known to be right. np.log, np.sin and np.cos take their last bits
# from numpy's build and the CPU's SIMD paths, so on a new platform the series route may need them
# taken again; a failure names each route and layer that moved.
KERNEL_BITS = {
    "series moments": "82a6c26ab5557252",
    "series mirror": "3a6586ccdd896d5f",
    "series same": "91caa7d30c831174",
    "series same2": "3e8beffe1b17b0ed",
    "series cross": "b55fec24860148ac",
    "series cross_out": "ac42ab4fbfe4ab69",
    "series cross2": "10bb0fd187f5c955",
    "series cross2_near": "600fa534493fa05e",
    "taylor moments": "68314d79ff2aef9b",
    "taylor mirror": "e2711fbeb29a3a06",
    "taylor same": "2667824065e67433",
    "taylor same2": "e7273f14de2e9ca2",
    "taylor cross": "2fafbff181786cc6",
    "taylor cross_out": "45c31e0f1fa80cb8",
    "taylor cross2": "07ab6889594fa401",
    "taylor cross2_near": "a7256d4521ff9915",
    "asymptotic moments": "e404b47ee8dbbf13",
    "asymptotic mirror": "04e86130363c2691",
    "asymptotic same": "27502ab6498b43ee",
    "asymptotic same2": "196981e082496b97",
    "asymptotic cross": "ef8bae5722d1c5e5",
    "asymptotic cross_out": "0aad461cd420f437",
    "asymptotic cross2": "f0a24d2e5cc1ace4",
    "asymptotic cross2_near": "cf86ee04ae293ca6",
}


def test_kernel_layer_keeps_its_bits():
    assert _kernel_digests() == KERNEL_BITS


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


def _assert_whole_row_blocks(sizes, rows, widest, distances):
    """sizes are a curve's _moments calls, rows each array's elements at one distance (lines, then nodes)."""
    # a block is one call per array, each of whole rows of the block's distances
    counts = [size // rows[0] for size in sizes[:: len(rows)]]
    assert sizes == [count * row for count in counts for row in rows]
    assert sum(counts) == distances
    assert max(counts) <= max(1, vdwcp.potentials._BLOCK // widest) and max(counts) - min(counts) <= 1


@pytest.mark.parametrize("electric", [1, 3, 30, 40])
def test_moment_calls_stay_within_the_block(monkeypatch, electric):
    # the engine's working set: a row is one distance's elements of an array, the lines or the nodes; a
    # _moments call is whole rows of one array, at most max(1, _BLOCK // widest) distances of them, so at most
    # 2 _BLOCK lines for these two sides (or one row, where a side is longer) and max(_BLOCK, row) nodes
    sizes = []
    real = vdwcp.potentials._moments

    def recording(a):
        sizes.append(a.size)
        return real(a)

    monkeypatch.setattr(vdwcp.potentials, "_moments", recording)
    atom, grid, block = _seeded_atom(5, electric, 2), np.geomspace(0.05, 20.0, 11), vdwcp.potentials._BLOCK
    for curve in (
        lambda: pair_curve(atom, atom, grid, UnitSystem.NATURAL),
        lambda: mirror_curve(atom, grid, PlateKind.CONDUCTING, UnitSystem.NATURAL),
    ):
        sizes.clear()
        curve()
        lines = electric + 2
        nodes, rest = divmod(sum(sizes) - grid.size * lines, grid.size)  # each element once a distance
        assert rest == 0
        rows = [row for row in (lines, nodes) if row]
        _assert_whole_row_blocks(sizes, rows, max(electric, 2, nodes), grid.size)
        bounds = [max(2 * block, lines), max(block, nodes)]
        assert all(size <= bounds[i % len(rows)] for i, size in enumerate(sizes))


@pytest.mark.parametrize(
    "electric, magnetic, distances, calls",
    [
        # 12 lines a distance, which no cut at _BLOCK elements keeps whole; blocks of at most 32 // 6 = 5
        pytest.param(6, 6, 10, [60, 60], id="6+6"),
        # 15 lines a distance, blocks of at most 32 // 10 = 3 distances
        pytest.param(10, 5, 9, [45, 45, 45], id="10+5"),
    ],
)
def test_a_moment_call_is_whole_rows_of_one_array(monkeypatch, electric, magnetic, distances, calls):
    sizes = []
    real = vdwcp.potentials._moments
    monkeypatch.setattr(vdwcp.potentials, "_moments", lambda a: sizes.append(a.size) or real(a))
    atom = _atom(np.geomspace(0.5, 5.0, electric).tolist(), np.geomspace(0.7, 3.0, magnetic).tolist())
    mirror_curve(atom, np.geomspace(0.01, 100.0, distances), PlateKind.CONDUCTING, UnitSystem.NATURAL)
    assert sizes == calls
    for n in range(1, 41):  # blocks of every grid differ by at most one distance
        sizes.clear()
        mirror_curve(atom, np.geomspace(0.01, 100.0, n), PlateKind.CONDUCTING, UnitSystem.NATURAL)
        _assert_whole_row_blocks(sizes, [electric + magnetic], max(electric, magnetic), n)


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


def test_lines_of_all_sides_share_their_moment_calls(monkeypatch):
    # a curve's lines form one array: every side's frequencies once, the nodes apart
    calls = []
    real = vdwcp.potentials._moments
    monkeypatch.setattr(vdwcp.potentials, "_moments", lambda a: calls.append(a.size) or real(a))
    fixtures = default_fixtures()
    pair_curve(fixtures["e"], fixtures["p"], np.geomspace(1.0, 1.1, 5), UnitSystem.NATURAL)
    assert calls == [10]
    calls.clear()
    pair_curve(COMPOSITE_A, COMPOSITE_B, [1.0], UnitSystem.NATURAL)
    assert calls == [4]


def _ladder_atom(lines, shift=1.0):
    """lines electric lines from 0.5 to 5 and as many magnetic ones 10% above them, times shift."""
    electric = np.geomspace(0.5, 5.0, lines) * shift
    return AtomModel(
        label=f"ladder-{lines}",
        electric_transitions=tuple(Transition(omega=float(w), dipole_sq=0.5, kind=ELECTRIC) for w in electric),
        magnetic_transitions=tuple(Transition(omega=1.1 * float(w), dipole_sq=0.7, kind=MAGNETIC) for w in electric),
        diamagnetic=DiamagneticSpec(direct_beta_d=-0.3),
    )


@pytest.mark.parametrize("lines, mirror, pair", [(10, 3, 3), (6, 2, 2), (5, 2, 2), (3, 1, 1)])
def test_shared_lines_take_no_more_moment_calls_than_each_side_apart(monkeypatch, lines, mirror, pair):
    # 9 distances, no close pairs, blocks of at most 32 // lines distances: 3, 2, 2 and 1 blocks. Each side
    # in an array of its own takes a call per block, mirror and pair: 10 lines 6 and 12, 6 lines 4 and 8,
    # 5 lines 4 and 8, 3 lines 2 and 4; one array of all the lines takes one call per block
    calls = []
    real = vdwcp.potentials._moments
    monkeypatch.setattr(vdwcp.potentials, "_moments", lambda a: calls.append(a.size) or real(a))
    grid = np.geomspace(0.01, 100.0, 9)
    mirror_curve(_ladder_atom(lines), grid, PlateKind.CONDUCTING, UnitSystem.NATURAL)
    assert len(calls) == mirror
    calls.clear()
    pair_curve(_ladder_atom(lines), _ladder_atom(lines, 1.37), grid, UnitSystem.NATURAL)
    assert len(calls) == pair


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


def _atom(electric, magnetic):
    return AtomModel(
        label="atom",
        electric_transitions=tuple(Transition(omega=w, dipole_sq=0.6, kind=ELECTRIC) for w in electric),
        magnetic_transitions=tuple(Transition(omega=w, dipole_sq=0.4, kind=MAGNETIC) for w in magnetic),
        diamagnetic=DiamagneticSpec(direct_beta_d=-0.5),
    )


def _fifty_lines_atom(seed):
    """30 electric lines stratified over [0.5, 5] and 20 magnetic ones, half of them within 0.4% of an electric one."""
    rng = np.random.default_rng(seed)
    electric = np.exp(np.log(0.5) + np.log(10.0) * (np.arange(30) + rng.random(30)) / 30)
    close = electric[::3] * (1.0 + rng.uniform(-0.004, 0.004, 10))
    magnetic = np.concatenate([close, np.exp(rng.uniform(np.log(0.5), np.log(5.0), 10))])

    def transitions(omegas, kind):
        return tuple(Transition(omega=float(w), dipole_sq=float(rng.uniform(0.2, 1.0)), kind=kind) for w in omegas)

    return AtomModel(
        label=f"fifty-{seed}",
        electric_transitions=transitions(electric, ELECTRIC),
        magnetic_transitions=transitions(magnetic, MAGNETIC),
        diamagnetic=DiamagneticSpec(direct_beta_d=-float(rng.uniform(0.2, 1.0))),
    )


FIFTY = _fifty_lines_atom(13)


def test_rows_longer_than_the_block_take_one_moment_call_a_distance(monkeypatch):
    # 50 lines a distance, and the self-pair's 10 close pairs give it more than _BLOCK nodes a distance too
    calls = []
    real = vdwcp.potentials._moments
    monkeypatch.setattr(vdwcp.potentials, "_moments", lambda a: calls.append(a.size) or real(a))
    mirror_curve(FIFTY, np.geomspace(1e-2, 1e2, 40), PlateKind.CONDUCTING, UnitSystem.NATURAL)
    assert calls == [50] * 40
    calls.clear()
    pair_curve(FIFTY, FIFTY, np.geomspace(1e-2, 1e2, 21), UnitSystem.NATURAL)
    assert len(calls) == 2 * 21 and calls[::2] == [50] * 21
    assert len(set(calls[1::2])) == 1 and calls[1] > vdwcp.potentials._BLOCK


# B's first electric line is A's second (a coincident pole), its first magnetic line 0.3% above
# A's first electric line (Gauss-Legendre nodes); the self-pair meets its own lines (index positions)
CLOSE_A, CLOSE_B = _atom([0.6, 1.3, 2.9], [1.0]), _atom([1.3, 3.3], [0.6018, 2.0])
BLOCK_CASES = {
    "lines-1": (_seeded_atom(3, 1, 1), _seeded_atom(4, 1, 1), np.geomspace(0.05, 20.0, 23)),
    "lines-4": (_seeded_atom(5, 4, 3), _seeded_atom(6, 2, 4), np.geomspace(0.01, 100.0, 19)),
    "lines-10": (_seeded_atom(7, 10, 10), _seeded_atom(8, 10, 9), np.geomspace(1e-3, 1e3, 17)),
    "close-pair": (CLOSE_A, CLOSE_B, np.geomspace(0.01, 100.0, 21)),
    "coincident-self": (CLOSE_B, CLOSE_B, np.geomspace(0.01, 100.0, 21)),
    # one block of 8 distances; ep (top line 1.0) and pe (1.4) take t^2 out below l = 1 and 1/1.4
    "switch-in-block": (COMPOSITE_A, COMPOSITE_B, np.geomspace(0.5, 2.0, 8)),
    # whole-row calls: 50 lines and more than _BLOCK nodes a distance, coincident and close poles
    "lines-50-self": (FIFTY, FIFTY, np.geomspace(1e-2, 1e2, 21)),
}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_block_sums_are_bitwise_one_point_runs(monkeypatch, case):
    # a block lays out the same products as a one-point run, and math.fsum rounds each row once
    atom, partner, grid = BLOCK_CASES[case]
    calls = []
    real = vdwcp.potentials._moments
    monkeypatch.setattr(vdwcp.potentials, "_moments", lambda a: calls.append(a.size) or real(a))
    curves = [mirror_curve(atom, grid, plate, UnitSystem.NATURAL) for plate in PlateKind]
    curves.append(pair_curve(atom, partner, grid, UnitSystem.NATURAL))
    if case == "switch-in-block":
        assert calls == [16, 16, 32] and 1 / 1.4 > grid[1] and grid[-1] > 1.0  # a block per curve
    for i, d in enumerate(grid.tolist()):
        points = [mirror_curve(atom, [d], plate, UnitSystem.NATURAL) for plate in PlateKind]
        points.append(pair_curve(atom, partner, [d], UnitSystem.NATURAL))
        for curve, point in zip(curves, points):
            for ch, values in curve.values.items():
                assert values[i] == point.values[ch][0], (ch, d)
            assert curve.total[i] == point.total[0]


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


# signed zeros, cancelling pairs, subnormals, one rounding and, past two terms, a sum fsum keeps
SUM_ROWS = {
    1: [[-0.0], [0.0], [5e-324], [-1.5]],
    2: [[-0.0, -0.0], [-0.0, 0.0], [1.25, -1.25], [-5e-324, 5e-324], [1e308, -1e308], [1.0, 2.0**-53], [0.1, 0.2]],
    3: [[1e16, 1.0, -1e16], [-0.0, -0.0, -0.0], [0.1, 0.2, 0.3]],
}


@pytest.mark.parametrize("width", list(SUM_ROWS))
def test_row_sums_are_the_fsum_of_each_row_bit_for_bit(width):
    rows = SUM_ROWS[width]
    points = np.array([row + [np.nan] for row in rows])  # a block is wider than the channel's terms
    sums = np.empty(len(rows))
    vdwcp.potentials._row_sums(points, width, sums)
    assert [_bits(value) for value in sums.tolist()] == [_bits(math.fsum(row)) for row in rows]


@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0, -0.0)
@example(0.5, -0.5)
def test_two_term_row_sums_are_their_fsum(a, b):
    assume(math.isfinite(a + b))  # fsum raises OverflowError where the two finite terms overflow
    sums = np.empty(2)
    vdwcp.potentials._row_sums(np.array([[a, b], [a, 0.0]]), 2, sums)
    assert [_bits(value) for value in sums.tolist()] == [_bits(math.fsum([a, b])), _bits(math.fsum([a, 0.0]))]


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
        _assert_matches_reference(curve.values[ch][0], REFERENCE.pair_channel(atom_a, atom_b, ch.value, d))
    curve = mirror_curve(atom_a, [d], PlateKind.CONDUCTING, UnitSystem.NATURAL)
    for ch in MIRROR_CHANNELS:
        _assert_matches_reference(
            curve.values[ch][0], REFERENCE.mirror_channel(atom_a, ch.value, d, PlateKind.CONDUCTING.sign)
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
