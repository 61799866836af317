"""Unit-system plumbing, and SI correctness of every analytic prefactor.

The deep-regime closed forms are exact statements about powers of hbar, mu0
and c. Natural units (all ones) cannot see a misplaced factor of c, so the
scaling tests below rerun quadrature-vs-closed-form comparisons with a fake
constant set (c = 2, hbar = 3, mu0 = 5); any wrong power of a constant in
either path breaks the agreement.
"""
import numpy as np
import pytest

from vdwcp.green import PlateKind
from vdwcp.potentials import (
    MIRROR_CHANNELS,
    PAIR_CHANNELS,
    Channel,
    Regime,
    _mirror_values,
    _pair_values,
    cp_mirror_diamagnetic_closed,
    vdw_asymptote,
)
from vdwcp.quad import QuadratureSpec
from vdwcp.response import ELECTRIC, MAGNETIC, AtomModel, DiamagneticSpec, Transition
from vdwcp.units import Constants, UnitSystem, constants_for


def test_si_constants_satisfy_maxwell_identity():
    consts = constants_for(UnitSystem.SI)
    assert consts.c == 299_792_458.0
    assert consts.hbar == pytest.approx(1.054_571_817e-34, rel=1e-9)
    assert abs(consts.mu0 * consts.eps0 * consts.c**2 - 1.0) <= 1e-12
    assert consts.mu0 == pytest.approx(1.256_637_062e-6, rel=1e-8)


def test_natural_constants_are_all_one():
    consts = constants_for(UnitSystem.NATURAL)
    assert (consts.hbar, consts.c, consts.eps0, consts.mu0) == (1.0, 1.0, 1.0, 1.0)


def test_constants_reject_nonpositive_values():
    with pytest.raises(ValueError):
        Constants(hbar=-1.0, c=1.0, eps0=1.0, mu0=1.0)
    with pytest.raises(ValueError):
        Constants(hbar=1.0, c=0.0, eps0=1.0, mu0=1.0)


def test_constants_reject_inconsistent_triple():
    with pytest.raises(ValueError):
        Constants(hbar=1.0, c=2.0, eps0=1.0, mu0=1.0)


# Fake but self-consistent constants: eps0 = 1/(mu0 c^2).
FAKE = Constants(hbar=3.0, c=2.0, eps0=1.0 / 20.0, mu0=5.0)

# Fixture atoms with transition frequency 1 in the fake system.
ELEC = AtomModel(
    label="e", electric_transitions=(Transition(omega=1.0, dipole_sq=1.0, kind=ELECTRIC),)
)
PARA = AtomModel(
    label="p", magnetic_transitions=(Transition(omega=1.0, dipole_sq=1.0, kind=MAGNETIC),)
)
DIA = AtomModel(label="d", diamagnetic=DiamagneticSpec(direct_beta_d=-1.0))

SPEC = QuadratureSpec(rel_tol=1e-10)

# Deep-regime separations for omega = 1: l omega / c far below / above 1.
L_NEAR = 1e-3 * FAKE.c
L_FAR = 1e3 * FAKE.c


def _mirror(atom, z, plate, channel):
    """One channel at one distance in the fake constants.

    Curves take a UnitSystem, so the fake constants go straight to the one
    evaluation path, _mirror_values / _pair_values.
    """
    values = _mirror_values(atom, np.array([z]), plate, FAKE, SPEC)
    return values[MIRROR_CHANNELS.index(channel), 0]


def _pair(atom_a, atom_b, l, channel):
    """One pair channel at one separation, in the fake constants."""
    values = _pair_values(atom_a, atom_b, np.array([l]), FAKE, SPEC)
    return values[PAIR_CHANNELS.index(channel), 0]


def test_mirror_diamagnetic_closed_form_scales_with_constants():
    for z in (0.7, 3.0):
        for plate in PlateKind:
            quad = _mirror(DIA, z, plate, Channel.D)
            closed = cp_mirror_diamagnetic_closed(-1.0, z, plate, FAKE)
            assert quad == pytest.approx(closed, rel=1e-9)


def test_mirror_electric_retarded_limit_scales_with_constants():
    # the quartic retarded law -3 hbar c alpha(0) / (32 pi^2 eps0 z^4)
    z = L_FAR
    alpha0 = 2.0 / (3.0 * FAKE.hbar)  # single unit-weight transition at omega = 1
    expected = -3.0 * FAKE.hbar * FAKE.c * alpha0 / (32.0 * np.pi**2 * FAKE.eps0 * z**4)
    quad = _mirror(ELEC, z, PlateKind.CONDUCTING, Channel.E)
    assert quad == pytest.approx(expected, rel=1e-2)


def test_mirror_paramagnetic_retarded_limit_scales_with_constants():
    # repulsive counterpart +3 hbar mu0 c beta(0) / (32 pi^2 z^4)
    z = L_FAR
    beta0 = 2.0 / (3.0 * FAKE.hbar)
    expected = 3.0 * FAKE.hbar * FAKE.mu0 * FAKE.c * beta0 / (32.0 * np.pi**2 * z**4)
    quad = _mirror(PARA, z, PlateKind.CONDUCTING, Channel.P)
    assert quad == pytest.approx(expected, rel=1e-2)


@pytest.mark.parametrize(
    "channel,atom_a,atom_b,l,regime",
    [
        (Channel.DD, DIA, DIA, 1.7, Regime.RETARDED),
        (Channel.ED, ELEC, DIA, L_NEAR, Regime.NONRETARDED),
        (Channel.ED, ELEC, DIA, L_FAR, Regime.RETARDED),
        (Channel.DP, DIA, PARA, L_NEAR, Regime.NONRETARDED),
        (Channel.DP, DIA, PARA, L_FAR, Regime.RETARDED),
        (Channel.EE, ELEC, ELEC, L_FAR, Regime.RETARDED),
        (Channel.PP, PARA, PARA, L_FAR, Regime.RETARDED),
        (Channel.EP, ELEC, PARA, L_FAR, Regime.RETARDED),
    ],
)
def test_pair_asymptotes_scale_with_constants(channel, atom_a, atom_b, l, regime):
    quad = _pair(atom_a, atom_b, l, channel)
    closed = vdw_asymptote(channel, atom_a, atom_b, l, regime, FAKE)
    assert quad == pytest.approx(closed, rel=1e-2)


def test_pair_dd_is_exact_in_fake_constants():
    # dd has no regime: closed form holds at every separation
    for l in (0.3, 1.0, 40.0):
        quad = _pair(DIA, DIA, l, Channel.DD)
        closed = vdw_asymptote(Channel.DD, DIA, DIA, l, Regime.RETARDED, FAKE)
        assert quad == pytest.approx(closed, rel=1e-9)
