"""Potential channels against closed forms, symmetries and curve plumbing."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vdwcp.potentials
from vdwcp.green import PlateKind, mirror_kernel, pair_kernel_cross, pair_kernel_same
from vdwcp.potentials import (
    MIRROR_CHANNELS,
    PAIR_CHANNELS,
    Channel,
    PotentialCurve,
    Regime,
    UnsupportedAsymptoteError,
    cp_mirror,
    cp_mirror_diamagnetic_closed,
    force_from_curve,
    mirror_curve,
    pair_curve,
    vdw_asymptote,
    vdw_pair,
    vdw_pair_total_direct,
)
from vdwcp.quad import (
    LOCKSTEP_COLUMNS,
    PANEL_NODES,
    IntegrandError,
    QuadratureSpec,
    integrate_semiinf,
)
from vdwcp.response import (
    ELECTRIC,
    MAGNETIC,
    AtomModel,
    DiamagneticSpec,
    LorentzTable,
    Transition,
    alpha_iso,
    beta_para_iso,
    diamagnetisability,
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
            quad = cp_mirror(DIA, z, plate, NAT).diamagnetic
            closed = cp_mirror_diamagnetic_closed(-1.0, z, plate, NAT)
            assert quad == pytest.approx(closed, rel=1e-9)


def test_mirror_diamagnetic_natural_spot_value():
    value = cp_mirror(DIA, 1.0, PlateKind.CONDUCTING, NAT).diamagnetic
    assert value == pytest.approx(-3.0 / (32.0 * np.pi**2), rel=1e-9)
    assert value == pytest.approx(-9.4989e-3, abs=5e-7)


def test_mirror_plate_swap_flips_every_channel():
    atom = AtomModel(
        label="epd",
        electric_transitions=ELEC.electric_transitions,
        magnetic_transitions=PARA.magnetic_transitions,
        diamagnetic=DiamagneticSpec(direct_beta_d=-0.5),
    )
    cond = cp_mirror(atom, 1.3, PlateKind.CONDUCTING, NAT)
    perm = cp_mirror(atom, 1.3, PlateKind.PERMEABLE, NAT)
    assert perm.electric == -cond.electric
    assert perm.paramagnetic == -cond.paramagnetic
    assert perm.diamagnetic == -cond.diamagnetic
    assert perm.total == pytest.approx(-cond.total, rel=1e-15)


def test_mirror_channel_signs_in_front_of_conductor():
    pot = cp_mirror(
        AtomModel(
            label="epd",
            electric_transitions=ELEC.electric_transitions,
            magnetic_transitions=PARA.magnetic_transitions,
            diamagnetic=DiamagneticSpec(direct_beta_d=-0.5),
        ),
        1.0,
        PlateKind.CONDUCTING,
        NAT,
    )
    assert pot.electric < 0.0
    assert pot.paramagnetic > 0.0
    assert pot.diamagnetic < 0.0
    assert pot.magnetic == pot.paramagnetic + pot.diamagnetic


def test_mirror_absent_channels_are_exactly_zero():
    pot = cp_mirror(ELEC, 1.0, PlateKind.CONDUCTING, NAT)
    assert pot.paramagnetic == 0.0
    assert pot.diamagnetic == 0.0
    assert pot.magnetic == 0.0
    assert pot.total == pot.electric


def test_mirror_validation():
    with pytest.raises(ValueError):
        cp_mirror(DIA, 0.0, PlateKind.CONDUCTING, NAT)
    with pytest.raises(ValueError):
        cp_mirror_diamagnetic_closed(-1.0, -2.0, PlateKind.CONDUCTING, NAT)
    with pytest.raises(ValueError):
        cp_mirror_diamagnetic_closed(0.5, 1.0, PlateKind.CONDUCTING, NAT)


# -- pair ---------------------------------------------------------------------


def test_dd_channel_matches_closed_form_everywhere():
    for l in np.geomspace(0.1, 100.0, 20):
        quad = vdw_pair(DIA, DIA, float(l), NAT).channels[Channel.DD]
        closed = vdw_asymptote(Channel.DD, DIA, DIA, float(l), Regime.RETARDED, NAT)
        assert quad == pytest.approx(closed, rel=1e-9)


def test_dd_natural_spot_value():
    value = vdw_pair(DIA, DIA, 1.0, NAT).channels[Channel.DD]
    assert value == pytest.approx(-23.0 / (64.0 * np.pi**3), rel=1e-9)
    assert value == pytest.approx(-1.1590e-2, abs=5e-7)


def test_pair_channels_absent_without_response():
    pot = vdw_pair(DIA, DIA, 1.0, NAT)
    for channel in PAIR_CHANNELS:
        if channel is not Channel.DD:
            assert pot.channels[channel] == 0.0
    assert pot.total == pot.channels[Channel.DD]


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
        forward = vdw_pair(COMPOSITE_A, COMPOSITE_B, l, NAT)
        backward = vdw_pair(COMPOSITE_B, COMPOSITE_A, l, NAT)
        for channel, partner in swapped.items():
            assert forward.channels[channel] == backward.channels[partner]
        assert forward.total == backward.total


def test_lenz_rule_flips_mixed_channel_signs():
    for l in np.geomspace(0.05, 50.0, 7):
        ep = vdw_pair(ELEC, PARA, float(l), NAT).channels[Channel.EP]
        ed = vdw_pair(ELEC, DIA, float(l), NAT).channels[Channel.ED]
        assert ep > 0.0
        assert ed < 0.0
        pp = vdw_pair(PARA, PARA, float(l), NAT).channels[Channel.PP]
        pd = vdw_pair(PARA, DIA, float(l), NAT).channels[Channel.PD]
        assert pp < 0.0
        assert pd > 0.0


def test_channel_sum_matches_unfactored_total():
    tight = QuadratureSpec(rel_tol=1e-13)
    for l in (0.5, 1.0, 2.2):
        split = vdw_pair(COMPOSITE_A, COMPOSITE_B, l, NAT, tight).total
        direct = vdw_pair_total_direct(COMPOSITE_A, COMPOSITE_B, l, NAT, tight)
        assert split == pytest.approx(direct, rel=1e-12)


@given(st.floats(min_value=0.2, max_value=20.0), st.floats(min_value=1.05, max_value=3.0))
def test_dd_attraction_strengthens_at_shorter_separation(l, factor):
    near = vdw_pair(DIA, DIA, l, NAT).channels[Channel.DD]
    far = vdw_pair(DIA, DIA, l * factor, NAT).channels[Channel.DD]
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
    assert curve.geometry == "mirror"
    assert curve.plate is PlateKind.CONDUCTING
    assert set(curve.values) == set(MIRROR_CHANNELS)
    single = cp_mirror(DIA, float(distances[2]), PlateKind.CONDUCTING, NAT)
    assert curve.values[Channel.D][2] == single.diamagnetic
    assert curve.total[2] == single.total


def test_pair_curve_matches_pointwise_evaluation():
    distances = np.geomspace(0.5, 2.0, 5)
    curve = pair_curve(COMPOSITE_A, COMPOSITE_B, distances, UnitSystem.NATURAL)
    assert curve.geometry == "free_pair"
    assert set(curve.values) == set(PAIR_CHANNELS)
    single = vdw_pair(COMPOSITE_A, COMPOSITE_B, float(distances[1]), NAT)
    for channel in PAIR_CHANNELS:
        assert curve.values[channel][1] == single.channels[channel]


def test_curve_validation():
    distances = np.array([1.0, 2.0, 3.0])
    values = {ch: np.zeros(3) for ch in MIRROR_CHANNELS}
    good = dict(
        geometry="mirror",
        plate=PlateKind.CONDUCTING,
        distances=distances,
        values=values,
        total=np.zeros(3),
        method="quadrature",
        units=UnitSystem.NATURAL,
        tolerances=QuadratureSpec(),
    )
    PotentialCurve(**good)
    with pytest.raises(ValueError):
        PotentialCurve(**{**good, "distances": np.array([2.0, 1.0, 3.0])})
    with pytest.raises(ValueError):
        PotentialCurve(**{**good, "total": np.ones(3)})
    with pytest.raises(ValueError):
        PotentialCurve(**{**good, "plate": None})
    bad_values = {ch: np.zeros(3) for ch in PAIR_CHANNELS}
    with pytest.raises(ValueError):
        PotentialCurve(**{**good, "values": bad_values})


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
    curve = PotentialCurve(
        geometry="mirror",
        plate=PlateKind.CONDUCTING,
        distances=distances,
        values=values,
        total=np.zeros(2),
        method="closed_form",
        units=UnitSystem.NATURAL,
        tolerances=QuadratureSpec(),
    )
    with pytest.raises(ValueError):
        force_from_curve(curve)


# -- the curve loop against the per-point reference ----------------------------
#
# The reference restates the per-point evaluation the curve loop replaced: one
# quadrature per channel and distance, with response ratios built from
# alpha_iso / beta_para_iso. The loop must reproduce it bit for bit.


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


def _reference_static(atom, letter, hbar):
    if letter == "e":
        return alpha_iso(atom, 0.0, hbar)
    if letter == "p":
        return beta_para_iso(atom, 0.0, hbar)
    return diamagnetisability(atom.diamagnetic)


def _reference_ratio(atom, letter, hbar):
    if letter == "d":
        return lambda xi: np.ones_like(np.asarray(xi, dtype=float))
    response = alpha_iso if letter == "e" else beta_para_iso
    static = response(atom, 0.0, hbar)
    return lambda xi: response(atom, xi, hbar) / static


def _reference_mirror(atom, letter, z, plate, consts, spec):
    static = _reference_static(atom, letter, consts.hbar)
    if static == 0.0:
        return 0.0
    ratio = _reference_ratio(atom, letter, consts.hbar)
    scale = consts.c / (2.0 * z)

    def integrand(x):
        return ratio(scale * x) * mirror_kernel(x)

    integral = integrate_semiinf(integrand, dataclasses.replace(spec, decay_scale=1.0)).value
    base = consts.hbar * consts.c / (32.0 * np.pi**2 * z**4)
    if letter == "e":
        return -plate.sign * base / consts.eps0 * static * integral
    return plate.sign * base * consts.mu0 * static * integral


def _reference_pair(channel, atom_a, atom_b, l, consts, spec):
    letter_a, letter_b = channel.value
    static_a = _reference_static(atom_a, letter_a, consts.hbar)
    static_b = _reference_static(atom_b, letter_b, consts.hbar)
    if static_a == 0.0 or static_b == 0.0:
        return 0.0
    scale = consts.c / l
    base = consts.hbar * consts.mu0**2 * consts.c / (16.0 * np.pi**3 * l**7)
    pair_spec = dataclasses.replace(spec, decay_scale=0.5)
    electric_sides = (letter_a == "e") + (letter_b == "e")
    if electric_sides != 1:
        ratio_a = _reference_ratio(atom_a, letter_a, consts.hbar)
        ratio_b = _reference_ratio(atom_b, letter_b, consts.hbar)

        def integrand(x):
            return ratio_a(scale * x) * ratio_b(scale * x) * pair_kernel_same(x)

        weight = consts.c**4 if electric_sides == 2 else 1.0
        prefactor = -base * weight * (static_a * static_b)
    else:
        if letter_a == "e":
            ratio_e = _reference_ratio(atom_a, letter_a, consts.hbar)
            ratio_m = _reference_ratio(atom_b, letter_b, consts.hbar)
        else:
            ratio_e = _reference_ratio(atom_b, letter_b, consts.hbar)
            ratio_m = _reference_ratio(atom_a, letter_a, consts.hbar)

        def integrand(x):
            return x**2 * (ratio_e(scale * x) * ratio_m(scale * x)) * pair_kernel_cross(x)

        prefactor = base * consts.c**2 * (static_a * static_b)
    return prefactor * integrate_semiinf(integrand, pair_spec).value


SEEDED = _seeded_atom()
BITWISE_GRID = np.geomspace(1e-2, 1e2, 5)


@pytest.mark.parametrize("atom", [COMPOSITE_A, SEEDED], ids=["composite", "seeded"])
@pytest.mark.parametrize("plate", list(PlateKind))
def test_mirror_curve_is_bitwise_the_per_point_reference(atom, plate):
    spec = QuadratureSpec()
    curve = mirror_curve(atom, BITWISE_GRID, plate, UnitSystem.NATURAL, spec)
    for i, z in enumerate(BITWISE_GRID.tolist()):
        expected = [
            _reference_mirror(atom, ch.value, z, plate, NAT, spec) for ch in MIRROR_CHANNELS
        ]
        point = cp_mirror(atom, z, plate, NAT, spec)
        assert [point.electric, point.paramagnetic, point.diamagnetic] == expected
        assert [curve.values[ch][i] for ch in MIRROR_CHANNELS] == expected


@pytest.mark.parametrize(
    "atom_a, atom_b",
    [(COMPOSITE_A, COMPOSITE_B), (SEEDED, SEEDED)],
    ids=["composite", "seeded-self"],
)
def test_pair_curve_is_bitwise_the_per_point_reference(atom_a, atom_b):
    spec = QuadratureSpec()
    curve = pair_curve(atom_a, atom_b, BITWISE_GRID, UnitSystem.NATURAL, spec)
    for i, l in enumerate(BITWISE_GRID.tolist()):
        expected = [_reference_pair(ch, atom_a, atom_b, l, NAT, spec) for ch in PAIR_CHANNELS]
        point = vdw_pair(atom_a, atom_b, l, NAT, spec)
        assert [point.channels[ch] for ch in PAIR_CHANNELS] == expected
        assert [curve.values[ch][i] for ch in PAIR_CHANNELS] == expected
    if atom_a is atom_b:
        for a, b in ((Channel.EP, Channel.PE), (Channel.ED, Channel.DE), (Channel.PD, Channel.DP)):
            assert np.array_equal(curve.values[a], curve.values[b])


def _count_columns(monkeypatch) -> list:
    """Records the column count of every integrate_columns call made by potentials."""
    columns = []
    real = vdwcp.potentials.integrate_columns

    def counting(f, n, spec):
        columns.append(n)
        return real(f, n, spec)

    monkeypatch.setattr(vdwcp.potentials, "integrate_columns", counting)
    return columns


def test_diamagnetic_moment_is_integrated_once_per_curve(monkeypatch):
    columns = _count_columns(monkeypatch)
    counts = []
    for _ in range(2):  # equal counts: nothing is cached between calls
        columns.clear()
        pair_curve(COMPOSITE_A, COMPOSITE_B, np.geomspace(1e-3, 1e3, 61), UnitSystem.NATURAL)
        pair = sum(columns)
        mirror_curve(
            COMPOSITE_A, np.geomspace(1e-2, 1e2, 40), PlateKind.CONDUCTING, UnitSystem.NATURAL
        )
        counts.append((pair, sum(columns) - pair))
    # eight distance-dependent pair channels plus dd once; e and p plus d once
    assert counts == [(8 * 61 + 1, 2 * 40 + 1)] * 2


# -- curves in lockstep against one-point runs ------------------------------------


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
        point = cp_mirror(atom, d, plate, NAT, spec)
        assert [mirror.values[ch][i] for ch in MIRROR_CHANNELS] == [
            point.electric,
            point.paramagnetic,
            point.diamagnetic,
        ]
        channels = vdw_pair(atom, partner, d, NAT, spec).channels
        assert [pair.values[ch][i] for ch in PAIR_CHANNELS] == [
            channels[ch] for ch in PAIR_CHANNELS
        ]


@pytest.mark.parametrize("electric", [1, 3, 4, 9, 30])
def test_response_tables_stay_within_the_term_bound(monkeypatch, electric):
    sums = []
    real = LorentzTable._sum

    def recording(self, xi, out):
        sums.append((len(self.weights), xi.size))
        return real(self, xi, out)

    monkeypatch.setattr(LorentzTable, "_sum", recording)
    atom = _seeded_atom(5, electric, 2)
    pair_curve(atom, atom, np.geomspace(0.05, 20.0, 11), UnitSystem.NATURAL)
    mirror_curve(atom, np.geomspace(0.05, 20.0, 11), PlateKind.CONDUCTING, UnitSystem.NATURAL)
    assert sums
    for transitions, abscissas in sums:
        assert transitions * abscissas <= max(transitions, LOCKSTEP_COLUMNS) * PANEL_NODES
        assert abscissas >= 2  # numpy adds the rows in order only for two or more


def test_batch_failure_is_the_lowest_distance_error(monkeypatch):
    # the kernel turns non-finite far out, so every distance fails; the curve
    # reports the failure of its first distance, as a one-point run does
    def broken(x):
        return np.where(x < 30.0, mirror_kernel(x), np.inf)

    monkeypatch.setattr(vdwcp.potentials, "mirror_kernel", broken)
    grid = np.geomspace(0.5, 2.0, 6)
    with pytest.raises(IntegrandError) as curve_error:
        mirror_curve(ELEC, grid, PlateKind.CONDUCTING, UnitSystem.NATURAL)
    with pytest.raises(IntegrandError) as point_error:
        cp_mirror(ELEC, float(grid[0]), PlateKind.CONDUCTING, NAT)
    assert curve_error.value.abscissa == point_error.value.abscissa
