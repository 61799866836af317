"""Acceptance gate: one test per headline guarantee, each printing a verdict.

Every test computes its own reference (closed form, independent oracle or
exact identity), checks the stated tolerance and runtime budget, and records
a PASS/FAIL line through the acceptance_log fixture so the terminal summary
shows the whole gate at a glance.
"""
from time import perf_counter

import numpy as np

from vdwcp.asymptotics import local_log_slope, verify_tables
from vdwcp.green import (
    PlateKind,
    _free_tensor_em,
    _free_tensor_me,
    _free_tensor_mm,
    fg,
    mirror_gmm_trace,
    mirror_gmm_trace_via_q_integral,
    pair_kernel_cross,
    pair_kernel_same,
    trace_gme_gem_free,
    trace_gmm_gmm_free,
)
from vdwcp.potentials import (
    Channel,
    Regime,
    cp_mirror_diamagnetic_closed,
    mirror_curve,
    pair_curve,
    vdw_asymptote,
    vdw_pair_total_direct,
)
from vdwcp.quad import QuadratureSpec, integrate_semiinf
from vdwcp.response import ELECTRIC, MAGNETIC, AtomModel, DiamagneticSpec, Transition
from vdwcp.selftest import run_selftest
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


def _mid_slope(atom_a, atom_b, channel, center):
    grid = center * 1.02 ** np.arange(-2.0, 3.0)
    curve = pair_curve(atom_a, atom_b, grid, UnitSystem.NATURAL)
    profile = local_log_slope(curve, channel)
    return float(profile.exponent[1])


def test_mirror_diamagnetic_quartic_law_and_prefactor_adjudication(acceptance_log):
    start = perf_counter()
    worst = 0.0
    for z in (0.5, 1.0, 2.0, 5.0):
        for plate in PlateKind:
            quad = mirror_curve(DIA, [z], plate, UnitSystem.NATURAL).values[Channel.D][0]
            closed = cp_mirror_diamagnetic_closed(-1.0, z, plate, NAT)
            worst = max(worst, abs(quad - closed) / abs(closed))
    report = run_selftest()
    adjudication = next(
        c for c in report.checks if c.name == "mirror-prefactor-adjudication"
    )
    elapsed = perf_counter() - start
    ok = (
        worst <= 1e-9
        and adjudication.passed
        and "1/(32π²z⁴): SUPPORTED" in adjudication.detail
        and "1/(32πz⁴): NOT SUPPORTED (deviates by factor π" in adjudication.detail
        and elapsed < 1.0
    )
    detail = f"max rel dev {worst:.2e}, adjudication recorded, {elapsed:.2f}s"
    acceptance_log("mirror diamagnetic closed form + prefactor verdict", ok, detail)
    assert ok, detail


def test_diamagnetic_pair_closed_form_across_three_decades(acceptance_log):
    start = perf_counter()
    worst = 0.0
    for l in np.geomspace(0.1, 100.0, 20):
        quad = pair_curve(DIA, DIA, [l], UnitSystem.NATURAL).values[Channel.DD][0]
        closed = vdw_asymptote(Channel.DD, DIA, DIA, float(l), Regime.RETARDED, NAT)
        worst = max(worst, abs(quad - closed) / abs(closed))
    spot = pair_curve(DIA, DIA, [1.0], UnitSystem.NATURAL).values[Channel.DD][0]
    spot_dev = abs(spot - (-1.1590e-2))
    elapsed = perf_counter() - start
    ok = worst <= 1e-9 and spot_dev <= 5e-7 and elapsed < 1.0
    detail = (
        f"max rel dev {worst:.2e} over 20 points, "
        f"U(1) = {spot:.6e} vs -1.1590e-2, {elapsed:.2f}s"
    )
    acceptance_log("diamagnetic pair inverse-seventh law", ok, detail)
    assert ok, detail


def test_electric_diamagnetic_crossover_slopes_and_limits(acceptance_log):
    start = perf_counter()
    slope_near = _mid_slope(ELEC, DIA, Channel.ED, 1e-3)
    slope_far = _mid_slope(ELEC, DIA, Channel.ED, 1e3)
    limits = pair_curve(ELEC, DIA, [1e-3, 1e3], UnitSystem.NATURAL)
    value_near, value_far = limits.values[Channel.ED]
    ref_near = vdw_asymptote(Channel.ED, ELEC, DIA, 1e-3, Regime.NONRETARDED, NAT)
    ref_far = vdw_asymptote(Channel.ED, ELEC, DIA, 1e3, Regime.RETARDED, NAT)
    dev_near = abs(value_near - ref_near) / abs(ref_near)
    dev_far = abs(value_far - ref_far) / abs(ref_far)
    elapsed = perf_counter() - start
    ok = (
        abs(slope_near + 5.0) <= 0.02
        and abs(slope_far + 7.0) <= 0.02
        and dev_near <= 1e-2
        and dev_far <= 1e-2
        and elapsed < 5.0
    )
    detail = (
        f"slopes {slope_near:.4f}/{slope_far:.4f} vs -5/-7, "
        f"limit devs {dev_near:.2e}/{dev_far:.2e}, {elapsed:.2f}s"
    )
    acceptance_log("electric-diamagnetic retardation crossover", ok, detail)
    assert ok, detail


def test_paramagnetic_diamagnetic_crossover_slopes_and_limits(acceptance_log):
    start = perf_counter()
    slope_near = _mid_slope(PARA, DIA, Channel.PD, 1e-3)
    slope_far = _mid_slope(PARA, DIA, Channel.PD, 1e3)
    limits = pair_curve(PARA, DIA, [1e-3, 1e3], UnitSystem.NATURAL)
    value_near, value_far = limits.values[Channel.PD]
    ref_near = vdw_asymptote(Channel.PD, PARA, DIA, 1e-3, Regime.NONRETARDED, NAT)
    ref_far = vdw_asymptote(Channel.PD, PARA, DIA, 1e3, Regime.RETARDED, NAT)
    dev_near = abs(value_near - ref_near) / abs(ref_near)
    dev_far = abs(value_far - ref_far) / abs(ref_far)
    elapsed = perf_counter() - start
    ok = (
        abs(slope_near + 6.0) <= 0.02
        and abs(slope_far + 7.0) <= 0.02
        and value_near > 0.0
        and value_far > 0.0
        and dev_near <= 1e-2
        and dev_far <= 1e-2
        and elapsed < 5.0
    )
    detail = (
        f"slopes {slope_near:.4f}/{slope_far:.4f} vs -6/-7, repulsive, "
        f"limit devs {dev_near:.2e}/{dev_far:.2e}, {elapsed:.2f}s"
    )
    acceptance_log("paramagnetic-diamagnetic retardation crossover", ok, detail)
    assert ok, detail


def test_sign_and_power_table_fully_verified(acceptance_log):
    start = perf_counter()
    report = verify_tables()
    elapsed = perf_counter() - start
    failed = [cell for cell in report.cells if not cell.passed]
    ok = report.all_passed and len(report.cells) == 23 and elapsed < 30.0
    detail = (
        f"{len(report.cells) - len(failed)}/{len(report.cells)} cells, {elapsed:.2f}s"
    )
    if failed:
        detail += "; failing: " + ", ".join(
            f"{c.entry.channel.value}/{c.as_dict()['regime']}" for c in failed
        )
    acceptance_log("sign and power table (mirror + pair)", ok, detail)
    assert ok, detail


def test_kernel_identities_traces_and_moment_integrals(acceptance_log):
    start = perf_counter()
    rng = np.random.default_rng(418)
    xs = rng.uniform(0.0, 8.0, size=100)
    f, g = fg(xs)
    same_dev = np.max(
        np.abs(pair_kernel_same(xs) - 0.5 * (3 * f**2 - 2 * f * g + g**2) * np.exp(-2 * xs))
    )
    cross_dev = np.max(np.abs(pair_kernel_cross(xs) - (1 + xs) ** 2 * np.exp(-2 * xs)))

    trace_dev = 0.0
    for _ in range(100):
        c = float(rng.choice([1.0, 2.0]))
        l = float(rng.uniform(0.2, 3.0))
        xi = float(rng.uniform(0.05, 5.0))
        direction = rng.normal(size=3)
        l_vec = l * direction / np.linalg.norm(direction)
        brute_mm = np.trace(_free_tensor_mm(l_vec, xi, c) @ _free_tensor_mm(-l_vec, xi, c))
        brute_me = np.trace(_free_tensor_me(l_vec, xi, c) @ _free_tensor_em(-l_vec, xi, c))
        closed_mm = trace_gmm_gmm_free(l, xi, c)
        closed_me = trace_gme_gem_free(l, xi, c)
        trace_dev = max(trace_dev, abs(brute_mm - closed_mm) / abs(closed_mm))
        trace_dev = max(trace_dev, abs(brute_me - closed_me) / abs(closed_me))

    moments = (
        (pair_kernel_same, 23.0 / 4.0),
        (pair_kernel_cross, 5.0 / 4.0),
        (lambda x: x**2 * pair_kernel_cross(x), 7.0 / 4.0),
    )
    moment_dev = max(
        abs(integrate_semiinf(kernel, decay_scale=0.5).value - want) / want for kernel, want in moments
    )
    elapsed = perf_counter() - start
    ok = same_dev <= 1e-12 and cross_dev <= 1e-12 and trace_dev <= 1e-12 and moment_dev <= 1e-9
    detail = (
        f"kernel ids {max(same_dev, cross_dev):.1e}, traces {trace_dev:.1e}, "
        f"moments 23/4, 5/4, 7/4 to {moment_dev:.1e}, {elapsed:.2f}s"
    )
    acceptance_log("kernel identities, tensor traces, moment integrals", ok, detail)
    assert ok, detail


def test_structural_invariants_symmetry_lenz_additivity_qoracle(acceptance_log):
    start = perf_counter()
    grid = np.geomspace(0.3, 5.0, 5)
    forward = pair_curve(COMPOSITE_A, COMPOSITE_B, grid, UnitSystem.NATURAL)
    backward = pair_curve(COMPOSITE_B, COMPOSITE_A, grid, UnitSystem.NATURAL)
    swapped = {
        Channel.EE: Channel.EE, Channel.PP: Channel.PP, Channel.DD: Channel.DD,
        Channel.EP: Channel.PE, Channel.PE: Channel.EP,
        Channel.ED: Channel.DE, Channel.DE: Channel.ED,
        Channel.PD: Channel.DP, Channel.DP: Channel.PD,
    }
    symmetric = all(
        np.array_equal(forward.values[ch], backward.values[swapped[ch]])
        for ch in swapped
    ) and np.array_equal(forward.total, backward.total)

    lenz = True
    for l in np.geomspace(0.05, 50.0, 7):
        para = pair_curve(ELEC, PARA, [l], UnitSystem.NATURAL).values[Channel.EP][0]
        dia = pair_curve(ELEC, DIA, [l], UnitSystem.NATURAL).values[Channel.ED][0]
        lenz = lenz and para > 0.0 > dia
        para_pp = pair_curve(PARA, PARA, [l], UnitSystem.NATURAL).values[Channel.PP][0]
        dia_pd = pair_curve(PARA, DIA, [l], UnitSystem.NATURAL).values[Channel.PD][0]
        lenz = lenz and para_pp < 0.0 < dia_pd

    tight = QuadratureSpec(rel_tol=1e-13)
    additivity = 0.0
    for l in (0.5, 1.0, 2.2):
        split = pair_curve(COMPOSITE_A, COMPOSITE_B, [l], UnitSystem.NATURAL, tight).total[0]
        direct = vdw_pair_total_direct(COMPOSITE_A, COMPOSITE_B, l, NAT, tight)
        additivity = max(additivity, abs(split - direct) / abs(direct))

    q_dev = 0.0
    for xi in np.geomspace(0.01, 10.0, 13):
        for plate in PlateKind:
            closed = mirror_gmm_trace(1.0, float(xi), plate, c=1.0)
            oracle = mirror_gmm_trace_via_q_integral(1.0, float(xi), plate, c=1.0)
            q_dev = max(q_dev, abs(closed - oracle) / abs(closed))

    elapsed = perf_counter() - start
    ok = symmetric and lenz and additivity <= 1e-12 and q_dev <= 1e-8
    detail = (
        f"swap bitwise {'ok' if symmetric else 'BROKEN'}, "
        f"Lenz flips {'ok' if lenz else 'BROKEN'}, "
        f"additivity {additivity:.1e}, q-oracle {q_dev:.1e}, {elapsed:.2f}s"
    )
    acceptance_log("exchange symmetry, Lenz signs, additivity, q-oracle", ok, detail)
    assert ok, detail
