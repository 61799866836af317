"""Oracle battery: every closed form the engine claims, checked against an
independent route.

Each check recomputes a quantity two ways (scalar kernel vs brute tensor
algebra, adaptive quadrature vs closed form, channel split vs unfactored
integrand, reflection-coefficient q-integral vs closed mirror trace) and
passes only if they agree. The battery also adjudicates between the two
candidate prefactors of the diamagnetic mirror closed form, 1/(32 pi^2 z^4)
versus 1/(32 pi z^4), by letting the quadrature decide.

Everything runs in natural units (hbar = c = eps0 = mu0 = 1) on fixture
atoms with O(1) responses, so relative tolerances are meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import _grid_around, default_fixtures, local_log_slope
from .green import (
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
from .potentials import (
    Channel,
    Regime,
    cp_mirror_diamagnetic_closed,
    mirror_curve,
    pair_curve,
    vdw_asymptote,
    vdw_pair_total_direct,
)
from .quad import QuadratureSpec, integrate_semiinf
from .response import ELECTRIC, MAGNETIC, AtomModel, DiamagneticSpec, Transition
from .units import UnitSystem, constants_for

_RNG_SEED = 20260816

# Reference value of the dd pair potential at l = 1 for unit diamagnetic
# responses, -23/(64 pi^3), quoted to the precision used in reports.
DD_SPOT_REFERENCE = -1.1590e-2

SUPPORTED_PREFACTOR = "1/(32π²z⁴)"
REJECTED_PREFACTOR = "1/(32πz⁴)"


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


@dataclass(frozen=True, slots=True)
class SelftestReport:
    rel_tol: float
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        out = [check.line() for check in self.checks]
        failed = sum(1 for check in self.checks if not check.passed)
        if failed:
            out.append(f"{failed} of {len(self.checks)} checks FAILED")
        else:
            out.append(f"all {len(self.checks)} checks passed")
        return out

    def as_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _max_rel_dev(values, references) -> float:
    values = np.asarray(values, dtype=float)
    references = np.asarray(references, dtype=float)
    return float(np.max(np.abs(values / references - 1.0)))


def _check_kernel_identities(rng) -> CheckResult:
    x = rng.uniform(0.0, 8.0, size=100)
    f, g = fg(x)
    same_ref = 0.5 * (3.0 * f * f - 2.0 * f * g + g * g) * np.exp(-2.0 * x)
    cross_ref = (1.0 + 2.0 * x + x * x) * np.exp(-2.0 * x)
    dev = max(
        _max_rel_dev(pair_kernel_same(x), same_ref),
        _max_rel_dev(pair_kernel_cross(x), cross_ref),
    )
    return CheckResult(
        name="pair-kernel-identities",
        passed=dev <= 1e-12,
        detail=f"max rel dev {dev:.2e} over 100 random x (tol 1e-12)",
    )


def _check_tensor_traces(rng) -> CheckResult:
    worst = 0.0
    for _ in range(100):
        c = float(rng.choice([1.0, 2.0]))
        l = float(rng.uniform(0.2, 3.0))
        xi = float(rng.uniform(0.05, 5.0))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        l_vec = l * direction

        brute_mm = np.trace(
            _free_tensor_mm(l_vec, xi, c) @ _free_tensor_mm(-l_vec, xi, c)
        )
        brute_cross = np.trace(
            _free_tensor_me(l_vec, xi, c) @ _free_tensor_em(-l_vec, xi, c)
        )
        worst = max(
            worst,
            _max_rel_dev(brute_mm, trace_gmm_gmm_free(l, xi, c)),
            _max_rel_dev(brute_cross, trace_gme_gem_free(l, xi, c)),
        )
    return CheckResult(
        name="free-tensor-traces",
        passed=worst <= 1e-12,
        detail=f"max rel dev {worst:.2e} over 100 random (l, xi) (tol 1e-12)",
    )


def _check_kernel_integrals(spec: QuadratureSpec, tol: float) -> CheckResult:
    cases = (
        ("same", pair_kernel_same, 23.0 / 4.0),
        ("cross", pair_kernel_cross, 5.0 / 4.0),
        ("x^2 cross", lambda x: np.asarray(x) ** 2 * pair_kernel_cross(x), 7.0 / 4.0),
    )
    devs = [
        _max_rel_dev(integrate_semiinf(f, spec, decay_scale=0.5).value, ref)
        for _, f, ref in cases
    ]
    dev = max(devs)
    return CheckResult(
        name="kernel-moment-integrals",
        passed=dev <= tol,
        detail=(
            f"23/4, 5/4, 7/4 moments reproduced, max rel dev {dev:.2e} (tol {tol:.0e})"
        ),
    )


def _check_q_integral(spec: QuadratureSpec, tol: float) -> CheckResult:
    worst = 0.0
    z, c = 1.0, 1.0
    for xi in np.geomspace(0.01, 10.0, 13):
        for plate in PlateKind:
            via_q = mirror_gmm_trace_via_q_integral(z, float(xi), plate, c, spec)
            closed = mirror_gmm_trace(z, float(xi), plate, c)
            worst = max(worst, _max_rel_dev(via_q, closed))
    return CheckResult(
        name="mirror-reflection-q-integral",
        passed=worst <= tol,
        detail=f"max rel dev {worst:.2e} for z xi/c in [0.01, 10] (tol {tol:.0e})",
    )


def _check_mirror_diamagnetic(spec: QuadratureSpec, tol: float) -> CheckResult:
    consts = constants_for(UnitSystem.NATURAL)
    atom = default_fixtures()["d"]
    worst = 0.0
    for z in (0.5, 1.0, 2.0, 5.0):
        for plate in PlateKind:
            quad = mirror_curve(atom, [z], plate, UnitSystem.NATURAL, spec).values[Channel.D][0]
            closed = cp_mirror_diamagnetic_closed(-1.0, z, plate, consts)
            worst = max(worst, _max_rel_dev(quad, closed))
    return CheckResult(
        name="mirror-diamagnetic-closed-form",
        passed=worst <= tol,
        detail=f"max rel dev {worst:.2e} at z in (0.5, 1, 2, 5), both plates (tol {tol:.0e})",
    )


def _check_prefactor_adjudication(spec: QuadratureSpec, tol: float) -> CheckResult:
    consts = constants_for(UnitSystem.NATURAL)
    atom = default_fixtures()["d"]
    curve = mirror_curve(atom, [1.0], PlateKind.CONDUCTING, UnitSystem.NATURAL, spec)
    quad = curve.values[Channel.D][0]
    candidate_sq = cp_mirror_diamagnetic_closed(-1.0, 1.0, PlateKind.CONDUCTING, consts)
    candidate_single = candidate_sq * np.pi  # the 1/(32 pi) variant
    dev_sq = _max_rel_dev(quad, candidate_sq)
    dev_single = _max_rel_dev(quad, candidate_single)
    supported = dev_sq <= tol
    rejected = dev_single > 0.5
    pi_char = "π"
    single_verdict = (
        f"NOT SUPPORTED (deviates by factor {pi_char}, rel dev {dev_single:.2e})"
        if rejected
        else "not excluded"
    )
    detail = (
        f"prefactor {SUPPORTED_PREFACTOR}: "
        f"{'SUPPORTED' if supported else 'NOT SUPPORTED'} (rel dev {dev_sq:.2e}); "
        f"prefactor {REJECTED_PREFACTOR}: {single_verdict}"
    )
    return CheckResult(
        name="mirror-prefactor-adjudication",
        passed=supported and rejected,
        detail=detail,
    )


def _check_pair_dd(spec: QuadratureSpec, tol: float, rel_tol: float) -> CheckResult:
    consts = constants_for(UnitSystem.NATURAL)
    atom = default_fixtures()["d"]
    worst = 0.0
    for l in np.geomspace(0.1, 100.0, 20):
        quad = pair_curve(atom, atom, [l], UnitSystem.NATURAL, spec).values[Channel.DD][0]
        closed = vdw_asymptote(Channel.DD, atom, atom, float(l), Regime.RETARDED, consts)
        worst = max(worst, _max_rel_dev(quad, closed))
    spot = float(pair_curve(atom, atom, [1.0], UnitSystem.NATURAL, spec).values[Channel.DD][0])
    spot_tol = max(5e-7, 10.0 * rel_tol * abs(DD_SPOT_REFERENCE))
    spot_ok = abs(spot - DD_SPOT_REFERENCE) <= spot_tol
    passed = worst <= tol and spot_ok
    return CheckResult(
        name="pair-dd-closed-form",
        passed=passed,
        detail=(
            f"max rel dev {worst:.2e} over 20 points, l in [0.1, 100] (tol {tol:.0e}); "
            f"spot U(1) = {spot:.5e} vs {DD_SPOT_REFERENCE:.4e}"
        ),
    )


def _asymptote_check(
    channel: Channel,
    cases: tuple[tuple[float, Regime, float], ...],
    spec: QuadratureSpec,
) -> CheckResult:
    consts = constants_for(UnitSystem.NATURAL)
    atom_a, atom_b = [default_fixtures()[letter] for letter in channel.value]
    problems = []
    summaries = []
    for center, regime, expected_slope in cases:
        grid = _grid_around(center)
        curve = pair_curve(atom_a, atom_b, grid, UnitSystem.NATURAL, spec)
        profile = local_log_slope(curve, channel)
        slope = float(profile.exponent[profile.exponent.size // 2])
        value = float(curve.values[channel][2])
        reference = vdw_asymptote(channel, atom_a, atom_b, center, regime, consts)
        value_dev = _max_rel_dev(value, reference)
        summaries.append(
            f"l={center:g}: slope {slope:.4f} (expect {expected_slope:g}), value dev {value_dev:.2e}"
        )
        if abs(slope - expected_slope) > 0.02:
            problems.append(f"slope at l={center:g} off by more than 0.02")
        if value_dev > 0.01:
            problems.append(f"value at l={center:g} off closed form by more than 1%")
    return CheckResult(
        name=f"pair-{channel.value}-asymptotes",
        passed=not problems,
        detail="; ".join(summaries + problems),
    )


def _composite_pair() -> tuple[AtomModel, AtomModel]:
    a = AtomModel(
        label="composite-a",
        electric_transitions=(Transition(omega=1.0, dipole_sq=1.0, kind=ELECTRIC),),
        magnetic_transitions=(Transition(omega=1.4, dipole_sq=0.7, kind=MAGNETIC),),
        diamagnetic=DiamagneticSpec(direct_beta_d=-0.3),
    )
    b = AtomModel(
        label="composite-b",
        electric_transitions=(Transition(omega=1.3, dipole_sq=0.8, kind=ELECTRIC),),
        magnetic_transitions=(Transition(omega=0.9, dipole_sq=0.5, kind=MAGNETIC),),
        diamagnetic=DiamagneticSpec(direct_beta_d=-0.9),
    )
    return a, b


_SWAPPED = {
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


def _pair_point(atom_a: AtomModel, atom_b: AtomModel, l: float, spec: QuadratureSpec):
    """Channel values and total of a one-point pair curve, without the curve.

    Holding two curves at once instead raised the battery's memory peak by 8%.
    """
    curve = pair_curve(atom_a, atom_b, [l], UnitSystem.NATURAL, spec)
    return {ch: values[0] for ch, values in curve.values.items()}, curve.total[0]


def _check_swap_symmetry(spec: QuadratureSpec) -> CheckResult:
    a, b = _composite_pair()
    mismatches = []
    for l in (0.5, 1.0, 2.0):
        forward, forward_total = _pair_point(a, b, l, spec)
        backward, backward_total = _pair_point(b, a, l, spec)
        for channel, partner in _SWAPPED.items():
            if forward[channel] != backward[partner]:
                mismatches.append(f"{channel.value} at l={l:g}")
        if forward_total != backward_total:
            mismatches.append(f"total at l={l:g}")
    return CheckResult(
        name="pair-swap-symmetry",
        passed=not mismatches,
        detail=(
            "all nine channels byte-identical under atom swap"
            if not mismatches
            else "not byte-identical: " + ", ".join(mismatches)
        ),
    )


def _check_lenz_flip(spec: QuadratureSpec) -> CheckResult:
    fixtures = default_fixtures()
    e, p, d = fixtures["e"], fixtures["p"], fixtures["d"]
    grid = np.geomspace(0.05, 50.0, 7)
    comparisons = (
        ("ep vs ed", (e, p, Channel.EP), (e, d, Channel.ED)),
        ("pp vs pd", (p, p, Channel.PP), (p, d, Channel.PD)),
        ("pd vs dd", (p, d, Channel.PD), (d, d, Channel.DD)),
    )
    problems = []
    for label, (a1, b1, ch1), (a2, b2, ch2) in comparisons:
        for l in grid:
            u1 = pair_curve(a1, b1, [l], UnitSystem.NATURAL, spec).values[ch1][0]
            u2 = pair_curve(a2, b2, [l], UnitSystem.NATURAL, spec).values[ch2][0]
            if not (u1 != 0.0 and u2 != 0.0 and np.sign(u1) == -np.sign(u2)):
                problems.append(f"{label} at l={l:.3g}")
    return CheckResult(
        name="lenz-sign-flips",
        passed=not problems,
        detail=(
            "replacing a paramagnetic partner by a diamagnetic one flips every mixed-channel sign"
            if not problems
            else "no sign flip: " + ", ".join(problems)
        ),
    )


def _check_additivity() -> CheckResult:
    consts = constants_for(UnitSystem.NATURAL)
    a, b = _composite_pair()
    tight = QuadratureSpec(rel_tol=1e-13)
    worst = 0.0
    for l in (0.5, 1.0, 2.2):
        split = pair_curve(a, b, [l], UnitSystem.NATURAL, tight).total[0]
        direct = vdw_pair_total_direct(a, b, l, consts, tight)
        worst = max(worst, _max_rel_dev(split, direct))
    return CheckResult(
        name="channel-additivity",
        passed=worst <= 1e-12,
        detail=f"channel sum vs unfactored total, max rel dev {worst:.2e} (tol 1e-12)",
    )


def run_selftest(rel_tol: float = 1e-10) -> SelftestReport:
    """Run the full oracle battery at the given quadrature tolerance.

    Closed-form agreement thresholds scale with rel_tol (never below their
    defaults), so a loosened tolerance still yields a passing, if coarser,
    battery. Raises ValueError for rel_tol outside the quadrature's accepted
    range.
    """
    spec = QuadratureSpec(rel_tol=rel_tol)
    closed_tol = max(1e-9, 10.0 * rel_tol)
    q_tol = max(1e-8, 10.0 * rel_tol)
    integral_tol = max(1e-11, 10.0 * rel_tol)

    rng = np.random.default_rng(_RNG_SEED)
    checks = (
        _check_kernel_identities(rng),
        _check_tensor_traces(rng),
        _check_kernel_integrals(spec, integral_tol),
        _check_q_integral(spec, q_tol),
        _check_mirror_diamagnetic(spec, closed_tol),
        _check_prefactor_adjudication(spec, closed_tol),
        _check_pair_dd(spec, closed_tol, rel_tol),
        _asymptote_check(
            Channel.ED, ((1e-3, Regime.NONRETARDED, -5.0), (1e3, Regime.RETARDED, -7.0)), spec
        ),
        _asymptote_check(
            Channel.DP, ((1e-3, Regime.NONRETARDED, -6.0), (1e3, Regime.RETARDED, -7.0)), spec
        ),
        _check_swap_symmetry(spec),
        _check_lenz_flip(spec),
        _check_additivity(),
    )
    return SelftestReport(rel_tol=rel_tol, checks=checks)
