"""Oracle battery: every closed form the engine claims, checked against an
independent route.

Each check recomputes a quantity two ways (scalar kernel vs brute tensor
algebra, adaptive quadrature vs closed form, channel split vs unfactored
integrand, reflection-coefficient q-integral vs closed mirror trace) and
passes only if they agree. The battery also adjudicates between the two
candidate prefactors of the diamagnetic mirror closed form, 1/(32 pi^2 z^4)
versus 1/(32 pi z^4), by letting the quadrature decide.

Each kernel moment is integrated once per run and shared by the checks that
use it; the two mirror diamagnetic checks share one curve per plate, and the
Lenz check reads its signs from the sign/power table.

Everything runs in natural units (hbar = c = eps0 = mu0 = 1) on fixture
atoms with O(1) responses, so relative tolerances are meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import PAIR_TABLE, REGIME_DEPTH, _FIXTURES, _TABLE_ATOM, _grid_around, _middle_slope
from .green import (
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
from .potentials import (
    MIRROR_D_MOMENT,
    PAIR_DD_MOMENT,
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

_NATURAL = constants_for(UnitSystem.NATURAL)


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
    """Brute 3x3 tensor products against the scalar traces at 100 random samples.

    The samples are drawn and evaluated in stacked blocks of 20. A block's
    tensors set the check's tracemalloc peak: 5.8 KB for blocks of one
    sample, 11.8 KB for 20, 24 KB for 50, 44 KB for 100; the rest of a verify
    request peaks at about 17 KB.
    """
    worst, block = 0.0, 20
    products = (
        (_free_tensor_mm, _free_tensor_mm, trace_gmm_gmm_free),
        (_free_tensor_me, _free_tensor_em, trace_gme_gem_free),
    )
    for _ in range(100 // block):
        c = rng.choice([1.0, 2.0], block)
        l = rng.uniform(0.2, 3.0, block)
        xi = rng.uniform(0.05, 5.0, block)
        l_vec = rng.normal(size=(block, 3))
        l_vec *= (l / np.linalg.norm(l_vec, axis=1))[:, None]
        for forward, backward, trace in products:
            brute = np.einsum("nij,nji->n", forward(l_vec, xi, c), backward(-l_vec, xi, c))
            worst = max(worst, _max_rel_dev(brute, trace(l, xi, c)))
    return CheckResult(
        name="free-tensor-traces",
        passed=worst <= 1e-12,
        detail=f"max rel dev {worst:.2e} over 100 random (l, xi) (tol 1e-12)",
    )


def _kernel_moments(spec: QuadratureSpec) -> tuple[float, float, float, float]:
    cases = (
        (mirror_kernel, 1.0),
        (pair_kernel_same, 0.5),
        (pair_kernel_cross, 0.5),
        (lambda x: np.asarray(x) ** 2 * pair_kernel_cross(x), 0.5),
    )
    return tuple(integrate_semiinf(f, spec, decay_scale=scale).value for f, scale in cases)


def _check_kernel_integrals(moments, tol: float) -> CheckResult:
    # the engine's own constants, so that a wrong one shows here and does not cancel from the ratios
    references = (MIRROR_D_MOMENT, PAIR_DD_MOMENT, 5.0 / 4.0, 7.0 / 4.0)
    dev = _max_rel_dev(moments, references)
    return CheckResult(
        name="kernel-moment-integrals",
        passed=dev <= tol,
        detail=(
            f"3, 23/4, 5/4, 7/4 moments reproduced, max rel dev {dev:.2e} (tol {tol:.0e})"
        ),
    )


def _check_q_integral(spec: QuadratureSpec, tol: float) -> CheckResult:
    cases = [(1.0, xi, plate, 1.0) for xi in np.geomspace(0.01, 10.0, 13).tolist() for plate in PlateKind]
    dev = _max_rel_dev(
        [mirror_gmm_trace_via_q_integral(*case, spec) for case in cases],
        [mirror_gmm_trace(*case) for case in cases],
    )
    return CheckResult(
        name="mirror-reflection-q-integral",
        passed=dev <= tol,
        detail=f"max rel dev {dev:.2e} for z xi/c in [0.01, 10] (tol {tol:.0e})",
    )


def _check_mirror_diamagnetic(ratio: float, tol: float) -> tuple[CheckResult, CheckResult]:
    # the quadrature route: a curve value times ratio, the quadrature's moment over the exact one, on
    # one curve per plate; the conducting value at z = 1 also adjudicates between the two prefactors
    atom, grid = _FIXTURES["d"], (0.5, 1.0, 2.0, 5.0)
    curves = (mirror_curve(atom, grid, plate, UnitSystem.NATURAL) for plate in PlateKind)
    quad = np.array([curve.values[Channel.D] for curve in curves]) * ratio
    closed = np.array(
        [[cp_mirror_diamagnetic_closed(-1.0, z, plate, _NATURAL) for z in grid] for plate in PlateKind]
    )
    worst = _max_rel_dev(quad, closed)
    # [0, 1] is the conducting plate at z = 1; times pi is the 1/(32 pi) variant
    dev_sq = _max_rel_dev(quad[0, 1], closed[0, 1])
    dev_single = _max_rel_dev(quad[0, 1], closed[0, 1] * np.pi)
    supported = dev_sq <= tol
    rejected = dev_single > 0.5
    single_verdict = (
        f"NOT SUPPORTED (deviates by factor π, rel dev {dev_single:.2e})"
        if rejected
        else "not excluded"
    )
    detail = (
        f"prefactor {SUPPORTED_PREFACTOR}: "
        f"{'SUPPORTED' if supported else 'NOT SUPPORTED'} (rel dev {dev_sq:.2e}); "
        f"prefactor {REJECTED_PREFACTOR}: {single_verdict}"
    )
    return (
        CheckResult(
            name="mirror-diamagnetic-closed-form",
            passed=worst <= tol,
            detail=f"max rel dev {worst:.2e} at z in (0.5, 1, 2, 5), both plates (tol {tol:.0e})",
        ),
        CheckResult(name="mirror-prefactor-adjudication", passed=supported and rejected, detail=detail),
    )


def _check_pair_dd(ratio: float, tol: float, rel_tol: float) -> CheckResult:
    atom = _FIXTURES["d"]
    grid = np.geomspace(0.1, 100.0, 20)
    values = pair_curve(atom, atom, grid, UnitSystem.NATURAL).values[Channel.DD] * ratio
    closed = [vdw_asymptote(Channel.DD, atom, atom, l, Regime.RETARDED, _NATURAL) for l in grid.tolist()]
    worst = _max_rel_dev(values, closed)
    spot = float(pair_curve(atom, atom, [1.0], UnitSystem.NATURAL).values[Channel.DD][0]) * ratio
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


def _asymptote_check(channel: Channel) -> CheckResult:
    """Slope and value of a pair channel against vdw_asymptote, per regime of its PAIR_TABLE cells.

    The cases are the channel's cells with a regime (not None), in table
    order. One curve of the channel's fixtures takes five points around each
    case's REGIME_DEPTH in turn; a case expects its cell's expected_power as
    the slope there.
    """
    cases = [entry for entry in PAIR_TABLE if entry.channel is channel and entry.regime is not None]
    centers = [REGIME_DEPTH[entry.regime] for entry in cases]
    atom_a, atom_b = [_FIXTURES[letter] for letter in channel.value]
    grid = np.concatenate([_grid_around(center) for center in centers])
    curve = pair_curve(atom_a, atom_b, grid, UnitSystem.NATURAL)
    values = curve.values[channel]
    problems = []
    summaries = []
    for i, (entry, center) in enumerate(zip(cases, centers)):
        slope = _middle_slope(curve.distances[5 * i : 5 * i + 5], values[5 * i : 5 * i + 5])
        value = float(values[5 * i + 2])
        reference = vdw_asymptote(channel, atom_a, atom_b, center, entry.regime, _NATURAL)
        value_dev = _max_rel_dev(value, reference)
        summaries.append(
            f"l={center:g}: slope {slope:.4f} (expect {entry.expected_power:g}), value dev {value_dev:.2e}"
        )
        if abs(slope - entry.expected_power) > 0.02:
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


_COMPOSITE = _composite_pair()


def _check_swap_symmetry() -> CheckResult:
    a, b = _COMPOSITE
    grid = (0.5, 1.0, 2.0)
    forward = pair_curve(a, b, grid, UnitSystem.NATURAL)
    backward = pair_curve(b, a, grid, UnitSystem.NATURAL)
    mismatches = []
    for i, l in enumerate(grid):
        for channel, values in forward.values.items():
            if values[i] != backward.values[Channel(channel.value[::-1])][i]:
                mismatches.append(f"{channel.value} at l={l:g}")
        if forward.total[i] != backward.total[i]:
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


def _check_lenz_flip() -> CheckResult:
    # ep, ed, pp, pd and dd against the sign of their PAIR_TABLE cells, on one self-pair curve of the
    # table fixture, whose channels are those of the single-response fixtures bit for bit (verify_tables)
    grid = np.geomspace(0.05, 50.0, 7)
    values = pair_curve(_TABLE_ATOM, _TABLE_ATOM, grid, UnitSystem.NATURAL).values
    signs = {entry.channel: entry.expected_sign for entry in PAIR_TABLE}  # a channel's cells share one sign
    problems = []
    for channel in (Channel.EP, Channel.ED, Channel.PP, Channel.PD, Channel.DD):
        for l, u in zip(grid, values[channel]):
            if np.sign(u) != signs[channel]:
                problems.append(f"{channel.value} at l={l:.3g} (expected sign {signs[channel]:+d})")
    return CheckResult(
        name="lenz-sign-flips",
        passed=not problems,
        detail=(
            "replacing a paramagnetic partner by a diamagnetic one flips every mixed-channel sign"
            if not problems
            else "sign not as tabled: " + ", ".join(problems)
        ),
    )


def _check_additivity() -> CheckResult:
    a, b = _COMPOSITE
    tight = QuadratureSpec(rel_tol=1e-13)
    grid = (0.5, 1.0, 2.2)
    split = pair_curve(a, b, grid, UnitSystem.NATURAL).total
    worst = _max_rel_dev(split, [vdw_pair_total_direct(a, b, l, _NATURAL, tight) for l in grid])
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

    moments = _kernel_moments(spec)
    mirror_ratio = moments[0] / MIRROR_D_MOMENT
    rng = np.random.default_rng(_RNG_SEED)
    checks = (
        _check_kernel_identities(rng),
        _check_tensor_traces(rng),
        _check_kernel_integrals(moments, integral_tol),
        _check_q_integral(spec, q_tol),
        *_check_mirror_diamagnetic(mirror_ratio, closed_tol),
        _check_pair_dd(moments[1] / PAIR_DD_MOMENT, closed_tol, rel_tol),
        _asymptote_check(Channel.ED),
        _asymptote_check(Channel.DP),
        _check_swap_symmetry(),
        _check_lenz_flip(),
        _check_additivity(),
    )
    return SelftestReport(rel_tol=rel_tol, checks=checks)
