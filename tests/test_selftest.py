"""The oracle battery's own work per run, and the messages of its failing checks."""
import numpy as np
import pytest

import vdwcp.asymptotics
import vdwcp.green
import vdwcp.potentials
import vdwcp.quad
import vdwcp.selftest
from vdwcp.asymptotics import _TABLE_ATOM
from vdwcp.potentials import Channel
from vdwcp.selftest import run_selftest


def _counting(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(vdwcp.selftest, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(vdwcp.selftest, name, counted)
    return calls


def test_battery_integrates_each_kernel_moment_once(monkeypatch):
    quadratures = _counting(monkeypatch, "integrate_semiinf")
    pair_curves = _counting(monkeypatch, "pair_curve")
    mirror_curves = _counting(monkeypatch, "mirror_curve")
    report = run_selftest()
    assert report.all_passed
    # four kernel moments; the q-integral and the unfactored total integrate in their own modules
    assert len(quadratures) == 4
    # pair-dd: one 20-point curve and its spot point; asymptotes: one 10-point curve per channel;
    # swap: two 3-point curves; Lenz: one 7-point curve of the table fixture; additivity: one 3-point curve
    assert len(pair_curves) == 8
    # the mirror d law and the prefactor adjudication: one 4-point curve per plate
    assert len(mirror_curves) == 2


def test_verify_takes_33_quadratures_of_two_integrand_calls_each(monkeypatch):
    # 4 kernel moments, 26 q-integral points and 3 unfactored totals, each met at level 0: the half
    # rule's 66 nodes and level 0's 65
    quadratures = []
    original = vdwcp.quad.integrate_semiinf

    def counted(f, *args, **kwargs):
        calls = []
        result = original(lambda x: calls.append(x.size) or f(x), *args, **kwargs)
        quadratures.append((calls, result.evaluations))
        return result

    for module in (vdwcp.green, vdwcp.potentials, vdwcp.selftest):
        monkeypatch.setattr(module, "integrate_semiinf", counted)
    assert vdwcp.asymptotics.verify_tables().all_passed
    assert run_selftest(1e-10).all_passed
    assert len(quadratures) == 33
    assert sum(len(calls) for calls, _ in quadratures) == 66
    assert sum(evaluations for _, evaluations in quadratures) == 4_323
    assert all(calls == [66, 65] for calls, _ in quadratures)


@pytest.mark.parametrize("rel_tol", [1e-13, 1e-10, 1e-6, 1e-2])
def test_battery_passes_all_twelve_checks_across_the_tolerance_range(rel_tol):
    report = run_selftest(rel_tol)
    assert len(report.checks) == 12 and report.all_passed


def test_verify_builds_no_atom_and_no_natural_constants(monkeypatch):
    # the fixtures, the table atom, the composite pair and the selftest's constants are built once, at import
    import vdwcp.asymptotics
    from vdwcp.response import AtomModel

    built = _counting(monkeypatch, "constants_for")
    original = AtomModel.__post_init__
    monkeypatch.setattr(AtomModel, "__post_init__", lambda self: built.append(self.label) or original(self))
    assert vdwcp.asymptotics.verify_tables().all_passed
    assert run_selftest().all_passed
    assert built == []


def _perturbing(monkeypatch, atom_a, channel, distance, change):
    """The selftest's pair_curve, with change applied to the channel at distance on curves whose first atom is atom_a."""
    original = vdwcp.selftest.pair_curve

    def perturbed(a, b, *args, **kwargs):
        curve = original(a, b, *args, **kwargs)
        if a is atom_a:
            at = curve.distances == distance
            curve.values[channel][at] = change(curve.values[channel][at])
        return curve

    monkeypatch.setattr(vdwcp.selftest, "pair_curve", perturbed)


def test_swap_check_names_each_value_that_differs(monkeypatch):
    # one ulp in pe of the swapped pair at l = 1; the totals keep their bits
    _perturbing(monkeypatch, vdwcp.selftest._COMPOSITE[1], Channel.PE, 1.0, lambda u: np.nextafter(u, np.inf))
    check = vdwcp.selftest._check_swap_symmetry()
    assert not check.passed
    assert check.detail == "not byte-identical: ep at l=1"


def test_lenz_check_names_each_separation_without_a_flip(monkeypatch):
    # dd of the table fixture's self-pair with its sign turned at the fourth of seven separations
    _perturbing(monkeypatch, _TABLE_ATOM, Channel.DD, np.geomspace(0.05, 50.0, 7)[3], lambda u: -u)
    check = vdwcp.selftest._check_lenz_flip()
    assert not check.passed
    assert check.detail == "sign not as tabled: dd at l=1.58 (expected sign -1)"


def test_lenz_check_fails_when_every_crossed_channel_flips(monkeypatch):
    # ep and ed flip together, so their signs stay opposite; only the table's signs tell
    original = vdwcp.selftest.pair_curve

    def flipped(*args, **kwargs):
        curve = original(*args, **kwargs)
        for channel in (Channel.EP, Channel.ED, Channel.PE, Channel.DE):
            curve.values[channel] *= -1.0
        return curve

    monkeypatch.setattr(vdwcp.selftest, "pair_curve", flipped)
    check = vdwcp.selftest._check_lenz_flip()
    assert not check.passed
    problems = check.detail.removeprefix("sign not as tabled: ").split(", ")
    assert problems[0] == "ep at l=0.05 (expected sign +1)" and problems[-1] == "ed at l=50 (expected sign -1)"
    assert len(problems) == 14


@pytest.mark.parametrize("name", ["MIRROR_D_MOMENT", "PAIR_DD_MOMENT"])
def test_a_wrong_moment_constant_fails_the_kernel_moment_check(monkeypatch, name):
    # the curves and the ratios both take the wrong constant, so only the quadrature against it shows
    wrong = getattr(vdwcp.potentials, name) * (1.0 + 1e-8)
    for module in (vdwcp.potentials, vdwcp.selftest):
        monkeypatch.setattr(module, name, wrong)
    checks = {check.name: check for check in run_selftest().checks}
    assert not checks["kernel-moment-integrals"].passed
