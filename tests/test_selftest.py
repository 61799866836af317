"""The oracle battery's own work per run."""
import vdwcp.selftest
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
    report = run_selftest()
    assert report.all_passed
    # four kernel moments; the q-integral and the unfactored total integrate in their own modules
    assert len(quadratures) == 4
    # pair-dd: one 20-point curve and its spot point; additivity: one 3-point curve;
    # asymptotes 4 and swap 6 one-point curves; Lenz 6 seven-point curves
    assert len(pair_curves) == 19
