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
