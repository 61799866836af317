"""The benchmark's tracer wraps names where vdwcp binds them; they must stay bound."""
import importlib
import sys
from pathlib import Path

import pytest

import vdwcp.asymptotics
import vdwcp.cli
import vdwcp.green
import vdwcp.potentials
import vdwcp.selftest

ROOT = Path(__file__).resolve().parents[1]
TRACED = (vdwcp.asymptotics, vdwcp.cli, vdwcp.green, vdwcp.potentials, vdwcp.selftest)


@pytest.fixture
def tracer(monkeypatch):
    """bench/tracer.py, imported for one test and dropped again with the bench/program.py it imports."""
    if Path(vdwcp.__file__).resolve().parent != (ROOT / "src" / "vdwcp").resolve():
        pytest.skip("bench/ imports vdwcp from this checkout's src/ only")
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # the undo also drops the src/ that program.py adds
    fresh = [name for name in ("tracer", "program") if name not in sys.modules]
    try:
        yield importlib.import_module("tracer")
    finally:
        for name in fresh:
            sys.modules.pop(name, None)


def test_bench_tracer_installs_and_restores(tracer):
    # install looks up every name it wraps, so a name that a refactor unbinds fails here
    before = [dict(vars(module)) for module in TRACED]
    trace = tracer.Tracer()
    try:
        trace.install()
        for module, attr in (
            (vdwcp.potentials, "mirror_kernel"),
            (vdwcp.potentials, "alpha_iso"),
            (vdwcp.potentials, "integrate_semiinf"),
            (vdwcp.selftest, "integrate_semiinf"),
            (vdwcp.asymptotics, "verify_tables"),
        ):
            assert getattr(module, attr) is not before[TRACED.index(module)][attr], attr
    finally:
        trace.remove()
    assert [dict(vars(module)) for module in TRACED] == before
